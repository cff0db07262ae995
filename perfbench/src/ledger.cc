#include "ledger.h"

#include "common/rng.h"
#include "common/timer.h"
#include "estimators/forest_delta.h"
#include "estimators/jl_kernel.h"
#include "forest/bfs_tree.h"
#include "forest/subtree.h"
#include "forest/wilson.h"
#include "linalg/jl.h"

namespace perfbench {

namespace {

// Mirrors the sketch seed ForestDelta derives from the estimator seed.
constexpr uint64_t kSketchSeedMix = 0x9d2c5680a76b3f01ULL;

}  // namespace

std::int64_t TimingKernel::ProcessForest(std::size_t slot,
                                         std::uint64_t forest_index) {
  const int64_t t0 = cfcm::MonotonicNanos();
  const std::int64_t steps = inner_.ProcessForest(slot, forest_index);
  process_ns_.fetch_add(cfcm::MonotonicNanos() - t0, std::memory_order_relaxed);
  return steps;
}

void TimingKernel::Accumulate(std::size_t slot, cfcm::NodeId begin,
                              cfcm::NodeId end) {
  const int64_t t0 = cfcm::MonotonicNanos();
  inner_.Accumulate(slot, begin, end);
  accumulate_ns_.fetch_add(cfcm::MonotonicNanos() - t0, std::memory_order_relaxed);
}

void TimingKernel::AccumulateTail(std::size_t slot) {
  const int64_t t0 = cfcm::MonotonicNanos();
  inner_.AccumulateTail(slot);
  accumulate_ns_.fetch_add(cfcm::MonotonicNanos() - t0, std::memory_order_relaxed);
}

cfcm::LazyDeltaFn TimedForestDelta(const cfcm::Graph& graph,
                                   const cfcm::CfcmOptions& options,
                                   cfcm::ThreadPool& pool, DeltaTally* tally) {
  return [&graph, &options, &pool, tally](
             const std::vector<cfcm::NodeId>& s_nodes, uint64_t seed,
             const cfcm::DeltaScope& scope) {
    cfcm::EstimatorOptions est = cfcm::ToEstimatorOptions(options);
    est.seed = seed;
    const int64_t t0 = cfcm::MonotonicNanos();
    cfcm::DeltaEstimate estimate =
        cfcm::ForestDelta(graph, s_nodes, est, pool, scope);
    tally->seconds += (cfcm::MonotonicNanos() - t0) * 1e-9;
    ++tally->calls;
    tally->converged += estimate.converged ? 1 : 0;
    tally->forests += estimate.forests;
    return estimate;
  };
}

ForestLedger MeasureForestLayers(const cfcm::Graph& graph,
                                 const std::vector<cfcm::NodeId>& roots,
                                 const cfcm::CfcmOptions& options, int forests,
                                 cfcm::ThreadPool& single,
                                 cfcm::ThreadPool& multi) {
  const cfcm::NodeId n = graph.num_nodes();
  const cfcm::EstimatorOptions est = cfcm::ToEstimatorOptions(options);
  const int w = cfcm::ResolveJlRows(est, n);
  const cfcm::TreeScaffold scaffold = cfcm::MakeTreeScaffold(graph, roots);
  const cfcm::JlSketch sketch(w, n, est.seed ^ kSketchSeedMix);
  ForestLedger ledger;

  // Walks and JL subtree sums, one forest at a time.
  cfcm::ForestSampler sampler(graph);
  std::vector<double> sub(static_cast<std::size_t>(n) * w);
  int64_t sample_ns = 0;
  int64_t subtree_ns = 0;
  for (int f = 0; f < forests; ++f) {
    cfcm::Rng rng(est.seed, static_cast<uint64_t>(f));
    const int64_t t0 = cfcm::MonotonicNanos();
    const cfcm::RootedForest& forest = sampler.Sample(scaffold.is_root, &rng);
    const int64_t t1 = cfcm::MonotonicNanos();
    cfcm::SubtreeJlSums(forest, scaffold.is_root, sketch, sub.data());
    subtree_ns += cfcm::MonotonicNanos() - t1;
    sample_ns += t1 - t0;
  }
  ledger.sample_us = sample_ns * 1e-3 / forests;
  ledger.subtree_jl_us = subtree_ns * 1e-3 / forests;

  cfcm::McRunOptions run;
  run.num_nodes = n;
  {
    cfcm::JlForestKernel kernel(graph, scaffold, sketch, est.seed, w,
                                cfcm::McScratchSlots(single));
    TimingKernel timed(kernel);
    cfcm::RunForestBatch(single, run, 0, forests, timed);
    ledger.process_us = timed.process_s() * 1e6 / forests;
    ledger.accumulate_us = timed.accumulate_s() * 1e6 / forests;
  }
  {
    ledger.slots = cfcm::McScratchSlots(multi);
    cfcm::JlForestKernel kernel(graph, scaffold, sketch, est.seed, w,
                                ledger.slots);
    TimingKernel timed(kernel);
    const int64_t t0 = cfcm::MonotonicNanos();
    const cfcm::McRunStats stats =
        cfcm::RunForestBatch(multi, run, 0, forests, timed);
    ledger.batch_wall_s = (cfcm::MonotonicNanos() - t0) * 1e-9;
    ledger.busy_s = timed.process_s() + timed.accumulate_s();
    ledger.chunks = stats.chunks;
  }
  return ledger;
}

}  // namespace perfbench
