// Per-layer timing taken from outside the library: a timing
// ForestKernel around JlForestKernel under RunForestBatch, a timing
// LazyDeltaFn around ForestDelta, and direct timings of
// ForestSampler::Sample and SubtreeJlSums. No library code is changed;
// each layer is timed at the public call that enters it.
#ifndef PERFBENCH_LEDGER_H_
#define PERFBENCH_LEDGER_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "cfcm/lazy_greedy.h"
#include "cfcm/options.h"
#include "common/thread_pool.h"
#include "graph/graph.h"
#include "runtime/mc_runtime.h"

namespace perfbench {

/// Forwards every call to `inner` and sums the nanoseconds spent in the
/// per-forest passes (ProcessForest) and the ordered commits
/// (Accumulate + AccumulateTail).
class TimingKernel : public cfcm::ForestKernel {
 public:
  explicit TimingKernel(cfcm::ForestKernel& inner) : inner_(inner) {}

  std::int64_t ProcessForest(std::size_t slot,
                             std::uint64_t forest_index) override;
  void Accumulate(std::size_t slot, cfcm::NodeId begin,
                  cfcm::NodeId end) override;
  void AccumulateTail(std::size_t slot) override;

  double process_s() const { return process_ns_.load() * 1e-9; }
  double accumulate_s() const { return accumulate_ns_.load() * 1e-9; }

 private:
  cfcm::ForestKernel& inner_;
  std::atomic<int64_t> process_ns_{0};
  std::atomic<int64_t> accumulate_ns_{0};
};

/// Timing LazyDeltaFn around ForestDelta, as ForestCfcmMaximize binds it.
struct DeltaTally {
  double seconds = 0.0;
  int calls = 0;
  int converged = 0;
  std::int64_t forests = 0;
};
cfcm::LazyDeltaFn TimedForestDelta(const cfcm::Graph& graph,
                                   const cfcm::CfcmOptions& options,
                                   cfcm::ThreadPool& pool, DeltaTally* tally);

/// Per-forest layer costs on one root set.
struct ForestLedger {
  double sample_us = 0.0;       ///< ForestSampler::Sample, per forest
  double subtree_jl_us = 0.0;   ///< SubtreeJlSums, per forest
  double process_us = 0.0;      ///< JlForestKernel::ProcessForest, per forest
  double accumulate_us = 0.0;   ///< ordered commit, per forest
  // RunForestBatch replayed on the multi-thread pool.
  double batch_wall_s = 0.0;
  double busy_s = 0.0;          ///< ProcessForest + commit time, all slots
  std::size_t slots = 0;
  int chunks = 0;
};

/// Samples `forests` forests rooted at `roots` three ways: sequentially
/// through Sample/SubtreeJlSums, through RunForestBatch on `single`
/// (per-forest pass split) and on `multi` (busy and wait of the
/// runtime). Deterministic in `seed`.
ForestLedger MeasureForestLayers(const cfcm::Graph& graph,
                                 const std::vector<cfcm::NodeId>& roots,
                                 const cfcm::CfcmOptions& options, int forests,
                                 cfcm::ThreadPool& single,
                                 cfcm::ThreadPool& multi);

}  // namespace perfbench

#endif  // PERFBENCH_LEDGER_H_
