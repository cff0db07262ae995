#include "estimators/first_pick.h"

#include <algorithm>
#include <cassert>
#include <memory>

#include "estimators/phi_estimators.h"
#include "forest/bfs_tree.h"
#include "forest/subtree.h"
#include "forest/wilson.h"
#include "runtime/mc_runtime.h"

namespace cfcm {

namespace {

// Alg. 3 lines 1-14 as a sampling-runtime kernel: per forest, the
// diagonal and all-ones prefix passes; per node, v = X_f(u) - (2/n) O_f(u)
// folded into a running sum. One accumulator copy total —
// the runtime's ordered shard commits make the sums thread-invariant.
class FirstPickKernel final : public ForestKernel {
 public:
  FirstPickKernel(const Graph& graph, const TreeScaffold& scaffold,
                  const EstimatorOptions& options, std::size_t slots)
      : scaffold_(scaffold),
        seed_(options.seed),
        inv_n_(1.0 / static_cast<double>(graph.num_nodes())),
        partial_sum_(static_cast<std::size_t>(graph.num_nodes()), 0.0) {
    scratch_.reserve(slots);
    for (std::size_t t = 0; t < slots; ++t) {
      scratch_.push_back(std::make_unique<Scratch>(graph));
    }
  }

  std::int64_t ProcessForest(std::size_t slot,
                             std::uint64_t forest_index) override {
    Scratch& ws = *scratch_[slot];
    Rng rng(seed_, forest_index);
    ws.forest = &ws.sampler.Sample(scaffold_.is_root, &rng);
    SubtreeSizes(*ws.forest, &ws.sizes);
    DiagOnesPrefixPass(scaffold_, *ws.forest, ws.sizes, &ws.xbuf, &ws.obuf);
    return ws.sampler.last_walk_steps();
  }

  void Accumulate(std::size_t slot, NodeId begin, NodeId end) override {
    const Scratch& ws = *scratch_[slot];
    for (NodeId u = begin; u < end; ++u) {
      partial_sum_[u] += ws.xbuf[u] - 2.0 * inv_n_ * ws.obuf[u];
    }
  }

  /// Folds the batch partials into the running sum and clears them.
  /// Merging at batch boundaries fixes the summation order, so the
  /// min_batch doubling schedule is part of the result's bits.
  void MergeBatch(std::vector<double>* sum) {
    for (std::size_t u = 0; u < partial_sum_.size(); ++u) {
      (*sum)[u] += partial_sum_[u];
    }
    std::fill(partial_sum_.begin(), partial_sum_.end(), 0.0);
  }

 private:
  struct Scratch {
    explicit Scratch(const Graph& graph)
        : sampler(graph),
          xbuf(static_cast<std::size_t>(graph.num_nodes())),
          obuf(static_cast<std::size_t>(graph.num_nodes())) {}

    ForestSampler sampler;
    const RootedForest* forest = nullptr;
    std::vector<int32_t> sizes;
    std::vector<double> xbuf;
    std::vector<double> obuf;
  };

  const TreeScaffold& scaffold_;
  const uint64_t seed_;
  const double inv_n_;
  std::vector<std::unique_ptr<Scratch>> scratch_;
  std::vector<double> partial_sum_;
};

}  // namespace

FirstPickResult EstimateFirstPick(const Graph& graph,
                                  const EstimatorOptions& options,
                                  ThreadPool& pool) {
  const NodeId n = graph.num_nodes();
  assert(n >= 2);
  FirstPickResult result;
  // Pivot: the max-weighted-degree node minimizes the absorbing-walk
  // cost; identical to the max-degree node on unit-weighted graphs.
  result.pivot = graph.MaxWeightedDegreeNode();
  const TreeScaffold scaffold = MakeTreeScaffold(graph, {result.pivot});
  const int target = ResolveTargetForests(options, n);

  FirstPickKernel kernel(graph, scaffold, options, McScratchSlots(pool));
  std::vector<double> sum(static_cast<std::size_t>(n), 0.0);
  const McRunStats run =
      RunForestSchedule(pool, n, options.min_batch, target, kernel,
                        [&] { kernel.MergeBatch(&sum); });
  result.forests = run.forests;
  result.walk_steps = run.walk_steps;

  result.scores.assign(static_cast<std::size_t>(n), 0.0);
  for (NodeId u = 0; u < n; ++u) {
    result.scores[u] = sum[u] / result.forests;
  }
  result.scores[result.pivot] = 0.0;  // Alg. 3 line 11: x_s <- 0
  result.best = static_cast<NodeId>(
      std::min_element(result.scores.begin(), result.scores.end()) -
      result.scores.begin());
  return result;
}

}  // namespace cfcm
