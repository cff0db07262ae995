#include "estimators/forest_delta.h"

#include <cassert>

#include "estimators/jl_kernel.h"
#include "forest/bfs_tree.h"
#include "linalg/jl.h"

namespace cfcm {

DeltaEstimate ForestDelta(const Graph& graph,
                          const std::vector<NodeId>& s_nodes,
                          const EstimatorOptions& options, ThreadPool& pool,
                          const DeltaScope& scope) {
  const NodeId n = graph.num_nodes();
  assert(!s_nodes.empty());
  const TreeScaffold scaffold = MakeTreeScaffold(graph, s_nodes);
  const int w = ResolveJlRows(options, n);
  const int target = ResolveTargetForests(options, n, scope.forest_scale);
  const double delta_fail = ResolveBernsteinDelta(options, n);
  const JlSketch sketch(w, n, options.seed ^ 0x9d2c5680a76b3f01ULL);
  const std::vector<char>* subset = scope.subset;

  JlForestKernel kernel(graph, scaffold, sketch, options.seed, w,
                        McScratchSlots(pool));
  kernel.set_subset(subset);
  if (scope.arena != nullptr) {
    scope.arena->BeginRound(n, s_nodes, options.seed, target);
    kernel.set_arena(scope.arena);
    if (scope.replay_clean != nullptr) {
      kernel.set_replay_plan(scope.replay_clean, scope.resample_seed);
    }
  }

  DeltaEstimate result;
  result.jl_rows = w;
  result.delta.assign(static_cast<std::size_t>(n), 0.0);
  result.z.assign(static_cast<std::size_t>(n), 0.0);
  result.numerator.assign(static_cast<std::size_t>(n), 0.0);
  result.rel.assign(static_cast<std::size_t>(n), 0.0);

  JlMoments moments(n, w);
  const McRunStats run =
      RunForestSchedule(pool, n, options.min_batch, target, kernel,
                        [&] { kernel.MergeBatch(&moments); });
  const int total = run.forests;
  result.walk_steps = run.walk_steps;

  // Point estimates and each node's relative empirical-Bernstein
  // half-width (Lemma 3.6) at the final forest count. The subset skips
  // the O(w) assembly for excluded nodes.
  const double inv_r = 1.0 / static_cast<double>(total);
  const DeltaFinisher finisher(graph, scaffold, moments, total, delta_fail,
                               &result);
  for (NodeId u = 0; u < n; ++u) {
    if (scaffold.is_root[u]) continue;  // stays 0
    if (subset != nullptr && !(*subset)[u]) continue;  // stays 0
    double raw_num = 0;
    const double* yu = moments.sum_y.data() + static_cast<std::size_t>(u) * w;
    for (int j = 0; j < w; ++j) {
      const double m = yu[j] * inv_r;
      raw_num += m * m;
    }
    finisher.Finish(u, moments.sum_x[u] * inv_r, raw_num, raw_num);
  }
  result.forests = total;
  result.reused_forests = kernel.reused_forests();
  if (scope.arena != nullptr) scope.arena->Commit(total);
  return result;
}

}  // namespace cfcm
