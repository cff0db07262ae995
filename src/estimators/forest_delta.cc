#include "estimators/forest_delta.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "estimators/bernstein.h"
#include "estimators/jl_kernel.h"
#include "forest/bfs_tree.h"
#include "linalg/jl.h"

namespace cfcm {

DeltaEstimate ForestDelta(const Graph& graph,
                          const std::vector<NodeId>& s_nodes,
                          const EstimatorOptions& options, ThreadPool& pool) {
  return ForestDelta(graph, s_nodes, options, pool, DeltaScope{});
}

DeltaEstimate ForestDelta(const Graph& graph,
                          const std::vector<NodeId>& s_nodes,
                          const EstimatorOptions& options, ThreadPool& pool,
                          const DeltaScope& scope) {
  const NodeId n = graph.num_nodes();
  assert(!s_nodes.empty());
  const TreeScaffold scaffold = MakeTreeScaffold(graph, s_nodes);
  const int w = ResolveJlRows(options, n);
  int target = ResolveTargetForests(options, n);
  if (scope.forest_scale < 1.0) {
    target = std::max(std::max(1, options.min_batch),
                      static_cast<int>(target * scope.forest_scale));
  }
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
  McRunOptions run;
  run.num_nodes = n;

  const std::size_t nw = static_cast<std::size_t>(n) * w;
  std::vector<double> sum_x(static_cast<std::size_t>(n), 0.0);
  std::vector<double> sum_sq_x(static_cast<std::size_t>(n), 0.0);
  std::vector<double> sum_y(nw, 0.0);
  std::vector<double> sum_y_sq(static_cast<std::size_t>(n), 0.0);

  DeltaEstimate result;
  result.jl_rows = w;
  result.delta.assign(static_cast<std::size_t>(n), 0.0);
  result.z.assign(static_cast<std::size_t>(n), 0.0);
  result.numerator.assign(static_cast<std::size_t>(n), 0.0);
  result.rel.assign(static_cast<std::size_t>(n), 0.0);

  int total = 0;
  int batch = std::max(1, options.min_batch);
  while (total < target) {
    const int current = std::min(batch, target - total);
    const McRunStats stats = RunForestBatch(
        pool, run, static_cast<uint64_t>(total), current, kernel);
    result.walk_steps += stats.walk_steps;
    kernel.MergeBatch(&sum_x, &sum_sq_x, &sum_y, &sum_y_sq);
    total += current;
    batch = NextBatchSize(batch, target);
  }

  // Point estimates and each node's relative empirical-Bernstein
  // half-width (Lemma 3.6) at the final forest count. The subset skips
  // the O(w) assembly for excluded nodes.
  const double inv_r = 1.0 / static_cast<double>(total);
  const double log_term = std::log(3.0 / delta_fail);
  for (NodeId u = 0; u < n; ++u) {
    if (scaffold.is_root[u]) continue;  // stays 0
    if (subset != nullptr && !(*subset)[u]) continue;  // stays 0
    const double zu = sum_x[u] * inv_r;
    double raw_num = 0;
    const double* yu = sum_y.data() + static_cast<std::size_t>(u) * w;
    for (int j = 0; j < w; ++j) {
      const double m = yu[j] * inv_r;
      raw_num += m * m;
    }
    // Aggregate variance across sketch rows: sum_j Var(Y_j) = mean
    // ||Y_f||^2 - ||mean Y||^2. Used both to debias the numerator and
    // as the Bernstein variance proxy.
    const double v_tot = std::max(0.0, sum_y_sq[u] * inv_r - raw_num);
    // E[sum_j Ybar_j^2] = ||E Y||^2 + sum_j Var(Y_j)/r: subtract the
    // plug-in bias (it scales with depth^2 and would systematically
    // favor deep nodes on high-diameter graphs).
    const double num =
        total > 1
            ? std::max(raw_num - v_tot / static_cast<double>(total - 1), 0.0)
            : raw_num;
    result.z[u] = zu;
    result.numerator[u] = num;
    // (L^{-1}_{-S})_uu >= 1/d_w(u) by the Neumann-series bound (paper
    // Lemma 3.9; weighted degree = Laplacian diagonal); clamp the
    // denominator so sampling noise cannot blow up the ratio.
    const double z_floor = 1.0 / (graph.weighted_degree(u) + 1.0);
    result.delta[u] = num / std::max(zu, z_floor);

    const double sup_x = 2.0 * scaffold.resistance_depth[u];
    const double hz = EmpiricalBernsteinHalfWidth(total, sum_x[u],
                                                  sum_sq_x[u], sup_x,
                                                  delta_fail);
    const double h_base = 2.0 * log_term * v_tot * inv_r;
    const double h_num = 2.0 * std::sqrt(num * h_base) + h_base;
    result.rel[u] =
        h_num / std::max(num, 1e-300) + hz / std::max(zu, z_floor);
  }
  result.forests = total;
  result.reused_forests = kernel.reused_forests();
  if (scope.arena != nullptr) scope.arena->Commit(total);
  return result;
}

}  // namespace cfcm
