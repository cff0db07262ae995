#include "cfcm/forest_cfcm.h"

#include <algorithm>

#include "cfcm/cfcc.h"
#include "cfcm/lazy_greedy.h"
#include "common/timer.h"
#include "estimators/first_pick.h"
#include "estimators/forest_delta.h"

namespace cfcm {

namespace {

// The paper's literal Alg. 3 loop: every remaining candidate re-scored
// every round. Kept verbatim as the reference the lazy path is pinned
// against (tests/cfcm/lazy_greedy_test.cc).
StatusOr<CfcmResult> ForestCfcmExhaustive(const Graph& graph, int k,
                                          const CfcmOptions& options,
                                          ThreadPool& pool) {
  EstimatorOptions est = ToEstimatorOptions(options);

  CfcmResult result;
  std::vector<char> in_s(static_cast<std::size_t>(graph.num_nodes()), 0);
  // Iteration 1: argmin of the pseudoinverse diagonal (Alg. 3 lines 1-14).
  {
    const FirstPickResult first = EstimateFirstPick(graph, est, pool);
    result.selected.push_back(first.best);
    in_s[first.best] = 1;
    result.forests_per_iteration.push_back(first.forests);
    result.total_forests += first.forests;
    result.total_walk_steps += first.walk_steps;
  }
  // Iterations 2..k: argmax of Delta'(u, S) (Alg. 3 lines 15-18).
  for (int i = 1; i < k; ++i) {
    est.seed = options.seed + static_cast<uint64_t>(i) * 0x9e3779b9ULL;
    const DeltaEstimate delta = ForestDelta(graph, result.selected, est, pool);
    result.jl_rows = delta.jl_rows;
    result.forests_per_iteration.push_back(delta.forests);
    result.total_forests += delta.forests;
    result.total_walk_steps += delta.walk_steps;
    result.rescored_candidates += graph.num_nodes() - i;

    NodeId best = -1;
    double best_delta = -1;
    for (NodeId u = 0; u < graph.num_nodes(); ++u) {
      if (in_s[u]) continue;
      if (delta.delta[u] > best_delta) {
        best_delta = delta.delta[u];
        best = u;
      }
    }
    result.selected.push_back(best);
    in_s[best] = 1;
  }
  RecordSelectionCounters(result.rescored_candidates, result.heap_pops,
                          result.forests_reused);
  return result;
}

}  // namespace

StatusOr<CfcmResult> ForestCfcmMaximize(const Graph& graph, int k,
                                        const CfcmOptions& options) {
  return ForestCfcmMaximizeCaptured(graph, k, options, nullptr);
}

StatusOr<CfcmResult> ForestCfcmMaximizeCaptured(const Graph& graph, int k,
                                                const CfcmOptions& options,
                                                WarmCapture* capture) {
  CFCM_RETURN_IF_ERROR(ValidateCfcmArguments(graph, k));
  Timer timer;
  ThreadPool& pool = ResolveSamplingPool(options);

  StatusOr<CfcmResult> result =
      options.selection == SelectionMode::kExhaustive
          ? ForestCfcmExhaustive(graph, k, options, pool)
          : LazyGreedySelect(
                graph, k, options, pool,
                [&graph, &options, &pool](const std::vector<NodeId>& s_nodes,
                                          uint64_t seed,
                                          const DeltaScope& scope) {
                  EstimatorOptions est = ToEstimatorOptions(options);
                  est.seed = seed;
                  return ForestDelta(graph, s_nodes, est, pool, scope);
                },
                /*allow_forest_reuse=*/false, capture);
  if (result.ok()) result->seconds = timer.Seconds();
  return result;
}

}  // namespace cfcm
