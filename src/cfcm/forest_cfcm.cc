#include "cfcm/forest_cfcm.h"

#include "cfcm/lazy_greedy.h"
#include "common/timer.h"
#include "estimators/forest_delta.h"

namespace cfcm {

StatusOr<CfcmResult> ForestCfcmMaximize(const Graph& graph, int k,
                                        const CfcmOptions& options) {
  return ForestCfcmMaximizeCaptured(graph, k, options, nullptr);
}

StatusOr<CfcmResult> ForestCfcmMaximizeCaptured(const Graph& graph, int k,
                                                const CfcmOptions& options,
                                                WarmCapture* capture) {
  Timer timer;
  ThreadPool& pool = ResolveSamplingPool(options);

  // Alg. 3: the shared greedy driver (it validates the arguments),
  // scoring rounds 2..k with Alg. 2.
  StatusOr<CfcmResult> result = LazyGreedySelect(
      graph, k, options, pool,
      [&graph, &options, &pool](const std::vector<NodeId>& s_nodes,
                                uint64_t seed, const DeltaScope& scope) {
        EstimatorOptions est = ToEstimatorOptions(options);
        est.seed = seed;
        return ForestDelta(graph, s_nodes, est, pool, scope);
      },
      /*allow_forest_reuse=*/false, capture);
  if (result.ok()) result->seconds = timer.Seconds();
  return result;
}

}  // namespace cfcm
