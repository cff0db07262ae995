#include "cfcm/options.h"

#include "runtime/shared_pool.h"

namespace cfcm {

const char* SelectionModeName(SelectionMode mode) {
  return mode == SelectionMode::kLazy ? "lazy" : "exhaustive";
}

std::optional<SelectionMode> ParseSelectionMode(std::string_view name) {
  if (name == "lazy") return SelectionMode::kLazy;
  if (name == "exhaustive") return SelectionMode::kExhaustive;
  return std::nullopt;
}

EstimatorOptions ToEstimatorOptions(const CfcmOptions& options) {
  EstimatorOptions est;
  est.eps = options.eps;
  est.seed = options.seed;
  est.min_batch = options.min_batch;
  est.max_forests = options.max_forests;
  est.forest_factor = options.forest_factor;
  est.jl_rows = options.jl_rows;
  est.max_jl_rows = options.max_jl_rows;
  return est;
}

ThreadPool& ResolveSamplingPool(const CfcmOptions& options) {
  if (options.pool != nullptr) return *options.pool;
  return SharedThreadPool(options.num_threads);
}

}  // namespace cfcm
