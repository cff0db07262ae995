#include "estimators/options.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace cfcm {

namespace {

double Log2N(NodeId n) { return std::log2(static_cast<double>(std::max<NodeId>(2, n))); }

}  // namespace

int ResolveJlRows(const EstimatorOptions& options, NodeId n) {
  if (options.jl_rows > 0) return options.jl_rows;
  const int derived = static_cast<int>(std::ceil(2.0 * Log2N(n)));
  return std::clamp(derived, 8, options.max_jl_rows);
}

int ResolveTargetForests(const EstimatorOptions& options, NodeId n,
                         double forest_scale) {
  int target;
  if (options.target_forests > 0) {
    target = std::min(options.target_forests, options.max_forests);
  } else {
    const double derived =
        options.forest_factor / (options.eps * options.eps) * Log2N(n);
    target = std::clamp(static_cast<int>(std::ceil(derived)),
                        options.min_batch, options.max_forests);
  }
  if (forest_scale < 1.0) {
    target = std::max(std::max(1, options.min_batch),
                      static_cast<int>(target * forest_scale));
  }
  return target;
}

double ResolveBernsteinDelta(const EstimatorOptions& options, NodeId n) {
  if (options.bernstein_delta > 0) return options.bernstein_delta;
  return 1.0 / static_cast<double>(std::max<NodeId>(2, n));
}

McRunStats RunForestSchedule(ThreadPool& pool, NodeId n, int min_batch,
                             int target, ForestKernel& kernel,
                             const std::function<void()>& merge) {
  McRunOptions run;
  run.num_nodes = n;
  McRunStats total;
  int batch = std::max(1, min_batch);
  while (total.forests < target) {
    const int current = std::min(batch, target - total.forests);
    const McRunStats stats = RunForestBatch(
        pool, run, static_cast<uint64_t>(total.forests), current, kernel);
    total.walk_steps += stats.walk_steps;
    merge();
    total.forests += current;
    // Double, clamped to `target` (guarding int overflow when
    // max_forests is large).
    batch = batch > std::numeric_limits<int>::max() / 2
                ? target
                : std::min(batch * 2, target);
  }
  return total;
}

}  // namespace cfcm
