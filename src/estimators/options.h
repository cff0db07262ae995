// Sampling configuration shared by all forest estimators.
#ifndef CFCM_ESTIMATORS_OPTIONS_H_
#define CFCM_ESTIMATORS_OPTIONS_H_

#include <cstdint>
#include <functional>

#include "common/thread_pool.h"
#include "graph/graph.h"
#include "runtime/mc_runtime.h"

namespace cfcm {

/// \brief Knobs for forest sampling and JL sketching.
///
/// The paper's closed-form sample bounds (Lemmas 3.9/4.5 and the JL bound
/// of Lemma 3.4) are intentionally conservative. Every estimate instead
/// samples a fixed target scaling as eps^{-2} log n, capped at
/// max_forests, in batches that start at min_batch and double; the
/// empirical-Bernstein bound (Lemma 3.6) only sizes the final per-node
/// widths the lazy selection layer reads. See DESIGN.md "Engineering
/// constants".
struct EstimatorOptions {
  double eps = 0.2;          ///< error parameter (paper's epsilon)
  uint64_t seed = 1;         ///< base seed; forest i uses stream (seed, i)
  int min_batch = 32;        ///< first batch size (doubles each batch)
  int max_forests = 1024;    ///< hard cap on sampled forests
  int target_forests = 0;    ///< 0 = derive: forest_factor * eps^-2 * log2 n
  double forest_factor = 1.0;
  int jl_rows = 0;           ///< 0 = derive: clamp(2 log2 n, 8, max_jl_rows)
  int max_jl_rows = 64;
  double bernstein_delta = 0.0;  ///< 0 = 1/n
};

/// Number of JL rows w actually used for an n-node graph.
int ResolveJlRows(const EstimatorOptions& options, NodeId n);

/// Number of forests every estimate samples. A `forest_scale` below 1
/// (DeltaScope::forest_scale) shrinks it, floored at min_batch.
int ResolveTargetForests(const EstimatorOptions& options, NodeId n,
                         double forest_scale = 1.0);

/// Failure probability delta for Bernstein bounds.
double ResolveBernsteinDelta(const EstimatorOptions& options, NodeId n);

/// \brief The fixed forest schedule of every estimator: runs forests
/// [0, target) through `kernel` on `pool` in batches of min_batch,
/// 2 min_batch, 4 min_batch, ... (each clamped to what is left),
/// calling `merge` after each batch.
///
/// The kernel's batch partials are folded at these boundaries, so the
/// schedule is part of every estimate's bits. Returns the forests run
/// and their total walk steps.
McRunStats RunForestSchedule(ThreadPool& pool, NodeId n, int min_batch,
                             int target, ForestKernel& kernel,
                             const std::function<void()>& merge);

}  // namespace cfcm

#endif  // CFCM_ESTIMATORS_OPTIONS_H_
