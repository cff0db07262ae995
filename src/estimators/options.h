// Sampling configuration shared by all forest estimators.
#ifndef CFCM_ESTIMATORS_OPTIONS_H_
#define CFCM_ESTIMATORS_OPTIONS_H_

#include <cstdint>

#include "graph/graph.h"

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

/// Number of forests every estimate samples.
int ResolveTargetForests(const EstimatorOptions& options, NodeId n);

/// Failure probability delta for Bernstein bounds.
double ResolveBernsteinDelta(const EstimatorOptions& options, NodeId n);

/// Next batch size for the doubling sample loops: 2 * batch, clamped to
/// `target` and guarded against int overflow when max_forests is large.
int NextBatchSize(int batch, int target);

}  // namespace cfcm

#endif  // CFCM_ESTIMATORS_OPTIONS_H_
