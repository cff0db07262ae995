// ForestDelta (paper Algorithm 2): marginal gains Delta(u, S) from
// sampled spanning forests rooted at S.
#ifndef CFCM_ESTIMATORS_FOREST_DELTA_H_
#define CFCM_ESTIMATORS_FOREST_DELTA_H_

#include <cstdint>
#include <vector>

#include "common/thread_pool.h"
#include "estimators/options.h"
#include "graph/graph.h"
#include "runtime/forest_arena.h"

namespace cfcm {

/// Estimates of Delta(u,S) = (L_{-S}^{-2})_uu / (L_{-S}^{-1})_uu.
struct DeltaEstimate {
  std::vector<double> delta;      ///< Delta'(u,S); 0 at nodes of S
  std::vector<double> z;          ///< (L_{-S}^{-1})_uu estimates; 0 at S
  std::vector<double> numerator;  ///< ||W L_{-S}^{-1} e_u||^2 estimates
  /// Per-node relative empirical-Bernstein half-width of delta[u] at the
  /// final forest count (numerator and denominator widths combined). The
  /// lazy selection layer inflates stale heap keys by (1 + rel[u]) so a
  /// noisy low draw cannot freeze a candidate below the refresh frontier
  /// (DESIGN.md §13). 0 at roots / outside the subset.
  std::vector<double> rel;
  int forests = 0;
  int reused_forests = 0;  ///< of `forests`, how many were arena replays
  int jl_rows = 0;
  std::int64_t walk_steps = 0;  ///< total loop-erased walk steps
  /// Always false: every estimate runs its fixed forest schedule. Kept
  /// only because the benchmark ledger still reads it.
  bool converged = false;
};

/// \brief Restricts one Delta estimation call to a candidate subset
/// and/or wires in a forest arena (lazy-greedy re-scoring).
///
/// With a subset mask, only nodes with mask[u] != 0 are estimated — the
/// estimate prices the per-forest passes plus O(|subset| w)
/// accumulation instead of O(n w) accumulation, over the same fixed
/// forest schedule as the unrestricted call. delta/z/numerator/rel stay
/// 0 outside the subset, and a subset node's values are bitwise
/// identical to the unrestricted call's.
struct DeltaScope {
  const std::vector<char>* subset = nullptr;  ///< size-n mask; null = all
  ForestArena* arena = nullptr;  ///< forest replay/retention; may be null
  /// Multiplier on the resolved forest target (floored at min_batch).
  /// The lazy layer lowers it for re-scores in noise-dominated decayed
  /// regimes, where the full budget buys no extra ranking power
  /// (DESIGN.md §13); rel[] reflects the actual sample size, so the
  /// reduced-budget widths stay honest. 1 everywhere fidelity matters.
  double forest_scale = 1.0;
  /// Incremental replay plan (DESIGN.md §16): with `replay_clean` set,
  /// committed arena forests are replayed only where the mask is
  /// nonzero; dirty committed slots resample from Rng(resample_seed, f)
  /// and overwrite their slot. Requires `arena`.
  const std::vector<char>* replay_clean = nullptr;
  uint64_t resample_seed = 0;
};

/// \brief Runs Algorithm 2: samples the resolved target of rooted forests
/// with root set `s_nodes` (in min_batch-doubling batches), maintains
/// diagonal and JL-sketched flow estimators, and reports each node's
/// final empirical-Bernstein width in `rel`.
///
/// Requires a connected graph and a non-empty root set.
DeltaEstimate ForestDelta(const Graph& graph,
                          const std::vector<NodeId>& s_nodes,
                          const EstimatorOptions& options, ThreadPool& pool);

/// ForestDelta restricted by `scope` (subset re-scoring, arena replay).
DeltaEstimate ForestDelta(const Graph& graph,
                          const std::vector<NodeId>& s_nodes,
                          const EstimatorOptions& options, ThreadPool& pool,
                          const DeltaScope& scope);

}  // namespace cfcm

#endif  // CFCM_ESTIMATORS_FOREST_DELTA_H_
