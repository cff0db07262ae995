// SchurDelta (paper Algorithm 4): marginal gains Delta(u, S) estimated
// from forests rooted at S ∪ T plus an estimated Schur complement.
#ifndef CFCM_ESTIMATORS_SCHUR_DELTA_H_
#define CFCM_ESTIMATORS_SCHUR_DELTA_H_

#include <vector>

#include "common/thread_pool.h"
#include "estimators/forest_delta.h"
#include "estimators/options.h"
#include "graph/graph.h"

namespace cfcm {

/// DeltaEstimate plus Schur-specific diagnostics.
struct SchurDeltaEstimate : DeltaEstimate {
  double ridge = 0.0;       ///< diagonal regularization added to the
                            ///< estimated Schur complement (0 normally)
  int auxiliary_roots = 0;  ///< |T| actually used
};

/// \brief Runs Algorithm 4.
///
/// Forests are rooted at S ∪ T, which makes Wilson walks absorb at hubs
/// (cheap) and L^{-1}_{-S∪T} strongly diagonally dominant (accurate).
/// L_{-S}^{-1} is reconstructed through the block identity Eq. (11) using
/// the rooted-probability matrix F (Lemma 4.2) and the Schur complement
/// estimated entrywise from F via Eq. (15).
///
/// `scope` restricts the call (subset re-scoring, arena replay). The
/// rooted-probability counters stay global regardless of the subset —
/// the Schur complement (Eq. 15) needs F~(u, t) for every neighbor u of
/// T — but they are O(1) per node per forest; the O(w)-per-node moment
/// folds and the Eq. (11) per-candidate assembly shrink to the subset.
///
/// `t_nodes` must be disjoint from `s_nodes`; both non-empty; graph
/// connected; |S| + |T| < n.
SchurDeltaEstimate SchurDelta(const Graph& graph,
                              const std::vector<NodeId>& s_nodes,
                              const std::vector<NodeId>& t_nodes,
                              const EstimatorOptions& options,
                              ThreadPool& pool, const DeltaScope& scope = {});

}  // namespace cfcm

#endif  // CFCM_ESTIMATORS_SCHUR_DELTA_H_
