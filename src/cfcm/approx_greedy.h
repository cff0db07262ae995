// APPROXGREEDY: the state-of-the-art baseline of Li et al. [29].
//
// JL-sketched greedy where every diagonal estimate is produced by solving
// Laplacian linear systems. The authors use the Kyng–Sachdeva approximate
// Cholesky solver (research software, unavailable offline); per the
// substitution rules we plug in Jacobi-preconditioned CG (linalg/cg.h).
// This preserves the algorithm's structure and its defining performance
// characteristic — per-iteration cost proportional to solving
// O(eps^{-2} log n) systems on a matrix with m nonzeros — which is what
// Table II's dense-graph slowdown measures.
#ifndef CFCM_CFCM_APPROX_GREEDY_H_
#define CFCM_CFCM_APPROX_GREEDY_H_

#include <vector>

#include "cfcm/options.h"
#include "common/status.h"
#include "linalg/cg.h"

namespace cfcm {

/// Result of the APPROXGREEDY baseline.
struct ApproxGreedyResult {
  std::vector<NodeId> selected;
  double seconds = 0.0;
  int solver_calls = 0;        ///< number of Laplacian systems solved
  std::int64_t cg_iterations = 0;  ///< total CG iterations across solves
};

/// \brief Runs APPROXGREEDY with error parameter options.eps.
///
/// Pick 1: L†_uu ≈ ||Q B L† e_u||^2 via w pseudoinverse solves (B is the
/// edge incidence matrix). Picks 2..k: Delta(u,S) with numerator
/// ||W L_{-S}^{-1} e_u||^2 (w grounded solves) and denominator
/// (L_{-S}^{-1})_uu = ||B~ L_{-S}^{-1} e_u||^2 (w more solves), where
/// B~^T B~ = L_{-S} augments the interior incidence rows with sqrt(b_u)
/// boundary rows.
///
/// Each step's w solves run through the lane-blocked CG across
/// ResolveSamplingPool(options), in chunks of at most 4 * kCgLanes
/// systems per pool thread, folded in index order, so the selection, cg_iterations and
/// solver_calls are bit-identical at every pool size. A chunk's solutions
/// (8 n bytes each) are kept until its fold.
StatusOr<ApproxGreedyResult> ApproxGreedyMaximize(const Graph& graph, int k,
                                                  const CfcmOptions& options,
                                                  const CgOptions& cg = {});

}  // namespace cfcm

#endif  // CFCM_CFCM_APPROX_GREEDY_H_
