// Per-forest prefix passes implementing the paper's Phi estimators.
//
// All estimators telescope per-edge flow statistics along the fixed BFS
// tree from the root set. The key identity (proved from Lemma 3.2 by
// subtracting the flows sourced at the two endpoints of an edge; see
// DESIGN.md §3) is, for every graph edge (a, b) with conductance w_ab:
//
//   Pr[pi_a = b] - Pr[pi_b = a] = w_ab ((L_{-S}^{-1})_aa - (L_{-S}^{-1})_bb),
//
// the forest-measure form of Ohm's law: the net traversal probability of
// an oriented edge equals conductance times potential difference. The
// per-forest statistic (chi[pi_a = b] - chi[pi_b = a]) / w_ab summed
// along the BFS path of u is therefore an unbiased estimator of
// (L_{-S}^{-1})_uu; and for weighted sources, E[(Wsub_f(a) chi[pi_a=b] -
// Wsub_f(b) chi[pi_b=a]) / w_ab] = sum_v w_v ((L^{-1})_va - (L^{-1})_vb)
// because v's root path traverses a->b iff pi_a = b and v lies in
// subtree(a) (Lemma 3.3). On unit-weighted graphs every 1/w factor is
// exactly 1.0, so the passes reproduce the original integer statistics
// bit-for-bit (integer-valued doubles, exact IEEE arithmetic).
#ifndef CFCM_ESTIMATORS_PHI_ESTIMATORS_H_
#define CFCM_ESTIMATORS_PHI_ESTIMATORS_H_

#include <cstdint>
#include <vector>

#include "forest/bfs_tree.h"
#include "forest/wilson.h"

namespace cfcm {

/// \brief Per-forest diagonal statistics X_f(u) with E[X_f(u)] =
/// (L_{-S}^{-1})_uu. Writes into xbuf (n entries; roots get 0). O(n).
void DiagPrefixPass(const TreeScaffold& scaffold, const RootedForest& forest,
                    std::vector<double>* xbuf);

/// \brief Per-forest all-ones-weighted statistics O_f(u) with E[O_f(u)] =
/// 1^T L_{-S}^{-1} e_u. `sizes` are the forest subtree sizes
/// (SubtreeSizes). Writes into obuf (n entries; roots get 0). O(n).
void OnesPrefixPass(const TreeScaffold& scaffold, const RootedForest& forest,
                    const std::vector<int32_t>& sizes,
                    std::vector<double>* obuf);

/// \brief Per-forest JL-weighted statistics Y_f(u) in R^w with
/// E[Y_{j,f}(u)] = (W L_{-S}^{-1})_{ju}. `sub` are the JL subtree sums
/// (SubtreeJlSums, node-major n*w).
///
/// Y_f(u) is row rows[u] of the node-major n*w buffer ybuf; roots get 0.
/// Most BFS edges are not forest edges, and across one Y_f(u) equals
/// Y_f(bfs parent): such a node shares its parent's row (rows[u] =
/// rows[p]) instead of copying it, and row u of ybuf is left untouched.
/// Every other node owns its row (rows[u] == u). `rows` has n entries.
/// O(n*w) at worst, O(w) per owned row.
void JlPrefixPass(const TreeScaffold& scaffold, const RootedForest& forest,
                  const double* sub, int w, double* ybuf, NodeId* rows);

/// \brief DiagPrefixPass and JlPrefixPass fused into one walk of the BFS
/// order, with outputs bit-identical to running the two in turn. Each
/// node takes one branch, on whether its BFS edge is a forest edge in
/// either direction (owned Y row) or not (shared row, X copied).
void DiagJlPrefixPass(const TreeScaffold& scaffold, const RootedForest& forest,
                      const double* sub, int w, std::vector<double>* xbuf,
                      double* ybuf, NodeId* rows);

/// \brief DiagPrefixPass and OnesPrefixPass fused into one walk of the BFS
/// order, with outputs bit-identical to running the two in turn.
void DiagOnesPrefixPass(const TreeScaffold& scaffold,
                        const RootedForest& forest,
                        const std::vector<int32_t>& sizes,
                        std::vector<double>* xbuf, std::vector<double>* obuf);

}  // namespace cfcm

#endif  // CFCM_ESTIMATORS_PHI_ESTIMATORS_H_
