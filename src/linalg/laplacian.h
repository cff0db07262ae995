// Laplacian matrices and grounded submatrices L_{-S}.
#ifndef CFCM_LINALG_LAPLACIAN_H_
#define CFCM_LINALG_LAPLACIAN_H_

#include <vector>

#include "graph/graph.h"
#include "linalg/dense.h"

namespace cfcm {

/// \brief Index bookkeeping for the grounded submatrix L_{-S}.
///
/// `kept` lists nodes of V \ S in ascending order; `pos[u]` is u's row
/// index in L_{-S} or -1 if u is in S.
struct SubmatrixIndex {
  std::vector<NodeId> kept;
  std::vector<NodeId> pos;
};

/// Builds the index for removing `removed` (duplicates allowed).
SubmatrixIndex MakeSubmatrixIndex(NodeId n, const std::vector<NodeId>& removed);

/// Full dense Laplacian L = D_w - A_w (weighted degrees on the diagonal,
/// -w_uv off-diagonal; the unweighted L = D - A when unit-weighted).
DenseMatrix DenseLaplacian(const Graph& graph);

/// Dense grounded submatrix L_{-S} over index.kept (full-graph weighted
/// degrees on the diagonal).
DenseMatrix DenseLaplacianSubmatrix(const Graph& graph,
                                    const SubmatrixIndex& index);

/// \brief Dense Moore–Penrose pseudoinverse of the Laplacian:
/// L† = (L + J/n)^{-1} - J/n, where J = 11^T.
DenseMatrix LaplacianPseudoinverse(const Graph& graph);

/// Exact Tr(L_{-S}^{-1}) via dense LDL^T (reference / EXACT baseline).
double ExactTraceInverseSubmatrix(const Graph& graph,
                                  const std::vector<NodeId>& removed);

/// Exact dense L_{-S}^{-1} (test reference).
DenseMatrix ExactLaplacianSubmatrixInverse(const Graph& graph,
                                           const std::vector<NodeId>& removed);

/// \brief Exact Tr((I - P_{-S})^{-1}) = sum_u d_w(u) (L_{-S}^{-1})_uu:
/// the expected absorbing-walk cost that bounds Wilson's running time
/// (paper Lemma 3.7; weighted degrees). Dense; small graphs / tests.
double ExactAbsorptionWalkCost(const Graph& graph,
                               const std::vector<NodeId>& removed);

/// \brief Matrix-free y = L_{-S} x operator on full-length vectors.
///
/// Vectors live in R^n with entries at S pinned to zero; the operator
/// writes zeros there. This keeps CG code independent of submatrix
/// reindexing.
class LaplacianSubmatrixOp {
 public:
  /// `in_removed` is an n-length 0/1 mask of S (may be all-zero, in which
  /// case the operator is the singular full Laplacian).
  LaplacianSubmatrixOp(const Graph& graph, std::vector<char> in_removed);

  NodeId n() const { return graph_.num_nodes(); }
  const Graph& graph() const { return graph_; }
  bool removed(NodeId u) const { return in_removed_[u] != 0; }

  /// y = L_{-S} x  (entries at S zeroed).
  void Apply(const Vector& x, Vector* y) const;

  /// Jacobi preconditioner z = diag(L)^{-1} r with diag(L) the weighted
  /// degrees (entries at S zeroed).
  void ApplyJacobi(const Vector& r, Vector* z) const;

 private:
  const Graph& graph_;
  std::vector<char> in_removed_;
};

}  // namespace cfcm

#endif  // CFCM_LINALG_LAPLACIAN_H_
