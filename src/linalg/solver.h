// Pluggable Laplacian solver backends (DESIGN.md §14).
//
// Every exact path in the repo reduces to the same three operations on
// the grounded submatrix L_{-S}: solve L_{-S} x = b, batch solves, and
// diag(L_{-S}^{-1}). This header puts the three implementations behind
// one interface:
//
//   dense        — DenseLaplacianSubmatrix + LdltFactorization; the
//                  pinned O(n^3)/O(n^2) reference every other backend
//                  must agree with.
//   sparse_ldlt  — RCM-ordered sparse LDL^T (linalg/sparse_ldlt.h); the
//                  workhorse above the dense ceiling.
//   cg           — Jacobi-preconditioned CG (linalg/cg.h); O(m) memory,
//                  no factorization; SolveMatrix and InverseDiagonal
//                  run one CG solve per column, kCgLanes columns per
//                  adjacency pass (fallback / cross-check).
//
// `auto` resolves by size: dense while the kept dimension is at most
// kDenseBackendMaxN, sparse_ldlt above. The resolution is pure policy —
// every backend computes the same numbers (dense vs sparse_ldlt to
// ~1e-12 relative; cg to its own tolerance).
#ifndef CFCM_LINALG_SOLVER_H_
#define CFCM_LINALG_SOLVER_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "graph/graph.h"
#include "linalg/cg.h"
#include "linalg/dense.h"

namespace cfcm {

/// Which kernel backs the exact Laplacian algebra.
enum class SolverBackend { kAuto, kDense, kSparseLdlt, kCg };

/// "auto" / "dense" / "sparse_ldlt" / "cg".
const char* SolverBackendName(SolverBackend backend);

/// Inverse of SolverBackendName; nullopt for unknown strings.
std::optional<SolverBackend> ParseSolverBackend(std::string_view name);

/// Above this kept dimension, `auto` switches from dense to sparse_ldlt
/// (the bench pins the crossover well below this; the margin keeps tiny
/// graphs on the bit-pinned dense reference).
inline constexpr NodeId kDenseBackendMaxN = 512;

/// Resolves kAuto for a kept dimension of `dim`; other values pass
/// through unchanged.
SolverBackend ResolveSolverBackend(SolverBackend requested, NodeId dim);

/// \brief One factorization (or operator) for a fixed L_{-S}.
///
/// All vectors are indexed by submatrix position — the order of
/// SubmatrixIndex::kept — matching the dense reference exactly.
class LaplacianSolver {
 public:
  virtual ~LaplacianSolver() = default;

  /// The concrete backend (never kAuto).
  virtual SolverBackend backend() const = 0;

  /// Kept dimension n - |S|.
  virtual int dim() const = 0;

  /// Solves L_{-S} x = b.
  virtual Vector Solve(const Vector& b) const = 0;

  /// Solves L_{-S} X = B (B is dim() x m).
  virtual DenseMatrix SolveMatrix(const DenseMatrix& b) const = 0;

  /// diag(L_{-S}^{-1}) in kept order. O(fill^2) for sparse_ldlt,
  /// O(n^3) for dense, dim() CG solves for cg.
  virtual Vector InverseDiagonal() const = 0;

  /// Tr(L_{-S}^{-1}).
  virtual double TraceInverse() const;

  /// Resident bytes of the factorization / operator state.
  virtual std::int64_t MemoryBytes() const = 0;
};

/// \brief Factors (or wraps) L_{-S} with the requested backend.
///
/// kAuto resolves via ResolveSolverBackend on the kept dimension.
/// Fails with NumericalError when L_{-S} is singular (disconnected kept
/// component) and InvalidArgument when the group covers every node.
/// The cg backend is matrix-free and borrows `graph` for the solver's
/// lifetime; dense and sparse_ldlt copy everything they need.
/// Bumps the engine.linalg.factorizations counter on success; Solve
/// paths bump engine.linalg.solves and (cg only)
/// engine.linalg.cg_iterations.
StatusOr<std::unique_ptr<LaplacianSolver>> MakeGroundedSolver(
    const Graph& graph, const std::vector<NodeId>& removed,
    SolverBackend backend, const CgOptions& cg_options = {});

/// \brief Tr(L_{-S}^{-1}) through the chosen backend. The dense path is
/// byte-identical to ExactTraceInverseSubmatrix.
StatusOr<double> TraceInverseSubmatrix(const Graph& graph,
                                       const std::vector<NodeId>& removed,
                                       SolverBackend backend);

}  // namespace cfcm

#endif  // CFCM_LINALG_SOLVER_H_
