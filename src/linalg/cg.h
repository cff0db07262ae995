// Jacobi-preconditioned conjugate gradient for Laplacian systems.
//
// The state-of-the-art baseline APPROXGREEDY [29] relies on a nearly
// linear-time Laplacian solver (Kyng–Sachdeva approximate Cholesky). That
// solver is research software unavailable offline; per the substitution
// rules we implement the classical Jacobi-preconditioned CG of Saad
// (paper ref. [59], the solver the authors themselves use to evaluate
// CFCC on large graphs). The asymptotics differ but every interface and
// experiment shape is preserved; see DESIGN.md.
#ifndef CFCM_LINALG_CG_H_
#define CFCM_LINALG_CG_H_

#include <functional>

#include "common/status.h"
#include "linalg/laplacian.h"

namespace cfcm {

/// Convergence knobs for conjugate gradient.
struct CgOptions {
  double tolerance = 1e-8;  ///< relative residual ||r|| / ||b||
  int max_iterations = 5000;
};

/// Outcome of a CG solve.
struct CgSummary {
  int iterations = 0;
  double relative_residual = 0.0;
  bool converged = false;
};

/// Right-hand sides SolveGroundedBlock advances together: one adjacency
/// pass per iteration serves every lane (DESIGN.md §14).
inline constexpr int kCgLanes = 4;

/// Fills right-hand side j into *b and its initial guess into *x; both
/// arrive zero-filled with length n.
using CgLoadFn = std::function<void(int j, Vector* b, Vector* x)>;

/// Receives solution j (length n, entries at S zero) and its summary.
using CgStoreFn =
    std::function<void(int j, const Vector& x, const CgSummary& summary)>;

/// \brief Solves L_{-S} x = b (vectors in R^n, entries at S pinned to 0).
///
/// `b` entries at S are ignored. Returns the summary; the solution is
/// written to *x (which also provides the initial guess).
CgSummary SolveGroundedLaplacian(const LaplacianSubmatrixOp& op,
                                 const Vector& b, Vector* x,
                                 const CgOptions& options = {});

/// \brief Solves L_{-S} x_j = b_j for j = 0, ..., count - 1, kCgLanes
/// systems at a time.
///
/// A lane that finishes hands its solution to `store` and takes the next
/// j from `load`, so `store` sees the systems out of order. Every x_j and
/// its summary are bit-identical to SolveGroundedLaplacian(op, b_j, &x_j)
/// from the same initial guess: each lane runs exactly the single-vector
/// recurrence's operations in its order.
void SolveGroundedBlock(const LaplacianSubmatrixOp& op, int count,
                        const CgLoadFn& load, const CgStoreFn& store,
                        const CgOptions& options = {});

/// \brief Solves the singular system L x = b with b projected against 1
/// (pseudoinverse application: x = L† b, x ⊥ 1).
CgSummary SolveLaplacianPseudoinverse(const Graph& graph, const Vector& b,
                                      Vector* x, const CgOptions& options = {});

}  // namespace cfcm

#endif  // CFCM_LINALG_CG_H_
