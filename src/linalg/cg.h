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
#include "common/thread_pool.h"
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

/// Right-hand sides one executor of SolveGroundedBlock advances together:
/// one adjacency pass per iteration serves every lane (DESIGN.md §14).
inline constexpr int kCgLanes = 4;

/// Fills right-hand side j into *b and its initial guess into *x; both
/// arrive zero-filled with length n. Called concurrently from the pool,
/// each time with a distinct j: it may write only *b, *x and state of
/// its own j.
using CgLoadFn = std::function<void(int j, Vector* b, Vector* x)>;

/// Receives solution j (length n, entries at S zero) and its summary.
/// Called concurrently from the pool, each time with a distinct j: it may
/// write only state of its own j (a slot per j, not a running sum).
using CgStoreFn =
    std::function<void(int j, const Vector& x, const CgSummary& summary)>;

/// \brief Solves L_{-S} x = b (vectors in R^n, entries at S pinned to 0).
///
/// `b` entries at S are ignored. Returns the summary; the solution is
/// written to *x (which also provides the initial guess).
CgSummary SolveGroundedLaplacian(const LaplacianSubmatrixOp& op,
                                 const Vector& b, Vector* x,
                                 const CgOptions& options = {});

/// \brief Solves L_{-S} x_j = b_j for j = 0, ..., count - 1 across `pool`.
///
/// min(pool.num_threads(), ceil(count / kCgLanes)) executors each advance
/// kCgLanes systems together and claim the next j from one shared cursor
/// whenever a lane finishes, so `load` and `store` run concurrently and
/// see the systems out of order. A 1-thread pool runs one executor inline
/// on the caller. Every x_j and its summary are bit-identical to
/// SolveGroundedLaplacian(op, b_j, &x_j) from the same initial guess,
/// whatever the pool size: each lane runs exactly the single-vector
/// recurrence's operations in its order.
///
/// Each executor holds its own lane arrays, 5 * kCgLanes + 3 n-vectors
/// (184 bytes per node), for the length of the call, so a call's scratch
/// is executors * 184 * n bytes: it grows with the pool size (about
/// 74 MB at n = 100000 on 4 threads, against 18 MB on one).
void SolveGroundedBlock(const LaplacianSubmatrixOp& op, int count,
                        const CgLoadFn& load, const CgStoreFn& store,
                        ThreadPool& pool, const CgOptions& options = {});

/// \brief Solves the singular system L x = b with b projected against 1
/// (pseudoinverse application: x = L† b, x ⊥ 1).
CgSummary SolveLaplacianPseudoinverse(const Graph& graph, const Vector& b,
                                      Vector* x, const CgOptions& options = {});

/// \brief SolveGroundedBlock's pseudoinverse twin: x_j = L† b_j for
/// j = 0, ..., count - 1 across `pool`, each bit-identical to
/// SolveLaplacianPseudoinverse(graph, b_j, &x_j) from the same initial
/// guess. `load` and `store` follow SolveGroundedBlock's contract.
void SolveLaplacianPseudoinverseBlock(const Graph& graph, int count,
                                      const CgLoadFn& load,
                                      const CgStoreFn& store, ThreadPool& pool,
                                      const CgOptions& options = {});

}  // namespace cfcm

#endif  // CFCM_LINALG_CG_H_
