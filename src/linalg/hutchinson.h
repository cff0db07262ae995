// Hutchinson stochastic trace estimation for Tr(L_{-S}^{-1}).
//
// The paper evaluates solution quality on large graphs "employing the
// conjugate gradient method" (Section V-B.2); Hutchinson probing with CG
// solves is the standard way to do that without forming the inverse.
#ifndef CFCM_LINALG_HUTCHINSON_H_
#define CFCM_LINALG_HUTCHINSON_H_

#include <cstdint>
#include <vector>

#include "linalg/cg.h"
#include "linalg/solver.h"

namespace cfcm {

/// Result of a stochastic trace estimate.
struct TraceEstimate {
  double trace = 0.0;
  double std_error = 0.0;  ///< standard error of the mean across probes
  int probes = 0;
  std::int64_t cg_iterations = 0;  ///< summed over probes; 0 off the CG path
};

/// \brief Estimates Tr(L_{-S}^{-1}) with Rademacher probes z and CG
/// solves: E[z^T L_{-S}^{-1} z] = Tr(L_{-S}^{-1}).
///
/// The probes run through SolveGroundedBlock across `pool` (nullptr: the
/// shared process pool, SharedThreadPool(0)), kCgLanes per executor. Each
/// sample is bit-identical to its own single-vector CG solve and is kept
/// in its probe's slot; the samples are summed in probe order after the
/// join, so the estimate depends neither on the lane count nor on the
/// pool size. Adds the CG iterations to engine.linalg.cg_iterations once
/// per call.
TraceEstimate HutchinsonTraceInverse(const Graph& graph,
                                     const std::vector<NodeId>& removed,
                                     int probes, uint64_t seed,
                                     const CgOptions& cg = {},
                                     ThreadPool* pool = nullptr);

/// \brief Backend-aware overload. kAuto and kCg keep the pinned
/// matrix-free CG path above (lane-blocked CG solves across `pool`, one
/// lane per probe — the historical default, so auto does NOT flip large
/// graphs to the factor path behind existing callers). kSparseLdlt/kDense
/// factor L_{-S} once and run every probe as a direct solve on the caller
/// (`pool` unused) — identical probe vectors, so the estimate differs
/// from the CG path only by solver accuracy. Falls back to the CG path if
/// factoring fails (asserts in debug; EvaluateGroup validates
/// connectivity upstream).
TraceEstimate HutchinsonTraceInverse(const Graph& graph,
                                     const std::vector<NodeId>& removed,
                                     int probes, uint64_t seed,
                                     SolverBackend backend,
                                     const CgOptions& cg = {},
                                     ThreadPool* pool = nullptr);

}  // namespace cfcm

#endif  // CFCM_LINALG_HUTCHINSON_H_
