// Current flow closeness centrality values (Eq. 3) and validation.
#ifndef CFCM_CFCM_CFCC_H_
#define CFCM_CFCM_CFCC_H_

#include <vector>

#include "common/status.h"
#include "graph/graph.h"
#include "linalg/hutchinson.h"

namespace cfcm {

/// \brief Exact group CFCC C(S) = n / Tr(L_{-S}^{-1}) via dense LDL^T.
/// O((n-|S|)^3); small graphs only. Requires non-empty S.
double ExactGroupCfcc(const Graph& graph, const std::vector<NodeId>& group);

/// Exact single-node CFCC C({u}).
double ExactNodeCfcc(const Graph& graph, NodeId u);

/// \brief Exact Tr(L_{-S_i}^{-1}) for every prefix S_i of `order`.
///
/// One dense inversion plus one Sherman–Morrison submatrix-inverse
/// downdate per node: O(n^3 + |order| n^2) for the whole curve, versus
/// O(|order| n^3) for independent evaluations. This is how the benches
/// evaluate C(S) along a greedy selection (C(S_i) = n / trace[i]).
std::vector<double> ExactPrefixTraces(const Graph& graph,
                                      const std::vector<NodeId>& order);

/// \brief Approximate group CFCC for large graphs: Hutchinson probing of
/// Tr(L_{-S}^{-1}) with CG solves (the paper's Section V-B.2 evaluation
/// protocol). Returns C(S) and the probe standard error of the trace.
struct ApproxCfcc {
  double cfcc = 0.0;
  double trace = 0.0;
  double trace_std_error = 0.0;
};
ApproxCfcc ApproximateGroupCfcc(const Graph& graph,
                                const std::vector<NodeId>& group, int probes,
                                uint64_t seed, const CgOptions& cg = {});

/// Backend-aware overload: kAuto/kCg keep the pinned CG path (probes
/// advanced kCgLanes at a time, each bit-identical to its own CG solve);
/// kSparseLdlt/kDense factor L_{-S} once and run the probes as direct
/// solves (same probe vectors — see linalg/hutchinson.h).
ApproxCfcc ApproximateGroupCfcc(const Graph& graph,
                                const std::vector<NodeId>& group, int probes,
                                uint64_t seed, SolverBackend backend,
                                const CgOptions& cg = {});

/// Validates common CFCM preconditions: connected graph, 1 <= k < n.
Status ValidateCfcmArguments(const Graph& graph, int k);

}  // namespace cfcm

#endif  // CFCM_CFCM_CFCC_H_
