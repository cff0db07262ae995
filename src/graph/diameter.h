// Graph diameter: exact (all-pairs BFS) and double-sweep estimate.
#ifndef CFCM_GRAPH_DIAMETER_H_
#define CFCM_GRAPH_DIAMETER_H_

#include "graph/graph.h"

namespace cfcm {

/// Exact diameter of a connected graph via BFS from every node. O(nm);
/// intended for tests and tiny graphs.
NodeId ExactDiameter(const Graph& graph);

/// \brief Double-sweep lower bound on the diameter.
///
/// Runs `sweeps` rounds of BFS(farthest-node) ping-pong starting from the
/// max-degree node. On real-world graphs the bound is typically exact or
/// off by one; estimator sample bounds only need the right order of
/// magnitude (actual sample counts follow the eps^-2 log n forest
/// target, not a diameter bound).
NodeId EstimateDiameter(const Graph& graph, int sweeps = 4);

}  // namespace cfcm

#endif  // CFCM_GRAPH_DIAMETER_H_
