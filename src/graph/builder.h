// Mutable edge accumulator that produces immutable CSR graphs.
#ifndef CFCM_GRAPH_BUILDER_H_
#define CFCM_GRAPH_BUILDER_H_

#include <utility>
#include <vector>

#include "common/status.h"
#include "graph/graph.h"

namespace cfcm {

/// \brief Accumulates undirected edges and builds a Graph.
///
/// Self-loops are dropped at insertion. Unweighted accumulation (only
/// the two-argument AddEdge is used) deduplicates parallel edges at
/// Build() time and produces a unit-weighted Graph, exactly as before
/// weights existed. As soon as any edge carries an explicit conductance,
/// the builder switches to weighted semantics: duplicate edges have
/// their conductances *summed* (parallel conductors), and Build()
/// rejects non-finite or non-positive weights. If every merged weight
/// ends up exactly 1.0 the result degrades gracefully to a
/// unit-weighted Graph so the fast paths still apply.
///
/// Node count is max(explicit num_nodes, max endpoint + 1).
class GraphBuilder {
 public:
  GraphBuilder() = default;

  /// Pre-declares at least `n` nodes (isolated nodes are allowed here;
  /// most algorithms additionally require connectivity, checked by them).
  explicit GraphBuilder(NodeId n) : num_nodes_(n) {}

  /// Adds undirected unit edge {u, v}. Negative ids are rejected at
  /// Build().
  void AddEdge(NodeId u, NodeId v);

  /// Adds undirected edge {u, v} with conductance `weight`. Switches the
  /// builder to weighted semantics (duplicates summed). Weight validity
  /// is checked at Build().
  void AddEdge(NodeId u, NodeId v, double weight);

  /// Number of (not yet deduplicated) added edges.
  std::size_t num_added_edges() const { return edges_.size(); }

  /// True once any explicit conductance has been added.
  bool has_weights() const { return has_weights_; }

  /// Builds the CSR graph; fails on negative endpoints or (weighted
  /// mode) non-finite / non-positive conductances.
  StatusOr<Graph> Build() &&;

 private:
  NodeId num_nodes_ = 0;
  bool has_weights_ = false;
  std::vector<std::pair<NodeId, NodeId>> edges_;
  std::vector<double> weights_;  // parallel to edges_
};

/// Convenience for tests/generators: builds from an edge list; aborts
/// with the builder's status on invalid input.
Graph BuildGraph(NodeId num_nodes,
                 const std::vector<std::pair<NodeId, NodeId>>& edges);

/// Weighted convenience: builds from (u, v, w) triples; aborts with the
/// builder's status on invalid input (non-positive or non-finite
/// weights, negative ids).
Graph BuildWeightedGraph(NodeId num_nodes,
                         const std::vector<WeightedEdge>& edges);

}  // namespace cfcm

#endif  // CFCM_GRAPH_BUILDER_H_
