// Immutable CSR representation of a simple undirected graph with
// optional per-edge conductances (weights).
#ifndef CFCM_GRAPH_GRAPH_H_
#define CFCM_GRAPH_GRAPH_H_

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/status.h"

namespace cfcm {

class GraphDelta;

using NodeId = int32_t;
using EdgeId = int64_t;

/// An undirected edge with its conductance.
struct WeightedEdge {
  NodeId u = -1;
  NodeId v = -1;
  double weight = 1.0;
};

/// Canonical 64-bit key of the undirected edge {u, v}: endpoint order
/// does not matter. Shared by everything that hash-indexes edge sets
/// (delta application, greedy edge addition).
inline uint64_t UndirectedEdgeKey(NodeId u, NodeId v) {
  if (u > v) std::swap(u, v);
  return (static_cast<uint64_t>(static_cast<uint32_t>(u)) << 32) |
         static_cast<uint32_t>(v);
}

/// \brief Simple undirected graph in compressed sparse row form.
///
/// Nodes are dense integers [0, n). Every undirected edge {u, v} is stored
/// twice (once in each adjacency list); `num_edges()` reports the
/// undirected count m. Self-loops and parallel edges are rejected by
/// GraphBuilder, so degree(u) == adjacency size.
///
/// Edges optionally carry positive conductances w_e (electrical weights;
/// larger = lower resistance). A graph built without weights is
/// *unit-weighted*: `is_unit_weighted()` is true, no weight array is
/// stored, and every algorithm takes its original unweighted fast path,
/// bit-for-bit. Weighted graphs store `weights_` parallel to
/// `neighbors_` plus the per-node weighted degrees, so
/// `weighted_degree()` stays O(1).
///
/// The structure is immutable after construction which makes it safe to
/// share across sampling threads without synchronization.
class Graph {
 public:
  Graph() = default;

  /// Takes ownership of prebuilt CSR arrays. `offsets` has n+1 entries,
  /// `neighbors` has 2m entries with each list sorted ascending.
  /// The graph is unit-weighted.
  Graph(std::vector<EdgeId> offsets, std::vector<NodeId> neighbors);

  /// Weighted variant: `weights` is parallel to `neighbors` (2m entries,
  /// symmetric: the weight of {u,v} appears in both lists). An empty
  /// `weights` vector yields a unit-weighted graph.
  Graph(std::vector<EdgeId> offsets, std::vector<NodeId> neighbors,
        std::vector<double> weights);

  NodeId num_nodes() const { return static_cast<NodeId>(offsets_.empty() ? 0 : offsets_.size() - 1); }
  EdgeId num_edges() const { return static_cast<EdgeId>(neighbors_.size()) / 2; }

  /// True when no explicit conductances are stored (all weights are 1).
  bool is_unit_weighted() const { return weights_.empty(); }

  /// Degree of node u.
  NodeId degree(NodeId u) const {
    return static_cast<NodeId>(offsets_[u + 1] - offsets_[u]);
  }

  /// Weighted degree d_w(u) = sum of conductances at u (the Laplacian
  /// diagonal). Equals degree(u) on unit-weighted graphs. O(1).
  double weighted_degree(NodeId u) const {
    return weights_.empty() ? static_cast<double>(degree(u))
                            : weighted_degree_[u];
  }

  /// Sum of all edge conductances (each undirected edge counted once);
  /// equals num_edges() on unit-weighted graphs.
  double total_weight() const {
    return weights_.empty() ? static_cast<double>(num_edges())
                            : total_weight_;
  }

  /// Adjacency list of u, sorted ascending.
  std::span<const NodeId> neighbors(NodeId u) const {
    return {neighbors_.data() + offsets_[u],
            static_cast<std::size_t>(offsets_[u + 1] - offsets_[u])};
  }

  /// Conductances parallel to neighbors(u). Empty span on unit-weighted
  /// graphs — callers on hot paths branch on is_unit_weighted().
  std::span<const double> weights(NodeId u) const {
    if (weights_.empty()) return {};
    return {weights_.data() + offsets_[u],
            static_cast<std::size_t>(offsets_[u + 1] - offsets_[u])};
  }

  /// True if {u, v} is an edge (binary search, O(log deg)).
  bool HasEdge(NodeId u, NodeId v) const;

  /// Conductance of edge {u, v}; 0 if absent. O(log deg).
  double EdgeWeight(NodeId u, NodeId v) const;

  /// Node with maximum degree (smallest id wins ties); -1 on empty graph.
  NodeId MaxDegreeNode() const;

  /// Node with maximum weighted degree (smallest id wins ties); equal to
  /// MaxDegreeNode() on unit-weighted graphs. -1 on empty graph.
  NodeId MaxWeightedDegreeNode() const;

  /// All undirected edges as (u, v) pairs with u < v.
  std::vector<std::pair<NodeId, NodeId>> Edges() const;

  /// All undirected edges with conductances, u < v.
  std::vector<WeightedEdge> WeightedEdges() const;

  /// \brief Applies `delta` and returns a NEW immutable graph; this
  /// graph is untouched (copy-on-write snapshot semantics).
  ///
  /// The delta is merged into a copy of this graph's CSR arrays in one
  /// node-order pass, O(n + m + |delta| log |delta|). The result is
  /// byte-identical to rebuilding the edited edge set through
  /// GraphBuilder: sorted adjacency lists, duplicate additions summing
  /// conductances in delta order (an overflowing sum is rejected), and
  /// degradation to a unit-weighted graph whenever every surviving
  /// conductance is exactly 1.0.
  /// Validation errors (missing edge removal/reweight, non-positive or
  /// non-finite weight, self-loop, endpoint outside the post-delta node
  /// range) reject the whole delta — Apply is all-or-nothing.
  /// Defined in graph/delta.cc.
  StatusOr<Graph> Apply(const GraphDelta& delta) const;

  /// Raw CSR access for kernels that iterate all adjacencies.
  const std::vector<EdgeId>& offsets() const { return offsets_; }
  const std::vector<NodeId>& raw_neighbors() const { return neighbors_; }
  /// Raw weight array parallel to raw_neighbors(); empty when unit.
  const std::vector<double>& raw_weights() const { return weights_; }

 private:
  std::vector<EdgeId> offsets_;
  std::vector<NodeId> neighbors_;
  std::vector<double> weights_;          // empty = unit-weighted
  std::vector<double> weighted_degree_;  // empty = unit-weighted
  double total_weight_ = 0.0;
};

}  // namespace cfcm

#endif  // CFCM_GRAPH_GRAPH_H_
