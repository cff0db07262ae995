// Versioned mutation pipeline, graph layer: a GraphDelta batches edge
// and node changes, and Graph::Apply(delta) materializes them as a NEW
// immutable CSR snapshot, merging the delta into a copy of the base's
// arrays in one O(n + m) pass. The base graph is never touched, so
// snapshots already handed to running jobs stay valid — the property
// the engine's versioned sessions and the serving layer's
// cache-soundness argument rest on (DESIGN.md §11).
#ifndef CFCM_GRAPH_DELTA_H_
#define CFCM_GRAPH_DELTA_H_

#include <cstddef>
#include <utility>
#include <vector>

#include "common/status.h"
#include "graph/graph.h"

namespace cfcm {

/// \brief An ordered batch of mutations against one base graph.
///
/// Apply order is fixed: removals, then reweights, then node additions,
/// then edge additions — so one delta can remove an edge and re-add it
/// with a new conductance, and added edges may touch nodes the same
/// delta introduces.
///
/// Validation follows GraphBuilder: endpoints must be existing (or
/// just-added) node ids, conductances must be positive and finite, and
/// duplicate additions of the same edge sum their conductances
/// (parallel conductors). Unlike the builder, a delta is strict where
/// silence would hide a bug: self-loops, removing or reweighting a
/// missing edge, and endpoints beyond the post-delta node count are
/// errors instead of silent drops or implicit node growth.
class GraphDelta {
 public:
  /// One edge endpoint pair with a conductance (additions / reweights).
  struct Edge {
    NodeId u = -1;
    NodeId v = -1;
    double weight = 1.0;
  };

  /// Appends `count` isolated nodes after the base graph's ids. The
  /// solvers still require connectivity, so a useful delta connects new
  /// nodes with edge additions in the same batch. Accumulates in 64
  /// bits so repeated calls cannot overflow before Apply's node-id
  /// range check runs; a negative count is remembered and rejected at
  /// Apply (it must not silently cancel against later positive calls).
  void AddNodes(NodeId count) {
    add_nodes_ += count;
    if (count < 0) negative_add_nodes_ = true;
  }

  /// Adds undirected edge {u, v} with conductance `weight`. Adding an
  /// edge that already exists (in the base or earlier in this delta)
  /// sums the conductances, the GraphBuilder parallel-conductor rule.
  void AddEdge(NodeId u, NodeId v, double weight = 1.0) {
    add_edges_.push_back({u, v, weight});
  }

  /// Removes existing edge {u, v}; Apply fails with NotFound if absent.
  void RemoveEdge(NodeId u, NodeId v) { remove_edges_.emplace_back(u, v); }

  /// Replaces the conductance of existing edge {u, v}; Apply fails with
  /// NotFound if absent, InvalidArgument on a bad weight.
  void ReweightEdge(NodeId u, NodeId v, double weight) {
    reweight_edges_.push_back({u, v, weight});
  }

  bool empty() const {
    return add_nodes_ == 0 && add_edges_.empty() && remove_edges_.empty() &&
           reweight_edges_.empty();
  }

  /// Total number of batched operations (node additions count once per
  /// AddNodes call's node).
  std::size_t num_operations() const {
    return static_cast<std::size_t>(add_nodes_ > 0 ? add_nodes_ : 0) +
           add_edges_.size() + remove_edges_.size() + reweight_edges_.size();
  }

  int64_t add_nodes() const { return add_nodes_; }
  bool has_negative_add_nodes() const { return negative_add_nodes_; }
  const std::vector<Edge>& add_edges() const { return add_edges_; }
  const std::vector<std::pair<NodeId, NodeId>>& remove_edges() const {
    return remove_edges_;
  }
  const std::vector<Edge>& reweight_edges() const { return reweight_edges_; }

 private:
  int64_t add_nodes_ = 0;
  bool negative_add_nodes_ = false;
  std::vector<Edge> add_edges_;
  std::vector<std::pair<NodeId, NodeId>> remove_edges_;
  std::vector<Edge> reweight_edges_;
};

/// \brief The delta that undoes `delta` on `base`.
///
/// Computed by diffing `base` against `base.Apply(delta)`, so it is
/// correct for any applicable delta regardless of how its operations
/// overlap: applying `delta` and then the inverse yields a graph
/// byte-identical to `base` (same CSR arrays, same conductance bits,
/// same fingerprint) — the revert half of the serving layer's
/// cache-soundness proof. Fails if `delta` does not apply to `base`, or
/// if it adds nodes (nodes cannot be removed).
StatusOr<GraphDelta> InverseOf(const Graph& base, const GraphDelta& delta);

}  // namespace cfcm

#endif  // CFCM_GRAPH_DELTA_H_
