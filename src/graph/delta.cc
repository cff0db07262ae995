#include "graph/delta.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <unordered_map>
#include <vector>

namespace cfcm {

namespace {

std::string EdgeName(NodeId u, NodeId v) {
  if (u > v) std::swap(u, v);
  // Built piecewise: the chained operator+ form trips a false GCC 12
  // -Wrestrict warning once inlined into Apply.
  std::string name = "{";
  name += std::to_string(u);
  name += ", ";
  name += std::to_string(v);
  name += "}";
  return name;
}

// Shared endpoint validation: ids must name a base node or one of the
// nodes this delta appends. `op` labels the error.
Status CheckEndpoints(NodeId u, NodeId v, NodeId num_nodes, const char* op) {
  if (u < 0 || v < 0) {
    return Status::InvalidArgument(std::string(op) + " edge " +
                                   EdgeName(u, v) +
                                   " has a negative node id");
  }
  if (u >= num_nodes || v >= num_nodes) {
    return Status::OutOfRange(
        std::string(op) + " edge " + EdgeName(u, v) + " endpoint outside [0, " +
        std::to_string(num_nodes) + ") — AddNodes first to grow the graph");
  }
  if (u == v) {
    return Status::InvalidArgument(std::string(op) + " edge " +
                                   EdgeName(u, v) +
                                   " is a self-loop (no resistance "
                                   "information; rejected)");
  }
  return Status::Ok();
}

Status CheckWeight(double weight, NodeId u, NodeId v, const char* op) {
  if (!std::isfinite(weight) || weight <= 0.0) {
    return Status::InvalidArgument(
        std::string(op) + " edge " + EdgeName(u, v) +
        ": conductance must be positive and finite, got " +
        std::to_string(weight));
  }
  return Status::Ok();
}

}  // namespace

StatusOr<Graph> Graph::Apply(const GraphDelta& delta) const {
  if (delta.add_nodes() < 0 || delta.has_negative_add_nodes()) {
    return Status::InvalidArgument(
        "AddNodes counts must be non-negative (accumulated " +
        std::to_string(delta.add_nodes()) + ")");
  }
  const NodeId n_old = num_nodes();
  const int64_t n_total = static_cast<int64_t>(n_old) + delta.add_nodes();
  if (n_total > std::numeric_limits<NodeId>::max()) {
    return Status::OutOfRange("AddNodes would overflow the node id space (" +
                              std::to_string(n_total) + " total nodes)");
  }
  const NodeId n_new = static_cast<NodeId>(n_total);

  // State only for the edges the delta names, seeded from the base by
  // binary search on first touch; every other edge is copied verbatim
  // by the merge below.
  struct TouchedEdge {
    NodeId u, v;         // u < v
    double base_weight;  // 0 when the base has no such edge
    bool present;
    double weight;
  };
  std::vector<TouchedEdge> touched;
  std::unordered_map<uint64_t, std::size_t> slot;  // key -> touched index
  slot.reserve(delta.remove_edges().size() + delta.reweight_edges().size() +
               delta.add_edges().size());
  auto touch = [&](NodeId u, NodeId v) -> TouchedEdge& {
    const auto [it, inserted] =
        slot.try_emplace(UndirectedEdgeKey(u, v), touched.size());
    if (inserted) {
      if (u > v) std::swap(u, v);
      const double w = v < n_old ? EdgeWeight(u, v) : 0.0;  // 0 = absent
      touched.push_back({u, v, w, w > 0.0, w});
    }
    return touched[it->second];
  };

  // Phase 1: removals.
  for (const auto& [u, v] : delta.remove_edges()) {
    Status valid = CheckEndpoints(u, v, n_new, "remove");
    if (!valid.ok()) return valid;
    TouchedEdge& edge = touch(u, v);
    if (!edge.present) {
      return Status::NotFound("remove edge " + EdgeName(u, v) +
                              ": not an edge of the graph");
    }
    edge.present = false;
  }

  // Phase 2: reweights.
  for (const GraphDelta::Edge& e : delta.reweight_edges()) {
    Status valid = CheckEndpoints(e.u, e.v, n_new, "reweight");
    if (!valid.ok()) return valid;
    Status weight_ok = CheckWeight(e.weight, e.u, e.v, "reweight");
    if (!weight_ok.ok()) return weight_ok;
    TouchedEdge& edge = touch(e.u, e.v);
    if (!edge.present) {
      return Status::NotFound("reweight edge " + EdgeName(e.u, e.v) +
                              ": not an edge of the graph (removals in the "
                              "same delta apply first)");
    }
    edge.weight = e.weight;
  }

  // Phase 3: additions — duplicates (against the base or within the
  // delta) sum conductances in delta order, the GraphBuilder
  // parallel-conductor rule; a removed edge re-added starts afresh.
  for (const GraphDelta::Edge& e : delta.add_edges()) {
    Status valid = CheckEndpoints(e.u, e.v, n_new, "add");
    if (!valid.ok()) return valid;
    Status weight_ok = CheckWeight(e.weight, e.u, e.v, "add");
    if (!weight_ok.ok()) return weight_ok;
    TouchedEdge& edge = touch(e.u, e.v);
    edge.weight = edge.present ? edge.weight + e.weight : e.weight;
    edge.present = true;
  }

  // Each addend is finite, but a sum can overflow; reject it exactly as
  // GraphBuilder::Build would. A result whose conductances are all 1.0
  // degrades to a unit-weighted graph, so count the non-unit edges the
  // result keeps: the base's, less the touched ones, plus their
  // replacements.
  int64_t non_unit = 0;
  if (!weights_.empty()) {
    non_unit = std::count_if(weights_.begin(), weights_.end(),
                             [](double w) { return w != 1.0; }) / 2;
  }
  EdgeId edge_change = 0;
  for (const TouchedEdge& edge : touched) {
    if (edge.present && !std::isfinite(edge.weight)) {
      return Status::InvalidArgument(
          "edge conductances must be positive and finite, got " +
          std::to_string(edge.weight));
    }
    const bool in_base = edge.base_weight > 0.0;
    non_unit -= in_base && edge.base_weight != 1.0;
    non_unit += edge.present && edge.weight != 1.0;
    edge_change += int{edge.present} - int{in_base};
  }
  const bool weighted = non_unit > 0;

  // One sorted patch entry per touched edge and endpoint.
  struct Patch {
    NodeId node, neighbor;
    bool present;
    double weight;
  };
  std::vector<Patch> patches;
  patches.reserve(2 * touched.size());
  for (const TouchedEdge& edge : touched) {
    patches.push_back({edge.u, edge.v, edge.present, edge.weight});
    patches.push_back({edge.v, edge.u, edge.present, edge.weight});
  }
  std::sort(patches.begin(), patches.end(),
            [](const Patch& a, const Patch& b) {
              return a.node != b.node ? a.node < b.node
                                      : a.neighbor < b.neighbor;
            });

  // One node-order pass: runs of untouched nodes are bulk-copied (their
  // offsets shift by a constant); a touched node's sorted adjacency is
  // merged with its sorted patches.
  const EdgeId slots_old = static_cast<EdgeId>(neighbors_.size());
  const std::size_t slots_new =
      static_cast<std::size_t>(slots_old + 2 * edge_change);
  auto row_begin = [&](NodeId x) { return x < n_old ? offsets_[x] : slots_old; };
  std::vector<EdgeId> offsets(static_cast<std::size_t>(n_new) + 1);
  std::vector<NodeId> neighbors(slots_new);
  // A unit base turning weighted keeps 1.0 on every untouched slot.
  std::vector<double> weights(weighted ? slots_new : 0, 1.0);
  EdgeId out = 0;
  std::size_t p = 0;
  for (NodeId x = 0; x < n_new;) {
    const NodeId run_end = p < patches.size() ? patches[p].node : n_new;
    if (x < run_end) {
      const EdgeId lo = row_begin(x);
      const EdgeId hi = row_begin(run_end);
      for (NodeId y = x; y < run_end; ++y) {
        offsets[y + 1] = row_begin(y + 1) - lo + out;
      }
      std::copy(neighbors_.begin() + lo, neighbors_.begin() + hi,
                neighbors.begin() + out);
      if (weighted && !weights_.empty()) {
        std::copy(weights_.begin() + lo, weights_.begin() + hi,
                  weights.begin() + out);
      }
      out += hi - lo;
      x = run_end;
      continue;
    }
    auto emit = [&](NodeId neighbor, double weight) {
      neighbors[static_cast<std::size_t>(out)] = neighbor;
      if (weighted) weights[static_cast<std::size_t>(out)] = weight;
      ++out;
    };
    auto base_weight = [&](EdgeId k) {
      return weights_.empty() ? 1.0 : weights_[static_cast<std::size_t>(k)];
    };
    EdgeId k = row_begin(x);
    const EdgeId k_end = row_begin(x + 1);
    for (; p < patches.size() && patches[p].node == x; ++p) {
      const Patch& patch = patches[p];
      for (; k < k_end && neighbors_[k] < patch.neighbor; ++k) {
        emit(neighbors_[k], base_weight(k));
      }
      if (k < k_end && neighbors_[k] == patch.neighbor) ++k;
      if (patch.present) emit(patch.neighbor, patch.weight);
    }
    for (; k < k_end; ++k) emit(neighbors_[k], base_weight(k));
    offsets[x + 1] = out;
    ++x;
  }
  return Graph(std::move(offsets), std::move(neighbors), std::move(weights));
}

StatusOr<GraphDelta> InverseOf(const Graph& base, const GraphDelta& delta) {
  if (delta.add_nodes() != 0) {
    return Status::InvalidArgument(
        "a delta that adds nodes has no inverse (nodes cannot be removed)");
  }
  StatusOr<Graph> applied = base.Apply(delta);
  if (!applied.ok()) return applied.status();

  // Diff the two sorted edge sets; WeightedEdges() is ordered by (u, v).
  const std::vector<WeightedEdge> before = base.WeightedEdges();
  const std::vector<WeightedEdge> after = applied->WeightedEdges();
  auto precedes = [](const WeightedEdge& a, const WeightedEdge& b) {
    return a.u != b.u ? a.u < b.u : a.v < b.v;
  };
  GraphDelta inverse;
  std::size_t i = 0, j = 0;
  while (i < before.size() || j < after.size()) {
    if (j == after.size() ||
        (i < before.size() && precedes(before[i], after[j]))) {
      // Removed by the delta: the inverse restores the original bits.
      inverse.AddEdge(before[i].u, before[i].v, before[i].weight);
      ++i;
    } else if (i == before.size() || precedes(after[j], before[i])) {
      // Introduced by the delta: the inverse removes it.
      inverse.RemoveEdge(after[j].u, after[j].v);
      ++j;
    } else {
      if (before[i].weight != after[j].weight) {
        inverse.ReweightEdge(before[i].u, before[i].v, before[i].weight);
      }
      ++i;
      ++j;
    }
  }
  return inverse;
}

}  // namespace cfcm
