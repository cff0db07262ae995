#include "graph/builder.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <string>

namespace cfcm {

void GraphBuilder::AddEdge(NodeId u, NodeId v) {
  if (u == v) return;  // Self-loops carry no resistance information.
  if (u > v) std::swap(u, v);
  edges_.emplace_back(u, v);
  if (has_weights_) weights_.push_back(1.0);
  if (v + 1 > num_nodes_) num_nodes_ = v + 1;
}

void GraphBuilder::AddEdge(NodeId u, NodeId v, double weight) {
  if (u == v) return;
  if (!has_weights_) {
    // Retroactively weight the unit edges added so far.
    weights_.assign(edges_.size(), 1.0);
    has_weights_ = true;
  }
  if (u > v) std::swap(u, v);
  edges_.emplace_back(u, v);
  weights_.push_back(weight);
  if (v + 1 > num_nodes_) num_nodes_ = v + 1;
}

StatusOr<Graph> GraphBuilder::Build() && {
  for (const auto& [u, v] : edges_) {
    if (u < 0) {
      return Status::InvalidArgument("negative node id " + std::to_string(u));
    }
  }

  if (!has_weights_) {
    // Unit-weighted path: identical to the original builder — duplicate
    // edges are deduplicated, not summed.
    std::sort(edges_.begin(), edges_.end());
    edges_.erase(std::unique(edges_.begin(), edges_.end()), edges_.end());
  } else {
    for (double w : weights_) {
      if (!std::isfinite(w) || w <= 0.0) {
        return Status::InvalidArgument(
            "edge conductances must be positive and finite, got " +
            std::to_string(w));
      }
    }
    // Weighted path: sort edges (stably, so duplicate conductances sum
    // in insertion order and the merged bits are identical across
    // standard libraries) and merge duplicates by summing (parallel
    // conductors).
    std::vector<std::size_t> order(edges_.size());
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(),
                     [this](std::size_t a, std::size_t b) {
                       return edges_[a] < edges_[b];
                     });
    std::vector<std::pair<NodeId, NodeId>> merged;
    std::vector<double> merged_w;
    merged.reserve(edges_.size());
    merged_w.reserve(edges_.size());
    for (std::size_t i = 0; i < order.size(); ++i) {
      const auto& e = edges_[order[i]];
      if (!merged.empty() && merged.back() == e) {
        merged_w.back() += weights_[order[i]];
      } else {
        merged.push_back(e);
        merged_w.push_back(weights_[order[i]]);
      }
    }
    edges_ = std::move(merged);
    weights_ = std::move(merged_w);
    // All-ones weights carry no information: emit a unit-weighted graph
    // so every downstream fast path (and bit-for-bit determinism with
    // the unweighted tree) applies.
    if (std::all_of(weights_.begin(), weights_.end(),
                    [](double w) { return w == 1.0; })) {
      has_weights_ = false;
      weights_.clear();
    }
  }

  const NodeId n = num_nodes_;
  std::vector<EdgeId> offsets(static_cast<std::size_t>(n) + 1, 0);
  for (const auto& [u, v] : edges_) {
    ++offsets[u + 1];
    ++offsets[v + 1];
  }
  for (NodeId i = 0; i < n; ++i) offsets[i + 1] += offsets[i];

  std::vector<NodeId> neighbors(static_cast<std::size_t>(offsets[n]));
  std::vector<double> csr_weights;
  if (has_weights_) csr_weights.resize(neighbors.size());
  std::vector<EdgeId> cursor(offsets.begin(), offsets.end() - 1);
  for (std::size_t e = 0; e < edges_.size(); ++e) {
    const auto [u, v] = edges_[e];
    const auto ku = static_cast<std::size_t>(cursor[u]++);
    const auto kv = static_cast<std::size_t>(cursor[v]++);
    neighbors[ku] = v;
    neighbors[kv] = u;
    if (has_weights_) {
      csr_weights[ku] = weights_[e];
      csr_weights[kv] = weights_[e];
    }
  }
  // Edges were sorted by (u, v) so each u-list is already ascending, but
  // the v-side inserts are interleaved; sort each list to guarantee order
  // (weights travel with their neighbor entries).
  for (NodeId u = 0; u < n; ++u) {
    if (!has_weights_) {
      std::sort(neighbors.begin() + offsets[u],
                neighbors.begin() + offsets[u + 1]);
      continue;
    }
    const std::size_t lo = static_cast<std::size_t>(offsets[u]);
    const std::size_t hi = static_cast<std::size_t>(offsets[u + 1]);
    std::vector<std::pair<NodeId, double>> list;
    list.reserve(hi - lo);
    for (std::size_t k = lo; k < hi; ++k) {
      list.emplace_back(neighbors[k], csr_weights[k]);
    }
    std::sort(list.begin(), list.end());
    for (std::size_t k = lo; k < hi; ++k) {
      neighbors[k] = list[k - lo].first;
      csr_weights[k] = list[k - lo].second;
    }
  }
  return Graph(std::move(offsets), std::move(neighbors),
               std::move(csr_weights));
}

Graph BuildGraph(NodeId num_nodes,
                 const std::vector<std::pair<NodeId, NodeId>>& edges) {
  GraphBuilder builder(num_nodes);
  for (const auto& [u, v] : edges) builder.AddEdge(u, v);
  return std::move(builder).Build().value();
}

Graph BuildWeightedGraph(NodeId num_nodes,
                         const std::vector<WeightedEdge>& edges) {
  GraphBuilder builder(num_nodes);
  for (const auto& e : edges) builder.AddEdge(e.u, e.v, e.weight);
  return std::move(builder).Build().value();
}

}  // namespace cfcm
