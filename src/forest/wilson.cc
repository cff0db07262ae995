#include "forest/wilson.h"

#include <algorithm>
#include <cassert>

namespace cfcm {

ForestSampler::ForestSampler(const Graph& graph) : graph_(graph) {
  const std::size_t n = static_cast<std::size_t>(graph.num_nodes());
  forest_.parent.assign(n, -1);
  forest_.root_of.assign(n, -1);
  forest_.leaves_first.reserve(n);
  in_forest_.assign(n, 0);
  if (!graph.is_unit_weighted()) {
    const auto& raw_w = graph.raw_weights();
    prefix_.resize(raw_w.size());
    unit_row_.assign(n, 0);
    const auto& offsets = graph.offsets();
    for (NodeId u = 0; u < graph.num_nodes(); ++u) {
      double acc = 0;
      bool unit = true;
      for (EdgeId k = offsets[u]; k < offsets[u + 1]; ++k) {
        const double w = raw_w[static_cast<std::size_t>(k)];
        acc += w;
        unit = unit && w == 1.0;
        prefix_[static_cast<std::size_t>(k)] = acc;
      }
      unit_row_[u] = unit;
    }
  }
}

template <bool kWeighted>
void ForestSampler::Walk(Rng* rng) {
  const NodeId n = graph_.num_nodes();
  const EdgeId* offsets = graph_.offsets().data();
  const NodeId* nbrs = graph_.raw_neighbors().data();
  const double* prefix = prefix_.data();
  const char* unit_row = unit_row_.data();
  char* in_forest = in_forest_.data();
  NodeId* parent = forest_.parent.data();
  std::int64_t steps = 0;

  for (NodeId start = 0; start < n; ++start) {
    if (in_forest[start]) continue;
    // Phase 1: random walk until the current forest is hit. Only the last
    // exit edge per node survives, which is exactly loop erasure.
    NodeId i = start;
    while (!in_forest[i]) {
      const EdgeId lo = offsets[i];
      const EdgeId hi = offsets[i + 1];
      EdgeId k;
      if constexpr (kWeighted) {
        // First slot whose cumulative weight exceeds r; r < total almost
        // surely, but clamp against rounding at the boundary. On a row
        // of 1.0 conductances the prefix sums are exactly 1, 2, ..., d,
        // so that slot is floor(r): the same pick without the search.
        const double r = rng->NextDouble() * prefix[hi - 1];
        if (unit_row[i]) {
          k = lo + std::min(static_cast<EdgeId>(r), hi - lo - 1);
        } else {
          const double* it = std::upper_bound(prefix + lo, prefix + hi, r);
          k = it == prefix + hi ? hi - 1 : it - prefix;
        }
      } else {
        // Unit-weighted fast path: uniform neighbor, one bounded draw.
        k = lo + rng->NextBounded(static_cast<uint32_t>(hi - lo));
      }
      const NodeId next = nbrs[k];
      parent[i] = next;
      ++steps;
      i = next;
    }
    // Phase 2: retrace the loop-erased path and commit it to the forest.
    chain_.clear();
    i = start;
    while (!in_forest[i]) {
      in_forest[i] = 1;
      chain_.push_back(i);
      i = parent[i];
    }
    // Append root-to-leaf so that the final global reversal yields a
    // leaves-before-parents order (paper Alg. 1 lines 13-14).
    forest_.leaves_first.insert(forest_.leaves_first.end(), chain_.rbegin(),
                                chain_.rend());
  }
  last_walk_steps_ = steps;
}

const RootedForest& ForestSampler::Sample(const std::vector<char>& is_root,
                                          Rng* rng) {
  const NodeId n = graph_.num_nodes();
  assert(static_cast<NodeId>(is_root.size()) == n);

  std::copy(is_root.begin(), is_root.end(), in_forest_.begin());
  forest_.leaves_first.clear();

  auto& parent = forest_.parent;
  for (NodeId u = 0; u < n; ++u) {
    parent[u] = -1;
    forest_.root_of[u] = is_root[u] ? u : -1;
  }

  if (prefix_.empty()) {
    Walk<false>(rng);
  } else {
    Walk<true>(rng);
  }
  std::reverse(forest_.leaves_first.begin(), forest_.leaves_first.end());

  // rho_u: parents precede children in the reversed iteration below.
  for (auto it = forest_.leaves_first.rbegin();
       it != forest_.leaves_first.rend(); ++it) {
    forest_.root_of[*it] = forest_.root_of[parent[*it]];
  }
  return forest_;
}

}  // namespace cfcm
