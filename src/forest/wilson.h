// Wilson's algorithm for random rooted spanning forests (paper Alg. 1).
#ifndef CFCM_FOREST_WILSON_H_
#define CFCM_FOREST_WILSON_H_

#include <vector>

#include "common/rng.h"
#include "graph/graph.h"

namespace cfcm {

/// \brief A rooted spanning forest of G with a fixed root set.
///
/// `parent[u]` is pi_u for non-roots and -1 for roots. `leaves_first`
/// lists all non-root nodes such that every node appears before its
/// forest parent (the paper's reverse-DFS order L_DFS); iterating it
/// lets subtree aggregates be computed with one visit per node.
/// `root_of[u]` is rho_u, the root of u's tree (roots map to themselves).
struct RootedForest {
  std::vector<NodeId> parent;
  std::vector<NodeId> leaves_first;
  std::vector<NodeId> root_of;
};

/// \brief Scratch buffers for repeated sampling (avoids reallocation on
/// the hot path). One instance per worker thread.
///
/// On unit-weighted graphs the walk picks a uniform neighbor per step
/// (the original integer fast path, bit-for-bit identical RNG
/// consumption). On weighted graphs each step picks neighbor v of u with
/// probability w_uv / d_w(u) via a per-node prefix-sum table built once
/// at construction (O(log deg) binary search per step), so sampled
/// forests follow the weighted forest measure Pr[F] ∝ prod_{e in F} w_e.
/// Rows whose conductances are all exactly 1.0 (most rows of a unit
/// graph with a few edges reweighted) skip the search: their prefix sums
/// are exactly 1, 2, ..., d, so the slot is floor(r) in O(1), the same
/// pick from the same draw.
/// The walk loop is compiled once per path with the CSR arrays hoisted
/// into locals, so a step is an inlined draw plus a neighbor load.
class ForestSampler {
 public:
  explicit ForestSampler(const Graph& graph);

  /// Samples a random spanning forest rooted at {u : is_root[u] != 0}
  /// via loop-erased random walks. The root set must be non-empty and the
  /// graph connected. Deterministic in *rng.
  ///
  /// The returned reference points at internal buffers valid until the
  /// next Sample() call on this sampler.
  const RootedForest& Sample(const std::vector<char>& is_root, Rng* rng);

  /// Total random-walk steps taken by the last Sample() call (the cost
  /// measure of Lemma 3.7: Tr((I - P_{-S})^{-1}) in expectation).
  std::int64_t last_walk_steps() const { return last_walk_steps_; }

 private:
  template <bool kWeighted>
  void Walk(Rng* rng);

  const Graph& graph_;
  RootedForest forest_;
  std::vector<char> in_forest_;
  std::vector<NodeId> chain_;
  // Weighted walks only: prefix sums of each node's adjacency weights,
  // aligned with the CSR layout (prefix_[k] = cumulative weight through
  // raw neighbor slot k within its node's list). Empty on unit graphs.
  std::vector<double> prefix_;
  // Weighted walks only: 1 for rows whose conductances are all 1.0.
  std::vector<char> unit_row_;
  std::int64_t last_walk_steps_ = 0;
};

}  // namespace cfcm

#endif  // CFCM_FOREST_WILSON_H_
