// The greedy selection driver of both sampled solvers (DESIGN.md §13):
// ForestCFCM (Alg. 3) and SchurCFCM (Alg. 5) differ only in the Delta
// estimator they bind, so the first pick, the exhaustive scan and the
// lazy-greedy (CELF) rounds below are written once.
//
// The exact marginal gains are monotone non-increasing as S grows, so
// in exact arithmetic a gain scored in an earlier round upper-bounds
// the current gain of the same node. The *sampled* gains are not upper
// bounds: each round draws an independent forest set and JL sketch, so
// a stale key is a noisy sample of the current gain (measured
// multiplicative spread 2-3x on small graphs that never hit the
// Bernstein stop). The heap therefore keys candidates on
// gain * (1 + rel), where rel is the estimator's own per-node
// empirical-Bernstein relative half-width, and the survival test adds
// a further (1 + kLazyInflation) drift margin on top. The loop
// re-scores the top candidates per round through subset-restricted
// ForestDelta/SchurDelta calls (one predictive batch plus geometric
// escalation, so a round costs ~one estimator schedule) until the
// refreshed top beats every remaining stale key. Selections are
// bitwise identical for every thread count (the heap order is a pure
// function of (key, node id), and every estimate goes through the
// ordered MC runtime) and are pinned equal to the exhaustive path on
// the regression suite.
#ifndef CFCM_CFCM_LAZY_GREEDY_H_
#define CFCM_CFCM_LAZY_GREEDY_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "cfcm/options.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "estimators/forest_delta.h"
#include "graph/graph.h"

namespace cfcm {

/// One heap slot: a candidate with its most recent gain estimate and
/// the greedy round (1-based; round 0 = first-pick seed) it was scored.
/// `key` orders the heap (the width-inflated gain); `gain` keeps the
/// raw point estimate so a refresh can measure the round's decay ratio.
struct LazyHeapEntry {
  NodeId id = -1;
  double key = 0.0;
  double gain = 0.0;
  int round = 0;
};

/// \brief Address-free indexed binary max-heap over candidate node ids.
///
/// Array-backed sift-up/sift-down with a position index per node id
/// for O(1) membership. Ordering is deterministic: larger key first,
/// ties broken by the LOWER node id — exactly the argmax rule of the
/// exhaustive scan (first strict improvement wins), so a heap-driven
/// selection can never disagree with the scan on tie-breaks.
class LazyHeap {
 public:
  /// Empties the heap and sizes the position index for ids [0, n).
  void Reset(NodeId n);

  /// Inserts `id` (must not be present). O(log size).
  void Push(NodeId id, double key, double gain, int round);

  bool Contains(NodeId id) const;
  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }

  /// Largest entry by (key desc, id asc). Heap must be non-empty.
  const LazyHeapEntry& Top() const { return heap_.front(); }

  /// Removes and returns the top entry.
  LazyHeapEntry Pop();

  /// Unordered view of the live entries (for O(size) scans such as the
  /// batch predictor's frontier count).
  const std::vector<LazyHeapEntry>& entries() const { return heap_; }

 private:
  // True when `a` must sit above `b`.
  static bool Precedes(const LazyHeapEntry& a, const LazyHeapEntry& b) {
    if (a.key != b.key) return a.key > b.key;
    return a.id < b.id;
  }
  void SiftUp(std::size_t i);
  void SiftDown(std::size_t i);
  void Place(std::size_t i, LazyHeapEntry entry);

  std::vector<LazyHeapEntry> heap_;
  std::vector<int> pos_;  // node id -> heap index; -1 = absent
};

/// Cap on the per-node width factor folded into stale keys:
/// key = gain * (1 + min(rel, kLazyWidthCap)). The raw Bernstein width
/// is union-bounded over nodes and forests, so for weak candidates rel
/// is dominated by its log constants (it can reach 1e2..1e300 as the
/// numerator estimate approaches 0) and would pin the whole tail to the
/// refresh frontier forever. The cap is the faithfulness dial: higher
/// values refresh more of the tail (at the limit every round
/// degenerates to the full refresh, i.e. the exhaustive argmax), lower
/// values prune harder. The pinned regression graphs stay bitwise equal
/// across a wide cap range because their rounds fail the survival test
/// outright and take the full-refresh path; the value is tuned so the
/// decayed bench graphs (ba/ws) re-score well under half the
/// candidates. Declared here because the warm repair
/// (cfcm/incremental.cc) must fold its refreshed keys the same way.
inline constexpr double kLazyWidthCap = 2.0;

/// Scores rounds 2..k: Delta estimates for the current root set
/// `s_nodes` under the round's stream `seed`, restricted by `scope`.
/// ForestCFCM binds this to ForestDelta; SchurCFCM adds the T \ S root
/// filter and dispatches to SchurDelta. Exhaustive rounds pass the
/// default scope (every candidate, no arena); lazy rounds pass subset
/// masks, the round arena and reduced forest targets.
using LazyDeltaFn = std::function<DeltaEstimate(
    const std::vector<NodeId>& s_nodes, uint64_t seed,
    const DeltaScope& scope)>;

/// \brief Raw material for an incremental WarmState (DESIGN.md §16),
/// captured as the greedy loop exits: the final per-candidate heap keys
/// and gains, the final round's stream seed, and (k >= 2) that round's
/// forest arena, moved out so the successor epoch can replay its clean
/// forests.
struct WarmCapture {
  std::vector<double> gains;  ///< last-scored gain per node; 0 at selected
  std::vector<double> keys;   ///< width-inflated heap keys; 0 at selected
  double last_gain = 0.0;     ///< the final pick's winning gain estimate
  uint64_t final_seed = 0;    ///< stream seed of greedy round k
                              ///< (options.seed when k == 1)
  ForestArena arena;          ///< final round's forests (k >= 2 only)
  bool has_arena = false;
};

/// \brief Runs the full greedy selection of ForestCFCM/SchurCFCM: the
/// first pick (EstimateFirstPick), then rounds 2..k scored through
/// `delta_fn` under `options.selection`.
///
/// kExhaustive: each round is one `delta_fn(selected, seed_i,
/// DeltaScope{})` call and the full scan takes the (gain desc, id asc)
/// argmax — the paper's literal loop, the reference the lazy mode is
/// pinned against; `heap_pops` and `forests_reused` stay 0. kLazy: the
/// CELF rounds described at the top of this file re-score only the
/// refresh frontier.
///
/// The unnamed `allow_forest_reuse` parameter is ignored: the
/// cross-round forest-reuse pre-screen it switched has been removed,
/// and the parameter stays only so six-argument callers still compile.
/// Timing (result.seconds) is left at 0 for the caller to stamp. A non-null
/// `capture` is filled on success in lazy mode (pure out-param; it never
/// changes the selection); exhaustive mode leaves it untouched.
StatusOr<CfcmResult> LazyGreedySelect(const Graph& graph, int k,
                                      const CfcmOptions& options,
                                      ThreadPool& pool,
                                      const LazyDeltaFn& delta_fn,
                                      bool /*allow_forest_reuse*/,
                                      WarmCapture* capture = nullptr);

}  // namespace cfcm

#endif  // CFCM_CFCM_LAZY_GREEDY_H_
