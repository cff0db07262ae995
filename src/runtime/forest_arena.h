// Round-scoped retention pool for sampled rooted forests.
//
// The lazy-greedy selection layer re-scores small candidate subsets
// several times within one greedy round, and each re-score call walks
// the same forest stream (same seed, same indices). Retaining every
// sampled forest in flat per-forest slabs lets later calls *replay* a
// forest (an O(n) copy) instead of re-running its loop-erased walks.
// The final round's arena is also handed to the incremental warm state
// (DESIGN.md §16), whose re-solve replays the forests a graph delta
// left clean.
//
// Storage is three flat slabs (parent / leaves_first / root_of), one
// stride per forest, sized once per round and recycled across rounds —
// steady-state rounds allocate nothing. Store() calls for distinct
// forest indices write disjoint slab regions, so the sampling runtime's
// executors can store concurrently without locks; Commit() publishes a
// prefix of forests for replay and is only called between batches (the
// runtime's join is the synchronization point).
#ifndef CFCM_RUNTIME_FOREST_ARENA_H_
#define CFCM_RUNTIME_FOREST_ARENA_H_

#include <cstdint>
#include <vector>

#include "forest/wilson.h"
#include "graph/graph.h"

namespace cfcm {

class ForestArena {
 public:
  /// Prepares the arena for sampling forests rooted at `roots` under
  /// stream seed `seed`, with room for `capacity` forests. When the
  /// (n, roots, seed) signature matches the current round the stored
  /// forests stay valid (capacity may still grow); otherwise the arena
  /// forgets its forests but keeps the slab memory.
  void BeginRound(NodeId n, const std::vector<NodeId>& roots, uint64_t seed,
                  int capacity);

  /// True if stored forests were sampled for exactly this root set and
  /// seed (i.e. replaying them is bitwise equivalent to resampling).
  bool MatchesRound(NodeId n, const std::vector<NodeId>& roots,
                    uint64_t seed) const;

  /// Forests available for replay: indices [0, committed()).
  int committed() const { return committed_; }

  /// Slab capacity in forests for the current round.
  int capacity() const { return capacity_; }

  /// Copies forest `f` (must be < capacity()) into the arena. Safe to
  /// call concurrently for distinct `f`.
  void Store(int f, const RootedForest& forest);

  /// Publishes forests [0, upto) for replay; never shrinks.
  void Commit(int upto);

  /// Reconstructs stored forest `f` (must be < committed()) into `out`,
  /// bitwise identical to the RootedForest passed to Store().
  void LoadInto(int f, RootedForest* out) const;

  /// Bloom pre-filter over forest f's up-edge set: false means no walk
  /// of the stored forest crossed the undirected edge with this
  /// UndirectedEdgeKey; true may be a false positive (confirm with
  /// ContainsUpEdge). 128 bits / 2 hash probes per forest, filled by
  /// Store() from the parent array.
  bool MaybeContainsEdge(int f, uint64_t edge_key) const;

  /// Exact membership test: forest f (must be < committed()) uses
  /// {u, v} as an up-edge, i.e. parent[u] == v or parent[v] == u.
  bool ContainsUpEdge(int f, NodeId u, NodeId v) const;

  /// Root set the stored forests were sampled for.
  const std::vector<NodeId>& roots() const { return roots_; }

  /// Drops all stored forests (keeps slab memory for reuse).
  void Invalidate() { committed_ = 0; }

 private:
  NodeId n_ = 0;
  uint64_t seed_ = 0;
  std::vector<NodeId> roots_;
  int capacity_ = 0;
  int committed_ = 0;
  NodeId leaves_len_ = 0;  // n - |roots|: fixed leaves_first length
  std::vector<NodeId> parent_slab_;
  std::vector<NodeId> leaves_slab_;
  std::vector<NodeId> root_of_slab_;
  // Per-forest 128-bit edge-set Bloom signature (kSignatureWords words).
  std::vector<uint64_t> signature_slab_;

  static constexpr int kSignatureWords = 2;
};

}  // namespace cfcm

#endif  // CFCM_RUNTIME_FOREST_ARENA_H_
