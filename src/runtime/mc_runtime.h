// Deterministic Monte-Carlo sampling runtime shared by every forest
// estimator (DESIGN.md §9).
//
// The paper's estimators (Alg. 1-4) all follow one loop: sample a rooted
// spanning forest, run O(n) / O(n·w) per-forest passes, accumulate the
// per-node statistics, and periodically test an empirical-Bernstein stop
// rule. This header factors the scheduling + reduction half of that loop
// out of the estimators so that
//   (a) forests are assigned to fixed-size chunks keyed by the global
//       forest index and stolen dynamically by pool executors,
//   (b) accumulation happens in *forest-index order per node shard*, so
//       every estimate is bitwise identical for 1, 2, 8 or N threads,
//   (c) there is exactly one accumulator copy (the kernel's), not one
//       per worker — accumulator memory no longer scales with the
//       thread count (per-slot scratch for the per-forest passes
//       remains, as any parallel execution requires), and
//   (d) random-walk step counts are aggregated for load-balance
//       telemetry (ForestSampler::last_walk_steps).
#ifndef CFCM_RUNTIME_MC_RUNTIME_H_
#define CFCM_RUNTIME_MC_RUNTIME_H_

#include <cstddef>
#include <cstdint>

#include "common/thread_pool.h"
#include "graph/graph.h"

namespace cfcm {

/// \brief Per-forest estimator kernel plugged into RunForestBatch.
///
/// A kernel owns (1) one scratch state per executor slot (sampler plus
/// per-forest pass buffers) and (2) one shared set of accumulators.
/// The runtime drives it under this contract:
///
///  * ProcessForest(slot, f) samples forest `f` and computes its
///    per-forest statistics into slot-private scratch. Different slots
///    run concurrently; a slot never runs two forests at once.
///  * Accumulate(slot, begin, end) folds the slot's current forest into
///    the shared accumulators for nodes [begin, end). The runtime
///    serializes these calls per node shard *in increasing forest
///    order*, so plain (non-atomic) accumulators are race-free and the
///    reduction order — hence every IEEE rounding — is a pure function
///    of the forest indices, not of the thread count.
///  * AccumulateTail(slot) is the same ordered commit for statistics not
///    indexed by node (e.g. SchurDelta's per-tree JL sums); called once
///    per forest after all node shards.
class ForestKernel {
 public:
  virtual ~ForestKernel() = default;

  /// Samples forest `forest_index` into the scratch of `slot` and runs
  /// the per-forest passes. Returns the random-walk step count.
  virtual std::int64_t ProcessForest(std::size_t slot,
                                     std::uint64_t forest_index) = 0;

  /// Folds the slot's current forest into the shared accumulators for
  /// nodes [begin, end). Serialized per shard, in forest order.
  virtual void Accumulate(std::size_t slot, NodeId begin, NodeId end) = 0;

  /// Ordered per-forest commit of non-node-sharded statistics.
  virtual void AccumulateTail(std::size_t slot) { (void)slot; }
};

/// Scheduling/reduction geometry. Both knobs are deliberately
/// independent of the thread count: they shape the work and commit
/// granularity, never the result.
struct McRunOptions {
  /// Node-domain size; shards tile [0, num_nodes).
  NodeId num_nodes = 0;
  /// Forests per scheduling chunk (a chunk is claimed atomically by one
  /// executor and processed in forest order). Default 1: an executor
  /// samples its forest fully in parallel and only the commit passes
  /// through the turnstile. Larger chunks amortize the claim fetch_add
  /// but serialize sampling — forest r+1 of a chunk is not sampled
  /// until forest r has committed behind every earlier forest, capping
  /// speedup near chunk/(chunk-1) regardless of thread count.
  int chunk_forests = 1;
  /// Nodes per reduction shard. Smaller shards pipeline the ordered
  /// commits across more executors; 1 shard serializes them entirely.
  NodeId shard_nodes = 4096;
};

/// Telemetry of one RunForestBatch call.
struct McRunStats {
  std::int64_t walk_steps = 0;  ///< total loop-erased walk steps
  int forests = 0;              ///< forests processed (== count)
  int chunks = 0;               ///< scheduling chunks used
  /// Times an executor yielded its core while waiting for its commit
  /// turn (AwaitTurn spins 256 times between yields). Also published
  /// as the `runtime.commit_yields` registry counter.
  std::int64_t commit_yields = 0;
};

/// Number of scratch slots a kernel must provision to run on `pool`
/// (every pool worker plus the calling thread can execute chunks; a
/// single-worker pool runs inline on the caller, so it needs one).
std::size_t McScratchSlots(const ThreadPool& pool);

/// \brief Runs forests [base_forest, base_forest + count) through
/// `kernel` on `pool`.
///
/// Chunks are stolen dynamically, yet all Accumulate/AccumulateTail
/// calls land in forest-index order per shard, so the kernel's
/// accumulators end up bitwise identical for every pool size — equal,
/// in particular, to a sequential run in pure forest order.
McRunStats RunForestBatch(ThreadPool& pool, const McRunOptions& options,
                          std::uint64_t base_forest, int count,
                          ForestKernel& kernel);

}  // namespace cfcm

#endif  // CFCM_RUNTIME_MC_RUNTIME_H_
