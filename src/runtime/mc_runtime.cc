#include "runtime/mc_runtime.h"

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "obs/metrics.h"

namespace cfcm {

namespace {

// Per-shard commit turnstile: the next relative forest index allowed to
// commit. Spin briefly (the predecessor is usually mid-commit on another
// core), then yield so an oversubscribed host still makes progress.
// Returns how many times it yielded.
std::int64_t AwaitTurn(const std::atomic<int>& ticket, int relative_forest) {
  std::int64_t yields = 0;
  int spins = 0;
  while (ticket.load(std::memory_order_acquire) != relative_forest) {
    if (++spins >= 256) {
      std::this_thread::yield();
      ++yields;
      spins = 0;
    }
  }
  return yields;
}

}  // namespace

std::size_t McScratchSlots(const ThreadPool& pool) {
  // A single-worker pool runs its loops inline on the caller: one
  // executor, one slot.
  const std::size_t workers = pool.num_threads();
  return workers == 1 ? 1 : workers + 1;
}

McRunStats RunForestBatch(ThreadPool& pool, const McRunOptions& options,
                          std::uint64_t base_forest, int count,
                          ForestKernel& kernel) {
  McRunStats stats;
  if (count <= 0) return stats;
  stats.forests = count;

  const int chunk = std::max(1, options.chunk_forests);
  const int num_chunks = (count + chunk - 1) / chunk;
  stats.chunks = num_chunks;

  const NodeId n = options.num_nodes;
  const NodeId shard_width = std::max<NodeId>(1, options.shard_nodes);
  // Overflow-safe ceil-div: n can sit near the NodeId maximum.
  const int num_shards =
      n > 0 ? static_cast<int>(n / shard_width + (n % shard_width != 0)) : 0;

  // tickets[s] gates shard s; tickets[num_shards] gates AccumulateTail.
  // Progress argument: chunks are claimed in increasing order, so every
  // forest a committer waits on is owned by an executor that is already
  // running, and the globally smallest uncommitted forest never waits.
  std::vector<std::atomic<int>> tickets(
      static_cast<std::size_t>(num_shards) + 1);
  for (auto& t : tickets) t.store(0, std::memory_order_relaxed);

  std::atomic<int> next_chunk{0};
  std::atomic<std::int64_t> walk_steps{0};
  std::atomic<std::int64_t> commit_yields{0};

  pool.ParallelFor(McScratchSlots(pool), [&](std::size_t slot) {
    std::int64_t local_steps = 0;
    std::int64_t local_yields = 0;
    for (;;) {
      const int c = next_chunk.fetch_add(1, std::memory_order_relaxed);
      if (c >= num_chunks) break;
      const int first = c * chunk;
      const int last = std::min(count, first + chunk);
      for (int r = first; r < last; ++r) {
        local_steps +=
            kernel.ProcessForest(slot, base_forest + static_cast<uint64_t>(r));
        for (int s = 0; s < num_shards; ++s) {
          local_yields += AwaitTurn(tickets[s], r);
          const NodeId begin = static_cast<NodeId>(s) * shard_width;
          kernel.Accumulate(slot, begin,
                            begin + std::min<NodeId>(shard_width, n - begin));
          tickets[s].store(r + 1, std::memory_order_release);
        }
        local_yields += AwaitTurn(tickets[num_shards], r);
        kernel.AccumulateTail(slot);
        tickets[num_shards].store(r + 1, std::memory_order_release);
      }
    }
    walk_steps.fetch_add(local_steps, std::memory_order_relaxed);
    commit_yields.fetch_add(local_yields, std::memory_order_relaxed);
  });

  stats.walk_steps = walk_steps.load(std::memory_order_relaxed);
  stats.commit_yields = commit_yields.load(std::memory_order_relaxed);

  // Observability only: these counters never feed back into scheduling,
  // so the per-seed bitwise determinism of the batch is untouched.
  // Name resolution happens once per process; recording is relaxed adds.
  static obs::Counter* const batches =
      &obs::MetricsRegistry::Global().counter("runtime.batches");
  static obs::Counter* const forests =
      &obs::MetricsRegistry::Global().counter("runtime.forests");
  static obs::Counter* const steps =
      &obs::MetricsRegistry::Global().counter("runtime.walk_steps");
  static obs::Counter* const chunks =
      &obs::MetricsRegistry::Global().counter("runtime.chunks");
  static obs::Counter* const yields =
      &obs::MetricsRegistry::Global().counter("runtime.commit_yields");
  batches->Add(1);
  forests->Add(static_cast<uint64_t>(stats.forests));
  steps->Add(static_cast<uint64_t>(stats.walk_steps));
  chunks->Add(static_cast<uint64_t>(stats.chunks));
  yields->Add(static_cast<uint64_t>(stats.commit_yields));
  return stats;
}

}  // namespace cfcm
