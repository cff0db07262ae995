#include "runtime/mc_runtime.h"

#include <atomic>
#include <cmath>
#include <cstring>
#include <mutex>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "graph/datasets.h"
#include "obs/metrics.h"

namespace cfcm {
namespace {

// Records the scheduling contract: which forests ran, and the forest
// order of the Accumulate / AccumulateTail commits per shard.
class RecordingKernel final : public ForestKernel {
 public:
  RecordingKernel(NodeId n, int num_shards)
      : n_(n), processed_(1024), commit_order_(num_shards) {}

  std::int64_t ProcessForest(std::size_t slot,
                             std::uint64_t forest_index) override {
    current_[slot] = static_cast<int>(forest_index);
    processed_[forest_index].fetch_add(1);
    {
      std::lock_guard<std::mutex> lock(mu_);
      slots_used_.insert(slot);
    }
    return static_cast<std::int64_t>(forest_index) + 1;  // fake walk cost
  }

  void Accumulate(std::size_t slot, NodeId begin, NodeId end) override {
    std::lock_guard<std::mutex> lock(mu_);
    covered_.push_back({begin, end});
    commit_order_[CommitShard(begin)].push_back(current_[slot]);
  }

  void AccumulateTail(std::size_t slot) override {
    std::lock_guard<std::mutex> lock(mu_);
    tail_order_.push_back(current_[slot]);
  }

  int CommitShard(NodeId begin) const {
    // Shard index from its begin node (runtime tiles [0, n) evenly).
    return static_cast<int>(commit_order_.size()) == 1
               ? 0
               : static_cast<int>(begin / shard_width_);
  }

  void set_shard_width(NodeId width) { shard_width_ = width; }

  NodeId n_;
  std::vector<std::atomic<int>> processed_;
  std::vector<int> current_ = std::vector<int>(64, -1);
  std::mutex mu_;
  std::vector<std::pair<NodeId, NodeId>> covered_;
  std::vector<std::vector<int>> commit_order_;  // per shard
  std::vector<int> tail_order_;
  std::set<std::size_t> slots_used_;
  NodeId shard_width_ = 1;
};

TEST(McRuntimeTest, ProcessesEveryForestExactlyOnce) {
  ThreadPool pool(4);
  RecordingKernel kernel(10, 1);
  kernel.set_shard_width(10);
  McRunOptions options;
  options.num_nodes = 10;
  options.chunk_forests = 3;
  options.shard_nodes = 10;
  const McRunStats stats = RunForestBatch(pool, options, 100, 37, kernel);
  EXPECT_EQ(stats.forests, 37);
  EXPECT_EQ(stats.chunks, 13);  // ceil(37 / 3)
  for (int f = 0; f < 1024; ++f) {
    EXPECT_EQ(kernel.processed_[f].load(), (f >= 100 && f < 137) ? 1 : 0)
        << "forest " << f;
  }
}

TEST(McRuntimeTest, WalkStepsAggregateProcessForestReturns) {
  ThreadPool pool(3);
  RecordingKernel kernel(5, 1);
  kernel.set_shard_width(5);
  McRunOptions options;
  options.num_nodes = 5;
  options.chunk_forests = 4;
  options.shard_nodes = 5;
  const McRunStats stats = RunForestBatch(pool, options, 0, 20, kernel);
  // ProcessForest(f) returns f + 1: sum_{f=0}^{19} (f + 1) = 210.
  EXPECT_EQ(stats.walk_steps, 210);
}

TEST(McRuntimeTest, CommitsArriveInForestOrderPerShard) {
  ThreadPool pool(4);
  const NodeId n = 10;
  const NodeId shard_width = 4;  // shards [0,4) [4,8) [8,10)
  RecordingKernel kernel(n, 3);
  kernel.set_shard_width(shard_width);
  McRunOptions options;
  options.num_nodes = n;
  options.chunk_forests = 2;
  options.shard_nodes = shard_width;
  RunForestBatch(pool, options, 0, 64, kernel);

  for (const auto& order : kernel.commit_order_) {
    ASSERT_EQ(order.size(), 64u);
    for (std::size_t i = 0; i < order.size(); ++i) {
      EXPECT_EQ(order[i], static_cast<int>(i)) << "out-of-order commit";
    }
  }
  ASSERT_EQ(kernel.tail_order_.size(), 64u);
  for (std::size_t i = 0; i < kernel.tail_order_.size(); ++i) {
    EXPECT_EQ(kernel.tail_order_[i], static_cast<int>(i));
  }
}

TEST(McRuntimeTest, ShardsTileTheNodeDomain) {
  ThreadPool pool(2);
  RecordingKernel kernel(11, 3);
  kernel.set_shard_width(4);
  McRunOptions options;
  options.num_nodes = 11;
  options.chunk_forests = 8;
  options.shard_nodes = 4;
  RunForestBatch(pool, options, 0, 1, kernel);
  // One forest: its shard commits must tile [0, 11) exactly.
  ASSERT_EQ(kernel.covered_.size(), 3u);
  std::vector<char> seen(11, 0);
  for (const auto& [begin, end] : kernel.covered_) {
    for (NodeId u = begin; u < end; ++u) {
      EXPECT_FALSE(seen[u]) << "node " << u << " covered twice";
      seen[u] = 1;
    }
  }
  for (NodeId u = 0; u < 11; ++u) EXPECT_TRUE(seen[u]);
}

TEST(McRuntimeTest, EmptyBatchIsNoop) {
  ThreadPool pool(2);
  RecordingKernel kernel(4, 1);
  McRunOptions options;
  options.num_nodes = 4;
  const McRunStats stats = RunForestBatch(pool, options, 0, 0, kernel);
  EXPECT_EQ(stats.forests, 0);
  EXPECT_EQ(stats.walk_steps, 0);
}

// A deliberately order-sensitive floating-point reduction: sum of
// 1 / (f + 1)^2 into a single cell. Bitwise equality across pool sizes
// holds only if the runtime really commits in forest order.
class FpSumKernel final : public ForestKernel {
 public:
  std::int64_t ProcessForest(std::size_t slot,
                             std::uint64_t forest_index) override {
    value_[slot] = 1.0 / ((static_cast<double>(forest_index) + 1.0) *
                          (static_cast<double>(forest_index) + 1.0));
    return 1;
  }
  void Accumulate(std::size_t slot, NodeId begin, NodeId end) override {
    (void)begin;
    (void)end;
    sum_ += value_[slot];
  }
  double sum_ = 0.0;

 private:
  double value_[64] = {};
};

TEST(McRuntimeTest, FloatingPointReductionIsThreadCountInvariant) {
  auto run = [](std::size_t threads) {
    ThreadPool pool(threads);
    FpSumKernel kernel;
    McRunOptions options;
    options.num_nodes = 1;
    options.chunk_forests = 4;
    options.shard_nodes = 1;
    RunForestBatch(pool, options, 0, 1000, kernel);
    return kernel.sum_;
  };
  const double reference = run(1);
  for (std::size_t threads : {2u, 4u, 8u}) {
    const double value = run(threads);
    EXPECT_EQ(std::memcmp(&value, &reference, sizeof(double)), 0)
        << "threads=" << threads << " value=" << value
        << " reference=" << reference;
  }
}

uint64_t CommitYieldsCounter() {
  for (const auto& [name, value] :
       obs::MetricsRegistry::Global().snapshot().counters) {
    if (name == "runtime.commit_yields") return value;
  }
  ADD_FAILURE() << "runtime.commit_yields missing from the registry";
  return 0;
}

TEST(McRuntimeTest, SingleWorkerPoolNeverYieldsInTheTurnstile) {
  // A 1-worker pool runs every executor inline in slot order, so each
  // forest's commit turn has come before it asks: no waits, no yields.
  ThreadPool pool(1);
  RecordingKernel kernel(10, 3);
  kernel.set_shard_width(4);
  McRunOptions options;
  options.num_nodes = 10;
  options.shard_nodes = 4;
  const McRunStats stats = RunForestBatch(pool, options, 0, 64, kernel);
  EXPECT_EQ(stats.commit_yields, 0);
  // The first batch registers the counter; this one adds its zero.
  const uint64_t before = CommitYieldsCounter();
  RunForestBatch(pool, options, 64, 64, kernel);
  EXPECT_EQ(CommitYieldsCounter(), before);
}

TEST(McRuntimeTest, ScratchSlotsCoverPoolPlusCaller) {
  ThreadPool pool(3);
  EXPECT_EQ(McScratchSlots(pool), 4u);
}

// A single-worker pool runs ParallelFor inline on the caller, so every
// chunk of a batch lands on slot 0 and one slot is all it needs.
TEST(McRuntimeTest, ScratchSlotsSingleWorkerPoolRunsInline) {
  ThreadPool pool(1);
  ASSERT_EQ(McScratchSlots(pool), 1u);
  RecordingKernel kernel(6, 1);
  kernel.set_shard_width(6);
  McRunOptions options;
  options.num_nodes = 6;
  options.chunk_forests = 2;
  options.shard_nodes = 6;
  RunForestBatch(pool, options, 0, 16, kernel);
  EXPECT_EQ(kernel.slots_used_, std::set<std::size_t>{0});
  ASSERT_EQ(kernel.tail_order_.size(), 16u);
  for (std::size_t i = 0; i < kernel.tail_order_.size(); ++i) {
    EXPECT_EQ(kernel.tail_order_[i], static_cast<int>(i));
  }
}

}  // namespace
}  // namespace cfcm
