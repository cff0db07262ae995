// Lazy-greedy (CELF) selection layer (DESIGN.md §13).
//
// 1. LazyHeap is a deterministic indexed max-heap: (key desc, id asc),
//    O(1) membership.
// 2. On the pinned regression graphs the lazy path selects bitwise
//    identical groups to the exhaustive scan — every seed, unit and
//    weighted, both sampled solvers, any thread count.
// 3. The pruning path is semantically correct: on a deterministic
//    proportional-decay oracle the lazy loop reproduces the exact
//    greedy sequence while re-scoring strictly fewer candidates.
// 4. Escalation calls within a round replay the round's forest arena
//    instead of re-walking, and the exact work counters of one lazy
//    trajectory per sampled solver are pinned.
// 5. The driver's exhaustive mode makes one full, arena-free call per
//    round on the round's stream seed, and one exhaustive CfcmResult
//    per sampled solver is pinned field by field.
#include <algorithm>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "cfcm/forest_cfcm.h"
#include "cfcm/lazy_greedy.h"
#include "cfcm/options.h"
#include "cfcm/schur_cfcm.h"
#include "graph/datasets.h"
#include "graph/builder.h"
#include "graph/generators.h"

namespace cfcm {
namespace {

CfcmOptions Opts(uint64_t seed, SelectionMode mode) {
  CfcmOptions options;
  options.seed = seed;
  options.num_threads = 1;
  options.selection = mode;
  return options;
}

// ------------------------------------------------------------- LazyHeap

TEST(LazyHeapTest, PopsInKeyOrderWithIdTieBreak) {
  LazyHeap heap;
  heap.Reset(8);
  heap.Push(3, 1.0, 1.0, 0);
  heap.Push(1, 2.0, 2.0, 0);
  heap.Push(5, 2.0, 2.0, 0);  // tie with 1: lower id must pop first
  heap.Push(0, 0.5, 0.5, 0);
  heap.Push(7, 3.0, 3.0, 0);

  std::vector<NodeId> order;
  while (!heap.empty()) order.push_back(heap.Pop().id);
  EXPECT_EQ(order, (std::vector<NodeId>{7, 1, 5, 3, 0}));
}

// ------------------------------------- lazy == exhaustive (pinned graphs)

void ExpectLazyMatchesExhaustive(const Graph& g, int k, uint64_t seed) {
  const auto fe = ForestCfcmMaximize(g, k, Opts(seed, SelectionMode::kExhaustive));
  const auto fl = ForestCfcmMaximize(g, k, Opts(seed, SelectionMode::kLazy));
  ASSERT_TRUE(fe.ok());
  ASSERT_TRUE(fl.ok());
  EXPECT_EQ(fe->selected, fl->selected) << "forest seed " << seed;
  const auto se = SchurCfcmMaximize(g, k, Opts(seed, SelectionMode::kExhaustive));
  const auto sl = SchurCfcmMaximize(g, k, Opts(seed, SelectionMode::kLazy));
  ASSERT_TRUE(se.ok());
  ASSERT_TRUE(sl.ok());
  EXPECT_EQ(se->selected, sl->selected) << "schur seed " << seed;
}

TEST(LazyEqualsExhaustiveTest, KarateAllPinnedSeeds) {
  const Graph g = KarateClub();
  for (uint64_t seed : {1, 2, 5}) ExpectLazyMatchesExhaustive(g, 4, seed);
}

TEST(LazyEqualsExhaustiveTest, KarateWeighted) {
  const Graph g = KarateClubWeighted();
  for (uint64_t seed : {1, 2, 5}) ExpectLazyMatchesExhaustive(g, 4, seed);
}

TEST(LazyEqualsExhaustiveTest, ContiguousUsa) {
  ExpectLazyMatchesExhaustive(ContiguousUsa(), 5, 3);
}

TEST(LazyEqualsExhaustiveTest, LazyIsTheDefaultMode) {
  // The pinned-regression suite (weighted_regression_test.cc) runs the
  // solvers with default options; this asserts those pins exercise the
  // lazy path rather than silently testing the exhaustive scan.
  CfcmOptions options;
  EXPECT_EQ(options.selection, SelectionMode::kLazy);
  const auto result = ForestCfcmMaximize(KarateClub(), 4, Opts(1, options.selection));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->selected, (std::vector<NodeId>{0, 25, 16, 18}));
}

// -------------------------------------------- determinism across threads

TEST(LazySelectionDeterminismTest, ThreadCountInvariantOnDecayedGraph) {
  // ba:400 is large enough (n >= 256) to enter the budgeted decayed
  // regime — the path where batches, decay calibration, and reduced
  // forest targets all interact — and must still be a pure function of
  // the seed.
  const Graph g = BarabasiAlbert(400, 4, 1);
  std::vector<NodeId> reference;
  for (int threads : {1, 2, 8}) {
    CfcmOptions options = Opts(9, SelectionMode::kLazy);
    options.num_threads = threads;
    const auto result = ForestCfcmMaximize(g, 6, options);
    ASSERT_TRUE(result.ok());
    if (reference.empty()) {
      reference = result->selected;
    } else {
      EXPECT_EQ(result->selected, reference) << "threads " << threads;
    }
  }
}

// --------------------------------------------- synthetic pruning oracle

TEST(LazyGreedySelectTest, ReproducesExactGreedyOnProportionalDecayOracle) {
  // Deterministic oracle: gain(u | S) = base(u) * 0.8^|S\{first}|, with
  // distinct per-node bases and zero width. Stale keys then order
  // candidates exactly like current gains, so the survival test prunes
  // aggressively and the lazy loop must still return the true greedy
  // sequence (argmax of base, repeatedly).
  const Graph g = KarateClub();
  const NodeId n = g.num_nodes();
  CfcmOptions options = Opts(1, SelectionMode::kLazy);
  ThreadPool& pool = ResolveSamplingPool(options);

  auto base = [n](NodeId u) {
    return 1.0 + static_cast<double>((u * 37) % n);
  };
  std::int64_t oracle_calls = 0;
  auto delta_fn = [&](const std::vector<NodeId>& s_nodes, uint64_t /*seed*/,
                      const DeltaScope& scope) {
    ++oracle_calls;
    DeltaEstimate d;
    d.delta.assign(static_cast<std::size_t>(n), 0.0);
    d.rel.assign(static_cast<std::size_t>(n), 0.0);
    d.forests = 1;
    double scale = 1.0;
    for (std::size_t j = 1; j < s_nodes.size(); ++j) scale *= 0.8;
    for (NodeId u = 0; u < n; ++u) {
      const bool in_s =
          std::find(s_nodes.begin(), s_nodes.end(), u) != s_nodes.end();
      if (in_s) continue;
      if (scope.subset != nullptr && !(*scope.subset)[u]) continue;
      d.delta[u] = base(u) * scale;
    }
    return d;
  };

  const int k = 6;
  const auto result =
      LazyGreedySelect(g, k, options, pool, delta_fn, /*allow_forest_reuse=*/false);
  ASSERT_TRUE(result.ok());

  // Expected: the real first pick, then base() argmax among the rest.
  std::vector<NodeId> expected = {result->selected[0]};
  std::vector<char> taken(static_cast<std::size_t>(n), 0);
  taken[expected[0]] = 1;
  for (int i = 1; i < k; ++i) {
    NodeId best = -1;
    for (NodeId u = 0; u < n; ++u) {
      if (taken[u]) continue;
      if (best < 0 || base(u) > base(best)) best = u;
    }
    taken[best] = 1;
    expected.push_back(best);
  }
  EXPECT_EQ(result->selected, expected);
  // The survival test must have pruned: strictly fewer re-scores than
  // the exhaustive loop's (k-1) full scans of the candidate set.
  EXPECT_LT(result->rescored_candidates,
            static_cast<std::int64_t>(k - 1) * (n - 1));
  EXPECT_GT(result->heap_pops, 0);
}

TEST(LazyGreedySelectTest, ExhaustiveModeScoresEveryCandidateOncePerRound) {
  // The exhaustive mode of the same driver: each round 2..k is exactly
  // one unmasked, arena-free, full-budget call on the round's stream
  // seed, and the pick is the (gain desc, id asc) argmax of the scan.
  // The oracle ties every pair of nodes, so the id tie-break decides.
  const Graph g = KarateClub();
  const NodeId n = g.num_nodes();
  CfcmOptions options = Opts(3, SelectionMode::kExhaustive);
  ThreadPool& pool = ResolveSamplingPool(options);

  std::vector<uint64_t> seeds;
  auto delta_fn = [&](const std::vector<NodeId>& s_nodes, uint64_t seed,
                      const DeltaScope& scope) {
    EXPECT_EQ(scope.subset, nullptr);
    EXPECT_EQ(scope.arena, nullptr);
    EXPECT_EQ(scope.forest_scale, 1.0);
    seeds.push_back(seed);
    DeltaEstimate d;
    d.delta.assign(static_cast<std::size_t>(n), 0.0);
    d.forests = 7;
    d.jl_rows = 5;
    for (NodeId u = 0; u < n; ++u) {
      if (std::find(s_nodes.begin(), s_nodes.end(), u) == s_nodes.end()) {
        d.delta[u] = static_cast<double>(u / 2);
      }
    }
    return d;
  };

  const int k = 4;
  const auto result = LazyGreedySelect(g, k, options, pool, delta_fn,
                                       /*allow_forest_reuse=*/false);
  ASSERT_TRUE(result.ok());
  std::vector<uint64_t> expected_seeds;
  for (int i = 1; i < k; ++i) {
    expected_seeds.push_back(options.seed +
                             static_cast<uint64_t>(i) * 0x9e3779b9ULL);
  }
  EXPECT_EQ(seeds, expected_seeds);
  // Gains u / 2 tie in pairs: {32, 33} first, then 30 over 31. The
  // first pick (argmin of the sampled diagonal) is node 0.
  EXPECT_EQ(result->selected, (std::vector<NodeId>{0, 32, 33, 30}));
  EXPECT_EQ(result->forests_per_iteration.size(), static_cast<std::size_t>(k));
  for (int i = 1; i < k; ++i) EXPECT_EQ(result->forests_per_iteration[i], 7);
  EXPECT_EQ(result->jl_rows, 5);
  EXPECT_EQ(result->rescored_candidates, (n - 1) + (n - 2) + (n - 3));
  EXPECT_EQ(result->heap_pops, 0);
  EXPECT_EQ(result->forests_reused, 0);
}

// ------------------------------------------ in-round escalation replay

TEST(LazyForestReuseTest, EscalationReplaysWithinRoundArena) {
  // When a round's first batch fails the survival test, the escalation
  // call replays the round arena instead of re-walking; the replayed
  // forests must show up in the counters. ba:2000 seed 1 escalates in
  // its pre-calibration round (pinned by determinism, like every other
  // trajectory detail).
  const Graph g = BarabasiAlbert(2000, 4, 1);
  const auto result = ForestCfcmMaximize(g, 6, Opts(1, SelectionMode::kLazy));
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->forests_reused, 0);
}

// ------------------------------------------- work-counter ordering (§13)

TEST(LazyWorkCountersTest, LazyRescoresFewerCandidatesThanExhaustive) {
  const Graph g = BarabasiAlbert(400, 4, 1);
  const int k = 8;
  const auto ex = ForestCfcmMaximize(g, k, Opts(1, SelectionMode::kExhaustive));
  const auto lz = ForestCfcmMaximize(g, k, Opts(1, SelectionMode::kLazy));
  ASSERT_TRUE(ex.ok());
  ASSERT_TRUE(lz.ok());
  EXPECT_GT(ex->rescored_candidates, 0);
  EXPECT_LT(lz->rescored_candidates, ex->rescored_candidates);
  EXPECT_GT(lz->heap_pops, 0);
  EXPECT_EQ(ex->heap_pops, 0);  // the scan never touches a heap
}

// ------------------------------------------- work-counter pins (§13)
//
// Exact selection-layer counters of one lazy trajectory per sampled
// solver. Any change to the batch ladder, the survival margin, the
// width cap or the round arena moves at least one of them, so a
// refactor that claims "nothing observable changes" must keep these
// numbers bit for bit.

CfcmOptions PinOpts() {
  CfcmOptions options = Opts(1, SelectionMode::kLazy);
  options.eps = 0.3;
  return options;
}

TEST(LazyWorkCountersTest, ForestCountersPinnedOnBarabasiAlbert2000) {
  const auto r = ForestCfcmMaximize(BarabasiAlbert(2000, 4, 1), 12, PinOpts());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->selected, (std::vector<NodeId>{381, 57, 1, 1065, 486, 19, 101,
                                              998, 90, 1267, 154, 1958}));
  EXPECT_EQ(r->forests_per_iteration,
            (std::vector<int>{122, 122, 122, 61, 61, 61, 61, 61, 61, 61, 61,
                              61}));
  EXPECT_EQ(r->total_walk_steps, 2342416);
  EXPECT_EQ(r->rescored_candidates, 5498);
  EXPECT_EQ(r->heap_pops, 5498);
  EXPECT_EQ(r->forests_reused, 0);
}

TEST(LazyWorkCountersTest, SchurCountersPinnedOnBarabasiAlbert2000) {
  const auto r = SchurCfcmMaximize(BarabasiAlbert(2000, 4, 1), 12, PinOpts());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->selected, (std::vector<NodeId>{381, 247, 294, 77, 4, 1, 1422,
                                              215, 1197, 475, 1951, 1243}));
  EXPECT_EQ(r->forests_per_iteration,
            (std::vector<int>{122, 122, 122, 61, 61, 61, 61, 61, 61, 61, 61,
                              61}));
  EXPECT_EQ(r->total_walk_steps, 2082154);
  EXPECT_EQ(r->rescored_candidates, 6593);
  EXPECT_EQ(r->heap_pops, 6593);
  EXPECT_EQ(r->forests_reused, 61);
}

// ------------------------------------- exhaustive result pins (§13)
//
// The whole exhaustive CfcmResult (all but `seconds`) of one weighted
// trajectory per sampled solver. The exhaustive scan is the reference
// every lazy test compares against, so its round seeds, full-scan
// scoring, argmax and counters are pinned field by field.

void ExpectExhaustiveResult(const CfcmResult& r,
                            const std::vector<NodeId>& selected,
                            std::int64_t total_walk_steps, int jl_rows,
                            int auxiliary_roots) {
  EXPECT_EQ(r.selected, selected);
  EXPECT_EQ(r.forests_per_iteration, std::vector<int>(12, 122));
  EXPECT_EQ(r.total_forests, 12 * 122);
  EXPECT_EQ(r.total_walk_steps, total_walk_steps);
  EXPECT_EQ(r.solver_calls, 0);
  EXPECT_EQ(r.jl_rows, jl_rows);
  EXPECT_EQ(r.auxiliary_roots, auxiliary_roots);
  // Rounds 2..12 each scan every candidate outside S: sum of (n - i).
  EXPECT_EQ(r.rescored_candidates, 11 * 2000 - 66);
  EXPECT_EQ(r.heap_pops, 0);
  EXPECT_EQ(r.forests_reused, 0);
  EXPECT_EQ(r.forests_resampled, 0);
  EXPECT_EQ(r.swap_moves, 0);
  EXPECT_FALSE(r.warm_started);
  EXPECT_FALSE(r.cold_fallback);
  EXPECT_TRUE(r.solver_backend.empty());
}

CfcmOptions ExhaustivePinOpts() {
  CfcmOptions options = Opts(1, SelectionMode::kExhaustive);
  options.eps = 0.3;
  return options;
}

TEST(ExhaustiveWorkCountersTest, ForestPinnedOnWeightedBarabasiAlbert2000) {
  const Graph g = AssignUniformWeights(BarabasiAlbert(2000, 4, 1), 0.5, 2.0, 7);
  const auto r = ForestCfcmMaximize(g, 12, ExhaustivePinOpts());
  ASSERT_TRUE(r.ok());
  ExpectExhaustiveResult(
      *r, {82, 24, 272, 1, 28, 99, 1063, 166, 6, 126, 0, 653}, 3585225,
      /*jl_rows=*/22, /*auxiliary_roots=*/0);
}

TEST(ExhaustiveWorkCountersTest, SchurPinnedOnWeightedBarabasiAlbert2000) {
  const Graph g = AssignUniformWeights(BarabasiAlbert(2000, 4, 1), 0.5, 2.0, 7);
  const auto r = SchurCfcmMaximize(g, 12, ExhaustivePinOpts());
  ASSERT_TRUE(r.ok());
  ExpectExhaustiveResult(
      *r, {82, 1, 4, 6, 0, 2, 949, 1955, 501, 331, 1267, 1921}, 3357622,
      /*jl_rows=*/22, /*auxiliary_roots=*/37);
}

// ------------------------------- weighted hub order (SchurCFCM T roots)

TEST(WeightedHubOrderTest, HubRemovalOrderUsesWeightedDegrees) {
  // Node 4 has only two edges but dominant conductances; the hub order
  // must rank it by weighted degree, ahead of the high-arity node 0.
  const Graph g = BuildWeightedGraph(
      6, {{0, 1, 1.0}, {0, 2, 1.0}, {0, 3, 1.0}, {0, 5, 1.0},
          {4, 1, 10.0}, {4, 2, 10.0}});
  const auto order = HubRemovalOrder(g, 2);
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 4);  // weighted degree 20 beats degree-4 node 0
  EXPECT_EQ(order[1], 0);
}

TEST(WeightedHubOrderTest, EqualWeightedDegreesKeepHistoricalTieBreak) {
  // Symmetric 4-cycle with uniform conductances: all weighted degrees
  // tie, and the heap must reproduce the historical (pre-weights)
  // tie-break — higher node id first — so unit-weighted graphs keep
  // their pinned T orders bit for bit. The cap clamps to n-2.
  const Graph g = BuildWeightedGraph(
      4, {{0, 1, 2.0}, {1, 2, 2.0}, {2, 3, 2.0}, {3, 0, 2.0}});
  const auto order = HubRemovalOrder(g, 4);
  EXPECT_EQ(order, (std::vector<NodeId>{3, 1}));
}

}  // namespace
}  // namespace cfcm
