// Incremental re-solve pipeline (DESIGN.md §16).
//
// 1. Identity deltas (empty batch, no-op reweight) take the warm fast
//    path and return the stored cold result verbatim — selection and
//    cfcc bitwise — on every pinned regression graph.
// 2. Under a small reweight delta the warm repair's group is as good as
//    the cold re-solve's across its seed spread (exact CFCC).
// 3. Warm results are a pure function of the seed: 1/2/8 sampling
//    threads produce bitwise identical selections and identical,
//    pinned repair work counters.
// 4. The DecideWarm fallback policy fires for every documented trigger
//    (missing state, k drift, parameter drift, oversized delta,
//    addition support break, disconnection), and a kOn solve that falls
//    back reports cold_fallback without warm_started.
// 5. AdvanceWarmState folds deltas into the running summary: touched
//    edges accumulate, structural flags flip on removals/additions, and
//    the retained forests keep a clean/dirty classification.
#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "cfcm/cfcc.h"
#include "cfcm/incremental.h"
#include "cfcm/options.h"
#include "graph/builder.h"
#include "graph/datasets.h"
#include "graph/delta.h"
#include "graph/generators.h"
#include "graph/graph.h"

namespace cfcm {
namespace {

CfcmOptions Opts(uint64_t seed, int threads = 1) {
  CfcmOptions options;
  options.seed = seed;
  options.num_threads = threads;
  options.selection = SelectionMode::kLazy;
  return options;
}

/// Cold solve that also returns the deposited successor WarmState.
StatusOr<CfcmResult> ColdSolve(const Graph& g, int k, const CfcmOptions& o,
                               std::shared_ptr<const WarmState>* deposit) {
  return ForestSolveWithWarm(g, k, o, WarmMode::kOff, nullptr, deposit);
}

// ------------------------------------------- identity-delta parity (§16)

void ExpectIdentityParity(const Graph& g, int k, uint64_t seed) {
  const CfcmOptions options = Opts(seed);
  std::shared_ptr<const WarmState> deposit;
  const auto cold = ColdSolve(g, k, options, &deposit);
  ASSERT_TRUE(cold.ok());
  ASSERT_NE(deposit, nullptr);

  // Empty delta: the successor state is identical, the warm solve must
  // short-circuit to the stored result.
  const GraphDelta empty;
  const auto advanced = AdvanceWarmState(*deposit, g, empty);
  const auto warm =
      ForestSolveWithWarm(g, k, options, WarmMode::kOn, advanced, nullptr);
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm->warm_started) << "seed " << seed;
  EXPECT_FALSE(warm->cold_fallback);
  EXPECT_EQ(warm->selected, cold->selected) << "seed " << seed;
  EXPECT_EQ(warm->total_forests, 0);  // no sampling on the fast path
  EXPECT_EQ(warm->total_walk_steps, 0);
}

TEST(WarmIdentityParityTest, Karate) {
  const Graph g = KarateClub();
  for (uint64_t seed : {1, 2, 5}) ExpectIdentityParity(g, 4, seed);
}

TEST(WarmIdentityParityTest, KarateWeighted) {
  const Graph g = KarateClubWeighted();
  for (uint64_t seed : {1, 2, 5}) ExpectIdentityParity(g, 4, seed);
}

TEST(WarmIdentityParityTest, ContiguousUsa) {
  ExpectIdentityParity(ContiguousUsa(), 5, 3);
}

TEST(WarmIdentityParityTest, BarabasiAlbert400) {
  ExpectIdentityParity(BarabasiAlbert(400, 4, 1), 6, 9);
}

TEST(WarmIdentityParityTest, NoOpReweightIsIdentity) {
  // Reweighting an edge to its current conductance changes nothing;
  // AdvanceWarmState must skip it so the fast path still fires.
  const Graph g = KarateClubWeighted();
  const CfcmOptions options = Opts(1);
  std::shared_ptr<const WarmState> deposit;
  const auto cold = ColdSolve(g, 4, options, &deposit);
  ASSERT_TRUE(cold.ok());

  GraphDelta noop;
  noop.ReweightEdge(0, 1, g.EdgeWeight(0, 1));
  const auto g2 = g.Apply(noop);
  ASSERT_TRUE(g2.ok());
  const auto advanced = AdvanceWarmState(*deposit, g, noop);
  EXPECT_TRUE(advanced->touched.empty());
  const auto warm =
      ForestSolveWithWarm(*g2, 4, options, WarmMode::kOn, advanced, nullptr);
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm->warm_started);
  EXPECT_EQ(warm->selected, cold->selected);
  EXPECT_EQ(warm->total_forests, 0);
}

// --------------------------- small-delta quality vs cold seed spread

TEST(WarmQualityTest, SmallReweightWithinColdSeedSpread) {
  const Graph g = KarateClub();
  const int k = 4;
  GraphDelta delta;
  delta.ReweightEdge(0, 1, 1.2);
  const auto g2 = g.Apply(delta);
  ASSERT_TRUE(g2.ok());

  auto tight = [](uint64_t seed) {
    CfcmOptions options = Opts(seed);
    options.eps = 0.1;  // enough samples that noise beats no repair
    return options;
  };

  // Cold re-solves across seeds set the quality floor: the warm repair
  // may land on a different (sampling-noise) group, but its exact CFCC
  // must not fall below the worst cold seed's.
  double cold_floor = 0.0;
  for (uint64_t seed : {1, 2, 3, 4, 5}) {
    const auto cold = ColdSolve(*g2, k, tight(seed), nullptr);
    ASSERT_TRUE(cold.ok());
    const double cfcc = ExactGroupCfcc(*g2, cold->selected);
    cold_floor = cold_floor == 0.0 ? cfcc : std::min(cold_floor, cfcc);
  }

  for (uint64_t seed : {1, 2, 3, 4, 5}) {
    const CfcmOptions options = tight(seed);
    std::shared_ptr<const WarmState> deposit;
    ASSERT_TRUE(ColdSolve(g, k, options, &deposit).ok());
    const auto advanced = AdvanceWarmState(*deposit, g, delta);
    const auto warm =
        ForestSolveWithWarm(*g2, k, options, WarmMode::kOn, advanced, nullptr);
    ASSERT_TRUE(warm.ok());
    EXPECT_TRUE(warm->warm_started) << "seed " << seed;
    const double warm_cfcc = ExactGroupCfcc(*g2, warm->selected);
    EXPECT_GE(warm_cfcc, cold_floor * (1.0 - 1e-9)) << "seed " << seed;
  }
}

// ------------------------------------------ thread-count invariance

TEST(WarmDeterminismTest, ThreadCountInvariant) {
  const Graph g = BarabasiAlbert(400, 4, 1);
  GraphDelta delta;
  delta.ReweightEdge(0, 1, 1.5);
  const auto g2 = g.Apply(delta);
  ASSERT_TRUE(g2.ok());

  for (int threads : {1, 2, 8}) {
    const CfcmOptions options = Opts(9, threads);
    std::shared_ptr<const WarmState> deposit;
    ASSERT_TRUE(ColdSolve(g, 6, options, &deposit).ok());
    const auto advanced = AdvanceWarmState(*deposit, g, delta);
    const auto warm =
        ForestSolveWithWarm(*g2, 6, options, WarmMode::kOn, advanced, nullptr);
    ASSERT_TRUE(warm.ok());
    EXPECT_TRUE(warm->warm_started) << "threads " << threads;
    // The same exact selection and repair work counters at every thread
    // count. Contender pool size, swap margin, swap-sweep gate and the
    // captured arena hand-off all feed them.
    EXPECT_EQ(warm->selected, (std::vector<NodeId>{1, 4, 5, 3, 312, 373}))
        << "threads " << threads;
    EXPECT_EQ(warm->swap_moves, 1) << "threads " << threads;
    EXPECT_EQ(warm->forests_resampled, 5) << "threads " << threads;
    EXPECT_EQ(warm->forests_reused, 103) << "threads " << threads;
    EXPECT_EQ(warm->rescored_candidates, 17)  // incumbent + 16 contenders
        << "threads " << threads;
  }
}

// -------------------------------------------- DecideWarm fallback policy

TEST(DecideWarmTest, NullStateAndParameterDrift) {
  const Graph g = KarateClub();
  const CfcmOptions options = Opts(1);
  EXPECT_STREQ(DecideWarm(g, nullptr, 4, options).reason, "no_warm_state");

  std::shared_ptr<const WarmState> deposit;
  ASSERT_TRUE(ColdSolve(g, 4, options, &deposit).ok());
  EXPECT_TRUE(DecideWarm(g, deposit.get(), 4, options).use_warm);
  EXPECT_STREQ(DecideWarm(g, deposit.get(), 4, options).reason, "ok");

  EXPECT_STREQ(DecideWarm(g, deposit.get(), 5, options).reason, "k_mismatch");
  EXPECT_STREQ(DecideWarm(g, deposit.get(), 1, options).reason,
               "k_too_small");
  EXPECT_STREQ(DecideWarm(g, deposit.get(), 4, Opts(2)).reason,
               "params_changed");
  CfcmOptions other_eps = options;
  other_eps.eps = options.eps * 0.5;
  EXPECT_STREQ(DecideWarm(g, deposit.get(), 4, other_eps).reason,
               "params_changed");
}

TEST(DecideWarmTest, OversizedDeltaFallsBackCold) {
  const Graph g = KarateClub();
  const CfcmOptions options = Opts(1);
  std::shared_ptr<const WarmState> deposit;
  ASSERT_TRUE(ColdSolve(g, 4, options, &deposit).ok());

  // Touch well past kWarmMaxDeltaFraction (0.25) of karate's
  // 78 edges.
  GraphDelta big;
  const auto edges = g.Edges();
  const std::size_t count = std::min<std::size_t>(30, edges.size());
  for (std::size_t i = 0; i < count; ++i) {
    big.ReweightEdge(edges[i].first, edges[i].second, 2.0);
  }
  const auto g2 = g.Apply(big);
  ASSERT_TRUE(g2.ok());
  const auto advanced = AdvanceWarmState(*deposit, g, big);
  EXPECT_STREQ(DecideWarm(*g2, advanced.get(), 4, options).reason,
               "delta_too_large");

  // A kOn solve still succeeds — cold, with the fallback reported.
  const auto solved =
      ForestSolveWithWarm(*g2, 4, options, WarmMode::kOn, advanced, nullptr);
  ASSERT_TRUE(solved.ok());
  EXPECT_FALSE(solved->warm_started);
  EXPECT_TRUE(solved->cold_fallback);
}

TEST(DecideWarmTest, HeavyAdditionBreaksProposalSupport) {
  const Graph g = KarateClub();
  const CfcmOptions options = Opts(1);
  std::shared_ptr<const WarmState> deposit;
  ASSERT_TRUE(ColdSolve(g, 4, options, &deposit).ok());

  // A dominant new edge: a post-delta forest almost surely crosses it,
  // so the importance-correction share exceeds the 0.5 ceiling.
  GraphDelta heavy;
  ASSERT_FALSE(g.HasEdge(15, 18));
  heavy.AddEdge(15, 18, 1000.0);
  const auto g2 = g.Apply(heavy);
  ASSERT_TRUE(g2.ok());
  const auto advanced = AdvanceWarmState(*deposit, g, heavy);
  EXPECT_GE(advanced->addition_share, 0.5);
  EXPECT_STREQ(DecideWarm(*g2, advanced.get(), 4, options).reason,
               "addition_share");
}

TEST(DecideWarmTest, DisconnectingDeltaFallsBackCold) {
  // Path 0-1-2-3-4-5; removing the middle edge splits it.
  const Graph g = BuildWeightedGraph(
      6, {{0, 1, 1.0}, {1, 2, 1.0}, {2, 3, 1.0}, {3, 4, 1.0}, {4, 5, 1.0}});
  const CfcmOptions options = Opts(1);
  std::shared_ptr<const WarmState> deposit;
  ASSERT_TRUE(ColdSolve(g, 2, options, &deposit).ok());

  GraphDelta cut;
  cut.RemoveEdge(2, 3);
  const auto g2 = g.Apply(cut);
  ASSERT_TRUE(g2.ok());
  const auto advanced = AdvanceWarmState(*deposit, g, cut);
  EXPECT_STREQ(DecideWarm(*g2, advanced.get(), 2, options).reason,
               "disconnected");
}

// ---------------------------------------- AdvanceWarmState bookkeeping

TEST(AdvanceWarmStateTest, AccumulatesTouchedEdgesAndFlags) {
  const Graph g = KarateClub();
  std::shared_ptr<const WarmState> deposit;
  ASSERT_TRUE(ColdSolve(g, 4, Opts(1), &deposit).ok());
  EXPECT_TRUE(deposit->touched.empty());
  EXPECT_FALSE(deposit->structural);

  GraphDelta reweight;
  reweight.ReweightEdge(0, 1, 3.0);
  const auto s1 = AdvanceWarmState(*deposit, g, reweight);
  ASSERT_EQ(s1->touched.size(), 1u);
  EXPECT_EQ(s1->touched[0].u, 0);
  EXPECT_EQ(s1->touched[0].v, 1);
  EXPECT_DOUBLE_EQ(s1->touched[0].abs_dw, 2.0);
  EXPECT_FALSE(s1->structural);
  EXPECT_EQ(s1->epoch_salt, deposit->epoch_salt + 1);

  const auto g1 = g.Apply(reweight);
  ASSERT_TRUE(g1.ok());
  GraphDelta remove;
  remove.RemoveEdge(2, 3);
  const auto s2 = AdvanceWarmState(*s1, *g1, remove);
  EXPECT_EQ(s2->touched.size(), 2u);
  EXPECT_TRUE(s2->structural);
}

TEST(AdvanceWarmStateTest, RetainedForestsKeepCleanDirtySplit) {
  // The deposit carries the final greedy round's arena; a 1-edge
  // reweight dirties exactly the forests whose up-edge set crosses it —
  // on karate that is a strict minority, so both classes must appear
  // non-trivially or not at all (never all-dirty).
  const Graph g = KarateClub();
  std::shared_ptr<const WarmState> deposit;
  ASSERT_TRUE(ColdSolve(g, 4, Opts(1), &deposit).ok());
  ASSERT_NE(deposit->lease, nullptr);
  ASSERT_FALSE(deposit->clean.empty());
  for (char c : deposit->clean) EXPECT_NE(c, 0);  // all clean at capture

  GraphDelta delta;
  delta.ReweightEdge(0, 1, 2.0);
  const auto advanced = AdvanceWarmState(*deposit, g, delta);
  ASSERT_NE(advanced->lease, nullptr);
  ASSERT_EQ(advanced->clean.size(), deposit->clean.size());
  const std::size_t clean_count = static_cast<std::size_t>(
      std::count_if(advanced->clean.begin(), advanced->clean.end(),
                    [](char c) { return c != 0; }));
  EXPECT_GT(clean_count, 0u);
  EXPECT_LT(clean_count, advanced->clean.size());  // (0,1) is a hub edge

  // The predecessor's lease was claimed by the advance; a second
  // claimant must lose.
  EXPECT_FALSE(deposit->lease->TryClaim());
}

TEST(AdvanceWarmStateTest, NodeAdditionCarriesNoArenaButStaysWarm) {
  const Graph g = KarateClub();
  const CfcmOptions options = Opts(1);
  std::shared_ptr<const WarmState> deposit;
  ASSERT_TRUE(ColdSolve(g, 4, options, &deposit).ok());

  GraphDelta grow;
  grow.AddNodes(1);
  grow.AddEdge(34, 0, 1.0);
  const auto g2 = g.Apply(grow);
  ASSERT_TRUE(g2.ok());
  const auto advanced = AdvanceWarmState(*deposit, g, grow);
  EXPECT_EQ(advanced->lease, nullptr);  // old-id-space arena dropped
  EXPECT_TRUE(advanced->structural);
  const WarmDecision decision =
      DecideWarm(*g2, advanced.get(), 4, options);
  EXPECT_TRUE(decision.use_warm) << decision.reason;

  const auto warm =
      ForestSolveWithWarm(*g2, 4, options, WarmMode::kOn, advanced, nullptr);
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm->warm_started);
}

// ------------------------------------------------ warm-mode plumbing

TEST(WarmModeTest, NamesRoundTrip) {
  EXPECT_STREQ(WarmModeName(WarmMode::kOff), "off");
  EXPECT_STREQ(WarmModeName(WarmMode::kAuto), "auto");
  EXPECT_STREQ(WarmModeName(WarmMode::kOn), "on");
  EXPECT_EQ(ParseWarmMode("auto"), WarmMode::kAuto);
  EXPECT_EQ(ParseWarmMode("on"), WarmMode::kOn);
  EXPECT_EQ(ParseWarmMode("off"), WarmMode::kOff);
  EXPECT_EQ(ParseWarmMode("bogus"), std::nullopt);
}

TEST(WarmModeTest, AutoWithoutStateIsColdNotFallback) {
  const Graph g = KarateClub();
  const auto solved =
      ForestSolveWithWarm(g, 4, Opts(1), WarmMode::kAuto, nullptr, nullptr);
  ASSERT_TRUE(solved.ok());
  EXPECT_FALSE(solved->warm_started);
  EXPECT_FALSE(solved->cold_fallback);  // nothing existed to fall back from
}

TEST(WarmModeTest, WarmSolveDepositsSuccessorState) {
  // The warm path itself must leave a state behind so chains of deltas
  // keep warm-starting epoch after epoch.
  const Graph g = KarateClub();
  const CfcmOptions options = Opts(1);
  std::shared_ptr<const WarmState> deposit;
  ASSERT_TRUE(ColdSolve(g, 4, options, &deposit).ok());

  GraphDelta d1;
  d1.ReweightEdge(0, 1, 1.1);
  const auto g1 = g.Apply(d1);
  ASSERT_TRUE(g1.ok());
  auto advanced = AdvanceWarmState(*deposit, g, d1);
  std::shared_ptr<const WarmState> redeposit;
  const auto warm1 =
      ForestSolveWithWarm(*g1, 4, options, WarmMode::kOn, advanced, &redeposit);
  ASSERT_TRUE(warm1.ok());
  EXPECT_TRUE(warm1->warm_started);
  ASSERT_NE(redeposit, nullptr);

  GraphDelta d2;
  d2.ReweightEdge(0, 1, 1.2);
  const auto g2 = g1->Apply(d2);
  ASSERT_TRUE(g2.ok());
  advanced = AdvanceWarmState(*redeposit, *g1, d2);
  const auto warm2 =
      ForestSolveWithWarm(*g2, 4, options, WarmMode::kOn, advanced, nullptr);
  ASSERT_TRUE(warm2.ok());
  EXPECT_TRUE(warm2->warm_started);
}

}  // namespace
}  // namespace cfcm
