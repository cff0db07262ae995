#include "cfcm/approx_greedy.h"

#include <gtest/gtest.h>

#include "cfcm/cfcc.h"
#include "cfcm/exact_greedy.h"
#include "common/thread_pool.h"
#include "graph/builder.h"
#include "graph/datasets.h"
#include "graph/generators.h"

namespace cfcm {
namespace {

CfcmOptions TestOptions() {
  CfcmOptions opts;
  opts.eps = 0.2;
  opts.seed = 5;
  opts.jl_rows = 48;
  return opts;
}

TEST(ApproxGreedyTest, NearExactQualityOnKarate) {
  const Graph g = KarateClub();
  auto approx = ApproxGreedyMaximize(g, 5, TestOptions());
  auto exact = ExactGreedyMaximize(g, 5);
  ASSERT_TRUE(approx.ok() && exact.ok());
  const double c_approx = ExactGroupCfcc(g, approx->selected);
  const double c_exact = ExactGroupCfcc(g, exact->selected);
  EXPECT_GE(c_approx, 0.9 * c_exact);
}

TEST(ApproxGreedyTest, SolverCallCountMatchesStructure) {
  // Pick 1: w solves; picks 2..k: 2w solves each.
  const Graph g = ContiguousUsa();
  CfcmOptions opts = TestOptions();
  opts.jl_rows = 16;
  auto result = ApproxGreedyMaximize(g, 3, opts);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->solver_calls, 16 + 2 * 16 * 2);
  EXPECT_GT(result->cg_iterations, 0);
}

TEST(ApproxGreedyTest, SelectsDistinctNodes) {
  const Graph g = DolphinsSynthetic();
  auto result = ApproxGreedyMaximize(g, 8, TestOptions());
  ASSERT_TRUE(result.ok());
  std::vector<NodeId> sorted = result->selected;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(std::unique(sorted.begin(), sorted.end()), sorted.end());
}

TEST(ApproxGreedyTest, DeterministicInSeed) {
  const Graph g = KarateClub();
  auto a = ApproxGreedyMaximize(g, 4, TestOptions());
  auto b = ApproxGreedyMaximize(g, 4, TestOptions());
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->selected, b->selected);
}

TEST(ApproxGreedyTest, RejectsInvalidInput) {
  EXPECT_FALSE(ApproxGreedyMaximize(KarateClub(), 0, TestOptions()).ok());
  EXPECT_FALSE(
      ApproxGreedyMaximize(BuildGraph(4, {{0, 1}, {2, 3}}), 1, TestOptions())
          .ok());
}

TEST(ApproxGreedyTest, FirstPickIsGoodSingleNode) {
  // The JL/solver first pick should land on a top single-node group.
  const Graph g = KarateClub();
  auto result = ApproxGreedyMaximize(g, 1, TestOptions());
  ASSERT_TRUE(result.ok());
  const double c_picked = ExactGroupCfcc(g, result->selected);
  double c_best = 0;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    c_best = std::max(c_best, ExactGroupCfcc(g, {u}));
  }
  EXPECT_GE(c_picked, 0.97 * c_best);
}

// Each step's solves run across the sampling pool and are folded in
// index order: the selection and both work counters are pinned at 1, 2
// and 8 threads. The values were recorded from the one-solve-at-a-time
// loop that the pool-parallel block path replaced.
class ApproxGreedyThreadTest : public ::testing::TestWithParam<std::size_t> {};

INSTANTIATE_TEST_SUITE_P(Threads, ApproxGreedyThreadTest,
                         ::testing::Values(1u, 2u, 8u));

TEST_P(ApproxGreedyThreadTest, SelectionAndCountersPinnedAtEveryPoolSize) {
  struct Pin {
    bool weighted;
    std::vector<NodeId> selected;
    std::int64_t cg_iterations;
  };
  const Pin pins[] = {
      {false, {5, 10, 0, 293, 2, 494}, 4951},
      {true, {5, 10, 3, 0, 346, 336}, 5136},
  };
  const Graph unit = BarabasiAlbert(500, 3, 2);
  const Graph weighted = AssignUniformWeights(unit, 0.5, 2.0, 7);
  ThreadPool pool(GetParam());
  CfcmOptions opts;
  opts.eps = 0.3;
  opts.seed = 3;
  opts.pool = &pool;
  for (const Pin& pin : pins) {
    SCOPED_TRACE(pin.weighted ? "weighted" : "unit");
    auto result =
        ApproxGreedyMaximize(pin.weighted ? weighted : unit, 6, opts);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->selected, pin.selected);
    EXPECT_EQ(result->cg_iterations, pin.cg_iterations);
    EXPECT_EQ(result->solver_calls, 198);  // w = 18: 18 + 5 * 2 * 18
  }
}

}  // namespace
}  // namespace cfcm
