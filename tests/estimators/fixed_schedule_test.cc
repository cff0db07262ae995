// Every forest estimate samples exactly its resolved target: there is no
// per-batch stop rule. A star with its hub grounded is the instance where
// an empirical-Bernstein early exit would fire first — every leaf has
// (L^{-1}_{-S})_uu = 1 with zero variance — so it is the one that shows
// the schedule really is fixed.
#include <gtest/gtest.h>

#include "estimators/first_pick.h"
#include "estimators/forest_delta.h"
#include "estimators/schur_delta.h"
#include "graph/generators.h"

namespace cfcm {
namespace {

constexpr NodeId kStarNodes = 64;

EstimatorOptions StarOptions() {
  EstimatorOptions opts;
  opts.seed = 5;
  opts.eps = 0.3;
  opts.min_batch = 64;
  opts.max_forests = 4096;
  opts.target_forests = 4096;
  opts.jl_rows = 16;
  return opts;
}

TEST(FixedScheduleTest, ForestDeltaSamplesFullTarget) {
  const Graph g = StarGraph(kStarNodes);
  const EstimatorOptions opts = StarOptions();
  ThreadPool pool(2);
  const DeltaEstimate est = ForestDelta(g, {0}, opts, pool);
  EXPECT_EQ(est.forests, ResolveTargetForests(opts, g.num_nodes()));
  EXPECT_FALSE(est.converged);
  // The final Bernstein widths are still filled for every non-root node.
  EXPECT_EQ(est.rel[0], 0.0);
  for (NodeId u = 1; u < g.num_nodes(); ++u) EXPECT_GT(est.rel[u], 0.0);
}

TEST(FixedScheduleTest, SubsetForestDeltaSamplesFullTarget) {
  const Graph g = StarGraph(kStarNodes);
  const EstimatorOptions opts = StarOptions();
  std::vector<char> mask(static_cast<std::size_t>(g.num_nodes()), 0);
  mask[3] = mask[17] = mask[40] = 1;
  DeltaScope scope;
  scope.subset = &mask;
  ThreadPool pool(2);
  const DeltaEstimate est = ForestDelta(g, {0}, opts, pool, scope);
  EXPECT_EQ(est.forests, ResolveTargetForests(opts, g.num_nodes()));
  EXPECT_FALSE(est.converged);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    if (mask[static_cast<std::size_t>(u)]) {
      EXPECT_GT(est.rel[u], 0.0);
    } else {
      EXPECT_EQ(est.rel[u], 0.0);
    }
  }
}

TEST(FixedScheduleTest, SchurDeltaSamplesFullTarget) {
  const Graph g = StarGraph(kStarNodes);
  const EstimatorOptions opts = StarOptions();
  ThreadPool pool(2);
  const SchurDeltaEstimate est = SchurDelta(g, {0}, {1}, opts, pool);
  EXPECT_EQ(est.forests, ResolveTargetForests(opts, g.num_nodes()));
  EXPECT_FALSE(est.converged);
  for (NodeId u = 1; u < g.num_nodes(); ++u) EXPECT_GT(est.rel[u], 0.0);
}

TEST(FixedScheduleTest, FirstPickSamplesFullTarget) {
  const Graph g = StarGraph(kStarNodes);
  EstimatorOptions opts = StarOptions();
  opts.min_batch = 32;
  ThreadPool pool(2);
  const FirstPickResult result = EstimateFirstPick(g, opts, pool);
  EXPECT_EQ(result.best, 0);
  EXPECT_EQ(result.forests, ResolveTargetForests(opts, g.num_nodes()));
}

}  // namespace
}  // namespace cfcm
