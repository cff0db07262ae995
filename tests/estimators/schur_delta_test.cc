#include "estimators/schur_delta.h"

#include <cmath>

#include <gtest/gtest.h>

#include "graph/datasets.h"
#include "graph/generators.h"
#include "linalg/laplacian.h"

namespace cfcm {
namespace {

EstimatorOptions TestOptions(int forests, int jl_rows = 0) {
  EstimatorOptions opts;
  opts.seed = 31;
  opts.max_forests = forests;
  opts.target_forests = forests;
  opts.jl_rows = jl_rows;
  return opts;
}

std::vector<double> ExactDelta(const Graph& g,
                               const std::vector<NodeId>& s_nodes) {
  const DenseMatrix inv = ExactLaplacianSubmatrixInverse(g, s_nodes);
  const SubmatrixIndex idx = MakeSubmatrixIndex(g.num_nodes(), s_nodes);
  std::vector<double> delta(static_cast<std::size_t>(g.num_nodes()), 0.0);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    const NodeId i = idx.pos[u];
    if (i < 0) continue;
    double nrm = 0;
    for (int j = 0; j < inv.rows(); ++j) nrm += inv(j, i) * inv(j, i);
    delta[u] = nrm / inv(i, i);
  }
  return delta;
}

TEST(SchurDeltaTest, ZMatchesDiagonalIncludingTNodes) {
  // z_u must estimate (L_{-S}^{-1})_uu for u in U *and* u in T — the T
  // entries come purely from the estimated Schur complement (Eq. 11).
  const Graph g = KarateClub();
  const std::vector<NodeId> s = {5};
  const std::vector<NodeId> t = {33, 0};
  ThreadPool pool(2);
  const SchurDeltaEstimate est =
      SchurDelta(g, s, t, TestOptions(8192, 16), pool);
  const DenseMatrix inv = ExactLaplacianSubmatrixInverse(g, s);
  const SubmatrixIndex idx = MakeSubmatrixIndex(g.num_nodes(), s);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    if (u == 5) continue;
    const double exact = inv(idx.pos[u], idx.pos[u]);
    EXPECT_NEAR(est.z[u], exact, 0.05 + 0.08 * exact) << "u=" << u;
  }
  EXPECT_EQ(est.auxiliary_roots, 2);
}

TEST(SchurDeltaTest, DeltaCloseToExact) {
  const Graph g = ContiguousUsa();
  const std::vector<NodeId> s = {10};
  const std::vector<NodeId> t = {20, 35};
  ThreadPool pool(2);
  const SchurDeltaEstimate est =
      SchurDelta(g, s, t, TestOptions(8192, 64), pool);
  const std::vector<double> exact = ExactDelta(g, s);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    if (u == 10) continue;
    EXPECT_NEAR(est.delta[u], exact[u], 0.25 * exact[u] + 0.1) << "u=" << u;
  }
}

TEST(SchurDeltaTest, ArgmaxMatchesExact) {
  const Graph g = KarateClub();
  const std::vector<NodeId> s = {33};
  const std::vector<NodeId> t = {0, 32};
  ThreadPool pool(2);
  const SchurDeltaEstimate est =
      SchurDelta(g, s, t, TestOptions(8192, 32), pool);
  const std::vector<double> exact = ExactDelta(g, s);

  NodeId est_best = -1, exact_best = -1;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    if (u == 33) continue;
    if (est_best < 0 || est.delta[u] > est.delta[est_best]) est_best = u;
    if (exact_best < 0 || exact[u] > exact[exact_best]) exact_best = u;
  }
  EXPECT_GE(exact[est_best], 0.95 * exact[exact_best]);
}

TEST(SchurDeltaTest, AgreesWithForestDeltaEstimates) {
  // Two different estimators of the same quantity must agree.
  const Graph g = BarabasiAlbert(80, 2, 41);
  const std::vector<NodeId> s = {3};
  const std::vector<NodeId> t = {0, 1};
  ThreadPool pool(2);
  const SchurDeltaEstimate schur =
      SchurDelta(g, s, t, TestOptions(4096, 32), pool);
  const std::vector<double> exact = ExactDelta(g, s);
  double max_rel = 0;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    if (u == 3 || exact[u] < 0.2) continue;
    max_rel = std::max(max_rel,
                       std::fabs(schur.delta[u] - exact[u]) / exact[u]);
  }
  EXPECT_LT(max_rel, 0.35);
}

TEST(SchurDeltaTest, SNodesGetZero) {
  const Graph g = KarateClub();
  ThreadPool pool(1);
  const SchurDeltaEstimate est =
      SchurDelta(g, {7, 11}, {33}, TestOptions(64, 8), pool);
  EXPECT_EQ(est.delta[7], 0.0);
  EXPECT_EQ(est.delta[11], 0.0);
}

TEST(SchurDeltaTest, DeterministicAcrossThreadCounts) {
  // Same forests regardless of worker count; summation order may differ,
  // so compare to rounding error.
  const Graph g = ContiguousUsa();
  ThreadPool pool1(1), pool3(3);
  const SchurDeltaEstimate a =
      SchurDelta(g, {4}, {20, 35}, TestOptions(128, 8), pool1);
  const SchurDeltaEstimate b =
      SchurDelta(g, {4}, {20, 35}, TestOptions(128, 8), pool3);
  for (std::size_t u = 0; u < a.delta.size(); ++u) {
    EXPECT_NEAR(a.delta[u], b.delta[u], 1e-9 * (1.0 + a.delta[u]));
    EXPECT_NEAR(a.z[u], b.z[u], 1e-9 * (1.0 + a.z[u]));
  }
}

TEST(SchurDeltaTest, NoRidgeNeededAtReasonableSampleCounts) {
  const Graph g = KarateClub();
  ThreadPool pool(2);
  const SchurDeltaEstimate est =
      SchurDelta(g, {5}, {33, 0}, TestOptions(1024, 8), pool);
  EXPECT_EQ(est.ridge, 0.0);
}

// A round of the lazy SchurCFCM solve of grid:40x40 (k=8, eps=0.5,
// seed 1): its 32 forests leave an estimated Schur complement so far
// from positive definite that even a ridge of 0.1 max_diag does not
// factor it. The Gershgorin fallback must still return a usable inverse.
TEST(SchurDeltaTest, IndefiniteEstimateFallsBackToDominantRidge) {
  const Graph g = GridGraph(40, 40);
  EstimatorOptions opts;
  opts.eps = 0.5;
  opts.seed = 15926614615ULL;
  opts.target_forests = 32;
  ThreadPool pool(2);
  const SchurDeltaEstimate est =
      SchurDelta(g, {1408, 433, 703, 690, 257, 1264},
                 {1558, 1556, 1554, 1552}, opts, pool);
  ASSERT_EQ(est.forests, 32);
  EXPECT_GT(est.ridge, 0.1 * 2.28125);  // past the escalation ladder
  for (NodeId t : {1558, 1556, 1554, 1552}) EXPECT_GT(est.z[t], 0.0);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    EXPECT_TRUE(std::isfinite(est.delta[u])) << u;
    EXPECT_TRUE(std::isfinite(est.z[u])) << u;
  }
}

}  // namespace
}  // namespace cfcm
