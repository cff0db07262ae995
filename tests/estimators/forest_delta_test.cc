#include "estimators/forest_delta.h"

#include <cmath>

#include <gtest/gtest.h>

#include "graph/datasets.h"
#include "linalg/laplacian.h"

namespace cfcm {
namespace {

EstimatorOptions TestOptions(int forests, int jl_rows = 0) {
  EstimatorOptions opts;
  opts.seed = 21;
  opts.max_forests = forests;
  opts.target_forests = forests;
  opts.jl_rows = jl_rows;
  return opts;
}

// Exact Delta(u,S) = (L^{-2})_uu / (L^{-1})_uu from the dense inverse.
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

TEST(ForestDeltaTest, ZEstimatesDiagonal) {
  const Graph g = KarateClub();
  const std::vector<NodeId> s = {33};
  ThreadPool pool(2);
  const DeltaEstimate est = ForestDelta(g, s, TestOptions(8192, 16), pool);
  const DenseMatrix inv = ExactLaplacianSubmatrixInverse(g, s);
  const SubmatrixIndex idx = MakeSubmatrixIndex(g.num_nodes(), s);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    if (u == 33) continue;
    const double exact = inv(idx.pos[u], idx.pos[u]);
    EXPECT_NEAR(est.z[u], exact, 0.05 + 0.06 * exact) << "u=" << u;
  }
}

TEST(ForestDeltaTest, DeltaWithinJlDistortionOfExact) {
  const Graph g = KarateClub();
  const std::vector<NodeId> s = {33, 0};
  ThreadPool pool(2);
  // Large w and many forests: the remaining error is JL distortion plus
  // sampling noise; 20% tolerance is comfortably above both.
  const DeltaEstimate est = ForestDelta(g, s, TestOptions(8192, 64), pool);
  const std::vector<double> exact = ExactDelta(g, s);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    if (u == 33 || u == 0) continue;
    EXPECT_NEAR(est.delta[u], exact[u], 0.2 * exact[u] + 0.05) << "u=" << u;
  }
}

TEST(ForestDeltaTest, ArgmaxMatchesExactArgmax) {
  // Selecting the best node is what the greedy loop needs. Cont. USA has
  // diameter ~11 (the hard regime), so use a wide sketch: JL distortion
  // scales like 1/sqrt(w).
  const Graph g = ContiguousUsa();
  const std::vector<NodeId> s = {20};
  ThreadPool pool(2);
  const DeltaEstimate est = ForestDelta(g, s, TestOptions(8192, 160), pool);
  const std::vector<double> exact = ExactDelta(g, s);

  NodeId est_best = -1, exact_best = -1;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    if (u == 20) continue;
    if (est_best < 0 || est.delta[u] > est.delta[est_best]) est_best = u;
    if (exact_best < 0 || exact[u] > exact[exact_best]) exact_best = u;
  }
  // The estimated argmax must be within 10% of the true best gain (ties
  // between near-equal nodes are acceptable selections; Cont. USA has
  // diameter ~11, the hard regime for flow estimators).
  EXPECT_GE(exact[est_best], 0.90 * exact[exact_best]);
}

TEST(ForestDeltaTest, RootsGetZero) {
  const Graph g = KarateClub();
  const std::vector<NodeId> s = {5, 10};
  ThreadPool pool(1);
  const DeltaEstimate est = ForestDelta(g, s, TestOptions(64, 8), pool);
  for (NodeId r : s) {
    EXPECT_EQ(est.delta[r], 0.0);
    EXPECT_EQ(est.z[r], 0.0);
  }
}

TEST(ForestDeltaTest, DeterministicAcrossThreadCounts) {
  // Same forests regardless of worker count; summation order may differ,
  // so compare to rounding error.
  const Graph g = ContiguousUsa();
  const std::vector<NodeId> s = {0};
  ThreadPool pool1(1), pool3(3);
  const DeltaEstimate a = ForestDelta(g, s, TestOptions(128, 8), pool1);
  const DeltaEstimate b = ForestDelta(g, s, TestOptions(128, 8), pool3);
  for (std::size_t u = 0; u < a.delta.size(); ++u) {
    EXPECT_NEAR(a.delta[u], b.delta[u], 1e-9 * (1.0 + a.delta[u]));
    EXPECT_NEAR(a.z[u], b.z[u], 1e-9 * (1.0 + a.z[u]));
  }
}

TEST(ForestDeltaTest, ReportsConfiguration) {
  const Graph g = KarateClub();
  ThreadPool pool(2);
  const DeltaEstimate est = ForestDelta(g, {0}, TestOptions(64, 12), pool);
  EXPECT_EQ(est.jl_rows, 12);
  EXPECT_EQ(est.forests, 64);
  EXPECT_FALSE(est.converged);  // fixed schedule: never set
}

}  // namespace
}  // namespace cfcm
