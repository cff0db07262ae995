#include "linalg/cg.h"

#include <bit>
#include <cstdint>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "graph/datasets.h"
#include "graph/generators.h"
#include "linalg/laplacian.h"

namespace cfcm {
namespace {

std::vector<char> Mask(NodeId n, const std::vector<NodeId>& removed) {
  std::vector<char> mask(static_cast<std::size_t>(n), 0);
  for (NodeId s : removed) mask[s] = 1;
  return mask;
}

TEST(CgTest, GroundedSolveMatchesDenseInverse) {
  const Graph g = KarateClub();
  const std::vector<NodeId> removed = {33};
  const LaplacianSubmatrixOp op(g, Mask(g.num_nodes(), removed));
  const DenseMatrix inv = ExactLaplacianSubmatrixInverse(g, removed);
  const SubmatrixIndex idx = MakeSubmatrixIndex(g.num_nodes(), removed);

  Vector b(static_cast<std::size_t>(g.num_nodes()), 0.0);
  b[0] = 1.0;  // e_0
  Vector x(b.size(), 0.0);
  const CgSummary summary = SolveGroundedLaplacian(op, b, &x);
  EXPECT_TRUE(summary.converged);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    if (u == 33) {
      EXPECT_EQ(x[u], 0.0);
    } else {
      EXPECT_NEAR(x[u], inv(idx.pos[u], idx.pos[0]), 1e-6);
    }
  }
}

TEST(CgTest, GroundedSolveMultipleRemoved) {
  const Graph g = BarabasiAlbert(80, 2, 3);
  const std::vector<NodeId> removed = {0, 17, 42};
  const LaplacianSubmatrixOp op(g, Mask(g.num_nodes(), removed));
  const DenseMatrix inv = ExactLaplacianSubmatrixInverse(g, removed);
  const SubmatrixIndex idx = MakeSubmatrixIndex(g.num_nodes(), removed);

  Rng rng(5);
  Vector b(static_cast<std::size_t>(g.num_nodes()));
  for (auto& v : b) v = rng.NextDouble() - 0.5;
  Vector x(b.size(), 0.0);
  EXPECT_TRUE(SolveGroundedLaplacian(op, b, &x).converged);

  // Reference dense solve.
  Vector bs(idx.kept.size());
  for (std::size_t i = 0; i < idx.kept.size(); ++i) bs[i] = b[idx.kept[i]];
  const Vector xs = inv.MultiplyVec(bs);
  for (std::size_t i = 0; i < idx.kept.size(); ++i) {
    EXPECT_NEAR(x[idx.kept[i]], xs[i], 1e-5);
  }
}

TEST(CgTest, PseudoinverseSolveMatchesDense) {
  const Graph g = ContiguousUsa();
  const DenseMatrix pinv = LaplacianPseudoinverse(g);
  Vector b(static_cast<std::size_t>(g.num_nodes()), 0.0);
  b[5] = 1.0;
  b[20] = -1.0;  // already orthogonal to ones
  Vector x(b.size(), 0.0);
  const CgSummary summary = SolveLaplacianPseudoinverse(g, b, &x);
  EXPECT_TRUE(summary.converged);
  const Vector expected = pinv.MultiplyVec(b);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    EXPECT_NEAR(x[u], expected[u], 1e-6);
  }
}

TEST(CgTest, PseudoinverseProjectsNonOrthogonalRhs) {
  const Graph g = CycleGraph(12);
  Vector b(12, 0.0);
  b[0] = 3.0;  // mean != 0; solver must project
  Vector x(12, 0.0);
  EXPECT_TRUE(SolveLaplacianPseudoinverse(g, b, &x).converged);
  double mean = 0;
  for (double v : x) mean += v;
  EXPECT_NEAR(mean / 12.0, 0.0, 1e-8);
}

TEST(CgTest, ZeroRhsGivesZeroSolution) {
  const Graph g = PathGraph(10);
  const LaplacianSubmatrixOp op(g, Mask(10, {0}));
  Vector b(10, 0.0), x(10, 0.0);
  const CgSummary summary = SolveGroundedLaplacian(op, b, &x);
  EXPECT_TRUE(summary.converged);
  for (double v : x) EXPECT_EQ(v, 0.0);
}

TEST(CgTest, IterationCapReportsNonConverged) {
  const Graph g = PathGraph(400);  // ill-conditioned chain
  const LaplacianSubmatrixOp op(g, Mask(400, {0}));
  Vector b(400, 1.0), x(400, 0.0);
  CgOptions opts;
  opts.max_iterations = 3;
  const CgSummary summary = SolveGroundedLaplacian(op, b, &x, opts);
  EXPECT_FALSE(summary.converged);
  EXPECT_GT(summary.relative_residual, opts.tolerance);
}

TEST(CgTest, WarmStartNearSolutionConvergesFast) {
  const Graph g = KarateClub();
  const LaplacianSubmatrixOp op(g, Mask(g.num_nodes(), {0}));
  Vector b(static_cast<std::size_t>(g.num_nodes()), 0.0);
  b[7] = 1.0;
  Vector x(b.size(), 0.0);
  SolveGroundedLaplacian(op, b, &x);
  Vector x2 = x;  // warm start from the solution
  const CgSummary again = SolveGroundedLaplacian(op, b, &x2);
  EXPECT_TRUE(again.converged);
  EXPECT_LE(again.iterations, 2);
}

void ExpectSameBits(const Vector& a, const Vector& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(std::bit_cast<uint64_t>(a[i]), std::bit_cast<uint64_t>(b[i]))
        << "entry " << i;
  }
}

// The lane-blocked kernel must reproduce per-column solves bit for bit:
// random columns, an all-zero column (the b = 0 early exit), unit
// columns, and a warm-started column that converges at once. The cold
// columns need 24-27 iterations, so lanes retire at different iterations
// and refill mid-block; the 25-iteration cap stops some of them early.
TEST(CgTest, BlockSolveEqualsPerColumnSolvesBitwise) {
  const Graph unit = BarabasiAlbert(300, 3, 4);
  const Graph weighted = AssignUniformWeights(unit, 0.5, 2.0, 3);
  CgOptions capped;
  capped.max_iterations = 25;
  for (const Graph* g : {&unit, &weighted}) {
    const std::size_t n = static_cast<std::size_t>(g->num_nodes());
    const LaplacianSubmatrixOp op(*g, Mask(g->num_nodes(), {0, 17}));
    const int count = 2 * kCgLanes + 3;
    std::vector<Vector> b(count, Vector(n, 0.0)), x0(count, Vector(n, 0.0));
    Rng rng(11);
    for (int j = 0; j < count; ++j) {
      if (j == 2) continue;  // all-zero column
      if (j % 4 == 1) {
        b[j][static_cast<std::size_t>(j) * 7 % n] = 1.0;
        continue;
      }
      for (double& v : b[j]) v = rng.NextDouble() - 0.5;
    }
    // Column 5 starts from column 4's solution: converges at once.
    b[5] = b[4];
    SolveGroundedLaplacian(op, b[4], &x0[5]);

    for (const CgOptions& options : {CgOptions{}, capped}) {
      std::vector<Vector> block_x(count);
      std::vector<CgSummary> block_summary(count);
      std::vector<int> stores(count, 0);
      SolveGroundedBlock(
          op, count,
          [&](int j, Vector* bj, Vector* xj) {
            *bj = b[j];
            *xj = x0[j];
          },
          [&](int j, const Vector& xj, const CgSummary& summary) {
            block_x[j] = xj;
            block_summary[j] = summary;
            ++stores[j];
          },
          options);
      bool capped_some = false;
      for (int j = 0; j < count; ++j) {
        SCOPED_TRACE(testing::Message() << "column " << j << " cap "
                                        << options.max_iterations);
        Vector x = x0[j];
        const CgSummary summary = SolveGroundedLaplacian(op, b[j], &x, options);
        EXPECT_EQ(stores[j], 1);
        ExpectSameBits(block_x[j], x);
        EXPECT_EQ(block_summary[j].iterations, summary.iterations);
        EXPECT_EQ(std::bit_cast<uint64_t>(block_summary[j].relative_residual),
                  std::bit_cast<uint64_t>(summary.relative_residual));
        EXPECT_EQ(block_summary[j].converged, summary.converged);
        capped_some |= !summary.converged;
      }
      EXPECT_EQ(capped_some, options.max_iterations == capped.max_iterations);
      EXPECT_EQ(block_summary[2].iterations, 0);
      EXPECT_TRUE(block_summary[2].converged);
      ExpectSameBits(block_x[2], Vector(n, 0.0));
    }
  }
}

}  // namespace
}  // namespace cfcm
