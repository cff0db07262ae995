#include "cfcm/heuristics.h"

#include <algorithm>
#include <numeric>

#include <gtest/gtest.h>

#include "graph/datasets.h"
#include "graph/generators.h"
#include "linalg/laplacian.h"

namespace cfcm {
namespace {

TEST(DegreeSelectTest, PicksHighestDegrees) {
  const Graph g = KarateClub();
  const auto sel = DegreeSelect(g, 3);
  ASSERT_EQ(sel.size(), 3u);
  EXPECT_EQ(sel[0], 33);  // degree 17
  EXPECT_EQ(sel[1], 0);   // degree 16
  EXPECT_EQ(sel[2], 32);  // degree 12
}

TEST(DegreeSelectTest, TieBreaksBySmallerId) {
  const Graph g = CycleGraph(10);  // all degree 2
  const auto sel = DegreeSelect(g, 4);
  EXPECT_EQ(sel, (std::vector<NodeId>{0, 1, 2, 3}));
}

TEST(TopCfccExactTest, PicksSmallestPinvDiagonals) {
  const Graph g = ContiguousUsa();
  const auto sel = TopCfccSelectExact(g, 5);
  const DenseMatrix pinv = LaplacianPseudoinverse(g);
  // Verify the selection is exactly the 5 smallest diagonals.
  std::vector<NodeId> order(static_cast<std::size_t>(g.num_nodes()));
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](NodeId a, NodeId b) {
    if (pinv(a, a) != pinv(b, b)) return pinv(a, a) < pinv(b, b);
    return a < b;
  });
  for (int i = 0; i < 5; ++i) EXPECT_EQ(sel[i], order[i]);
}

TEST(TopCfccEstimatedTest, AgreesWithExactOnTopPicks) {
  const Graph g = KarateClub();
  CfcmOptions opts;
  opts.seed = 13;
  opts.max_forests = 4096;
  const auto est = TopCfccSelectEstimated(g, 3, opts);
  const auto exact = TopCfccSelectExact(g, 3);
  // The top-3 sets should coincide (order may differ on near-ties).
  std::vector<NodeId> a = est, b = exact;
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  EXPECT_EQ(a, b);
}

TEST(HeuristicsTest, SelectionsHaveRequestedSizeAndDistinct) {
  const Graph g = DolphinsSynthetic();
  for (int k : {1, 5, 20}) {
    for (const auto& sel :
         {DegreeSelect(g, k), TopCfccSelectExact(g, k)}) {
      EXPECT_EQ(static_cast<int>(sel.size()), k);
      std::vector<NodeId> sorted = sel;
      std::sort(sorted.begin(), sorted.end());
      EXPECT_EQ(std::unique(sorted.begin(), sorted.end()), sorted.end());
    }
  }
}

}  // namespace
}  // namespace cfcm
