#include "forest/wilson.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>

#include <gtest/gtest.h>

#include "graph/builder.h"
#include "graph/datasets.h"
#include "graph/delta.h"
#include "graph/generators.h"
#include "linalg/laplacian.h"
#include "linalg/schur_exact.h"
#include "test_util.h"

namespace cfcm {
namespace {

std::vector<char> Mask(NodeId n, const std::vector<NodeId>& roots) {
  std::vector<char> mask(static_cast<std::size_t>(n), 0);
  for (NodeId r : roots) mask[r] = 1;
  return mask;
}

// Structural validity shared by all sampling tests.
void CheckForestValid(const Graph& g, const RootedForest& forest,
                      const std::vector<char>& is_root) {
  const NodeId n = g.num_nodes();
  // Roots have no parent; non-roots have a neighboring parent.
  std::size_t non_roots = 0;
  for (NodeId u = 0; u < n; ++u) {
    if (is_root[u]) {
      EXPECT_EQ(forest.parent[u], -1);
      EXPECT_EQ(forest.root_of[u], u);
    } else {
      ++non_roots;
      ASSERT_GE(forest.parent[u], 0);
      EXPECT_TRUE(g.HasEdge(u, forest.parent[u]));
    }
  }
  // leaves_first covers each non-root exactly once, children before
  // parents.
  EXPECT_EQ(forest.leaves_first.size(), non_roots);
  std::vector<int> position(static_cast<std::size_t>(n), -1);
  for (std::size_t i = 0; i < forest.leaves_first.size(); ++i) {
    const NodeId u = forest.leaves_first[i];
    EXPECT_EQ(position[u], -1) << "node appears twice";
    position[u] = static_cast<int>(i);
  }
  for (NodeId u : forest.leaves_first) {
    const NodeId p = forest.parent[u];
    if (!is_root[p]) {
      EXPECT_LT(position[u], position[p]) << "child must precede parent";
    }
  }
  // Every node's parent chain terminates at its recorded root.
  for (NodeId u = 0; u < n; ++u) {
    NodeId i = u;
    int steps = 0;
    while (!is_root[i]) {
      i = forest.parent[i];
      ASSERT_LE(++steps, n) << "cycle in forest";
    }
    EXPECT_EQ(forest.root_of[u], i);
  }
}

TEST(WilsonTest, ForestIsValidOnVariousGraphs) {
  Rng rng(1);
  for (const Graph& g : {KarateClub(), PathGraph(20), CycleGraph(15),
                         BarabasiAlbert(100, 2, 4), GridGraph(6, 6)}) {
    ForestSampler sampler(g);
    const auto roots = Mask(g.num_nodes(), {0});
    for (int i = 0; i < 10; ++i) {
      CheckForestValid(g, sampler.Sample(roots, &rng), roots);
    }
  }
}

TEST(WilsonTest, MultiRootForestIsValid) {
  const Graph g = KarateClub();
  ForestSampler sampler(g);
  Rng rng(2);
  const auto roots = Mask(g.num_nodes(), {0, 33, 16});
  for (int i = 0; i < 20; ++i) {
    CheckForestValid(g, sampler.Sample(roots, &rng), roots);
  }
}

TEST(WilsonTest, DeterministicGivenRngState) {
  const Graph g = KarateClub();
  ForestSampler s1(g), s2(g);
  Rng r1(99), r2(99);
  const auto roots = Mask(g.num_nodes(), {5});
  const RootedForest& f1 = s1.Sample(roots, &r1);
  const RootedForest& f2 = s2.Sample(roots, &r2);
  EXPECT_EQ(f1.parent, f2.parent);
  EXPECT_EQ(f1.leaves_first, f2.leaves_first);
}

// Bitwise pin of the sampler (DESIGN.md §3): 64 forests drawn from the
// per-forest streams Rng(seed, f) the estimators use, hashed over every
// output array and the walk length. A rewrite of the walk loop or of the
// RNG must leave this digest unchanged.
uint64_t SampleDigest(const Graph& g) {
  ForestSampler sampler(g);
  const auto roots = Mask(g.num_nodes(), {g.MaxDegreeNode(), 1, 2});
  testing::Fnv1a h;
  for (uint64_t f = 0; f < 64; ++f) {
    Rng rng(31, f);
    const RootedForest& forest = sampler.Sample(roots, &rng);
    const std::int64_t steps = sampler.last_walk_steps();
    h.Add(forest.parent);
    h.Add(forest.leaves_first);
    h.Add(forest.root_of);
    h.Add(&steps, sizeof(steps));
  }
  return h.value();
}

TEST(WilsonTest, SampleDigestUnitWeights) {
  const Graph g = BarabasiAlbert(1000, 4, 5);
  const uint64_t digest = SampleDigest(g);
  EXPECT_EQ(digest, 0xe98d4e2ee8e03763ULL) << std::hex << digest;
}

TEST(WilsonTest, SampleDigestWeighted) {
  const Graph g = AssignUniformWeights(BarabasiAlbert(1000, 4, 5), 0.5, 2.0, 7);
  const uint64_t digest = SampleDigest(g);
  EXPECT_EQ(digest, 0x067b4328cc5d4151ULL) << std::hex << digest;
}

// A unit graph with ten edges reweighted: the weighted walk runs, but
// almost every row still holds only 1.0 conductances, so the draw meets
// both unit rows and genuinely weighted ones.
TEST(WilsonTest, SampleDigestMostlyUnitWeights) {
  const Graph base = BarabasiAlbert(1000, 4, 5);
  const std::vector<std::pair<NodeId, NodeId>> edges = base.Edges();
  GraphDelta delta;
  for (int i = 0; i < 10; ++i) {
    const auto [u, v] = edges[static_cast<std::size_t>(i) * 397];
    delta.ReweightEdge(u, v, 0.5 + 0.375 * i);
  }
  StatusOr<Graph> g = base.Apply(delta);
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  ASSERT_FALSE(g->is_unit_weighted());
  const uint64_t digest = SampleDigest(*g);
  EXPECT_EQ(digest, 0x4b59421cc3a45598ULL) << std::hex << digest;
}

TEST(WilsonTest, TreeGraphHasUniqueForest) {
  // On a tree rooted anywhere, the spanning forest is the tree itself.
  const Graph g = PathGraph(8);
  ForestSampler sampler(g);
  Rng rng(3);
  const auto roots = Mask(8, {0});
  const RootedForest& f = sampler.Sample(roots, &rng);
  for (NodeId u = 1; u < 8; ++u) EXPECT_EQ(f.parent[u], u - 1);
}

TEST(WilsonTest, TriangleSpanningTreesAreUniform) {
  // K3 rooted at {2} has 3 spanning trees; each must appear w.p. 1/3.
  const Graph g = CompleteGraph(3);
  ForestSampler sampler(g);
  Rng rng(7);
  const auto roots = Mask(3, {2});
  std::map<std::pair<NodeId, NodeId>, int> hist;  // (pi_0, pi_1)
  constexpr int kSamples = 30000;
  for (int i = 0; i < kSamples; ++i) {
    const RootedForest& f = sampler.Sample(roots, &rng);
    ++hist[{f.parent[0], f.parent[1]}];
  }
  ASSERT_EQ(hist.size(), 3u);
  for (const auto& [key, count] : hist) {
    EXPECT_NEAR(count, kSamples / 3.0, 5 * std::sqrt(kSamples / 3.0));
  }
}

TEST(WilsonTest, RootAbsorptionMatchesExactProbabilities) {
  // Empirical Pr(rho_u = t) must converge to F = -L_UU^{-1} L_UT
  // (Lemma 4.2).
  const Graph g = KarateClub();
  const std::vector<NodeId> s_nodes = {0};
  const std::vector<NodeId> t_nodes = {33};
  const DenseMatrix f_exact = ExactRootedProbabilities(g, s_nodes, t_nodes);

  ForestSampler sampler(g);
  Rng rng(11);
  const auto roots = Mask(g.num_nodes(), {0, 33});
  std::vector<int> hits(static_cast<std::size_t>(g.num_nodes()), 0);
  constexpr int kSamples = 20000;
  for (int i = 0; i < kSamples; ++i) {
    const RootedForest& f = sampler.Sample(roots, &rng);
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      if (f.root_of[u] == 33) ++hits[u];
    }
  }
  // Compare for a few nodes across the spectrum (F rows are ordered by
  // ascending U = V \ {0, 33}).
  const SubmatrixIndex idx =
      MakeSubmatrixIndex(g.num_nodes(), {0, 33});
  for (NodeId u : {1, 8, 13, 26, 32}) {
    const double expected = f_exact(idx.pos[u], 0);
    const double observed = static_cast<double>(hits[u]) / kSamples;
    EXPECT_NEAR(observed, expected, 0.015) << "u=" << u;
  }
}

TEST(WilsonTest, WalkStepsReportedAndBoundedOnAverage) {
  const Graph g = BarabasiAlbert(200, 3, 13);
  ForestSampler sampler(g);
  Rng rng(17);
  const auto roots = Mask(g.num_nodes(), {g.MaxDegreeNode()});
  std::int64_t total = 0;
  for (int i = 0; i < 50; ++i) {
    sampler.Sample(roots, &rng);
    EXPECT_GT(sampler.last_walk_steps(), 0);
    total += sampler.last_walk_steps();
  }
  // Lemma 3.7: expected steps are O~(n) on scale-free graphs.
  EXPECT_LT(total / 50, 200 * 100);
}

TEST(WilsonTest, MoreRootsMeansFewerSteps) {
  // Grounding hubs (SchurCFCM's trick) must reduce sampling cost.
  const Graph g = BarabasiAlbert(500, 2, 29);
  ForestSampler sampler(g);
  auto run = [&](const std::vector<NodeId>& roots) {
    Rng rng(23);
    std::int64_t total = 0;
    for (int i = 0; i < 30; ++i) {
      sampler.Sample(Mask(g.num_nodes(), roots), &rng);
      total += sampler.last_walk_steps();
    }
    return total;
  };
  std::vector<NodeId> one_root = {0};
  std::vector<NodeId> many_roots = {0};
  // Add the 10 highest-degree nodes.
  std::vector<NodeId> by_degree(static_cast<std::size_t>(g.num_nodes()));
  for (NodeId u = 0; u < g.num_nodes(); ++u) by_degree[u] = u;
  std::partial_sort(by_degree.begin(), by_degree.begin() + 10, by_degree.end(),
                    [&](NodeId a, NodeId b) {
                      return g.degree(a) > g.degree(b);
                    });
  for (int i = 0; i < 10; ++i) {
    if (by_degree[i] != 0) many_roots.push_back(by_degree[i]);
  }
  EXPECT_LT(run(many_roots), run(one_root));
}

}  // namespace
}  // namespace cfcm
