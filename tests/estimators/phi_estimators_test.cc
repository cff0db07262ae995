#include "estimators/phi_estimators.h"

#include <cmath>
#include <cstring>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "forest/subtree.h"
#include "graph/builder.h"
#include "graph/datasets.h"
#include "graph/generators.h"
#include "linalg/laplacian.h"

namespace cfcm {
namespace {

// Empirical mean of the per-forest estimators over many sampled forests,
// compared against the exact L_{-S}^{-1}. These are the unbiasedness
// tests for the identities in DESIGN.md §3 (Lemmas 3.2/3.3).
class PhiEstimatorsTest : public ::testing::Test {
 protected:
  struct Averages {
    std::vector<double> diag;       // mean X_f(u)
    std::vector<double> ones;       // mean O_f(u)
    std::vector<double> jl;         // mean Y_f(u) for each (u, j)
    int w = 0;
  };

  Averages Run(const Graph& g, const std::vector<NodeId>& s_nodes,
               int samples, int w, uint64_t seed) {
    const TreeScaffold scaffold = MakeTreeScaffold(g, s_nodes);
    const JlSketch sketch(w, g.num_nodes(), seed ^ 0xabcdULL);
    ForestSampler sampler(g);
    const std::size_t n = static_cast<std::size_t>(g.num_nodes());

    Averages avg;
    avg.w = w;
    avg.diag.assign(n, 0.0);
    avg.ones.assign(n, 0.0);
    avg.jl.assign(n * w, 0.0);

    std::vector<double> xbuf(n);
    std::vector<double> obuf(n);
    std::vector<int32_t> sizes;
    std::vector<double> sub(n * w), ybuf(n * w);
    std::vector<NodeId> yrow(n);
    Rng rng(seed);
    for (int i = 0; i < samples; ++i) {
      const RootedForest& f = sampler.Sample(scaffold.is_root, &rng);
      DiagPrefixPass(scaffold, f, &xbuf);
      SubtreeSizes(f, &sizes);
      OnesPrefixPass(scaffold, f, sizes, &obuf);
      SubtreeJlSums(f, scaffold.is_root, sketch, sub.data());
      JlPrefixPass(scaffold, f, sub.data(), w, ybuf.data(), yrow.data());
      for (std::size_t u = 0; u < n; ++u) {
        avg.diag[u] += xbuf[u];
        avg.ones[u] += obuf[u];
        const double* yu = ybuf.data() + static_cast<std::size_t>(yrow[u]) * w;
        for (int j = 0; j < w; ++j) avg.jl[u * w + j] += yu[j];
      }
    }
    for (std::size_t u = 0; u < n; ++u) {
      avg.diag[u] /= samples;
      avg.ones[u] /= samples;
      for (int j = 0; j < w; ++j) avg.jl[u * w + j] /= samples;
    }
    // Keep the sketch for the comparison step.
    sketch_entries_.assign(n * w, 0.0);
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      if (scaffold.is_root[v]) continue;
      for (int j = 0; j < w; ++j) {
        sketch_entries_[static_cast<std::size_t>(v) * w + j] =
            sketch.Entry(j, v);
      }
    }
    return avg;
  }

  std::vector<double> sketch_entries_;  // W with zeros at roots
};

TEST_F(PhiEstimatorsTest, DiagUnbiasedOnKarateSingleRoot) {
  const Graph g = KarateClub();
  const std::vector<NodeId> s = {33};
  const Averages avg = Run(g, s, 20000, 4, 1);
  const DenseMatrix inv = ExactLaplacianSubmatrixInverse(g, s);
  const SubmatrixIndex idx = MakeSubmatrixIndex(g.num_nodes(), s);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    if (u == 33) {
      EXPECT_EQ(avg.diag[u], 0.0);
      continue;
    }
    const double exact = inv(idx.pos[u], idx.pos[u]);
    EXPECT_NEAR(avg.diag[u], exact, 0.05 + 0.05 * exact) << "u=" << u;
  }
}

TEST_F(PhiEstimatorsTest, DiagUnbiasedOnGridMultiRoot) {
  const Graph g = GridGraph(5, 5);
  const std::vector<NodeId> s = {0, 24};
  const Averages avg = Run(g, s, 20000, 4, 2);
  const DenseMatrix inv = ExactLaplacianSubmatrixInverse(g, s);
  const SubmatrixIndex idx = MakeSubmatrixIndex(g.num_nodes(), s);
  for (NodeId u : {1, 6, 12, 18, 23}) {
    const double exact = inv(idx.pos[u], idx.pos[u]);
    EXPECT_NEAR(avg.diag[u], exact, 0.06 + 0.05 * exact) << "u=" << u;
  }
}

TEST_F(PhiEstimatorsTest, OnesUnbiased) {
  // E[O_f(u)] = 1^T L_{-S}^{-1} e_u.
  const Graph g = KarateClub();
  const std::vector<NodeId> s = {0};
  const Averages avg = Run(g, s, 20000, 4, 3);
  const DenseMatrix inv = ExactLaplacianSubmatrixInverse(g, s);
  const SubmatrixIndex idx = MakeSubmatrixIndex(g.num_nodes(), s);
  for (NodeId u : {1, 5, 16, 33}) {
    double exact = 0;
    for (int i = 0; i < inv.rows(); ++i) exact += inv(i, idx.pos[u]);
    EXPECT_NEAR(avg.ones[u], exact, 0.05 * exact + 0.3) << "u=" << u;
  }
}

TEST_F(PhiEstimatorsTest, JlUnbiased) {
  // E[Y_{j,f}(u)] = (W L_{-S}^{-1})_{ju}.
  const Graph g = ContiguousUsa();
  const std::vector<NodeId> s = {12};
  const int w = 6;
  const Averages avg = Run(g, s, 30000, w, 4);
  const DenseMatrix inv = ExactLaplacianSubmatrixInverse(g, s);
  const SubmatrixIndex idx = MakeSubmatrixIndex(g.num_nodes(), s);
  const NodeId n = g.num_nodes();
  for (NodeId u : {0, 7, 30, 48}) {
    if (u == 12) continue;
    for (int j = 0; j < w; ++j) {
      double exact = 0;
      for (NodeId v = 0; v < n; ++v) {
        if (v == 12) continue;
        exact += sketch_entries_[static_cast<std::size_t>(v) * w + j] *
                 inv(idx.pos[v], idx.pos[u]);
      }
      EXPECT_NEAR(avg.jl[static_cast<std::size_t>(u) * w + j], exact,
                  0.25 + 0.1 * std::fabs(exact))
          << "u=" << u << " j=" << j;
    }
  }
}

TEST_F(PhiEstimatorsTest, RootsAlwaysZero) {
  const Graph g = BarabasiAlbert(50, 2, 5);
  const std::vector<NodeId> s = {0, 10, 20};
  const Averages avg = Run(g, s, 100, 4, 5);
  for (NodeId r : s) {
    EXPECT_EQ(avg.diag[r], 0.0);
    EXPECT_EQ(avg.ones[r], 0.0);
    for (int j = 0; j < avg.w; ++j) {
      EXPECT_EQ(avg.jl[static_cast<std::size_t>(r) * avg.w + j], 0.0);
    }
  }
}

TEST(JlPrefixPassTest, SharedRowsMatchPerNodeRecursionBitwise) {
  // Reference: the per-node recursion Y(u) = Y(p) + [u->p] S(u)/w_up -
  // [p->u] S(p)/w_up, every row materialized. The pass must give the
  // same bits, own a row exactly where the BFS edge is a forest edge,
  // and share its parent's row everywhere else.
  const Graph g = BarabasiAlbert(300, 3, 8);
  const int w = 5;
  const TreeScaffold scaffold = MakeTreeScaffold(g, {0, 7});
  const JlSketch sketch(w, g.num_nodes(), 12);
  ForestSampler sampler(g);
  Rng rng(13);
  const std::size_t n = static_cast<std::size_t>(g.num_nodes());
  std::vector<double> sub(n * w), ybuf(n * w), want(n * w);
  std::vector<NodeId> rows(n);
  for (int i = 0; i < 20; ++i) {
    const RootedForest& f = sampler.Sample(scaffold.is_root, &rng);
    SubtreeJlSums(f, scaffold.is_root, sketch, sub.data());
    JlPrefixPass(scaffold, f, sub.data(), w, ybuf.data(), rows.data());
    for (NodeId u : scaffold.bfs.order) {
      double* yu = want.data() + static_cast<std::size_t>(u) * w;
      if (scaffold.is_root[u]) {
        for (int j = 0; j < w; ++j) yu[j] = 0.0;
        EXPECT_EQ(rows[u], u);
        continue;
      }
      const NodeId p = scaffold.bfs.parent[u];
      const double* yp = want.data() + static_cast<std::size_t>(p) * w;
      const double iw = scaffold.up_inv_weight[u];
      const bool traversed = f.parent[u] == p || f.parent[p] == u;
      EXPECT_EQ(rows[u] == u, traversed) << "u=" << u;
      for (int j = 0; j < w; ++j) {
        yu[j] = yp[j];
        if (f.parent[u] == p) yu[j] = yp[j] + sub[u * w + j] * iw;
        if (f.parent[p] == u) yu[j] = yp[j] - sub[p * w + j] * iw;
      }
      const double* got = ybuf.data() + static_cast<std::size_t>(rows[u]) * w;
      EXPECT_EQ(std::memcmp(got, yu, sizeof(double) * w), 0) << "u=" << u;
    }
  }
}

TEST(FusedPrefixPassTest, MatchSinglePassesBitwise) {
  // DiagJlPrefixPass and DiagOnesPrefixPass must write exactly the bits
  // of the single passes run in turn: X, O, the row map and every Y row
  // a node reads. Weighted conductances exercise the signed 1/w
  // coefficient; a duplicated root exercises the deduplicated root
  // prefix of the BFS order.
  const Graph unit = BarabasiAlbert(300, 3, 8);
  for (const Graph& g : {unit, AssignUniformWeights(unit, 0.5, 2.0, 7)}) {
    const int w = 7;
    const TreeScaffold scaffold = MakeTreeScaffold(g, {0, 7, 0});
    const JlSketch sketch(w, g.num_nodes(), 12);
    ForestSampler sampler(g);
    Rng rng(13);
    const std::size_t n = static_cast<std::size_t>(g.num_nodes());
    std::vector<int32_t> sizes;
    std::vector<double> sub(n * w), x1(n), x2(n), x3(n), o1(n), o2(n);
    std::vector<double> y1(n * w), y2(n * w);
    std::vector<NodeId> rows1(n), rows2(n);
    for (int i = 0; i < 20; ++i) {
      const RootedForest& f = sampler.Sample(scaffold.is_root, &rng);
      SubtreeSizes(f, &sizes);
      SubtreeJlSums(f, scaffold.is_root, sketch, sub.data());
      DiagPrefixPass(scaffold, f, &x1);
      OnesPrefixPass(scaffold, f, sizes, &o1);
      JlPrefixPass(scaffold, f, sub.data(), w, y1.data(), rows1.data());
      DiagJlPrefixPass(scaffold, f, sub.data(), w, &x2, y2.data(),
                       rows2.data());
      DiagOnesPrefixPass(scaffold, f, sizes, &x3, &o2);
      EXPECT_EQ(std::memcmp(x1.data(), x2.data(), sizeof(double) * n), 0);
      EXPECT_EQ(std::memcmp(x1.data(), x3.data(), sizeof(double) * n), 0);
      EXPECT_EQ(std::memcmp(o1.data(), o2.data(), sizeof(double) * n), 0);
      EXPECT_EQ(rows1, rows2);
      for (std::size_t u = 0; u < n; ++u) {
        const std::size_t row = static_cast<std::size_t>(rows1[u]) * w;
        EXPECT_EQ(std::memcmp(y1.data() + row, y2.data() + row,
                              sizeof(double) * w),
                  0)
            << "u=" << u;
      }
    }
  }
}

TEST(PhiEdgeIdentityTest, EdgeOrientationIdentityHoldsExactly) {
  // Pr[pi_a = b] - Pr[pi_b = a] = (L^{-1})_aa - (L^{-1})_bb, validated on
  // the triangle by exhaustive enumeration of its 3 spanning trees
  // rooted at node 2: Pr[pi_0 = 2] = 2/3, Pr[pi_0 = 1] = 1/3, etc.
  const Graph g = CompleteGraph(3);
  ForestSampler sampler(g);
  Rng rng(42);
  std::vector<char> roots = {0, 0, 1};
  int n01 = 0, n10 = 0, n02 = 0;
  constexpr int kSamples = 60000;
  for (int i = 0; i < kSamples; ++i) {
    const RootedForest& f = sampler.Sample(roots, &rng);
    n01 += f.parent[0] == 1;
    n10 += f.parent[1] == 0;
    n02 += f.parent[0] == 2;
  }
  const DenseMatrix inv = ExactLaplacianSubmatrixInverse(g, {2});
  const double lhs_01 = static_cast<double>(n01 - n10) / kSamples;
  EXPECT_NEAR(lhs_01, inv(0, 0) - inv(1, 1), 0.02);  // = 0 by symmetry
  const double lhs_02 = static_cast<double>(n02) / kSamples;
  EXPECT_NEAR(lhs_02, inv(0, 0), 0.02);  // = 2/3
}


TEST_F(PhiEstimatorsTest, DiagUnbiasedOnWeightedKarate) {
  const Graph g = KarateClubWeighted();
  const std::vector<NodeId> s = {33};
  const Averages avg = Run(g, s, 30000, 4, 6);
  const DenseMatrix inv = ExactLaplacianSubmatrixInverse(g, s);
  const SubmatrixIndex idx = MakeSubmatrixIndex(g.num_nodes(), s);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    if (u == 33) {
      EXPECT_EQ(avg.diag[u], 0.0);
      continue;
    }
    const double exact = inv(idx.pos[u], idx.pos[u]);
    EXPECT_NEAR(avg.diag[u], exact, 0.08 + 0.08 * exact) << "u=" << u;
  }
}

TEST_F(PhiEstimatorsTest, OnesUnbiasedOnWeightedGraph) {
  const Graph g =
      AssignUniformWeights(GridGraph(5, 5), 0.5, 2.0, /*seed=*/17);
  const std::vector<NodeId> s = {0};
  const Averages avg = Run(g, s, 30000, 4, 7);
  const DenseMatrix inv = ExactLaplacianSubmatrixInverse(g, s);
  const SubmatrixIndex idx = MakeSubmatrixIndex(g.num_nodes(), s);
  for (NodeId u : {1, 6, 12, 24}) {
    double exact = 0;
    for (int i = 0; i < inv.rows(); ++i) exact += inv(i, idx.pos[u]);
    EXPECT_NEAR(avg.ones[u], exact, 0.08 * exact + 0.5) << "u=" << u;
  }
}

TEST_F(PhiEstimatorsTest, JlUnbiasedOnWeightedGraph) {
  const Graph g = KarateClubWeighted();
  const std::vector<NodeId> s = {0};
  const int w = 6;
  const Averages avg = Run(g, s, 30000, w, 8);
  const DenseMatrix inv = ExactLaplacianSubmatrixInverse(g, s);
  const SubmatrixIndex idx = MakeSubmatrixIndex(g.num_nodes(), s);
  const NodeId n = g.num_nodes();
  for (NodeId u : {5, 16, 33}) {
    for (int j = 0; j < w; ++j) {
      double exact = 0;
      for (NodeId v = 0; v < n; ++v) {
        if (v == 0) continue;
        exact += sketch_entries_[static_cast<std::size_t>(v) * w + j] *
                 inv(idx.pos[v], idx.pos[u]);
      }
      EXPECT_NEAR(avg.jl[static_cast<std::size_t>(u) * w + j], exact,
                  0.3 + 0.12 * std::fabs(exact))
          << "u=" << u << " j=" << j;
    }
  }
}

TEST(PhiEdgeIdentityTest, WeightedEdgeOrientationIdentity) {
  // Weighted form of the orientation identity: Pr[pi_a = b] - Pr[pi_b =
  // a] = w_ab ((L^{-1})_aa - (L^{-1})_bb), checked on a weighted
  // triangle rooted at node 2.
  const Graph g =
      BuildWeightedGraph(3, {{0, 1, 2.0}, {1, 2, 0.5}, {0, 2, 4.0}});
  ForestSampler sampler(g);
  Rng rng(99);
  std::vector<char> roots = {0, 0, 1};
  int n01 = 0, n10 = 0;
  constexpr int kSamples = 120000;
  for (int i = 0; i < kSamples; ++i) {
    const RootedForest& f = sampler.Sample(roots, &rng);
    n01 += f.parent[0] == 1;
    n10 += f.parent[1] == 0;
  }
  const DenseMatrix inv = ExactLaplacianSubmatrixInverse(g, {2});
  const double lhs = static_cast<double>(n01 - n10) / kSamples;
  EXPECT_NEAR(lhs, 2.0 * (inv(0, 0) - inv(1, 1)), 0.02);
}

}  // namespace
}  // namespace cfcm
