// Pool-size invariance of the lane-blocked CG (DESIGN.md §9, §14).
//
// SolveGroundedBlock and its pseudoinverse twin spread their systems
// over min(pool threads, ceil(count / kCgLanes)) executors that claim
// indices from one cursor. Every system must still come out bit for bit
// as its own single-vector solve, and every Hutchinson estimate built on
// top must not depend on the pool size. EXPECT_EQ on bit patterns below
// is deliberate: these are exact-equality checks, not tolerances.
#include <bit>
#include <cstdint>
#include <functional>
#include <vector>

#include <gtest/gtest.h>

#include "cfcm/cfcc.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "graph/datasets.h"
#include "graph/generators.h"
#include "linalg/cg.h"
#include "linalg/hutchinson.h"
#include "linalg/laplacian.h"

namespace cfcm {
namespace {

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

void ExpectSameBits(const Vector& a, const Vector& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(Bits(a[i]), Bits(b[i])) << "entry " << i;
  }
}

// Right-hand sides and initial guesses of `count` systems on n nodes:
// an all-zero column (the b = 0 early exit), unit columns, random ones,
// and every fifth column warm-started from a non-zero guess.
struct Systems {
  std::vector<Vector> b, x0;
};

Systems MakeSystems(std::size_t n, int count, uint64_t seed) {
  Systems s{std::vector<Vector>(count, Vector(n, 0.0)),
            std::vector<Vector>(count, Vector(n, 0.0))};
  Rng rng(seed);
  for (int j = 0; j < count; ++j) {
    if (j == 2) continue;
    if (j % 4 == 1) {
      s.b[j][static_cast<std::size_t>(j) * 7 % n] = 1.0;
    } else {
      for (double& v : s.b[j]) v = rng.NextDouble() - 0.5;
    }
    if (j % 5 == 3) {
      for (double& v : s.x0[j]) v = 0.25 * (rng.NextDouble() - 0.5);
    }
  }
  return s;
}

struct BlockOutput {
  std::vector<Vector> x;
  std::vector<CgSummary> summary;
  std::vector<int> stores;
};

// Runs one block call; `solve` is SolveGroundedBlock or its twin bound
// to its operator.
template <typename Solve>
BlockOutput RunBlock(const Systems& s, Solve&& solve) {
  const int count = static_cast<int>(s.b.size());
  BlockOutput out{std::vector<Vector>(count),
                  std::vector<CgSummary>(count), std::vector<int>(count, 0)};
  solve(
      count,
      [&](int j, Vector* b, Vector* x) {
        *b = s.b[j];
        *x = s.x0[j];
      },
      [&](int j, const Vector& x, const CgSummary& summary) {
        out.x[j] = x;
        out.summary[j] = summary;
        ++out.stores[j];
      });
  return out;
}

void ExpectEqualsSingleSolves(
    const Systems& s, const BlockOutput& out,
    const std::function<CgSummary(const Vector&, Vector*)>& single) {
  for (std::size_t j = 0; j < s.b.size(); ++j) {
    SCOPED_TRACE(testing::Message() << "system " << j);
    Vector x = s.x0[j];
    const CgSummary summary = single(s.b[j], &x);
    EXPECT_EQ(out.stores[j], 1);
    ExpectSameBits(out.x[j], x);
    EXPECT_EQ(out.summary[j].iterations, summary.iterations);
    EXPECT_EQ(Bits(out.summary[j].relative_residual),
              Bits(summary.relative_residual));
    EXPECT_EQ(out.summary[j].converged, summary.converged);
  }
}

std::vector<char> Mask(NodeId n, const std::vector<NodeId>& removed) {
  std::vector<char> mask(static_cast<std::size_t>(n), 0);
  for (NodeId s : removed) mask[s] = 1;
  return mask;
}

class ParallelCgTest : public ::testing::TestWithParam<std::size_t> {};

INSTANTIATE_TEST_SUITE_P(Threads, ParallelCgTest,
                         ::testing::Values(1u, 2u, 8u));

// Counts below, at and past one executor's lanes and past a full pool;
// the 9-iteration cap retires most lanes early and mid-block.
TEST_P(ParallelCgTest, GroundedBlockEqualsSingleSolvesBitwise) {
  ThreadPool pool(GetParam());
  const Graph unit = BarabasiAlbert(300, 3, 4);
  const Graph weighted = AssignUniformWeights(unit, 0.5, 2.0, 3);
  CgOptions capped;
  capped.max_iterations = 9;
  for (const Graph* g : {&unit, &weighted}) {
    const LaplacianSubmatrixOp op(*g, Mask(g->num_nodes(), {0, 17}));
    for (const int count : {1, 3, kCgLanes, 2 * kCgLanes + 3, 37}) {
      for (const CgOptions& options : {CgOptions{}, capped}) {
        SCOPED_TRACE(testing::Message() << "count " << count << " cap "
                                        << options.max_iterations);
        const Systems s = MakeSystems(
            static_cast<std::size_t>(g->num_nodes()), count, 11);
        const BlockOutput out =
            RunBlock(s, [&](int c, const CgLoadFn& load,
                            const CgStoreFn& store) {
              SolveGroundedBlock(op, c, load, store, pool, options);
            });
        ExpectEqualsSingleSolves(s, out, [&](const Vector& b, Vector* x) {
          return SolveGroundedLaplacian(op, b, x, options);
        });
      }
    }
  }
}

TEST_P(ParallelCgTest, PseudoinverseBlockEqualsSingleSolvesBitwise) {
  ThreadPool pool(GetParam());
  const Graph unit = BarabasiAlbert(200, 3, 6);
  const Graph weighted = AssignUniformWeights(unit, 0.5, 2.0, 5);
  CgOptions capped;
  capped.max_iterations = 7;
  for (const Graph* g : {&unit, &weighted}) {
    for (const int count : {1, 5, 2 * kCgLanes + 3}) {
      for (const CgOptions& options : {CgOptions{}, capped}) {
        SCOPED_TRACE(testing::Message() << "count " << count << " cap "
                                        << options.max_iterations);
        const Systems s = MakeSystems(
            static_cast<std::size_t>(g->num_nodes()), count, 13);
        const BlockOutput out =
            RunBlock(s, [&](int c, const CgLoadFn& load,
                            const CgStoreFn& store) {
              SolveLaplacianPseudoinverseBlock(*g, c, load, store, pool,
                                               options);
            });
        ExpectEqualsSingleSolves(s, out, [&](const Vector& b, Vector* x) {
          return SolveLaplacianPseudoinverse(*g, b, x, options);
        });
      }
    }
  }
}

TEST_P(ParallelCgTest, EmptyBlockCallsNothing) {
  ThreadPool pool(GetParam());
  const Graph g = KarateClub();
  const LaplacianSubmatrixOp op(g, Mask(g.num_nodes(), {0}));
  int calls = 0;
  SolveGroundedBlock(
      op, 0, [&](int, Vector*, Vector*) { ++calls; },
      [&](int, const Vector&, const CgSummary&) { ++calls; }, pool);
  EXPECT_EQ(calls, 0);
}

// Probe counts 1 and 3 (fewer than one executor's lanes), 5 (one past),
// 129 (many executors' worth, the last partly filled); the 3-iteration
// cap retires every lane on the cap.
TEST_P(ParallelCgTest, HutchinsonEqualsOneThreadBitwise) {
  ThreadPool serial(1), pool(GetParam());
  const Graph unit = BarabasiAlbert(600, 4, 1);
  const Graph weighted = AssignUniformWeights(unit, 0.5, 2.0, 7);
  const std::vector<NodeId> group = {0, 1, 2, 3, 4, 5};
  CgOptions capped;
  capped.max_iterations = 3;
  for (const Graph* g : {&unit, &weighted}) {
    for (const int probes : {1, 3, 5, 129}) {
      for (const CgOptions& cg : {CgOptions{}, capped}) {
        SCOPED_TRACE(testing::Message() << "probes " << probes << " cap "
                                        << cg.max_iterations);
        const TraceEstimate a =
            HutchinsonTraceInverse(*g, group, probes, 17, cg, &serial);
        const TraceEstimate b =
            HutchinsonTraceInverse(*g, group, probes, 17, cg, &pool);
        EXPECT_EQ(Bits(a.trace), Bits(b.trace));
        EXPECT_EQ(Bits(a.std_error), Bits(b.std_error));
        EXPECT_EQ(a.probes, b.probes);
        EXPECT_EQ(a.cg_iterations, b.cg_iterations);
      }
    }
  }
}

// A null pool means the shared process pool; the answer is the same as
// on an explicit 1-thread pool.
TEST(ParallelCgDefaultPoolTest, ApproximateGroupCfccEqualsOneThreadPool) {
  ThreadPool serial(1);
  const Graph g = BarabasiAlbert(800, 3, 2);
  const std::vector<NodeId> group = {0, 3, 9};
  for (const int probes : {1, 64}) {
    const ApproxCfcc shared = ApproximateGroupCfcc(g, group, probes, 5);
    const ApproxCfcc one =
        ApproximateGroupCfcc(g, group, probes, 5, CgOptions{}, &serial);
    EXPECT_EQ(Bits(shared.cfcc), Bits(one.cfcc));
    EXPECT_EQ(Bits(shared.trace), Bits(one.trace));
    EXPECT_EQ(Bits(shared.trace_std_error), Bits(one.trace_std_error));
  }
}

}  // namespace
}  // namespace cfcm
