#include "linalg/hutchinson.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "graph/datasets.h"
#include "graph/generators.h"
#include "linalg/laplacian.h"
#include "obs/metrics.h"

namespace cfcm {
namespace {

TEST(HutchinsonTest, ConvergesToExactTrace) {
  const Graph g = KarateClub();
  const std::vector<NodeId> removed = {0, 33};
  const double exact = ExactTraceInverseSubmatrix(g, removed);
  const TraceEstimate est = HutchinsonTraceInverse(g, removed, 400, 7);
  EXPECT_NEAR(est.trace, exact, 0.05 * exact);
}

TEST(HutchinsonTest, StdErrorShrinksWithProbes) {
  const Graph g = ContiguousUsa();
  const std::vector<NodeId> removed = {10};
  const TraceEstimate few = HutchinsonTraceInverse(g, removed, 16, 3);
  const TraceEstimate many = HutchinsonTraceInverse(g, removed, 256, 3);
  EXPECT_LT(many.std_error, few.std_error);
}

TEST(HutchinsonTest, DeterministicInSeed) {
  const Graph g = KarateClub();
  const TraceEstimate a = HutchinsonTraceInverse(g, {5}, 32, 11);
  const TraceEstimate b = HutchinsonTraceInverse(g, {5}, 32, 11);
  EXPECT_EQ(a.trace, b.trace);
}

TEST(HutchinsonTest, SingleProbeHasNoStdError) {
  const Graph g = CycleGraph(10);
  const TraceEstimate est = HutchinsonTraceInverse(g, {0}, 1, 2);
  EXPECT_EQ(est.probes, 1);
  EXPECT_EQ(est.std_error, 0.0);
}

TEST(HutchinsonTest, LargerGroundSetShrinksTrace) {
  // Monotonicity: Tr(L_{-S'}^{-1}) < Tr(L_{-S}^{-1}) for S ⊂ S'.
  const Graph g = BarabasiAlbert(300, 2, 9);
  const TraceEstimate small_s = HutchinsonTraceInverse(g, {0}, 64, 5);
  const TraceEstimate big_s = HutchinsonTraceInverse(g, {0, 1, 2, 3}, 64, 5);
  EXPECT_LT(big_s.trace, small_s.trace);
}

TEST(HutchinsonTest, CountsCgIterationsOfEveryProbe) {
  // cg_iterations is the sum of the probes' own single-vector solves,
  // and the call adds exactly that to engine.linalg.cg_iterations.
  const Graph g = BarabasiAlbert(300, 2, 9);
  const std::vector<NodeId> removed = {0, 3};
  obs::Counter& counter =
      obs::MetricsRegistry::Global().counter("engine.linalg.cg_iterations");
  const uint64_t before = counter.value();
  const TraceEstimate est = HutchinsonTraceInverse(g, removed, 7, 5);
  EXPECT_EQ(counter.value() - before,
            static_cast<uint64_t>(est.cg_iterations));

  std::vector<char> mask(300, 0);
  for (NodeId s : removed) mask[s] = 1;
  const LaplacianSubmatrixOp op(g, mask);
  std::int64_t expected = 0;
  for (int p = 0; p < 7; ++p) {
    Rng rng(5, static_cast<uint64_t>(p));
    Vector z(300, 0.0), x(300, 0.0);
    for (NodeId u = 0; u < 300; ++u) {
      if (!mask[u]) z[u] = rng.NextBool() ? 1.0 : -1.0;
    }
    expected += SolveGroundedLaplacian(op, z, &x).iterations;
  }
  EXPECT_EQ(est.cg_iterations, expected);
  EXPECT_GT(expected, 0);
}

TEST(HutchinsonTest, FactorBackendReportsNoCgIterations) {
  const Graph g = KarateClub();
  const TraceEstimate est =
      HutchinsonTraceInverse(g, {0}, 8, 3, SolverBackend::kSparseLdlt);
  EXPECT_EQ(est.cg_iterations, 0);
}

}  // namespace
}  // namespace cfcm
