// Bitwise pins of the forest-sampled estimators.
//
// The per-forest core (Wilson walks, sign expansion, subtree sums,
// prefix passes, moment folds) may be rewritten for speed only if every
// output bit stays put: selections, forest counts, the result cache and
// the thread-count determinism contract all key off these bytes (DESIGN.md
// §3). Each test hashes the full estimate with FNV-1a and compares it
// against a digest recorded before the kernel was last rewritten. A
// mismatch means the kernel changed its arithmetic, not just its speed.
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "cfcm/schur_cfcm.h"
#include "estimators/first_pick.h"
#include "estimators/forest_delta.h"
#include "estimators/schur_delta.h"
#include "graph/generators.h"
#include "graph/spec.h"
#include "test_util.h"

namespace cfcm {
namespace {

using testing::Fnv1a;

uint64_t Digest(const DeltaEstimate& est) {
  Fnv1a h;
  h.Add(est.delta);
  h.Add(est.z);
  h.Add(est.numerator);
  h.Add(est.rel);
  h.Add(&est.forests, sizeof(est.forests));
  h.Add(&est.jl_rows, sizeof(est.jl_rows));
  return h.value();
}

uint64_t Digest(const FirstPickResult& pick) {
  Fnv1a h;
  h.Add(pick.scores);
  h.Add(&pick.best, sizeof(pick.best));
  h.Add(&pick.forests, sizeof(pick.forests));
  h.Add(&pick.walk_steps, sizeof(pick.walk_steps));
  return h.value();
}

const Graph& Ba4000() {
  static const Graph* g = new Graph(*LoadGraphFromSpec("ba:4000,4"));
  return *g;
}

// Conductances in [0.5, 2]: walks take the NextDouble/prefix-table step
// and every BFS edge carries a non-unit 1/w coefficient.
const Graph& WeightedBa4000() {
  static const Graph* g =
      new Graph(AssignUniformWeights(Ba4000(), 0.5, 2.0, 7));
  return *g;
}

// The solve_large setting: eps 0.3 on the derived forest target, so the
// pinned forest count also covers ResolveTargetForests.
EstimatorOptions PinOptions(int jl_rows) {
  EstimatorOptions opts;
  opts.eps = 0.3;
  opts.seed = 17;
  opts.jl_rows = jl_rows;
  return opts;
}

DeltaEstimate RunForest(int jl_rows, const Graph& g = Ba4000()) {
  ThreadPool pool(2);
  return ForestDelta(g, {g.MaxDegreeNode()}, PinOptions(jl_rows), pool);
}

DeltaEstimate RunSchur(int jl_rows, const Graph& g = Ba4000()) {
  const NodeId s = g.MaxDegreeNode();
  std::vector<NodeId> t;
  for (NodeId v : SelectAuxiliaryRoots(g, 32)) {
    if (v != s) t.push_back(v);
  }
  ThreadPool pool(2);
  return SchurDelta(g, {s}, t, PinOptions(jl_rows), pool);
}

TEST(JlDigestTest, ForestDeltaDerivedRows) {
  const DeltaEstimate est = RunForest(0);
  ASSERT_EQ(est.jl_rows, 24);
  EXPECT_EQ(Digest(est), 0x284564a9ed33df7eULL) << std::hex << Digest(est);
}

TEST(JlDigestTest, ForestDeltaSeventyRows) {
  const DeltaEstimate est = RunForest(70);
  ASSERT_EQ(est.jl_rows, 70);
  EXPECT_EQ(Digest(est), 0xd3672aaaa8b436e7ULL) << std::hex << Digest(est);
}

TEST(JlDigestTest, SchurDeltaDerivedRows) {
  const DeltaEstimate est = RunSchur(0);
  ASSERT_EQ(est.jl_rows, 24);
  EXPECT_EQ(Digest(est), 0x0c0665133554051bULL) << std::hex << Digest(est);
}

TEST(JlDigestTest, SchurDeltaSeventyRows) {
  const DeltaEstimate est = RunSchur(70);
  ASSERT_EQ(est.jl_rows, 70);
  EXPECT_EQ(Digest(est), 0xa62e51d2302cb447ULL) << std::hex << Digest(est);
}

TEST(JlDigestTest, ForestDeltaWeighted) {
  const DeltaEstimate est = RunForest(24, WeightedBa4000());
  ASSERT_EQ(est.jl_rows, 24);
  EXPECT_EQ(Digest(est), 0x61f94b8aa33338f6ULL) << std::hex << Digest(est);
}

TEST(JlDigestTest, SchurDeltaWeighted) {
  const DeltaEstimate est = RunSchur(24, WeightedBa4000());
  ASSERT_EQ(est.jl_rows, 24);
  EXPECT_EQ(Digest(est), 0xf137d6593b6cf877ULL) << std::hex << Digest(est);
}

FirstPickResult RunFirstPick(const Graph& g) {
  ThreadPool pool(2);
  return EstimateFirstPick(g, PinOptions(0), pool);
}

TEST(FirstPickDigestTest, UnitBarabasiAlbert) {
  const FirstPickResult pick = RunFirstPick(Ba4000());
  EXPECT_EQ(Digest(pick), 0x5ef03e20d46c4196ULL) << std::hex << Digest(pick);
}

TEST(FirstPickDigestTest, WeightedBarabasiAlbert) {
  const FirstPickResult pick = RunFirstPick(WeightedBa4000());
  EXPECT_EQ(Digest(pick), 0x796dbf4d1ec811ceULL) << std::hex << Digest(pick);
}

}  // namespace
}  // namespace cfcm
