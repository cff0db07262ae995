// Bitwise pins of the JL-sketched estimators.
//
// The JL aggregation core (sign expansion, subtree sums, prefix passes,
// moment folds) may be rewritten for speed only if every output bit
// stays put: selections, forest counts, the result cache and the
// thread-count determinism contract all key off these bytes (DESIGN.md
// §3). Each test hashes the full estimate with FNV-1a and compares it
// against a digest recorded before the kernel was last rewritten. A
// mismatch means the kernel changed its arithmetic, not just its speed.
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "cfcm/schur_cfcm.h"
#include "estimators/forest_delta.h"
#include "estimators/schur_delta.h"
#include "graph/spec.h"

namespace cfcm {
namespace {

class Fnv1a {
 public:
  void Add(const void* data, std::size_t bytes) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < bytes; ++i) {
      hash_ = (hash_ ^ p[i]) * 0x100000001b3ULL;
    }
  }
  void Add(const std::vector<double>& v) {
    Add(v.data(), v.size() * sizeof(double));
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ULL;
};

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

const Graph& Ba4000() {
  static const Graph* g = new Graph(*LoadGraphFromSpec("ba:4000,4"));
  return *g;
}

// The solve_large setting: eps 0.3 with the adaptive exit on, so the
// pinned forest count also covers the Bernstein stop rule.
EstimatorOptions PinOptions(int jl_rows) {
  EstimatorOptions opts;
  opts.eps = 0.3;
  opts.seed = 17;
  opts.jl_rows = jl_rows;
  return opts;
}

DeltaEstimate RunForest(int jl_rows) {
  const Graph& g = Ba4000();
  ThreadPool pool(2);
  return ForestDelta(g, {g.MaxDegreeNode()}, PinOptions(jl_rows), pool);
}

DeltaEstimate RunSchur(int jl_rows) {
  const Graph& g = Ba4000();
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

}  // namespace
}  // namespace cfcm
