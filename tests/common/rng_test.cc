#include "common/rng.h"

#include <cmath>
#include <set>
#include <vector>

#include <gtest/gtest.h>

namespace cfcm {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(123), b(124);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.Next() == b.Next());
  EXPECT_LE(same, 1);
}

TEST(RngTest, StreamsAreIndependent) {
  Rng a(7, 0), b(7, 1);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.Next() == b.Next());
  EXPECT_LE(same, 1);
}

TEST(RngTest, NextBoundedStaysInRange) {
  Rng rng(42);
  for (uint32_t bound : {1u, 2u, 3u, 7u, 100u, 1u << 20}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.NextBounded(bound), bound);
    }
  }
}

TEST(RngTest, NextBoundedIsRoughlyUniform) {
  Rng rng(2024);
  constexpr int kBuckets = 8;
  constexpr int kDraws = 80000;
  std::vector<int> hist(kBuckets, 0);
  for (int i = 0; i < kDraws; ++i) ++hist[rng.NextBounded(kBuckets)];
  const double expected = static_cast<double>(kDraws) / kBuckets;
  for (int b = 0; b < kBuckets; ++b) {
    EXPECT_NEAR(hist[b], expected, 5 * std::sqrt(expected));
  }
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(9);
  double sum = 0;
  for (int i = 0; i < 20000; ++i) {
    const double v = rng.NextDouble();
    ASSERT_GE(v, 0.0);
    ASSERT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 20000.0, 0.5, 0.02);
}

TEST(RngTest, NextBoolIsFair) {
  Rng rng(77);
  int heads = 0;
  constexpr int kDraws = 40000;
  for (int i = 0; i < kDraws; ++i) heads += rng.NextBool();
  EXPECT_NEAR(heads, kDraws / 2, 4 * std::sqrt(kDraws / 4.0));
}

TEST(SplitMix64Test, KnownSequenceIsDeterministicAndDistinct) {
  uint64_t state = 42;
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(SplitMix64(&state));
  EXPECT_EQ(seen.size(), 1000u);

  uint64_t s1 = 42, s2 = 42;
  for (int i = 0; i < 10; ++i) EXPECT_EQ(SplitMix64(&s1), SplitMix64(&s2));
}

// Known answers: every sampled forest and sketch is a function of these
// streams, so an inlined or restructured generator must reproduce them
// bit for bit (DESIGN.md §3).
TEST(RngTest, KnownAnswersSeedOnly) {
  Rng next(42), bounded(42), unit(42);
  const uint64_t kNext[] = {0xd0764d4f4476689fULL, 0x519e4174576f3791ULL,
                            0xfbe07cfb0c24ed8cULL};
  const uint32_t kBounded[] = {1, 2, 0, 0, 3, 2, 0, 0};
  const double kUnit[] = {0x1.a0ec9a9e88ecdp-1, 0x1.467905d15dbccp-2,
                          0x1.f7c0f9f61849dp-1};
  for (uint64_t v : kNext) EXPECT_EQ(next.Next(), v);
  for (uint32_t v : kBounded) EXPECT_EQ(bounded.NextBounded(7), v);
  for (double v : kUnit) EXPECT_EQ(unit.NextDouble(), v);
}

TEST(RngTest, KnownAnswersSeedAndStream) {
  Rng next(7, 3), bounded(7, 3), unit(7, 3);
  const uint64_t kNext[] = {0x017d906812d9baf6ULL, 0x53162ed3898accbaULL,
                            0xe7108a224d4c8b11ULL};
  const uint32_t kBounded[] = {0, 3, 2, 5, 4, 5, 2, 4};
  const double kUnit[] = {0x1.7d906812d9b8p-8, 0x1.4c58bb4e262b2p-2,
                          0x1.ce2114449a991p-1};
  for (uint64_t v : kNext) EXPECT_EQ(next.Next(), v);
  for (uint32_t v : kBounded) EXPECT_EQ(bounded.NextBounded(7), v);
  for (double v : kUnit) EXPECT_EQ(unit.NextDouble(), v);
}

TEST(RngTest, SatisfiesUniformRandomBitGenerator) {
  static_assert(Rng::min() == 0);
  static_assert(Rng::max() == ~0ULL);
  Rng rng(5);
  EXPECT_NE(rng(), rng());
}

}  // namespace
}  // namespace cfcm
