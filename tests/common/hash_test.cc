#include "common/hash.h"

#include <algorithm>
#include <bit>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace cfcm {
namespace {

uint64_t HashString(const std::string& s) {
  return ContentHash(s.data(), s.size());
}

std::vector<unsigned char> RandomBytes(std::size_t bytes, uint64_t seed) {
  Rng rng(seed);
  std::vector<unsigned char> out(bytes);
  for (unsigned char& b : out) b = static_cast<unsigned char>(rng.Next());
  return out;
}

// The published XXH64 (seed 0) answers: empty input, tail-only inputs,
// and a 39-byte input that runs one whole stripe plus an 8-, 4- and
// 1-byte tail fold.
TEST(HashTest, KnownAnswers) {
  EXPECT_EQ(HashString(""), 0xEF46DB3751D8E999ull);
  EXPECT_EQ(HashString("a"), 0xD24EC4F1A98C6E5Bull);
  EXPECT_EQ(HashString("abc"), 0x44BC2CF5AD770999ull);
  EXPECT_EQ(HashString("Nobody inspects the spammish repetition"),
            0xFBCEA83C8A378BF1ull);
}

TEST(HashTest, StreamingEqualsOneShotForAnySplit) {
  const std::vector<unsigned char> data = RandomBytes(1000, 3);
  const uint64_t whole = ContentHash(data.data(), data.size());
  Rng rng(4);
  for (int trial = 0; trial < 50; ++trial) {
    ContentHasher hasher;
    std::size_t at = 0;
    while (at < data.size()) {
      const std::size_t piece =
          std::min<std::size_t>(rng.NextBounded(80), data.size() - at);
      hasher.Update(data.data() + at, piece);
      at += piece;
    }
    EXPECT_EQ(hasher.Digest(), whole) << "trial " << trial;
  }
}

// Every single-bit flip of a 1 KiB buffer changes the hash, and on
// average flips about half of its 64 bits (the finalizer avalanches).
TEST(HashTest, SingleBitFlipsAvalanche) {
  std::vector<unsigned char> data = RandomBytes(1024, 11);
  const uint64_t base = ContentHash(data.data(), data.size());
  double distance_sum = 0;
  const std::size_t bits = data.size() * 8;
  for (std::size_t bit = 0; bit < bits; ++bit) {
    data[bit / 8] ^= static_cast<unsigned char>(1u << (bit % 8));
    const uint64_t flipped = ContentHash(data.data(), data.size());
    data[bit / 8] ^= static_cast<unsigned char>(1u << (bit % 8));
    ASSERT_NE(flipped, base) << "bit " << bit;
    distance_sum += std::popcount(flipped ^ base);
  }
  const double mean = distance_sum / static_cast<double>(bits);
  EXPECT_GE(mean, 28.0);
  EXPECT_LE(mean, 36.0);
}

// Lengths 0..40 cover no stripe, exactly one, and every tail shape
// (8-, 4- and 1-byte folds): all-zero inputs differ only in length, and
// prefixes of one random buffer differ in their last byte as well.
TEST(HashTest, ShortInputsAllDiffer) {
  const std::vector<unsigned char> zeros(40, 0);
  const std::vector<unsigned char> random = RandomBytes(40, 5);
  std::set<uint64_t> zero_hashes, prefix_hashes;
  for (std::size_t len = 0; len <= 40; ++len) {
    zero_hashes.insert(ContentHash(zeros.data(), len));
    prefix_hashes.insert(ContentHash(random.data(), len));
  }
  EXPECT_EQ(zero_hashes.size(), 41u);
  EXPECT_EQ(prefix_hashes.size(), 41u);
}

}  // namespace
}  // namespace cfcm
