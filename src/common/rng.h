// Fast deterministic random number generation.
//
// Forest sampling draws billions of uniform neighbor indices, so the RNG is
// on the hottest path of the whole library. We use xoshiro256++ seeded via
// SplitMix64; every sampled forest gets its own stream derived from
// (base_seed, forest_index) so results are reproducible regardless of the
// number of worker threads. The draw functions are defined inline here so
// a random-walk step compiles to a few register operations instead of an
// out-of-line call (RngTest pins their outputs).
#ifndef CFCM_COMMON_RNG_H_
#define CFCM_COMMON_RNG_H_

#include <cstdint>

namespace cfcm {

/// SplitMix64 step; used for seeding and cheap hashing.
uint64_t SplitMix64(uint64_t* state);

/// \brief xoshiro256++ pseudo-random generator.
///
/// Satisfies the UniformRandomBitGenerator concept so it can also be used
/// with <random> distributions in non-critical code.
class Rng {
 public:
  using result_type = uint64_t;

  /// Seeds the four 64-bit lanes from `seed` via SplitMix64.
  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// Deterministic per-stream constructor: mixes `seed` and `stream` so
  /// that streams with the same seed but different indices are independent.
  Rng(uint64_t seed, uint64_t stream);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ULL; }

  /// Next 64 uniform random bits.
  uint64_t Next() {
    const uint64_t result = Rotl(s_[0] + s_[3], 23) + s_[0];
    const uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = Rotl(s_[3], 45);
    return result;
  }
  result_type operator()() { return Next(); }

  /// Uniform integer in [0, bound). `bound` must be positive. Uses
  /// Lemire's multiply-shift rejection method (no modulo bias).
  uint32_t NextBounded(uint32_t bound) {
    // Lemire (2019): multiply a 32-bit draw by `bound` and keep the high
    // word; reject the short interval that would bias small residues.
    uint64_t m = static_cast<uint64_t>(static_cast<uint32_t>(Next())) * bound;
    auto lo = static_cast<uint32_t>(m);
    if (lo < bound) [[unlikely]] {
      const uint32_t threshold = -bound % bound;
      while (lo < threshold) {
        m = static_cast<uint64_t>(static_cast<uint32_t>(Next())) * bound;
        lo = static_cast<uint32_t>(m);
      }
    }
    return static_cast<uint32_t>(m >> 32);
  }

  /// Uniform double in [0, 1).
  double NextDouble() {
    return static_cast<double>(Next() >> 11) * 0x1.0p-53;
  }

  /// Fair coin; used by JL sketches (+1/-1 entries).
  bool NextBool() { return (Next() >> 63) != 0; }

 private:
  static uint64_t Rotl(uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  uint64_t s_[4];
};

}  // namespace cfcm

#endif  // CFCM_COMMON_RNG_H_
