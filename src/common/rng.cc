#include "common/rng.h"

namespace cfcm {

uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& lane : s_) lane = SplitMix64(&sm);
}

Rng::Rng(uint64_t seed, uint64_t stream)
    : Rng(seed ^ (0x9e3779b97f4a7c15ULL + stream * 0xda942042e4dd58b5ULL)) {}

}  // namespace cfcm
