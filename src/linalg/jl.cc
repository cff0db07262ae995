#include "linalg/jl.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>

#include "common/rng.h"

namespace cfcm {

JlSketch::JlSketch(int num_rows, NodeId num_cols, uint64_t seed)
    : num_rows_(num_rows),
      num_cols_(num_cols),
      num_words_((num_rows + 63) / 64),
      scale_(1.0 / std::sqrt(static_cast<double>(num_rows))) {
  assert(num_rows >= 1 && num_cols >= 0);
  words_.resize(static_cast<std::size_t>(num_cols) * num_words_);
  uint64_t sm = seed ^ 0x8f1bbcdcbfa53e0bULL;
  for (auto& w : words_) w = SplitMix64(&sm);
}

void JlSketch::ColumnInto(NodeId v, double* out) const {
  const uint64_t* words = &words_[static_cast<std::size_t>(v) * num_words_];
  const uint64_t magnitude = std::bit_cast<uint64_t>(scale_);
  for (int base = 0; base < num_rows_; base += 64) {
    // Row j is negative exactly where its random bit is 0: shift the
    // inverted bit straight into the IEEE sign position.
    uint64_t negative = ~words[base >> 6];
    const int end = std::min(num_rows_, base + 64);
    for (int j = base; j < end; ++j, negative >>= 1) {
      out[j] = std::bit_cast<double>(magnitude | (negative << 63));
    }
  }
}

int JlTheoryRows(NodeId n, double eps) {
  return static_cast<int>(
      std::ceil(24.0 / (eps * eps) * std::log(std::max<NodeId>(2, n))));
}

}  // namespace cfcm
