#include "linalg/jl.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>

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
  for (int b = 0; b < 16; ++b) {
    for (int k = 0; k < 4; ++k) {
      nibble_[4 * b + k] = ((b >> k) & 1) != 0 ? scale_ : -scale_;
    }
  }
}

void JlSketch::ColumnInto(NodeId v, double* out) const {
  const uint64_t* words = &words_[static_cast<std::size_t>(v) * num_words_];
  for (int base = 0; base < num_rows_; base += 64) {
    // Rows base + 4i .. base + 4i + 3 read bits 4i .. 4i + 3 of the word:
    // one nibble selects their four entries from the table.
    uint64_t bits = words[base >> 6];
    const int end = std::min(num_rows_, base + 64);
    int j = base;
    for (; j + 4 <= end; j += 4, bits >>= 4) {
      std::memcpy(out + j, &nibble_[4 * (bits & 15)], 4 * sizeof(double));
    }
    for (; j < end; ++j, bits >>= 1) out[j] = nibble_[4 * (bits & 1)];
  }
}

int JlTheoryRows(NodeId n, double eps) {
  return static_cast<int>(
      std::ceil(24.0 / (eps * eps) * std::log(std::max<NodeId>(2, n))));
}

}  // namespace cfcm
