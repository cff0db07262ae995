// Johnson–Lindenstrauss random-sign sketch (Lemma 3.4).
#ifndef CFCM_LINALG_JL_H_
#define CFCM_LINALG_JL_H_

#include <cstdint>
#include <vector>

#include "graph/graph.h"

namespace cfcm {

/// \brief Implicit w x n random matrix with i.i.d. entries ±1/sqrt(w).
///
/// Entries are derived from one pre-mixed 64-bit word per node per 64
/// rows, so the sketch costs 8*ceil(w/64) bytes per node instead of 8*w.
/// Column extraction copies four entries at a time from a 16-entry table
/// holding the ±scale values of every 4-bit sign pattern (512 bytes per
/// sketch): no compare, select or data-dependent branch, and the result
/// is bit-identical to Entry() because the table holds Entry()'s values.
/// Deterministic in (seed).
class JlSketch {
 public:
  JlSketch(int num_rows, NodeId num_cols, uint64_t seed);

  int num_rows() const { return num_rows_; }
  NodeId num_cols() const { return num_cols_; }
  double scale() const { return scale_; }

  /// Entry W(j, v) in {+scale, -scale}.
  double Entry(int j, NodeId v) const {
    const uint64_t word = words_[static_cast<std::size_t>(v) * num_words_ +
                                 static_cast<std::size_t>(j >> 6)];
    return ((word >> (j & 63)) & 1) != 0 ? scale_ : -scale_;
  }

  /// out[j] = W(j, v) for all rows j, bit-identical to Entry(j, v).
  void ColumnInto(NodeId v, double* out) const;

 private:
  int num_rows_;
  NodeId num_cols_;
  int num_words_;
  double scale_;
  std::vector<uint64_t> words_;  // n * num_words_ sign words
  // nibble_[4 * b + k] = bit k of b ? +scale : -scale, for b in [0, 16).
  alignas(64) double nibble_[64];
};

/// Theory-faithful row count 24 * (eps)^{-2} * ln n (Lemma 3.4) — exposed
/// for documentation/tests; production code uses CfcmOptions::JlRows which
/// caps this (see DESIGN.md "Engineering constants").
int JlTheoryRows(NodeId n, double eps);

}  // namespace cfcm

#endif  // CFCM_LINALG_JL_H_
