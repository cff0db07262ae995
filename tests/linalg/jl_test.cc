#include "linalg/jl.h"

#include <cmath>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

namespace cfcm {
namespace {

TEST(JlSketchTest, EntriesArePlusMinusScale) {
  const JlSketch sketch(16, 100, 42);
  const double s = sketch.scale();
  EXPECT_NEAR(s, 0.25, 1e-12);
  for (int j = 0; j < 16; ++j) {
    for (NodeId v = 0; v < 100; v += 7) {
      const double e = sketch.Entry(j, v);
      EXPECT_TRUE(e == s || e == -s);
    }
  }
}

TEST(JlSketchTest, DeterministicInSeed) {
  const JlSketch a(8, 50, 1), b(8, 50, 1), c(8, 50, 2);
  int diffs = 0;
  for (int j = 0; j < 8; ++j) {
    for (NodeId v = 0; v < 50; ++v) {
      EXPECT_EQ(a.Entry(j, v), b.Entry(j, v));
      diffs += a.Entry(j, v) != c.Entry(j, v);
    }
  }
  EXPECT_GT(diffs, 100);  // different seeds give a different sketch
}

TEST(JlSketchTest, ColumnIntoMatchesEntry) {
  // Bytes, not ==: -0.0 == +0.0, so == would pass an expansion that
  // writes a wrong zero, and any changed bit moves the estimates. The
  // widths cover a partial first word (1..63), exactly one and two full
  // words (64, 128) and a partial second word (65, 70).
  for (const int w : {1, 8, 24, 63, 64, 65, 70, 128}) {
    const JlSketch sketch(w, 20, 9);
    std::vector<double> col(static_cast<std::size_t>(w));
    std::vector<double> want(static_cast<std::size_t>(w));
    for (NodeId v = 0; v < 20; ++v) {
      sketch.ColumnInto(v, col.data());
      for (int j = 0; j < w; ++j) want[j] = sketch.Entry(j, v);
      EXPECT_EQ(std::memcmp(col.data(), want.data(), sizeof(double) * w), 0)
          << "w=" << w << " v=" << v;
    }
  }
}

TEST(JlSketchTest, NormPreservationOnAverage) {
  // ||W e_v||^2 = 1 exactly (w entries of magnitude 1/sqrt(w)).
  const JlSketch sketch(32, 10, 5);
  for (NodeId v = 0; v < 10; ++v) {
    double norm = 0;
    for (int j = 0; j < 32; ++j) {
      norm += sketch.Entry(j, v) * sketch.Entry(j, v);
    }
    EXPECT_NEAR(norm, 1.0, 1e-12);
  }
}

TEST(JlSketchTest, PairwiseDistancePreservedApproximately) {
  // Distortion check on standard basis pairs: ||W(e_u - e_v)||^2 should
  // concentrate around ||e_u - e_v||^2 = 2.
  const int w = 256;
  const JlSketch sketch(w, 40, 11);
  double worst = 0;
  for (NodeId u = 0; u < 40; ++u) {
    for (NodeId v = u + 1; v < 40; v += 9) {
      double norm = 0;
      for (int j = 0; j < w; ++j) {
        const double d = sketch.Entry(j, u) - sketch.Entry(j, v);
        norm += d * d;
      }
      worst = std::max(worst, std::fabs(norm - 2.0) / 2.0);
    }
  }
  EXPECT_LT(worst, 0.5);  // well within the JL regime for w=256
}

TEST(JlTheoryRowsTest, MatchesLemma) {
  // w >= 24 eps^-2 ln n.
  EXPECT_EQ(JlTheoryRows(1000, 0.5),
            static_cast<int>(std::ceil(24.0 / 0.25 * std::log(1000.0))));
  EXPECT_GT(JlTheoryRows(1000, 0.1), JlTheoryRows(1000, 0.3));
}

}  // namespace
}  // namespace cfcm
