// Bitwise pins of the CG-path Hutchinson estimate.
//
// HutchinsonTraceInverse runs its probes through the lane-blocked CG
// kernel (linalg/cg.h). Each lane must do exactly the single-vector
// recurrence's operations in their order and the samples must be summed
// in probe order, so the estimate cannot depend on the lane count, on
// which lane a probe lands in or on when its neighbours retire. The
// values below were recorded from the single-vector CG loop that the
// kernel replaced; a mismatch means the kernel changed its arithmetic,
// not just its speed (DESIGN.md §14).
#include <bit>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "graph/datasets.h"
#include "graph/generators.h"
#include "linalg/hutchinson.h"

namespace cfcm {
namespace {

const Graph& Ba2000() {
  static const Graph* g = new Graph(BarabasiAlbert(2000, 4, 1));
  return *g;
}

const Graph& Ba2000Weighted() {
  static const Graph* g =
      new Graph(AssignUniformWeights(Ba2000(), 0.5, 2.0, 7));
  return *g;
}

struct Pin {
  std::string_view graph;  // "ba", "ba_w" or "karate"
  int probes;
  int max_iterations;  // 0 = CgOptions default
  double trace;
  double std_error;
};

// Probe counts: 1 and 3 (fewer probes than lanes), 5 and 9 (one past a
// full block of 4 or 8 lanes), 129 (many blocks, partly filled last).
// max_iterations = 3 retires every lane on the cap; karate at 17 mixes
// lanes that converge on the last allowed iteration with capped ones.
constexpr Pin kPins[] = {
    {"ba", 1, 0, 0x1.8f92d471ce42p+8, 0x0p+0},
    {"ba", 3, 0, 0x1.93b5e16b9053bp+8, 0x1.1c2e9c70a8865p+2},
    {"ba", 5, 0, 0x1.954e23ed02843p+8, 0x1.65b9402f881b3p+1},
    {"ba", 9, 0, 0x1.937092a1a7eccp+8, 0x1.ce586e1cbaccp+0},
    {"ba", 129, 0, 0x1.938e16c832827p+8, 0x1.f37ef23a2c73ap-2},
    {"ba_w", 1, 0, 0x1.4c3dc24b15e4ap+8, 0x0p+0},
    {"ba_w", 3, 0, 0x1.4f7fb017e0553p+8, 0x1.8a7d5750a12f3p+1},
    {"ba_w", 5, 0, 0x1.50dca7815753ap+8, 0x1.f4dfc7b35c32p+0},
    {"ba_w", 9, 0, 0x1.4f76ecbba8704p+8, 0x1.5488b5ccd8252p+0},
    {"ba_w", 129, 0, 0x1.4f0177de226b5p+8, 0x1.9f73780c7476fp-2},
    {"karate", 1, 0, 0x1.941de3e2f53c6p+3, 0x0p+0},
    {"karate", 3, 0, 0x1.905ae6d5053bfp+3, 0x1.2abf3d1509c01p-3},
    {"karate", 5, 0, 0x1.a706e67a1901ep+3, 0x1.c9e422663f87cp-1},
    {"karate", 9, 0, 0x1.b166b83a04f0bp+3, 0x1.27cdb3a765fbp-1},
    {"karate", 129, 0, 0x1.ad3a6f6e472d6p+3, 0x1.534f3c42f1055p-3},
    {"ba", 5, 3, 0x1.92e69ce75cb7cp+8, 0x1.47699010a6774p+1},
    {"ba", 9, 3, 0x1.9144112eea862p+8, 0x1.9dea196e3b147p+0},
    {"ba", 11, 3, 0x1.91b46428087d6p+8, 0x1.5962a85bd14adp+0},
    {"ba_w", 5, 3, 0x1.4e9ace640e072p+8, 0x1.d08c76b76761p+0},
    {"ba_w", 9, 3, 0x1.4d69d1e68b06bp+8, 0x1.2ef3e133eab63p+0},
    {"ba_w", 11, 3, 0x1.4dcf6b1099dbcp+8, 0x1.0d42335912b34p+0},
    {"karate", 129, 17, 0x1.ad3a6f6e472d2p+3, 0x1.534f3c42f10b5p-3},
};

class HutchinsonDigestTest : public ::testing::TestWithParam<Pin> {};

TEST_P(HutchinsonDigestTest, MatchesSingleVectorRecording) {
  const Pin& pin = GetParam();
  const Graph karate = KarateClub();
  const Graph& g = pin.graph == "ba"     ? Ba2000()
                   : pin.graph == "ba_w" ? Ba2000Weighted()
                                         : karate;
  const std::vector<NodeId> group =
      pin.graph == "karate" ? std::vector<NodeId>{0, 33}
                            : std::vector<NodeId>{0, 1, 2, 3, 4, 5, 6, 7};
  CgOptions cg;
  if (pin.max_iterations > 0) cg.max_iterations = pin.max_iterations;
  const TraceEstimate est =
      HutchinsonTraceInverse(g, group, pin.probes, 17, cg);
  EXPECT_EQ(est.probes, pin.probes);
  EXPECT_EQ(std::bit_cast<uint64_t>(est.trace),
            std::bit_cast<uint64_t>(pin.trace))
      << std::hexfloat << est.trace << " vs pinned " << pin.trace;
  EXPECT_EQ(std::bit_cast<uint64_t>(est.std_error),
            std::bit_cast<uint64_t>(pin.std_error))
      << std::hexfloat << est.std_error << " vs pinned " << pin.std_error;
  if (pin.max_iterations > 0) {
    EXPECT_LE(est.cg_iterations,
              static_cast<std::int64_t>(pin.probes) * pin.max_iterations);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Pins, HutchinsonDigestTest, ::testing::ValuesIn(kPins),
    [](const ::testing::TestParamInfo<Pin>& info) {
      std::string name(info.param.graph);
      name += "_p" + std::to_string(info.param.probes);
      if (info.param.max_iterations > 0) {
        name += "_cap" + std::to_string(info.param.max_iterations);
      }
      return name;
    });

}  // namespace
}  // namespace cfcm
