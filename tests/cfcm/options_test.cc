#include "cfcm/options.h"

#include <gtest/gtest.h>

namespace cfcm {
namespace {

TEST(CfcmOptionsTest, DefaultsMatchPaperSettings) {
  const CfcmOptions opts;
  EXPECT_DOUBLE_EQ(opts.eps, 0.2);  // the paper's headline epsilon
  EXPECT_EQ(opts.t_size, 0);  // |T*| rule by default
}

TEST(CfcmOptionsTest, LoweringPreservesSamplingKnobs) {
  CfcmOptions opts;
  opts.eps = 0.31;
  opts.seed = 99;
  opts.min_batch = 7;
  opts.max_forests = 555;
  opts.forest_factor = 2.5;
  opts.jl_rows = 33;
  opts.max_jl_rows = 50;

  const EstimatorOptions est = ToEstimatorOptions(opts);
  EXPECT_DOUBLE_EQ(est.eps, 0.31);
  EXPECT_EQ(est.seed, 99u);
  EXPECT_EQ(est.min_batch, 7);
  EXPECT_EQ(est.max_forests, 555);
  EXPECT_DOUBLE_EQ(est.forest_factor, 2.5);
  EXPECT_EQ(est.jl_rows, 33);
  EXPECT_EQ(est.max_jl_rows, 50);
}

TEST(CfcmOptionsTest, ResolvedValuesUseLoweredKnobs) {
  CfcmOptions opts;
  opts.eps = 0.2;
  opts.jl_rows = 0;
  opts.max_jl_rows = 16;
  const EstimatorOptions est = ToEstimatorOptions(opts);
  EXPECT_LE(ResolveJlRows(est, 100000), 16);
}

}  // namespace
}  // namespace cfcm
