#include "common/stats.h"

#include <gtest/gtest.h>

#include <cmath>

namespace agb {
namespace {

TEST(RunningStatsTest, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.min(), 0.0);
  EXPECT_EQ(s.max(), 0.0);
}

TEST(RunningStatsTest, SingleSample) {
  RunningStats s;
  s.add(5.0);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_EQ(s.mean(), 5.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.min(), 5.0);
  EXPECT_EQ(s.max(), 5.0);
}

TEST(RunningStatsTest, KnownMoments) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  // Sample variance of this classic data set is 32/7.
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_NEAR(s.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(SampleSetTest, MeanAndQuantiles) {
  SampleSet s;
  for (double x : {5.0, 1.0, 3.0, 2.0, 4.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 3.0);
  EXPECT_DOUBLE_EQ(s.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 5.0);
  EXPECT_DOUBLE_EQ(s.median(), 3.0);
  EXPECT_DOUBLE_EQ(s.quantile(0.25), 2.0);
}

TEST(SampleSetTest, QuantileInterpolates) {
  SampleSet s;
  s.add(0.0);
  s.add(10.0);
  EXPECT_DOUBLE_EQ(s.quantile(0.5), 5.0);
  EXPECT_DOUBLE_EQ(s.quantile(0.75), 7.5);
}

TEST(SampleSetTest, EmptyQuantileIsZero) {
  SampleSet s;
  EXPECT_EQ(s.quantile(0.5), 0.0);
  EXPECT_EQ(s.mean(), 0.0);
}

TEST(SampleSetTest, QuantileClampsArgument) {
  SampleSet s;
  s.add(1.0);
  s.add(2.0);
  EXPECT_DOUBLE_EQ(s.quantile(-0.5), 1.0);
  EXPECT_DOUBLE_EQ(s.quantile(1.5), 2.0);
}

TEST(SampleSetTest, AddAfterQuantileStillCorrect) {
  SampleSet s;
  s.add(3.0);
  s.add(1.0);
  EXPECT_DOUBLE_EQ(s.median(), 2.0);
  s.add(100.0);
  EXPECT_DOUBLE_EQ(s.median(), 3.0);
}

}  // namespace
}  // namespace agb
