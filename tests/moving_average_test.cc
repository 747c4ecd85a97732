#include "common/moving_average.h"

#include <gtest/gtest.h>

namespace agb {
namespace {

TEST(EwmaTest, SeededWithInitialValue) {
  Ewma e(0.9, 5.0);
  EXPECT_DOUBLE_EQ(e.value(), 5.0);
  EXPECT_EQ(e.samples(), 0u);
}

TEST(EwmaTest, UpdateRuleMatchesPaperFormula) {
  // avg <- alpha * avg + (1 - alpha) * sample
  Ewma e(0.9, 10.0);
  e.add(0.0);
  EXPECT_DOUBLE_EQ(e.value(), 9.0);
  e.add(0.0);
  EXPECT_DOUBLE_EQ(e.value(), 8.1);
  EXPECT_EQ(e.samples(), 2u);
}

TEST(EwmaTest, AlphaZeroTracksLastSample) {
  Ewma e(0.0, 100.0);
  e.add(42.0);
  EXPECT_DOUBLE_EQ(e.value(), 42.0);
  e.add(-1.0);
  EXPECT_DOUBLE_EQ(e.value(), -1.0);
}

TEST(EwmaTest, AlphaOneIgnoresSamples) {
  Ewma e(1.0, 7.0);
  for (int i = 0; i < 10; ++i) e.add(1000.0);
  EXPECT_DOUBLE_EQ(e.value(), 7.0);
}

TEST(EwmaTest, ConvergesToConstantInput) {
  Ewma e(0.9, 0.0);
  for (int i = 0; i < 200; ++i) e.add(5.0);
  EXPECT_NEAR(e.value(), 5.0, 1e-6);
}

TEST(EwmaTest, ResetReseedsAndClearsCount) {
  Ewma e(0.5, 1.0);
  e.add(3.0);
  e.reset(10.0);
  EXPECT_DOUBLE_EQ(e.value(), 10.0);
  EXPECT_EQ(e.samples(), 0u);
}

}  // namespace
}  // namespace agb
