#include "adaptive/minbuff_estimator.h"

#include <gtest/gtest.h>

#include <cstdint>

namespace agb::adaptive {
namespace {

TEST(MinBuffEstimatorTest, InitialEstimateIsLocalCapacity) {
  MinBuffEstimator est(2, 90);
  EXPECT_EQ(est.estimate(), 90u);
  EXPECT_EQ(est.period(), 0u);
  EXPECT_EQ(est.running_minimum(), 90u);
}

TEST(MinBuffEstimatorTest, HeaderFromCurrentPeriodLowersRunningMin) {
  MinBuffEstimator est(2, 90);
  est.on_header(0, 45);
  EXPECT_EQ(est.running_minimum(), 45u);
  EXPECT_EQ(est.estimate(), 45u);
  est.on_header(0, 60);  // higher: no effect
  EXPECT_EQ(est.estimate(), 45u);
}

TEST(MinBuffEstimatorTest, StaleHeaderIgnored) {
  MinBuffEstimator est(2, 90);
  est.advance_to(3);
  est.on_header(1, 10);  // two periods old
  EXPECT_EQ(est.estimate(), 90u);
}

TEST(MinBuffEstimatorTest, LaterHeaderFastForwardsPeriod) {
  MinBuffEstimator est(2, 90);
  est.on_header(5, 30);
  EXPECT_EQ(est.period(), 5u);
  EXPECT_EQ(est.running_minimum(), 30u);
}

TEST(MinBuffEstimatorTest, AdvanceResetsRunningToLocal) {
  MinBuffEstimator est(1, 90);  // window 1: history ignored
  est.on_header(0, 30);
  est.advance_to(1);
  EXPECT_EQ(est.running_minimum(), 90u);
  EXPECT_EQ(est.estimate(), 90u);  // W=1 forgets immediately
}

TEST(MinBuffEstimatorTest, WindowKeepsRecentCompletedPeriods) {
  MinBuffEstimator est(2, 90);  // current + 1 completed
  est.on_header(0, 30);
  est.advance_to(1);
  // Period 0's minimum (30) still participates.
  EXPECT_EQ(est.estimate(), 30u);
  est.advance_to(2);
  // Period 0 has left the window; period 1 contributed 90.
  EXPECT_EQ(est.estimate(), 90u);
}

TEST(MinBuffEstimatorTest, ObsoleteConstraintExpiresAfterWindow) {
  // The constrained node "leaves": its minimum must age out after W periods,
  // the property the paper uses to re-grow the allowed rate (§3.1).
  MinBuffEstimator est(3, 120);
  est.on_header(0, 20);
  EXPECT_EQ(est.estimate(), 20u);
  est.advance_to(1);
  EXPECT_EQ(est.estimate(), 20u);
  est.advance_to(2);
  EXPECT_EQ(est.estimate(), 20u);
  est.advance_to(3);  // period 0 out of the 3-period window
  EXPECT_EQ(est.estimate(), 120u);
}

TEST(MinBuffEstimatorTest, SkippedPeriodsFilledWithLocalCapacity) {
  MinBuffEstimator est(3, 80);
  est.on_header(0, 10);
  est.advance_to(5);  // long stall: periods 1..4 never saw remote data
  // Period 0's value is long gone; the filled periods carry 80.
  EXPECT_EQ(est.estimate(), 80u);
}

TEST(MinBuffEstimatorTest, SetLocalCapacityLowersRunningImmediately) {
  MinBuffEstimator est(2, 90);
  est.set_local_capacity(40);
  EXPECT_EQ(est.running_minimum(), 40u);
  EXPECT_EQ(est.estimate(), 40u);
  EXPECT_EQ(est.local_capacity(), 40u);
}

TEST(MinBuffEstimatorTest, CapacityGrowthShowsAfterWindowRollsOver) {
  MinBuffEstimator est(2, 40);
  est.advance_to(1);
  est.set_local_capacity(90);
  // Running minimum of the current period keeps min(40-history, ...) only
  // through the window; after two advances only 90 remains.
  EXPECT_EQ(est.estimate(), 40u);  // previous period still in window
  est.advance_to(2);
  // Period 1 completed with running=min(40,…)=40? No: running was reset to
  // local (40) at advance_to(1), then set_local_capacity(90) does not raise
  // an already-low running minimum. Hence period 1 contributes 40.
  EXPECT_EQ(est.estimate(), 40u);
  est.advance_to(3);
  EXPECT_EQ(est.estimate(), 90u);
}

TEST(MinBuffEstimatorTest, WindowZeroClampsToOne) {
  MinBuffEstimator est(0, 50);
  est.on_header(0, 10);
  est.advance_to(1);
  EXPECT_EQ(est.estimate(), 50u);  // behaves as W=1
}

TEST(MinBuffEstimatorTest, MultipleRemoteMinimaTakeGlobalMin) {
  MinBuffEstimator est(2, 100);
  est.on_header(0, 70);
  est.on_header(0, 40);
  est.on_header(0, 55);
  EXPECT_EQ(est.estimate(), 40u);
}

TEST(MinBuffEstimatorTest, AdvanceToPastPeriodIsNoop) {
  MinBuffEstimator est(2, 100);
  est.advance_to(4);
  est.on_header(4, 25);
  est.advance_to(2);  // backwards: ignored
  EXPECT_EQ(est.period(), 4u);
  EXPECT_EQ(est.estimate(), 25u);
}

// The header's period is an unchecked varint from the wire. A corrupted or
// hostile one near 2^64 must cost O(W), not one step per skipped period.
TEST(MinBuffEstimatorTest, FarFutureHeaderReturnsPromptly) {
  MinBuffEstimator est(3, 90);
  est.on_header(0, 10);
  est.on_header(UINT64_MAX - 1, 60);
  EXPECT_EQ(est.period(), UINT64_MAX - 1);
  EXPECT_EQ(est.estimate(), 60u);  // min(local 90, 60); period 0 aged out
}

// Jumping a gap must leave what advancing one period at a time leaves. The
// periods before the jump saw distinct minima, oldest smallest, so as the
// window then rolls on the estimate reveals which completed periods each
// estimator still holds.
TEST(MinBuffEstimatorTest, GapAdvanceMatchesStepwiseAdvance) {
  constexpr PeriodId kWindow = 4;
  for (PeriodId gap : {PeriodId{1}, PeriodId{2}, kWindow - 1, kWindow,
                       kWindow + 1}) {
    SCOPED_TRACE(gap);
    MinBuffEstimator jumped(kWindow, 100);
    MinBuffEstimator stepped(kWindow, 100);
    for (PeriodId p = 0; p < kWindow; ++p) {
      for (auto* est : {&jumped, &stepped}) {
        est->advance_to(p);
        est->on_header(p, static_cast<std::uint32_t>(10 + 10 * p));
      }
    }
    const PeriodId from = jumped.period();
    jumped.advance_to(from + gap);
    for (PeriodId p = from + 1; p <= from + gap; ++p) stepped.advance_to(p);
    for (PeriodId p = from + gap; p <= from + gap + kWindow; ++p) {
      jumped.advance_to(p);
      stepped.advance_to(p);
      EXPECT_EQ(jumped.period(), p);
      EXPECT_EQ(jumped.running_minimum(), stepped.running_minimum());
      EXPECT_EQ(jumped.estimate(), stepped.estimate()) << p;
    }
  }
}

}  // namespace
}  // namespace agb::adaptive
