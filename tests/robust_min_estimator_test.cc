#include "adaptive/robust_min_estimator.h"

#include <gtest/gtest.h>

#include <cstdint>

namespace agb::adaptive {
namespace {

using gossip::MinSetEntry;

TEST(RobustMinEstimatorTest, K1DegeneratesToPlainMinimum) {
  RobustMinEstimator est(1, 0, 2, /*self=*/0, /*local=*/100);
  EXPECT_EQ(est.estimate(), 100u);
  est.on_entries(0, std::vector<MinSetEntry>{{5, 40}, {6, 70}});
  EXPECT_EQ(est.estimate(), 40u);
}

TEST(RobustMinEstimatorTest, K2IgnoresSingleOutlier) {
  RobustMinEstimator est(2, 0, 2, 0, 100);
  est.on_entries(0, std::vector<MinSetEntry>{{5, 4}});  // pathological node
  // Known capacities: {4, 100}; the 2nd smallest is 100.
  EXPECT_EQ(est.estimate(), 100u);
  est.on_entries(0, std::vector<MinSetEntry>{{6, 60}});
  // {4, 60, 100} -> 2nd smallest 60.
  EXPECT_EQ(est.estimate(), 60u);
}

TEST(RobustMinEstimatorTest, DuplicateNodeCountsOnce) {
  RobustMinEstimator est(2, 0, 2, 0, 100);
  // The same constrained node advertised via several paths must not occupy
  // two of the k slots.
  est.on_entries(0, std::vector<MinSetEntry>{{5, 4}});
  est.on_entries(0, std::vector<MinSetEntry>{{5, 4}});
  est.on_entries(0, std::vector<MinSetEntry>{{5, 6}});
  EXPECT_EQ(est.estimate(), 100u);  // {4(node5), 100(self)} -> 2nd is 100
}

TEST(RobustMinEstimatorTest, PerNodeMinimumIsKept) {
  RobustMinEstimator est(1, 0, 2, 0, 100);
  est.on_entries(0, std::vector<MinSetEntry>{{5, 50}});
  est.on_entries(0, std::vector<MinSetEntry>{{5, 30}});
  est.on_entries(0, std::vector<MinSetEntry>{{5, 80}});  // higher: ignored
  EXPECT_EQ(est.estimate(), 30u);
}

TEST(RobustMinEstimatorTest, FloorDropsOutliersEntirely) {
  RobustMinEstimator est(1, /*floor=*/10, 2, 0, 100);
  est.on_entries(0, std::vector<MinSetEntry>{{5, 4}, {6, 50}});
  // Node 5's capacity 4 < floor 10: ignored; min of the rest is 50.
  EXPECT_EQ(est.estimate(), 50u);
}

TEST(RobustMinEstimatorTest, HeaderIncludesSelfAndKSmallest) {
  RobustMinEstimator est(2, 0, 2, /*self=*/9, 100);
  est.on_entries(0, std::vector<MinSetEntry>{{1, 10}, {2, 20}, {3, 30}});
  auto header = est.header_entries();
  // k=2 smallest are nodes 1 and 2; self (9,100) must also circulate.
  bool has_self = false, has_1 = false, has_2 = false, has_3 = false;
  for (const auto& e : header) {
    if (e.node == 9) has_self = true;
    if (e.node == 1) has_1 = true;
    if (e.node == 2) has_2 = true;
    if (e.node == 3) has_3 = true;
  }
  EXPECT_TRUE(has_self);
  EXPECT_TRUE(has_1);
  EXPECT_TRUE(has_2);
  EXPECT_FALSE(has_3);  // trimmed: not among the k smallest
}

TEST(RobustMinEstimatorTest, WindowExpiryForgetsDepartedNode) {
  RobustMinEstimator est(1, 0, 2, 0, 100);
  est.on_entries(0, std::vector<MinSetEntry>{{5, 10}});
  est.advance_to(1);
  EXPECT_EQ(est.estimate(), 10u);  // still in the completed-period window
  est.advance_to(2);
  EXPECT_EQ(est.estimate(), 100u);  // expired
}

TEST(RobustMinEstimatorTest, StalePeriodsIgnored) {
  RobustMinEstimator est(1, 0, 2, 0, 100);
  est.advance_to(5);
  est.on_entries(2, std::vector<MinSetEntry>{{5, 1}});
  EXPECT_EQ(est.estimate(), 100u);
}

TEST(RobustMinEstimatorTest, LaterPeriodFastForwards) {
  RobustMinEstimator est(1, 0, 2, 0, 100);
  est.on_entries(7, std::vector<MinSetEntry>{{5, 25}});
  EXPECT_EQ(est.period(), 7u);
  EXPECT_EQ(est.estimate(), 25u);
}

TEST(RobustMinEstimatorTest, LocalShrinkImmediateGrowthDeferred) {
  RobustMinEstimator est(1, 0, 2, 0, 100);
  est.set_local_capacity(40);
  EXPECT_EQ(est.estimate(), 40u);
  est.set_local_capacity(100);  // growth: current period keeps 40
  EXPECT_EQ(est.estimate(), 40u);
  est.advance_to(1);
  EXPECT_EQ(est.estimate(), 40u);  // history still holds it
  est.advance_to(2);
  EXPECT_EQ(est.estimate(), 100u);
}

TEST(RobustMinEstimatorTest, InvalidNodeEntriesIgnored) {
  RobustMinEstimator est(1, 0, 2, 0, 100);
  est.on_entries(0, std::vector<MinSetEntry>{{kInvalidNode, 1}});
  EXPECT_EQ(est.estimate(), 100u);
}

TEST(RobustMinEstimatorTest, KLargerThanGroupFallsBackToLargestKnown) {
  RobustMinEstimator est(5, 0, 2, 0, 100);
  est.on_entries(0, std::vector<MinSetEntry>{{1, 10}, {2, 20}});
  // Only 3 capacities known ({10,20,100}); k=5 clamps to the largest.
  EXPECT_EQ(est.estimate(), 100u);
}

// The header's period is an unchecked varint from the wire. A corrupted or
// hostile one near 2^64 must cost O(W), not one step per skipped period.
TEST(RobustMinEstimatorTest, FarFuturePeriodReturnsPromptly) {
  RobustMinEstimator est(1, 0, 3, 0, 100);
  est.on_entries(0, std::vector<MinSetEntry>{{5, 10}});
  est.on_entries(UINT64_MAX - 1, std::vector<MinSetEntry>{{6, 60}});
  EXPECT_EQ(est.period(), UINT64_MAX - 1);
  EXPECT_EQ(est.estimate(), 60u);  // min(local 100, 60); node 5 aged out
}

// Jumping a gap must leave what advancing one period at a time leaves (see
// the MinBuffEstimator twin of this test).
TEST(RobustMinEstimatorTest, GapAdvanceMatchesStepwiseAdvance) {
  constexpr PeriodId kWindow = 4;
  for (PeriodId gap : {PeriodId{1}, PeriodId{2}, kWindow - 1, kWindow,
                       kWindow + 1}) {
    SCOPED_TRACE(gap);
    RobustMinEstimator jumped(1, 0, kWindow, 0, 100);
    RobustMinEstimator stepped(1, 0, kWindow, 0, 100);
    for (PeriodId p = 0; p < kWindow; ++p) {
      const std::vector<MinSetEntry> entries{
          {static_cast<NodeId>(10 + p),
           static_cast<std::uint32_t>(10 + 10 * p)}};
      for (auto* est : {&jumped, &stepped}) {
        est->advance_to(p);
        est->on_entries(p, entries);
      }
    }
    const PeriodId from = jumped.period();
    jumped.advance_to(from + gap);
    for (PeriodId p = from + 1; p <= from + gap; ++p) stepped.advance_to(p);
    for (PeriodId p = from + gap; p <= from + gap + kWindow; ++p) {
      jumped.advance_to(p);
      stepped.advance_to(p);
      EXPECT_EQ(jumped.period(), p);
      EXPECT_EQ(jumped.header_entries().size(),
                stepped.header_entries().size());
      EXPECT_EQ(jumped.estimate(), stepped.estimate()) << p;
    }
  }
}

}  // namespace
}  // namespace agb::adaptive
