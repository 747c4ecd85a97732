#include "flowcontrol/token_bucket.h"

#include <gtest/gtest.h>

#include <limits>

namespace agb::flowcontrol {
namespace {

TEST(TokenBucketTest, StartsFull) {
  TokenBucket b(10.0, 5.0, 0);
  EXPECT_DOUBLE_EQ(b.level(0), 5.0);
}

TEST(TokenBucketTest, TakeConsumesOneToken) {
  TokenBucket b(0.0, 3.0, 0);  // no refill: pure consumption
  EXPECT_TRUE(b.try_take(0));
  EXPECT_TRUE(b.try_take(0));
  EXPECT_TRUE(b.try_take(0));
  EXPECT_FALSE(b.try_take(0));
  EXPECT_DOUBLE_EQ(b.level(0), 0.0);
}

TEST(TokenBucketTest, RefillsAtConfiguredRate) {
  TokenBucket b(10.0, 100.0, 0);  // 10 tokens/s
  while (b.try_take(0)) {
  }
  EXPECT_DOUBLE_EQ(b.level(1000), 10.0);
  EXPECT_DOUBLE_EQ(b.level(1500), 15.0);
}

TEST(TokenBucketTest, RefillCapsAtCapacity) {
  TokenBucket b(1000.0, 4.0, 0);
  (void)b.try_take(0);
  EXPECT_DOUBLE_EQ(b.level(60'000), 4.0);
}

TEST(TokenBucketTest, FractionalTokensAccumulate) {
  TokenBucket b(1.0, 10.0, 0);  // 1 token/s
  while (b.try_take(0)) {
  }
  EXPECT_FALSE(b.try_take(500));  // only 0.5 tokens
  EXPECT_TRUE(b.try_take(1000));  // 1.0 token
  EXPECT_FALSE(b.try_take(1000));
}

TEST(TokenBucketTest, SetRateAccountsPastTimeAtOldRate) {
  TokenBucket b(10.0, 100.0, 0);
  while (b.try_take(0)) {
  }
  b.set_rate(100.0, 1000);  // 1 s at 10/s has already accrued 10 tokens
  EXPECT_DOUBLE_EQ(b.level(1000), 10.0);
  EXPECT_DOUBLE_EQ(b.level(1100), 20.0);  // then 0.1 s at 100/s
  EXPECT_DOUBLE_EQ(b.rate(), 100.0);
}

TEST(TokenBucketTest, SetCapacityClampsTokens) {
  TokenBucket b(1.0, 10.0, 0);
  b.set_capacity(3.0, 0);
  EXPECT_DOUBLE_EQ(b.level(0), 3.0);
  EXPECT_DOUBLE_EQ(b.capacity(), 3.0);
}

TEST(TokenBucketTest, TimeGoingBackwardIsIgnored) {
  TokenBucket b(10.0, 10.0, 1000);
  while (b.try_take(1000)) {
  }
  EXPECT_DOUBLE_EQ(b.level(500), 0.0);  // stale timestamp: no refill
  EXPECT_DOUBLE_EQ(b.level(2000), 10.0);
}

TEST(TokenBucketTest, ZeroRateNeverRefills) {
  TokenBucket b(0.0, 2.0, 0);
  (void)b.try_take(0);
  (void)b.try_take(0);
  EXPECT_FALSE(b.try_take(1'000'000));
}

TEST(TokenBucketTest, LongStallRefillsAtMostOneBucketful) {
  // Regression: a multi-hour wall-clock stall (suspended process, clock
  // step) used to compute an astronomically large grant; the clamp must top
  // the bucket up to capacity exactly, so at most floor(capacity) sends
  // succeed after the stall no matter how long it lasted.
  TokenBucket b(5.0, 8.0, 0);
  while (b.try_take(0)) {
  }
  const TimeMs after_stall = 72LL * 3600 * 1000;  // 72 h later
  EXPECT_DOUBLE_EQ(b.level(after_stall), 8.0);
  int sent = 0;
  while (b.try_take(after_stall)) ++sent;
  EXPECT_EQ(sent, 8);
}

TEST(TokenBucketTest, NegativeOrNaNRateGrantsNothing) {
  // A poisoned rate (negative from a buggy controller, NaN from a 0/0 in a
  // derived quantity) must neither drain the bucket nor corrupt the level.
  TokenBucket neg(-3.0, 4.0, 0);
  (void)neg.try_take(0);
  EXPECT_DOUBLE_EQ(neg.level(10'000), 3.0);

  TokenBucket nan_bucket(10.0, 4.0, 0);
  (void)nan_bucket.try_take(0);
  nan_bucket.set_rate(std::numeric_limits<double>::quiet_NaN(), 0);
  EXPECT_DOUBLE_EQ(nan_bucket.level(10'000), 3.0);
  nan_bucket.set_rate(10.0, 10'000);
  EXPECT_DOUBLE_EQ(nan_bucket.level(10'100), 4.0);  // recovers once sane
}

TEST(TokenBucketTest, BoundsLongRunThroughput) {
  // Over 100 s at 7 msg/s with burst capacity 8, at most 708 sends succeed.
  TokenBucket b(7.0, 8.0, 0);
  int sent = 0;
  for (TimeMs t = 0; t <= 100'000; t += 10) {
    if (b.try_take(t)) ++sent;
  }
  EXPECT_LE(sent, 709);
  EXPECT_GE(sent, 700);
}

}  // namespace
}  // namespace agb::flowcontrol
