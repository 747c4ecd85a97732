#include "adaptive/congestion_estimator.h"

#include <gtest/gtest.h>

#include "gossip/event_buffer.h"

namespace agb::adaptive {
namespace {

gossip::Event make_event(std::uint64_t seq, std::uint32_t age) {
  gossip::Event e;
  e.id = EventId{1, seq};
  e.age = age;
  return e;
}

/// The receive step's virtual drops against `min_buff`, with no real
/// bound: the buffer marks them and the estimator folds their ages.
void observe(CongestionEstimator& est, gossip::EventBuffer& buf,
             std::size_t min_buff) {
  buf.settle_overflow(gossip::EventBuffer::kNoBound, min_buff, false,
                      [&est](const gossip::Event& e) { est.observe(e); });
}

/// How many buffered events are marked lost.
std::size_t lost_count(const gossip::EventBuffer& buf) {
  std::size_t lost = 0;
  buf.for_each([&](const gossip::Event& e) { lost += buf.lost(e.id); });
  return lost;
}

TEST(CongestionEstimatorTest, SeededWithInitialAge) {
  CongestionEstimator est(0.9, 5.0);
  EXPECT_DOUBLE_EQ(est.avg_age(), 5.0);
  EXPECT_EQ(est.observations(), 0u);
}

TEST(CongestionEstimatorTest, NoVirtualDropsWhenUnderMinBuff) {
  CongestionEstimator est(0.9, 5.0);
  gossip::EventBuffer buf;
  buf.insert(make_event(1, 2));
  buf.insert(make_event(2, 3));
  observe(est, buf, 5);
  EXPECT_EQ(est.observations(), 0u);
  EXPECT_EQ(lost_count(buf), 0u);
}

TEST(CongestionEstimatorTest, VirtuallyDropsOldestDownToMinBuff) {
  CongestionEstimator est(0.5, 0.0);
  gossip::EventBuffer buf;
  buf.insert(make_event(1, 10));
  buf.insert(make_event(2, 8));
  buf.insert(make_event(3, 2));
  observe(est, buf, 1);
  // Two virtual drops (ages 10 then 8), oldest first:
  // avg = 0.5*0 + 0.5*10 = 5; avg = 0.5*5 + 0.5*8 = 6.5
  EXPECT_DOUBLE_EQ(est.avg_age(), 6.5);
  EXPECT_EQ(est.observations(), 2u);
  EXPECT_TRUE(buf.lost(EventId{1, 1}));
  EXPECT_TRUE(buf.lost(EventId{1, 2}));
  EXPECT_FALSE(buf.lost(EventId{1, 3}));
  // The real buffer is untouched: virtual drops are pure accounting.
  EXPECT_EQ(buf.size(), 3u);
}

TEST(CongestionEstimatorTest, LostEventsAreNotCountedTwice) {
  CongestionEstimator est(0.5, 0.0);
  gossip::EventBuffer buf;
  buf.insert(make_event(1, 10));
  buf.insert(make_event(2, 8));
  observe(est, buf, 1);
  EXPECT_EQ(est.observations(), 1u);
  observe(est, buf, 1);  // same state: |events - lost| == 1 == minBuff
  EXPECT_EQ(est.observations(), 1u);
}

TEST(CongestionEstimatorTest, NewArrivalsTriggerMoreVirtualDrops) {
  CongestionEstimator est(0.5, 0.0);
  gossip::EventBuffer buf;
  buf.insert(make_event(1, 10));
  buf.insert(make_event(2, 4));
  observe(est, buf, 1);
  EXPECT_EQ(est.observations(), 1u);
  buf.insert(make_event(3, 7));
  observe(est, buf, 1);
  EXPECT_EQ(est.observations(), 2u);
  EXPECT_TRUE(buf.lost(EventId{1, 3}));  // age 7 > age 4
}

TEST(CongestionEstimatorTest, MinBuffZeroAccountsEverything) {
  CongestionEstimator est(0.9, 0.0);
  gossip::EventBuffer buf;
  for (std::uint64_t i = 0; i < 5; ++i) buf.insert(make_event(i, 1));
  observe(est, buf, 0);
  EXPECT_EQ(est.observations(), 5u);
  EXPECT_EQ(lost_count(buf), 5u);
}

TEST(CongestionEstimatorTest, EvictionTakesTheMarkAlong) {
  CongestionEstimator est(0.9, 0.0);
  gossip::EventBuffer buf;
  buf.insert(make_event(1, 9));
  buf.insert(make_event(2, 1));
  observe(est, buf, 1);
  EXPECT_EQ(lost_count(buf), 1u);
  buf.settle_overflow(1);  // really evicts the age-9 event
  EXPECT_EQ(lost_count(buf), 0u);
  EXPECT_FALSE(buf.lost(EventId{1, 1}));
}

TEST(CongestionEstimatorTest, MarksStayWithTheirEventsThroughSwapErase) {
  CongestionEstimator est(0.9, 0.0);
  gossip::EventBuffer buf;
  buf.insert(make_event(1, 1));
  buf.insert(make_event(2, 2));
  buf.insert(make_event(3, 9));
  observe(est, buf, 2);  // marks the age-9 event, in the last slot
  buf.bump_age(EventId{1, 1}, 20);
  buf.purge_age_limit(10);  // evicts the first slot: the last moves into it
  EXPECT_EQ(lost_count(buf), 1u);
  EXPECT_TRUE(buf.lost(EventId{1, 3}));
  EXPECT_FALSE(buf.lost(EventId{1, 2}));
}

// Paper Fig. 5(b) keeps lost ⊆ events: an event virtually dropped, then
// evicted, then admitted again (a digest too small to remember it) comes
// back unmarked, a fresh victim candidate at once.
TEST(CongestionEstimatorTest, ReadmittedEventIsAFreshVictimCandidate) {
  CongestionEstimator est(0.5, 0.0);
  gossip::EventBuffer buf;
  buf.insert(make_event(1, 9));
  buf.insert(make_event(2, 1));
  observe(est, buf, 1);
  ASSERT_EQ(est.observations(), 1u);  // the age-9 event, marked lost
  buf.purge_age_limit(8);             // evicted by the age limit
  buf.insert(make_event(1, 9));       // and admitted again
  EXPECT_FALSE(buf.lost(EventId{1, 1}));
  observe(est, buf, 1);
  EXPECT_EQ(est.observations(), 2u);
  EXPECT_TRUE(buf.lost(EventId{1, 1}));
  EXPECT_DOUBLE_EQ(est.avg_age(), 0.5 * (0.5 * 9.0) + 0.5 * 9.0);
}

TEST(CongestionEstimatorTest, EwmaUsesConfiguredAlpha) {
  CongestionEstimator est(0.9, 10.0);
  gossip::EventBuffer buf;
  buf.insert(make_event(1, 4));
  observe(est, buf, 0);
  EXPECT_NEAR(est.avg_age(), 0.9 * 10.0 + 0.1 * 4.0, 1e-12);
}

TEST(CongestionEstimatorTest, ResetReseedsAverage) {
  CongestionEstimator est(0.9, 10.0);
  gossip::EventBuffer buf;
  buf.insert(make_event(1, 4));
  observe(est, buf, 0);
  est.reset(7.0);
  EXPECT_DOUBLE_EQ(est.avg_age(), 7.0);
  EXPECT_EQ(est.observations(), 0u);
}

TEST(CongestionEstimatorTest, CongestedBufferYieldsLowAverage) {
  // Young events being virtually dropped == congestion == low avgAge.
  CongestionEstimator congested(0.0, 99.0);  // alpha 0: tracks last sample
  gossip::EventBuffer buf;
  buf.insert(make_event(1, 1));
  buf.insert(make_event(2, 2));
  observe(congested, buf, 0);
  EXPECT_LE(congested.avg_age(), 2.0);
}

}  // namespace
}  // namespace agb::adaptive
