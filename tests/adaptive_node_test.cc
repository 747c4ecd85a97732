#include "adaptive/adaptive_node.h"

#include <gtest/gtest.h>

#include <memory>

#include "membership/full_membership.h"

namespace agb::adaptive {
namespace {

std::unique_ptr<membership::FullMembership> directory(NodeId self,
                                                      std::size_t n) {
  auto m = std::make_unique<membership::FullMembership>(self, Rng(self + 1));
  for (NodeId id = 0; id < n; ++id) {
    if (id != self) m->add(id);
  }
  return m;
}

gossip::GossipParams gossip_params(std::size_t max_events = 10) {
  gossip::GossipParams p;
  p.fanout = 3;
  p.gossip_period = 1000;
  p.max_events = max_events;
  p.max_event_ids = 200;
  p.max_age = 12;
  return p;
}

AdaptiveParams adaptive_params() {
  AdaptiveParams p;
  p.sample_period = 2000;
  p.min_buff_window = 2;
  p.alpha = 0.9;
  p.critical_age = 5.0;
  p.low_age_mark = 4.5;
  p.high_age_mark = 5.5;
  p.initial_rate = 5.0;
  p.bucket_capacity = 3.0;
  p.min_rate = 0.5;
  p.max_rate = 100.0;
  return p;
}

std::unique_ptr<AdaptiveLpbcastNode> make_node(NodeId id,
                                               std::size_t max_events = 10) {
  return std::make_unique<AdaptiveLpbcastNode>(
      id, gossip_params(max_events), adaptive_params(), directory(id, 8),
      Rng(id * 31 + 7));
}

gossip::Payload payload() { return gossip::make_payload({1}); }

TEST(AdaptiveNodeTest, TryBroadcastConsumesTokens) {
  auto node = make_node(0);
  EventId id;
  EXPECT_TRUE(node->try_broadcast(payload(), 0, &id));
  EXPECT_TRUE(node->try_broadcast(payload(), 0));
  EXPECT_TRUE(node->try_broadcast(payload(), 0));  // capacity 3
  EXPECT_FALSE(node->try_broadcast(payload(), 0));
  EXPECT_EQ(node->counters().broadcasts, 3u);
}

TEST(AdaptiveNodeTest, TokensRefillOverTime) {
  auto node = make_node(0);
  while (node->try_broadcast(payload(), 0)) {
  }
  EXPECT_FALSE(node->try_broadcast(payload(), 100));
  EXPECT_TRUE(node->try_broadcast(payload(), 1000));  // 5/s for 1 s
}

TEST(AdaptiveNodeTest, HeaderCarriesPeriodAndRunningMinimum) {
  auto node = make_node(0, 10);
  auto out = node->on_round(5000);  // period = 5000/2000 = 2
  EXPECT_EQ(out.message.period, 2u);
  EXPECT_EQ(out.message.min_buff, 10u);
}

TEST(AdaptiveNodeTest, HeaderAdvertisesRunningNotWindowedMinimum) {
  auto node = make_node(0, 100);
  gossip::GossipMessage m;
  m.sender = 1;
  m.period = 0;
  m.min_buff = 20;
  node->on_gossip(m, 100);
  EXPECT_EQ(node->min_buff(), 20u);  // windowed estimate
  auto out = node->on_round(2100);   // period 1 begins
  // The running minimum for period 1 restarts from local capacity (100) —
  // remote info must be re-learned each period so stale minima can expire.
  EXPECT_EQ(out.message.period, 1u);
  EXPECT_EQ(out.message.min_buff, 100u);
  // But the *operational* estimate still honours the window.
  EXPECT_EQ(node->min_buff(), 20u);
}

TEST(AdaptiveNodeTest, ProcessHeaderUpdatesMinBuff) {
  auto node = make_node(0, 50);
  gossip::GossipMessage m;
  m.sender = 1;
  m.period = 0;
  m.min_buff = 15;
  node->on_gossip(m, 10);
  EXPECT_EQ(node->min_buff(), 15u);
}

TEST(AdaptiveNodeTest, SetCapacityUpdatesAdvertisementAndBuffer) {
  auto node = make_node(0, 50);
  // Through the base class: set_max_events is the one capacity setter, and
  // the adaptive node's minBuff must follow it.
  gossip::LpbcastNode& base = *node;
  base.set_max_events(8, 0);
  EXPECT_EQ(node->params().max_events, 8u);
  EXPECT_EQ(node->min_buff(), 8u);
  auto out = node->on_round(100);
  EXPECT_EQ(out.message.min_buff, 8u);
}

TEST(AdaptiveNodeTest, CongestionSignalRespondsToOverload) {
  auto node = make_node(0, 10);
  // Tell the node the smallest buffer in the group is tiny.
  gossip::GossipMessage hdr;
  hdr.sender = 1;
  hdr.period = 0;
  hdr.min_buff = 2;
  node->on_gossip(hdr, 10);
  const double before = node->avg_age();
  // Flood young events: the virtual 2-slot buffer overflows with low ages.
  gossip::GossipMessage flood;
  flood.sender = 1;
  flood.period = 0;
  flood.min_buff = 2;
  for (std::uint64_t i = 0; i < 8; ++i) {
    gossip::Event e;
    e.id = EventId{1, i};
    e.age = 1;
    flood.events.push_back(e);
  }
  node->on_gossip(flood, 20);
  EXPECT_LT(node->avg_age(), before);
}

TEST(AdaptiveNodeTest, AllowedRateDecreasesUnderCongestion) {
  auto node = make_node(0, 10);
  gossip::GossipMessage flood;
  flood.sender = 1;
  flood.period = 0;
  flood.min_buff = 2;
  std::uint64_t seq = 0;
  const double initial = node->allowed_rate();
  TimeMs now = 0;
  for (int round = 0; round < 20; ++round) {
    flood.events.clear();
    for (int i = 0; i < 6; ++i) {
      gossip::Event e;
      e.id = EventId{1, seq++};
      e.age = 1;
      flood.events.push_back(e);
    }
    node->on_gossip(flood, now);
    (void)node->on_round(now);
    now += 1000;
    // Keep the bucket drained so the "unused allowance" rule does not fire
    // and attribute the decrease to congestion alone.
    while (node->try_broadcast(payload(), now)) {
    }
  }
  EXPECT_LT(node->allowed_rate(), initial);
}

TEST(AdaptiveNodeTest, UnusedAllowanceDecaysRate) {
  auto node = make_node(0, 10);
  const double initial = node->allowed_rate();
  TimeMs now = 0;
  for (int round = 0; round < 10; ++round) {
    (void)node->on_round(now);  // never broadcasts: bucket stays full
    now += 1000;
  }
  EXPECT_LT(node->allowed_rate(), initial);
}

TEST(AdaptiveNodeTest, SamplePeriodAdvancesWithClock) {
  auto node = make_node(0);
  (void)node->on_round(0);
  EXPECT_EQ(node->sample_period(), 0u);
  (void)node->on_round(4100);
  EXPECT_EQ(node->sample_period(), 2u);
}

TEST(AdaptiveNodeTest, LaterPeriodHeaderFastForwards) {
  auto node = make_node(0, /*max_events=*/100);
  gossip::GossipMessage m;
  m.sender = 1;
  m.period = 9;
  m.min_buff = 33;
  node->on_gossip(m, 10);  // local clock says period 0, peer says 9
  EXPECT_EQ(node->sample_period(), 9u);
  // Skipped periods were filled with the local capacity (100), so the
  // windowed estimate is dominated by the peer's 33.
  EXPECT_EQ(node->min_buff(), 33u);
}

TEST(AdaptiveNodeTest, TwoNodesAgreeOnGroupMinimum) {
  auto a = make_node(0, 100);
  auto b = make_node(1, 30);
  TimeMs now = 0;
  for (int round = 0; round < 3; ++round) {
    auto out_a = a->on_round(now);
    auto out_b = b->on_round(now);
    b->on_gossip(out_a.message, now + 1);
    a->on_gossip(out_b.message, now + 1);
    now += 1000;
  }
  EXPECT_EQ(a->min_buff(), 30u);
  EXPECT_EQ(b->min_buff(), 30u);
}

TEST(AdaptiveNodeTest, BroadcastsStillDeliverLocally) {
  auto node = make_node(0);
  int deliveries = 0;
  node->set_deliver_handler([&](const gossip::Event&, TimeMs) {
    ++deliveries;
  });
  ASSERT_TRUE(node->try_broadcast(payload(), 0));
  EXPECT_EQ(deliveries, 1);
}

}  // namespace
}  // namespace agb::adaptive
