#include "gossip/lpbcast_node.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <vector>

#include "membership/full_membership.h"
#include "membership/partial_view.h"

namespace agb::gossip {
namespace {

std::unique_ptr<membership::FullMembership> directory(NodeId self,
                                                      std::size_t n,
                                                      std::uint64_t seed) {
  auto m = std::make_unique<membership::FullMembership>(self, Rng(seed));
  for (NodeId id = 0; id < n; ++id) {
    if (id != self) m->add(id);
  }
  return m;
}

GossipParams small_params() {
  GossipParams p;
  p.fanout = 3;
  p.gossip_period = 1000;
  p.max_events = 5;
  p.max_event_ids = 100;
  p.max_age = 10;
  return p;
}

Payload payload() { return make_payload({1, 2, 3}); }

/// The message a round put on the wire.
GossipMessage sent(const LpbcastNode::Outgoing& out) {
  auto decoded = GossipMessage::decode(out.wire);
  EXPECT_TRUE(decoded.has_value());
  return decoded.value_or(GossipMessage{});
}

TEST(LpbcastNodeTest, BroadcastDeliversLocallyOnce) {
  LpbcastNode node(0, small_params(), directory(0, 10, 1), Rng(2));
  std::vector<EventId> delivered;
  node.set_deliver_handler(
      [&](const Event& e, TimeMs) { delivered.push_back(e.id); });
  const EventId id = node.broadcast(payload(), 0);
  ASSERT_EQ(delivered.size(), 1u);
  EXPECT_EQ(delivered[0], id);
  EXPECT_EQ(node.counters().broadcasts, 1u);
  EXPECT_EQ(node.counters().deliveries, 1u);
}

TEST(LpbcastNodeTest, BroadcastAssignsSequentialIds) {
  LpbcastNode node(7, small_params(), directory(7, 10, 1), Rng(2));
  const EventId a = node.broadcast(payload(), 0);
  const EventId b = node.broadcast(payload(), 0);
  EXPECT_EQ(a.origin, 7u);
  EXPECT_EQ(b.origin, 7u);
  EXPECT_EQ(b.sequence, a.sequence + 1);
}

TEST(LpbcastNodeTest, OnRoundEmitsBufferToFanoutTargets) {
  LpbcastNode node(0, small_params(), directory(0, 10, 1), Rng(2));
  node.broadcast(payload(), 0);
  auto out = node.on_round(1000);
  EXPECT_EQ(out.targets.size(), 3u);
  EXPECT_EQ(out.message.sender, 0u);
  EXPECT_EQ(out.message.round, 1u);
  const GossipMessage wire = sent(out);
  ASSERT_EQ(wire.events.size(), 1u);
  EXPECT_EQ(wire.events[0].age, 1u);  // one round of aging
  for (NodeId t : out.targets) EXPECT_NE(t, 0u);
}

// A round owns its wire image: a later round, and the buffer changes
// between them, leave an earlier round's bytes as they were encoded.
TEST(LpbcastNodeTest, EachRoundOwnsItsWireImage) {
  LpbcastNode node(0, small_params(), directory(0, 10, 1), Rng(2));
  const EventId first = node.broadcast(payload(), 0);
  auto one = node.on_round(1000);
  const EventId second = node.broadcast(make_payload({4, 5}), 1000);
  auto two = node.on_round(2000);

  const GossipMessage early = sent(one);
  EXPECT_EQ(early.round, 1u);
  ASSERT_EQ(early.events.size(), 1u);
  EXPECT_EQ(early.events[0].id, first);
  EXPECT_EQ(early.events[0].age, 1u);
  EXPECT_EQ(early.events[0].payload, payload());
  const GossipMessage late = sent(two);
  EXPECT_EQ(late.round, 2u);
  ASSERT_EQ(late.events.size(), 2u);  // insertion order
  EXPECT_EQ(late.events[0].id, first);
  EXPECT_EQ(late.events[0].age, 2u);
  EXPECT_EQ(late.events[1].id, second);
  EXPECT_EQ(late.events[1].payload, make_payload({4, 5}));

  const Multicast batch = std::move(one).to_multicast(0);
  EXPECT_EQ(batch.targets.size(), 3u);
  EXPECT_EQ(GossipMessage::decode(batch.payload)->events.size(), 1u);
}

TEST(LpbcastNodeTest, BaseHeaderAdvertisesOwnCapacity) {
  LpbcastNode node(0, small_params(), directory(0, 10, 1), Rng(2));
  auto out = node.on_round(1000);
  EXPECT_EQ(out.message.min_buff,
            static_cast<std::uint32_t>(small_params().max_events));
}

TEST(LpbcastNodeTest, RoundCounterIncrements) {
  LpbcastNode node(0, small_params(), directory(0, 10, 1), Rng(2));
  EXPECT_EQ(node.round(), 0u);
  (void)node.on_round(0);
  (void)node.on_round(1000);
  EXPECT_EQ(node.round(), 2u);
  EXPECT_EQ(node.counters().rounds, 2u);
}

TEST(LpbcastNodeTest, OnGossipDeliversNovelEvents) {
  LpbcastNode node(1, small_params(), directory(1, 10, 1), Rng(3));
  std::vector<EventId> delivered;
  node.set_deliver_handler(
      [&](const Event& e, TimeMs) { delivered.push_back(e.id); });
  GossipMessage m;
  m.sender = 0;
  Event e;
  e.id = EventId{0, 0};
  e.age = 2;
  m.events = {e};
  node.on_gossip(m, 10);
  ASSERT_EQ(delivered.size(), 1u);
  EXPECT_EQ(delivered[0], (EventId{0, 0}));
  EXPECT_EQ(node.counters().events_received, 1u);
  EXPECT_TRUE(node.events().contains(EventId{0, 0}));
}

TEST(LpbcastNodeTest, DuplicatesSuppressedAndAgeBumped) {
  LpbcastNode node(1, small_params(), directory(1, 10, 1), Rng(3));
  int deliveries = 0;
  node.set_deliver_handler([&](const Event&, TimeMs) { ++deliveries; });
  GossipMessage m;
  m.sender = 0;
  Event e;
  e.id = EventId{0, 0};
  e.age = 2;
  m.events = {e};
  node.on_gossip(m, 10);
  m.events[0].age = 6;
  node.on_gossip(m, 20);
  EXPECT_EQ(deliveries, 1);
  EXPECT_EQ(node.counters().duplicates, 1u);
  ASSERT_EQ(node.events().size(), 1u);
  EXPECT_EQ(node.events().find(EventId{0, 0})->age, 6u);
}

TEST(LpbcastNodeTest, OverflowDropsOldestAndReportsReason) {
  LpbcastNode node(1, small_params(), directory(1, 10, 1), Rng(3));
  std::vector<std::pair<EventId, DropReason>> drops;
  node.set_drop_handler([&](const Event& e, DropReason r, TimeMs) {
    drops.emplace_back(e.id, r);
  });
  GossipMessage m;
  m.sender = 0;
  for (std::uint64_t i = 0; i < 7; ++i) {  // capacity is 5
    Event e;
    e.id = EventId{0, i};
    e.age = static_cast<std::uint32_t>(i);  // later events are older
    m.events.push_back(e);
  }
  node.on_gossip(m, 10);
  EXPECT_EQ(node.events().size(), 5u);
  ASSERT_EQ(drops.size(), 2u);
  EXPECT_EQ(drops[0].second, DropReason::kBufferOverflow);
  EXPECT_EQ(drops[0].first, (EventId{0, 6}));  // oldest (age 6) evicted first
  EXPECT_EQ(drops[1].first, (EventId{0, 5}));
  EXPECT_EQ(node.counters().drops_overflow, 2u);
  EXPECT_GT(node.counters().overflow_drop_age.mean(), 0.0);
}

TEST(LpbcastNodeTest, AgeLimitPurgeOnRound) {
  GossipParams params = small_params();
  params.max_age = 2;
  LpbcastNode node(0, params, directory(0, 10, 1), Rng(3));
  std::vector<DropReason> reasons;
  node.set_drop_handler(
      [&](const Event&, DropReason r, TimeMs) { reasons.push_back(r); });
  node.broadcast(payload(), 0);
  (void)node.on_round(0);     // age 1
  (void)node.on_round(1000);  // age 2
  EXPECT_EQ(node.events().size(), 1u);
  (void)node.on_round(2000);  // age 3 > 2: purged
  EXPECT_EQ(node.events().size(), 0u);
  ASSERT_EQ(reasons.size(), 1u);
  EXPECT_EQ(reasons[0], DropReason::kAgeLimit);
  EXPECT_EQ(node.counters().drops_age_limit, 1u);
}

TEST(LpbcastNodeTest, SetMaxEventsEvictsImmediately) {
  LpbcastNode node(0, small_params(), directory(0, 10, 1), Rng(3));
  for (int i = 0; i < 5; ++i) node.broadcast(payload(), 0);
  EXPECT_EQ(node.events().size(), 5u);
  node.set_max_events(2, 100);
  EXPECT_EQ(node.events().size(), 2u);
  EXPECT_EQ(node.params().max_events, 2u);
  EXPECT_EQ(node.counters().drops_overflow, 3u);
}

TEST(LpbcastNodeTest, EventIdDigestBoundsDuplicateMemory) {
  GossipParams params = small_params();
  params.max_event_ids = 3;
  params.max_events = 100;
  LpbcastNode node(1, params, directory(1, 10, 1), Rng(3));
  GossipMessage m;
  m.sender = 0;
  for (std::uint64_t i = 0; i < 5; ++i) {
    Event e;
    e.id = EventId{0, i};
    m.events = {e};
    node.on_gossip(m, static_cast<TimeMs>(i));
  }
  EXPECT_LE(node.event_ids().size(), 3u);
}

TEST(LpbcastNodeTest, RebroadcastOfForgottenIdRedelivers) {
  // Documents the known lpbcast behaviour: once an id ages out of both the
  // digest and the buffer, a stray copy is treated as novel again.
  // Experiments size the digest to make this negligible.
  GossipParams params = small_params();
  params.max_events = 1;
  params.max_event_ids = 1;
  LpbcastNode node(1, params, directory(1, 10, 1), Rng(3));
  int deliveries = 0;
  node.set_deliver_handler([&](const Event&, TimeMs) { ++deliveries; });
  GossipMessage m;
  m.sender = 0;
  Event a, b;
  a.id = EventId{0, 0};
  b.id = EventId{0, 1};
  m.events = {a};
  node.on_gossip(m, 0);
  m.events = {b};  // evicts a's id from the digest and a from the buffer
  node.on_gossip(m, 1);
  ASSERT_FALSE(node.events().contains(a.id));
  m.events = {a};  // a is "novel" again
  node.on_gossip(m, 2);
  EXPECT_EQ(deliveries, 3);
}

TEST(LpbcastNodeTest, BufferedDuplicateForgottenByDigestIsNotRedelivered) {
  // The buffer answers for the ids it holds: a copy of a buffered event
  // whose id the digest has already evicted is a duplicate. It adopts the
  // higher age and is neither delivered nor counted as received again.
  // With recovery on, a peer advertising that id flags nothing missing, so
  // no repair is requested and nothing is abandoned.
  for (const bool recovery : {false, true}) {
    SCOPED_TRACE(recovery ? "recovery on" : "recovery off");
    GossipParams params = small_params();
    params.max_event_ids = 1;
    params.recovery.enabled = recovery;
    params.recovery.repair_after_rounds = 1;
    params.recovery.give_up_after_rounds = 3;
    LpbcastNode node(1, params, directory(1, 10, 1), Rng(3));
    int deliveries = 0;
    node.set_deliver_handler([&](const Event&, TimeMs) { ++deliveries; });
    GossipMessage m;
    m.sender = 0;
    Event a, b;
    a.id = EventId{0, 0};
    b.id = EventId{0, 1};
    m.events = {a, b};  // b's id evicts a's from the digest
    node.on_gossip(m, 0);
    ASSERT_FALSE(node.event_ids().contains(a.id));
    ASSERT_TRUE(node.events().contains(a.id));
    GossipMessage digest_only;
    digest_only.sender = 2;
    digest_only.seen_ids = {a.id};
    node.on_gossip(digest_only, 1);
    a.age = 7;
    m.events = {a};
    node.on_gossip(m, 2);
    EXPECT_EQ(deliveries, 2);
    EXPECT_EQ(node.counters().events_received, 2u);
    EXPECT_EQ(node.counters().duplicates, 1u);
    ASSERT_NE(node.events().find(a.id), nullptr);
    EXPECT_EQ(node.events().find(a.id)->age, 7u);
    for (int round = 0; round < 4; ++round) {
      (void)node.on_round(1000 * (round + 1));
      EXPECT_TRUE(node.take_outbox().empty());
    }
    EXPECT_EQ(node.counters().missing_detected, 0u);
    EXPECT_EQ(node.counters().repair_requests, 0u);
    EXPECT_EQ(node.counters().missing_abandoned, 0u);
  }
}

TEST(LpbcastNodeTest, GossipsReceivedCounter) {
  LpbcastNode node(1, small_params(), directory(1, 10, 1), Rng(3));
  GossipMessage m;
  m.sender = 0;
  node.on_gossip(m, 0);
  node.on_gossip(m, 1);
  EXPECT_EQ(node.counters().gossips_received, 2u);
}

TEST(LpbcastNodeTest, PartialViewDigestsFlowThroughGossip) {
  membership::PartialViewParams view_params;
  view_params.max_view = 8;
  view_params.max_subs = 8;
  view_params.max_unsubs = 8;
  auto view = std::make_unique<membership::PartialView>(1, view_params,
                                                        Rng(4));
  view->add(2);
  LpbcastNode node(1, small_params(), std::move(view), Rng(5));

  // Outgoing gossip carries the node's subscription.
  auto out = node.on_round(0);
  EXPECT_NE(std::find(out.message.membership.subs.begin(),
                      out.message.membership.subs.end(), 1u),
            out.message.membership.subs.end());

  // Incoming digests extend the view (sender 0 and subscription 9).
  GossipMessage m;
  m.sender = 0;
  m.membership.subs = {9};
  node.on_gossip(m, 10);
  EXPECT_TRUE(node.membership().contains(0));
  EXPECT_TRUE(node.membership().contains(9));
}

TEST(LpbcastNodeTest, FanoutLargerThanMembershipSendsToAll) {
  GossipParams params = small_params();
  params.fanout = 50;
  LpbcastNode node(0, params, directory(0, 4, 1), Rng(3));
  auto out = node.on_round(0);
  std::set<NodeId> targets(out.targets.begin(), out.targets.end());
  EXPECT_EQ(targets, (std::set<NodeId>{1, 2, 3}));
}

}  // namespace
}  // namespace agb::gossip
