// Tests for the semantic-obsolescence extension (Pereira et al., paper §5):
// superseded events are purged first under buffer pressure, preserving
// delivery of the messages that still carry meaning.
#include <gtest/gtest.h>

#include <memory>

#include "gossip/event_buffer.h"
#include "gossip/lpbcast_node.h"
#include "gossip/message.h"
#include "membership/full_membership.h"

namespace agb::gossip {
namespace {

Event stream_event(NodeId origin, std::uint64_t seq, std::uint32_t stream,
                   bool supersedes, std::uint32_t age = 0) {
  Event e;
  e.id = EventId{origin, seq};
  e.stream = stream;
  e.supersedes = supersedes;
  e.age = age;
  return e;
}

TEST(PurgeSupersededTest, RemovesEarlierEventsOfSameStream) {
  EventBuffer buf;
  buf.insert(stream_event(1, 0, 7, false));
  buf.insert(stream_event(1, 1, 7, false));
  buf.insert(stream_event(1, 2, 7, true));  // supersedes 0 and 1
  auto removed = buf.purge_superseded();
  ASSERT_EQ(removed.size(), 2u);
  EXPECT_TRUE(buf.contains(EventId{1, 2}));
  EXPECT_FALSE(buf.contains(EventId{1, 0}));
  EXPECT_FALSE(buf.contains(EventId{1, 1}));
}

TEST(PurgeSupersededTest, DifferentStreamsAreIndependent) {
  EventBuffer buf;
  buf.insert(stream_event(1, 0, 7, false));
  buf.insert(stream_event(1, 1, 8, true));  // other stream: no effect on 7
  EXPECT_TRUE(buf.purge_superseded().empty());
  EXPECT_EQ(buf.size(), 2u);
}

TEST(PurgeSupersededTest, DifferentOriginsAreIndependent) {
  EventBuffer buf;
  buf.insert(stream_event(1, 0, 7, false));
  buf.insert(stream_event(2, 5, 7, true));  // other origin, same stream id
  EXPECT_TRUE(buf.purge_superseded().empty());
}

TEST(PurgeSupersededTest, NonSupersedingEventsNeverPurge) {
  EventBuffer buf;
  buf.insert(stream_event(1, 0, 7, false));
  buf.insert(stream_event(1, 1, 7, false));
  EXPECT_TRUE(buf.purge_superseded().empty());
}

TEST(PurgeSupersededTest, SupersederItselfSurvives) {
  EventBuffer buf;
  buf.insert(stream_event(1, 0, 7, true));
  buf.insert(stream_event(1, 1, 7, true));
  auto removed = buf.purge_superseded();
  ASSERT_EQ(removed.size(), 1u);
  EXPECT_EQ(removed[0].id, (EventId{1, 0}));
  EXPECT_TRUE(buf.contains(EventId{1, 1}));
}

TEST(SemanticCodecTest, StreamAndFlagRoundTrip) {
  GossipMessage m;
  m.sender = 1;
  m.events = {stream_event(1, 9, 42, true, 3)};
  auto decoded = GossipMessage::decode(m.encode());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->events[0].stream, 42u);
  EXPECT_TRUE(decoded->events[0].supersedes);
}

TEST(SemanticCodecTest, UnknownFlagBitsRejected) {
  GossipMessage m;
  m.sender = 1;
  m.events = {stream_event(1, 9, 0, false)};
  auto bytes = m.encode();
  // The flags byte is the last byte before the (empty) payload varint and
  // the (empty) seen-ids varint. Find it by decoding offsets is brittle;
  // instead flip every byte and require: decode fails or flags stay 0/1.
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    auto copy = bytes;
    copy[i] = 0xfe;
    auto decoded = GossipMessage::decode(copy);
    if (decoded && !decoded->events.empty()) {
      EXPECT_LE(decoded->events[0].supersedes ? 1 : 0, 1);
    }
  }
}

std::unique_ptr<membership::FullMembership> directory(NodeId self,
                                                      std::size_t n) {
  auto m = std::make_unique<membership::FullMembership>(self, Rng(self + 1));
  for (NodeId id = 0; id < n; ++id) {
    if (id != self) m->add(id);
  }
  return m;
}

TEST(SemanticNodeTest, ObsoleteEvictedBeforeFreshUnderPressure) {
  GossipParams params;
  params.fanout = 2;
  params.gossip_period = 1000;
  params.max_events = 4;
  params.max_event_ids = 100;
  params.max_age = 20;
  params.semantic_purge = true;
  LpbcastNode node(0, params, directory(0, 4), Rng(2));

  // Stream 5: three updates, the last superseding; plus a fresh singleton.
  GossipMessage m;
  m.sender = 1;
  m.events = {stream_event(1, 0, 5, false, 9),   // oldest by age
              stream_event(1, 1, 5, false, 8),
              stream_event(1, 2, 5, true, 1),
              stream_event(2, 0, 0, false, 7),
              stream_event(3, 0, 0, false, 6)};  // 5 events > bound 4
  node.on_gossip(m, 10);

  // The two superseded stream-5 events go first — even though the age-based
  // rule would instead have evicted the age-9 event AND kept a duplicate.
  EXPECT_EQ(node.counters().drops_obsolete, 2u);
  EXPECT_EQ(node.counters().drops_overflow, 0u);
  EXPECT_TRUE(node.events().contains(EventId{1, 2}));
  EXPECT_TRUE(node.events().contains(EventId{2, 0}));
  EXPECT_TRUE(node.events().contains(EventId{3, 0}));
  EXPECT_FALSE(node.events().contains(EventId{1, 0}));
}

TEST(SemanticNodeTest, NoPurgeWhenUnderBound) {
  GossipParams params;
  params.max_events = 10;
  params.semantic_purge = true;
  LpbcastNode node(0, params, directory(0, 4), Rng(2));
  GossipMessage m;
  m.sender = 1;
  m.events = {stream_event(1, 0, 5, false), stream_event(1, 1, 5, true)};
  node.on_gossip(m, 10);
  // Under the bound, obsolete events are left alone (they still help
  // dedupe and can be re-served); semantic purge fires under pressure only.
  EXPECT_EQ(node.counters().drops_obsolete, 0u);
  EXPECT_EQ(node.events().size(), 2u);
}

TEST(SemanticNodeTest, DisabledFlagFallsBackToAgeOrder) {
  GossipParams params;
  params.max_events = 2;
  params.semantic_purge = false;
  LpbcastNode node(0, params, directory(0, 4), Rng(2));
  GossipMessage m;
  m.sender = 1;
  m.events = {stream_event(1, 0, 5, false, 9),
              stream_event(1, 1, 5, true, 1),
              stream_event(2, 0, 0, false, 5)};
  node.on_gossip(m, 10);
  EXPECT_EQ(node.counters().drops_obsolete, 0u);
  EXPECT_EQ(node.counters().drops_overflow, 1u);
  // Oldest-first: the age-9 event went, superseded or not.
  EXPECT_FALSE(node.events().contains(EventId{1, 0}));
}

TEST(SemanticNodeTest, BroadcastOnStreamTagsEvents) {
  GossipParams params;
  params.max_events = 10;
  LpbcastNode node(0, params, directory(0, 4), Rng(2));
  node.broadcast_on_stream(make_payload({1}), 0, /*stream=*/3,
                           /*supersedes=*/true);
  auto out = node.on_round(0);
  const auto wire = GossipMessage::decode(out.wire);
  ASSERT_TRUE(wire.has_value());
  ASSERT_EQ(wire->events.size(), 1u);
  EXPECT_EQ(wire->events[0].stream, 3u);
  EXPECT_TRUE(wire->events[0].supersedes);
}

TEST(SemanticNodeTest, LastValueCachePattern) {
  // A "state stream": every update supersedes; under a 3-slot buffer the
  // stream occupies one slot no matter how fast it updates.
  GossipParams params;
  params.max_events = 3;
  params.semantic_purge = true;
  LpbcastNode node(0, params, directory(0, 4), Rng(2));
  for (int i = 0; i < 20; ++i) {
    node.broadcast_on_stream(make_payload({static_cast<std::uint8_t>(i)}),
                             i * 10, /*stream=*/1, /*supersedes=*/true);
  }
  EXPECT_LE(node.events().size(), 3u);
  EXPECT_TRUE(node.events().contains(EventId{0, 19}));  // newest survives
}

}  // namespace
}  // namespace agb::gossip
