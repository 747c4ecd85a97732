#include "gossip/message.h"

#include <gtest/gtest.h>

#include "common/rng.h"

namespace agb::gossip {
namespace {

GossipMessage sample_message() {
  GossipMessage m;
  m.sender = 12;
  m.round = 345;
  m.period = 7;
  m.min_buff = 60;
  m.membership.subs = {1, 2, 3};
  m.membership.unsubs = {4};
  Event e1;
  e1.id = EventId{12, 0};
  e1.age = 3;
  e1.created_at = 1234;
  e1.payload = make_payload({0xde, 0xad});
  Event e2;
  e2.id = EventId{9, 77};
  e2.age = 0;
  e2.created_at = -5;  // negative times must survive the codec
  m.events = {e1, e2};
  membership::MemberRecord r;
  r.node = 7;
  r.revision = 2;
  r.heartbeat = 900;
  r.state = membership::LivenessState::kSuspect;
  r.binding = {0x0a000001, 9100};
  m.member_records = {r};
  return m;
}

TEST(MessageCodecTest, RoundTripPreservesAllFields) {
  const auto original = sample_message();
  auto decoded = GossipMessage::decode(original.encode());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->sender, 12u);
  EXPECT_EQ(decoded->round, 345u);
  EXPECT_EQ(decoded->period, 7u);
  EXPECT_EQ(decoded->min_buff, 60u);
  EXPECT_EQ(decoded->membership.subs, (std::vector<NodeId>{1, 2, 3}));
  EXPECT_EQ(decoded->membership.unsubs, (std::vector<NodeId>{4}));
  ASSERT_EQ(decoded->events.size(), 2u);
  EXPECT_EQ(decoded->events[0].id, (EventId{12, 0}));
  EXPECT_EQ(decoded->events[0].age, 3u);
  EXPECT_EQ(decoded->events[0].created_at, 1234);
  ASSERT_FALSE(decoded->events[0].payload.empty());
  EXPECT_EQ(decoded->events[0].payload,
            (std::vector<std::uint8_t>{0xde, 0xad}));
  EXPECT_EQ(decoded->events[1].id, (EventId{9, 77}));
  EXPECT_EQ(decoded->events[1].created_at, -5);
  ASSERT_EQ(decoded->member_records.size(), 1u);
  EXPECT_EQ(decoded->member_records[0].node, 7u);
  EXPECT_EQ(decoded->member_records[0].revision, 2u);
  EXPECT_EQ(decoded->member_records[0].heartbeat, 900u);
  EXPECT_EQ(decoded->member_records[0].state,
            membership::LivenessState::kSuspect);
  EXPECT_EQ(decoded->member_records[0].binding,
            (membership::EndpointBinding{0x0a000001, 9100}));
}

TEST(MessageCodecTest, EmptyMessageRoundTrips) {
  GossipMessage m;
  m.sender = 1;
  auto decoded = GossipMessage::decode(m.encode());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(decoded->events.empty());
  EXPECT_TRUE(decoded->membership.subs.empty());
}

TEST(MessageCodecTest, EmptyPayloadDecodesAsNull) {
  GossipMessage m;
  m.sender = 1;
  Event e;
  e.id = EventId{1, 1};
  e.payload = make_payload({});  // empty payload == no payload on the wire
  m.events = {e};
  auto decoded = GossipMessage::decode(m.encode());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->events[0].payload.data(), nullptr);
  EXPECT_EQ(decoded->events[0].payload.size(), 0u);
}

TEST(MessageCodecTest, DecodedPayloadsAliasTheDatagram) {
  const auto original = sample_message();
  const SharedBytes datagram = original.encode_shared();
  auto decoded = GossipMessage::decode(datagram);
  ASSERT_TRUE(decoded.has_value());
  const SharedBytes& payload = decoded->events[0].payload;
  ASSERT_EQ(payload.size(), 2u);
  EXPECT_GE(payload.data(), datagram.data());
  EXPECT_LE(payload.data() + payload.size(), datagram.data() + datagram.size());
  EXPECT_EQ(payload, original.events[0].payload);
}

TEST(MessageCodecTest, WrongMagicRejected) {
  auto bytes = sample_message().encode();
  bytes[0] ^= 0xff;
  EXPECT_FALSE(GossipMessage::decode(bytes).has_value());
}

TEST(MessageCodecTest, WrongVersionRejected) {
  auto bytes = sample_message().encode();
  bytes[2] = kWireVersion + 1;
  EXPECT_FALSE(GossipMessage::decode(bytes).has_value());
}

TEST(MessageCodecTest, WrongTypeRejected) {
  auto bytes = sample_message().encode();
  bytes[3] = 0x77;
  EXPECT_FALSE(GossipMessage::decode(bytes).has_value());
}

TEST(MessageCodecTest, EveryTruncationFailsCleanly) {
  // Chopping the message at any byte boundary must produce nullopt — never
  // a crash, never a bogus partial decode. One boundary is special: the
  // member_records section is tail-optional (a pre-membership peer's
  // message simply ends before it), so cutting exactly there yields the
  // same message with an empty digest — and nothing else.
  GossipMessage without_digest = sample_message();
  without_digest.member_records.clear();
  const std::size_t tail_boundary = without_digest.encode().size();
  auto bytes = sample_message().encode();
  ASSERT_LT(tail_boundary, bytes.size());
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    std::span<const std::uint8_t> prefix(bytes.data(), len);
    auto decoded = GossipMessage::decode(SharedBytes::copy_of(prefix));
    if (len == tail_boundary) {
      ASSERT_TRUE(decoded.has_value());
      EXPECT_TRUE(decoded->member_records.empty());
      EXPECT_EQ(decoded->events.size(), sample_message().events.size());
    } else {
      EXPECT_FALSE(decoded.has_value()) << "prefix length " << len;
    }
  }
}

TEST(MessageCodecTest, TrailingGarbageRejected) {
  auto bytes = sample_message().encode();
  bytes.push_back(0x00);
  EXPECT_FALSE(GossipMessage::decode(bytes).has_value());
}

TEST(MessageCodecTest, ForgedHugeEventCountRejected) {
  // Craft a header claiming 2^40 events with no bytes behind it.
  const auto bytes = write_counted([](auto& w) {
    w.u16(kWireMagic);
    w.u8(kWireVersion);
    w.u8(1);
    w.u32(1);       // sender
    w.varint(1);    // round
    w.varint(0);    // period
    w.varint(0);    // min_buff
    w.varint(0);    // subs
    w.varint(0);    // unsubs
    w.varint(1ull << 40);  // events: absurd
  });
  EXPECT_FALSE(GossipMessage::decode(bytes).has_value());
}

TEST(MessageCodecTest, ForgedHugeSubsCountRejected) {
  const auto bytes = write_counted([](auto& w) {
    w.u16(kWireMagic);
    w.u8(kWireVersion);
    w.u8(1);
    w.u32(1);
    w.varint(1);
    w.varint(0);
    w.varint(0);
    w.varint(1ull << 40);  // subs: absurd
  });
  EXPECT_FALSE(GossipMessage::decode(bytes).has_value());
}

TEST(MessageCodecTest, RandomBytesNeverCrash) {
  Rng rng(1234);
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<std::uint8_t> junk(rng.next_below(64));
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.next());
    (void)GossipMessage::decode(junk);  // must not crash; result irrelevant
  }
}

TEST(MessageCodecTest, MutatedValidMessageNeverCrashes) {
  // Single-byte mutations of a valid wire image: decode either fails or
  // yields *some* message, but never crashes or over-allocates.
  auto bytes = sample_message().encode();
  Rng rng(99);
  for (int trial = 0; trial < 1000; ++trial) {
    auto copy = bytes;
    const auto pos = static_cast<std::size_t>(rng.next_below(copy.size()));
    copy[pos] = static_cast<std::uint8_t>(rng.next());
    (void)GossipMessage::decode(copy);
  }
}

/// A random well-formed message: min_set, subs, events with and without
/// payloads, seen_ids and member records, each possibly empty.
GossipMessage random_message(Rng& rng) {
  GossipMessage m;
  m.sender = static_cast<NodeId>(rng.next_below(1000));
  m.round = rng.next_below(1 << 20);
  m.period = rng.next_below(1 << 16);
  m.min_buff = static_cast<std::uint32_t>(rng.next_below(1 << 16));
  const auto min_set = rng.next_below(4);
  for (std::uint64_t i = 0; i < min_set; ++i) {
    m.min_set.push_back({static_cast<NodeId>(rng.next_below(100)),
                         static_cast<std::uint32_t>(rng.next_below(500))});
  }
  const auto subs = rng.next_below(5);
  for (std::uint64_t i = 0; i < subs; ++i) {
    m.membership.subs.push_back(static_cast<NodeId>(rng.next_below(100)));
  }
  const auto events = rng.next_below(20);
  for (std::uint64_t i = 0; i < events; ++i) {
    Event e;
    e.id = EventId{static_cast<NodeId>(rng.next_below(100)), rng.next()};
    e.age = static_cast<std::uint32_t>(rng.next_below(30));
    e.created_at = static_cast<TimeMs>(rng.next()) / 2;
    e.stream = static_cast<std::uint32_t>(rng.next_below(8));
    e.supersedes = rng.bernoulli(0.3);
    if (rng.bernoulli(0.7)) {
      std::vector<std::uint8_t> payload(1 + rng.next_below(40));
      for (auto& b : payload) b = static_cast<std::uint8_t>(rng.next());
      e.payload = make_payload(std::move(payload));
    }
    m.events.push_back(std::move(e));
  }
  const auto seen = rng.next_below(10);
  for (std::uint64_t i = 0; i < seen; ++i) {
    m.seen_ids.push_back(
        EventId{static_cast<NodeId>(rng.next_below(100)), rng.next()});
  }
  const auto members = rng.next_below(8);
  for (std::uint64_t i = 0; i < members; ++i) {
    membership::MemberRecord r;
    r.node = static_cast<NodeId>(rng.next_below(100));
    r.revision = rng.next();  // full-width varints must survive
    r.heartbeat = rng.next_below(1ull << 40);
    r.state = static_cast<membership::LivenessState>(rng.next_below(3));
    if (rng.bernoulli(0.5)) {
      r.binding = {static_cast<std::uint32_t>(rng.next()),
                   static_cast<std::uint16_t>(1 + rng.next_below(65535))};
    }
    m.member_records.push_back(r);
  }
  return m;
}

TEST(MessageCodecTest, RandomizedMessagesRoundTripExactly) {
  // Property: any well-formed message survives encode+decode bit-exactly.
  Rng rng(20260612);
  for (int trial = 0; trial < 300; ++trial) {
    const GossipMessage m = random_message(rng);

    auto decoded = GossipMessage::decode(m.encode());
    ASSERT_TRUE(decoded.has_value()) << "trial " << trial;
    // Re-encoding the decoded message must reproduce identical bytes
    // (canonical encoding), which subsumes field-by-field equality.
    EXPECT_EQ(decoded->encode(), m.encode()) << "trial " << trial;
  }
}

/// The wire format written independently of the codec, one push_back per
/// byte: the reference the codec's block writer must match.
class ReferenceEncoder {
 public:
  std::vector<std::uint8_t> gossip(const GossipMessage& m) {
    preamble(MessageType::kGossip, m.sender);
    varint(m.round);
    varint(m.period);
    varint(m.min_buff);
    varint(m.min_set.size());
    for (const MinSetEntry& entry : m.min_set) {
      le(entry.node, 4);
      varint(entry.capacity);
    }
    varint(m.membership.subs.size());
    for (NodeId node : m.membership.subs) le(node, 4);
    varint(m.membership.unsubs.size());
    for (NodeId node : m.membership.unsubs) le(node, 4);
    events(m.events);
    ids(m.seen_ids);
    if (!m.member_records.empty()) {
      varint(m.member_records.size());
      for (const membership::MemberRecord& r : m.member_records) {
        le(r.node, 4);
        varint(r.revision);
        varint(r.heartbeat);
        le(static_cast<std::uint8_t>(r.state), 1);
        le(r.binding.host, 4);
        le(r.binding.port, 2);
      }
    }
    return std::move(out_);
  }

  std::vector<std::uint8_t> request(const RepairRequest& m) {
    preamble(MessageType::kRepairRequest, m.sender);
    ids(m.ids);
    return std::move(out_);
  }

  std::vector<std::uint8_t> reply(const RepairReply& m) {
    preamble(MessageType::kRepairReply, m.sender);
    events(m.events);
    return std::move(out_);
  }

 private:
  void le(std::uint64_t v, int width) {
    for (int i = 0; i < width; ++i) {
      out_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }
  void varint(std::uint64_t v) {
    while (v >= 0x80) {
      out_.push_back(static_cast<std::uint8_t>(v) | 0x80);
      v >>= 7;
    }
    out_.push_back(static_cast<std::uint8_t>(v));
  }
  void preamble(MessageType type, NodeId sender) {
    le(kWireMagic, 2);
    le(kWireVersion, 1);
    le(static_cast<std::uint8_t>(type), 1);
    le(sender, 4);
  }
  void events(const std::vector<Event>& events) {
    varint(events.size());
    for (const Event& e : events) {
      le(e.id.origin, 4);
      varint(e.id.sequence);
      varint(e.age);
      le(static_cast<std::uint64_t>(e.created_at), 8);
      varint(e.stream);
      le(e.supersedes ? 1 : 0, 1);
      varint(e.payload.size());
      for (std::uint8_t b : e.payload) out_.push_back(b);
    }
  }
  void ids(const std::vector<EventId>& ids) {
    varint(ids.size());
    for (const EventId& id : ids) {
      le(id.origin, 4);
      varint(id.sequence);
    }
  }

  std::vector<std::uint8_t> out_;
};

/// A varint field value: the edges 0, 127, 128, 2^32 and 2^64 - 1 half the
/// time, any width otherwise.
std::uint64_t varint_value(Rng& rng) {
  constexpr std::uint64_t kEdges[] = {0, 127, 128, 1ull << 32, ~0ull};
  return rng.bernoulli(0.5) ? kEdges[rng.next_below(5)]
                            : rng.next() >> rng.next_below(64);
}

/// Seeded random gossip, repair-request and repair-reply messages whose
/// varint fields sit on the one-, two-, five- and ten-byte edges, with
/// empty and 1 KiB payloads, member records and seen ids: each image the
/// codec writes whole into its block (encode_shared, encode_with, encode)
/// equals the reference's byte-at-a-time image.
TEST(MessageCodecTest, BlockWriterMatchesByteAtATimeReference) {
  const std::vector<std::uint8_t> kib(1024, 0x3c);
  Rng rng(20261020);
  auto event = [&] {
    Event e;
    e.id = EventId{static_cast<NodeId>(rng.next()), varint_value(rng)};
    e.age = static_cast<std::uint32_t>(varint_value(rng));
    e.created_at = static_cast<TimeMs>(rng.next());
    e.stream = static_cast<std::uint32_t>(varint_value(rng));
    e.supersedes = rng.bernoulli(0.3);
    const auto payload = rng.next_below(3);
    if (payload == 1) e.payload = make_payload(kib);
    if (payload == 2) e.payload = make_payload({1, 2, 3});
    return e;
  };
  for (int trial = 0; trial < 300; ++trial) {
    GossipMessage m = random_message(rng);
    m.round = varint_value(rng);
    m.period = varint_value(rng);
    m.min_buff = static_cast<std::uint32_t>(varint_value(rng));
    for (auto& entry : m.min_set) {
      entry.capacity = static_cast<std::uint32_t>(varint_value(rng));
    }
    for (auto& e : m.events) e = event();
    for (auto& id : m.seen_ids) id.sequence = varint_value(rng);
    for (auto& r : m.member_records) {
      r.revision = varint_value(rng);
      r.heartbeat = varint_value(rng);
    }
    const std::vector<std::uint8_t> expected = ReferenceEncoder().gossip(m);
    EXPECT_EQ(m.encode(), expected) << "trial " << trial;
    EXPECT_EQ(m.encode_shared(), SharedBytes(expected)) << "trial " << trial;
    std::vector<const Event*> pointers;
    for (const Event& e : m.events) pointers.push_back(&e);
    GossipMessage header = m;
    header.events.clear();
    EXPECT_EQ(header.encode_with(pointers), SharedBytes(expected))
        << "trial " << trial;

    RepairRequest request;
    request.sender = static_cast<NodeId>(rng.next());
    const auto ids = rng.next_below(12);
    for (std::uint64_t i = 0; i < ids; ++i) {
      const auto origin = static_cast<NodeId>(rng.next());
      request.ids.push_back({origin, varint_value(rng)});
    }
    const std::vector<std::uint8_t> request_image =
        ReferenceEncoder().request(request);
    EXPECT_EQ(request.encode(), request_image) << "trial " << trial;
    EXPECT_EQ(request.encode_shared(), SharedBytes(request_image))
        << "trial " << trial;

    RepairReply reply;
    reply.sender = static_cast<NodeId>(rng.next());
    const auto events = rng.next_below(6);
    for (std::uint64_t i = 0; i < events; ++i) reply.events.push_back(event());
    const std::vector<std::uint8_t> reply_image =
        ReferenceEncoder().reply(reply);
    EXPECT_EQ(reply.encode(), reply_image) << "trial " << trial;
    EXPECT_EQ(reply.encode_shared(), SharedBytes(reply_image))
        << "trial " << trial;
  }
}

// encode() sizes its buffer with encoded_size(), which runs the same write
// pass through a counting writer: the two must agree to the byte.
TEST(MessageCodecTest, EncodedSizeCountsEncodeExactly) {
  Rng rng(20261018);
  for (int trial = 0; trial < 300; ++trial) {
    GossipMessage m = random_message(rng);
    const auto unsubs = rng.next_below(5);
    for (std::uint64_t i = 0; i < unsubs; ++i) {
      m.membership.unsubs.push_back(static_cast<NodeId>(rng.next_below(100)));
    }
    EXPECT_EQ(m.encoded_size(), m.encode().size()) << "trial " << trial;
  }
}

TEST(MessageCodecTest, EncodeIsDeterministic) {
  const auto a = sample_message().encode();
  const auto b = sample_message().encode();
  EXPECT_EQ(a, b);
}

TEST(MessageCodecTest, RepairMessagesSurviveMutationFuzz) {
  RepairRequest request;
  request.sender = 4;
  for (std::uint64_t i = 0; i < 20; ++i) request.ids.push_back({1, i});
  RepairReply reply;
  reply.sender = 4;
  for (std::uint64_t i = 0; i < 10; ++i) {
    Event e;
    e.id = EventId{2, i};
    e.payload = make_payload({1, 2, 3});
    reply.events.push_back(e);
  }
  Rng rng(321);
  for (const auto& bytes : {request.encode(), reply.encode()}) {
    for (int trial = 0; trial < 500; ++trial) {
      auto copy = bytes;
      const auto pos = static_cast<std::size_t>(rng.next_below(copy.size()));
      copy[pos] = static_cast<std::uint8_t>(rng.next());
      (void)decode_any(copy);  // must never crash or over-allocate
    }
    // Truncations too.
    for (std::size_t len = 0; len < bytes.size(); ++len) {
      (void)decode_any(SharedBytes::copy_of(
          std::span<const std::uint8_t>(bytes.data(), len)));
    }
  }
}

TEST(MessageCodecTest, MinSetTruncationFailsCleanly) {
  GossipMessage m;
  m.sender = 1;
  m.min_set = {{2, 30}, {3, 60}};
  auto bytes = m.encode();
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_FALSE(GossipMessage::decode(SharedBytes::copy_of(
                                           std::span<const std::uint8_t>(
                                               bytes.data(), len)))
                     .has_value());
  }
}

TEST(MessageCodecTest, ForgedHugeMemberRecordCountRejected) {
  // An empty message omits the tail member_records section entirely; splice
  // an absurd count varint onto the tail and the plausibility check must
  // reject it.
  GossipMessage m;
  m.sender = 1;
  auto bytes = m.encode();
  for (std::uint8_t b : write_counted([](auto& w) { w.varint(1ull << 40); })) {
    bytes.push_back(b);
  }
  EXPECT_FALSE(GossipMessage::decode(bytes).has_value());
}

TEST(MessageCodecTest, UnknownLivenessStateByteRejected) {
  auto bytes = sample_message().encode();
  // The single member record trails the message: state byte, then the u32
  // host and u16 port.
  ASSERT_GE(bytes.size(), 7u);
  bytes[bytes.size() - 7] = 3;  // one past kDown
  EXPECT_FALSE(GossipMessage::decode(bytes).has_value());
}

TEST(MessageCodecTest, MemberRecordWireCostMatchesEncodedRecordSize) {
  // The digest budget in membership/ is enforced against
  // encoded_record_size; the codec here is what actually puts records on
  // the wire. Adding records must grow the message by exactly the sum the
  // budget accounted for, plus the section's count varint (one byte for
  // up to 127 records; the empty message omits the section entirely).
  GossipMessage empty;
  empty.sender = 1;
  GossipMessage full = empty;
  std::size_t expected = 0;
  for (std::uint64_t i = 0; i < 5; ++i) {
    membership::MemberRecord r;
    r.node = static_cast<NodeId>(i);
    r.revision = i * 1000;
    r.heartbeat = i * 77;
    r.state = static_cast<membership::LivenessState>(i % 3);
    full.member_records.push_back(r);
    expected += membership::encoded_record_size(r);
  }
  EXPECT_EQ(full.encode().size(), empty.encode().size() + 1 + expected);
}

TEST(MessageCodecTest, LargeEventBatchRoundTrips) {
  GossipMessage m;
  m.sender = 3;
  for (std::uint64_t i = 0; i < 500; ++i) {
    Event e;
    e.id = EventId{static_cast<NodeId>(i % 60), i};
    e.age = static_cast<std::uint32_t>(i % 13);
    e.created_at = static_cast<TimeMs>(i * 7);
    m.events.push_back(e);
  }
  auto decoded = GossipMessage::decode(m.encode());
  ASSERT_TRUE(decoded.has_value());
  ASSERT_EQ(decoded->events.size(), 500u);
  EXPECT_EQ(decoded->events[499].id.sequence, 499u);
}

}  // namespace
}  // namespace agb::gossip
