// Fuzz-style robustness tests for the wire codec: whatever arrives off the
// network — truncated, corrupted, forged — decode must answer std::nullopt
// (or std::monostate from decode_any), never throw, never read out of
// bounds, never allocate absurdly. Run under ASan/UBSan in CI for the
// out-of-bounds half of the guarantee.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "common/shared_bytes.h"
#include "fault/fault_plane.h"
#include "gossip/message.h"

namespace agb::gossip {
namespace {

GossipMessage rich_message() {
  GossipMessage m;
  m.sender = 12;
  m.round = 345;
  m.period = 7;
  m.min_buff = 60;
  m.min_set = {{3, 40}, {9, 55}};
  m.membership.subs = {1, 2, 3};
  m.membership.unsubs = {4};
  for (std::uint64_t i = 0; i < 5; ++i) {
    Event e;
    e.id = EventId{static_cast<NodeId>(i), i * 11};
    e.age = static_cast<std::uint32_t>(i);
    e.created_at = static_cast<TimeMs>(1000 + i);
    e.stream = static_cast<std::uint32_t>(i % 2);
    e.payload = make_payload({0xde, 0xad, 0xbe, 0xef});
    m.events.push_back(std::move(e));
  }
  m.seen_ids = {{1, 2}, {3, 4}, {5, 6}};
  membership::MemberRecord record;
  record.node = 9;
  record.revision = 2;
  record.heartbeat = 70;
  record.state = membership::LivenessState::kSuspect;
  record.binding = membership::EndpointBinding{0x0a000001, 9100};
  m.member_records.push_back(record);
  return m;
}

RepairRequest rich_request() {
  RepairRequest r;
  r.sender = 9;
  r.ids = {{1, 2}, {3, 4}};
  return r;
}

RepairReply rich_reply() {
  RepairReply r;
  r.sender = 4;
  Event e;
  e.id = EventId{2, 7};
  e.payload = make_payload({0x01, 0x02});
  r.events.push_back(std::move(e));
  return r;
}

TEST(CodecRobustnessTest, EveryTruncationOfAGossipMessageFailsCleanly) {
  const auto bytes = rich_message().encode();
  ASSERT_TRUE(GossipMessage::decode(bytes).has_value());
  // The member_records section is tail-optional (pre-membership peers just
  // stop before it), so the one cut exactly at its boundary decodes as the
  // same message with an empty digest; every other cut must fail.
  GossipMessage without_digest = rich_message();
  without_digest.member_records.clear();
  const std::size_t tail_boundary = without_digest.encode().size();
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    std::vector<std::uint8_t> prefix(bytes.begin(), bytes.begin() + len);
    if (len == tail_boundary) {
      auto decoded = GossipMessage::decode(prefix);
      ASSERT_TRUE(decoded.has_value());
      EXPECT_TRUE(decoded->member_records.empty());
      continue;
    }
    EXPECT_FALSE(GossipMessage::decode(prefix).has_value()) << "len " << len;
    EXPECT_TRUE(std::holds_alternative<std::monostate>(decode_any(prefix)))
        << "len " << len;
  }
}

TEST(CodecRobustnessTest, EveryTruncationOfRepairMessagesFailsCleanly) {
  for (const auto& bytes : {rich_request().encode(), rich_reply().encode()}) {
    for (std::size_t len = 0; len < bytes.size(); ++len) {
      std::vector<std::uint8_t> prefix(bytes.begin(), bytes.begin() + len);
      EXPECT_TRUE(std::holds_alternative<std::monostate>(decode_any(prefix)))
          << "len " << len;
    }
  }
}

TEST(CodecRobustnessTest, TrailingGarbageIsRejected) {
  for (auto bytes : {rich_message().encode(), rich_request().encode(),
                     rich_reply().encode()}) {
    bytes.push_back(0x00);
    EXPECT_TRUE(std::holds_alternative<std::monostate>(decode_any(bytes)));
  }
}

TEST(CodecRobustnessTest, WrongMagicVersionAndTypeAreRejected) {
  const auto good = rich_message().encode();

  auto bad_magic = good;
  bad_magic[0] ^= 0xff;
  EXPECT_FALSE(GossipMessage::decode(bad_magic).has_value());

  auto bad_version = good;
  bad_version[2] = kWireVersion + 1;
  EXPECT_FALSE(GossipMessage::decode(bad_version).has_value());
  EXPECT_TRUE(
      std::holds_alternative<std::monostate>(decode_any(bad_version)));

  auto bad_type = good;
  bad_type[3] = 0x77;  // no such MessageType
  EXPECT_TRUE(std::holds_alternative<std::monostate>(decode_any(bad_type)));

  // A gossip frame handed to the wrong decoder must fail the type check.
  EXPECT_FALSE(RepairRequest::decode(good).has_value());
  EXPECT_FALSE(RepairReply::decode(good).has_value());
}

// A forged count must neither allocate terabytes nor walk off the buffer.
TEST(CodecRobustnessTest, OverlongCountsAreRejectedWithoutHugeAllocation) {
  auto bytes = write_counted([](auto& w) {
    w.u16(kWireMagic);
    w.u8(kWireVersion);
    w.u8(1);  // kGossip
    w.u32(12);
    w.varint(1);  // round
    w.varint(1);  // period
    w.varint(1);  // min_buff
    w.varint(0xffff'ffff'ffffull);  // min_set count: absurd
  });
  EXPECT_FALSE(GossipMessage::decode(bytes).has_value());

  // Same forged count on the event-ids of a repair request.
  auto request_bytes = write_counted([](auto& r) {
    r.u16(kWireMagic);
    r.u8(kWireVersion);
    r.u8(2);  // kRepairRequest
    r.u32(9);
    r.varint(0x7fff'ffff'ffff'ffffull);
  });
  EXPECT_FALSE(RepairRequest::decode(request_bytes).has_value());
}

TEST(CodecRobustnessTest, OverlongPayloadLengthInsideEventIsRejected) {
  auto bytes = write_counted([](auto& w) {
    w.u16(kWireMagic);
    w.u8(kWireVersion);
    w.u8(1);  // kGossip
    w.u32(12);
    w.varint(1);  // round
    w.varint(1);  // period
    w.varint(1);  // min_buff
    w.varint(0);  // min_set
    w.varint(0);  // subs
    w.varint(0);  // unsubs
    w.varint(1);  // one event...
    w.u32(1);     // origin
    w.varint(1);  // sequence
    w.varint(0);  // age
    w.i64(0);     // created_at
    w.varint(0);  // stream
    w.u8(0);      // flags
    w.varint(1'000'000);  // payload length far past the end
  });
  EXPECT_FALSE(GossipMessage::decode(bytes).has_value());
}

// Random corruption sweep: flip bytes of valid frames and decode. The
// assertions are "does not crash / throw / OOB"; any structurally valid
// result is acceptable.
TEST(CodecRobustnessTest, RandomByteFlipsNeverThrow) {
  Rng rng(2026);
  const auto base = rich_message().encode();
  for (int trial = 0; trial < 2000; ++trial) {
    auto bytes = base;
    const auto flips = 1 + rng.next_below(4);
    for (std::uint64_t f = 0; f < flips; ++f) {
      const auto pos = static_cast<std::size_t>(rng.next_below(bytes.size()));
      bytes[pos] = static_cast<std::uint8_t>(rng.next_below(256));
    }
    EXPECT_NO_THROW({ auto result = decode_any(bytes); (void)result; });
  }
}

// The live-bytes regression corpus: run real encoded frames through the
// fault plane's own mutator — the exact corruption/truncation live chaos
// runs inject at the send_batch choke point — and decode every product.
// This is the same code path scenario chaos-soak exercises end-to-end,
// distilled to a deterministic ASan/UBSan-friendly sweep, plus a replay of
// the plane's bounded corpus() sample.
TEST(CodecRobustnessTest, ChaosMutatedFramesNeverThrow) {
  fault::ChaosSchedule schedule;
  schedule.rules = {
      {fault::FaultKind::kCorrupt, 1.0, fault::kAnyNode, fault::kAnyNode, 0,
       0, fault::kNoEnd},
      {fault::FaultKind::kTruncate, 0.5, fault::kAnyNode, fault::kAnyNode, 0,
       0, fault::kNoEnd},
  };
  fault::FaultPlane plane(schedule, fault::chaos_seed(2026));
  const std::vector<SharedBytes> frames = {
      SharedBytes(rich_message().encode()),
      SharedBytes(rich_request().encode()),
      SharedBytes(rich_reply().encode()),
  };
  for (int trial = 0; trial < 2000; ++trial) {
    const auto& frame = frames[static_cast<std::size_t>(trial) % frames.size()];
    const fault::FaultAction action = plane.sample(0, 1, 0);
    ASSERT_TRUE(action.corrupt);  // rate 1.0: every frame gets mutated
    const SharedBytes mutated = plane.mutate(frame, action);
    EXPECT_NO_THROW({ auto result = decode_any(mutated); (void)result; });
  }
  // Replay the plane's retained corpus sample — the exact bytes a live
  // chaos run would hand to this suite.
  const auto corpus = plane.corpus();
  ASSERT_FALSE(corpus.empty());
  for (const auto& entry : corpus) {
    EXPECT_NO_THROW({ auto result = decode_any(entry); (void)result; });
  }
}

TEST(CodecRobustnessTest, RandomGarbageNeverThrows) {
  Rng rng(7);
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<std::uint8_t> bytes(rng.next_below(200));
    for (auto& b : bytes) {
      b = static_cast<std::uint8_t>(rng.next_below(256));
    }
    EXPECT_NO_THROW({ auto result = decode_any(bytes); (void)result; });
  }
}

}  // namespace
}  // namespace agb::gossip
