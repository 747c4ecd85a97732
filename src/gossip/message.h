// Gossip wire message and its binary codec.
//
// One message type carries everything, exactly as the paper prescribes: the
// buffered events, the lpbcast membership digest, and the two adaptation
// header fields (sample period `s` and the sender's running minBuff
// estimate) — adaptation adds *no* extra messages, only a few header bytes.
//
// Decoding copies no payload byte: each decoded event's payload is a slice
// of the received datagram (SharedBytes::slice), so a decoded message keeps
// its datagram alive. Most received events are duplicates the receiver
// drops; LpbcastNode copies a payload out only when it ingests the event as
// novel, so nothing it buffers or delivers pins a datagram.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <variant>
#include <vector>

#include "common/bytes.h"
#include "common/shared_bytes.h"
#include "common/types.h"
#include "gossip/event.h"
#include "membership/gossip_membership.h"
#include "membership/partial_view.h"

namespace agb::gossip {

inline constexpr std::uint16_t kWireMagic = 0xa64b;
// v2 appended the anti-entropy member_records section to kGossip.
inline constexpr std::uint8_t kWireVersion = 2;

enum class MessageType : std::uint8_t {
  kGossip = 1,
  kRepairRequest = 2,
  kRepairReply = 3,
};

/// One entry of the robust minimum set (paper §6 extension): a node and the
/// buffer capacity it advertised. Identities matter — computing "the k-th
/// smallest buffer" requires deduplicating by node.
struct MinSetEntry {
  NodeId node = kInvalidNode;
  std::uint32_t capacity = 0;
  friend bool operator==(const MinSetEntry&, const MinSetEntry&) = default;
};

struct GossipMessage {
  NodeId sender = kInvalidNode;
  Round round = 0;

  // Adaptation header (paper Fig. 5(a)): the sender's current sample period
  // and its running estimate of the smallest buffer in the group.
  PeriodId period = 0;
  std::uint32_t min_buff = 0;

  /// Robust-minimum extension (paper §6): the k smallest (node, capacity)
  /// pairs known for `period`. Empty unless AdaptiveParams::robust_k > 1.
  std::vector<MinSetEntry> min_set;

  membership::MembershipDigest membership;
  std::vector<Event> events;

  /// Recovery digest (lpbcast): a sample of recently *seen* event ids, so
  /// receivers can detect events they missed entirely and request repair.
  /// Empty unless GossipParams::recovery.enabled.
  std::vector<EventId> seen_ids;

  /// Anti-entropy membership digest: per-node {revision, heartbeat, state}
  /// records plus endpoint bindings, freshest-first within the sender's
  /// byte budget. Empty unless the node runs membership::GossipMembership.
  std::vector<membership::MemberRecord> member_records;

  /// The wire bytes, in a vector sized up front (encoded_size()), for
  /// callers that edit them; drivers send encode_shared().
  [[nodiscard]] std::vector<std::uint8_t> encode() const;
  /// The wire bytes, counted, then written whole into one uninitialised
  /// block of exactly that size (SharedBytes::build): one allocation. The
  /// entry point for drivers that fan one encoded message out to several
  /// Datagrams without re-copying.
  [[nodiscard]] SharedBytes encode_shared() const;
  /// encode_shared() with `events` on the wire in place of this message's
  /// own: how a node writes a round straight from its buffer, copying no
  /// Event.
  [[nodiscard]] SharedBytes encode_with(
      std::span<const Event* const> events) const;
  /// Exactly encode().size(), counted without writing.
  [[nodiscard]] std::size_t encoded_size() const;
  /// Returns std::nullopt on any malformed input (wrong magic/version/type,
  /// truncation, overlong counts). Never throws. Event payloads are slices
  /// of `bytes`.
  static std::optional<GossipMessage> decode(const SharedBytes& bytes);
};

/// Directed request for events the sender believes it missed (it saw their
/// ids in a peer's recovery digest but never received the events).
struct RepairRequest {
  NodeId sender = kInvalidNode;
  std::vector<EventId> ids;

  [[nodiscard]] std::vector<std::uint8_t> encode() const;
  [[nodiscard]] SharedBytes encode_shared() const;
  static std::optional<RepairRequest> decode(const SharedBytes& bytes);
};

/// Directed answer carrying the still-buffered events a repair asked for.
struct RepairReply {
  NodeId sender = kInvalidNode;
  std::vector<Event> events;

  [[nodiscard]] std::vector<std::uint8_t> encode() const;
  [[nodiscard]] SharedBytes encode_shared() const;
  /// Event payloads are slices of `bytes`.
  static std::optional<RepairReply> decode(const SharedBytes& bytes);
};

/// Any message the protocol can receive. std::monostate = malformed.
using WireMessage =
    std::variant<std::monostate, GossipMessage, RepairRequest, RepairReply>;

/// Decodes any protocol message by its type byte.
[[nodiscard]] WireMessage decode_any(const SharedBytes& bytes);

/// A one-entry decode memo. A gossip round's fan-out targets all receive one
/// SharedBytes buffer, so a simulator that delivers them back to back
/// decodes the round once. The memo keeps a reference to the buffer it
/// decoded, so that buffer's address cannot be reused for other bytes while
/// memoised; since decoding is a pure function of immutable bytes, the memo
/// never changes a result. A byte-equal copy in another buffer decodes
/// afresh. The memoised message's payloads are slices of that buffer, so a
/// memo pins at most the one datagram it last decoded.
class WireDecoder {
 public:
  /// decode_any(bytes), reused while `bytes` is the previous call's buffer.
  /// The reference is valid until the next call.
  const WireMessage& decode(const SharedBytes& bytes);

 private:
  SharedBytes bytes_;
  WireMessage message_;
};

}  // namespace agb::gossip
