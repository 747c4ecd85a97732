#include "gossip/message.h"

namespace agb::gossip {

namespace {

// Decoded containers are size-checked against what the remaining bytes could
// possibly hold, so a forged count cannot trigger a huge allocation.
bool plausible_count(std::uint64_t count, std::size_t remaining,
                     std::size_t min_element_size) {
  return count <= remaining / min_element_size + 1;
}

// Every write_* below is written once against the writer interface and run
// twice per encode: through a ByteCounter to size the block, then through
// a ByteWriter into it.

template <class Writer>
void write_preamble(Writer& w, MessageType type, NodeId sender) {
  w.u16(kWireMagic);
  w.u8(kWireVersion);
  w.u8(static_cast<std::uint8_t>(type));
  w.u32(sender);
}

/// Consumes the shared preamble; returns the sender or nullopt on mismatch.
std::optional<NodeId> read_preamble(ByteReader& r, MessageType expected) {
  auto magic = r.u16();
  auto version = r.u8();
  auto type = r.u8();
  auto sender = r.u32();
  if (!magic || *magic != kWireMagic) return std::nullopt;
  if (!version || *version != kWireVersion) return std::nullopt;
  if (!type || *type != static_cast<std::uint8_t>(expected)) {
    return std::nullopt;
  }
  return sender;
}

template <class Writer>
void write_event(Writer& w, const Event& e) {
  w.u32(e.id.origin);
  w.varint(e.id.sequence);
  w.varint(e.age);
  w.i64(e.created_at);
  w.varint(e.stream);
  w.u8(e.supersedes ? 1 : 0);
  w.bytes(e.payload);
}

/// `source` is the buffer `r` reads: the payload becomes a slice of it.
std::optional<Event> read_event(ByteReader& r, const SharedBytes& source) {
  Event e;
  auto origin = r.u32();
  auto sequence = r.varint();
  auto age = r.varint();
  auto created_at = r.i64();
  auto stream = r.varint();
  auto flags = r.u8();
  auto payload = r.bytes();
  if (!origin || !sequence || !age || !created_at || !stream || !flags ||
      !payload) {
    return std::nullopt;
  }
  if (*age > 0xffffffffull || *stream > 0xffffffffull) return std::nullopt;
  if ((*flags & ~1u) != 0) return std::nullopt;  // unknown flag bits
  e.id = EventId{*origin, *sequence};
  e.age = static_cast<std::uint32_t>(*age);
  e.created_at = *created_at;
  e.stream = static_cast<std::uint32_t>(*stream);
  e.supersedes = (*flags & 1u) != 0;
  e.payload = source.slice(
      static_cast<std::size_t>(payload->data() - source.data()),
      payload->size());
  return e;
}

template <class Writer>
void write_event(Writer& w, const Event* e) {
  write_event(w, *e);
}

/// `events` holds Events or pointers to them.
template <class Writer, class Events>
void write_events(Writer& w, const Events& events) {
  w.varint(events.size());
  for (const auto& e : events) write_event(w, e);
}

bool read_events(ByteReader& r, const SharedBytes& source,
                 std::vector<Event>* out) {
  auto count = r.varint();
  if (!count || !plausible_count(*count, r.remaining(), 8)) return false;
  out->reserve(static_cast<std::size_t>(*count));
  for (std::uint64_t i = 0; i < *count; ++i) {
    auto e = read_event(r, source);
    if (!e) return false;
    out->push_back(std::move(*e));
  }
  return true;
}

template <class Writer>
void write_event_ids(Writer& w, const std::vector<EventId>& ids) {
  w.varint(ids.size());
  for (const EventId& id : ids) {
    w.u32(id.origin);
    w.varint(id.sequence);
  }
}

bool read_event_ids(ByteReader& r, std::vector<EventId>* out) {
  auto count = r.varint();
  if (!count || !plausible_count(*count, r.remaining(), 5)) return false;
  out->reserve(static_cast<std::size_t>(*count));
  for (std::uint64_t i = 0; i < *count; ++i) {
    auto origin = r.u32();
    auto sequence = r.varint();
    if (!origin || !sequence) return false;
    out->push_back(EventId{*origin, *sequence});
  }
  return true;
}

template <class Writer>
void write_member_records(
    Writer& w, const std::vector<membership::MemberRecord>& records) {
  // Tail-optional section: a message with no membership digest encodes
  // byte-identically to the pre-membership wire format, so turning the
  // feature off costs nothing and old traffic decodes as "no records".
  if (records.empty()) return;
  w.varint(records.size());
  for (const membership::MemberRecord& record : records) {
    w.u32(record.node);
    w.varint(record.revision);
    w.varint(record.heartbeat);
    w.u8(static_cast<std::uint8_t>(record.state));
    w.u32(record.binding.host);
    w.u16(record.binding.port);
  }
}

bool read_member_records(ByteReader& r,
                         std::vector<membership::MemberRecord>* out) {
  if (r.exhausted()) return true;  // tail section absent: no digest rode along
  auto count = r.varint();
  // Smallest record: 4 (node) + 1 + 1 (varints) + 1 (state) + 4 + 2.
  if (!count || !plausible_count(*count, r.remaining(), 13)) return false;
  out->reserve(static_cast<std::size_t>(*count));
  for (std::uint64_t i = 0; i < *count; ++i) {
    auto node = r.u32();
    auto revision = r.varint();
    auto heartbeat = r.varint();
    auto state = r.u8();
    auto host = r.u32();
    auto port = r.u16();
    if (!node || !revision || !heartbeat || !state || !host || !port) {
      return false;
    }
    if (*state > static_cast<std::uint8_t>(membership::LivenessState::kDown)) {
      return false;  // unknown liveness state
    }
    membership::MemberRecord record;
    record.node = *node;
    record.revision = *revision;
    record.heartbeat = *heartbeat;
    record.state = static_cast<membership::LivenessState>(*state);
    record.binding = membership::EndpointBinding{*host, *port};
    out->push_back(record);
  }
  return true;
}

/// `m` with `events` in place of m.events.
template <class Writer, class Events>
void write_gossip(Writer& w, const GossipMessage& m, const Events& events) {
  write_preamble(w, MessageType::kGossip, m.sender);
  w.varint(m.round);
  w.varint(m.period);
  w.varint(m.min_buff);

  w.varint(m.min_set.size());
  for (const MinSetEntry& entry : m.min_set) {
    w.u32(entry.node);
    w.varint(entry.capacity);
  }

  w.varint(m.membership.subs.size());
  for (NodeId node : m.membership.subs) w.u32(node);
  w.varint(m.membership.unsubs.size());
  for (NodeId node : m.membership.unsubs) w.u32(node);

  write_events(w, events);
  write_event_ids(w, m.seen_ids);
  write_member_records(w, m.member_records);
}

template <class Writer>
void write_message(Writer& w, const GossipMessage& m) {
  write_gossip(w, m, m.events);
}

template <class Writer>
void write_message(Writer& w, const RepairRequest& m) {
  write_preamble(w, MessageType::kRepairRequest, m.sender);
  write_event_ids(w, m.ids);
}

template <class Writer>
void write_message(Writer& w, const RepairReply& m) {
  write_preamble(w, MessageType::kRepairReply, m.sender);
  write_events(w, m.events);
}

/// Counts what `write(writer)` writes, then writes it whole into one
/// uninitialised SharedBytes block of exactly that size: one allocation,
/// each field written once, no growth.
template <class Write>
SharedBytes encode_counted(Write write) {
  ByteCounter counter;
  write(counter);
  return SharedBytes::build(counter.size(),
                            [&write](std::span<std::uint8_t> block) {
                              write_whole(block, write);
                            });
}

template <class Message>
SharedBytes encode_exact(const Message& m) {
  return encode_counted([&m](auto& w) { write_message(w, m); });
}

template <class Message>
std::vector<std::uint8_t> encode_vector(const Message& m) {
  return write_counted([&m](auto& w) { write_message(w, m); });
}

}  // namespace

std::vector<std::uint8_t> GossipMessage::encode() const {
  return encode_vector(*this);
}

SharedBytes GossipMessage::encode_shared() const {
  return encode_exact(*this);
}

SharedBytes GossipMessage::encode_with(
    std::span<const Event* const> events) const {
  return encode_counted([&](auto& w) { write_gossip(w, *this, events); });
}

std::size_t GossipMessage::encoded_size() const {
  ByteCounter counter;
  write_message(counter, *this);
  return counter.size();
}

std::optional<GossipMessage> GossipMessage::decode(const SharedBytes& bytes) {
  ByteReader r(bytes);
  auto sender = read_preamble(r, MessageType::kGossip);
  if (!sender) return std::nullopt;

  GossipMessage m;
  m.sender = *sender;
  auto round = r.varint();
  auto period = r.varint();
  auto min_buff = r.varint();
  if (!round || !period || !min_buff) return std::nullopt;
  if (*min_buff > 0xffffffffull) return std::nullopt;
  m.round = *round;
  m.period = *period;
  m.min_buff = static_cast<std::uint32_t>(*min_buff);

  auto min_set_count = r.varint();
  if (!min_set_count || !plausible_count(*min_set_count, r.remaining(), 5)) {
    return std::nullopt;
  }
  m.min_set.reserve(static_cast<std::size_t>(*min_set_count));
  for (std::uint64_t i = 0; i < *min_set_count; ++i) {
    auto node = r.u32();
    auto capacity = r.varint();
    if (!node || !capacity.has_value() || *capacity > 0xffffffffull) {
      return std::nullopt;
    }
    m.min_set.push_back(
        MinSetEntry{*node, static_cast<std::uint32_t>(*capacity)});
  }

  auto subs_count = r.varint();
  if (!subs_count || !plausible_count(*subs_count, r.remaining(), 4)) {
    return std::nullopt;
  }
  m.membership.subs.reserve(static_cast<std::size_t>(*subs_count));
  for (std::uint64_t i = 0; i < *subs_count; ++i) {
    auto node = r.u32();
    if (!node) return std::nullopt;
    m.membership.subs.push_back(*node);
  }

  auto unsubs_count = r.varint();
  if (!unsubs_count || !plausible_count(*unsubs_count, r.remaining(), 4)) {
    return std::nullopt;
  }
  m.membership.unsubs.reserve(static_cast<std::size_t>(*unsubs_count));
  for (std::uint64_t i = 0; i < *unsubs_count; ++i) {
    auto node = r.u32();
    if (!node) return std::nullopt;
    m.membership.unsubs.push_back(*node);
  }

  if (!read_events(r, bytes, &m.events)) return std::nullopt;
  if (!read_event_ids(r, &m.seen_ids)) return std::nullopt;
  if (!read_member_records(r, &m.member_records)) return std::nullopt;
  if (!r.exhausted()) return std::nullopt;  // trailing garbage
  return m;
}

std::vector<std::uint8_t> RepairRequest::encode() const {
  return encode_vector(*this);
}

SharedBytes RepairRequest::encode_shared() const {
  return encode_exact(*this);
}

std::optional<RepairRequest> RepairRequest::decode(const SharedBytes& bytes) {
  ByteReader r(bytes);
  auto sender = read_preamble(r, MessageType::kRepairRequest);
  if (!sender) return std::nullopt;
  RepairRequest m;
  m.sender = *sender;
  if (!read_event_ids(r, &m.ids)) return std::nullopt;
  if (!r.exhausted()) return std::nullopt;
  return m;
}

std::vector<std::uint8_t> RepairReply::encode() const {
  return encode_vector(*this);
}

SharedBytes RepairReply::encode_shared() const {
  return encode_exact(*this);
}

std::optional<RepairReply> RepairReply::decode(const SharedBytes& bytes) {
  ByteReader r(bytes);
  auto sender = read_preamble(r, MessageType::kRepairReply);
  if (!sender) return std::nullopt;
  RepairReply m;
  m.sender = *sender;
  if (!read_events(r, bytes, &m.events)) return std::nullopt;
  if (!r.exhausted()) return std::nullopt;
  return m;
}

WireMessage decode_any(const SharedBytes& bytes) {
  if (bytes.size() < 4) return std::monostate{};
  switch (static_cast<MessageType>(bytes.data()[3])) {
    case MessageType::kGossip:
      if (auto m = GossipMessage::decode(bytes)) return std::move(*m);
      break;
    case MessageType::kRepairRequest:
      if (auto m = RepairRequest::decode(bytes)) return std::move(*m);
      break;
    case MessageType::kRepairReply:
      if (auto m = RepairReply::decode(bytes)) return std::move(*m);
      break;
  }
  return std::monostate{};
}

const WireMessage& WireDecoder::decode(const SharedBytes& bytes) {
  if (bytes.data() != bytes_.data() || bytes.size() != bytes_.size()) {
    message_ = decode_any(bytes);
    bytes_ = bytes;
  }
  return message_;
}

}  // namespace agb::gossip
