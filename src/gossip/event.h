// Broadcast events and their ages.
//
// An event's *age* is the number of gossip rounds it has been held/forwarded
// (paper [7]): every holder increments the age of all buffered events once
// per round, and a receiver that sees a higher age for a known event adopts
// it. Age is therefore a cheap, local, monotone estimate of how widely the
// event has already been disseminated — the signal the adaptive mechanism is
// built on.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "common/shared_bytes.h"
#include "common/types.h"

namespace agb::gossip {

/// An event's application bytes; empty for an event without a payload.
/// A decoded event's payload is a slice of the datagram it arrived in
/// (common/shared_bytes.h); LpbcastNode copies it into a block of its own
/// when it ingests the event as novel, so no buffered or delivered event
/// keeps a datagram alive.
using Payload = SharedBytes;

/// Creates a payload from raw bytes, taking ownership without a copy.
inline Payload make_payload(std::vector<std::uint8_t> bytes) {
  return Payload(std::move(bytes));
}

struct Event {
  EventId id;
  std::uint32_t age = 0;
  /// Virtual time at which the origin broadcast the event; carried on the
  /// wire so receivers can measure dissemination latency.
  TimeMs created_at = 0;

  /// Semantic-obsolescence extension (Pereira et al., discussed in the
  /// paper's §5): events within the same (origin, stream) form a sequence;
  /// an event with `supersedes` set makes every earlier event of its
  /// stream obsolete — buffers may discard those first under pressure,
  /// concentrating reliability on the *recent* state. stream 0 with
  /// supersedes=false (the default) opts out entirely.
  std::uint32_t stream = 0;
  bool supersedes = false;

  Payload payload;
};

/// Why an event left a buffer; reported to drop observers for metrics.
enum class DropReason {
  kBufferOverflow,  // |events| exceeded the bound (paper: "remove oldest")
  kAgeLimit,        // age exceeded k (fully disseminated with high prob.)
  kObsolete,        // superseded by a newer event of its stream
};

}  // namespace agb::gossip
