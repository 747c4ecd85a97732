// Deterministic fault injection for all three datagram fabrics.
//
// The FaultPlane is to faults what sim::DelaySampler is to latency: one
// shared component, consulted by sim::Link (the link model of SimNetwork,
// the sharded engine and InMemoryFabric) and by UdpTransport, so every
// fabric misbehaves the same way from the same seed. It injects the
// impolite failures the polite schedules (clean crashes, symmetric loss,
// churn) never produce:
//
//   - payload corruption / truncation — random byte flips and cuts that feed
//     the fuzz-hardened codec in live runs (decode must answer monostate,
//     never crash);
//   - datagram duplication and reordering (an extra delivery delay);
//   - asymmetric partitions — A→B dead while B→A lives, the case that
//     stresses suspicion timeouts hardest;
//   - gray failures on the wall-clock runtime — injected handler stalls and
//     skewed round clocks, so a node is slow-but-up and membership must not
//     flap. (No-ops on the simulator: virtual time cannot stall.)
//
// Faults are declared as a ChaosSchedule of windowed rules
// (`chaos=corrupt:0.05@5s-15s`-style registry keys, see
// core::parse_chaos_spec) and sampled from the plane's own Rng, seeded from
// the scenario seed — never from the master Rng split sequence, so a clean
// run (null plane) draws exactly the same random stream as before the plane
// existed and the golden trace fingerprints stay byte-identical.
//
// Threading: sample()/mutate() serialise on an internal mutex (the Rng is
// shared); window checks and the gray-failure probes are lock-free. On the
// single-threaded simulator the draw order — and therefore the whole faulted
// trace — is deterministic per seed.
#pragma once

#include <atomic>
#include <cstdint>
#include <limits>
#include <mutex>
#include <vector>

#include "common/rng.h"
#include "common/shared_bytes.h"
#include "common/types.h"

namespace agb::fault {

enum class FaultKind : std::uint8_t {
  kCorrupt,    // flip 1..4 random payload bytes with probability `rate`
  kTruncate,   // cut the payload at a random earlier length
  kDuplicate,  // deliver an extra copy
  kReorder,    // add a random extra delay in (0, amount] ms
  kOneWay,     // drop a→b silently while b→a lives (asymmetric partition)
  kStall,      // sleep the receive handler of node `a` for `amount` ms
  kSkew,       // advance node `a`'s runtime clock by `amount` ms
};

/// Wildcard for FaultRule::b — "every target".
inline constexpr NodeId kAnyNode = kInvalidNode;

/// Open-ended rule window sentinel.
inline constexpr TimeMs kNoEnd = std::numeric_limits<TimeMs>::max();

/// One windowed fault rule. Which fields matter depends on `kind`:
/// probability kinds (corrupt/truncate/dup/reorder) use `rate`; link kinds
/// (oneway) use `a`→`b`; node kinds (stall/skew) use `a`; reorder/stall/skew
/// use `amount` (ms). The rule is live for now ∈ [start, end).
struct FaultRule {
  FaultKind kind = FaultKind::kCorrupt;
  double rate = 0.0;
  NodeId a = kAnyNode;
  NodeId b = kAnyNode;
  DurationMs amount = 0;
  TimeMs start = 0;
  TimeMs end = kNoEnd;
};

struct ChaosSchedule {
  std::vector<FaultRule> rules;

  [[nodiscard]] bool empty() const noexcept { return rules.empty(); }

  /// Latest bounded rule end — the moment the network is clean again and
  /// the self-healing clock starts. 0 if every rule is open-ended or the
  /// schedule is empty.
  [[nodiscard]] TimeMs last_window_end() const noexcept;

  /// Any corruption/truncation rule present (decode-drop counters are
  /// expected to rise exactly when this is true).
  [[nodiscard]] bool corrupts() const noexcept;
  /// Any stall/skew rule present (wall-clock gray failures).
  [[nodiscard]] bool gray() const noexcept;
  /// Any oneway rule present (asymmetric partition).
  [[nodiscard]] bool asymmetric() const noexcept;
};

/// What the plane decided for one (from, to, now) datagram copy.
struct FaultAction {
  bool drop = false;       // one-way partition: silently dropped at send
  bool corrupt = false;
  bool truncate = false;
  int duplicates = 0;      // extra copies to deliver
  DurationMs extra_delay = 0;  // reorder: added to the sampled link delay

  /// True when the datagram cannot ride the fabric's shared fast path
  /// (payload mutation, extra copies or extra delay).
  [[nodiscard]] bool special() const noexcept {
    return drop || corrupt || truncate || duplicates > 0 || extra_delay > 0;
  }
};

/// Injection totals, snapshotted by stats().
struct FaultStats {
  std::uint64_t corrupted = 0;
  std::uint64_t truncated = 0;
  std::uint64_t duplicated = 0;
  std::uint64_t reordered = 0;
  std::uint64_t dropped_oneway = 0;
  std::uint64_t stalls = 0;      // handler stalls served (wall-clock only)
  std::uint64_t skew_reads = 0;  // clock reads answered with a skew

  [[nodiscard]] std::uint64_t mutations() const noexcept {
    return corrupted + truncated;
  }

  FaultStats& operator+=(const FaultStats& other) noexcept;
};

/// The plane's seed derivation from the scenario seed — a fixed xor (the
/// splitmix64 golden-ratio increment), NOT a master-RNG split, so both
/// harnesses build identical planes for a seed without consuming a draw
/// from the protocol's own random stream.
[[nodiscard]] inline std::uint64_t chaos_seed(
    std::uint64_t scenario_seed) noexcept {
  return scenario_seed ^ 0x9e3779b97f4a7c15ull;
}

class FaultPlane {
 public:
  FaultPlane(ChaosSchedule schedule, std::uint64_t seed);

  /// Per-target verdict at the send_batch choke point. Thread-safe;
  /// deterministic draw order on a single-threaded caller.
  FaultAction sample(NodeId from, NodeId to, TimeMs now);

  /// Copy-then-mutate: returns a *fresh* buffer with the action's
  /// truncation/byte-flips applied. The original SharedBytes — aliased
  /// across the rest of the fan-out — is never touched.
  SharedBytes mutate(const SharedBytes& payload, const FaultAction& action);

  /// Gray failure probe: how long node `node`'s receive handler must sleep
  /// right now (0 = no stall rule live). Lock-free.
  DurationMs stall_for(NodeId node, TimeMs now);

  /// Gray failure probe: skew to add to node `node`'s clock read at `now`
  /// (0 = none). Lock-free.
  DurationMs clock_skew(NodeId node, TimeMs now);

  [[nodiscard]] FaultStats stats() const;
  [[nodiscard]] const ChaosSchedule& schedule() const noexcept {
    return schedule_;
  }

  /// Bounded sample of the mutated payloads this plane produced, for
  /// replaying through the codec as a regression corpus (the
  /// codec-robustness suite decodes every entry under ASan/UBSan).
  [[nodiscard]] std::vector<std::vector<std::uint8_t>> corpus() const;

 private:
  ChaosSchedule schedule_;
  mutable std::mutex mutex_;  // guards rng_ and corpus_
  Rng rng_;
  std::vector<std::vector<std::uint8_t>> corpus_;

  std::atomic<std::uint64_t> corrupted_{0};
  std::atomic<std::uint64_t> truncated_{0};
  std::atomic<std::uint64_t> duplicated_{0};
  std::atomic<std::uint64_t> reordered_{0};
  std::atomic<std::uint64_t> dropped_oneway_{0};
  std::atomic<std::uint64_t> stalls_{0};
  std::atomic<std::uint64_t> skew_reads_{0};
};

}  // namespace agb::fault
