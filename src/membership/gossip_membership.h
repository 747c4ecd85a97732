// In-protocol anti-entropy membership: liveness and endpoint knowledge as
// gossip state instead of an oracle.
//
// Every node keeps one MemberRecord per known member — {revision, heartbeat,
// state ∈ up/suspect/down} plus an optional endpoint binding — and
// piggybacks a freshest-first digest of its table on the regular gossip
// messages (GossipMessage::member_records). Receivers merge record-by-record
// under a total freshness order: higher revision wins, then higher
// heartbeat, then the state closer to down (so a locally raised suspicion
// propagates against the same-heartbeat "up" everyone else still holds).
// Silent peers are promoted up → suspect → down on configurable timeouts,
// and because targets()/snapshot() expose only up members, a decorating
// LocalityView re-elects bridges from suspicion alone — no failure-detector
// flag, no scheduler-driven add/remove.
//
// Rejoin and migration are revision bumps: a restarted process increments
// its revision (on_restart), a process that moved host/port re-announces a
// new binding under a bumped revision (set_self_binding), and either beats
// every record the group still holds about its previous incarnation —
// including a "down" tombstone. This is the classic gossip membership
// design (the nodemcu gossip.lua module is a compact exemplar), grafted
// onto lpbcast's existing message stream.
//
// Threading: like every Membership, GossipMembership is not internally
// synchronised — the simulator's event loop or runtime::NodeRuntime's node
// lock serialises all calls. The binding listener fires inside that
// serialisation; it must not call back into the node.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "membership/membership.h"

namespace agb::membership {

/// Liveness of one member as currently believed. Wire-stable values: the
/// codec writes the enum byte as-is.
enum class LivenessState : std::uint8_t {
  kUp = 0,
  kSuspect = 1,
  kDown = 2,
};

/// Where a member can be reached (IPv4 + UDP port, host byte order).
/// port == 0 means "unbound" — sim nodes and in-memory fabrics never bind.
struct EndpointBinding {
  std::uint32_t host = 0;
  std::uint16_t port = 0;

  [[nodiscard]] bool bound() const noexcept { return port != 0; }
  friend bool operator==(const EndpointBinding&,
                         const EndpointBinding&) = default;
};

/// One gossiped membership fact. The (revision, heartbeat, state) triple is
/// the freshness key; the binding rides along and is only meaningful under
/// the revision that announced it.
struct MemberRecord {
  NodeId node = kInvalidNode;
  std::uint64_t revision = 0;
  std::uint64_t heartbeat = 0;
  LivenessState state = LivenessState::kUp;
  EndpointBinding binding;

  friend bool operator==(const MemberRecord&, const MemberRecord&) = default;
};

/// The freshness total order: revision, then heartbeat, then state —
/// states closer to down win ties, so suspicion raised at heartbeat h
/// overrides the "up at h" everyone else holds, and a down tombstone can
/// only be revived by a genuinely newer heartbeat or revision. A total
/// order is what makes the merge commutative: any permutation of the same
/// record sets converges to the same table.
[[nodiscard]] bool fresher_than(const MemberRecord& a, const MemberRecord& b);

/// Exact wire size of one record in the GossipMessage member_records
/// section (gossip/message.cc writes u32 node, varint revision, varint
/// heartbeat, u8 state, u32 host, u16 port). The digest budget is enforced
/// against this, so "bytes on the wire" is what the knob bounds.
[[nodiscard]] std::size_t encoded_record_size(const MemberRecord& record);

struct GossipMembershipParams {
  /// Silence (no fresher record, no direct datagram) before a peer is
  /// suspected, and before a suspect is declared down. Both measured from
  /// the last freshness evidence; down_after must exceed suspect_after
  /// (enforced at construction).
  DurationMs suspect_after = 6'000;
  DurationMs down_after = 12'000;

  /// Byte budget for the per-message record digest. The self record is
  /// always included; the freshest-recently-updated peers fill the rest.
  std::size_t digest_budget_bytes = 256;

  /// Revision this incarnation starts at. A restarted process passes its
  /// previous revision + 1 (or calls on_restart()).
  std::uint64_t initial_revision = 0;
};

/// Lifetime liveness-transition tally for one membership instance. The
/// flap detector for fault-injection runs: a gray failure (node slow but
/// up) must leave `downs` at zero, an asymmetric partition must push
/// `suspicions` above it, and `revivals` counts suspicions retracted by
/// later evidence (datagram in hand or a fresher record).
struct MembershipCounters {
  std::uint64_t suspicions = 0;  // up → suspect promotions (local timeouts)
  std::uint64_t downs = 0;       // suspect → down promotions (local timeouts)
  std::uint64_t revivals = 0;    // suspect/down → up via fresher evidence
};

class GossipMembership final : public Membership {
 public:
  /// Fires when a merge learns a new (or changed) bound endpoint for a
  /// peer — the hook a runtime::DynamicDirectory subscribes to.
  using BindingListener = std::function<void(NodeId, EndpointBinding)>;

  GossipMembership(NodeId self, GossipMembershipParams params, Rng rng);

  // Membership: targets/snapshot/size expose *up* members only, which is
  // exactly what drives suspicion-based bridge re-election through a
  // LocalityView decorator. contains() admits suspects (they are still
  // members, just not gossip-worthy); down members are invisible.
  std::vector<NodeId> targets(std::size_t fanout) override;
  void add(NodeId node) override;
  void remove(NodeId node) override;
  [[nodiscard]] bool contains(NodeId node) const override;
  [[nodiscard]] std::size_t size() const override;
  [[nodiscard]] std::vector<NodeId> snapshot() const override;

  /// Once per gossip round: advances the local heartbeat and promotes
  /// silent peers (up → suspect at suspect_after, suspect → down at
  /// down_after). The first tick baselines every seed peer's silence clock
  /// to its `now` — a process only counts silence for time it was running,
  /// so a node started against a wall clock far past zero still grants its
  /// seed list the full suspicion grace period.
  void tick(TimeMs now);

  /// The outgoing digest: self record first, then peers freshest-first
  /// (most recently updated), cut off at the byte budget.
  [[nodiscard]] std::vector<MemberRecord> make_digest();

  /// Merges a received digest record-by-record under fresher_than. A
  /// record about *self* that is fresher than our own is a stale-ghost
  /// claim (we restarted, or someone suspects us): we refute it by jumping
  /// our revision past it.
  void apply_digest(const std::vector<MemberRecord>& records, TimeMs now);

  /// Direct liveness evidence: a datagram from `sender` just arrived.
  /// Refreshes its silence clock and clears a local suspicion; a down
  /// tombstone needs record-level freshness (rejoin bumps) to revive.
  void on_heard_from(NodeId sender, TimeMs now);

  /// Restart semantics: bump the revision so this incarnation's records
  /// beat everything the group holds about the previous one, and reset all
  /// local peer verdicts to up (fresh silence clocks) — a rebooted process
  /// trusts its seed list until gossip or timeouts say otherwise. Ties
  /// break towards down, so the reset cannot overwrite the group's fresher
  /// tombstones about genuinely dead peers.
  void on_restart();

  /// Announce (or change) where this node can be reached. Bumps the
  /// revision: a binding is only trusted under the revision that announced
  /// it, so movers always win over their stale address.
  void set_self_binding(EndpointBinding binding);

  /// A recovering process's own restart logic, shared by every harness: a
  /// plain restart bumps the revision (on_restart); after a host move
  /// (`migrated`) the node re-announces its binding one port up under a
  /// bumped revision. Either way the fresh incarnation's records beat every
  /// stale or down claim the group still holds.
  void rejoin(bool migrated);

  void set_binding_listener(BindingListener listener);

  // Introspection (tests, directories, metrics).
  [[nodiscard]] std::optional<LivenessState> state_of(NodeId node) const;
  [[nodiscard]] const MemberRecord& self_record() const noexcept {
    return self_;
  }
  [[nodiscard]] EndpointBinding binding_of(NodeId node) const;
  /// Every record held (peers only, self excluded), sorted by node id —
  /// the object the permutation-convergence property compares.
  [[nodiscard]] std::vector<MemberRecord> table() const;
  /// Liveness transitions this instance has performed (see
  /// MembershipCounters). Chaos invariants read this after a run.
  [[nodiscard]] const MembershipCounters& counters() const noexcept {
    return counters_;
  }

 private:
  struct PeerEntry {
    MemberRecord record;
    TimeMs last_update = 0;  // local receipt time of the freshest evidence
  };

  void merge_record(const MemberRecord& incoming, TimeMs now);
  void refute_self_claim(const MemberRecord& claim);

  NodeId id_;
  GossipMembershipParams params_;
  Rng rng_;
  MemberRecord self_;
  std::unordered_map<NodeId, PeerEntry> peers_;
  TimeMs now_ = 0;  // last time seen by tick/apply_digest/on_heard_from
  bool ticked_ = false;  // first tick baselines seed peers' silence clocks
  BindingListener binding_listener_;
  MembershipCounters counters_;
};

}  // namespace agb::membership
