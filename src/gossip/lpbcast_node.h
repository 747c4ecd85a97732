// The baseline gossip-based broadcast node (lpbcast, paper Fig. 1).
//
// LpbcastNode is a *sans-I/O* state machine: it never touches sockets,
// clocks or threads. A driver (simulation harness or runtime) calls
// on_round() every gossip period and on_gossip() for each received message,
// and routes the returned Outgoing batches through whatever network it owns.
// This is what lets the exact same protocol code run under the discrete-
// event simulator and over real UDP datagrams.
//
// The adaptive variant (adaptive::AdaptiveLpbcastNode) subclasses this and
// fills in the protected hooks — the paper's Fig. 5 touches the base
// algorithm in exactly those three places (outgoing header, incoming header,
// pre-GC congestion accounting).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/datagram.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/types.h"
#include "gossip/event.h"
#include "gossip/event_buffer.h"
#include "gossip/message.h"
#include "gossip/params.h"
#include "membership/gossip_membership.h"
#include "membership/membership.h"
#include "membership/partial_view.h"

namespace agb::membership {
class LocalityView;
}  // namespace agb::membership

namespace agb::gossip {

/// Per-node protocol counters, exposed for tests and metrics.
struct NodeCounters {
  std::uint64_t broadcasts = 0;
  std::uint64_t rounds = 0;
  std::uint64_t gossips_sent = 0;      // one per (message, target) pair
  std::uint64_t gossips_received = 0;
  std::uint64_t events_received = 0;   // novel events buffered + delivered
  std::uint64_t duplicates = 0;        // suppressed by the eventIds digest
  std::uint64_t deliveries = 0;        // includes local deliveries
  std::uint64_t drops_overflow = 0;    // evicted by the |events| bound
  std::uint64_t drops_age_limit = 0;   // purged by the age limit k
  std::uint64_t drops_obsolete = 0;    // superseded (semantic purge)
  RunningStats overflow_drop_age;      // ages of overflow-evicted events

  // Recovery (when GossipParams::recovery.enabled):
  std::uint64_t missing_detected = 0;   // ids learned only from digests
  std::uint64_t repair_requests = 0;    // request messages sent
  std::uint64_t repair_replies = 0;     // reply messages sent
  std::uint64_t events_recovered = 0;   // deliveries that came via repair
  std::uint64_t missing_abandoned = 0;  // gave up waiting

  /// Malformed wire input handed to on_wire (std::monostate after decode).
  /// Zero in clean runs; rises under fault-plane corruption.
  std::uint64_t decode_drops = 0;
};

class LpbcastNode {
 public:
  using DeliverFn = std::function<void(const Event& event, TimeMs now)>;
  using DropFn =
      std::function<void(const Event& event, DropReason reason, TimeMs now)>;

  /// `membership` decides gossip targets (full directory or partial view,
  /// optionally under a membership::LocalityView decorator); if it is — or
  /// wraps — a membership::PartialView, subs/unsubs digests are exchanged.
  LpbcastNode(NodeId self, GossipParams params,
              std::unique_ptr<membership::Membership> membership, Rng rng);
  virtual ~LpbcastNode() = default;

  LpbcastNode(const LpbcastNode&) = delete;
  LpbcastNode& operator=(const LpbcastNode&) = delete;

  [[nodiscard]] NodeId id() const noexcept { return self_; }
  [[nodiscard]] const GossipParams& params() const noexcept { return params_; }
  [[nodiscard]] Round round() const noexcept { return round_; }

  /// Observers. Deliver fires once per event per node (including the
  /// origin's local delivery); drop fires for real buffer evictions only.
  void set_deliver_handler(DeliverFn fn) { deliver_ = std::move(fn); }
  void set_drop_handler(DropFn fn) { drop_ = std::move(fn); }

  /// Changes the event-buffer bound at runtime (the "dynamic resources"
  /// scenario of paper §4). Excess events are evicted immediately, then
  /// on_capacity_change runs. The one capacity setter for every variant.
  void set_max_events(std::size_t max_events, TimeMs now);

  /// Application-level broadcast: assigns an id, delivers locally, buffers
  /// the event for dissemination in subsequent rounds.
  EventId broadcast(Payload payload, TimeMs now);

  /// Broadcast with semantic metadata (see Event::stream/supersedes): the
  /// event belongs to `stream` and, if `supersedes`, makes every earlier
  /// event this node sent on that stream obsolete.
  EventId broadcast_on_stream(Payload payload, TimeMs now,
                              std::uint32_t stream, bool supersedes);

  /// One message replicated to several targets; the driver encodes the
  /// message once and sends the same bytes to every target.
  struct Outgoing {
    std::vector<NodeId> targets;
    GossipMessage message;

    /// Packages the round as one network batch: encodes the message once
    /// and addresses the shared bytes to every target. An empty round
    /// (no targets) yields an empty batch with no encode at all. The
    /// rvalue overload steals the target list — drivers call it on their
    /// way to send_batch, once per round, so the hot path never copies it.
    [[nodiscard]] Multicast to_multicast(NodeId from) const&;
    [[nodiscard]] Multicast to_multicast(NodeId from) &&;
  };

  /// Executes one gossip round: age update, age-limit purge, emission.
  [[nodiscard]] Outgoing on_round(TimeMs now);

  /// Processes one received (already decoded) gossip message.
  void on_gossip(const GossipMessage& message, TimeMs now);

  /// Recovery control plane (no-ops unless recovery is enabled).
  void on_repair_request(const RepairRequest& request, TimeMs now);
  void on_repair_reply(const RepairReply& reply, TimeMs now);

  /// Dispatches any decoded wire message to the right entry point; returns
  /// false (and does nothing) for std::monostate (malformed input).
  bool on_wire(const WireMessage& message, TimeMs now);

  /// Directed control traffic (repair requests/replies) produced by the
  /// last on_round/on_gossip/on_repair_* call. Drivers must drain this
  /// after every protocol call and transmit each datagram to its target.
  /// Payloads are pre-encoded SharedBytes, ready to drop into a Datagram.
  struct ControlDatagram {
    NodeId target;
    SharedBytes payload;
  };
  [[nodiscard]] std::vector<ControlDatagram> take_outbox();

  [[nodiscard]] const NodeCounters& counters() const noexcept {
    return counters_;
  }
  [[nodiscard]] const EventBuffer& events() const noexcept { return events_; }
  [[nodiscard]] const EventIdBuffer& event_ids() const noexcept {
    return event_ids_;
  }
  [[nodiscard]] membership::Membership& membership() noexcept {
    return *membership_;
  }

  /// The anti-entropy membership layer, when the node runs one (possibly
  /// under a LocalityView decorator); nullptr otherwise. Embedders use it
  /// to wire binding listeners and restart bumps — calls must arrive
  /// through the driver's serialisation, like every membership call.
  [[nodiscard]] membership::GossipMembership* gossip_membership() noexcept {
    return gossip_membership_;
  }

  /// The locality decorator, when the membership is one; nullptr otherwise.
  /// The control plane steers its p_local through this.
  [[nodiscard]] membership::LocalityView* locality_view() noexcept {
    return locality_view_;
  }

  /// The fanout the next round will actually use. Equals params().fanout
  /// until a control plane rescales it per congestion regime.
  [[nodiscard]] std::size_t effective_fanout() const noexcept {
    return effective_fanout_;
  }

 protected:
  /// Called at the start of every round, before aging/emission. The adaptive
  /// node advances its sample period and runs the rate controller here.
  virtual void on_round_start(TimeMs /*now*/) {}

  /// Fills the adaptation header of an outgoing message (Fig. 5(a)).
  virtual void augment_header(GossipMessage& /*message*/,
                              TimeMs /*now*/) {}

  /// Reads the adaptation header of a received message (Fig. 5(a)).
  virtual void process_header(const GossipMessage& /*message*/,
                              TimeMs /*now*/) {}

  /// Called after new events were inserted and ages bumped, but before the
  /// real buffer bound is enforced; the congestion estimator performs its
  /// virtual minBuff-sized drop accounting here (Fig. 5(b)).
  virtual void before_shrink(TimeMs /*now*/) {}

  /// Called after garbage collection; estimators prune dead state here.
  virtual void after_gc(TimeMs /*now*/) {}

  /// Called by set_max_events once the new bound is enforced; the adaptive
  /// node advertises the new capacity to its minBuff estimators here.
  virtual void on_capacity_change(TimeMs /*now*/) {}

  /// Called once per *novel* event the node learns from a peer (gossip or
  /// repair — never its own broadcasts, never duplicates), right after the
  /// local delivery. The control plane's starvation signal counts
  /// remote-origin novelty here.
  virtual void on_event_ingested(const Event& /*event*/, TimeMs /*now*/) {}

  /// Fanout actuator (per-regime scaling). Clamped to >= 1; affects target
  /// selection only — message contents and headers never see it.
  void set_effective_fanout(std::size_t fanout) noexcept {
    effective_fanout_ = fanout == 0 ? 1 : fanout;
  }

  [[nodiscard]] EventBuffer& mutable_events() noexcept { return events_; }
  [[nodiscard]] Rng& rng() noexcept { return rng_; }

 private:
  void record_drops(std::span<const Event> dropped, DropReason reason,
                    TimeMs now);
  void enforce_buffer_bound(TimeMs now);
  void ingest_event(const Event& incoming, TimeMs now, bool via_repair);
  void note_seen_id(const EventId& id);
  void process_seen_digest(const GossipMessage& message);
  void fill_seen_digest(GossipMessage& message);
  void emit_repair_requests();
  void retain_for_retrieval(std::span<const Event> evicted);
  void expire_retrieve_store();
  [[nodiscard]] const Event* find_retrievable(const EventId& id) const;

  NodeId self_;
  GossipParams params_;
  std::unique_ptr<membership::Membership> membership_;
  membership::PartialView* partial_view_ = nullptr;  // non-owning downcast
  membership::GossipMembership* gossip_membership_ = nullptr;  // ditto
  membership::LocalityView* locality_view_ = nullptr;          // ditto
  std::size_t effective_fanout_;
  Rng rng_;
  EventBuffer events_;
  EventIdBuffer event_ids_;
  Round round_ = 0;
  std::uint64_t next_sequence_ = 0;
  NodeCounters counters_;
  DeliverFn deliver_;
  DropFn drop_;

  // Recovery state (empty unless enabled).
  struct MissingEntry {
    NodeId heard_from = kInvalidNode;
    Round heard_round = 0;
    bool requested = false;
  };
  struct RetrievableEvent {
    Event event;
    Round evicted_round = 0;
  };
  std::unordered_map<EventId, MissingEntry> missing_;
  std::deque<EventId> recent_ids_;  // advertisement memory (FIFO)
  std::deque<RetrievableEvent> retrieve_store_;  // answers repairs only
  std::vector<ControlDatagram> outbox_;
};

}  // namespace agb::gossip
