// Wall-clock driver for one protocol node over a real transport.
//
// NodeRuntime owns a gossip::LpbcastNode (baseline or adaptive), runs its
// gossip rounds on a dedicated thread, decodes incoming datagrams from the
// transport, and exposes a thread-safe broadcast entry point. It is the
// runtime counterpart of the simulation harness in src/core: same state
// machines, same codec, real time and threads.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "adaptive/adaptive_node.h"
#include "common/datagram.h"
#include "fault/fault_plane.h"
#include "gossip/lpbcast_node.h"

namespace agb::runtime {

class NodeRuntime {
 public:
  using Clock = std::function<TimeMs()>;
  using DeliverFn = gossip::LpbcastNode::DeliverFn;

  /// Takes ownership of `node`. `clock` must be monotone and shared by all
  /// runtimes on the fabric (e.g. InMemoryFabric::now). The runtime attaches
  /// itself to `network` under the node's id.
  NodeRuntime(std::unique_ptr<gossip::LpbcastNode> node,
              DatagramNetwork& network, Clock clock);
  ~NodeRuntime();

  NodeRuntime(const NodeRuntime&) = delete;
  NodeRuntime& operator=(const NodeRuntime&) = delete;

  /// Must be called before start(); fires on the round/receive threads.
  void set_deliver_handler(DeliverFn fn);

  /// Starts the round thread.
  void start();

  /// Stops the round thread and detaches from the network.
  void stop();

  /// Baseline broadcast (always admitted). Thread-safe.
  EventId broadcast(gossip::Payload payload);

  /// Adaptive, token-gated broadcast. Returns false when the node is not
  /// adaptive-capable or out of tokens. Thread-safe.
  bool try_broadcast(gossip::Payload payload, EventId* out_id = nullptr);

  /// Blocking-BROADCAST semantics, the wall-clock twin of the simulator's
  /// sender path: an adaptive node out of tokens *queues* the payload (up
  /// to the pending cap) instead of refusing it, and the round thread
  /// retries the queue front as the token bucket refills (every
  /// min(gossip_period, 100 ms), matching the sim's retry timer). Returns
  /// false only when the pending queue is full — the same condition under
  /// which the simulator refuses a broadcast. Non-adaptive nodes admit
  /// immediately. Thread-safe.
  bool enqueue_broadcast(gossip::Payload payload);
  bool enqueue_broadcast_on_stream(gossip::Payload payload,
                                   std::uint32_t stream, bool supersedes);

  /// Pending-queue bound for enqueue_broadcast (the simulator's
  /// ScenarioParams::pending_cap twin). Call before start().
  void set_pending_cap(std::size_t cap);

  /// Gray-failure injection (non-owning; may be null): stall rules sleep
  /// the receive path before each burst, making this node slow-but-up —
  /// its round thread keeps gossiping, so membership must not flap. Call
  /// before start().
  void set_fault_plane(fault::FaultPlane* plane) noexcept {
    fault_plane_ = plane;
  }

  /// Malformed datagrams dropped at decode (std::monostate from
  /// decode_any). Zero in clean runs; rises under chaos corruption.
  [[nodiscard]] std::uint64_t decode_drops() const {
    return decode_drops_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] NodeId id() const { return node_->id(); }
  [[nodiscard]] bool adaptive() const { return adaptive_ != nullptr; }

  /// Snapshot accessors (lock internally).
  [[nodiscard]] gossip::NodeCounters counters() const;
  [[nodiscard]] double allowed_rate() const;
  [[nodiscard]] std::uint32_t min_buff() const;
  [[nodiscard]] double avg_age() const;

  /// Back-pressure introspection: current queue depth, its lifetime
  /// high-water mark, and the per-retry-tick depth samples (for depth
  /// percentiles in benches).
  [[nodiscard]] std::size_t pending_depth() const;
  [[nodiscard]] std::size_t max_pending_depth() const;
  [[nodiscard]] std::vector<std::size_t> pending_depth_samples() const;

  /// Control-plane actuator snapshot: the LocalityView's live p_local (-1
  /// without locality / without an adaptive node).
  [[nodiscard]] double p_local() const;

  /// Runtime equivalent of the dynamic-resources experiment.
  void set_capacity(std::size_t max_events);

  /// Membership maintenance from outside the protocol: the wall-clock
  /// failure-detector path (core::WallclockScenario's scheduler thread)
  /// tells survivors about crashes/recoveries here, the same role
  /// FailureEvent + failure_detector plays under the simulator. Serialised
  /// with the round/receive paths by the node lock, so a LocalityView's
  /// bridge re-election sees the update atomically.
  void add_member(NodeId node);
  void remove_member(NodeId node);

  /// Restart hook for nodes running membership::GossipMembership: bumps
  /// the node's own revision (rejoin semantics — its records beat every
  /// stale claim the group still holds), and with `migrate_binding` also
  /// rotates its advertised endpoint port, modelling a host move. No-op
  /// for oracle-driven membership. Serialised by the node lock.
  void on_recover(bool migrate_binding);

  /// Liveness verdict the node's gossip membership currently holds for
  /// `peer` (nullopt: unknown peer, or no gossip membership at all).
  [[nodiscard]] std::optional<membership::LivenessState> peer_state(
      NodeId peer) const;

  /// The node's own gossip-membership layer, or nullptr. Only safe to
  /// touch before start() (listener wiring) or after stop() (assertions):
  /// in between, the round and dispatcher threads own it via the lock.
  [[nodiscard]] membership::GossipMembership* gossip_membership();

  /// The protocol node itself, under the same rule as gossip_membership():
  /// only before start() or after stop() (core::WallclockScenario reads
  /// its report from here).
  [[nodiscard]] gossip::LpbcastNode& node() { return *node_; }

 private:
  void round_loop();
  void on_datagram_batch(const Datagram* batch, std::size_t count,
                         TimeMs now);
  /// Admits queued broadcasts while tokens last, then samples the depth.
  /// Caller holds mutex_.
  void drain_pending_locked();

  std::unique_ptr<gossip::LpbcastNode> node_;
  adaptive::AdaptiveLpbcastNode* adaptive_;  // non-owning downcast
  DatagramNetwork& network_;
  Clock clock_;
  fault::FaultPlane* fault_plane_ = nullptr;
  std::atomic<std::uint64_t> decode_drops_{0};

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::atomic<bool> stopping_{false};
  bool started_ = false;
  std::thread round_thread_;

  /// Broadcasts waiting for tokens (blocking-BROADCAST back-pressure).
  struct PendingBroadcast {
    gossip::Payload payload;
    std::uint32_t stream = 0;
    bool supersedes = false;
  };
  std::deque<PendingBroadcast> pending_;
  std::size_t pending_cap_ = 64;
  std::size_t max_pending_depth_ = 0;
  std::vector<std::size_t> depth_samples_;
};

}  // namespace agb::runtime
