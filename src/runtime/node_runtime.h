// Wall-clock driver for one protocol node over a real transport.
//
// NodeRuntime owns a gossip::LpbcastNode (baseline or adaptive), runs its
// gossip rounds on a dedicated thread, decodes incoming datagrams from the
// transport, and serialises every other touch of the node under one lock:
// broadcasts, admission, scenario rules and snapshots. It is the runtime
// counterpart of the simulation harness in src/core: same state machines,
// same codec, real time and threads. Application senders (queues, retries,
// refusals) live in the harness, not here: core::SenderQueue reaches a
// running node through admit().
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>

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

  /// The admission call core::SenderQueue makes, at the runtime's own
  /// clock: a baseline node admits at once, an adaptive node only with a
  /// token. Returns the admitted event's id, or nullopt on refusal (the
  /// caller keeps the payload and offers it again). Thread-safe.
  std::optional<EventId> admit(gossip::Payload payload, std::uint32_t stream,
                               bool supersedes);

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

  /// Runtime equivalent of the dynamic-resources experiment
  /// (LpbcastNode::set_max_events under the node lock).
  void set_capacity(std::size_t max_events);

  /// Runs `fn` on the protocol node under the node lock, serialised with
  /// the round and receive paths: how a harness applies a scenario rule to
  /// a running node. core::WallclockScenario's oracle failure detector
  /// updates survivors' views through it, so a LocalityView's bridge
  /// re-election sees each update atomically.
  void with_node(const std::function<void(gossip::LpbcastNode&)>& fn);

  /// Drops `node` from this node's view, under the node lock.
  void remove_member(NodeId node);

  /// Restart hook for nodes running membership::GossipMembership:
  /// GossipMembership::rejoin under the node lock (a revision bump, and
  /// with `migrate_binding` a rotated endpoint port). No-op for
  /// oracle-driven membership.
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
};

}  // namespace agb::runtime
