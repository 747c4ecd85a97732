// Threaded in-memory datagram fabric (wall-clock twin of sim::SimNetwork).
//
// The paper validates its simulations against a prototype running on 60
// workstations; our runtime substitutes an in-process fabric: real threads,
// real wall-clock timing, real serialized datagrams, optional loss and
// delay injection. The network model is the simulator's sim::Link: the same
// sim::LossModel (i.i.d. or bursty Gilbert-Elliott), the same latency
// topology (sim::DelaySampler, with its WAN cluster rule) and the same
// fault plane, applied to each addressed copy in the same order — down
// endpoint, loss, one-way rule, delay, fault-plane copies — so every
// scenario the simulator can price, the wall-clock path can run, and it
// reports the simulator's sim::NetworkStats ledger.
//
// The fabric is sharded by receiver: node n belongs to shard n % shards,
// and each shard owns its own delay-ordered queue, dispatcher thread, link
// stream and ledger. send_batch splits a fan-out across the shards it
// touches and runs each shard's share through the link under that shard's
// lock (one acquisition per touched shard, not per target); the fault
// plane, when set, is sampled under it too, so the lock order is shard
// mutex, then plane mutex. Dispatchers deliver independently — deliveries
// to receivers on different shards proceed in parallel. Within a shard,
// all currently-due datagrams for one receiver are handed to its handler
// as a single burst (BatchHandler), so a receiver pays its per-delivery
// cost once per burst. Same-due-time datagrams to one receiver are
// delivered in send order (a receiver maps to exactly one shard, and each
// shard's queue is FIFO among equal due times). Handlers run on dispatcher
// threads and must synchronise their own state (runtime::NodeRuntime
// does).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <thread>
#include <vector>

#include "common/datagram.h"
#include "common/rng.h"
#include "common/types.h"
#include "fault/fault_plane.h"
#include "sim/delay_sampler.h"
#include "sim/network.h"

namespace agb::runtime {

class InMemoryFabric final : public DatagramNetwork {
 public:
  struct Params {
    /// The simulator's loss process. Under kBurst each shard advances its
    /// own Gilbert-Elliott chain — per-shard streams, the same statistics
    /// as the simulator's single chain.
    sim::LossModel loss{};
    DurationMs min_delay = 0;
    DurationMs max_delay = 2;
    /// WAN cluster rule, mirroring sim::NetworkParams: with clusters > 1,
    /// node i belongs to cluster i % clusters and a datagram crossing a
    /// cluster boundary samples [wan_min_delay, wan_max_delay] instead of
    /// [min_delay, max_delay].
    std::size_t clusters = 1;
    DurationMs wan_min_delay = 20;
    DurationMs wan_max_delay = 60;
    /// Receiver shards, each with its own delay queue + dispatcher thread.
    /// Rounded up to a power of two (shard addressing is a mask, not a
    /// division); 1 reproduces the classic single-dispatcher fabric.
    std::size_t shards = 4;
    /// Full latency topology, shared with sim::SimNetwork: any
    /// sim::LatencyModel (fixed / uniform / normal) as the default and WAN
    /// models, plus per-link overrides. When set it replaces the integer
    /// delay fields above entirely (including the cluster rule used for
    /// latency and the intra/cross stats split); when empty the fabric
    /// builds an equivalent sampler from min/max_delay, clusters and
    /// wan_min/max_delay, so existing callers are unchanged.
    std::optional<sim::DelaySampler> sampler{};
  };

  explicit InMemoryFabric(Params params, std::uint64_t seed = 1);
  ~InMemoryFabric() override;

  InMemoryFabric(const InMemoryFabric&) = delete;
  InMemoryFabric& operator=(const InMemoryFabric&) = delete;

  void attach(NodeId node, DatagramHandler handler) override;

  /// Native batch ingestion: the handler sees every currently-due burst
  /// for `node` in one call (all entries share `to == node`, send order
  /// preserved).
  void attach_batch(NodeId node, BatchHandler handler) override;

  /// Removes the node and blocks until any in-flight handler call for it
  /// has returned (unless called from that handler itself), so callers may
  /// destroy handler state immediately afterwards. Only the node's own
  /// shard is involved — a detach never stalls the other dispatchers.
  void detach(NodeId node) override;

  /// Splits the fan-out across receiver shards: one lock acquisition per
  /// *touched shard*, never per target, and a dispatcher wakeup only where
  /// a datagram is due before the dispatcher would wake anyway. Each
  /// target goes through the link under its shard's lock. After
  /// shutdown() a send is still counted, and lands in dropped_detached.
  void send_batch(Multicast batch) override;

  /// Crash/recover, the wall-clock twin of sim::SimNetwork::set_node_up: a
  /// down node neither sends nor receives (its handler stays attached, so
  /// recovery is just set_node_up(node, true)). Sends from a down node and
  /// deliveries to one are counted in stats().dropped_down; datagrams
  /// already in flight when the receiver goes down are re-checked at
  /// delivery time, like the simulator does. Thread-safe against concurrent
  /// senders and dispatchers.
  void set_node_up(NodeId node, bool up);
  [[nodiscard]] bool node_up(NodeId node) const;

  /// Fault injection (non-owning; may be null = clean run), the wall-clock
  /// twin of sim::SimNetwork::set_fault_plane. Clean runs make no plane
  /// draws and no payload copies. Set before traffic starts; the plane must
  /// outlive the fabric's send activity.
  void set_fault_plane(fault::FaultPlane* plane) noexcept {
    fault_plane_ = plane;
  }

  /// Milliseconds since the fabric was created (the runtime's clock).
  [[nodiscard]] TimeMs now() const;

  /// The datagram ledger in the simulator's vocabulary: the sum of the
  /// shards' ledgers. `sent` counts every addressed target before any
  /// drop, split intra/cross by the cluster rule; each drop lands under one
  /// reason: down (sender or receiver, set_node_up), loss, chaos
  /// (fault-plane one-way rule) or detached (receiver unknown or detached,
  /// or discarded by shutdown()). batches, events_scheduled and
  /// dropped_partition stay zero. Exact once traffic has stopped.
  [[nodiscard]] sim::NetworkStats stats() const;

  /// How many times the send path took a shard lock. A fan-out costs one
  /// acquisition per shard it touches — at most min(fan-out, shards), and
  /// exactly 1 when shards == 1. The batch micro-benchmarks report this
  /// per batch.
  [[nodiscard]] std::uint64_t send_lock_acquisitions() const {
    return send_lock_acquisitions_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }

  /// Lifetime high-water mark of `shard`'s delay queue (datagrams queued
  /// at once). The saturation gauge for sizing `Params::shards`. Throws
  /// std::out_of_range for shard >= shard_count().
  [[nodiscard]] std::size_t max_queue_depth(std::size_t shard) const;

  /// Max of max_queue_depth(shard) over all shards.
  [[nodiscard]] std::size_t max_queue_depth() const;

  /// Stops every dispatcher and joins its thread exactly once; queued
  /// datagrams are discarded without invoking any handler. Called by the
  /// destructor; safe to call repeatedly, from multiple threads, and from
  /// a handler (the destructor joins that handler's own dispatcher later).
  void shutdown();

 private:
  /// Most datagrams handed to one handler call: bounds how long one
  /// receiver's burst can monopolise its shard's dispatcher when the queue
  /// is saturated.
  static constexpr std::size_t kMaxBurst = 64;

  /// Shard::wake_at of a running dispatcher and of an untimed wait.
  static constexpr TimeMs kAwake = std::numeric_limits<TimeMs>::min();
  static constexpr TimeMs kNever = std::numeric_limits<TimeMs>::max();

  /// A zero-delay fan-out, stored unexpanded: one queue entry and ONE
  /// payload refcount bump per touched shard, however many targets.
  struct ReadyBatch {
    NodeId from = kInvalidNode;
    SharedBytes payload;
    std::vector<NodeId> targets;  // this shard's targets, in send order
  };

  /// Everything one dispatcher thread owns. Shards never take each
  /// other's locks. Receivers are slot-indexed (slot = node / shards —
  /// node ids are small dense integers throughout the repo), so the hot
  /// path does array lookups, never hashes.
  struct Shard {
    mutable std::mutex mutex;
    std::condition_variable cv;
    std::condition_variable idle_cv;  // signals end of an in-flight handler
    /// Delay-ordered entries, keyed by due time (insertion order among
    /// equal keys = send order). Unused when the fabric is zero-delay.
    std::multimap<TimeMs, Datagram> delayed;
    /// FIFO fast path for a zero-delay fabric: everything is due the
    /// moment it is sent, so ordering is pure send order and enqueueing
    /// skips the multimap's per-entry allocation and rebalancing.
    std::deque<ReadyBatch> ready;
    std::size_t ready_count = 0;  // datagrams across `ready` batches
    std::vector<BatchHandler> handlers;  // slot-indexed; empty = detached
    /// This shard's loss and delay draws and its Gilbert-Elliott chain,
    /// advanced per datagram under `mutex`.
    sim::LinkStream stream;
    /// This shard's share of the ledger, guarded by `mutex`.
    sim::NetworkStats stats;
    bool stopping = false;
    /// When the dispatcher's wait ends on its own: kAwake while it runs
    /// (it re-checks the queues before it ever waits), kNever in an
    /// untimed wait, else the due time it sleeps until. A sender notifies
    /// (a futex syscall) only for a datagram due before it.
    TimeMs wake_at = kAwake;
    NodeId in_flight = kInvalidNode;  // node whose handler is executing
    std::size_t max_depth = 0;
    /// Dispatch scratch, slot-indexed like `handlers` (persistent so a
    /// dispatch cycle allocates nothing in steady state).
    std::vector<std::vector<Datagram>> buckets;
    std::vector<std::size_t> active;  // slots with a non-empty bucket
    std::once_flag join_once;
    std::thread dispatcher;
    /// Set by the dispatcher thread itself, under `mutex`, before its
    /// first queue pop — so detach()/shutdown() comparisons are race-free.
    std::thread::id dispatcher_id;

    [[nodiscard]] std::size_t depth() const {
      return delayed.size() + ready_count;
    }
  };

  /// Node n lives on shard n & shard_mask_ at slot n >> shard_shift_ —
  /// two bit ops, no division on the hot path.
  Shard& shard_of(NodeId node) {
    return *shards_[static_cast<std::size_t>(node) & shard_mask_];
  }
  const Shard& shard_of(NodeId node) const {
    return *shards_[static_cast<std::size_t>(node) & shard_mask_];
  }
  [[nodiscard]] std::size_t slot_of(NodeId node) const {
    return static_cast<std::size_t>(node) >> shard_shift_;
  }

  void dispatch_loop(Shard& shard);

  /// Slow-path liveness probe, gated by `down_count_` at every call site so
  /// fabrics with no failures never touch the mutex.
  [[nodiscard]] bool is_down(NodeId node) const;

  /// Params::loss and the resolved latency topology (Params::sampler, or
  /// the integer delay fields lifted into an equivalent sampler). Draws
  /// come from the receiver shard's stream, so shard streams stay
  /// independent.
  sim::Link link_;
  /// No delay to model: every datagram goes through the Shard::ready FIFO.
  bool zero_delay_;
  std::size_t shard_mask_ = 0;
  unsigned shard_shift_ = 0;
  std::chrono::steady_clock::time_point epoch_;
  std::vector<std::unique_ptr<Shard>> shards_;
  /// Crashed nodes (set_node_up). The atomic count lets the hot paths skip
  /// the mutex entirely while nothing is down — the common case. Leaf lock:
  /// taken inside shard mutexes (delivery-time re-check), never the other
  /// way around.
  mutable std::mutex down_mutex_;
  std::set<NodeId> down_;
  std::atomic<std::size_t> down_count_{0};
  fault::FaultPlane* fault_plane_ = nullptr;
  std::atomic<std::uint64_t> send_lock_acquisitions_{0};
};

}  // namespace agb::runtime
