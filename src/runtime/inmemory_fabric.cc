#include "runtime/inmemory_fabric.h"

#include <algorithm>
#include <chrono>
#include <utility>

namespace agb::runtime {

namespace {

/// Distinct per-shard RNG streams from one user seed (splitmix64 step).
std::uint64_t shard_seed(std::uint64_t seed, std::size_t shard) {
  return seed + 0x9e3779b97f4a7c15ULL * (shard + 1);
}

/// Lifts the legacy integer delay fields into the shared sampler form:
/// min == max collapses to a fixed model, otherwise a uniform range.
sim::LatencyModel range_model(DurationMs lo, DurationMs hi) {
  const auto a = static_cast<double>(lo);
  const auto b = static_cast<double>(hi);
  return lo >= hi ? sim::LatencyModel::fixed(a)
                  : sim::LatencyModel::uniform(a, b);
}

sim::DelaySampler resolve_sampler(const InMemoryFabric::Params& params) {
  if (params.sampler) return *params.sampler;
  return sim::DelaySampler(
      range_model(params.min_delay, params.max_delay), params.clusters,
      range_model(params.wan_min_delay, params.wan_max_delay));
}

}  // namespace

InMemoryFabric::InMemoryFabric(Params params, std::uint64_t seed)
    : params_(params),
      sampler_(resolve_sampler(params)),
      zero_delay_(sampler_.always_zero()),
      has_loss_(params.loss.kind != sim::LossModel::Kind::kNone),
      epoch_(std::chrono::steady_clock::now()) {
  // Round the shard count up to a power of two so node -> shard/slot is a
  // mask and a shift instead of a division.
  std::size_t count = 1;
  while (count < params_.shards) count <<= 1;
  shard_mask_ = count - 1;
  shard_shift_ = 0;
  while ((std::size_t{1} << shard_shift_) < count) ++shard_shift_;
  shards_.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->rng = Rng(shard_seed(seed, i));
    shards_.push_back(std::move(shard));
  }
  for (auto& shard : shards_) {
    Shard* raw = shard.get();
    raw->dispatcher = std::thread([this, raw] { dispatch_loop(*raw); });
  }
}

InMemoryFabric::~InMemoryFabric() { shutdown(); }

TimeMs InMemoryFabric::now() const {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

void InMemoryFabric::attach(NodeId node, DatagramHandler handler) {
  // Stored as a burst handler that replays per datagram: one internal
  // delivery path, per-datagram semantics preserved for classic callers.
  attach_batch(node, [handler = std::move(handler)](const Datagram* batch,
                                                    std::size_t count,
                                                    TimeMs now) {
    for (std::size_t i = 0; i < count; ++i) handler(batch[i], now);
  });
}

void InMemoryFabric::attach_batch(NodeId node, BatchHandler handler) {
  Shard& shard = shard_of(node);
  const std::size_t slot = slot_of(node);
  std::lock_guard lock(shard.mutex);
  if (shard.handlers.size() <= slot) shard.handlers.resize(slot + 1);
  shard.handlers[slot] = std::move(handler);
}

void InMemoryFabric::detach(NodeId node) {
  Shard& shard = shard_of(node);
  const std::size_t slot = slot_of(node);
  std::unique_lock lock(shard.mutex);
  if (slot < shard.handlers.size()) shard.handlers[slot] = nullptr;
  // Wait out an in-flight delivery to this node: once detach returns, the
  // caller may free whatever state the handler captured. A handler that
  // detaches its own node must not wait for itself.
  if (std::this_thread::get_id() != shard.dispatcher_id) {
    shard.idle_cv.wait(lock, [&] { return shard.in_flight != node; });
  }
}

bool InMemoryFabric::is_down(NodeId node) const {
  std::lock_guard lock(down_mutex_);
  return down_.contains(node);
}

void InMemoryFabric::set_node_up(NodeId node, bool up) {
  std::lock_guard lock(down_mutex_);
  if (up) {
    down_.erase(node);
  } else {
    down_.insert(node);
  }
  down_count_.store(down_.size(), std::memory_order_release);
}

bool InMemoryFabric::node_up(NodeId node) const {
  if (down_count_.load(std::memory_order_acquire) == 0) return true;
  return !is_down(node);
}

void InMemoryFabric::send_batch(Multicast batch) {
  const std::size_t count = shards_.size();
  // The intra/cross split mirrors sim::NetworkStats.sent: counted per
  // addressed target, before any drop, so the WAN-traffic share reflects
  // what the sender put on the wire.
  if (sampler_.clusters() > 1) {
    std::size_t cross = 0;
    for (NodeId to : batch.targets) {
      if (sampler_.cross_cluster(batch.from, to)) ++cross;
    }
    sent_cross_cluster_.fetch_add(cross, std::memory_order_relaxed);
    sent_intra_cluster_.fetch_add(batch.targets.size() - cross,
                                  std::memory_order_relaxed);
  } else {
    sent_intra_cluster_.fetch_add(batch.targets.size(),
                                  std::memory_order_relaxed);
  }

  // Liveness filter (only when anyone is down at all): a down sender's
  // whole fan-out is suppressed; down receivers are filtered per target.
  // The snapshot is sorted (std::set order), so the per-target probe is a
  // binary search without re-taking the mutex.
  thread_local std::vector<NodeId> down_snapshot;
  down_snapshot.clear();
  if (down_count_.load(std::memory_order_acquire) > 0) {
    std::lock_guard lock(down_mutex_);
    if (down_.contains(batch.from)) {
      dropped_down_.fetch_add(batch.targets.size(),
                              std::memory_order_relaxed);
      return;
    }
    down_snapshot.assign(down_.begin(), down_.end());
  }
  const auto target_down = [&](NodeId to) {
    return !down_snapshot.empty() &&
           std::binary_search(down_snapshot.begin(), down_snapshot.end(), to);
  };

  // Fault-plane pre-pass, outside any shard lock: peel off targets whose
  // datagram cannot ride the shared fast path (mutated payload, duplicate
  // copies, reorder delay) and enqueue them separately below. Clean runs
  // (null plane) skip this entirely — no extra draws, no copies.
  struct SpecialSend {
    NodeId to;
    DurationMs extra_delay;
    SharedBytes payload;
  };
  std::vector<SpecialSend> specials;
  if (fault_plane_) {
    const TimeMs stamp = now();
    std::size_t kept = 0;
    for (NodeId to : batch.targets) {
      const fault::FaultAction action =
          fault_plane_->sample(batch.from, to, stamp);
      if (action.drop) {
        dropped_chaos_.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      if (action.special()) {
        SharedBytes payload = (action.corrupt || action.truncate)
                                  ? fault_plane_->mutate(batch.payload, action)
                                  : batch.payload;
        for (int copy = 0; copy <= action.duplicates; ++copy) {
          specials.push_back(SpecialSend{to, action.extra_delay, payload});
        }
        continue;
      }
      batch.targets[kept++] = to;
    }
    batch.targets.resize(kept);
  }

  // Split the fan-out per shard in ONE pass over the targets, outside any
  // lock. The scratch sublists are thread-local so a steady-state sender
  // allocates nothing here.
  thread_local std::vector<std::vector<NodeId>> scratch;
  if (count > 1) {
    if (scratch.size() < count) scratch.resize(count);
    for (std::size_t i = 0; i < count; ++i) scratch[i].clear();
    for (NodeId to : batch.targets) {
      if (target_down(to)) {
        dropped_down_.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      scratch[static_cast<std::size_t>(to) & shard_mask_].push_back(to);
    }
  } else if (!down_snapshot.empty()) {
    std::size_t kept = 0;
    for (NodeId to : batch.targets) {
      if (target_down(to)) {
        dropped_down_.fetch_add(1, std::memory_order_relaxed);
      } else {
        batch.targets[kept++] = to;
      }
    }
    batch.targets.resize(kept);
  }
  for (std::size_t i = 0; i < count; ++i) {
    Shard& shard = *shards_[i];
    // This shard's share of the fan-out (owned: the queue entry keeps it).
    std::vector<NodeId> sub = count == 1 ? std::move(batch.targets)
                                         : std::vector<NodeId>(scratch[i]);
    if (sub.empty()) continue;

    bool notify = false;
    {
      std::lock_guard lock(shard.mutex);
      send_lock_acquisitions_.fetch_add(1, std::memory_order_relaxed);
      if (shard.stopping) continue;
      if (has_loss_) {
        std::size_t kept = 0;
        for (NodeId to : sub) {
          if (params_.loss.drop(shard.rng, shard.burst_bad)) {
            dropped_loss_.fetch_add(1, std::memory_order_relaxed);
          } else {
            sub[kept++] = to;
          }
        }
        sub.resize(kept);
      }
      if (!sub.empty()) {
        if (zero_delay_) {
          // Due immediately: ONE queue entry and one payload refcount
          // bump for this whole shard's share, expanded at dispatch.
          shard.ready_count += sub.size();
          shard.ready.push_back(
              ReadyBatch{batch.from, batch.payload, std::move(sub)});
          // Wake a waiting dispatcher: nothing it waits for is due sooner.
          notify = shard.wake_at != kAwake;
        } else {
          const TimeMs base = now();
          TimeMs earliest = kNever;
          for (NodeId to : sub) {
            // Shared latency selection (per-link override > cluster rule >
            // default), sampled from this shard's Rng — the wall-clock twin
            // of SimNetwork's selection, including normal distributions and
            // pinned per-link models.
            const DurationMs delay =
                sampler_.sample(batch.from, to, shard.rng);
            earliest = std::min(earliest, base + delay);
            // Each entry aliases the batch payload: a refcount bump per
            // target. Equal due times keep insertion order (multimap),
            // preserving per-receiver FIFO.
            shard.delayed.emplace(base + delay,
                                  Datagram{batch.from, to, batch.payload});
          }
          // A dispatcher that wakes by the earliest due time finds these
          // datagrams on its own, and the skipped futex syscall is most of
          // a send's cost.
          notify = earliest < shard.wake_at;
        }
        if (shard.depth() > shard.max_depth) shard.max_depth = shard.depth();
      }
    }
    if (notify) shard.cv.notify_one();  // one wakeup per touched shard
  }

  // Fault-plane specials: each rides the delay queue as its own entry (the
  // delayed path is live even on a zero-delay fabric — the dispatcher
  // drains both queues), with the sampled link delay plus any reorder
  // delay, carrying its own (possibly mutated) payload.
  for (SpecialSend& special : specials) {
    if (target_down(special.to)) {
      dropped_down_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    Shard& shard = shard_of(special.to);
    bool notify = false;
    {
      std::lock_guard lock(shard.mutex);
      send_lock_acquisitions_.fetch_add(1, std::memory_order_relaxed);
      if (shard.stopping) continue;
      if (has_loss_ && params_.loss.drop(shard.rng, shard.burst_bad)) {
        dropped_loss_.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      const DurationMs delay =
          zero_delay_ ? 0 : sampler_.sample(batch.from, special.to, shard.rng);
      const TimeMs due = now() + delay + special.extra_delay;
      shard.delayed.emplace(
          due, Datagram{batch.from, special.to, std::move(special.payload)});
      if (shard.depth() > shard.max_depth) shard.max_depth = shard.depth();
      notify = due < shard.wake_at;
    }
    if (notify) shard.cv.notify_one();
  }
}

sim::NetworkStats InMemoryFabric::stats() const {
  constexpr auto kRelaxed = std::memory_order_relaxed;
  sim::NetworkStats s;
  s.sent_intra_cluster = sent_intra_cluster_.load(kRelaxed);
  s.sent_cross_cluster = sent_cross_cluster_.load(kRelaxed);
  s.sent = s.sent_intra_cluster + s.sent_cross_cluster;
  s.delivered = delivered_.load(kRelaxed);
  s.bytes_delivered = bytes_delivered_.load(kRelaxed);
  s.dropped_loss = dropped_loss_.load(kRelaxed);
  s.dropped_down = dropped_down_.load(kRelaxed);
  s.dropped_detached = dropped_detached_.load(kRelaxed);
  s.dropped_chaos = dropped_chaos_.load(kRelaxed);
  return s;
}

std::size_t InMemoryFabric::max_queue_depth(std::size_t shard) const {
  const Shard& s = *shards_.at(shard);  // throws for shard >= shard_count()
  std::lock_guard lock(s.mutex);
  return s.max_depth;
}

std::size_t InMemoryFabric::max_queue_depth() const {
  std::size_t depth = 0;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    depth = std::max(depth, max_queue_depth(i));
  }
  return depth;
}

void InMemoryFabric::shutdown() {
  const auto self = std::this_thread::get_id();
  // A handler may call shutdown() from its own dispatcher thread (e.g.
  // reacting to a poison-pill datagram); that thread cannot join itself —
  // the destructor, running on another thread, performs that join later.
  std::vector<bool> self_is_dispatcher(shards_.size(), false);
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    Shard& shard = *shards_[i];
    {
      std::lock_guard lock(shard.mutex);
      shard.stopping = true;
      // Discard everything still queued: after shutdown() no handler runs
      // again, so a caller may tear down handler state right away.
      dropped_detached_.fetch_add(shard.depth(), std::memory_order_relaxed);
      shard.delayed.clear();
      shard.ready.clear();
      shard.ready_count = 0;
      self_is_dispatcher[i] = shard.dispatcher_id == self;
    }
    shard.cv.notify_all();
  }
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    if (self_is_dispatcher[i]) continue;
    Shard& shard = *shards_[i];
    // Join exactly once even when shutdown() races with itself (e.g. an
    // explicit call concurrent with the destructor).
    std::call_once(shard.join_once, [&shard] {
      if (shard.dispatcher.joinable()) shard.dispatcher.join();
    });
  }
}

void InMemoryFabric::dispatch_loop(Shard& shard) {
  // Caps the datagrams drained (and so the lock hold) per dispatch cycle;
  // a deeper backlog is simply drained over several cycles.
  constexpr std::size_t kDrainCap = 1024;
  std::unique_lock lock(shard.mutex);
  shard.dispatcher_id = std::this_thread::get_id();
  // Down-node snapshot for the current drain cycle (sorted: std::set
  // order), refreshed once per cycle below — so the per-datagram liveness
  // probe is a binary search, never a global mutex, and dispatchers don't
  // serialise on down_mutex_ during churn windows.
  std::vector<NodeId> down_now;
  auto bucket_push = [&](Datagram&& datagram) {
    // Sorts a drained datagram into its receiver's bucket — or drops it on
    // the floor right here when the receiver is unknown or detached.
    const std::size_t slot = slot_of(datagram.to);
    if (slot >= shard.handlers.size() || !shard.handlers[slot]) {
      dropped_detached_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    // Receiver crashed while the datagram was in flight: re-check at
    // delivery time, as the simulator does (granularity: one drain cycle).
    if (!down_now.empty() &&
        std::binary_search(down_now.begin(), down_now.end(), datagram.to)) {
      dropped_down_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    std::vector<Datagram>& bucket = shard.buckets[slot];
    if (bucket.empty()) shard.active.push_back(slot);
    bucket.push_back(std::move(datagram));
  };
  while (true) {
    if (shard.stopping) return;
    if (shard.depth() == 0) {
      shard.wake_at = kNever;
      shard.cv.wait(lock, [&] { return shard.stopping || shard.depth() > 0; });
      shard.wake_at = kAwake;
      continue;
    }
    const TimeMs current = now();
    if (shard.ready.empty()) {
      const TimeMs due = shard.delayed.begin()->first;
      if (due > current) {
        // Until the fabric clock reads `due`, not `due - current` from a
        // clock reading that is up to a millisecond stale.
        shard.wake_at = due;
        shard.cv.wait_until(lock, epoch_ + std::chrono::milliseconds(due));
        shard.wake_at = kAwake;
        continue;
      }
    }
    // Refresh the liveness snapshot for this drain cycle: one mutex
    // acquisition per cycle (and none at all while nothing is down).
    down_now.clear();
    if (down_count_.load(std::memory_order_acquire) > 0) {
      std::lock_guard down_lock(down_mutex_);
      down_now.assign(down_.begin(), down_.end());
    }
    // Drain every currently-due entry in one pass (O(due), not O(queue)
    // per delivery) and group per receiver. Entries land in their
    // receiver's bucket in queue order, so per-receiver FIFO — including
    // among equal due times — is intact.
    if (shard.buckets.size() < shard.handlers.size()) {
      shard.buckets.resize(shard.handlers.size());
    }
    std::size_t expanded = 0;
    while (!shard.ready.empty() && expanded < kDrainCap) {
      ReadyBatch batch = std::move(shard.ready.front());
      shard.ready.pop_front();
      expanded += batch.targets.size();
      shard.ready_count -= batch.targets.size();
      for (NodeId to : batch.targets) {
        bucket_push(Datagram{batch.from, to, batch.payload});
      }
    }
    while (!shard.delayed.empty() &&
           shard.delayed.begin()->first <= current &&
           expanded < kDrainCap) {
      ++expanded;
      bucket_push(std::move(shard.delayed.begin()->second));
      shard.delayed.erase(shard.delayed.begin());
    }
    // One handler call (and one lock cycle) per receiver burst, not per
    // datagram. The handler slot is re-read per chunk under the lock: a
    // concurrent detach() between chunks must stop later deliveries, and
    // shutdown() must stop them all.
    for (const std::size_t slot : shard.active) {
      std::vector<Datagram>& burst = shard.buckets[slot];
      for (std::size_t offset = 0; offset < burst.size();
           offset += kMaxBurst) {
        if (shard.stopping || !shard.handlers[slot]) {
          dropped_detached_.fetch_add(burst.size() - offset,
                                      std::memory_order_relaxed);
          break;
        }
        BatchHandler handler = shard.handlers[slot];  // copy: may detach
        const std::size_t count =
            std::min(kMaxBurst, burst.size() - offset);
        std::uint64_t bytes = 0;
        for (std::size_t i = offset; i < offset + count; ++i) {
          bytes += burst[i].payload.size();
        }
        delivered_.fetch_add(count, std::memory_order_relaxed);
        bytes_delivered_.fetch_add(bytes, std::memory_order_relaxed);
        shard.in_flight = burst[offset].to;
        lock.unlock();
        handler(burst.data() + offset, count, now());
        lock.lock();
        shard.in_flight = kInvalidNode;
        shard.idle_cv.notify_all();
      }
      burst.clear();
    }
    shard.active.clear();
  }
}

}  // namespace agb::runtime
