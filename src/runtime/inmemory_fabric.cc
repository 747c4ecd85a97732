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
    : link_(params.loss, resolve_sampler(params)),
      zero_delay_(link_.sampler().always_zero()),
      epoch_(std::chrono::steady_clock::now()) {
  // Round the shard count up to a power of two so node -> shard/slot is a
  // mask and a shift instead of a division.
  std::size_t count = 1;
  while (count < params.shards) count <<= 1;
  shard_mask_ = count - 1;
  shard_shift_ = 0;
  while ((std::size_t{1} << shard_shift_) < count) ++shard_shift_;
  shards_.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->stream.rng = Rng(shard_seed(seed, i));
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
  const TimeMs stamp = now();

  // Liveness snapshot (only when anyone is down at all), sorted in
  // std::set order so the per-target probe is a binary search without
  // re-taking the mutex.
  thread_local std::vector<NodeId> down_snapshot;
  down_snapshot.clear();
  if (down_count_.load(std::memory_order_acquire) > 0) {
    std::lock_guard lock(down_mutex_);
    down_snapshot.assign(down_.begin(), down_.end());
  }
  const auto is_down_now = [&](NodeId node) {
    return !down_snapshot.empty() &&
           std::binary_search(down_snapshot.begin(), down_snapshot.end(),
                              node);
  };
  const bool sender_down = is_down_now(batch.from);
  const auto down = [&](NodeId to) { return sender_down || is_down_now(to); };

  // Split the fan-out per shard in ONE pass over the targets, outside any
  // lock. The scratch sublists are thread-local so a steady-state sender
  // allocates nothing here.
  thread_local std::vector<std::vector<NodeId>> scratch;
  if (count > 1) {
    if (scratch.size() < count) scratch.resize(count);
    for (std::size_t i = 0; i < count; ++i) scratch[i].clear();
    for (NodeId to : batch.targets) {
      scratch[static_cast<std::size_t>(to) & shard_mask_].push_back(to);
    }
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
      std::size_t ready = 0;  // zero-delay survivors, compacted into sub
      TimeMs earliest = kNever;
      link_.send(
          batch.from, sub, batch.payload, stamp, shard.stream, fault_plane_,
          shard.stats, down,
          [&](NodeId to, DurationMs delay, const SharedBytes& payload,
              bool own) {
            if (shard.stopping) {
              ++shard.stats.dropped_detached;  // shutdown() discards it
              return;
            }
            if (zero_delay_ && !own) {
              sub[ready++] = to;  // never ahead of the link's own cursor
              return;
            }
            // Equal due times keep insertion order (multimap), preserving
            // per-receiver FIFO; each entry aliases its payload.
            earliest = std::min(earliest, stamp + delay);
            shard.delayed.emplace(stamp + delay,
                                  Datagram{batch.from, to, payload});
          });
      if (ready > 0) {
        // Due immediately: ONE queue entry and one payload refcount bump
        // for this whole shard's share, expanded at dispatch.
        sub.resize(ready);
        shard.ready_count += ready;
        shard.ready.push_back(
            ReadyBatch{batch.from, batch.payload, std::move(sub)});
        // Wake a waiting dispatcher: nothing it waits for is due sooner.
        notify = shard.wake_at != kAwake;
      }
      // A dispatcher that wakes by the earliest due time finds the delayed
      // datagrams on its own, and the skipped futex syscall is most of a
      // send's cost.
      notify = notify || earliest < shard.wake_at;
      if (shard.depth() > shard.max_depth) shard.max_depth = shard.depth();
    }
    if (notify) shard.cv.notify_one();  // one wakeup per touched shard
  }
}

sim::NetworkStats InMemoryFabric::stats() const {
  sim::NetworkStats total;
  for (const auto& shard : shards_) {
    std::lock_guard lock(shard->mutex);
    total += shard->stats;
  }
  return total;
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
      shard.stats.dropped_detached += shard.depth();
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
      ++shard.stats.dropped_detached;
      return;
    }
    // Receiver crashed while the datagram was in flight: re-check at
    // delivery time, as the simulator does (granularity: one drain cycle).
    if (!down_now.empty() &&
        std::binary_search(down_now.begin(), down_now.end(), datagram.to)) {
      ++shard.stats.dropped_down;
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
          shard.stats.dropped_detached += burst.size() - offset;
          break;
        }
        BatchHandler handler = shard.handlers[slot];  // copy: may detach
        const std::size_t count =
            std::min(kMaxBurst, burst.size() - offset);
        shard.stats.delivered += count;
        for (std::size_t i = offset; i < offset + count; ++i) {
          shard.stats.bytes_delivered += burst[i].payload.size();
        }
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
