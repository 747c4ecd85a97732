// Multi-core sharded discrete-event engine: conservative window-synchronized
// parallel simulation over the calendar-queue Simulator.
//
// Layout: `shards` (rounded up to a power of two) independent sim::Simulator
// instances, each owning its own event queue and clock. Node n lives on
// shard `n & (shards - 1)` — the same mask trick InMemoryFabric uses — so
// ownership is a bit-and, never a lookup.
//
// Time advances in lookahead windows:
//
//       serial phase                parallel phase             serial phase
//   T = min(next event   ----->   every shard runs    ----->  drain channels,
//       over all shards)          run_until(T+L-1)            canonical sort,
//   window = [T, T+L)             emitting datagrams          barrier hook
//                                 into ShardChannels          schedules them
//
// L (the lookahead) is a lower bound on network delay, so nothing emitted
// inside a window can be due before the window ends — shards never need to
// see each other's state mid-window, only at barriers. Worker threads (a
// fork-join pool with a static shard -> worker assignment) execute the
// parallel phase; with workers == 1 the same loop runs inline, bit-identical
// to the threaded run because no observable state depends on interleaving:
// every datagram — same-shard or cross-shard — travels through its producer
// shard's channel, and the barrier drains every channel into one batch and
// sorts it canonically before the hook sees it.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "common/types.h"
#include "sim/shard_channel.h"
#include "sim/simulator.h"

namespace agb::sim {

struct ShardedEngineParams {
  /// Requested shard count; rounded up to a power of two, minimum 1.
  std::size_t shards = 1;
  /// Worker threads for the parallel phase; 0 = min(shards, hardware
  /// concurrency). Never affects outcomes, only wall-clock.
  std::size_t workers = 0;
  /// Conservative lookahead L in virtual ms (window length). Must be a
  /// lower bound on every datagram's delay; clamped to >= 1.
  DurationMs lookahead = 1;
};

class ShardedEngine {
 public:
  /// Serial-phase callback at the end of every window: `batch` holds every
  /// datagram emitted during the window, already in canonical
  /// (at, from, seq, to) order; the hook turns them into simulator events
  /// (and does any other shared-state bookkeeping — tracker merges,
  /// samplers). Runs with all workers parked.
  using BarrierHook =
      std::function<void(TimeMs window_end,
                         std::vector<CrossShardDatagram>& batch)>;

  /// Optional window clamp: given the window start T, return a time B >= T
  /// that the next window must not run past (the window closes at B+1), or
  /// any value < T for "no constraint". Scenarios use it to land barriers
  /// exactly on sampler bucket boundaries.
  using BoundaryFn = std::function<TimeMs(TimeMs window_start)>;

  explicit ShardedEngine(ShardedEngineParams params);
  ~ShardedEngine();

  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  [[nodiscard]] std::size_t shards() const noexcept { return sims_.size(); }
  [[nodiscard]] std::size_t workers() const noexcept { return workers_; }
  [[nodiscard]] DurationMs lookahead() const noexcept { return lookahead_; }
  [[nodiscard]] std::size_t shard_of(NodeId id) const noexcept {
    return static_cast<std::size_t>(id) & mask_;
  }
  [[nodiscard]] Simulator& shard(std::size_t s) noexcept { return *sims_[s]; }

  void set_barrier_hook(BarrierHook hook) { hook_ = std::move(hook); }
  void set_boundary(BoundaryFn fn) { boundary_ = std::move(fn); }

  /// Producer side, called from shard `from_shard`'s window execution (the
  /// worker that owns it): appends `d` to that shard's channel. `d.at` must
  /// be >= the running window's end (delay >= L).
  void push(std::size_t from_shard, CrossShardDatagram d) {
    channels_[from_shard].push(std::move(d));
  }

  /// Runs conservative windows until no shard holds an event with
  /// timestamp <= deadline, then advances every shard clock to `deadline`.
  void run_until(TimeMs deadline);

  [[nodiscard]] std::uint64_t windows_run() const noexcept { return windows_; }

  /// Sum of the per-shard event-queue high-water marks. Not comparable
  /// across shard counts (each shard peaks at a different moment); reported
  /// as a capacity receipt, excluded from determinism comparisons.
  [[nodiscard]] std::size_t peak_pending_events() const;

 private:
  [[nodiscard]] std::optional<TimeMs> global_next_event();
  [[nodiscard]] TimeMs window_end_for(TimeMs start, TimeMs deadline) const;
  void run_window(TimeMs window_end, std::size_t worker);
  void close_window(TimeMs window_end);
  void run_windows_single(TimeMs deadline);
  void run_windows_threaded(TimeMs deadline);

  std::vector<std::unique_ptr<Simulator>> sims_;
  std::vector<ShardChannel> channels_;  // one per producer shard
  std::vector<CrossShardDatagram> batch_;  // barrier scratch, reused
  std::size_t mask_ = 0;
  std::size_t workers_ = 1;
  DurationMs lookahead_ = 1;
  BarrierHook hook_;
  BoundaryFn boundary_;
  std::uint64_t windows_ = 0;
};

}  // namespace agb::sim
