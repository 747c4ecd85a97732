// The scenario harness on the multi-core sharded engine.
//
// Same ScenarioParams, same metrics, same master-RNG build order as the
// classic core::Scenario — but the run executes on sim::ShardedEngine:
// every node lives on shard `id & (sim_shards - 1)` with its round wheel,
// sender state and network randomness confined to that shard, and shards
// advance in conservative lookahead windows, exchanging every datagram
// through the window-barrier channels.
//
// Determinism contract (pinned by tests/sharded_sim_test.cc): for a fixed
// seed, every scenario-visible outcome — per-node delivered-event
// fingerprints, DeliveryReport, NetworkStats (minus the engine-internal
// events_scheduled / peak_event_queue_len), per-node counters, membership
// verdicts, chaos receipts, time series — is identical for every
// sim_shards in {1, 2, 4, 8, ...} and every worker count. The ingredients:
//   * network randomness is per *sender node* (fixed seed derivation, no
//     shared draw-order), so who shares a shard cannot perturb draws;
//   * all deliveries (same-shard too) cross a window barrier and are
//     canonically sorted by (time, sender, send-seq, receiver) before being
//     scheduled, so same-time delivery order is run-invariant;
//   * shared accumulators (DeliveryTracker, drop-age stats, series
//     samplers) are only touched in the serial barrier phase, replaying
//     per-shard logs in canonical order — float accumulation order is
//     fixed, so even doubles compare exactly.
//
// Relationship to the classic engine: ShardedScenario at sim_shards=1 runs
// the same sharded code path (so the determinism suite can compare 1 vs N
// shards exactly); byte-identity with the classic Scenario's golden traces
// is the *driver's* contract — tools/agb_sim routes sim_shards <= 1 to
// core::Scenario untouched. Classic and sharded engines agree on every
// paper-level invariant (the scenario-parity suite runs both), but not on
// exact RNG draws: the classic network samples loss/latency from one shared
// Rng, the sharded one per sender.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>

#include "core/scenario.h"
#include "sim/sharded_engine.h"

namespace agb::core {

class ShardedScenario {
 public:
  explicit ShardedScenario(ScenarioParams params);
  ~ShardedScenario();

  ShardedScenario(const ShardedScenario&) = delete;
  ShardedScenario& operator=(const ShardedScenario&) = delete;

  /// Runs the full experiment and returns the report. Call once. In the
  /// report, `net.events_scheduled` counts batched application groups (one
  /// per (shard, deliver-time) run) and `peak_event_queue_len` sums
  /// per-shard peaks — both engine-internal and excluded from
  /// cross-shard-count comparisons.
  ScenarioResults run();

  /// Post-run introspection, like Scenario's: the delivery tracker (its
  /// per_node_fingerprints() are the determinism suite's witness), the
  /// actual (power-of-two) shard count, the worker threads used and the
  /// conservative windows executed.
  [[nodiscard]] const metrics::DeliveryTracker& tracker() const noexcept;
  [[nodiscard]] std::size_t shards() const noexcept;
  [[nodiscard]] std::size_t workers() const noexcept;
  [[nodiscard]] std::uint64_t windows() const noexcept;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace agb::core
