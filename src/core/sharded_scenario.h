// The scenario harness on the multi-core sharded engine.
//
// Same ScenarioParams, same metrics and the same experiment loop as the
// classic core::Scenario: both drive one core::ScenarioGroup (the group
// build into per-shard arenas, the round-phase wheel, the sender queues,
// the series sampler, and the rejoin, oracle-view and capacity-target
// rules). What is this engine's own: sim::ShardedEngine's per-shard clocks
// and queues, a network that sends through the window-barrier channels
// (sim::Link's one order: down sender, loss, one-way rule, delay floored
// at the lookahead, fault-plane copies; the receiver's liveness is checked
// at delivery), per-shard operation logs replayed at barriers as the
// accounting sink, and a sampler fired at the barriers that land on bucket
// boundaries. Node `id` lives on shard `id & (shards - 1)`, with its round
// wheel, sender state and network randomness confined to that shard. The
// shard count is sim_shards rounded up to a power of two, but never more
// than the group has nodes (rounded up too), so no shard is built empty.
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
// Relationship to the classic engine: at sim_shards=1 this engine
// reproduces the classic golden traces (tests/event_queue_test.cc pins all
// five on both engines). They differ where the network draws randomness —
// the classic network samples loss and latency from one shared Rng, this
// one per sender — in net.events_scheduled, since one event here delivers
// every same-time datagram of a shard, and in avg_drop_age's last bits,
// since same-time drop ages fold in canonical order here, in event order
// there. tools/agb_sim routes sim_shards <= 1 to core::Scenario. Both
// engines agree on every paper-level invariant (the scenario-parity suite
// runs both).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

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

  /// Post-run introspection, like Scenario's: the protocol nodes, the
  /// delivery tracker (its per_node_fingerprints() are the determinism
  /// suite's witness), the actual (power-of-two) shard count, the worker
  /// threads used and the conservative windows executed.
  [[nodiscard]] const std::vector<gossip::LpbcastNode*>& nodes()
      const noexcept;
  [[nodiscard]] const std::vector<adaptive::AdaptiveLpbcastNode*>&
  adaptive_nodes() const noexcept;
  [[nodiscard]] const metrics::DeliveryTracker& tracker() const noexcept;
  [[nodiscard]] std::size_t shards() const noexcept;
  [[nodiscard]] std::size_t workers() const noexcept;
  [[nodiscard]] std::uint64_t windows() const noexcept;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace agb::core
