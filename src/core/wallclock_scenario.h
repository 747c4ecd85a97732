// Wall-clock twin of core::Scenario: the same ScenarioParams, run on real
// threads instead of the discrete-event simulator.
//
// Every ScenarioRegistry preset the simulator can run, this runner can run
// too: nodes are built by the shared core::build_scenario_node (identical
// master-RNG split sequence, so the same seed yields the same initial
// views, locality decorations and bridge elections on both paths), driven
// by runtime::NodeRuntime round threads over a sharded
// runtime::InMemoryFabric carrying the preset's network model (latency
// range, WAN cluster topology, i.i.d. or bursty loss).
//
// Everything else runs on one paced clock: a sim::Simulator in run-relative
// milliseconds, stepped on the calling thread whenever the fabric clock
// reaches its next event. It carries the simulators' own SenderQueues
// (admitting through NodeRuntime::admit, under the node lock and at the
// runtime's clock), the capacity and failure schedules and the 200 ms
// p_local sampler. Crash/recover maps to InMemoryFabric::set_node_up, and
// the simulators' rejoin (GossipMembership::rejoin), oracle-view
// (apply_oracle_view) and capacity-target (capacity_targets) rules reach
// the running nodes through NodeRuntime — the exact moves ScenarioGroup
// makes in virtual time. The runner starts no thread of its own.
//
// warmup/duration/cooldown are *real* milliseconds here; metrics use the
// same evaluation-window rules as the simulator (metrics::DeliveryTracker
// over [warmup, warmup+duration)). The scenario-parity conformance suite
// (tests/scenario_parity_test.cc) runs every registry preset through both
// paths and asserts they agree on the preset's invariants.
#pragma once

#include <cstddef>
#include <memory>

#include "core/scenario.h"

namespace agb::core {

struct WallclockOptions {
  /// Receiver shards of the InMemoryFabric (see its Params::shards).
  std::size_t shards = 4;
};

class WallclockScenario {
 public:
  explicit WallclockScenario(ScenarioParams params,
                             WallclockOptions options = {});
  ~WallclockScenario();

  WallclockScenario(const WallclockScenario&) = delete;
  WallclockScenario& operator=(const WallclockScenario&) = delete;

  /// Runs the experiment in real time (warmup + duration + cooldown
  /// milliseconds of wall clock) and returns the report. Call once. The
  /// report's `net` is the fabric's ledger; see ScenarioResults for the
  /// fields this path leaves at zero.
  ScenarioResults run();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace agb::core
