// The four benchmark workloads and the records their checks compare.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/scenario.h"
#include "metrics/delivery_tracker.h"
#include "sim/network.h"
#include "stats.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;  // Chrome trace file for the sampled spans
};

/// What a simulator run must reproduce exactly, traced or not.
struct SimRecord {
  agb::sim::NetworkStats net;
  agb::metrics::DeliveryReport report;
  std::vector<std::uint64_t> fingerprints;  // DeliveryTracker, per node
  std::uint64_t decode_failures = 0;
};

/// Field-by-field comparison; returns one line per mismatch (empty when
/// the records are identical).
[[nodiscard]] std::vector<std::string> compare_records(const SimRecord& a,
                                                       const SimRecord& b);

/// The same scenario run untraced through core::Scenario (first) and
/// traced through the benchmark's replay (second). Only clean
/// presets (no chaos, failure or capacity schedule) can be replayed.
[[nodiscard]] std::pair<SimRecord, SimRecord> untraced_and_traced_records(
    const agb::core::ScenarioParams& params);

[[nodiscard]] bool is_sim_workload(const std::string& name);
[[nodiscard]] bool is_wallclock_workload(const std::string& name);

/// sim-scale, sim-paper-adaptive.
RunResult run_sim_workload(const Options& options);
/// wallclock-inmemory, wallclock-udp.
RunResult run_wallclock_workload(const Options& options);

/// Puts every per-layer metric at 0, so each traced run reports the full
/// set; a workload then fills in the layers it exercises.
void put_per_layer_defaults(RunResult& result);

/// Prints the traced run's per-layer table (count, busy s, self s, share
/// of `wall_ns`, and the wait percentiles in ms of the layers `waits`
/// names) for every layer that recorded a span.
class Tracer;
void print_layer_table(const Tracer& tracer, std::int64_t wall_ns,
                       const std::map<std::string, Percentiles>& waits = {});

}  // namespace perfbench
