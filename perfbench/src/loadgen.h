// The wall-clock workloads' inputs, generated from the workload seed.
//
// The generator is the benchmark's own (splitmix64), not the library's Rng,
// so a change to the system under test can never change the inputs it is
// measured on.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// One open-loop broadcast: when it is due (ns after the window opens) and
/// which of the workload's senders issues it.
struct Arrival {
  std::int64_t due_ns = 0;
  std::uint32_t sender = 0;  // index into the sender list
};

struct LoadSpec {
  std::uint64_t seed = 1;
  double rate_per_s = 1000.0;
  double window_s = 10.0;
  std::size_t senders = 4;
};

/// Poisson arrivals at `rate_per_s` over [0, window_s), each assigned to a
/// uniformly drawn sender. Same spec, same schedule.
[[nodiscard]] std::vector<Arrival> arrival_schedule(const LoadSpec& spec);

/// Start phases in [0, period_ns) for `nodes` round threads, so a group's
/// rounds are unsynchronised like the simulator's. Same seed, same phases;
/// drawn from a stream independent of the arrival schedule's.
[[nodiscard]] std::vector<std::int64_t> start_phases(std::uint64_t seed,
                                                     std::size_t nodes,
                                                     std::int64_t period_ns);

}  // namespace perfbench
