// Reproduces paper Figure 9: "Dynamic Buffer Size."
//
// The run starts uncongested; at t1, 20 % of the nodes shrink their buffers
// from 90 to 45 messages; at t2 they grow back — but only to 60, still
// below what the input load needs. Two plots:
//   (a) the aggregate allowed rate over time (with the per-phase ideal
//       rates as reference lines), showing fast convergence after each
//       reconfiguration;
//   (b) atomicity over time for lpbcast vs adaptive: lpbcast collapses when
//       resources shrink, the adaptive variant recovers and holds.
#include <cstdio>
#include <iostream>

#include "bench_common.h"
#include "core/capacity_search.h"
#include "metrics/table.h"

int main(int argc, char** argv) {
  using namespace agb;
  auto cfg = bench::parse_cli(argc, argv);
  // The fig9 preset carries the whole timeline: load just under the 90-slot
  // capacity knee, eager-recovery gamma, and the 90 -> 45 -> 60 capacity
  // schedule (override with t1_s/t2_s/buf1/buf2/fraction or a raw
  // capacity= spec). For a starker lpbcast collapse, try rate=36 buf1=30
  // fraction=0.3; ROADMAP item 1 records the default run's allowed rates.
  auto base = bench::preset_params("fig9", cfg);
  base.gossip.max_events = static_cast<std::size_t>(
      cfg.get_int("buf0", static_cast<long long>(base.gossip.max_events)));
  if (base.capacity_schedule.size() != 2) {
    std::fprintf(stderr,
                 "fig9 needs a two-step capacity schedule (got %zu steps)\n",
                 base.capacity_schedule.size());
    return 2;
  }
  const TimeMs t1 = base.capacity_schedule[0].at - base.warmup;
  const TimeMs t2 = base.capacity_schedule[1].at - base.warmup;
  const auto buf1 = base.capacity_schedule[0].new_capacity;
  const auto buf2 = base.capacity_schedule[1].new_capacity;

  bench::print_banner(
      "Figure 9",
      "dynamic buffers: 20% of nodes 90 -> 45 -> 60 under constant load",
      base);

  // Reference "ideal" rates per phase, from capacity search with the phase's
  // minimum buffer (the constrained nodes bound the whole group).
  auto ideal_for = [&](std::size_t buffer) {
    auto params = base;
    params.capacity_schedule.clear();
    params.gossip.max_events = buffer;
    params.duration = 80'000;
    core::CapacitySearchOptions options;
    options.lo = 2.0;
    options.hi = 60.0;
    options.tol = 2.0;
    options.criterion = core::CapacitySearchOptions::Criterion::kAtomicity;
    return core::find_max_rate(params, options).max_rate;
  };
  const double ideal0 = ideal_for(base.gossip.max_events);
  const double ideal1 = ideal_for(buf1);
  const double ideal2 = ideal_for(buf2);

  auto adaptive = base;
  adaptive.adaptive = true;
  core::Scenario ad_scenario(adaptive);
  auto ad = ad_scenario.run();

  auto lpbcast = base;
  lpbcast.adaptive = false;
  core::Scenario lp_scenario(lpbcast);
  auto lp = lp_scenario.run();

  std::printf("(a) allowed rate over time (adaptive)\n");
  std::printf("ideal per phase: [0,t1)=%.1f  [t1,t2)=%.1f  [t2,end)=%.1f "
              "msg/s; offered %.1f msg/s\n",
              std::min(ideal0, base.offered_rate),
              std::min(ideal1, base.offered_rate),
              std::min(ideal2, base.offered_rate), base.offered_rate);
  metrics::Table rate_table({"t_s", "allowed_msg_s", "input_msg_s",
                             "ideal_msg_s"});
  for (const auto& [t, allowed] : ad.allowed_rate_ts.points()) {
    const TimeMs rel = t - base.warmup;
    if (rel < 0 || rel >= base.duration) continue;
    const double ideal = rel < t1 ? ideal0 : (rel < t2 ? ideal1 : ideal2);
    rate_table.add_numeric_row(
        {static_cast<double>(rel) / 1000.0, allowed,
         ad.input_rate_ts.value_at(t),
         std::min(ideal, base.offered_rate)},
        1);
  }
  rate_table.print(std::cout);

  std::printf("\n(b) atomicity over time, lpbcast vs adaptive\n");
  metrics::Table atom_table({"t_s", "lpbcast_pct", "adaptive_pct"});
  for (const auto& [t, pct] : ad.atomicity_ts.points()) {
    const TimeMs rel = t - base.warmup;
    atom_table.add_numeric_row({static_cast<double>(rel) / 1000.0,
                                lp.atomicity_ts.value_at(t), pct},
                               1);
  }
  atom_table.print(std::cout);

  std::printf(
      "\npaper shape: allowed rate steps down after t1 and partially "
      "recovers after t2, tracking the\nper-phase ideal; lpbcast atomicity "
      "collapses in the constrained phases while the adaptive\nvariant "
      "stays high (and above the homogeneous-simulation value, since "
      "unconstrained nodes\nkeep their full local buffers).\n");
  bench::warn_unused(cfg);
  return 0;
}
