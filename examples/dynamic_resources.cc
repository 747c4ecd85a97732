// Dynamic resources demo: the paper's Figure 9 scenario as a watchable
// timeline. 20% of the group shrinks its buffers mid-run and later grows
// them back partially; the printout shows the adaptive sender rate chasing
// the moving capacity while atomicity stays high.
//
//   $ ./dynamic_resources
//   $ ./dynamic_resources adaptive=0     # watch lpbcast collapse instead
#include <cstdio>
#include <stdexcept>

#include "common/config.h"
#include "core/scenario.h"
#include "core/scenario_registry.h"

int main(int argc, char** argv) {
  using namespace agb;

  Config cfg;
  std::string error;
  if (!cfg.parse_args(argc, argv, &error)) {
    std::fprintf(stderr, "usage: dynamic_resources [key=value ...]\n%s\n",
                 error.c_str());
    return 2;
  }

  // The demo's defaults; any key of the scenario key table (agb_sim
  // list=1) overrides them. The age marks and the initial rate follow
  // critical_age and rate.
  core::ScenarioParams base;
  base.n = 40;
  base.senders = 4;
  base.offered_rate = 20.0;
  base.adaptive = true;
  base.gossip.fanout = 4;
  base.gossip.gossip_period = 1000;
  base.gossip.max_events = 60;
  base.gossip.max_event_ids = 3000;
  base.gossip.max_age = 14;
  base.adaptation.critical_age = 7.0;
  base.adaptation.increase_probability = 0.25;
  base.warmup = 20'000;
  base.duration = 240'000;
  base.cooldown = 20'000;
  base.series_bucket = 10'000;
  base.seed = 11;
  core::ScenarioParams p;
  try {
    p = core::params_from_config(cfg, base);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "dynamic_resources: %s\n", e.what());
    return 2;
  }

  // Shrink at +80 s, partial recovery at +160 s (relative to eval start).
  const TimeMs t1 = p.warmup + 80'000;
  const TimeMs t2 = p.warmup + 160'000;
  p.capacity_schedule = {{t1, 0.2, 18}, {t2, 0.2, 36}};

  std::printf("dynamic resources timeline (%s)\n",
              p.adaptive ? "adaptive" : "lpbcast baseline");
  std::printf("  40 nodes, offered %.0f msg/s, buffers 60 events\n",
              p.offered_rate);
  std::printf("  t=+80s : 20%% of nodes shrink 60 -> 18 events\n");
  std::printf("  t=+160s: those nodes grow back 18 -> 36 events\n\n");

  core::Scenario scenario(p);
  auto r = scenario.run();

  std::printf(" t(s) | allowed msg/s | input msg/s | atomicity %%\n");
  std::printf("------+---------------+-------------+------------\n");
  for (const auto& [t, atomicity] : r.atomicity_ts.points()) {
    const auto rel = static_cast<long long>((t - p.warmup) / 1000);
    const double allowed =
        p.adaptive ? r.allowed_rate_ts.value_at(t) : p.offered_rate;
    std::printf("%5lld | %13.1f | %11.1f | %10.1f%s\n", rel, allowed,
                r.input_rate_ts.value_at(t), atomicity,
                (t - p.warmup == 80'000 || t - p.warmup == 160'000)
                    ? "   <- capacity change"
                    : "");
  }

  std::printf("\nwhole-run: input %.1f msg/s, atomicity %.1f%%, avg "
              "receivers %.1f%%\n",
              r.input_rate, r.delivery.atomicity_pct,
              r.delivery.avg_receiver_pct);
  if (p.adaptive) {
    std::printf("the allowed rate steps down after the shrink and climbs "
                "back after the recovery.\n");
  } else {
    std::printf("without adaptation the input never backs off and "
                "atomicity collapses in the\nconstrained phase.\n");
  }
  return 0;
}
