// Quickstart: run an adaptive gossip broadcast group in the deterministic
// simulator and print the reliability report.
//
//   $ ./quickstart            # defaults: 30 nodes, 12 msg/s offered
//   $ ./quickstart n=60 rate=30 buffer=60
//
// This exercises the highest-level API (core::Scenario). For driving the
// protocol over real transports see examples/udp_cluster.cc; for the
// node-level API see examples/pubsub_topics.cc.
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
    std::fprintf(stderr, "usage: quickstart [key=value ...]\n%s\n",
                 error.c_str());
    return 2;
  }

  // The example's defaults; any key of the scenario key table (agb_sim
  // list=1) overrides them, parsed and range-checked like agb_sim's.
  core::ScenarioParams base;
  base.n = 30;
  base.senders = 3;
  base.offered_rate = 12.0;
  base.adaptive = true;
  base.gossip.fanout = 4;
  base.gossip.gossip_period = 1000;
  base.gossip.max_events = 40;
  base.gossip.max_age = 20;
  base.warmup = 10'000;
  base.duration = 60'000;
  base.cooldown = 15'000;
  base.seed = 1;
  core::ScenarioParams params;
  try {
    params = core::params_from_config(cfg, base);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "quickstart: %s\n", e.what());
    return 2;
  }

  std::printf("adaptive gossip broadcast quickstart\n");
  std::printf("  group size   : %zu nodes (%zu senders)\n", params.n,
              params.senders);
  std::printf("  offered load : %.1f msg/s aggregate\n", params.offered_rate);
  std::printf("  event buffer : %zu messages per node\n",
              params.gossip.max_events);
  std::printf("  algorithm    : %s\n\n",
              params.adaptive ? "adaptive (paper Fig. 5)"
                              : "lpbcast baseline (paper Fig. 1)");

  core::Scenario scenario(params);
  auto r = scenario.run();

  std::printf("results over a %.0f s evaluation window:\n",
              r.delivery.window_s);
  std::printf("  broadcasts admitted : %llu (%.2f msg/s)\n",
              static_cast<unsigned long long>(r.delivery.messages),
              r.input_rate);
  std::printf("  avg %% of receivers  : %.2f %%\n",
              r.delivery.avg_receiver_pct);
  std::printf("  atomic (>95%%) msgs  : %.2f %%\n", r.delivery.atomicity_pct);
  std::printf("  p50 dissemination   : %.0f ms\n", r.delivery.latency_p50_ms);
  if (params.adaptive) {
    std::printf("  allowed rate (mean) : %.2f msg/s aggregate\n",
                r.avg_allowed_rate);
    std::printf("  group minBuff       : %.0f messages\n", r.avg_min_buff);
  }
  std::printf("  overflow drops      : %llu (mean age %.1f hops)\n",
              static_cast<unsigned long long>(r.overflow_drops),
              r.avg_drop_age);
  std::printf("  network             : %llu datagrams delivered, %llu lost\n",
              static_cast<unsigned long long>(r.net.delivered),
              static_cast<unsigned long long>(r.net.dropped_loss));
  return 0;
}
