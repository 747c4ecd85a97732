#include "core/scenario.h"

#include <gtest/gtest.h>

#include "common/config.h"
#include "core/capacity_search.h"
#include "core/scenario_registry.h"
#include "core/sharded_scenario.h"
#include "core/wallclock_scenario.h"

namespace agb::core {
namespace {

ScenarioParams small_scenario() {
  ScenarioParams p;
  p.n = 20;
  p.senders = 2;
  p.offered_rate = 5.0;
  p.gossip.fanout = 3;
  p.gossip.gossip_period = 1000;
  p.gossip.max_events = 200;  // ample: no overflow
  p.gossip.max_event_ids = 2000;
  // Ages advance in hops (several per round through phase cascades), so the
  // purge limit must sit well above the hops needed for full dissemination.
  p.gossip.max_age = 24;
  p.warmup = 5'000;
  p.duration = 30'000;
  p.cooldown = 15'000;
  p.seed = 7;
  return p;
}

TEST(ScenarioTest, AmpleBuffersDeliverEverything) {
  Scenario scenario(small_scenario());
  auto results = scenario.run();
  EXPECT_GT(results.delivery.messages, 100u);
  EXPECT_GT(results.delivery.avg_receiver_pct, 99.0);
  EXPECT_GT(results.delivery.atomicity_pct, 99.0);
  EXPECT_EQ(results.decode_failures, 0u);
  EXPECT_EQ(results.overflow_drops, 0u);
}

TEST(ScenarioTest, InputRateTracksOfferedLoad) {
  Scenario scenario(small_scenario());
  auto results = scenario.run();
  EXPECT_NEAR(results.input_rate, 5.0, 0.75);
}

TEST(ScenarioTest, SameSeedIsBitwiseReproducible) {
  auto run_once = [] {
    Scenario scenario(small_scenario());
    return scenario.run();
  };
  auto a = run_once();
  auto b = run_once();
  EXPECT_EQ(a.delivery.messages, b.delivery.messages);
  EXPECT_DOUBLE_EQ(a.delivery.avg_receiver_pct, b.delivery.avg_receiver_pct);
  EXPECT_DOUBLE_EQ(a.input_rate, b.input_rate);
  EXPECT_EQ(a.net.sent, b.net.sent);
  EXPECT_EQ(a.net.delivered, b.net.delivered);
}

TEST(ScenarioTest, DifferentSeedsDiffer) {
  ScenarioParams p1 = small_scenario();
  ScenarioParams p2 = small_scenario();
  p2.seed = 8;
  Scenario s1(p1), s2(p2);
  auto a = s1.run();
  auto b = s2.run();
  // Gossip emission *count* is schedule-driven (nodes x rounds x fanout), so
  // compare payload traffic, which depends on the random buffer contents.
  EXPECT_NE(a.net.bytes_delivered, b.net.bytes_delivered);
}

TEST(ScenarioTest, TinyBuffersDegradeBaselineReliability) {
  ScenarioParams p = small_scenario();
  p.offered_rate = 20.0;
  p.gossip.max_events = 5;
  Scenario scenario(p);
  auto results = scenario.run();
  EXPECT_LT(results.delivery.atomicity_pct, 90.0);
  EXPECT_GT(results.overflow_drops, 0u);
  EXPECT_GT(results.avg_drop_age, 0.0);
}

TEST(ScenarioTest, AdaptiveThrottlesUnderConstrainedBuffers) {
  ScenarioParams base = small_scenario();
  base.offered_rate = 20.0;
  base.gossip.max_events = 10;
  base.duration = 60'000;

  ScenarioParams adaptive = base;
  adaptive.adaptive = true;
  adaptive.adaptation.initial_rate = 10.0;
  adaptive.adaptation.critical_age = 6.0;
  adaptive.adaptation.low_age_mark = 5.5;
  adaptive.adaptation.high_age_mark = 6.5;

  Scenario s_base(base), s_adaptive(adaptive);
  auto r_base = s_base.run();
  auto r_adaptive = s_adaptive.run();

  // The baseline pushes the whole offered load and loses reliability; the
  // adaptive variant sends less and keeps reliability high.
  EXPECT_LT(r_adaptive.input_rate, r_base.input_rate * 0.8);
  EXPECT_GT(r_adaptive.delivery.avg_receiver_pct,
            r_base.delivery.avg_receiver_pct);
  EXPECT_GT(r_adaptive.refused_broadcasts, 0u);
}

TEST(ScenarioTest, AdaptiveAcceptsLoadWhenResourcesAmple) {
  ScenarioParams p = small_scenario();
  p.adaptive = true;
  p.offered_rate = 4.0;
  p.gossip.max_events = 300;
  p.adaptation.initial_rate = 2.0;  // must grow to accept the offered load
  Scenario scenario(p);
  auto results = scenario.run();
  EXPECT_NEAR(results.input_rate, 4.0, 1.0);
  EXPECT_GT(results.delivery.atomicity_pct, 99.0);
}

TEST(ScenarioTest, CapacityScheduleTakesEffect) {
  ScenarioParams p = small_scenario();
  p.capacity_schedule = {{10'000, 0.25, 3}};
  Scenario scenario(p);
  (void)scenario.run();
  // The first 25% of nodes switched to 3-slot buffers.
  const auto affected = static_cast<std::size_t>(0.25 * p.n);
  for (std::size_t i = 0; i < p.n; ++i) {
    const auto expected = i < affected ? 3u : p.gossip.max_events;
    EXPECT_EQ(scenario.nodes()[i]->params().max_events, expected) << i;
  }
}

TEST(ScenarioTest, FailureScheduleSilencesCrashedNodes) {
  ScenarioParams p = small_scenario();
  // Crash a third of the group for the whole run; they can't deliver.
  for (NodeId id = 0; id < 6; ++id) {
    p.failure_schedule.push_back({0, id, false});
  }
  Scenario scenario(p);
  auto results = scenario.run();
  // Sender 0 is among the crashed (senders sit at ids 0 and 10): its
  // messages reach only itself (~5%), sender 10's reach the 14 live nodes
  // (~70%), so the average lands near 37%; atomicity is zero either way.
  EXPECT_LT(results.delivery.avg_receiver_pct, 60.0);
  EXPECT_GT(results.delivery.avg_receiver_pct, 25.0);
  EXPECT_LT(results.delivery.atomicity_pct, 5.0);
}

TEST(ScenarioTest, CrashRecoveryRestoresDissemination) {
  ScenarioParams p = small_scenario();
  p.duration = 40'000;
  for (NodeId id = 0; id < 6; ++id) {
    p.failure_schedule.push_back({0, id, false});
    p.failure_schedule.push_back({20'000, id, true});
  }
  Scenario scenario(p);
  auto results = scenario.run();
  // After recovery the tail of the run is fully reliable again.
  const auto& series = results.atomicity_ts;
  ASSERT_FALSE(series.empty());
  EXPECT_GT(series.points().back().second, 95.0);
}

TEST(ScenarioTest, PartialViewScenarioStillDelivers) {
  ScenarioParams p = small_scenario();
  p.partial_view = true;
  p.view_params.max_view = 8;
  p.view_params.max_subs = 8;
  p.view_params.max_unsubs = 8;
  Scenario scenario(p);
  auto results = scenario.run();
  EXPECT_GT(results.delivery.avg_receiver_pct, 95.0);
}

TEST(ScenarioTest, LossyNetworkDegradesGracefully) {
  ScenarioParams p = small_scenario();
  p.network.loss = sim::LossModel::iid(0.2);
  Scenario scenario(p);
  auto results = scenario.run();
  // Gossip redundancy shrugs off 20% iid loss with ample buffers.
  EXPECT_GT(results.delivery.avg_receiver_pct, 98.0);
  EXPECT_GT(results.net.dropped_loss, 0u);
}

TEST(ScenarioTest, PeriodicArrivalsSupported) {
  ScenarioParams p = small_scenario();
  p.poisson_arrivals = false;
  Scenario scenario(p);
  auto results = scenario.run();
  EXPECT_NEAR(results.input_rate, 5.0, 0.5);
}

// A zero offered rate starts no arrival process (its 1000/0 ms
// inter-arrival gap is infinite): every engine runs the idle group to its
// horizon and broadcasts nothing.
TEST(ScenarioTest, ZeroOfferedRateBroadcastsNothingOnEveryEngine) {
  ScenarioParams p = small_scenario();
  p.offered_rate = 0.0;
  p.gossip.gossip_period = 50;
  p.warmup = 200;
  p.duration = 500;
  p.cooldown = 200;
  const auto broadcasts = [](const auto& nodes) {
    std::uint64_t total = 0;
    for (const auto* node : nodes) total += node->counters().broadcasts;
    return total;
  };

  Scenario classic(p);
  const ScenarioResults a = classic.run();
  EXPECT_EQ(broadcasts(classic.nodes()), 0u);
  EXPECT_GT(a.net.sent, 0u);  // the rounds still ran

  ScenarioParams sharded_params = p;
  sharded_params.sim_shards = 2;
  ShardedScenario sharded(sharded_params);
  const ScenarioResults b = sharded.run();
  EXPECT_EQ(broadcasts(sharded.nodes()), 0u);

  const ScenarioResults c = WallclockScenario(p).run();
  for (const ScenarioResults* r : {&a, &b, &c}) {
    EXPECT_EQ(r->delivery.messages, 0u);
    EXPECT_EQ(r->input_rate, 0.0);
    EXPECT_EQ(r->refused_broadcasts, 0u);
    EXPECT_EQ(r->max_pending_depth, 0u);
  }
}

// The wall clock samples the simulators' adaptation series on every
// adaptive run, so the back-pressure bench's wall-clock run (the
// agb_sim_backpressure_bench parameters) reports the rate it admits at.
TEST(ScenarioTest, WallclockAdaptiveRunSamplesTheAdaptationSeries) {
  Config cfg;
  for (const char* pair :
       {"n=12", "senders=3", "initial_rate=2", "pending_cap=16", "quick=1",
        "period_ms=50", "warmup_s=1", "duration_s=2", "cooldown_s=1"}) {
    ASSERT_TRUE(cfg.parse_pair(pair, nullptr)) << pair;
  }
  const ScenarioParams p =
      ScenarioRegistry::instance().build("adaptive-backpressure", cfg);
  ASSERT_TRUE(p.adaptive && p.adaptation.control.enabled);
  const ScenarioResults r = WallclockScenario(p).run();
  EXPECT_GT(r.input_rate, 0.0);
  EXPECT_GT(r.avg_allowed_rate, 0.0);
  EXPECT_GT(r.final_allowed_rate, 0.0);
  EXPECT_FALSE(r.min_buff_ts.empty());
  EXPECT_FALSE(r.fanout_ts.empty());
  EXPECT_TRUE(r.p_local_ts.empty());  // no locality view to steer
}

TEST(ScenarioTest, RunTwiceReturnsEmptySecondTime) {
  Scenario scenario(small_scenario());
  (void)scenario.run();
  auto second = scenario.run();
  EXPECT_EQ(second.delivery.messages, 0u);
}

TEST(CapacitySearchTest, FindsRateWithinBracket) {
  ScenarioParams p = small_scenario();
  p.gossip.max_events = 12;
  p.warmup = 5'000;
  p.duration = 25'000;
  p.cooldown = 10'000;
  CapacitySearchOptions options;
  options.lo = 2.0;
  options.hi = 60.0;
  options.tol = 4.0;
  auto result = find_max_rate(p, options);
  EXPECT_GE(result.max_rate, 2.0);
  EXPECT_LT(result.max_rate, 60.0);
  EXPECT_GE(result.metric_at_knee, 95.0);
}

TEST(CapacitySearchTest, AmpleBuffersSaturateUpperBound) {
  ScenarioParams p = small_scenario();
  p.gossip.max_events = 1000;
  p.warmup = 5'000;
  p.duration = 20'000;
  p.cooldown = 10'000;
  CapacitySearchOptions options;
  options.lo = 1.0;
  options.hi = 6.0;  // way below true capacity
  options.tol = 1.0;
  auto result = find_max_rate(p, options);
  EXPECT_DOUBLE_EQ(result.max_rate, 6.0);
}

}  // namespace
}  // namespace agb::core
