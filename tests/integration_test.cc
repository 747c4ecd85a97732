// Cross-module integration tests: whole simulated groups exercising the
// paper's end-to-end behaviours (minBuff propagation through real gossip,
// dynamic resource changes, heterogeneous groups, sim-vs-runtime parity of
// the wire format).
#include <gtest/gtest.h>

#include <algorithm>

#include "core/scenario.h"
#include "gossip/message.h"

namespace agb::core {
namespace {

ScenarioParams adaptive_base() {
  ScenarioParams p;
  p.n = 24;
  p.senders = 3;
  p.offered_rate = 12.0;
  p.adaptive = true;
  p.gossip.fanout = 3;
  p.gossip.gossip_period = 1000;
  p.gossip.max_events = 60;
  p.gossip.max_event_ids = 2000;
  p.gossip.max_age = 10;
  // Paper §3.4: with a single node holding the minimum, the sample period
  // must cover the hops needed to reach everyone (tau >= a_r * T).
  p.adaptation.sample_period = 4000;
  p.adaptation.min_buff_window = 2;
  p.adaptation.initial_rate = 4.0;
  p.warmup = 6'000;
  p.duration = 50'000;
  p.cooldown = 15'000;
  p.seed = 31;
  return p;
}

TEST(IntegrationTest, GroupConvergesToSmallestBufferViaGossipOnly) {
  // One node joins with a 9-slot buffer; everyone else has 60. Within a few
  // sample periods every member's minBuff estimate must equal 9 — learned
  // exclusively from piggybacked headers.
  ScenarioParams p = adaptive_base();
  p.capacity_schedule = {{0, 1.0 / 24.0, 9}};  // node 0 only
  Scenario scenario(p);
  (void)scenario.run();
  for (const auto* node : scenario.adaptive_nodes()) {
    EXPECT_EQ(node->min_buff(), 9u) << "node " << node->id();
  }
}

TEST(IntegrationTest, ObsoleteMinimumExpiresAfterNodeGrowsBack) {
  // The constrained node shrinks, then grows back mid-run; the group's
  // estimate must recover to the larger value (paper §3.1's motivation for
  // per-period estimates).
  ScenarioParams p = adaptive_base();
  p.capacity_schedule = {{0, 1.0 / 24.0, 9}, {30'000, 1.0 / 24.0, 60}};
  Scenario scenario(p);
  (void)scenario.run();
  for (const auto* node : scenario.adaptive_nodes()) {
    EXPECT_EQ(node->min_buff(), 60u) << "node " << node->id();
  }
}

TEST(IntegrationTest, HeterogeneousBuffersUseLocalCapacityForStorage) {
  // Nodes with big local buffers keep using them even while advertising the
  // group minimum (paper §3.2: virtual drops are pure accounting).
  ScenarioParams p = adaptive_base();
  p.offered_rate = 20.0;
  p.capacity_schedule = {{0, 0.25, 10}};  // a quarter of the group is small
  Scenario scenario(p);
  auto r = scenario.run();
  std::size_t large_node_max_held = 0;
  for (std::size_t i = 6; i < p.n; ++i) {  // the unconstrained nodes
    large_node_max_held =
        std::max(large_node_max_held, scenario.nodes()[i]->events().size());
  }
  // Large nodes hold more than the advertised 10-slot minimum.
  EXPECT_GT(large_node_max_held, 10u);
  EXPECT_GT(r.delivery.avg_receiver_pct, 90.0);
}

TEST(IntegrationTest, DynamicShrinkThrottlesThenRecovers) {
  // The paper's Fig. 9 scenario in miniature: resources shrink at t1, grow
  // (partially) at t2; the allowed rate must fall after t1 and rise after
  // t2, while atomicity stays high throughout for the adaptive variant.
  ScenarioParams p = adaptive_base();
  p.offered_rate = 16.0;
  p.adaptation.initial_rate = 16.0 / 3.0;
  // Recovery speed is gamma * increase_factor per round; the defaults are
  // deliberately gentle (paper §3.4), so speed them up to observe recovery
  // within a short test run.
  p.adaptation.increase_probability = 0.3;
  p.adaptation.increase_factor = 0.2;
  p.duration = 100'000;
  p.series_bucket = 3'000;
  const TimeMs t1 = p.warmup + 30'000;
  const TimeMs t2 = p.warmup + 60'000;
  p.capacity_schedule = {{t1, 0.2, 5}, {t2, 0.2, 30}};
  Scenario scenario(p);
  auto r = scenario.run();

  const double rate_before = r.allowed_rate_ts.mean_in(t1 - 12'000, t1);
  const double rate_squeezed = r.allowed_rate_ts.mean_in(t1 + 15'000, t2);
  const double rate_after =
      r.allowed_rate_ts.mean_in(t2 + 15'000, t2 + 33'000);

  EXPECT_LT(rate_squeezed, rate_before * 0.85);
  EXPECT_GT(rate_after, rate_squeezed * 1.1);
  EXPECT_GT(r.delivery.atomicity_pct, 90.0);
}

TEST(IntegrationTest, BaselineCollapsesInSameDynamicScenario) {
  ScenarioParams p = adaptive_base();
  p.adaptive = false;
  p.offered_rate = 16.0;
  p.duration = 90'000;
  const TimeMs t1 = p.warmup + 30'000;
  // The whole group starves: constraining only a subset does not stop
  // *delivery* (unconstrained peers keep relaying), only relay capacity.
  p.capacity_schedule = {{t1, 1.0, 6}};
  Scenario scenario(p);
  auto r = scenario.run();
  EXPECT_LT(r.delivery.atomicity_pct, 80.0);
}

TEST(IntegrationTest, AdaptiveSurvivesBurstyLoss) {
  ScenarioParams p = adaptive_base();
  p.network.loss = sim::LossModel::burst(0.01, 0.8, 0.02, 0.3);
  Scenario scenario(p);
  auto r = scenario.run();
  // Correlated loss hurts, but the protocol must not collapse entirely.
  EXPECT_GT(r.delivery.avg_receiver_pct, 80.0);
}

TEST(IntegrationTest, SimMessagesAreValidWireImages) {
  // Everything the simulation transports is byte-decodable: any protocol
  // message surviving a scenario run must round-trip the codec. (The
  // scenario itself asserts zero decode failures; this test additionally
  // re-encodes a node's live outgoing message.)
  ScenarioParams p = adaptive_base();
  p.duration = 10'000;
  Scenario scenario(p);
  auto r = scenario.run();
  EXPECT_EQ(r.decode_failures, 0u);
  // There is no direct node access mid-run; craft a round now and verify.
  // (Scenario retains nodes after run() for exactly this kind of probing.)
  auto* node = scenario.adaptive_nodes().front();
  auto out = node->on_round(1'000'000);
  auto decoded = gossip::GossipMessage::decode(out.wire);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->sender, out.message.sender);
  EXPECT_EQ(decoded->events.size(), node->events().size());
  EXPECT_EQ(decoded->min_buff, out.message.min_buff);
}

TEST(IntegrationTest, SendersSpreadAcrossGroup) {
  ScenarioParams p = adaptive_base();
  p.senders = 4;
  Scenario scenario(p);
  (void)scenario.run();
  // Exactly `senders` nodes broadcast; they are spread over the id space.
  std::vector<NodeId> broadcasters;
  for (const auto& node : scenario.nodes()) {
    if (node->counters().broadcasts > 0) broadcasters.push_back(node->id());
  }
  EXPECT_EQ(broadcasters.size(), 4u);
  EXPECT_EQ(broadcasters, (std::vector<NodeId>{0, 6, 12, 18}));
}

TEST(IntegrationTest, AdaptiveOverPartialViewsConverges) {
  // The paper's §5 claims the mechanism works over partial membership
  // knowledge; run the full adaptive stack on lpbcast views.
  ScenarioParams p = adaptive_base();
  p.partial_view = true;
  p.view_params.max_view = 10;
  p.view_params.max_subs = 10;
  p.view_params.max_unsubs = 10;
  p.capacity_schedule = {{0, 1.0 / 24.0, 9}};  // node 0 is constrained
  Scenario scenario(p);
  auto r = scenario.run();
  EXPECT_GT(r.delivery.avg_receiver_pct, 95.0);
  // minBuff still reaches (nearly) everyone through partial views.
  std::size_t converged = 0;
  for (const auto* node : scenario.adaptive_nodes()) {
    if (node->min_buff() == 9u) ++converged;
  }
  EXPECT_GE(converged, scenario.adaptive_nodes().size() - 2);
}

TEST(IntegrationTest, SemanticPurgeProtectsFreshTrafficUnderOverload) {
  // Half the offered load is superseding "state updates"; with semantic
  // purge the obsolete backlog is evicted first, so overflow pressure on
  // meaningful events drops.
  ScenarioParams base = adaptive_base();
  base.adaptive = false;
  base.offered_rate = 24.0;
  base.gossip.max_events = 20;  // heavy pressure
  base.supersede_probability = 0.5;

  ScenarioParams semantic = base;
  semantic.gossip.semantic_purge = true;

  Scenario s_base(base), s_semantic(semantic);
  auto r_base = s_base.run();
  auto r_semantic = s_semantic.run();

  std::uint64_t obsolete = 0;
  for (const auto& node : s_semantic.nodes()) {
    obsolete += node->counters().drops_obsolete;
  }
  EXPECT_GT(obsolete, 0u);
  // Obsolete evictions displace blind overflow evictions.
  EXPECT_LT(r_semantic.overflow_drops, r_base.overflow_drops);
  EXPECT_EQ(r_semantic.decode_failures, 0u);
}

TEST(IntegrationTest, QuiescentGroupExchangesOnlyHeaders) {
  // No senders’ traffic: nodes still gossip (empty messages), deliver
  // nothing, drop nothing.
  ScenarioParams p = adaptive_base();
  p.offered_rate = 0.0001;  // effectively silent
  p.duration = 20'000;
  Scenario scenario(p);
  auto r = scenario.run();
  EXPECT_EQ(r.delivery.messages, 0u);
  EXPECT_EQ(r.overflow_drops, 0u);
  EXPECT_GT(r.net.delivered, 0u);  // gossip itself kept flowing
}

}  // namespace
}  // namespace agb::core
