// The rules every scenario harness shares (core::ScenarioGroup and the
// wall-clock runner): the capacity-target rule, the oracle failure
// detector's view update and the rejoin rule, plus the sharded engine's
// shard cap.
#include <gtest/gtest.h>

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "common/config.h"
#include "core/scenario.h"
#include "core/scenario_registry.h"
#include "core/sharded_scenario.h"
#include "gossip/lpbcast_node.h"
#include "membership/full_membership.h"
#include "membership/gossip_membership.h"

namespace agb::core {
namespace {

TEST(ScenarioGroupTest, CapacityTargetsAreTheFirstFractionOfIds) {
  EXPECT_EQ(capacity_targets({0, 0.2, 45}, 24), 4u);  // floor(4.8)
  EXPECT_EQ(capacity_targets({0, 0.2, 45}, 60), 12u);
  EXPECT_EQ(capacity_targets({0, 0.0, 45}, 60), 0u);
  EXPECT_EQ(capacity_targets({0, 1.0, 45}, 60), 60u);
  EXPECT_EQ(capacity_targets({0, 1.5, 45}, 60), 60u);  // never past n
}

TEST(ScenarioGroupTest, OracleViewDropsAndReaddsPeersButNotItsOwnNode) {
  auto view = std::make_unique<membership::FullMembership>(0, Rng(1));
  for (NodeId id = 1; id < 4; ++id) view->add(id);
  gossip::LpbcastNode node(0, gossip::GossipParams{}, std::move(view),
                           Rng(2));

  apply_oracle_view(node, FailureEvent{0, 2, /*up=*/false});
  EXPECT_FALSE(node.membership().contains(2));
  EXPECT_EQ(node.membership().size(), 2u);
  apply_oracle_view(node, FailureEvent{0, 2, /*up=*/true});
  EXPECT_TRUE(node.membership().contains(2));
  apply_oracle_view(node, FailureEvent{0, 0, /*up=*/true});
  EXPECT_FALSE(node.membership().contains(0));  // its own event
  EXPECT_EQ(node.membership().size(), 3u);
}

TEST(ScenarioGroupTest, RejoinBumpsTheRevisionAndMigrationMovesThePort) {
  membership::GossipMembership gm(0, membership::GossipMembershipParams{},
                                  Rng(3));
  gm.set_self_binding({0x7f000001, 9000});
  const std::uint64_t revision = gm.self_record().revision;

  gm.rejoin(/*migrated=*/false);
  EXPECT_EQ(gm.self_record().revision, revision + 1);
  EXPECT_EQ(gm.self_record().binding.port, 9000);

  gm.rejoin(/*migrated=*/true);
  EXPECT_EQ(gm.self_record().revision, revision + 2);
  EXPECT_EQ(gm.self_record().binding.port, 9001);
  EXPECT_EQ(gm.self_record().binding.host, 0x7f000001u);
}

struct ShardedRun {
  ScenarioResults report;
  std::vector<std::uint64_t> fingerprints;
  std::size_t shards = 0;
};

ShardedRun run_paper60(std::size_t sim_shards) {
  Config cfg;
  std::string error;
  for (const char* pair :
       {"n=12", "senders=3", "rate=30", "quick=1", "period_ms=50",
        "warmup_s=1", "duration_s=2", "cooldown_s=1", "seed=11"}) {
    EXPECT_TRUE(cfg.parse_pair(pair, &error)) << error;
  }
  ScenarioParams params = ScenarioRegistry::instance().build("paper60", cfg);
  params.sim_shards = sim_shards;
  params.sim_workers = 1;
  ShardedScenario scenario(std::move(params));
  ShardedRun run;
  run.report = scenario.run();
  run.fingerprints = scenario.tracker().per_node_fingerprints();
  run.shards = scenario.shards();
  return run;
}

TEST(ScenarioGroupTest, ShardedEngineBuildsNoMoreShardsThanNodes) {
  // Node -> shard is `id & mask`, so asking for far more shards than the
  // group has nodes runs the same layout as n rounded up to a power of two.
  const ShardedRun capped = run_paper60(64);
  const ShardedRun sixteen = run_paper60(16);
  EXPECT_EQ(capped.shards, 16u);
  EXPECT_EQ(sixteen.shards, 16u);
  EXPECT_FALSE(capped.fingerprints.empty());
  EXPECT_EQ(capped.fingerprints, sixteen.fingerprints);
  const ScenarioResults& a = capped.report;
  const ScenarioResults& b = sixteen.report;
  EXPECT_EQ(a.delivery.messages, b.delivery.messages);
  EXPECT_EQ(a.delivery.avg_receiver_pct, b.delivery.avg_receiver_pct);
  EXPECT_EQ(a.delivery.atomicity_pct, b.delivery.atomicity_pct);
  EXPECT_EQ(a.delivery.latency_p50_ms, b.delivery.latency_p50_ms);
  EXPECT_EQ(a.delivery.latency_p99_ms, b.delivery.latency_p99_ms);
  EXPECT_EQ(a.net.sent, b.net.sent);
  EXPECT_EQ(a.net.batches, b.net.batches);
  EXPECT_EQ(a.net.events_scheduled, b.net.events_scheduled);
  EXPECT_EQ(a.net.delivered, b.net.delivered);
  EXPECT_EQ(a.net.bytes_delivered, b.net.bytes_delivered);
  EXPECT_EQ(a.avg_drop_age, b.avg_drop_age);

  EXPECT_EQ(run_paper60(5).shards, 8u);  // still a power of two
}

}  // namespace
}  // namespace agb::core
