#include "sim/network.h"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

namespace agb::sim {
namespace {

Datagram make_datagram(NodeId from, NodeId to, std::uint8_t tag = 0) {
  return Datagram{from, to, {tag}};
}

struct Fixture {
  Simulator sim;
  SimNetwork net;
  std::vector<std::pair<NodeId, TimeMs>> received;  // (to, time)

  explicit Fixture(NetworkParams params = {}, std::uint64_t seed = 1)
      : net(sim, params, Rng(seed)) {}

  void attach(NodeId node) {
    net.attach(node, [this, node](const Datagram&, TimeMs now) {
      received.emplace_back(node, now);
    });
  }
};

TEST(LatencyModelTest, FixedIsConstant) {
  Rng rng(1);
  auto model = LatencyModel::fixed(7.0);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(model.sample(rng), 7);
}

TEST(LatencyModelTest, UniformStaysInRange) {
  Rng rng(2);
  auto model = LatencyModel::uniform(5.0, 15.0);
  for (int i = 0; i < 1000; ++i) {
    const auto d = model.sample(rng);
    EXPECT_GE(d, 5);
    EXPECT_LE(d, 15);
  }
}

TEST(LatencyModelTest, NormalClampsToNonNegative) {
  Rng rng(3);
  auto model = LatencyModel::normal(0.0, 10.0);
  for (int i = 0; i < 1000; ++i) EXPECT_GE(model.sample(rng), 0);
}

TEST(SimNetworkTest, DeliversAfterLatency) {
  NetworkParams params;
  params.latency = LatencyModel::fixed(5.0);
  Fixture f(params);
  f.attach(1);
  f.net.send(make_datagram(0, 1));
  f.sim.run();
  ASSERT_EQ(f.received.size(), 1u);
  EXPECT_EQ(f.received[0].first, 1u);
  EXPECT_EQ(f.received[0].second, 5);
  EXPECT_EQ(f.net.stats().delivered, 1u);
}

TEST(SimNetworkTest, PayloadIntegrity) {
  Fixture f;
  SharedBytes got;
  f.net.attach(2, [&](const Datagram& d, TimeMs) { got = d.payload; });
  f.net.send(Datagram{1, 2, {9, 8, 7}});
  f.sim.run();
  EXPECT_EQ(got, (std::vector<std::uint8_t>{9, 8, 7}));
  EXPECT_EQ(f.net.stats().bytes_delivered, 3u);
}

TEST(SimNetworkTest, SendToDetachedNodeCountsDrop) {
  Fixture f;
  f.net.send(make_datagram(0, 99));
  f.sim.run();
  EXPECT_EQ(f.net.stats().dropped_detached, 1u);
  EXPECT_EQ(f.net.stats().delivered, 0u);
}

TEST(SimNetworkTest, DetachWhileInFlightDrops) {
  NetworkParams params;
  params.latency = LatencyModel::fixed(10.0);
  Fixture f(params);
  f.attach(1);
  f.net.send(make_datagram(0, 1));
  f.sim.run_until(5);
  f.net.detach(1);
  f.sim.run();
  EXPECT_TRUE(f.received.empty());
  EXPECT_EQ(f.net.stats().dropped_detached, 1u);
}

TEST(SimNetworkTest, IidLossDropsApproximatelyP) {
  NetworkParams params;
  params.loss = LossModel::iid(0.25);
  Fixture f(params);
  f.attach(1);
  const int n = 10000;
  for (int i = 0; i < n; ++i) f.net.send(make_datagram(0, 1));
  f.sim.run();
  const double loss_rate =
      static_cast<double>(f.net.stats().dropped_loss) / n;
  EXPECT_NEAR(loss_rate, 0.25, 0.02);
  EXPECT_EQ(f.net.stats().delivered + f.net.stats().dropped_loss,
            static_cast<std::uint64_t>(n));
}

TEST(SimNetworkTest, BurstLossIsBurstier ) {
  // Same average-ish loss, but Gilbert-Elliott produces runs of drops.
  NetworkParams params;
  params.loss = LossModel::burst(0.0, 1.0, 0.02, 0.2);
  Fixture f(params);
  f.net.attach(1, [](const Datagram&, TimeMs) {});
  // Send sequentially; the loss decision happens synchronously in send(),
  // so the drop counter identifies which packets the chain rejected.
  int drop_runs = 0;
  bool prev_dropped = false;
  std::uint64_t last_dropped = 0;
  for (int i = 0; i < 5000; ++i) {
    f.net.send(make_datagram(0, 1));
    const bool dropped = f.net.stats().dropped_loss > last_dropped;
    last_dropped = f.net.stats().dropped_loss;
    if (dropped && !prev_dropped) ++drop_runs;
    prev_dropped = dropped;
  }
  const double total_drops = static_cast<double>(last_dropped);
  ASSERT_GT(total_drops, 100.0);
  // Mean drop-run length must exceed 1 (i.i.d. at the same rate would be
  // close to 1/(1-p) which is near 1 for small p).
  EXPECT_GT(total_drops / drop_runs, 2.0);
}

TEST(SimNetworkTest, DownNodeNeitherSendsNorReceives) {
  Fixture f;
  f.attach(1);
  f.attach(2);
  f.net.set_node_up(1, false);
  EXPECT_FALSE(f.net.node_up(1));
  f.net.send(make_datagram(1, 2));  // down sender
  f.net.send(make_datagram(2, 1));  // down receiver
  f.sim.run();
  EXPECT_TRUE(f.received.empty());
  EXPECT_EQ(f.net.stats().dropped_down, 2u);
}

TEST(SimNetworkTest, CrashWhileInFlightDropsAtDelivery) {
  NetworkParams params;
  params.latency = LatencyModel::fixed(10.0);
  Fixture f(params);
  f.attach(1);
  f.net.send(make_datagram(0, 1));
  f.sim.run_until(5);
  f.net.set_node_up(1, false);  // crashes before the datagram lands
  f.sim.run();
  EXPECT_TRUE(f.received.empty());
  EXPECT_EQ(f.net.stats().dropped_down, 1u);
}

TEST(SimNetworkTest, RecoveredNodeReceivesAgain) {
  Fixture f;
  f.attach(1);
  f.net.set_node_up(1, false);
  f.net.set_node_up(1, true);
  f.net.send(make_datagram(0, 1));
  f.sim.run();
  EXPECT_EQ(f.received.size(), 1u);
}

TEST(SimNetworkTest, LinkLatencyOverridesDefault) {
  NetworkParams params;
  params.latency = LatencyModel::fixed(1.0);
  Fixture f(params);
  f.attach(1);
  f.attach(2);
  f.net.set_link_latency(0, 2, LatencyModel::fixed(50.0));
  f.net.send(make_datagram(0, 1));  // default link: 1 ms
  f.net.send(make_datagram(0, 2));  // overridden: 50 ms
  f.net.send(make_datagram(2, 0));  // symmetric override applies too
  f.sim.run();
  ASSERT_EQ(f.received.size(), 2u);
  EXPECT_EQ(f.received[0].second, 1);
  EXPECT_EQ(f.received[1].second, 50);
}

TEST(SimNetworkTest, ClusterRuleSelectsWanLatency) {
  NetworkParams params;
  params.latency = LatencyModel::fixed(1.0);
  params.clusters = 3;
  params.wan_latency = LatencyModel::fixed(40.0);
  Fixture f(params);
  f.attach(3);  // cluster 0, same as node 0
  f.attach(4);  // cluster 1
  f.net.send(Datagram{0, 3, {}});  // intra-cluster: LAN latency
  f.net.send(Datagram{0, 4, {}});  // cross-cluster: WAN latency
  f.sim.run();
  ASSERT_EQ(f.received.size(), 2u);
  EXPECT_EQ(f.received[0], (std::pair<NodeId, TimeMs>{3, 1}));
  EXPECT_EQ(f.received[1], (std::pair<NodeId, TimeMs>{4, 40}));
}

TEST(SimNetworkTest, LinkOverrideBeatsClusterRule) {
  NetworkParams params;
  params.clusters = 2;
  params.wan_latency = LatencyModel::fixed(40.0);
  Fixture f(params);
  f.attach(1);
  f.net.set_link_latency(0, 1, LatencyModel::fixed(7.0));
  f.net.send(Datagram{0, 1, {}});  // cross-cluster, but overridden
  f.sim.run();
  ASSERT_EQ(f.received.size(), 1u);
  EXPECT_EQ(f.received[0].second, 7);
}

TEST(SimNetworkTest, ClearLinkLatenciesReverts) {
  Fixture f;
  f.attach(1);
  f.net.set_link_latency(0, 1, LatencyModel::fixed(99.0));
  f.net.clear_link_latencies();
  f.net.send(make_datagram(0, 1));
  f.sim.run();
  ASSERT_EQ(f.received.size(), 1u);
  EXPECT_EQ(f.received[0].second, 1);  // back to the 1 ms default
}

TEST(SimNetworkTest, StatsCountSent) {
  Fixture f;
  f.attach(1);
  for (int i = 0; i < 5; ++i) f.net.send(make_datagram(0, 1));
  f.sim.run();
  EXPECT_EQ(f.net.stats().sent, 5u);
  EXPECT_EQ(f.net.stats().delivered, 5u);
}

TEST(SymmetricLinkKeyTest, OrderInsensitive) {
  EXPECT_EQ(symmetric_link_key(3, 9), symmetric_link_key(9, 3));
  EXPECT_EQ(symmetric_link_key(9, 3), (std::pair<NodeId, NodeId>{3, 9}));
  EXPECT_EQ(symmetric_link_key(4, 4), (std::pair<NodeId, NodeId>{4, 4}));
}

TEST(SimNetworkTest, SetLinkLatencyIsSymmetricInArgumentOrder) {
  // set_link_latency(a, b) and set_link_latency(b, a) must address the SAME
  // entry (the symmetric_link_key contract): the
  // later call overwrites the earlier one, whichever order its arguments
  // use, and the override applies in both directions.
  NetworkParams params;
  params.latency = LatencyModel::fixed(1.0);
  Fixture f(params);
  f.attach(2);
  f.attach(5);
  f.net.set_link_latency(5, 2, LatencyModel::fixed(99.0));
  f.net.set_link_latency(2, 5, LatencyModel::fixed(30.0));  // overwrites
  f.net.send(make_datagram(2, 5));
  f.net.send(make_datagram(5, 2));
  f.sim.run();
  ASSERT_EQ(f.received.size(), 2u);
  EXPECT_EQ(f.received[0].second, 30);  // not 99: (2,5) == (5,2)
  EXPECT_EQ(f.received[1].second, 30);  // and both directions see it
}

TEST(SimNetworkTest, BatchSharesOneSimulatorEventAtFixedLatency) {
  NetworkParams params;
  params.latency = LatencyModel::fixed(3.0);
  Fixture f(params);
  for (NodeId t = 1; t <= 5; ++t) f.attach(t);
  f.net.send_batch(Multicast{0, {1, 2, 3, 4, 5}, {0xaa}});
  EXPECT_EQ(f.net.stats().batches, 1u);
  EXPECT_EQ(f.net.stats().sent, 5u);
  EXPECT_EQ(f.net.stats().events_scheduled, 1u);  // F targets, ONE event
  f.sim.run();
  ASSERT_EQ(f.received.size(), 5u);
  for (const auto& [node, at] : f.received) EXPECT_EQ(at, 3);
}

TEST(SimNetworkTest, BatchPayloadPointerIdentityAcrossTargets) {
  Fixture f;
  std::vector<const std::uint8_t*> seen;
  for (NodeId t = 1; t <= 4; ++t) {
    f.net.attach(t, [&](const Datagram& d, TimeMs) {
      seen.push_back(d.payload.data());
    });
  }
  const SharedBytes payload({1, 2, 3, 4});
  f.net.send_batch(Multicast{0, {1, 2, 3, 4}, payload});
  f.sim.run();
  ASSERT_EQ(seen.size(), 4u);
  for (const auto* data : seen) EXPECT_EQ(data, payload.data());
}

TEST(SimNetworkTest, BatchSamplesLossAndDelayPerTarget) {
  // Loss stays a per-target coin flip: a 50% iid loss over a large batch
  // drops roughly half, never all-or-nothing.
  NetworkParams params;
  params.loss = LossModel::iid(0.5);
  Fixture f(params);
  std::vector<NodeId> targets;
  for (NodeId t = 1; t <= 200; ++t) {
    f.attach(t);
    targets.push_back(t);
  }
  f.net.send_batch(Multicast{0, targets, {0x01}});
  f.sim.run();
  const auto& stats = f.net.stats();
  EXPECT_EQ(stats.sent, 200u);
  EXPECT_EQ(stats.delivered + stats.dropped_loss, 200u);
  EXPECT_GT(stats.delivered, 50u);
  EXPECT_GT(stats.dropped_loss, 50u);
}

TEST(SimNetworkTest, BatchChecksDownPerTarget) {
  Fixture f;
  for (NodeId t = 1; t <= 3; ++t) f.attach(t);
  f.net.set_node_up(2, false);
  f.net.send_batch(Multicast{0, {1, 2, 3}, {0x01}});
  f.sim.run();
  ASSERT_EQ(f.received.size(), 2u);  // nodes 1 and 3
  EXPECT_EQ(f.received[0].first, 1u);
  EXPECT_EQ(f.received[1].first, 3u);
  EXPECT_EQ(f.net.stats().dropped_down, 1u);
}

TEST(SimNetworkTest, BatchDistinctDelaysGetDistinctEvents) {
  NetworkParams params;
  params.latency = LatencyModel::uniform(1.0, 200.0);
  Fixture f(params);
  std::vector<NodeId> targets;
  for (NodeId t = 1; t <= 10; ++t) {
    f.attach(t);
    targets.push_back(t);
  }
  f.net.send_batch(Multicast{0, targets, {0x01}});
  f.sim.run();
  EXPECT_EQ(f.received.size(), 10u);
  // Same-delay targets coalesce; distinct delays must not.
  std::set<TimeMs> distinct_times;
  for (const auto& [node, at] : f.received) distinct_times.insert(at);
  EXPECT_EQ(f.net.stats().events_scheduled, distinct_times.size());
  EXPECT_GT(distinct_times.size(), 1u);
}

// The link decides each copy in one order on every fabric: down, loss,
// one-way rule, delay. InMemoryFabric's twins of the next three tests live
// in runtime_test.
TEST(SimNetworkTest, LossComesBeforeTheOneWayRule) {
  NetworkParams params;
  params.loss = LossModel::iid(1.0);
  Fixture f(params);
  f.attach(1);
  fault::FaultPlane plane(
      fault::ChaosSchedule{{{fault::FaultKind::kOneWay, 0.0, 0, 1}}}, 3);
  f.net.set_fault_plane(&plane);
  for (int i = 0; i < 10; ++i) f.net.send(make_datagram(0, 1));
  f.sim.run();
  EXPECT_EQ(f.net.stats().dropped_loss, 10u);
  EXPECT_EQ(f.net.stats().dropped_chaos, 0u);
  EXPECT_EQ(plane.stats().dropped_oneway, 0u);
}

TEST(SimNetworkTest, DuplicatedCopiesShareOneLossDraw) {
  NetworkParams params;
  params.loss = LossModel::iid(0.5);
  Fixture f(params);
  std::vector<NodeId> targets;
  for (NodeId t = 1; t <= 200; ++t) {
    f.attach(t);
    targets.push_back(t);
  }
  fault::FaultPlane plane(
      fault::ChaosSchedule{{{fault::FaultKind::kDuplicate, 1.0}}}, 3);
  f.net.set_fault_plane(&plane);
  f.net.send_batch(Multicast{0, targets, {0x01}});
  f.sim.run();
  // A target either lost its datagram or received both copies.
  std::map<NodeId, int> copies;
  for (const auto& [node, at] : f.received) ++copies[node];
  for (const auto& [node, count] : copies) EXPECT_EQ(count, 2) << node;
  EXPECT_EQ(f.net.stats().dropped_loss + copies.size(), 200u);
  EXPECT_GT(f.net.stats().dropped_loss, 50u);
  EXPECT_GT(copies.size(), 50u);
}

TEST(SimNetworkTest, LedgerBalancesUnderLossAndEveryLinkFault) {
  NetworkParams params;
  params.loss = LossModel::iid(0.2);
  params.latency = LatencyModel::uniform(1.0, 5.0);
  Fixture f(params);
  for (NodeId t = 0; t < 8; ++t) f.attach(t);  // node 8 is never attached
  f.net.set_node_up(7, false);
  fault::FaultPlane plane(
      fault::ChaosSchedule{{{fault::FaultKind::kCorrupt, 0.2},
                            {fault::FaultKind::kDuplicate, 0.2},
                            {fault::FaultKind::kReorder, 0.2, fault::kAnyNode,
                             fault::kAnyNode, 10},
                            {fault::FaultKind::kOneWay, 0.0, 0, 1}}},
      3);
  f.net.set_fault_plane(&plane);
  for (int round = 0; round < 50; ++round) {
    for (NodeId from = 0; from < 8; ++from) {
      f.net.send_batch(Multicast{
          from, {(from + 1) % 9, (from + 2) % 9, (from + 3) % 9}, {1, 2, 3}});
    }
  }
  f.sim.run();
  const NetworkStats& s = f.net.stats();
  const fault::FaultStats chaos = plane.stats();
  EXPECT_EQ(s.sent + chaos.duplicated, s.delivered + s.dropped_loss +
                                           s.dropped_down +
                                           s.dropped_detached +
                                           s.dropped_chaos);
  for (const std::uint64_t moved :
       {s.dropped_loss, s.dropped_down, s.dropped_detached, s.dropped_chaos,
        chaos.corrupted, chaos.duplicated, chaos.reordered}) {
    EXPECT_GT(moved, 0u);
  }
}

}  // namespace
}  // namespace agb::sim
