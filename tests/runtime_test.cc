#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "adaptive/adaptive_node.h"
#include "fault/fault_plane.h"
#include "membership/full_membership.h"
#include "runtime/inmemory_fabric.h"
#include "runtime/node_runtime.h"
#include "runtime/udp_transport.h"

namespace agb::runtime {
namespace {

using namespace std::chrono_literals;

// Polls `predicate` until true or the deadline passes; real-time tests must
// never sleep a fixed "long enough" interval.
bool eventually(const std::function<bool()>& predicate,
                std::chrono::milliseconds deadline = 5000ms) {
  const auto start = std::chrono::steady_clock::now();
  while (std::chrono::steady_clock::now() - start < deadline) {
    if (predicate()) return true;
    std::this_thread::sleep_for(5ms);
  }
  return predicate();
}

TEST(InMemoryFabricTest, DeliversToAttachedHandler) {
  InMemoryFabric fabric({});
  std::atomic<int> received{0};
  fabric.attach(1, [&](const Datagram& d, TimeMs) {
    if (d.payload == std::vector<std::uint8_t>{7}) received.fetch_add(1);
  });
  fabric.send(Datagram{0, 1, {7}});
  EXPECT_TRUE(eventually([&] { return received.load() == 1; }));
  EXPECT_EQ(fabric.stats().delivered, 1u);
  EXPECT_EQ(fabric.stats().bytes_delivered, 1u);
}

TEST(InMemoryFabricTest, DropsForUnknownDestination) {
  InMemoryFabric fabric({});
  fabric.send(Datagram{0, 42, {1}});
  EXPECT_TRUE(eventually([&] { return fabric.stats().dropped_detached == 1; }));
}

TEST(InMemoryFabricTest, FullLossDropsEverything) {
  InMemoryFabric::Params params;
  params.loss = sim::LossModel::iid(1.0);
  InMemoryFabric fabric(params);
  std::atomic<int> received{0};
  fabric.attach(1, [&](const Datagram&, TimeMs) { received.fetch_add(1); });
  for (int i = 0; i < 20; ++i) fabric.send(Datagram{0, 1, {1}});
  EXPECT_TRUE(eventually([&] { return fabric.stats().dropped_loss == 20; }));
  EXPECT_EQ(received.load(), 0);
  EXPECT_EQ(fabric.stats().dropped_detached, 0u);
}

TEST(InMemoryFabricTest, DownSenderAndDownReceiverCountAsDroppedDown) {
  // Crash/recover on the ledger: a down sender's whole fan-out and every
  // datagram addressed to a down receiver land in dropped_down and under
  // no other reason.
  InMemoryFabric fabric({});
  std::atomic<int> received{0};
  for (NodeId t = 0; t < 3; ++t) {
    fabric.attach(t, [&](const Datagram&, TimeMs) { received.fetch_add(1); });
  }
  fabric.set_node_up(0, false);
  fabric.send_batch(Multicast{0, {1, 2}, {0x01}});  // down sender: both
  fabric.set_node_up(0, true);
  fabric.set_node_up(2, false);
  fabric.send_batch(Multicast{0, {1, 2}, {0x02}});  // down receiver: one
  EXPECT_TRUE(eventually([&] { return received.load() == 1; }));
  const sim::NetworkStats stats = fabric.stats();
  EXPECT_EQ(stats.sent, 4u);
  EXPECT_EQ(stats.dropped_down, 3u);
  EXPECT_EQ(stats.delivered, 1u);
  EXPECT_EQ(stats.dropped_loss + stats.dropped_detached + stats.dropped_chaos,
            0u);
  fabric.shutdown();
}

TEST(InMemoryFabricTest, SentSplitsByClusterRuleAndBalancesTheLedger) {
  // Node i lives in cluster i % 2: from node 0, target 2 is intra-cluster
  // and targets 1 and 3 cross. `sent` is the split's sum, and once traffic
  // stops every sent datagram is delivered or dropped under one reason.
  InMemoryFabric fabric({.clusters = 2});
  std::atomic<int> received{0};
  for (NodeId t = 0; t < 4; ++t) {
    fabric.attach(t, [&](const Datagram&, TimeMs) { received.fetch_add(1); });
  }
  fabric.send_batch(Multicast{0, {1, 2, 3}, {0x01, 0x02}});
  EXPECT_TRUE(eventually([&] { return received.load() == 3; }));
  const sim::NetworkStats stats = fabric.stats();
  EXPECT_EQ(stats.sent_intra_cluster, 1u);
  EXPECT_EQ(stats.sent_cross_cluster, 2u);
  EXPECT_EQ(stats.sent, stats.sent_intra_cluster + stats.sent_cross_cluster);
  EXPECT_EQ(stats.sent, stats.delivered + stats.dropped_loss +
                            stats.dropped_down + stats.dropped_detached +
                            stats.dropped_chaos);
  EXPECT_EQ(stats.bytes_delivered, 6u);
  fabric.shutdown();
}

TEST(InMemoryFabricTest, ShutdownIsIdempotentAndStopsDelivery) {
  InMemoryFabric fabric({});
  fabric.shutdown();
  fabric.shutdown();
  fabric.send(Datagram{0, 1, {1}});  // discarded, no crash
}

TEST(InMemoryFabricTest, ConcurrentShutdownJoinsExactlyOnce) {
  InMemoryFabric fabric({});
  std::vector<std::thread> threads;
  threads.reserve(4);
  for (int i = 0; i < 4; ++i) {
    threads.emplace_back([&] { fabric.shutdown(); });
  }
  for (auto& t : threads) t.join();
}

TEST(InMemoryFabricTest, ShutdownDiscardsQueuedDatagramsWithoutDelivery) {
  InMemoryFabric::Params params;
  // Deliveries scheduled far beyond any plausible scheduler stall, so
  // shutdown() always discards them before they come due.
  params.min_delay = 10'000;
  params.max_delay = 10'000;
  InMemoryFabric fabric(params);
  std::atomic<int> received{0};
  fabric.attach(1, [&](const Datagram&, TimeMs) { received.fetch_add(1); });
  for (int i = 0; i < 50; ++i) fabric.send(Datagram{0, 1, {1}});
  fabric.shutdown();
  EXPECT_EQ(received.load(), 0);
  EXPECT_EQ(fabric.stats().dropped_detached, 50u);
}

TEST(InMemoryFabricTest, ShutdownFromHandlerDoesNotDeadlock) {
  // A handler may react to a poison-pill datagram by shutting the fabric
  // down; that runs shutdown() on the dispatcher thread itself, which must
  // neither join itself nor deadlock. The destructor joins afterwards.
  auto fabric = std::make_unique<InMemoryFabric>(InMemoryFabric::Params{});
  std::atomic<bool> poisoned{false};
  fabric->attach(1, [&](const Datagram&, TimeMs) {
    fabric->shutdown();
    poisoned.store(true);
  });
  fabric->send(Datagram{0, 1, {0xff}});
  ASSERT_TRUE(eventually([&] { return poisoned.load(); }));
  fabric.reset();  // joins the dispatcher thread
}

TEST(InMemoryFabricTest, DetachWaitsOutInFlightHandler) {
  // (see also NodeRuntimeTest.StopUnderIncomingTrafficDoesNotDeadlock,
  // which guards the lock ordering this blocking detach imposes on
  // callers)
  // After detach() returns, the handler (and anything it captured) must
  // never run again — the guard against handler use-after-free. The
  // handler blocks mid-delivery; detach must wait for it.
  InMemoryFabric fabric({});
  std::atomic<bool> in_handler{false};
  std::atomic<bool> release{false};
  auto state = std::make_unique<std::atomic<int>>(0);
  fabric.attach(1, [&, raw = state.get()](const Datagram&, TimeMs) {
    in_handler.store(true);
    while (!release.load()) std::this_thread::sleep_for(1ms);
    raw->fetch_add(1);
  });
  fabric.send(Datagram{0, 1, {1}});
  ASSERT_TRUE(eventually([&] { return in_handler.load(); }));

  std::thread detacher([&] { fabric.detach(1); });
  std::this_thread::sleep_for(20ms);
  release.store(true);  // let the in-flight delivery finish
  detacher.join();
  state.reset();  // safe: no handler can reference it anymore
  fabric.send(Datagram{0, 1, {1}});  // dropped, handler gone
  EXPECT_TRUE(eventually([&] { return fabric.stats().dropped_detached >= 1; }));
}

TEST(InMemoryFabricTest, BatchDeliversAllTargetsUnderOneLockAcquisition) {
  InMemoryFabric fabric({.shards = 1});  // the classic single-queue fabric
  std::atomic<int> received{0};
  for (NodeId t = 1; t <= 5; ++t) {
    fabric.attach(t, [&](const Datagram&, TimeMs) { received.fetch_add(1); });
  }
  fabric.send_batch(Multicast{0, {1, 2, 3, 4, 5}, {0x42}});
  EXPECT_EQ(fabric.send_lock_acquisitions(), 1u);  // F targets, ONE lock
  EXPECT_TRUE(eventually([&] { return received.load() == 5; }));
  EXPECT_EQ(fabric.stats().delivered, 5u);
}

TEST(InMemoryFabricTest, BatchTakesOneLockPerTouchedShard) {
  InMemoryFabric fabric({.shards = 4});
  ASSERT_EQ(fabric.shard_count(), 4u);
  std::atomic<int> received{0};
  for (NodeId t = 1; t <= 8; ++t) {
    fabric.attach(t, [&](const Datagram&, TimeMs) { received.fetch_add(1); });
  }
  // Targets 1 and 5 share shard 1, 2 and 6 share shard 2: 8 targets touch
  // all 4 shards exactly, never one lock per target.
  fabric.send_batch(Multicast{0, {1, 2, 3, 4, 5, 6, 7, 8}, {0x42}});
  EXPECT_EQ(fabric.send_lock_acquisitions(), 4u);
  EXPECT_TRUE(eventually([&] { return received.load() == 8; }));

  // A batch confined to one shard costs exactly one more acquisition.
  fabric.send_batch(Multicast{0, {1, 5}, {0x43}});
  EXPECT_EQ(fabric.send_lock_acquisitions(), 5u);
  EXPECT_TRUE(eventually([&] { return received.load() == 10; }));
}

TEST(InMemoryFabricTest, MaxQueueDepthTracksPerShardHighWater) {
  InMemoryFabric::Params params;
  params.min_delay = 10'000;  // nothing comes due: depths only grow
  params.max_delay = 10'000;
  params.shards = 2;
  InMemoryFabric fabric(params);
  fabric.attach(0, [](const Datagram&, TimeMs) {});  // shard 0
  fabric.attach(1, [](const Datagram&, TimeMs) {});  // shard 1
  for (int i = 0; i < 10; ++i) fabric.send(Datagram{2, 0, {1}});
  for (int i = 0; i < 4; ++i) fabric.send(Datagram{2, 1, {1}});
  EXPECT_EQ(fabric.max_queue_depth(0), 10u);
  EXPECT_EQ(fabric.max_queue_depth(1), 4u);
  EXPECT_EQ(fabric.max_queue_depth(), 10u);  // max over shards
  fabric.shutdown();
}

TEST(InMemoryFabricTest, BatchHandlerSeesWholeBurstsForOneReceiver) {
  // Zero-delay datagrams to one receiver come due together; the sharded
  // dispatcher must hand them to a BatchHandler in one call (or few),
  // every entry addressed to that receiver, send order preserved.
  InMemoryFabric fabric({.min_delay = 0, .max_delay = 0, .shards = 2});
  std::mutex mu;
  std::vector<std::size_t> burst_sizes;
  std::vector<std::uint8_t> order;
  fabric.attach_batch(1, [&](const Datagram* batch, std::size_t count,
                             TimeMs) {
    std::lock_guard lock(mu);
    burst_sizes.push_back(count);
    for (std::size_t i = 0; i < count; ++i) {
      EXPECT_EQ(batch[i].to, 1u);
      order.push_back(batch[i].payload.data()[0]);
    }
  });
  for (std::uint8_t i = 0; i < 16; ++i) {
    fabric.send(Datagram{0, 1, {i}});
  }
  EXPECT_TRUE(eventually([&] {
    std::lock_guard lock(mu);
    return order.size() == 16u;
  }));
  std::lock_guard lock(mu);
  for (std::uint8_t i = 0; i < 16; ++i) EXPECT_EQ(order[i], i);
  EXPECT_EQ(fabric.stats().delivered, 16u);
}

TEST(InMemoryFabricTest, DetachRacesSaturatedQueueOnEveryShard) {
  // The acceptance race: producers saturate every shard while nodes are
  // detached and their handler state freed immediately afterwards. If any
  // shard's detach failed to wait out an in-flight handler, ASan/TSan sees
  // a use-after-free of the freed counters.
  constexpr std::size_t kShards = 4;
  constexpr NodeId kNodes = 8;
  InMemoryFabric fabric({.min_delay = 0, .max_delay = 1, .shards = kShards});
  std::vector<std::unique_ptr<std::atomic<std::uint64_t>>> counters;
  for (NodeId n = 0; n < kNodes; ++n) {
    counters.push_back(std::make_unique<std::atomic<std::uint64_t>>(0));
    fabric.attach(n, [raw = counters.back().get()](const Datagram&, TimeMs) {
      raw->fetch_add(1);
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    });
  }
  std::atomic<bool> stop{false};
  std::vector<std::thread> producers;
  std::vector<NodeId> all_targets;
  for (NodeId n = 0; n < kNodes; ++n) all_targets.push_back(n);
  for (int p = 0; p < 3; ++p) {
    producers.emplace_back([&] {
      while (!stop.load()) {
        fabric.send_batch(Multicast{100, all_targets, {0x7f}});
      }
    });
  }
  // Let every shard's queue fill, then rip the nodes out one by one.
  std::this_thread::sleep_for(50ms);
  for (NodeId n = 0; n < kNodes; ++n) {
    fabric.detach(n);
    counters[n].reset();  // safe iff detach waited out the in-flight burst
  }
  stop.store(true);
  for (auto& t : producers) t.join();
}

TEST(InMemoryFabricTest, BatchPayloadPointerIdentityAcrossTargets) {
  InMemoryFabric fabric({});
  std::mutex mu;
  std::vector<const std::uint8_t*> seen;
  for (NodeId t = 1; t <= 4; ++t) {
    fabric.attach(t, [&](const Datagram& d, TimeMs) {
      std::lock_guard lock(mu);
      seen.push_back(d.payload.data());
    });
  }
  const SharedBytes payload({9, 9, 9});
  fabric.send_batch(Multicast{0, {1, 2, 3, 4}, payload});
  EXPECT_TRUE(eventually([&] {
    std::lock_guard lock(mu);
    return seen.size() == 4u;
  }));
  std::lock_guard lock(mu);
  for (const auto* data : seen) EXPECT_EQ(data, payload.data());
}

TEST(InMemoryFabricTest, BatchSamplesLossPerTarget) {
  InMemoryFabric::Params params;
  params.loss = sim::LossModel::iid(0.5);
  InMemoryFabric fabric(params);
  std::atomic<int> received{0};
  std::vector<NodeId> targets;
  for (NodeId t = 1; t <= 200; ++t) {
    fabric.attach(t, [&](const Datagram&, TimeMs) { received.fetch_add(1); });
    targets.push_back(t);
  }
  fabric.send_batch(Multicast{0, targets, {0x01}});
  EXPECT_TRUE(eventually([&] {
    return received.load() + static_cast<int>(fabric.stats().dropped_loss) ==
           200;
  }));
  EXPECT_GT(received.load(), 50);
  EXPECT_GT(fabric.stats().dropped_loss, 50u);
}

// A fixed delay with several senders on their own threads, paced so that
// datagrams arrive while a dispatcher sleeps towards an earlier due time:
// none reaches its handler before the fabric clock reads its due
// millisecond (at least the sender's clock reading plus the delay), none
// is left undelivered, and each receiver sees every sender's datagrams in
// send order, with its handler clock never running backwards.
TEST(InMemoryFabricTest, FixedDelayDeliversNoEarlierThanDueAndInOrder) {
  constexpr DurationMs kDelay = 4;
  constexpr NodeId kSenders = 4;
  constexpr NodeId kReceivers = 4;
  constexpr std::uint32_t kPerSender = 150;
  InMemoryFabric::Params params;
  params.min_delay = kDelay;
  params.max_delay = kDelay;
  params.shards = 2;
  InMemoryFabric fabric(params);

  struct Receipt {
    NodeId from;
    std::uint32_t seq;
    TimeMs sent;
    TimeMs received;
  };
  std::mutex mutex;
  std::vector<std::vector<Receipt>> receipts(kReceivers);
  std::atomic<std::size_t> total{0};
  for (NodeId r = 0; r < kReceivers; ++r) {
    fabric.attach(kSenders + r, [&, r](const Datagram& d, TimeMs now) {
      Receipt receipt{d.from, 0, 0, now};
      ASSERT_EQ(d.payload.size(), sizeof receipt.seq + sizeof receipt.sent);
      std::memcpy(&receipt.seq, d.payload.data(), sizeof receipt.seq);
      std::memcpy(&receipt.sent, d.payload.data() + sizeof receipt.seq,
                  sizeof receipt.sent);
      std::lock_guard lock(mutex);
      receipts[r].push_back(receipt);
      total.fetch_add(1);
    });
  }
  std::vector<NodeId> everyone;
  for (NodeId r = 0; r < kReceivers; ++r) everyone.push_back(kSenders + r);

  std::vector<std::thread> senders;
  for (NodeId from = 0; from < kSenders; ++from) {
    senders.emplace_back([&, from] {
      for (std::uint32_t seq = 0; seq < kPerSender; ++seq) {
        const TimeMs sent = fabric.now();
        std::vector<std::uint8_t> bytes(sizeof seq + sizeof sent);
        std::memcpy(bytes.data(), &seq, sizeof seq);
        std::memcpy(bytes.data() + sizeof seq, &sent, sizeof sent);
        fabric.send_batch(Multicast{from, everyone, std::move(bytes)});
        if ((seq + from) % 3 == 0) std::this_thread::sleep_for(1ms);
      }
    });
  }
  for (std::thread& sender : senders) sender.join();
  const std::size_t expected = std::size_t{kSenders} * kReceivers * kPerSender;
  EXPECT_TRUE(eventually([&] { return total.load() == expected; }));

  std::lock_guard lock(mutex);
  for (NodeId r = 0; r < kReceivers; ++r) {
    SCOPED_TRACE(::testing::Message() << "receiver " << kSenders + r);
    std::vector<std::uint32_t> next(kSenders, 0);
    TimeMs last = 0;
    for (const Receipt& receipt : receipts[r]) {
      EXPECT_GE(receipt.received, receipt.sent + kDelay)
          << "from " << receipt.from << " seq " << receipt.seq;
      EXPECT_EQ(receipt.seq, next[receipt.from]++) << "from " << receipt.from;
      EXPECT_GE(receipt.received, last);
      last = receipt.received;
    }
    for (NodeId from = 0; from < kSenders; ++from) {
      EXPECT_EQ(next[from], kPerSender) << "from " << from;
    }
  }
  EXPECT_EQ(fabric.stats().delivered, expected);
}

TEST(InMemoryFabricTest, ClockIsMonotone) {
  InMemoryFabric fabric({});
  const TimeMs a = fabric.now();
  std::this_thread::sleep_for(10ms);
  const TimeMs b = fabric.now();
  EXPECT_GE(b, a + 5);
}

std::unique_ptr<gossip::LpbcastNode> make_protocol_node(
    NodeId self, std::size_t n, bool adaptive, std::size_t max_events = 100,
    DurationMs period = 20) {
  auto members = std::make_unique<membership::FullMembership>(
      self, Rng(self * 17 + 3));
  for (NodeId id = 0; id < n; ++id) {
    if (id != self) members->add(id);
  }
  gossip::GossipParams params;
  params.fanout = 3;
  params.gossip_period = period;
  params.max_events = max_events;
  params.max_event_ids = 1000;
  params.max_age = 15;
  if (adaptive) {
    adaptive::AdaptiveParams ap;
    ap.sample_period = 2 * period;
    ap.initial_rate = 50.0;
    ap.bucket_capacity = 10.0;
    return std::make_unique<adaptive::AdaptiveLpbcastNode>(
        self, params, ap, std::move(members), Rng(self + 100));
  }
  return std::make_unique<gossip::LpbcastNode>(self, params,
                                               std::move(members),
                                               Rng(self + 100));
}

TEST(NodeRuntimeTest, GossipGroupDisseminatesOverFabric) {
  constexpr std::size_t kNodes = 5;
  InMemoryFabric fabric({});
  std::vector<std::unique_ptr<NodeRuntime>> runtimes;
  std::atomic<int> total_deliveries{0};
  for (NodeId id = 0; id < kNodes; ++id) {
    auto runtime = std::make_unique<NodeRuntime>(
        make_protocol_node(id, kNodes, /*adaptive=*/false), fabric,
        [&fabric] { return fabric.now(); });
    runtime->set_deliver_handler(
        [&](const gossip::Event&, TimeMs) { total_deliveries.fetch_add(1); });
    runtimes.push_back(std::move(runtime));
  }
  for (auto& r : runtimes) r->start();
  runtimes[0]->broadcast(gossip::make_payload({1, 2, 3}));
  // The origin delivers immediately; the other 4 within a few rounds.
  EXPECT_TRUE(eventually([&] { return total_deliveries.load() >= 5; }));
  for (auto& r : runtimes) r->stop();
  EXPECT_EQ(total_deliveries.load(), 5);
}

TEST(NodeRuntimeTest, AdaptiveNodeGatesBroadcasts) {
  InMemoryFabric fabric({});
  NodeRuntime runtime(make_protocol_node(0, 2, true), fabric,
                      [&fabric] { return fabric.now(); });
  EXPECT_TRUE(runtime.adaptive());
  int accepted = 0;
  for (int i = 0; i < 100; ++i) {
    if (runtime.admit(gossip::make_payload({1}), 0, false)) ++accepted;
  }
  EXPECT_GT(accepted, 0);
  EXPECT_LT(accepted, 100);  // bucket capacity 10 caps the burst
  EXPECT_GT(runtime.allowed_rate(), 0.0);
}

TEST(NodeRuntimeTest, AdaptiveGroupAgreesOnMinBuffOverFabric) {
  constexpr std::size_t kNodes = 4;
  InMemoryFabric fabric({});
  std::vector<std::unique_ptr<NodeRuntime>> runtimes;
  for (NodeId id = 0; id < kNodes; ++id) {
    // Node 2 has the smallest buffer (7); everyone must learn "7".
    const std::size_t cap = (id == 2) ? 7 : 50;
    runtimes.push_back(std::make_unique<NodeRuntime>(
        make_protocol_node(id, kNodes, /*adaptive=*/true, cap), fabric,
        [&fabric] { return fabric.now(); }));
  }
  for (auto& r : runtimes) r->start();
  // Traffic so gossip messages flow.
  for (int i = 0; i < 5; ++i) {
    (void)runtimes[0]->admit(gossip::make_payload({9}), 0, false);
  }
  EXPECT_TRUE(eventually([&] {
    for (auto& r : runtimes) {
      if (r->min_buff() != 7) return false;
    }
    return true;
  }));
  for (auto& r : runtimes) r->stop();
}

TEST(NodeRuntimeTest, StopIsIdempotent) {
  InMemoryFabric fabric({});
  NodeRuntime runtime(make_protocol_node(0, 2, false), fabric,
                      [&fabric] { return fabric.now(); });
  runtime.start();
  runtime.stop();
  runtime.stop();
}

TEST(NodeRuntimeTest, StopUnderIncomingTrafficDoesNotDeadlock) {
  // InMemoryFabric::detach blocks until an in-flight delivery returns, and
  // that delivery (on_datagram) takes the runtime mutex — so stop() must
  // never detach while holding it. Regression: tearing a runtime down
  // (started or not) while peers are spraying datagrams at it used to be
  // able to deadlock.
  InMemoryFabric fabric({});
  for (int round = 0; round < 10; ++round) {
    auto runtime = std::make_unique<NodeRuntime>(
        make_protocol_node(1, 2, false), fabric,
        [&fabric] { return fabric.now(); });
    if (round % 2 == 0) runtime->start();
    for (int i = 0; i < 50; ++i) fabric.send(Datagram{0, 1, {0x01}});
    runtime->stop();
  }
}

TEST(NodeRuntimeTest, SetCapacityWhileRunning) {
  InMemoryFabric fabric({});
  NodeRuntime runtime(make_protocol_node(0, 2, true), fabric,
                      [&fabric] { return fabric.now(); });
  runtime.start();
  runtime.set_capacity(5);
  EXPECT_TRUE(eventually([&] { return runtime.min_buff() == 5; }));
  runtime.stop();
}

TEST(UdpTransportTest, RoundTripOverLoopback) {
  UdpTransport transport(28'500);
  std::atomic<bool> got{false};
  Datagram seen;
  transport.attach(1, [&](const Datagram& d, TimeMs) {
    seen = d;
    got.store(true);
  });
  transport.attach(0, [](const Datagram&, TimeMs) {});
  transport.send(Datagram{0, 1, {0xaa, 0xbb}});
  ASSERT_TRUE(eventually([&] { return got.load(); }));
  EXPECT_EQ(seen.from, 0u);
  EXPECT_EQ(seen.to, 1u);
  EXPECT_EQ(seen.payload, (std::vector<std::uint8_t>{0xaa, 0xbb}));
  transport.detach(0);
  transport.detach(1);
}

TEST(UdpTransportTest, SendWithoutAttachedSourceFails) {
  UdpTransport transport(28'600);
  transport.send(Datagram{5, 6, {1}});
  EXPECT_EQ(transport.send_failures(), 1u);
}

TEST(UdpTransportTest, BatchFanOutIsOneSyscall) {
  UdpTransport transport(28'800);
  std::atomic<int> received{0};
  transport.attach(0, [](const Datagram&, TimeMs) {});
  for (NodeId t = 1; t <= 5; ++t) {
    transport.attach(t, [&](const Datagram& d, TimeMs) {
      if (d.from == 0 && d.payload == std::vector<std::uint8_t>{0x5a}) {
        received.fetch_add(1);
      }
    });
  }
  transport.send_batch(Multicast{0, {1, 2, 3, 4, 5}, {0x5a}});
#if defined(__linux__)
  EXPECT_EQ(transport.send_syscalls(), 1u);  // the whole fan-out, batched
#else
  EXPECT_EQ(transport.send_syscalls(), 5u);
#endif
  EXPECT_TRUE(eventually([&] { return received.load() == 5; }));
  EXPECT_EQ(transport.send_failures(), 0u);
  for (NodeId t = 0; t <= 5; ++t) transport.detach(t);
}

TEST(UdpTransportTest, BatchSendMakesNoPayloadCopies) {
  // The transport hands the SharedBytes straight to the kernel via the
  // shared iovec: after send_batch returns it holds no reference and never
  // cloned the buffer.
  UdpTransport transport(28'900);
  transport.attach(0, [](const Datagram&, TimeMs) {});
  for (NodeId t = 1; t <= 3; ++t) {
    transport.attach(t, [](const Datagram&, TimeMs) {});
  }
  const SharedBytes payload({1, 2, 3, 4, 5});
  const std::uint8_t* data_before = payload.data();
  transport.send_batch(Multicast{0, {1, 2, 3}, payload});
  EXPECT_EQ(payload.use_count(), 1);
  EXPECT_EQ(payload.data(), data_before);
  for (NodeId t = 0; t <= 3; ++t) transport.detach(t);
}

TEST(UdpTransportTest, BatchCountsUnresolvableTargetsAsFailures) {
  auto directory = std::make_shared<StaticDirectory>();
  ASSERT_TRUE(directory->add_spec(0, "127.0.0.1:29000"));
  ASSERT_TRUE(directory->add_spec(1, "127.0.0.1:29001"));
  UdpTransport transport(directory);
  std::atomic<int> received{0};
  transport.attach(0, [](const Datagram&, TimeMs) {});
  transport.attach(1, [&](const Datagram&, TimeMs) { received.fetch_add(1); });
  transport.send_batch(Multicast{0, {1, 77, 78}, {0x11}});
  EXPECT_TRUE(eventually([&] { return received.load() == 1; }));
  EXPECT_EQ(transport.send_failures(), 2u);  // 77 and 78 have no entry
  transport.detach(0);
  transport.detach(1);
}

TEST(UdpTransportTest, StaticDirectoryRoundTrip) {
  // A non-contiguous port layout no base+id scheme could produce — the
  // directory, not the transport, owns addressing now.
  auto directory = std::make_shared<StaticDirectory>();
  ASSERT_TRUE(directory->add_spec(3, "127.0.0.1:29050"));
  ASSERT_TRUE(directory->add_spec(9, "127.0.0.1:29061"));
  UdpTransport transport(directory);
  std::atomic<bool> got{false};
  Datagram seen;
  transport.attach(9, [&](const Datagram& d, TimeMs) {
    seen = d;
    got.store(true);
  });
  transport.attach(3, [](const Datagram&, TimeMs) {});
  transport.send(Datagram{3, 9, {0xcd}});
  ASSERT_TRUE(eventually([&] { return got.load(); }));
  EXPECT_EQ(seen.from, 3u);
  EXPECT_EQ(seen.to, 9u);
  EXPECT_EQ(seen.payload, (std::vector<std::uint8_t>{0xcd}));
  transport.detach(3);
  transport.detach(9);
}

TEST(UdpTransportTest, AttachWithoutDirectoryEntryThrows) {
  UdpTransport transport(std::make_shared<StaticDirectory>());
  EXPECT_THROW(transport.attach(4, [](const Datagram&, TimeMs) {}),
               std::runtime_error);
}

TEST(UdpTransportTest, RecvSyscallCounterMirrorsSendSide) {
  UdpTransport transport(29'350);
  std::atomic<int> received{0};
  transport.attach(0, [](const Datagram&, TimeMs) {});
  transport.attach(1, [&](const Datagram&, TimeMs) { received.fetch_add(1); });
  EXPECT_EQ(transport.recv_batch(), UdpTransport::kDefaultRecvBatch);
  transport.send(Datagram{0, 1, {0x33}});
  ASSERT_TRUE(eventually([&] { return received.load() == 1; }));
  // At least the syscall that returned the datagram; never zero once
  // traffic flowed.
  EXPECT_GE(transport.recv_syscalls(), 1u);
  transport.detach(0);
  transport.detach(1);
}

TEST(UdpTransportTest, RecvBatchesDrainManyDatagramsPerSyscall) {
#if defined(__linux__)
  // One sendmmsg burst of F datagrams to one receiver whose handler stalls
  // briefly: while it stalls the rest queue in the socket buffer, so each
  // following recvmmsg drains up to recv_batch of them. F syscalls would
  // mean no batching; the drain path needs ~F/recv_batch (plus the first).
  constexpr std::size_t kBurst = 64;
  UdpTransport transport(29'360, /*recv_batch=*/16);
  std::atomic<int> received{0};
  std::atomic<int> bursts{0};
  transport.attach(0, [](const Datagram&, TimeMs) {});
  transport.attach_batch(1, [&](const Datagram* batch, std::size_t count,
                                TimeMs) {
    for (std::size_t i = 0; i < count; ++i) {
      EXPECT_EQ(batch[i].to, 1u);
      EXPECT_EQ(batch[i].from, 0u);
    }
    received.fetch_add(static_cast<int>(count));
    bursts.fetch_add(1);
    std::this_thread::sleep_for(10ms);  // let the rest pile up
  });
  transport.send_batch(
      Multicast{0, std::vector<NodeId>(kBurst, 1), {0x5a}});
  ASSERT_TRUE(eventually(
      [&] { return received.load() == static_cast<int>(kBurst); }));
  // Strictly fewer handler calls and syscalls than datagrams — the burst
  // was actually batched. (Exact counts depend on scheduling; the
  // micro-benchmarks report the ~F/recv_batch figure.)
  EXPECT_LT(bursts.load(), static_cast<int>(kBurst) / 2);
  EXPECT_LT(transport.recv_syscalls(), kBurst);
  transport.detach(0);
  transport.detach(1);
#endif
}

TEST(UdpTransportTest, SendErrorCountersStayZeroOverCleanLoopback) {
  UdpTransport transport(29'400);
  std::atomic<int> received{0};
  transport.attach(0, [](const Datagram&, TimeMs) {});
  transport.attach(1, [&](const Datagram&, TimeMs) { received.fetch_add(1); });
  for (int i = 0; i < 50; ++i) {
    transport.send_batch(Multicast{0, {1}, {0x01, 0x02}});
  }
  EXPECT_TRUE(eventually([&] { return received.load() == 50; }));
  EXPECT_EQ(transport.send_errors(), 0u);
  transport.detach(0);
  transport.detach(1);
}

TEST(UdpTransportTest, NonRetryableSendErrorIsCountedAndSkipped) {
  // A payload past the UDP datagram limit earns EMSGSIZE from the kernel —
  // a non-retryable errno, so the transport must count it in send_errors()
  // and move on (no infinite retry loop), while the rest of the batch
  // still flows.
  UdpTransport transport(29'420);
  std::atomic<int> received{0};
  transport.attach(0, [](const Datagram&, TimeMs) {});
  transport.attach(1, [&](const Datagram&, TimeMs) { received.fetch_add(1); });
  const SharedBytes oversize(std::vector<std::uint8_t>(70'000, 0xee));
  transport.send_batch(Multicast{0, {1}, oversize});
  transport.send_batch(Multicast{0, {1}, {0x42}});  // batch after the error
  EXPECT_TRUE(eventually([&] { return received.load() == 1; }));
  EXPECT_GE(transport.send_errors(), 1u);
  EXPECT_GE(transport.send_failures(), 1u);
  transport.detach(0);
  transport.detach(1);
}

TEST(UdpTransportTest, ChaosCorruptionMutatesLiveDatagrams) {
  // End-to-end over real sockets: with a corrupt-everything plane attached
  // the bytes on the wire differ from the bytes handed to send_batch, and
  // the original shared buffer is never touched.
  fault::ChaosSchedule schedule;
  schedule.rules = {{fault::FaultKind::kCorrupt, 1.0, fault::kAnyNode,
                     fault::kAnyNode, 0, 0, fault::kNoEnd}};
  fault::FaultPlane plane(schedule, 17);
  UdpTransport transport(29'440);
  transport.set_fault_plane(&plane);
  std::mutex mu;
  std::vector<std::vector<std::uint8_t>> seen;
  transport.attach(0, [](const Datagram&, TimeMs) {});
  transport.attach(1, [&](const Datagram& d, TimeMs) {
    std::lock_guard lock(mu);
    seen.emplace_back(d.payload.begin(), d.payload.end());
  });
  const std::vector<std::uint8_t> original(32, 0x00);
  const SharedBytes payload(original);
  for (int i = 0; i < 10; ++i) {
    transport.send_batch(Multicast{0, {1}, payload});
  }
  EXPECT_TRUE(eventually([&] {
    std::lock_guard lock(mu);
    return seen.size() == 10u;
  }));
  EXPECT_EQ(plane.stats().corrupted, 10u);
  EXPECT_TRUE(std::equal(payload.begin(), payload.end(), original.begin()));
  std::lock_guard lock(mu);
  for (const auto& bytes : seen) {
    ASSERT_EQ(bytes.size(), original.size());
    EXPECT_NE(bytes, original);  // some byte really flipped on the wire
  }
  transport.detach(0);
  transport.detach(1);
}

TEST(InMemoryFabricTest, OneWayChaosDropsOnlyTheDeadDirection) {
  fault::ChaosSchedule schedule;
  schedule.rules = {{fault::FaultKind::kOneWay, 0.0, 0, 1, 0, 0,
                     fault::kNoEnd}};
  fault::FaultPlane plane(schedule, 3);
  InMemoryFabric fabric({});
  fabric.set_fault_plane(&plane);
  std::atomic<int> at_one{0};
  std::atomic<int> at_zero{0};
  fabric.attach(0, [&](const Datagram&, TimeMs) { at_zero.fetch_add(1); });
  fabric.attach(1, [&](const Datagram&, TimeMs) { at_one.fetch_add(1); });
  for (int i = 0; i < 10; ++i) {
    fabric.send_batch(Multicast{0, {1}, {0x01}});  // dead direction
    fabric.send_batch(Multicast{1, {0}, {0x02}});  // reverse lives
  }
  EXPECT_TRUE(eventually([&] { return at_zero.load() == 10; }));
  EXPECT_EQ(at_one.load(), 0);
  EXPECT_EQ(fabric.stats().dropped_chaos, 10u);
  EXPECT_EQ(plane.stats().dropped_oneway, 10u);
  fabric.shutdown();
}

TEST(NodeRuntimeTest, DecodeDropsCountMalformedDatagramsOnly) {
  InMemoryFabric fabric({});
  NodeRuntime runtime(make_protocol_node(1, 2, false), fabric,
                      [&fabric] { return fabric.now(); });
  runtime.start();
  EXPECT_EQ(runtime.decode_drops(), 0u);
  // Garbage that can never decode: wrong magic, three bytes.
  for (int i = 0; i < 5; ++i) fabric.send(Datagram{0, 1, {0x01, 0x02, 0x03}});
  EXPECT_TRUE(eventually([&] { return runtime.decode_drops() == 5u; }));
  runtime.stop();
}

TEST(UdpTransportTest, GossipGroupOverRealSockets) {
  constexpr std::size_t kNodes = 3;
  UdpTransport transport(28'700);
  std::vector<std::unique_ptr<NodeRuntime>> runtimes;
  std::atomic<int> deliveries{0};
  for (NodeId id = 0; id < kNodes; ++id) {
    auto runtime = std::make_unique<NodeRuntime>(
        make_protocol_node(id, kNodes, /*adaptive=*/false, 100, 30),
        transport, [&transport] { return transport.now(); });
    runtime->set_deliver_handler(
        [&](const gossip::Event&, TimeMs) { deliveries.fetch_add(1); });
    runtimes.push_back(std::move(runtime));
  }
  for (auto& r : runtimes) r->start();
  runtimes[0]->broadcast(gossip::make_payload({1}));
  EXPECT_TRUE(eventually([&] { return deliveries.load() >= 3; }));
  for (auto& r : runtimes) r->stop();
}

}  // namespace
}  // namespace agb::runtime
