// Publish-subscribe with overlapping topic groups — the application the
// paper's introduction motivates the mechanism with.
//
// Two topics ("market-data" and "alerts") each run their own gossip-based
// broadcast group. A block of nodes subscribes to *both* topics halfway
// through the run and must split its fixed buffer budget between the two
// groups. The adaptive mechanism in the market-data group notices the
// shrunken buffers through its gossiped minBuff estimate and throttles the
// publishers — no explicit feedback, no reconfiguration.
//
// This example uses the node-level API directly (AdaptiveLpbcastNode driven
// over a simulated network), which is what an embedding application would
// do; contrast with examples/quickstart.cc, which uses the scenario
// harness.
#include <cstdio>
#include <memory>
#include <vector>

#include "adaptive/adaptive_node.h"
#include "membership/full_membership.h"
#include "sim/network.h"
#include "sim/simulator.h"

namespace {

using namespace agb;

constexpr std::size_t kMembers = 30;     // nodes per topic
constexpr std::size_t kOverlap = 10;     // nodes subscribed to both topics
constexpr std::size_t kBudget = 60;      // per-node buffer budget (events)
constexpr DurationMs kRoundMs = 1000;
constexpr TimeMs kJoinAt = 120'000;      // overlap nodes join topic 2 here
constexpr TimeMs kEndAt = 300'000;

/// Address space: topic T, member i -> NodeId T*1000+i. One simulated
/// network carries both groups.
NodeId address(std::size_t topic, std::size_t member) {
  return static_cast<NodeId>(topic * 1000 + member);
}

struct TopicGroup {
  std::size_t topic;
  std::vector<std::unique_ptr<adaptive::AdaptiveLpbcastNode>> nodes;
  std::vector<std::unique_ptr<sim::PeriodicTimer>> timers;
  std::uint64_t deliveries = 0;

  double publisher_rate() const {
    return nodes[0]->allowed_rate();  // member 0 publishes
  }
  std::uint32_t group_min_buff() const { return nodes[5]->min_buff(); }
};

std::unique_ptr<TopicGroup> make_topic(std::size_t topic, sim::Simulator& sim,
                                       sim::SimNetwork& net, Rng& master,
                                       double publish_rate) {
  auto group = std::make_unique<TopicGroup>();
  group->topic = topic;
  for (std::size_t i = 0; i < kMembers; ++i) {
    auto members = std::make_unique<membership::FullMembership>(
        address(topic, i), master.split());
    for (std::size_t j = 0; j < kMembers; ++j) {
      if (j != i) members->add(address(topic, j));
    }
    gossip::GossipParams gp;
    gp.fanout = 4;
    gp.gossip_period = kRoundMs;
    gp.max_events = kBudget;
    gp.max_event_ids = 3000;
    gp.max_age = 16;
    adaptive::AdaptiveParams ap;
    ap.sample_period = 2 * kRoundMs;
    ap.critical_age = 6.0;
    ap.low_age_mark = 5.5;
    ap.high_age_mark = 6.5;
    ap.initial_rate = publish_rate;
    auto node = std::make_unique<adaptive::AdaptiveLpbcastNode>(
        address(topic, i), gp, ap, std::move(members), master.split());
    node->set_deliver_handler(
        [raw = group.get()](const gossip::Event&, TimeMs) {
          ++raw->deliveries;
        });
    net.attach(address(topic, i),
               [raw = node.get()](const Datagram& d, TimeMs now) {
                 if (auto m = gossip::GossipMessage::decode(d.payload)) {
                   raw->on_gossip(*m, now);
                 }
               });
    group->nodes.push_back(std::move(node));
  }
  // Round timers with random phases.
  for (auto& node : group->nodes) {
    const auto phase = static_cast<TimeMs>(master.next_below(kRoundMs));
    group->timers.push_back(std::make_unique<sim::PeriodicTimer>(
        sim, phase, kRoundMs, [raw = node.get(), &net](TimeMs now) {
          auto out = raw->on_round(now);
          if (out.targets.empty()) return;
          net.send_batch(std::move(out).to_multicast(raw->id()));
        }));
  }
  return group;
}

void start_publisher(TopicGroup& group, sim::Simulator& sim, Rng& master,
                     double rate) {
  auto* node = group.nodes[0].get();
  auto rng = std::make_shared<Rng>(master.split());
  auto publish = std::make_shared<std::function<void()>>();
  *publish = [node, rng, &sim, rate, publish] {
    (void)node->try_broadcast(gossip::make_payload({0x42}), sim.now());
    sim.after(static_cast<DurationMs>(
                  std::max(1.0, rng->exponential(1000.0 / rate))),
              [publish] { (*publish)(); });
  };
  sim.after(1, [publish] { (*publish)(); });
}

}  // namespace

int main() {
  sim::Simulator sim;
  Rng master(2026);
  sim::SimNetwork net(sim, {}, master.split());

  std::printf("pub/sub with overlapping topic groups\n");
  std::printf("  topic 1 (market-data): %zu subscribers, publisher at 20 "
              "msg/s\n", kMembers);
  std::printf("  topic 2 (alerts)     : %zu subscribers, publisher at 8 "
              "msg/s\n", kMembers);
  std::printf("  at t=%llds, %zu market-data nodes also subscribe to "
              "alerts and split\n  their %zu-event buffer 50/50 between the "
              "topics\n\n",
              static_cast<long long>(kJoinAt / 1000), kOverlap, kBudget);

  auto market = make_topic(1, sim, net, master, 20.0);
  auto alerts = make_topic(2, sim, net, master, 8.0);
  start_publisher(*market, sim, master, 20.0);
  start_publisher(*alerts, sim, master, 8.0);

  // At kJoinAt, the overlap block halves the buffer it devotes to each
  // topic, exactly the "resources are split dynamically between groups"
  // situation of the paper's §1.
  sim.at(kJoinAt, [&] {
    for (std::size_t i = kMembers - kOverlap; i < kMembers; ++i) {
      market->nodes[i]->set_max_events(kBudget / 2, sim.now());
      alerts->nodes[i]->set_max_events(kBudget / 2, sim.now());
    }
    std::printf("t=%4llds  >>> %zu nodes split buffers between topics <<<\n",
                static_cast<long long>(sim.now() / 1000), kOverlap);
  });

  // Progress printout every 30 s.
  sim::PeriodicTimer reporter(sim, 30'000, 30'000, [&](TimeMs now) {
    std::printf(
        "t=%4llds  market: allowed %5.1f msg/s minBuff %3u | alerts: "
        "allowed %4.1f msg/s minBuff %3u\n",
        static_cast<long long>(now / 1000), market->publisher_rate(),
        market->group_min_buff(), alerts->publisher_rate(),
        alerts->group_min_buff());
  });

  sim.run_until(kEndAt);

  std::printf("\nafter the split, the market-data publisher throttles to "
              "what the halved buffers sustain;\nthe alerts topic (8 msg/s "
              "well under capacity) is unaffected.\n");
  std::printf("total deliveries: market %llu, alerts %llu\n",
              static_cast<unsigned long long>(market->deliveries),
              static_cast<unsigned long long>(alerts->deliveries));
  return 0;
}
