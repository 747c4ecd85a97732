// Real-transport demo: a small adaptive gossip cluster over actual UDP
// sockets on localhost — the runtime counterpart of the simulator examples
// and the closest analogue of the paper's 60-workstation prototype.
//
//   $ ./udp_cluster                 # 8 nodes, ~6 s wall clock
//   $ ./udp_cluster nodes=12 port=31000 seconds=10
//
// One node is started with a much smaller buffer; by the end of the run
// every node's minBuff estimate has converged to it purely through gossip
// headers, and the publisher's allowed rate reflects that budget.
#include <chrono>
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "common/config.h"
#include "membership/full_membership.h"
#include "runtime/node_runtime.h"
#include "runtime/udp_transport.h"

int main(int argc, char** argv) {
  using namespace agb;
  using namespace std::chrono_literals;

  Config cfg;
  std::string error;
  if (!cfg.parse_args(argc, argv, &error)) {
    std::fprintf(stderr, "usage: udp_cluster [key=value ...]\n%s\n",
                 error.c_str());
    return 2;
  }
  const auto n = static_cast<std::size_t>(cfg.get_int("nodes", 8));
  const auto port = static_cast<std::uint16_t>(cfg.get_int("port", 30'500));
  const int seconds = static_cast<int>(cfg.get_int("seconds", 6));
  const NodeId constrained = static_cast<NodeId>(n - 1);

  runtime::UdpTransport transport(port);
  std::vector<std::unique_ptr<runtime::NodeRuntime>> nodes;
  std::vector<std::uint64_t> deliveries(n, 0);

  Rng master(99);
  for (NodeId id = 0; id < n; ++id) {
    auto members =
        std::make_unique<membership::FullMembership>(id, master.split());
    for (NodeId peer = 0; peer < n; ++peer) {
      if (peer != id) members->add(peer);
    }
    gossip::GossipParams gp;
    gp.fanout = 3;
    gp.gossip_period = 100;  // 10 rounds/s: quick demo
    gp.max_events = (id == constrained) ? 8 : 64;
    gp.max_event_ids = 2000;
    gp.max_age = 16;
    adaptive::AdaptiveParams ap;
    ap.sample_period = 300;
    ap.critical_age = 6.0;
    ap.low_age_mark = 5.0;
    ap.high_age_mark = 7.0;
    ap.initial_rate = 40.0;
    ap.bucket_capacity = 10.0;
    auto node = std::make_unique<adaptive::AdaptiveLpbcastNode>(
        id, gp, ap, std::move(members), master.split());
    auto runtime = std::make_unique<runtime::NodeRuntime>(
        std::move(node), transport, [&transport] { return transport.now(); });
    runtime->set_deliver_handler(
        [&deliveries, id](const gossip::Event&, TimeMs) { ++deliveries[id]; });
    nodes.push_back(std::move(runtime));
  }

  std::printf("udp cluster: %zu adaptive nodes on 127.0.0.1:%u..%u\n", n,
              port, port + static_cast<unsigned>(n) - 1);
  std::printf("node %u runs with an 8-event buffer; everyone else has 64\n\n",
              constrained);

  for (auto& node : nodes) node->start();

  // Node 0 publishes as fast as its token bucket allows.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(seconds);
  std::uint64_t published = 0, refused = 0;
  while (std::chrono::steady_clock::now() < deadline) {
    if (nodes[0]->admit(gossip::make_payload({0xab, 0xcd}), 0, false)) {
      ++published;
    } else {
      ++refused;
    }
    std::this_thread::sleep_for(5ms);
  }
  // Let the tail disseminate, then stop.
  std::this_thread::sleep_for(500ms);
  for (auto& node : nodes) node->stop();

  std::printf("published %llu messages (%.1f msg/s), %llu sends throttled\n",
              static_cast<unsigned long long>(published),
              static_cast<double>(published) / seconds,
              static_cast<unsigned long long>(refused));
  std::printf("publisher allowed rate at end: %.1f msg/s\n",
              nodes[0]->allowed_rate());
  std::printf("\n%-6s %-12s %-10s %s\n", "node", "deliveries", "minBuff",
              "buffer");
  for (NodeId id = 0; id < n; ++id) {
    std::printf("%-6u %-12llu %-10u %zu\n", id,
                static_cast<unsigned long long>(deliveries[id]),
                nodes[id]->min_buff(), (id == constrained) ? 8ul : 64ul);
  }
  std::printf("\nall minBuff estimates should read 8 — learned via gossip "
              "headers only.\n");
  return 0;
}
