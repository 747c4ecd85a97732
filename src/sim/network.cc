#include "sim/network.h"

#include <algorithm>

namespace agb::sim {

NetworkStats& NetworkStats::operator+=(const NetworkStats& other) noexcept {
  sent += other.sent;
  sent_intra_cluster += other.sent_intra_cluster;
  sent_cross_cluster += other.sent_cross_cluster;
  batches += other.batches;
  events_scheduled += other.events_scheduled;
  delivered += other.delivered;
  dropped_loss += other.dropped_loss;
  dropped_partition += other.dropped_partition;
  dropped_down += other.dropped_down;
  dropped_detached += other.dropped_detached;
  dropped_chaos += other.dropped_chaos;
  bytes_delivered += other.bytes_delivered;
  return *this;
}

SimNetwork::SimNetwork(Simulator& sim, NetworkParams params, Rng rng)
    : sim_(sim),
      link_(params.loss,
            DelaySampler(params.latency, params.clusters, params.wan_latency)),
      stream_{rng} {}

void SimNetwork::attach(NodeId node, DatagramHandler handler) {
  handlers_[node] = std::move(handler);
}

void SimNetwork::detach(NodeId node) { handlers_.erase(node); }

void SimNetwork::send_batch(Multicast batch) {
  ++stats_.batches;
  const bool sender_down = down_.contains(batch.from);

  // Targets grouped by sampled delay so every group rides one simulator
  // event. Groups keep first-appearance order (and targets within a group
  // keep batch order), so delivery order follows the link's draw order.
  struct DelayGroup {
    DurationMs delay;
    std::vector<NodeId> targets;
  };
  std::vector<DelayGroup> groups;
  // Fault-plane copies (mutated payload, duplicates, reorder delay) each
  // ride their own event: they cannot share the batch payload or a group's
  // common delay. Clean runs never make one.
  struct Copy {
    DurationMs delay;
    NodeId to;
    SharedBytes payload;
  };
  std::vector<Copy> copies;
  link_.send(
      batch.from, batch.targets, batch.payload, sim_.now(), stream_,
      fault_plane_, stats_,
      [&](NodeId to) { return sender_down || down_.contains(to); },
      [&](NodeId to, DurationMs delay, const SharedBytes& payload, bool own) {
        if (own) {
          copies.push_back(Copy{delay, to, payload});
          return;
        }
        auto group = std::find_if(
            groups.begin(), groups.end(),
            [delay](const DelayGroup& g) { return g.delay == delay; });
        if (group == groups.end()) {
          groups.push_back(DelayGroup{delay, {to}});
        } else {
          group->targets.push_back(to);
        }
      });

  for (auto& group : groups) {
    ++stats_.events_scheduled;
    sim_.after(group.delay, [this, from = batch.from,
                             targets = std::move(group.targets),
                             payload = batch.payload]() {
      for (NodeId to : targets) deliver(from, to, payload);
    });
  }
  for (auto& copy : copies) {
    ++stats_.events_scheduled;
    sim_.after(copy.delay, [this, from = batch.from, to = copy.to,
                            payload = std::move(copy.payload)]() {
      deliver(from, to, payload);
    });
  }
}

void SimNetwork::deliver(NodeId from, NodeId to, const SharedBytes& payload) {
  if (down_.contains(to)) {
    ++stats_.dropped_down;
    return;
  }
  auto it = handlers_.find(to);
  if (it == handlers_.end()) {
    ++stats_.dropped_detached;
    return;
  }
  ++stats_.delivered;
  stats_.bytes_delivered += payload.size();
  // Every target's Datagram aliases the batch payload — refcount bumps
  // only, no byte copies anywhere on the delivery path.
  const Datagram d{from, to, payload};
  it->second(d, sim_.now());
}

void SimNetwork::set_node_up(NodeId node, bool up) {
  if (up) {
    down_.erase(node);
  } else {
    down_.insert(node);
  }
}

bool SimNetwork::node_up(NodeId node) const { return !down_.contains(node); }

void SimNetwork::set_link_latency(NodeId a, NodeId b, LatencyModel model) {
  link_.sampler().set_link_override(a, b, model);
}

void SimNetwork::clear_link_latencies() {
  link_.sampler().clear_link_overrides();
}

}  // namespace agb::sim
