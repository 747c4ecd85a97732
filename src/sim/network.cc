#include "sim/network.h"

#include <algorithm>

namespace agb::sim {

SimNetwork::SimNetwork(Simulator& sim, NetworkParams params, Rng rng)
    : sim_(sim),
      params_(params),
      rng_(rng),
      sampler_(params.latency, params.clusters, params.wan_latency) {}

void SimNetwork::attach(NodeId node, DatagramHandler handler) {
  handlers_[node] = std::move(handler);
}

void SimNetwork::detach(NodeId node) { handlers_.erase(node); }

void SimNetwork::send_batch(Multicast batch) {
  ++stats_.batches;
  stats_.sent += batch.targets.size();
  const bool sender_down = down_.contains(batch.from);

  // Per-target loss/latency sampling, grouped by sampled delay so every
  // group rides one simulator event. Groups keep first-appearance order
  // (and targets within a group keep batch order), so delivery order and
  // RNG draw order match the old per-datagram path exactly.
  struct DelayGroup {
    DurationMs delay;
    std::vector<NodeId> targets;
  };
  std::vector<DelayGroup> groups;
  // Fault-plane specials (mutated payload, duplicates, reorder delay) each
  // ride their own event: they cannot share the batch payload or a group's
  // common delay. Clean runs never touch this path.
  struct SpecialDelivery {
    DurationMs delay;
    NodeId to;
    SharedBytes payload;
  };
  std::vector<SpecialDelivery> specials;
  for (NodeId to : batch.targets) {
    // The intra/cross split mirrors `sent`: counted per addressed target,
    // before any drop, so the WAN-traffic share reflects what the sender
    // put on the wire.
    const bool cross_cluster = sampler_.cross_cluster(batch.from, to);
    ++(cross_cluster ? stats_.sent_cross_cluster : stats_.sent_intra_cluster);
    if (sender_down || down_.contains(to)) {
      ++stats_.dropped_down;
      continue;
    }
    if (partitioned(batch.from, to)) {
      ++stats_.dropped_partition;
      continue;
    }
    if (params_.loss.drop(rng_, burst_bad_)) {
      ++stats_.dropped_loss;
      continue;
    }
    fault::FaultAction action;
    if (fault_plane_) action = fault_plane_->sample(batch.from, to, sim_.now());
    if (action.drop) {
      ++stats_.dropped_chaos;
      continue;
    }
    // Latency selection (inside the sampler): explicit per-link override >
    // cluster rule > default.
    const DurationMs delay = sampler_.sample(batch.from, to, rng_);
    if (action.special()) {
      SharedBytes payload = (action.corrupt || action.truncate)
                                ? fault_plane_->mutate(batch.payload, action)
                                : batch.payload;
      for (int copy = 0; copy <= action.duplicates; ++copy) {
        specials.push_back(
            SpecialDelivery{delay + action.extra_delay, to, payload});
      }
      continue;
    }
    auto group = std::find_if(groups.begin(), groups.end(),
                              [delay](const DelayGroup& g) {
                                return g.delay == delay;
                              });
    if (group == groups.end()) {
      groups.push_back(DelayGroup{delay, {to}});
    } else {
      group->targets.push_back(to);
    }
  }

  for (auto& group : groups) {
    ++stats_.events_scheduled;
    sim_.after(group.delay, [this, from = batch.from,
                             targets = std::move(group.targets),
                             payload = batch.payload]() {
      for (NodeId to : targets) {
        if (down_.contains(to)) {
          ++stats_.dropped_down;
          continue;
        }
        auto it = handlers_.find(to);
        if (it == handlers_.end()) {
          ++stats_.dropped_detached;
          continue;
        }
        ++stats_.delivered;
        stats_.bytes_delivered += payload.size();
        // Every target's Datagram aliases the batch payload — refcount
        // bumps only, no byte copies anywhere on the delivery path.
        const Datagram d{from, to, payload};
        it->second(d, sim_.now());
      }
    });
  }

  for (auto& special : specials) {
    ++stats_.events_scheduled;
    sim_.after(special.delay, [this, from = batch.from, to = special.to,
                               payload = std::move(special.payload)]() {
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
      const Datagram d{from, to, payload};
      it->second(d, sim_.now());
    });
  }
}

void SimNetwork::set_node_up(NodeId node, bool up) {
  if (up) {
    down_.erase(node);
  } else {
    down_.insert(node);
  }
}

bool SimNetwork::node_up(NodeId node) const { return !down_.contains(node); }

void SimNetwork::partition(NodeId a, NodeId b) {
  partitions_.insert(symmetric_link_key(a, b));
}

void SimNetwork::heal(NodeId a, NodeId b) {
  partitions_.erase(symmetric_link_key(a, b));
}

void SimNetwork::heal_all() { partitions_.clear(); }

bool SimNetwork::partitioned(NodeId a, NodeId b) const {
  return partitions_.contains(symmetric_link_key(a, b));
}

void SimNetwork::set_link_latency(NodeId a, NodeId b, LatencyModel model) {
  sampler_.set_link_override(a, b, model);
}

void SimNetwork::clear_link_latencies() { sampler_.clear_link_overrides(); }

}  // namespace agb::sim
