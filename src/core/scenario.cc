#include "core/scenario.h"

#include <algorithm>
#include <deque>
#include <unordered_map>

#include "membership/full_membership.h"

namespace agb::core {

std::vector<NodeId> scenario_sender_ids(std::size_t n, std::size_t senders) {
  std::vector<NodeId> ids;
  senders = std::max<std::size_t>(1, std::min(senders, n));
  ids.reserve(senders);
  for (std::size_t i = 0; i < senders; ++i) {
    ids.push_back(static_cast<NodeId>(i * n / senders));
  }
  return ids;
}

struct Scenario::SenderState {
  NodeId id = kInvalidNode;
  gossip::LpbcastNode* node = nullptr;             // non-owning
  adaptive::AdaptiveLpbcastNode* adaptive = nullptr;  // null for baseline
  double rate = 0.0;                               // offered msg/s
  Rng rng{0};
  std::deque<gossip::Payload> pending;
  std::unique_ptr<sim::PeriodicTimer> retry_timer;
  bool retry_armed = false;
};

std::optional<std::pair<TimeMs, TimeMs>> chaos_recovery_window(
    const ScenarioParams& params) {
  if (params.chaos.empty()) return std::nullopt;
  const TimeMs close = params.chaos.last_window_end();
  if (close <= 0) return std::nullopt;  // open-ended faults never heal
  const TimeMs from =
      close + kChaosRecoveryRounds * params.gossip.gossip_period;
  const TimeMs eval_end = params.warmup + params.duration;
  if (from >= eval_end) return std::nullopt;
  return std::make_pair(from, eval_end);
}

Scenario::Scenario(ScenarioParams params)
    : params_(std::move(params)),
      master_rng_(params_.seed),
      tracker_(params_.n) {
  net_ = std::make_unique<sim::SimNetwork>(sim_, params_.network,
                                           master_rng_.split());
  if (!params_.chaos.empty()) {
    fault_plane_ = std::make_unique<fault::FaultPlane>(
        params_.chaos, fault::chaos_seed(params_.seed));
    net_->set_fault_plane(fault_plane_.get());
  }
}

Scenario::~Scenario() = default;

bool Scenario::in_eval_window(TimeMs t) const {
  return t >= params_.warmup && t < params_.warmup + params_.duration;
}

std::shared_ptr<const membership::ClusterMap> scenario_cluster_map(
    const ScenarioParams& params) {
  // One shared cluster map: the same modulo rule SimNetwork prices links
  // with, so the membership layer and the network agree on the topology.
  if (!params.locality.enabled) return nullptr;
  return std::make_shared<membership::ModuloClusterMap>(
      params.network.clusters);
}

std::unique_ptr<membership::Membership> build_scenario_membership(
    const ScenarioParams& params, NodeId id, Rng& master_rng,
    const std::shared_ptr<const membership::ClusterMap>& cluster_map) {
  const auto i = static_cast<std::size_t>(id);
  std::unique_ptr<membership::Membership> view;
  if (params.gossip_membership) {
    auto gm = std::make_unique<membership::GossipMembership>(
        id, params.membership_params, master_rng.split());
    // Bootstrap knowledge of the whole group, like FullMembership — from
    // here on, liveness is maintained by the gossiped records alone.
    for (std::size_t j = 0; j < params.n; ++j) {
      if (j != i) gm->add(static_cast<NodeId>(j));
    }
    view = std::move(gm);
  } else if (params.partial_view) {
    auto pv = std::make_unique<membership::PartialView>(
        id, params.view_params, master_rng.split());
    // Bootstrap: seed each view with a random sample of the group, the
    // standard way lpbcast deployments are started.
    auto sample = master_rng.sample_indices(
        params.n, params.view_params.max_view + 1);
    for (std::size_t idx : sample) {
      if (idx != i) pv->add(static_cast<NodeId>(idx));
    }
    view = std::move(pv);
  } else {
    auto full =
        std::make_unique<membership::FullMembership>(id, master_rng.split());
    for (std::size_t j = 0; j < params.n; ++j) {
      if (j != i) full->add(static_cast<NodeId>(j));
    }
    view = std::move(full);
  }

  if (params.locality.enabled) {
    view = std::make_unique<membership::LocalityView>(
        id, params.locality, cluster_map, std::move(view),
        master_rng.split());
  }
  return view;
}

std::unique_ptr<gossip::LpbcastNode> build_scenario_node(
    const ScenarioParams& params, NodeId id, Rng& master_rng,
    const std::shared_ptr<const membership::ClusterMap>& cluster_map) {
  auto view = build_scenario_membership(params, id, master_rng, cluster_map);
  if (params.adaptive) {
    return std::make_unique<adaptive::AdaptiveLpbcastNode>(
        id, params.gossip, params.adaptation, std::move(view),
        master_rng.split());
  }
  return std::make_unique<gossip::LpbcastNode>(
      id, params.gossip, std::move(view), master_rng.split());
}

void Scenario::build_nodes() {
  nodes_.reserve(params_.n);
  const auto cluster_map = scenario_cluster_map(params_);
  // Arena-allocate the group: the membership bootstrap and the node seed
  // are drawn from master_rng_ in exactly the order build_scenario_node
  // uses, so arena and heap builds are trace-identical (the parity
  // contract with WallclockScenario).
  if (params_.adaptive) {
    auto arena =
        std::make_unique<NodeArena<adaptive::AdaptiveLpbcastNode>>(params_.n);
    adaptive_nodes_.reserve(params_.n);
    for (std::size_t i = 0; i < params_.n; ++i) {
      const auto id = static_cast<NodeId>(i);
      auto view =
          build_scenario_membership(params_, id, master_rng_, cluster_map);
      auto* node = arena->emplace(id, params_.gossip, params_.adaptation,
                                  std::move(view), master_rng_.split());
      adaptive_nodes_.push_back(node);
      nodes_.push_back(node);
    }
    node_storage_ = std::move(arena);
  } else {
    auto arena = std::make_unique<NodeArena<gossip::LpbcastNode>>(params_.n);
    for (std::size_t i = 0; i < params_.n; ++i) {
      const auto id = static_cast<NodeId>(i);
      auto view =
          build_scenario_membership(params_, id, master_rng_, cluster_map);
      nodes_.push_back(arena->emplace(id, params_.gossip, std::move(view),
                                      master_rng_.split()));
    }
    node_storage_ = std::move(arena);
  }

  for (gossip::LpbcastNode* node : nodes_) {
    const NodeId id = node->id();
    node->set_deliver_handler([this, id](const gossip::Event& e, TimeMs now) {
      if (e.id.origin == id) return;  // origin accounted at broadcast time
      tracker_.on_delivery(e.id, id, now);
    });
    node->set_drop_handler(
        [this](const gossip::Event& e, gossip::DropReason reason, TimeMs now) {
          if (reason != gossip::DropReason::kBufferOverflow) return;
          if (in_eval_window(now)) {
            eval_drop_age_.add(static_cast<double>(e.age));
          }
        });

    net_->attach(id, [this, node](const Datagram& d, TimeMs now) {
      if (!node->on_wire(decoder_.decode(d.payload), now)) {
        ++decode_failures_;
        return;
      }
      drain_outbox(*node);
    });
  }
}

void Scenario::emit(gossip::LpbcastNode& node,
                    gossip::LpbcastNode::Outgoing out) {
  if (!out.targets.empty()) {
    // One Multicast per gossip round: encode once, one network stats pass,
    // every target aliasing the same SharedBytes buffer.
    net_->send_batch(std::move(out).to_multicast(node.id()));
  }
  drain_outbox(node);
}

void Scenario::drain_outbox(gossip::LpbcastNode& node) {
  for (auto& control : node.take_outbox()) {
    net_->send(Datagram{node.id(), control.target,
                        std::move(control.payload)});
  }
}

void Scenario::apply_topology() {
  for (const auto& link : params_.link_latencies) {
    net_->set_link_latency(link.a, link.b, link.model);
  }
}

void Scenario::start_round_timers() {
  // Unsynchronised rounds: each node starts at a random phase, like
  // independently started processes on the paper's 60 workstations. The
  // phase draw is one master-RNG call per node in id order — the same
  // consumption the per-node-PeriodicTimer implementation made, which is
  // what keeps old seeds producing identical traces. Nodes sharing a phase
  // are then swept by one repeating wheel event in id order (the order
  // their individual timers fired in), so the queue holds one live event
  // per distinct phase instead of one per node.
  std::unordered_map<TimeMs, std::size_t> bucket_index;
  for (gossip::LpbcastNode* node : nodes_) {
    const auto phase = static_cast<TimeMs>(
        master_rng_.next_below(static_cast<std::uint64_t>(
            params_.gossip.gossip_period)));
    const auto [it, inserted] =
        bucket_index.try_emplace(phase, round_buckets_.size());
    if (inserted) round_buckets_.push_back(RoundBucket{phase, {}});
    round_buckets_[it->second].nodes.push_back(node);
  }
  for (std::size_t i = 0; i < round_buckets_.size(); ++i) {
    sim_.at(round_buckets_[i].phase, [this, i] { tick_round_bucket(i); });
  }
}

void Scenario::tick_round_bucket(std::size_t index) {
  const TimeMs now = sim_.now();
  // Re-arm before sweeping, mirroring PeriodicTimer::arm: the next round
  // event is sequenced ahead of anything this sweep schedules.
  sim_.at(now + params_.gossip.gossip_period,
          [this, index] { tick_round_bucket(index); });
  for (gossip::LpbcastNode* node : round_buckets_[index].nodes) {
    emit(*node, node->on_round(now));
  }
}

void Scenario::sender_arrival(SenderState& sender) {
  auto payload = gossip::make_payload(
      std::vector<std::uint8_t>(params_.payload_size, 0xab));
  if (sender.pending.size() >= params_.pending_cap) {
    ++refused_;
  } else {
    sender.pending.push_back(std::move(payload));
    max_pending_depth_ = std::max(max_pending_depth_, sender.pending.size());
  }
  drain_sender(sender);

  // Schedule the next application arrival.
  const double mean_ms = 1000.0 / sender.rate;
  const auto gap = static_cast<DurationMs>(std::max(
      1.0, params_.poisson_arrivals ? sender.rng.exponential(mean_ms)
                                    : mean_ms));
  sim_.after(gap, [this, &sender] { sender_arrival(sender); });
}

void Scenario::drain_sender(SenderState& sender) {
  const TimeMs now = sim_.now();
  while (!sender.pending.empty()) {
    EventId id;
    const bool supersedes =
        params_.supersede_probability > 0.0 &&
        sender.rng.bernoulli(params_.supersede_probability);
    if (sender.adaptive != nullptr) {
      if (!sender.adaptive->try_broadcast_on_stream(
              sender.pending.front(), now, /*stream=*/sender.id, supersedes,
              &id)) {
        break;  // no tokens; the retry timer will try again
      }
    } else {
      id = sender.node->broadcast_on_stream(sender.pending.front(), now,
                                            /*stream=*/sender.id, supersedes);
    }
    sender.pending.pop_front();
    tracker_.on_broadcast(id, sender.id, now);
    tracker_.on_delivery(id, sender.id, now);  // origin's local delivery
  }
}

void Scenario::start_senders() {
  const auto sender_ids = scenario_sender_ids(params_.n, params_.senders);
  const double per_sender =
      params_.offered_rate / static_cast<double>(sender_ids.size());
  for (NodeId id : sender_ids) {
    auto sender = std::make_unique<SenderState>();
    sender->id = id;
    sender->node = nodes_[id];
    sender->adaptive = params_.adaptive ? adaptive_nodes_[id] : nullptr;
    sender->rate = per_sender;
    sender->rng = master_rng_.split();

    // Token-refill retries: cheap fixed-cadence drain attempts; only does
    // work while the pending queue is non-empty.
    sender->retry_timer = std::make_unique<sim::PeriodicTimer>(
        sim_, 100, 100, [this, raw = sender.get()](TimeMs) {
          if (!raw->pending.empty()) drain_sender(*raw);
        });

    const auto first = static_cast<DurationMs>(
        sender->rng.exponential(1000.0 / sender->rate));
    sim_.after(std::max<DurationMs>(first, 1),
               [this, raw = sender.get()] { sender_arrival(*raw); });
    senders_.push_back(std::move(sender));
  }
}

void Scenario::start_sampler() {
  timers_.push_back(std::make_unique<sim::PeriodicTimer>(
      sim_, params_.series_bucket, params_.series_bucket,
      [this](TimeMs now) {
        if (!adaptive_nodes_.empty()) {
          double allowed = 0.0;
          for (const auto& sender : senders_) {
            if (sender->adaptive != nullptr) {
              allowed += sender->adaptive->allowed_rate();
            }
          }
          allowed_rate_ts_.add(now, allowed);

          double min_buff_sum = 0.0;
          for (const auto* node : adaptive_nodes_) {
            min_buff_sum += static_cast<double>(node->min_buff());
          }
          min_buff_ts_.add(
              now, min_buff_sum / static_cast<double>(adaptive_nodes_.size()));

          // Control-plane actuator trajectories: group-mean p_local (over
          // nodes that have a locality bias at all) and effective fanout.
          // Pure reads — no RNG, no protocol state touched.
          if (params_.adaptation.control.enabled) {
            double p_local_sum = 0.0;
            std::size_t locality_nodes = 0;
            double fanout_sum = 0.0;
            for (auto* node : adaptive_nodes_) {
              const double p = node->p_local();
              if (p >= 0.0) {
                p_local_sum += p;
                ++locality_nodes;
              }
              fanout_sum += static_cast<double>(node->effective_fanout());
            }
            if (locality_nodes > 0) {
              p_local_ts_.add(
                  now, p_local_sum / static_cast<double>(locality_nodes));
            }
            fanout_ts_.add(
                now, fanout_sum / static_cast<double>(adaptive_nodes_.size()));
          }
        }
      }));
}

void Scenario::apply_failure_schedule() {
  for (const FailureEvent& event : params_.failure_schedule) {
    sim_.at(event.at, [this, event] {
      net_->set_node_up(event.node, event.up);
      if (event.up && event.node < nodes_.size()) {
        // The recovering process's own restart logic (not an oracle: it
        // touches only the node itself): under gossip membership a rejoin
        // bumps the revision — and rotates the advertised endpoint when
        // the scenario models host migration — so the fresh incarnation's
        // records beat every stale or down claim the group still holds.
        if (auto* gm = nodes_[event.node]->gossip_membership()) {
          if (params_.migrate_on_rejoin) {
            membership::EndpointBinding binding = gm->self_record().binding;
            ++binding.port;
            gm->set_self_binding(binding);
          } else {
            gm->on_restart();
          }
        }
      }
      if (!params_.failure_detector) return;
      // Perfect failure detection: the survivors' views learn the change
      // at once, so locality bridge election reacts within one round.
      for (auto& node : nodes_) {
        if (node->id() == event.node) continue;
        if (event.up) {
          node->membership().add(event.node);
        } else {
          node->membership().remove(event.node);
        }
      }
    });
  }
}

void Scenario::apply_capacity_schedule() {
  for (const CapacityChange& change : params_.capacity_schedule) {
    sim_.at(change.at, [this, change] {
      const auto affected = static_cast<std::size_t>(
          change.node_fraction * static_cast<double>(params_.n));
      for (std::size_t i = 0; i < std::min(affected, params_.n); ++i) {
        if (params_.adaptive) {
          adaptive_nodes_[i]->set_capacity(change.new_capacity, sim_.now());
        } else {
          nodes_[i]->set_max_events(change.new_capacity, sim_.now());
        }
      }
    });
  }
}

ScenarioResults Scenario::run() {
  if (ran_) return {};
  ran_ = true;

  build_nodes();
  apply_topology();
  start_round_timers();
  start_senders();
  start_sampler();
  apply_capacity_schedule();
  apply_failure_schedule();

  sim_.run_until(params_.warmup + params_.duration + params_.cooldown);

  ScenarioResults results;
  results.allowed_rate_ts = std::move(allowed_rate_ts_);
  results.min_buff_ts = std::move(min_buff_ts_);
  results.p_local_ts = std::move(p_local_ts_);
  results.fanout_ts = std::move(fanout_ts_);
  summarize_run(params_, tracker_, nodes_, results);
  results.avg_drop_age = eval_drop_age_.mean();
  results.refused_broadcasts = refused_;
  results.decode_failures = decode_failures_;
  results.max_pending_depth = max_pending_depth_;
  results.net = net_->stats();
  results.peak_event_queue_len = sim_.peak_pending_events();
  if (fault_plane_ != nullptr) results.chaos = fault_plane_->stats();
  return results;
}

void summarize_run(const ScenarioParams& params,
                   const metrics::DeliveryTracker& tracker,
                   std::span<gossip::LpbcastNode* const> nodes,
                   ScenarioResults& results) {
  const TimeMs eval_start = params.warmup;
  const TimeMs eval_end = params.warmup + params.duration;
  results.delivery = tracker.report(eval_start, eval_end);
  results.offered_rate = params.offered_rate;
  results.input_rate = results.delivery.input_rate;
  results.output_rate = results.delivery.output_rate;
  if (const auto window = chaos_recovery_window(params)) {
    results.post_chaos_delivery =
        tracker.report(window->first, window->second);
  }
  for (auto [t, v] :
       tracker.atomicity_series(eval_start, eval_end, params.series_bucket)) {
    results.atomicity_ts.add(t, v);
  }
  for (auto [t, v] : tracker.input_rate_series(eval_start, eval_end,
                                               params.series_bucket)) {
    results.input_rate_ts.add(t, v);
  }
  results.avg_allowed_rate =
      results.allowed_rate_ts.mean_in(eval_start, eval_end);
  results.final_allowed_rate = results.allowed_rate_ts.value_at(eval_end);

  double min_buff_sum = 0.0;
  double age_sum = 0.0;
  double fanout_sum = 0.0;
  double p_local_sum = 0.0;
  std::size_t adaptive_nodes = 0;
  std::size_t locality_nodes = 0;
  results.membership_sizes.reserve(nodes.size());
  for (gossip::LpbcastNode* node : nodes) {
    const gossip::NodeCounters& counters = node->counters();
    results.overflow_drops += counters.drops_overflow;
    results.age_limit_drops += counters.drops_age_limit;
    results.repair_requests += counters.repair_requests;
    results.repair_replies += counters.repair_replies;
    results.events_recovered += counters.events_recovered;
    if (const auto* gm = node->gossip_membership()) {
      results.membership_transitions.suspicions += gm->counters().suspicions;
      results.membership_transitions.downs += gm->counters().downs;
      results.membership_transitions.revivals += gm->counters().revivals;
    }
    results.membership_sizes.push_back(node->membership().size());

    auto* adaptive = dynamic_cast<adaptive::AdaptiveLpbcastNode*>(node);
    if (adaptive == nullptr) continue;
    ++adaptive_nodes;
    min_buff_sum += static_cast<double>(adaptive->min_buff());
    age_sum += adaptive->avg_age();
    fanout_sum += static_cast<double>(adaptive->effective_fanout());
    if (const double p = adaptive->p_local(); p >= 0.0) {
      p_local_sum += p;
      ++locality_nodes;
    }
  }
  if (adaptive_nodes > 0) {
    const auto count = static_cast<double>(adaptive_nodes);
    results.avg_min_buff = min_buff_sum / count;
    results.avg_age_estimate = age_sum / count;
    results.avg_effective_fanout = fanout_sum / count;
  }
  if (locality_nodes > 0) {
    results.avg_p_local = p_local_sum / static_cast<double>(locality_nodes);
  }
}

}  // namespace agb::core
