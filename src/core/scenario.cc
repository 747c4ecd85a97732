#include "core/scenario.h"

#include <algorithm>
#include <type_traits>
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

std::size_t capacity_targets(const CapacityChange& change, std::size_t n) {
  return std::min(
      static_cast<std::size_t>(change.node_fraction * static_cast<double>(n)),
      n);
}

void apply_oracle_view(gossip::LpbcastNode& survivor,
                       const FailureEvent& event) {
  if (survivor.id() == event.node) return;
  if (event.up) {
    survivor.membership().add(event.node);
  } else {
    survivor.membership().remove(event.node);
  }
}

SenderQueue::SenderQueue(const ScenarioParams& params, NodeId id, double rate,
                         Rng rng, AdmitFn admit)
    : params_(params), id_(id), rate_(rate), rng_(rng),
      admit_(std::move(admit)) {}

void SenderQueue::start(sim::Simulator& clock) {
  clock_ = &clock;
  // One sample per tick over the whole run, reserved once.
  depth_samples_.reserve(static_cast<std::size_t>(
      (params_.warmup + params_.duration + params_.cooldown) / 100 + 1));
  // The retry tick re-offers a blocked queue front as the token bucket
  // refills, then samples the depth.
  retry_ = std::make_unique<sim::PeriodicTimer>(
      clock, 100, 100, [this](TimeMs) {
        if (!pending_.empty()) drain();
        depth_samples_.push_back(pending_.size());
      });
  if (rate_ <= 0.0) return;  // no offered load, no arrival process
  const auto first =
      static_cast<DurationMs>(rng_.exponential(1000.0 / rate_));
  clock.after(std::max<DurationMs>(first, 1), [this] { arrive(); });
}

void SenderQueue::arrive() {
  if (pending_.size() >= params_.pending_cap) {
    ++refused_;
  } else {
    pending_.push_back(gossip::make_payload(
        std::vector<std::uint8_t>(params_.payload_size, 0xab)));
    max_depth_ = std::max(max_depth_, pending_.size());
  }
  drain();

  // Schedule the next application arrival.
  const double mean_ms = 1000.0 / rate_;
  const auto gap = static_cast<DurationMs>(std::max(
      1.0, params_.poisson_arrivals ? rng_.exponential(mean_ms) : mean_ms));
  clock_->after(gap, [this] { arrive(); });
}

void SenderQueue::drain() {
  while (!pending_.empty()) {
    const bool supersedes = params_.supersede_probability > 0.0 &&
                            rng_.bernoulli(params_.supersede_probability);
    if (!admit_(pending_.front(), /*stream=*/id_, supersedes)) {
      break;  // no tokens; the retry tick will try again
    }
    pending_.pop_front();
  }
}

ScenarioGroup::ScenarioGroup(const ScenarioParams& params, std::size_t shards,
                             Engine& engine)
    : params_(params),
      engine_(engine),
      mask_(shards - 1),
      members_(shards),
      buckets_(shards),
      tracker_(params.n) {}

ScenarioGroup::~ScenarioGroup() = default;

template <class Node>
void ScenarioGroup::build_arenas(Rng& master_rng) {
  std::vector<std::size_t> population(members_.size(), 0);
  for (std::size_t i = 0; i < params_.n; ++i) {
    ++population[shard_of(static_cast<NodeId>(i))];
  }
  std::vector<NodeArena<Node>*> arenas;
  for (std::size_t count : population) {
    auto arena =
        std::make_unique<NodeArena<Node>>(std::max<std::size_t>(1, count));
    arenas.push_back(arena.get());
    storage_.push_back(std::move(arena));
  }
  const auto cluster_map = scenario_cluster_map(params_);
  // Global id order, each membership bootstrap before its node seed: the
  // master-RNG consumption build_scenario_node makes, so arena and heap
  // builds are trace-identical (the parity contract with
  // WallclockScenario).
  for (std::size_t i = 0; i < params_.n; ++i) {
    const auto id = static_cast<NodeId>(i);
    auto view = build_scenario_membership(params_, id, master_rng, cluster_map);
    if constexpr (std::is_same_v<Node, adaptive::AdaptiveLpbcastNode>) {
      Node* node = arenas[shard_of(id)]->emplace(
          id, params_.gossip, params_.adaptation, std::move(view),
          master_rng.split());
      adaptive_nodes_.push_back(node);
      nodes_.push_back(node);
    } else {
      nodes_.push_back(arenas[shard_of(id)]->emplace(
          id, params_.gossip, std::move(view), master_rng.split()));
    }
  }
}

void ScenarioGroup::build(Rng& master_rng) {
  nodes_.reserve(params_.n);
  if (params_.adaptive) {
    adaptive_nodes_.reserve(params_.n);
    build_arenas<adaptive::AdaptiveLpbcastNode>(master_rng);
  } else {
    build_arenas<gossip::LpbcastNode>(master_rng);
  }
  for (gossip::LpbcastNode* node : nodes_) {
    const NodeId id = node->id();
    members_[shard_of(id)].push_back(node);
    node->set_deliver_handler([this, id](const gossip::Event& e, TimeMs now) {
      if (e.id.origin == id) return;  // origin accounted at broadcast time
      engine_.record(shard_of(id),
                     TrackerOp{now, TrackerOp::Kind::kDelivery, e.id, id});
    });
    node->set_drop_handler([this, id](const gossip::Event& e,
                                      gossip::DropReason reason, TimeMs now) {
      if (reason != gossip::DropReason::kBufferOverflow) return;
      engine_.record(shard_of(id),
                     TrackerOp{now, TrackerOp::Kind::kDropAge, EventId{}, id,
                               static_cast<double>(e.age)});
    });
  }
}

void ScenarioGroup::start(Rng& master_rng) {
  // Unsynchronised rounds: each node starts at a random phase, like
  // independently started processes on the paper's 60 workstations. The
  // phase draw is one master-RNG call per node in id order — the same
  // consumption the per-node-PeriodicTimer implementation made, which is
  // what keeps old seeds producing identical traces. Nodes sharing a
  // (shard, phase) are then swept by one repeating wheel event in id order
  // (the order their individual timers fired in), so a queue holds one live
  // round event per distinct phase instead of one per node.
  std::vector<std::unordered_map<TimeMs, std::size_t>> bucket_index(
      buckets_.size());
  for (gossip::LpbcastNode* node : nodes_) {
    const auto phase = static_cast<TimeMs>(master_rng.next_below(
        static_cast<std::uint64_t>(params_.gossip.gossip_period)));
    const std::size_t s = shard_of(node->id());
    const auto [it, inserted] =
        bucket_index[s].try_emplace(phase, buckets_[s].size());
    if (inserted) buckets_[s].push_back(RoundBucket{phase, {}});
    buckets_[s][it->second].nodes.push_back(node);
  }
  for (std::size_t s = 0; s < buckets_.size(); ++s) {
    for (std::size_t i = 0; i < buckets_[s].size(); ++i) {
      engine_.clock(s).at(buckets_[s][i].phase, [this, s, i] { tick(s, i); });
    }
  }

  const auto sender_ids = scenario_sender_ids(params_.n, params_.senders);
  const double per_sender =
      params_.offered_rate / static_cast<double>(sender_ids.size());
  for (NodeId id : sender_ids) {
    senders_.push_back(std::make_unique<SenderQueue>(
        params_, id, per_sender, master_rng.split(),
        [this, id](gossip::Payload payload, std::uint32_t stream,
                   bool supersedes) {
          return admit(id, std::move(payload), stream, supersedes);
        }));
    senders_.back()->start(engine_.clock(shard_of(id)));
  }
}

std::optional<EventId> ScenarioGroup::admit(NodeId id, gossip::Payload payload,
                                            std::uint32_t stream,
                                            bool supersedes) {
  const std::size_t shard = shard_of(id);
  const TimeMs now = engine_.clock(shard).now();
  EventId event;
  if (adaptive_nodes_.empty()) {
    event = nodes_[id]->broadcast_on_stream(std::move(payload), now, stream,
                                            supersedes);
  } else if (!adaptive_nodes_[id]->try_broadcast_on_stream(
                 std::move(payload), now, stream, supersedes, &event)) {
    return std::nullopt;
  }
  engine_.record(shard, {now, TrackerOp::Kind::kBroadcast, event, id});
  // The origin's local delivery.
  engine_.record(shard, {now, TrackerOp::Kind::kDelivery, event, id});
  return event;
}

void ScenarioGroup::tick(std::size_t shard, std::size_t bucket) {
  sim::Simulator& clock = engine_.clock(shard);
  const TimeMs now = clock.now();  // the shard's clock, never a global one
  // Re-arm before sweeping, mirroring PeriodicTimer::arm: the next round
  // event is sequenced ahead of anything this sweep schedules.
  clock.at(now + params_.gossip.gossip_period,
           [this, shard, bucket] { tick(shard, bucket); });
  for (gossip::LpbcastNode* node : buckets_[shard][bucket].nodes) {
    gossip::LpbcastNode::Outgoing out = node->on_round(now);
    if (!out.targets.empty()) {
      // One Multicast per gossip round: encode once, every target aliasing
      // the same SharedBytes buffer.
      engine_.send(shard, std::move(out).to_multicast(node->id()));
    }
    drain_outbox(shard, *node);
  }
}

void ScenarioGroup::drain_outbox(std::size_t shard,
                                 gossip::LpbcastNode& node) {
  for (auto& control : node.take_outbox()) {
    engine_.send(shard, Multicast{node.id(),
                                  {control.target},
                                  std::move(control.payload)});
  }
}

void AdaptationSample::add(adaptive::AdaptiveLpbcastNode& node) {
  if (!senders_.empty() && senders_.front()->id() == node.id()) {
    allowed_ += node.allowed_rate();
    senders_ = senders_.subspan(1);
  }
  ++nodes_;
  min_buff_sum_ += static_cast<double>(node.min_buff());
  if (!control_) return;
  if (const double p = node.p_local(); p >= 0.0) {
    p_local_sum_ += p;
    ++locality_nodes_;
  }
  fanout_sum_ += static_cast<double>(node.effective_fanout());
}

void AdaptationSample::record(TimeMs now, ScenarioResults& results) const {
  if (nodes_ == 0) return;
  const auto count = static_cast<double>(nodes_);
  results.allowed_rate_ts.add(now, allowed_);
  results.min_buff_ts.add(now, min_buff_sum_ / count);
  if (!control_) return;
  if (locality_nodes_ > 0) {
    results.p_local_ts.add(
        now, p_local_sum_ / static_cast<double>(locality_nodes_));
  }
  results.fanout_ts.add(now, fanout_sum_ / count);
}

void ScenarioGroup::sample(TimeMs now) {
  AdaptationSample sample(senders_, params_.adaptation.control.enabled);
  for (auto* node : adaptive_nodes_) sample.add(*node);
  sample.record(now, results_);
}

void ScenarioGroup::schedule() {
  // Every shard sees every change on its own clock and applies it to its
  // own members; the owner shard of a failing node flips its liveness.
  for (const CapacityChange& change : params_.capacity_schedule) {
    for (std::size_t s = 0; s < members_.size(); ++s) {
      engine_.clock(s).at(change.at,
                          [this, s, change] { apply_capacity(s, change); });
    }
  }
  for (const FailureEvent& event : params_.failure_schedule) {
    for (std::size_t s = 0; s < members_.size(); ++s) {
      engine_.clock(s).at(event.at,
                          [this, s, event] { apply_failure(s, event); });
    }
  }
}

void ScenarioGroup::apply_capacity(std::size_t shard,
                                   const CapacityChange& change) {
  const std::size_t targets = capacity_targets(change, params_.n);
  const TimeMs now = engine_.clock(shard).now();
  for (gossip::LpbcastNode* node : members_[shard]) {
    if (static_cast<std::size_t>(node->id()) >= targets) break;
    node->set_max_events(change.new_capacity, now);
  }
}

void ScenarioGroup::apply_failure(std::size_t shard,
                                  const FailureEvent& event) {
  if (shard_of(event.node) == shard) {
    engine_.set_node_up(event.node, event.up);
    // The recovering process's own restart logic (not an oracle: it
    // touches only the node itself).
    if (event.up && event.node < nodes_.size()) {
      if (auto* gm = nodes_[event.node]->gossip_membership()) {
        gm->rejoin(params_.migrate_on_rejoin);
      }
    }
  }
  if (!params_.failure_detector) return;
  for (gossip::LpbcastNode* node : members_[shard]) {
    apply_oracle_view(*node, event);
  }
}

void ScenarioGroup::apply(const TrackerOp& op) {
  switch (op.kind) {
    case TrackerOp::Kind::kBroadcast:
      tracker_.on_broadcast(op.event, op.node, op.at);
      break;
    case TrackerOp::Kind::kDelivery:
      tracker_.on_delivery(op.event, op.node, op.at);
      break;
    case TrackerOp::Kind::kDropAge:
      if (op.at >= params_.warmup &&
          op.at < params_.warmup + params_.duration) {
        drop_age_.add(op.value);
      }
      break;
  }
}

ScenarioResults ScenarioGroup::finish() {
  ScenarioResults results = std::move(results_);
  summarize_run(params_, tracker_, nodes_, senders_, results);
  results.avg_drop_age = drop_age_.mean();
  return results;
}

Scenario::Scenario(ScenarioParams params)
    : params_(std::move(params)),
      master_rng_(params_.seed),
      net_(std::make_unique<sim::SimNetwork>(sim_, params_.network,
                                             master_rng_.split())),
      group_(params_, 1, *this) {
  if (!params_.chaos.empty()) {
    fault_plane_ = std::make_unique<fault::FaultPlane>(
        params_.chaos, fault::chaos_seed(params_.seed));
    net_->set_fault_plane(fault_plane_.get());
  }
}

Scenario::~Scenario() = default;

ScenarioResults Scenario::run() {
  if (ran_) return {};
  ran_ = true;

  group_.build(master_rng_);
  for (gossip::LpbcastNode* node : group_.nodes()) {
    net_->attach(node->id(), [this, node](const Datagram& d, TimeMs now) {
      if (!node->on_wire(decoder_.decode(d.payload), now)) {
        ++decode_failures_;
        return;
      }
      group_.drain_outbox(0, *node);
    });
  }
  for (const auto& link : params_.link_latencies) {
    net_->set_link_latency(link.a, link.b, link.model);
  }
  group_.start(master_rng_);
  sampler_ = std::make_unique<sim::PeriodicTimer>(
      sim_, params_.series_bucket, params_.series_bucket,
      [this](TimeMs now) { group_.sample(now); });
  group_.schedule();

  sim_.run_until(params_.warmup + params_.duration + params_.cooldown);

  ScenarioResults results = group_.finish();
  results.decode_failures = decode_failures_;
  results.net = net_->stats();
  results.peak_event_queue_len = sim_.peak_pending_events();
  if (fault_plane_ != nullptr) results.chaos = fault_plane_->stats();
  return results;
}

void summarize_run(const ScenarioParams& params,
                   const metrics::DeliveryTracker& tracker,
                   std::span<gossip::LpbcastNode* const> nodes,
                   std::span<const std::unique_ptr<SenderQueue>> senders,
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
    results.obsolete_drops += counters.drops_obsolete;
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

  std::vector<std::size_t> depths;
  for (const auto& sender : senders) {
    results.refused_broadcasts += sender->refused();
    results.max_pending_depth =
        std::max(results.max_pending_depth, sender->max_depth());
    depths.insert(depths.end(), sender->depth_samples().begin(),
                  sender->depth_samples().end());
  }
  if (!depths.empty()) {
    std::sort(depths.begin(), depths.end());
    const auto pct = [&depths](double q) {
      return depths[static_cast<std::size_t>(
          q * static_cast<double>(depths.size() - 1))];
    };
    results.pending_depth_p50 = pct(0.50);
    results.pending_depth_p90 = pct(0.90);
    results.pending_depth_p99 = pct(0.99);
  }
}

}  // namespace agb::core
