#include "core/sharded_scenario.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <unordered_map>
#include <utility>

#include "gossip/message.h"

namespace agb::core {

namespace {

// One shared-accumulator operation, logged by the shard that observed it
// during window execution and replayed into the shared DeliveryTracker /
// drop-age stats in the serial barrier phase. The replay order — (time,
// kind, event, node, value) — is total over distinct operations and
// independent of shard layout, which is what makes order-sensitive
// accumulations (atomicity timestamps, Welford drop-age) exactly
// reproducible at any shard/worker count. Broadcasts sort ahead of
// same-time deliveries so an origin's local delivery never races its own
// record creation.
struct TrackerOp {
  enum class Kind : std::uint8_t {
    kBroadcast = 0,
    kDelivery = 1,
    kDropAge = 2,
  };
  TimeMs at = 0;
  Kind kind = Kind::kBroadcast;
  EventId event;
  NodeId node = 0;
  double value = 0.0;  // drop age for kDropAge
};

bool tracker_op_before(const TrackerOp& a, const TrackerOp& b) {
  if (a.at != b.at) return a.at < b.at;
  if (a.kind != b.kind) return a.kind < b.kind;
  if (a.event.origin != b.event.origin) return a.event.origin < b.event.origin;
  if (a.event.sequence != b.event.sequence) {
    return a.event.sequence < b.event.sequence;
  }
  if (a.node != b.node) return a.node < b.node;
  return a.value < b.value;
}

// Per-node seed derivations: fixed functions of (scenario seed, node id),
// never master-RNG splits. Network randomness must not depend on which
// nodes share a shard (draw order from a shared Rng would), and must not
// shift the protocol's own master stream (the node-build draws stay at the
// exact positions core::Scenario uses).
std::uint64_t node_net_seed(std::uint64_t scenario_seed, NodeId id) {
  std::uint64_t state = scenario_seed ^ 0x6e65742d73656564ull;  // "net-seed"
  state += (static_cast<std::uint64_t>(id) + 1) * 0x9e3779b97f4a7c15ull;
  (void)splitmix64(state);
  return splitmix64(state);
}

std::uint64_t node_chaos_seed(std::uint64_t scenario_seed, NodeId id) {
  std::uint64_t state = fault::chaos_seed(scenario_seed);
  state += (static_cast<std::uint64_t>(id) + 1) * 0x9e3779b97f4a7c15ull;
  (void)splitmix64(state);
  return splitmix64(state);
}

// Lower bound (ms) on what the model can sample; may be negative for
// normal (the sampler clamps at 0).
double model_min_ms(const sim::LatencyModel& m) {
  switch (m.kind) {
    case sim::LatencyModel::Kind::kFixed:
    case sim::LatencyModel::Kind::kUniform:
      return m.a;
    case sim::LatencyModel::Kind::kNormal:
      return 0.0;
  }
  return 0.0;
}

// The conservative window length L: a lower bound on network delay, so no
// datagram emitted inside a window can be due before the window closes.
// Every sampled delay is additionally clamped to >= L, so the engine stays
// safe even when the user raises lookahead_ms above the model minimum (the
// knob then coarsens the delay floor — documented in ScenarioParams).
DurationMs derive_lookahead(const ScenarioParams& params) {
  if (params.lookahead_ms > 0) return params.lookahead_ms;
  double min_ms = model_min_ms(params.network.latency);
  if (params.network.clusters > 1) {
    min_ms = std::min(min_ms, model_min_ms(params.network.wan_latency));
  }
  for (const auto& link : params.link_latencies) {
    min_ms = std::min(min_ms, model_min_ms(link.model));
  }
  return std::max<DurationMs>(1, static_cast<DurationMs>(std::floor(min_ms)));
}

}  // namespace

struct ShardedScenario::Impl {
  struct SenderState {
    NodeId id = kInvalidNode;
    std::size_t shard = 0;
    gossip::LpbcastNode* node = nullptr;                // non-owning
    adaptive::AdaptiveLpbcastNode* adaptive = nullptr;  // null for baseline
    double rate = 0.0;                                  // offered msg/s
    Rng rng{0};
    std::deque<gossip::Payload> pending;
    std::unique_ptr<sim::PeriodicTimer> retry_timer;
  };

  struct RoundBucket {
    TimeMs phase = 0;
    std::vector<gossip::LpbcastNode*> nodes;
  };

  /// Everything a shard's worker thread touches during window execution:
  /// its arena slice, round wheel, senders, stats and the operation log
  /// drained in the serial phase. Nothing here is read or written by any
  /// other worker mid-window.
  struct Shard {
    std::unique_ptr<NodeArenaBase> storage;
    std::vector<gossip::LpbcastNode*> members;  // owned ids, ascending
    std::vector<RoundBucket> buckets;
    std::vector<std::unique_ptr<SenderState>> senders;
    sim::NetworkStats stats;
    std::vector<TrackerOp> log;
    std::uint64_t refused = 0;
    std::uint64_t decode_failures = 0;
    std::size_t max_pending_depth = 0;
  };

  explicit Impl(ScenarioParams params)
      : params_(std::move(params)),
        master_rng_(params_.seed),
        sampler_(params_.network.latency, params_.network.clusters,
                 params_.network.wan_latency),
        lookahead_(derive_lookahead(params_)),
        engine_(sim::ShardedEngineParams{params_.sim_shards,
                                         params_.sim_workers, lookahead_}),
        tracker_(params_.n),
        next_sample_(params_.series_bucket) {
    // The classic ctor hands one master split to SimNetwork; burn the same
    // split so every subsequent draw — membership bootstraps, node seeds,
    // round phases, sender streams — sits at the exact master-RNG position
    // core::Scenario reads it from. Network randomness here is per sender
    // node instead (node_net_seed), so shard layout can't perturb it.
    (void)master_rng_.split();

    net_rng_.reserve(params_.n);
    for (std::size_t i = 0; i < params_.n; ++i) {
      net_rng_.emplace_back(node_net_seed(params_.seed, static_cast<NodeId>(i)));
    }
    burst_bad_ = std::make_unique<bool[]>(params_.n);
    send_seq_.assign(params_.n, 0);
    down_.assign(params_.n, 0);
    if (!params_.chaos.empty()) {
      fault_planes_.reserve(params_.n);
      for (std::size_t i = 0; i < params_.n; ++i) {
        fault_planes_.push_back(std::make_unique<fault::FaultPlane>(
            params_.chaos,
            node_chaos_seed(params_.seed, static_cast<NodeId>(i))));
      }
    }
  }

  [[nodiscard]] bool in_eval_window(TimeMs t) const {
    return t >= params_.warmup && t < params_.warmup + params_.duration;
  }

  void build_nodes() {
    const std::size_t shard_count = engine_.shards();
    shards_.resize(shard_count);
    per_shard_scratch_.resize(shard_count);
    std::vector<std::size_t> population(shard_count, 0);
    for (std::size_t i = 0; i < params_.n; ++i) {
      ++population[engine_.shard_of(static_cast<NodeId>(i))];
    }

    nodes_.reserve(params_.n);
    const auto cluster_map = scenario_cluster_map(params_);
    // Build in global id order — the master-RNG consumption contract shared
    // with core::Scenario — emplacing each node into its owner shard's
    // arena slice.
    if (params_.adaptive) {
      std::vector<NodeArena<adaptive::AdaptiveLpbcastNode>*> arenas(
          shard_count);
      for (std::size_t s = 0; s < shard_count; ++s) {
        auto arena = std::make_unique<NodeArena<adaptive::AdaptiveLpbcastNode>>(
            std::max<std::size_t>(1, population[s]));
        arenas[s] = arena.get();
        shards_[s].storage = std::move(arena);
      }
      adaptive_nodes_.reserve(params_.n);
      for (std::size_t i = 0; i < params_.n; ++i) {
        const auto id = static_cast<NodeId>(i);
        auto view =
            build_scenario_membership(params_, id, master_rng_, cluster_map);
        auto* node = arenas[engine_.shard_of(id)]->emplace(
            id, params_.gossip, params_.adaptation, std::move(view),
            master_rng_.split());
        adaptive_nodes_.push_back(node);
        nodes_.push_back(node);
      }
    } else {
      std::vector<NodeArena<gossip::LpbcastNode>*> arenas(shard_count);
      for (std::size_t s = 0; s < shard_count; ++s) {
        auto arena = std::make_unique<NodeArena<gossip::LpbcastNode>>(
            std::max<std::size_t>(1, population[s]));
        arenas[s] = arena.get();
        shards_[s].storage = std::move(arena);
      }
      for (std::size_t i = 0; i < params_.n; ++i) {
        const auto id = static_cast<NodeId>(i);
        auto view =
            build_scenario_membership(params_, id, master_rng_, cluster_map);
        nodes_.push_back(arenas[engine_.shard_of(id)]->emplace(
            id, params_.gossip, std::move(view), master_rng_.split()));
      }
    }

    for (gossip::LpbcastNode* node : nodes_) {
      const NodeId id = node->id();
      const std::size_t s = engine_.shard_of(id);
      shards_[s].members.push_back(node);
      // Handlers log into the owner shard's operation stream; the shared
      // tracker is only touched at barriers (merge_logs).
      node->set_deliver_handler([this, id, s](const gossip::Event& e,
                                              TimeMs now) {
        if (e.id.origin == id) return;  // origin accounted at broadcast time
        shards_[s].log.push_back(
            TrackerOp{now, TrackerOp::Kind::kDelivery, e.id, id, 0.0});
      });
      node->set_drop_handler([this, id, s](const gossip::Event& e,
                                           gossip::DropReason reason,
                                           TimeMs now) {
        if (reason != gossip::DropReason::kBufferOverflow) return;
        shards_[s].log.push_back(TrackerOp{now, TrackerOp::Kind::kDropAge,
                                           EventId{}, id,
                                           static_cast<double>(e.age)});
      });
    }
  }

  void apply_topology() {
    for (const auto& link : params_.link_latencies) {
      sampler_.set_link_override(link.a, link.b, link.model);
    }
  }

  /// The sharded twin of SimNetwork::send_batch: same stats, same drop
  /// precedence (down > loss > chaos), but every surviving datagram goes
  /// into the window-barrier channels instead of the local event queue, and
  /// the receiver-down check moves to delivery time on the owner shard (a
  /// sender cannot read remote liveness mid-window).
  void send_multicast(std::size_t s, Multicast batch) {
    sim::NetworkStats& stats = shards_[s].stats;
    ++stats.batches;
    stats.sent += batch.targets.size();
    const TimeMs now = engine_.shard(s).now();
    const NodeId from = batch.from;
    const bool sender_down = down_[from] != 0;
    for (NodeId to : batch.targets) {
      const bool cross_cluster = sampler_.cross_cluster(from, to);
      ++(cross_cluster ? stats.sent_cross_cluster : stats.sent_intra_cluster);
      if (sender_down) {
        ++stats.dropped_down;
        continue;
      }
      // One Gilbert-Elliott chain per *sender*, advanced per packet —
      // shard-count invariant where the classic engine's single shared
      // chain is not. Burstiness still correlates consecutive packets of a
      // sender's fan-out, which is the loss pattern gossip fears.
      if (params_.network.loss.drop(net_rng_[from], burst_bad_[from])) {
        ++stats.dropped_loss;
        continue;
      }
      fault::FaultAction action;
      if (!fault_planes_.empty()) {
        // Per-node plane, sampled at event time on the sender's shard
        // clock: a window rule answers from `now` alone, so the verdict is
        // identical no matter which shard fires it.
        action = fault_planes_[from]->sample(from, to, now);
      }
      if (action.drop) {
        ++stats.dropped_chaos;
        continue;
      }
      DurationMs delay = sampler_.sample(from, to, net_rng_[from]);
      delay = std::max(delay, lookahead_);  // conservative horizon floor
      if (action.special()) {
        SharedBytes payload =
            (action.corrupt || action.truncate)
                ? fault_planes_[from]->mutate(batch.payload, action)
                : batch.payload;
        for (int copy = 0; copy <= action.duplicates; ++copy) {
          engine_.push(s, sim::CrossShardDatagram{
                              now + delay + action.extra_delay, from, to,
                              send_seq_[from]++, payload});
        }
        continue;
      }
      engine_.push(s, sim::CrossShardDatagram{now + delay, from, to,
                                              send_seq_[from]++,
                                              batch.payload});
    }
  }

  void emit(std::size_t s, gossip::LpbcastNode& node,
            gossip::LpbcastNode::Outgoing out) {
    if (!out.targets.empty()) {
      send_multicast(s, std::move(out).to_multicast(node.id()));
    }
    drain_outbox(s, node);
  }

  void drain_outbox(std::size_t s, gossip::LpbcastNode& node) {
    for (auto& control : node.take_outbox()) {
      send_multicast(s, Multicast{node.id(),
                                  {control.target},
                                  std::move(control.payload)});
    }
  }

  void start_round_timers() {
    // Same phase draw as the classic engine: one master-RNG call per node
    // in global id order. Nodes sharing (shard, phase) ride one wheel
    // event on the shard's own clock.
    std::vector<std::unordered_map<TimeMs, std::size_t>> bucket_index(
        shards_.size());
    for (gossip::LpbcastNode* node : nodes_) {
      const auto phase = static_cast<TimeMs>(master_rng_.next_below(
          static_cast<std::uint64_t>(params_.gossip.gossip_period)));
      const std::size_t s = engine_.shard_of(node->id());
      const auto [it, inserted] =
          bucket_index[s].try_emplace(phase, shards_[s].buckets.size());
      if (inserted) shards_[s].buckets.push_back(RoundBucket{phase, {}});
      shards_[s].buckets[it->second].nodes.push_back(node);
    }
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      for (std::size_t i = 0; i < shards_[s].buckets.size(); ++i) {
        engine_.shard(s).at(shards_[s].buckets[i].phase,
                            [this, s, i] { tick_round_bucket(s, i); });
      }
    }
  }

  void tick_round_bucket(std::size_t s, std::size_t index) {
    sim::Simulator& sim = engine_.shard(s);
    const TimeMs now = sim.now();  // the shard clock, never a global one
    sim.at(now + params_.gossip.gossip_period,
           [this, s, index] { tick_round_bucket(s, index); });
    for (gossip::LpbcastNode* node : shards_[s].buckets[index].nodes) {
      emit(s, *node, node->on_round(now));
    }
  }

  void sender_arrival(SenderState& sender) {
    Shard& shard = shards_[sender.shard];
    auto payload = gossip::make_payload(
        std::vector<std::uint8_t>(params_.payload_size, 0xab));
    if (sender.pending.size() >= params_.pending_cap) {
      ++shard.refused;
    } else {
      sender.pending.push_back(std::move(payload));
      shard.max_pending_depth =
          std::max(shard.max_pending_depth, sender.pending.size());
    }
    drain_sender(sender);

    const double mean_ms = 1000.0 / sender.rate;
    const auto gap = static_cast<DurationMs>(std::max(
        1.0, params_.poisson_arrivals ? sender.rng.exponential(mean_ms)
                                      : mean_ms));
    engine_.shard(sender.shard).after(
        gap, [this, &sender] { sender_arrival(sender); });
  }

  void drain_sender(SenderState& sender) {
    const TimeMs now = engine_.shard(sender.shard).now();
    std::vector<TrackerOp>& log = shards_[sender.shard].log;
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
                                              /*stream=*/sender.id,
                                              supersedes);
      }
      sender.pending.pop_front();
      log.push_back(
          TrackerOp{now, TrackerOp::Kind::kBroadcast, id, sender.id, 0.0});
      log.push_back(
          TrackerOp{now, TrackerOp::Kind::kDelivery, id, sender.id, 0.0});
    }
  }

  void start_senders() {
    const auto sender_ids = scenario_sender_ids(params_.n, params_.senders);
    const double per_sender =
        params_.offered_rate / static_cast<double>(sender_ids.size());
    for (NodeId id : sender_ids) {
      const std::size_t s = engine_.shard_of(id);
      auto sender = std::make_unique<SenderState>();
      sender->id = id;
      sender->shard = s;
      sender->node = nodes_[id];
      sender->adaptive = params_.adaptive ? adaptive_nodes_[id] : nullptr;
      sender->rate = per_sender;
      sender->rng = master_rng_.split();

      sender->retry_timer = std::make_unique<sim::PeriodicTimer>(
          engine_.shard(s), 100, 100, [this, raw = sender.get()](TimeMs) {
            if (!raw->pending.empty()) drain_sender(*raw);
          });

      const auto first = static_cast<DurationMs>(
          sender->rng.exponential(1000.0 / sender->rate));
      engine_.shard(s).after(std::max<DurationMs>(first, 1),
                             [this, raw = sender.get()] {
                               sender_arrival(*raw);
                             });
      all_senders_.push_back(sender.get());
      shards_[s].senders.push_back(std::move(sender));
    }
  }

  void apply_capacity_schedule() {
    for (const CapacityChange& change : params_.capacity_schedule) {
      for (std::size_t s = 0; s < shards_.size(); ++s) {
        engine_.shard(s).at(change.at, [this, change, s] {
          const auto affected = std::min(
              static_cast<std::size_t>(change.node_fraction *
                                       static_cast<double>(params_.n)),
              params_.n);
          for (gossip::LpbcastNode* node : shards_[s].members) {
            const NodeId id = node->id();
            if (static_cast<std::size_t>(id) >= affected) continue;
            if (params_.adaptive) {
              adaptive_nodes_[id]->set_capacity(change.new_capacity,
                                                engine_.shard(s).now());
            } else {
              node->set_max_events(change.new_capacity,
                                   engine_.shard(s).now());
            }
          }
        });
      }
    }
  }

  void apply_failure_schedule() {
    // Every shard sees every failure event on its own clock: the owner
    // shard flips liveness and runs the restart logic, and (under the
    // oracle detector) each shard updates its local members' views.
    for (const FailureEvent& event : params_.failure_schedule) {
      for (std::size_t s = 0; s < shards_.size(); ++s) {
        engine_.shard(s).at(event.at, [this, event, s] {
          apply_failure_local(s, event);
        });
      }
    }
  }

  void apply_failure_local(std::size_t s, const FailureEvent& event) {
    if (engine_.shard_of(event.node) == s &&
        static_cast<std::size_t>(event.node) < nodes_.size()) {
      down_[event.node] = event.up ? 0 : 1;
      if (event.up) {
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
    }
    if (!params_.failure_detector) return;
    for (gossip::LpbcastNode* node : shards_[s].members) {
      if (node->id() == event.node) continue;
      if (event.up) {
        node->membership().add(event.node);
      } else {
        node->membership().remove(event.node);
      }
    }
  }

  /// Serial barrier phase: replay per-shard logs canonically, turn the
  /// canonically sorted datagram batch into one application event per
  /// (destination shard, deliver-time) run, and fire the series sampler on
  /// bucket boundaries the window clamp landed us on.
  void on_barrier(TimeMs window_end,
                  std::vector<sim::CrossShardDatagram>& batch) {
    merge_logs();
    schedule_applies(batch);
    run_sampler(window_end);
  }

  void merge_logs() {
    merge_scratch_.clear();
    for (Shard& shard : shards_) {
      merge_scratch_.insert(merge_scratch_.end(), shard.log.begin(),
                            shard.log.end());
      shard.log.clear();
    }
    std::sort(merge_scratch_.begin(), merge_scratch_.end(),
              tracker_op_before);
    for (const TrackerOp& op : merge_scratch_) {
      switch (op.kind) {
        case TrackerOp::Kind::kBroadcast:
          tracker_.on_broadcast(op.event, op.node, op.at);
          break;
        case TrackerOp::Kind::kDelivery:
          tracker_.on_delivery(op.event, op.node, op.at);
          break;
        case TrackerOp::Kind::kDropAge:
          if (in_eval_window(op.at)) eval_drop_age_.add(op.value);
          break;
      }
    }
  }

  void schedule_applies(std::vector<sim::CrossShardDatagram>& batch) {
    // The batch is canonically sorted; splitting by destination shard
    // preserves that order, so each shard's runs of equal deliver-time are
    // contiguous — one simulator event (and one decode per distinct
    // payload) per run, instead of one event per datagram.
    for (sim::CrossShardDatagram& d : batch) {
      per_shard_scratch_[engine_.shard_of(d.to)].push_back(std::move(d));
    }
    for (std::size_t s = 0; s < per_shard_scratch_.size(); ++s) {
      auto& pending = per_shard_scratch_[s];
      std::size_t i = 0;
      while (i < pending.size()) {
        std::size_t j = i + 1;
        while (j < pending.size() && pending[j].at == pending[i].at) ++j;
        std::vector<sim::CrossShardDatagram> group(
            std::make_move_iterator(pending.begin() +
                                    static_cast<std::ptrdiff_t>(i)),
            std::make_move_iterator(pending.begin() +
                                    static_cast<std::ptrdiff_t>(j)));
        ++shards_[s].stats.events_scheduled;
        const TimeMs at = group.front().at;
        engine_.shard(s).at(at, [this, s, entries = std::move(group)]() mutable {
          apply_group(s, entries);
        });
        i = j;
      }
      pending.clear();
    }
  }

  void apply_group(std::size_t s,
                   std::vector<sim::CrossShardDatagram>& entries) {
    Shard& shard = shards_[s];
    const TimeMs now = engine_.shard(s).now();
    // Entries sharing a payload buffer (one fan-out's targets) are adjacent
    // in canonical order, so the memo decodes each fan-out once.
    gossip::WireDecoder decoder;
    for (const sim::CrossShardDatagram& d : entries) {
      // Mirror the classic delivery-time checks, in the classic order:
      // liveness, then attachment. Ids outside the group are real traffic —
      // a chaos-corrupted message can decode into garbage member ids that
      // nodes then gossip to — and land in dropped_detached exactly as the
      // classic SimNetwork's handler lookup makes them.
      if (static_cast<std::size_t>(d.to) >= nodes_.size()) {
        ++shard.stats.dropped_detached;
        continue;
      }
      if (down_[d.to] != 0) {
        ++shard.stats.dropped_down;
        continue;
      }
      ++shard.stats.delivered;
      shard.stats.bytes_delivered += d.payload.size();
      gossip::LpbcastNode* node = nodes_[d.to];
      if (!node->on_wire(decoder.decode(d.payload), now)) {
        ++shard.decode_failures;
        continue;
      }
      drain_outbox(s, *node);
    }
  }

  void run_sampler(TimeMs window_end) {
    if (params_.series_bucket <= 0) return;
    while (next_sample_ < window_end) {
      sample_at(next_sample_);
      next_sample_ += params_.series_bucket;
    }
  }

  void sample_at(TimeMs now) {
    if (adaptive_nodes_.empty()) return;
    double allowed = 0.0;
    for (const SenderState* sender : all_senders_) {
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
        p_local_ts_.add(now,
                        p_local_sum / static_cast<double>(locality_nodes));
      }
      fanout_ts_.add(
          now, fanout_sum / static_cast<double>(adaptive_nodes_.size()));
    }
  }

  ScenarioResults run() {
    if (ran_) return {};
    ran_ = true;

    build_nodes();
    apply_topology();
    start_round_timers();
    start_senders();
    apply_capacity_schedule();
    apply_failure_schedule();

    engine_.set_boundary([this](TimeMs) { return next_sample_; });
    engine_.set_barrier_hook(
        [this](TimeMs window_end, std::vector<sim::CrossShardDatagram>& batch) {
          on_barrier(window_end, batch);
        });

    engine_.run_until(params_.warmup + params_.duration + params_.cooldown);

    ScenarioResults results;
    results.allowed_rate_ts = std::move(allowed_rate_ts_);
    results.min_buff_ts = std::move(min_buff_ts_);
    results.p_local_ts = std::move(p_local_ts_);
    results.fanout_ts = std::move(fanout_ts_);
    summarize_run(params_, tracker_, nodes_, results);
    results.avg_drop_age = eval_drop_age_.mean();
    results.peak_event_queue_len = engine_.peak_pending_events();
    sim::NetworkStats& net = results.net;
    for (const Shard& shard : shards_) {
      results.refused_broadcasts += shard.refused;
      results.decode_failures += shard.decode_failures;
      results.max_pending_depth =
          std::max(results.max_pending_depth, shard.max_pending_depth);
      const sim::NetworkStats& st = shard.stats;
      net.sent += st.sent;
      net.sent_intra_cluster += st.sent_intra_cluster;
      net.sent_cross_cluster += st.sent_cross_cluster;
      net.batches += st.batches;
      net.events_scheduled += st.events_scheduled;
      net.delivered += st.delivered;
      net.dropped_loss += st.dropped_loss;
      net.dropped_partition += st.dropped_partition;
      net.dropped_down += st.dropped_down;
      net.dropped_detached += st.dropped_detached;
      net.dropped_chaos += st.dropped_chaos;
      net.bytes_delivered += st.bytes_delivered;
    }
    for (const auto& plane : fault_planes_) {
      const fault::FaultStats st = plane->stats();
      results.chaos.corrupted += st.corrupted;
      results.chaos.truncated += st.truncated;
      results.chaos.duplicated += st.duplicated;
      results.chaos.reordered += st.reordered;
      results.chaos.dropped_oneway += st.dropped_oneway;
      results.chaos.stalls += st.stalls;
      results.chaos.skew_reads += st.skew_reads;
    }
    return results;
  }

  ScenarioParams params_;
  Rng master_rng_;
  sim::DelaySampler sampler_;
  DurationMs lookahead_ = 1;
  sim::ShardedEngine engine_;
  metrics::DeliveryTracker tracker_;
  TimeMs next_sample_ = 0;

  std::vector<Shard> shards_;
  std::vector<gossip::LpbcastNode*> nodes_;  // id order, arena-owned
  std::vector<adaptive::AdaptiveLpbcastNode*> adaptive_nodes_;  // or empty
  std::vector<SenderState*> all_senders_;  // sender-id order, shard-owned

  // Per-node network state, confined to the owner (sender) shard.
  std::vector<Rng> net_rng_;
  std::unique_ptr<bool[]> burst_bad_;
  std::vector<std::uint64_t> send_seq_;
  std::vector<std::uint8_t> down_;
  std::vector<std::unique_ptr<fault::FaultPlane>> fault_planes_;

  // Serial-phase state (barrier hook and result assembly only).
  RunningStats eval_drop_age_;
  std::vector<TrackerOp> merge_scratch_;
  std::vector<std::vector<sim::CrossShardDatagram>> per_shard_scratch_;
  metrics::TimeSeries allowed_rate_ts_{"allowed_rate"};
  metrics::TimeSeries min_buff_ts_{"min_buff"};
  metrics::TimeSeries p_local_ts_{"p_local"};
  metrics::TimeSeries fanout_ts_{"fanout"};
  bool ran_ = false;
};

ShardedScenario::ShardedScenario(ScenarioParams params)
    : impl_(std::make_unique<Impl>(std::move(params))) {}

ShardedScenario::~ShardedScenario() = default;

ScenarioResults ShardedScenario::run() { return impl_->run(); }

const metrics::DeliveryTracker& ShardedScenario::tracker() const noexcept {
  return impl_->tracker_;
}

std::size_t ShardedScenario::shards() const noexcept {
  return impl_->engine_.shards();
}

std::size_t ShardedScenario::workers() const noexcept {
  return impl_->engine_.workers();
}

std::uint64_t ShardedScenario::windows() const noexcept {
  return impl_->engine_.windows_run();
}

}  // namespace agb::core
