#include "core/sharded_scenario.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "gossip/message.h"

namespace agb::core {

namespace {

// The replay order of the per-shard TrackerOp logs — (time, kind, event,
// node, value) — is total over distinct operations and independent of
// shard layout, which is what makes order-sensitive accumulations
// (atomicity timestamps, Welford drop-age) exactly reproducible at any
// shard/worker count. Broadcasts sort ahead of same-time deliveries so an
// origin's local delivery never races its own record creation.
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
// Every sampled delay is additionally clamped to >= L, which only matters
// when the models' minimum is below the 1 ms floor.
DurationMs derive_lookahead(const ScenarioParams& params) {
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

struct ShardedScenario::Impl final : ScenarioGroup::Engine {
  /// What a shard's worker thread touches during window execution besides
  /// its nodes and senders: its network stats and the operation log drained
  /// in the serial phase. Nothing here is read or written by any other
  /// worker mid-window.
  struct Shard {
    sim::NetworkStats stats;
    std::vector<TrackerOp> log;
  };

  explicit Impl(ScenarioParams params)
      : params_(std::move(params)),
        master_rng_(params_.seed),
        lookahead_(derive_lookahead(params_)),
        link_(params_.network.loss,
              sim::DelaySampler(params_.network.latency,
                                params_.network.clusters,
                                params_.network.wan_latency),
              lookahead_),
        // No more shards than nodes: node -> shard is `id & mask`, so the
        // cap changes no outcome, only the empty shards' rings.
        engine_(sim::ShardedEngineParams{
            std::min(params_.sim_shards, std::max<std::size_t>(1, params_.n)),
            params_.sim_workers, lookahead_}),
        group_(params_, engine_.shards(), *this),
        shards_(engine_.shards()),
        per_shard_scratch_(engine_.shards()),
        next_sample_(params_.series_bucket) {
    // The classic ctor hands one master split to SimNetwork; burn the same
    // split so every subsequent draw — membership bootstraps, node seeds,
    // round phases, sender streams — sits at the exact master-RNG position
    // core::Scenario reads it from. Network randomness here is per sender
    // node instead (node_net_seed), so shard layout can't perturb it.
    (void)master_rng_.split();

    streams_.reserve(params_.n);
    for (std::size_t i = 0; i < params_.n; ++i) {
      streams_.push_back(sim::LinkStream{
          Rng(node_net_seed(params_.seed, static_cast<NodeId>(i)))});
    }
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

  sim::Simulator& clock(std::size_t shard) override {
    return engine_.shard(shard);
  }

  void set_node_up(NodeId node, bool up) override {
    if (static_cast<std::size_t>(node) < down_.size()) {
      down_[node] = up ? 0 : 1;
    }
  }

  /// Handlers log into the owner shard's operation stream; the shared
  /// tracker is only touched at barriers (merge_logs).
  void record(std::size_t shard, const TrackerOp& op) override {
    shards_[shard].log.push_back(op);
  }

  /// Every target goes through the link with the sender's own stream and
  /// plane, its delay floored at the lookahead, and every surviving copy
  /// goes into the window-barrier channels instead of the local event
  /// queue. A sender cannot read remote liveness mid-window, so the link
  /// checks only the sender and the receiver-down check moves to delivery
  /// time on the owner shard.
  void send(std::size_t s, Multicast batch) override {
    sim::NetworkStats& stats = shards_[s].stats;
    ++stats.batches;
    const TimeMs now = engine_.shard(s).now();
    const NodeId from = batch.from;
    const bool sender_down = down_[from] != 0;
    // One Gilbert-Elliott chain and one plane per *sender*: shard-count
    // invariant where the classic engine's shared ones are not. A window
    // rule answers from `now` alone, so the plane's verdict is identical
    // no matter which shard fires it.
    link_.send(
        from, batch.targets, batch.payload, now, streams_[from],
        fault_planes_.empty() ? nullptr : fault_planes_[from].get(), stats,
        [sender_down](NodeId) { return sender_down; },
        [&](NodeId to, DurationMs delay, const SharedBytes& payload, bool) {
          engine_.push(s, sim::CrossShardDatagram{now + delay, from, to,
                                                  send_seq_[from]++,
                                                  payload});
        });
  }

  /// Serial barrier phase: replay per-shard logs canonically, turn the
  /// canonically sorted datagram batch into one application event per
  /// (destination shard, deliver-time) run, and fire the series sampler on
  /// bucket boundaries the window clamp landed us on.
  void on_barrier(TimeMs window_end,
                  std::vector<sim::CrossShardDatagram>& batch) {
    merge_logs();
    schedule_applies(batch);
    if (params_.series_bucket <= 0) return;
    while (next_sample_ < window_end) {
      group_.sample(next_sample_);
      next_sample_ += params_.series_bucket;
    }
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
    for (const TrackerOp& op : merge_scratch_) group_.apply(op);
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
    const auto& nodes = group_.nodes();
    // Entries sharing a payload buffer (one fan-out's targets) are adjacent
    // in canonical order, so the memo decodes each fan-out once.
    gossip::WireDecoder decoder;
    for (const sim::CrossShardDatagram& d : entries) {
      // Mirror the classic delivery-time checks, in the classic order:
      // liveness, then attachment. Ids outside the group are real traffic —
      // a chaos-corrupted message can decode into garbage member ids that
      // nodes then gossip to — and land in dropped_detached exactly as the
      // classic SimNetwork's handler lookup makes them.
      if (static_cast<std::size_t>(d.to) >= nodes.size()) {
        ++shard.stats.dropped_detached;
        continue;
      }
      if (down_[d.to] != 0) {
        ++shard.stats.dropped_down;
        continue;
      }
      ++shard.stats.delivered;
      shard.stats.bytes_delivered += d.payload.size();
      gossip::LpbcastNode* node = nodes[d.to];
      if (node->on_wire(decoder.decode(d.payload), now)) {
        group_.drain_outbox(s, *node);
      }
    }
  }

  ScenarioResults run() {
    if (ran_) return {};
    ran_ = true;

    group_.build(master_rng_);
    for (const auto& link : params_.link_latencies) {
      link_.sampler().set_link_override(link.a, link.b, link.model);
    }
    group_.start(master_rng_);
    group_.schedule();

    engine_.set_boundary([this](TimeMs) { return next_sample_; });
    engine_.set_barrier_hook(
        [this](TimeMs window_end, std::vector<sim::CrossShardDatagram>& batch) {
          on_barrier(window_end, batch);
        });

    engine_.run_until(params_.warmup + params_.duration + params_.cooldown);

    ScenarioResults results = group_.finish();
    results.peak_event_queue_len = engine_.peak_pending_events();
    for (const Shard& shard : shards_) results.net += shard.stats;
    for (const auto& plane : fault_planes_) results.chaos += plane->stats();
    return results;
  }

  ScenarioParams params_;
  Rng master_rng_;
  DurationMs lookahead_ = 1;
  sim::Link link_;  // its delay floor is the lookahead
  sim::ShardedEngine engine_;
  ScenarioGroup group_;
  std::vector<Shard> shards_;

  // Per-node network state, confined to the owner (sender) shard.
  std::vector<sim::LinkStream> streams_;
  std::vector<std::uint64_t> send_seq_;
  std::vector<std::uint8_t> down_;
  std::vector<std::unique_ptr<fault::FaultPlane>> fault_planes_;

  // Serial-phase state (barrier hook and result assembly only).
  std::vector<TrackerOp> merge_scratch_;
  std::vector<std::vector<sim::CrossShardDatagram>> per_shard_scratch_;
  TimeMs next_sample_ = 0;
  bool ran_ = false;
};

ShardedScenario::ShardedScenario(ScenarioParams params)
    : impl_(std::make_unique<Impl>(std::move(params))) {}

ShardedScenario::~ShardedScenario() = default;

ScenarioResults ShardedScenario::run() { return impl_->run(); }

const std::vector<gossip::LpbcastNode*>& ShardedScenario::nodes()
    const noexcept {
  return impl_->group_.nodes();
}

const std::vector<adaptive::AdaptiveLpbcastNode*>&
ShardedScenario::adaptive_nodes() const noexcept {
  return impl_->group_.adaptive_nodes();
}

const metrics::DeliveryTracker& ShardedScenario::tracker() const noexcept {
  return impl_->group_.tracker();
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
