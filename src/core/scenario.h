// Experiment harness: a whole gossip group under the discrete-event
// simulator, with configurable workload, network model, dynamic resource
// schedule and metrics collection.
//
// The experiment loop is written once, in ScenarioGroup: the group built
// into per-shard arenas, unsynchronised gossip rounds, the senders, the
// series sampler and the capacity and failure schedules with their rejoin,
// oracle-view and capacity-target rules. Both simulator engines drive it:
// core::Scenario below is the one-shard case over sim::SimNetwork, and
// core::ShardedScenario runs it on sim::ShardedEngine. An engine keeps only
// its clock, its network, its accounting sink and its sampler trigger.
//
// A sender is a SenderQueue on every engine, the wall-clock one included:
// the paper's blocking BROADCAST (token-gated for the adaptive variant),
// with its arrival process, pending queue, refusals and depth samples,
// reaching its node through one admission call. summarize_run() fills the
// report every harness derives alike. The golden trace pins hold on both
// simulator engines at one shard.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "adaptive/adaptive_node.h"
#include "adaptive/params.h"
#include "common/datagram.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/types.h"
#include "fault/fault_plane.h"
#include "gossip/lpbcast_node.h"
#include "gossip/message.h"
#include "gossip/params.h"
#include "membership/gossip_membership.h"
#include "membership/locality_view.h"
#include "membership/partial_view.h"
#include "core/node_arena.h"
#include "metrics/delivery_tracker.h"
#include "metrics/timeseries.h"
#include "sim/network.h"
#include "sim/simulator.h"

namespace agb::core {

/// One step of the dynamic-resources schedule (paper §4, Fig. 9): at time
/// `at`, the first floor(node_fraction * n) nodes switch their event-buffer
/// bound to `new_capacity`.
struct CapacityChange {
  TimeMs at = 0;
  double node_fraction = 0.2;
  std::size_t new_capacity = 45;
};

/// Crash/recover injection: at time `at`, mark `node` up or down in the
/// simulated network (a down node neither sends nor receives).
struct FailureEvent {
  TimeMs at = 0;
  NodeId node = 0;
  bool up = false;
};

struct ScenarioParams {
  std::size_t n = 60;
  /// How many members act as senders (spread evenly over the id space).
  std::size_t senders = 4;
  /// Aggregate offered load in msg/s, split evenly across senders.
  double offered_rate = 30.0;
  /// Poisson (true) or strictly periodic (false) application arrivals.
  bool poisson_arrivals = true;
  std::size_t payload_size = 16;
  /// Probability that a broadcast supersedes the sender's earlier messages
  /// on its stream (each sender is one stream). Pair with
  /// gossip.semantic_purge to exercise semantic reliability workloads.
  double supersede_probability = 0.0;

  /// false: baseline lpbcast (paper Fig. 1). true: adaptive (paper Fig. 5).
  bool adaptive = false;
  gossip::GossipParams gossip;
  adaptive::AdaptiveParams adaptation;

  /// Use lpbcast partial views instead of a full directory.
  bool partial_view = false;
  membership::PartialViewParams view_params;

  /// In-protocol anti-entropy membership (membership::GossipMembership):
  /// liveness records and endpoint bindings ride on the gossip messages
  /// themselves, and suspicion timeouts replace the failure_detector
  /// oracle. Takes precedence over partial_view.
  bool gossip_membership = false;
  membership::GossipMembershipParams membership_params;

  /// Host migration: a recovering node re-announces a *rotated* endpoint
  /// binding under a bumped revision, so the group re-resolves it at a new
  /// address. Only meaningful with gossip_membership.
  bool migrate_on_rejoin = false;

  /// Locality-aware target selection (directional gossip, paper §5): when
  /// locality.enabled, every node's membership is wrapped in a
  /// membership::LocalityView fed by the network's cluster rule, so
  /// targets stay same-cluster with probability p_local and cross-cluster
  /// slots route through per-cluster bridge nodes.
  membership::LocalityParams locality;

  /// When true, every FailureEvent also updates all nodes' membership
  /// views (remove on crash, add on recover) — a perfect failure detector,
  /// so locality bridges re-elect mid-run instead of cross traffic dying
  /// with a crashed bridge.
  bool failure_detector = false;

  /// Latency/loss models and the WAN cluster topology (network.clusters,
  /// network.wan_latency) live here — the cluster rule is evaluated per
  /// send inside sim::SimNetwork, not materialised per pair.
  sim::NetworkParams network;

  /// Per-link latency overrides, applied symmetrically on top of the
  /// cluster topology (so single links can be special-cased).
  struct LinkLatency {
    NodeId a = 0;
    NodeId b = 0;
    sim::LatencyModel model;
  };
  std::vector<LinkLatency> link_latencies;

  std::uint64_t seed = 1;

  DurationMs warmup = 30'000;    // excluded from metrics
  DurationMs duration = 200'000; // evaluation window
  DurationMs cooldown = 20'000;  // run-out so tail messages can finish

  std::vector<CapacityChange> capacity_schedule;
  std::vector<FailureEvent> failure_schedule;

  /// Deterministic fault injection (fault::FaultPlane): corruption,
  /// truncation, duplication, reorder, one-way partitions and gray
  /// failures, declared as time-windowed rules. Empty = clean run, which
  /// takes the exact pre-fault code path (same RNG draw order, so golden
  /// fingerprints are untouched). The plane is seeded from `seed` via a
  /// fixed derivation — never from a master-RNG split — so adding chaos
  /// does not perturb the protocol's own randomness.
  fault::ChaosSchedule chaos;

  /// Bound on each sender's pending queue; arrivals beyond it are refused
  /// (models application back-pressure on the paper's blocking BROADCAST).
  std::size_t pending_cap = 64;

  /// Sharded-engine knobs (core::ShardedScenario; the classic Scenario
  /// ignores them). sim_shards is rounded up to a power of two and capped
  /// at n (rounded up too); agb_sim routes sim_shards <= 1 to the
  /// classic engine, so existing seeds keep their golden traces.
  /// sim_workers = 0 means min(shards, hardware concurrency); worker count
  /// never changes outcomes. The conservative window is derived from the
  /// latency models (>= 1 ms).
  std::size_t sim_shards = 1;
  std::size_t sim_workers = 0;

  /// Granularity of the recorded time series (Fig. 9).
  DurationMs series_bucket = 5'000;
};

/// The run report. core::Scenario, core::ShardedScenario and
/// core::WallclockScenario all return it, and summarize_run() fills the part
/// they derive alike. A field an engine cannot measure stays at zero or
/// empty; its comment names the engine.
struct ScenarioResults {
  metrics::DeliveryReport delivery;

  double offered_rate = 0.0;       // configured aggregate
  double input_rate = 0.0;         // measured admitted broadcasts /s
  double output_rate = 0.0;        // messages reaching >95 % of nodes /s
  /// Mean age of overflow-dropped events inside the evaluation window.
  /// Zero on the wall-clock path, which does not log individual drops.
  double avg_drop_age = 0.0;
  std::uint64_t overflow_drops = 0;
  std::uint64_t age_limit_drops = 0;
  /// Events semantic purging evicted because a buffered event of the same
  /// stream superseded them (zero unless gossip.semantic_purge).
  std::uint64_t obsolete_drops = 0;
  std::uint64_t refused_broadcasts = 0;  // back-pressure at the app layer
  std::uint64_t decode_failures = 0;     // datagrams that did not decode

  // Recovery traffic (zero unless gossip.recovery.enabled).
  std::uint64_t repair_requests = 0;
  std::uint64_t repair_replies = 0;
  std::uint64_t events_recovered = 0;

  // Adaptive-only signals (0 for the baseline).
  /// Time-mean and window-end aggregate allowed rate, from allowed_rate_ts
  /// (which the wall-clock path samples every 200 ms).
  double avg_allowed_rate = 0.0;
  double final_allowed_rate = 0.0;
  double avg_min_buff = 0.0;       // mean minBuff estimate at run end
  double avg_age_estimate = 0.0;   // mean avgAge at run end

  // Control-plane actuator state (adaptation.control.enabled runs only).
  double avg_p_local = 0.0;           // mean live p_local at run end
  double avg_effective_fanout = 0.0;  // mean effective fanout at run end
  /// Deepest any sender's pending queue got (blocking-BROADCAST
  /// back-pressure); bounded by ScenarioParams::pending_cap by
  /// construction — the bound the adaptive parity assertions pin.
  std::size_t max_pending_depth = 0;
  /// Pending-queue depth percentiles over every sender's retry-tick
  /// samples, on every engine.
  std::size_t pending_depth_p50 = 0;
  std::size_t pending_depth_p90 = 0;
  std::size_t pending_depth_p99 = 0;

  /// The datagram ledger. On the wall-clock path it is the fabric's
  /// (runtime::InMemoryFabric::stats()).
  sim::NetworkStats net;

  /// What the fault plane actually injected (all zero on clean runs).
  fault::FaultStats chaos;
  /// Self-healing receipt: delivery over the window starting
  /// kChaosRecoveryRounds gossip rounds after the last fault window
  /// closes. Present only when a chaos schedule ran and left room for the
  /// recovery window inside the evaluation window; the invariant suites
  /// pin its avg_receiver_pct against the preset floor.
  std::optional<metrics::DeliveryReport> post_chaos_delivery;
  /// Group-wide gossip-membership liveness transitions (all zero unless
  /// gossip_membership): gray failures must keep `downs` at zero,
  /// asymmetric partitions must raise `suspicions`.
  membership::MembershipCounters membership_transitions;
  /// Each node's membership view size at run end, id order.
  std::vector<std::size_t> membership_sizes;

  /// High-water mark of the event queue over the run — the capacity
  /// receipt the scale presets track (the round wheel keeps this
  /// O(n/period + in-flight deliveries), not O(n)). The sharded engine
  /// sums its per-shard peaks; the wall-clock path reports the fabric's
  /// deepest shard delay queue (InMemoryFabric::max_queue_depth()).
  std::size_t peak_event_queue_len = 0;

  /// Per-series-bucket trajectories. The wall-clock path samples
  /// allowed_rate_ts, min_buff_ts, p_local_ts and fanout_ts every 200 ms of
  /// run time instead of every series bucket.
  metrics::TimeSeries allowed_rate_ts{"allowed_rate"};
  metrics::TimeSeries min_buff_ts{"min_buff"};
  metrics::TimeSeries atomicity_ts{"atomicity"};
  metrics::TimeSeries input_rate_ts{"input_rate"};
  /// Control-plane actuator trajectories (empty for baseline runs): the
  /// group-mean p_local of locality nodes and group-mean effective fanout
  /// per series bucket. Seeded determinism tests compare these exactly.
  metrics::TimeSeries p_local_ts{"p_local"};
  metrics::TimeSeries fanout_ts{"fanout"};
};

/// One application sender behind the paper's blocking BROADCAST (Fig. 5),
/// the same on every engine. Arrivals at `rate` msg/s (Poisson or periodic;
/// none at all when rate <= 0) queue up to ScenarioParams::pending_cap and
/// are refused beyond it. The queue front is offered to the node at every
/// arrival and on a fixed 100 ms retry tick, which also samples the queue
/// depth. Each offer draws its supersede bit first, and the stream is the
/// sender's id. The node is reached through `admit` alone.
class SenderQueue {
 public:
  /// Offers one broadcast to the node: the admitted event's id, or nullopt
  /// when the node refuses it (an adaptive node out of tokens).
  using AdmitFn = std::function<std::optional<EventId>(
      gossip::Payload payload, std::uint32_t stream, bool supersedes)>;

  /// `params` outlives the queue.
  SenderQueue(const ScenarioParams& params, NodeId id, double rate, Rng rng,
              AdmitFn admit);

  SenderQueue(const SenderQueue&) = delete;
  SenderQueue& operator=(const SenderQueue&) = delete;

  /// Arms the retry tick, then the first arrival, on `clock`, which must
  /// outlive the queue.
  void start(sim::Simulator& clock);

  [[nodiscard]] NodeId id() const noexcept { return id_; }
  [[nodiscard]] std::uint64_t refused() const noexcept { return refused_; }
  [[nodiscard]] std::size_t max_depth() const noexcept { return max_depth_; }
  /// The queue depth after every retry tick so far.
  [[nodiscard]] const std::vector<std::size_t>& depth_samples()
      const noexcept {
    return depth_samples_;
  }

 private:
  void arrive();
  void drain();

  const ScenarioParams& params_;
  NodeId id_;
  double rate_;  // offered msg/s
  Rng rng_;
  AdmitFn admit_;
  sim::Simulator* clock_ = nullptr;
  std::deque<gossip::Payload> pending_;
  std::unique_ptr<sim::PeriodicTimer> retry_;
  std::vector<std::size_t> depth_samples_;
  std::uint64_t refused_ = 0;
  std::size_t max_depth_ = 0;
};

/// Fills the part of the report every harness derives alike, once the run
/// is over and nothing else touches `tracker`, `nodes` or `senders`:
///   * from the tracker, over ScenarioParams' evaluation window: delivery,
///     the rates, the atomicity and input-rate series and, after a chaos
///     schedule, post_chaos_delivery;
///   * from `nodes` (the whole group, id order): overflow, age-limit and
///     obsolete drops, decode failures, repair counters, membership
///     transitions and view
///     sizes, and over the adaptive nodes the means of min_buff, avg_age,
///     effective fanout and p_local (over nodes with a locality view);
///   * from `senders`: the refusals, the deepest queue and the depth
///     percentiles over every retry-tick sample;
///   * avg_allowed_rate and final_allowed_rate from
///     results.allowed_rate_ts, which the caller fills first.
void summarize_run(const ScenarioParams& params,
                   const metrics::DeliveryTracker& tracker,
                   std::span<gossip::LpbcastNode* const> nodes,
                   std::span<const std::unique_ptr<SenderQueue>> senders,
                   ScenarioResults& results);

/// One sample of the adaptation series, taken alike by every engine's
/// sampler: add the group's adaptive nodes in id order, then record. It
/// sums the senders' allowed rate and averages minBuff and, with the
/// control plane on, p_local (over nodes with a locality view) and the
/// effective fanout. Pure reads: no RNG, no protocol state touched.
class AdaptationSample {
 public:
  /// `senders` in sender-id order; `control`: the control plane is on.
  AdaptationSample(std::span<const std::unique_ptr<SenderQueue>> senders,
                   bool control) noexcept
      : senders_(senders), control_(control) {}

  void add(adaptive::AdaptiveLpbcastNode& node);

  /// Appends the sample at `now` to allowed_rate_ts and min_buff_ts and,
  /// with the control plane on, to p_local_ts and fanout_ts. No-op when no
  /// node was added.
  void record(TimeMs now, ScenarioResults& results) const;

 private:
  std::span<const std::unique_ptr<SenderQueue>> senders_;  // not yet added
  bool control_;
  std::size_t nodes_ = 0;
  std::size_t locality_nodes_ = 0;
  double allowed_ = 0.0;
  double min_buff_sum_ = 0.0;
  double p_local_sum_ = 0.0;
  double fanout_sum_ = 0.0;
};

/// Rounds a group is granted to re-converge after the last fault window
/// closes before the self-healing invariants start judging delivery again.
/// Shared by both harnesses and the parity suite, so "recovers within K
/// rounds" means the same K everywhere.
inline constexpr DurationMs kChaosRecoveryRounds = 5;

/// The recovery window the self-healing invariants measure delivery over:
/// [last fault-window close + K rounds, eval_end), or nullopt when there is
/// no chaos schedule or no room left inside the evaluation window.
[[nodiscard]] std::optional<std::pair<TimeMs, TimeMs>> chaos_recovery_window(
    const ScenarioParams& params);

/// The sender layout both harnesses share: `senders` ids spread evenly
/// over the id space (i * n / senders), clamped to [1, n] — part of the
/// sim/wall-clock parity contract, so it lives in exactly one place.
[[nodiscard]] std::vector<NodeId> scenario_sender_ids(std::size_t n,
                                                      std::size_t senders);

/// The cluster map a scenario's locality decoration uses: the same modulo
/// rule the network prices links with (sim::SimNetwork and the wall-clock
/// InMemoryFabric agree on it), or nullptr when locality is off.
[[nodiscard]] std::shared_ptr<const membership::ClusterMap>
scenario_cluster_map(const ScenarioParams& params);

/// Builds node `id`'s membership stack — full directory or seeded partial
/// view, optionally decorated with a LocalityView — drawing every seed from
/// `master_rng` in a fixed order. Scenario (simulator, arena-allocated
/// nodes) and WallclockScenario (real threads, via build_scenario_node)
/// both bootstrap views here, so the same ScenarioParams + seed yields
/// provably identical nodes on either path: that is the contract the
/// scenario-parity conformance suite pins.
[[nodiscard]] std::unique_ptr<membership::Membership>
build_scenario_membership(
    const ScenarioParams& params, NodeId id, Rng& master_rng,
    const std::shared_ptr<const membership::ClusterMap>& cluster_map);

/// Builds node `id`'s full protocol stack (membership + baseline or
/// adaptive node) on the heap; the wall-clock runtime owns nodes
/// individually. Consumes `master_rng` exactly like Scenario's arena build.
[[nodiscard]] std::unique_ptr<gossip::LpbcastNode> build_scenario_node(
    const ScenarioParams& params, NodeId id, Rng& master_rng,
    const std::shared_ptr<const membership::ClusterMap>& cluster_map);

/// How many nodes a CapacityChange reaches: ids [0, floor(node_fraction *
/// n)), at most n. Every harness applies the dynamic-resources schedule
/// through it.
[[nodiscard]] std::size_t capacity_targets(const CapacityChange& change,
                                           std::size_t n);

/// The oracle failure detector (ScenarioParams::failure_detector): the
/// survivor's view learns `event` at once, dropping a crashed peer and
/// re-adding a recovered one, so locality bridges re-elect within one
/// round. The event's own node is left alone.
void apply_oracle_view(gossip::LpbcastNode& survivor,
                       const FailureEvent& event);

/// One shared-accumulator operation of a simulated run: an admitted
/// broadcast, a delivery (the origin's local one included) or an overflow
/// drop's age. ScenarioGroup::apply() folds it into the delivery tracker
/// and the drop-age stats; an engine applies it at once, or logs it and
/// replays it later.
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

/// The experiment loop both simulator engines run:
///   * build(): the n nodes, in id order, into one arena per shard (node
///     `id` lives on shard `id & (shards - 1)`), drawing master_rng as
///     build_scenario_node does; their handlers feed the accounting;
///   * start(): one round-phase draw per node, bucketed by (shard, phase)
///     onto one repeating wheel event each, then one SenderQueue per
///     sender on its shard's clock, admitting to the arena node at virtual
///     time;
///   * sample(): the series sampler, on the engine's trigger;
///   * schedule(): the capacity (Fig. 9) and failure schedules;
///   * finish(): the report's group-side part.
/// An engine supplies what is its own through Engine and calls build,
/// its topology, start, its sampler and schedule in that order, so every
/// master-RNG draw and every scheduled event keeps its position. The
/// classic engine is the one-shard case.
class ScenarioGroup {
 public:
  class Engine {
   public:
    /// The simulator shard `shard` runs on.
    virtual sim::Simulator& clock(std::size_t shard) = 0;
    /// Sends a batch from a node on `shard`: a round's fan-out or one
    /// control datagram.
    virtual void send(std::size_t shard, Multicast batch) = 0;
    /// Crashes or recovers `node` on the network, on its owner shard.
    virtual void set_node_up(NodeId node, bool up) = 0;
    /// The accounting sink, called on the shard that observed `op`.
    virtual void record(std::size_t shard, const TrackerOp& op) = 0;

   protected:
    ~Engine() = default;
  };

  /// `shards` is a power of two. `params` and `engine` outlive the group.
  ScenarioGroup(const ScenarioParams& params, std::size_t shards,
                Engine& engine);
  ~ScenarioGroup();

  ScenarioGroup(const ScenarioGroup&) = delete;
  ScenarioGroup& operator=(const ScenarioGroup&) = delete;

  void build(Rng& master_rng);
  void start(Rng& master_rng);
  void sample(TimeMs now);
  void schedule();

  /// Sends the control datagrams `node` queued (repair traffic); engines
  /// call it after every message a node takes in.
  void drain_outbox(std::size_t shard, gossip::LpbcastNode& node);

  /// Folds one operation into the tracker or the drop-age stats (overflow
  /// drops count inside the evaluation window only).
  void apply(const TrackerOp& op);

  /// The report's group-side part: summarize_run, the drop age and the
  /// sampled series. Call once, after the run.
  [[nodiscard]] ScenarioResults finish();

  /// Arena-owned; pointers are stable for the group's lifetime.
  [[nodiscard]] const std::vector<gossip::LpbcastNode*>& nodes()
      const noexcept {
    return nodes_;
  }
  [[nodiscard]] const std::vector<adaptive::AdaptiveLpbcastNode*>&
  adaptive_nodes() const noexcept {
    return adaptive_nodes_;
  }
  [[nodiscard]] const metrics::DeliveryTracker& tracker() const noexcept {
    return tracker_;
  }

 private:
  struct RoundBucket {
    TimeMs phase = 0;
    std::vector<gossip::LpbcastNode*> nodes;  // id order
  };

  [[nodiscard]] std::size_t shard_of(NodeId id) const noexcept {
    return static_cast<std::size_t>(id) & mask_;
  }
  template <class Node>
  void build_arenas(Rng& master_rng);
  void tick(std::size_t shard, std::size_t bucket);
  /// The senders' admission call: node `id` broadcasts at its shard's
  /// time, token-gated when adaptive, and the accounting sink records it.
  std::optional<EventId> admit(NodeId id, gossip::Payload payload,
                               std::uint32_t stream, bool supersedes);
  void apply_capacity(std::size_t shard, const CapacityChange& change);
  void apply_failure(std::size_t shard, const FailureEvent& event);

  const ScenarioParams& params_;
  Engine& engine_;
  std::size_t mask_;
  std::vector<std::unique_ptr<NodeArenaBase>> storage_;  // one per shard
  std::vector<gossip::LpbcastNode*> nodes_;              // id order
  std::vector<adaptive::AdaptiveLpbcastNode*> adaptive_nodes_;  // or empty
  std::vector<std::vector<gossip::LpbcastNode*>> members_;  // per shard
  std::vector<std::vector<RoundBucket>> buckets_;            // per shard
  std::vector<std::unique_ptr<SenderQueue>> senders_;  // sender-id order
  metrics::DeliveryTracker tracker_;
  RunningStats drop_age_;
  ScenarioResults results_;  // the sampled series until finish()
};

/// The classic engine: the group on one sim::Simulator and one
/// sim::SimNetwork, sampled by a PeriodicTimer.
class Scenario final : private ScenarioGroup::Engine {
 public:
  explicit Scenario(ScenarioParams params);
  ~Scenario();

  Scenario(const Scenario&) = delete;
  Scenario& operator=(const Scenario&) = delete;

  /// Runs the full experiment and returns the report. Call once.
  ScenarioResults run();

  /// Post-run introspection for tests: the protocol nodes (arena-owned;
  /// pointers are stable for the Scenario's lifetime) and the tracker.
  [[nodiscard]] const std::vector<gossip::LpbcastNode*>& nodes()
      const noexcept {
    return group_.nodes();
  }
  [[nodiscard]] const std::vector<adaptive::AdaptiveLpbcastNode*>&
  adaptive_nodes() const noexcept {
    return group_.adaptive_nodes();
  }
  [[nodiscard]] const metrics::DeliveryTracker& tracker() const noexcept {
    return group_.tracker();
  }

 private:
  sim::Simulator& clock(std::size_t /*shard*/) override { return sim_; }
  void send(std::size_t /*shard*/, Multicast batch) override {
    net_->send_batch(std::move(batch));
  }
  void set_node_up(NodeId node, bool up) override {
    net_->set_node_up(node, up);
  }
  void record(std::size_t /*shard*/, const TrackerOp& op) override {
    group_.apply(op);
  }

  ScenarioParams params_;
  Rng master_rng_;
  sim::Simulator sim_;
  std::unique_ptr<sim::SimNetwork> net_;
  std::unique_ptr<fault::FaultPlane> fault_plane_;  // null on clean runs
  ScenarioGroup group_;
  std::unique_ptr<sim::PeriodicTimer> sampler_;
  gossip::WireDecoder decoder_;  // a fan-out's receivers share one decode
  bool ran_ = false;
};

}  // namespace agb::core
