#include "core/wallclock_scenario.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "runtime/inmemory_fabric.h"
#include "runtime/node_runtime.h"

namespace agb::core {

namespace {

using std::chrono::milliseconds;

/// Maps the preset's network model onto InMemoryFabric::Params. The fabric
/// prices links with the same sim::DelaySampler and drops with the same
/// sim::LossModel as the simulator's SimNetwork, so every latency model
/// (fixed, uniform, normal), the WAN cluster rule, per-link overrides and
/// the loss process transfer verbatim.
runtime::InMemoryFabric::Params fabric_params(const ScenarioParams& p,
                                              const WallclockOptions& o) {
  runtime::InMemoryFabric::Params fp;
  fp.loss = p.network.loss;
  fp.shards = o.shards;
  fp.max_burst = o.max_burst;
  sim::DelaySampler sampler(p.network.latency, p.network.clusters,
                            p.network.wan_latency);
  for (const ScenarioParams::LinkLatency& link : p.link_latencies) {
    sampler.set_link_override(link.a, link.b, link.model);
  }
  fp.sampler = std::move(sampler);
  fp.clusters = p.network.clusters;
  return fp;
}

/// One entry of the merged failure + capacity timeline.
struct ScheduledAction {
  TimeMs at = 0;
  bool is_failure = false;
  FailureEvent failure;
  CapacityChange capacity;
};

}  // namespace

struct WallclockScenario::Impl {
  explicit Impl(ScenarioParams p, WallclockOptions o)
      : params(std::move(p)), options(o), master_rng(params.seed) {}

  ScenarioParams params;
  WallclockOptions options;
  Rng master_rng;

  std::unique_ptr<runtime::InMemoryFabric> fabric;
  std::unique_ptr<fault::FaultPlane> fault_plane;  // null on clean runs
  std::vector<std::unique_ptr<runtime::NodeRuntime>> runtimes;
  TimeMs epoch = 0;  // fabric time when the run started

  std::mutex tracker_mutex;
  metrics::DeliveryTracker tracker{1};

  std::mutex sched_mutex;
  std::condition_variable sched_cv;
  bool sched_stop = false;
  std::thread scheduler;

  /// Control-plane trajectory sampler (only started when
  /// adaptation.control.enabled): records the group-mean p_local every
  /// ~200 ms so tests can watch it rise under congestion and recover.
  std::thread plane_sampler;
  metrics::TimeSeries p_local_ts{"p_local"};  // guarded by sched_mutex

  bool ran = false;

  [[nodiscard]] TimeMs rel_now() const { return fabric->now() - epoch; }

  void apply(const ScheduledAction& action);
  void scheduler_loop(std::vector<ScheduledAction> actions);
  void sampler_loop();
  /// Drives the arrival processes; returns the refused broadcasts.
  std::uint64_t run_senders();
};

WallclockScenario::WallclockScenario(ScenarioParams params,
                                     WallclockOptions options)
    : impl_(std::make_unique<Impl>(std::move(params), options)) {}

WallclockScenario::~WallclockScenario() {
  if (impl_->scheduler.joinable() || impl_->plane_sampler.joinable()) {
    {
      std::lock_guard lock(impl_->sched_mutex);
      impl_->sched_stop = true;
    }
    impl_->sched_cv.notify_all();
    if (impl_->scheduler.joinable()) impl_->scheduler.join();
    if (impl_->plane_sampler.joinable()) impl_->plane_sampler.join();
  }
}

void WallclockScenario::Impl::apply(const ScheduledAction& action) {
  if (action.is_failure) {
    const FailureEvent& event = action.failure;
    fabric->set_node_up(event.node, event.up);
    // The simulators' rules: a recovering node rejoins, and under the
    // oracle detector every survivor's view learns the change at once.
    if (event.up && event.node < runtimes.size()) {
      runtimes[event.node]->on_recover(params.migrate_on_rejoin);
    }
    if (!params.failure_detector) return;
    for (auto& runtime : runtimes) {
      runtime->with_node([&event](gossip::LpbcastNode& node) {
        apply_oracle_view(node, event);
      });
    }
    return;
  }
  const CapacityChange& change = action.capacity;
  for (std::size_t i = 0; i < capacity_targets(change, params.n); ++i) {
    runtimes[i]->set_capacity(change.new_capacity);
  }
}

void WallclockScenario::Impl::scheduler_loop(
    std::vector<ScheduledAction> actions) {
  std::unique_lock lock(sched_mutex);
  for (const ScheduledAction& action : actions) {
    // Chase the fabric clock in bounded waits so a stop request is never
    // outslept and clock drift against sleep_for cannot skew the schedule.
    while (!sched_stop && rel_now() < action.at) {
      const DurationMs remaining = action.at - rel_now();
      sched_cv.wait_for(lock, milliseconds(std::min<DurationMs>(
                                  std::max<DurationMs>(remaining, 1), 50)));
    }
    if (sched_stop) return;
    apply(action);
  }
}

void WallclockScenario::Impl::sampler_loop() {
  std::unique_lock lock(sched_mutex);
  while (!sched_stop) {
    sched_cv.wait_for(lock, milliseconds(200));
    if (sched_stop) return;
    lock.unlock();
    // Snapshot outside sched_mutex: p_local() takes each runtime's node
    // lock, and holding two unrelated locks at once invites inversions.
    double sum = 0.0;
    std::size_t count = 0;
    for (auto& runtime : runtimes) {
      const double p = runtime->p_local();
      if (p >= 0.0) {
        sum += p;
        ++count;
      }
    }
    const TimeMs t = rel_now();
    lock.lock();
    if (count > 0) p_local_ts.add(t, sum / static_cast<double>(count));
  }
}

std::uint64_t WallclockScenario::Impl::run_senders() {
  struct SenderState {
    runtime::NodeRuntime* runtime = nullptr;
    double rate = 0.0;
    Rng rng{0};
    TimeMs next = 0;
  };
  const auto sender_ids = scenario_sender_ids(params.n, params.senders);
  const double per_sender =
      params.offered_rate / static_cast<double>(sender_ids.size());
  if (per_sender <= 0.0) {
    // No offered load: idle through the traffic window (gossip digests
    // still flow), so the report covers the configured wall-clock span.
    std::this_thread::sleep_for(
        milliseconds(params.warmup + params.duration));
    return 0;
  }
  const double mean_ms = 1000.0 / per_sender;

  std::vector<SenderState> senders;
  senders.reserve(sender_ids.size());
  for (NodeId id : sender_ids) {
    SenderState s;
    s.runtime = runtimes[id].get();
    s.rate = per_sender;
    s.rng = master_rng.split();
    s.next = static_cast<TimeMs>(std::max(
        1.0, params.poisson_arrivals ? s.rng.exponential(mean_ms) : mean_ms));
    senders.push_back(std::move(s));
  }

  // Offered load runs across warmup + duration; the evaluation window is
  // carved out by the tracker afterwards. (The sim harness keeps its
  // arrival processes ticking through cooldown too, so refused totals are
  // not comparable across paths — the windowed delivery metrics, which
  // exclude cooldown on both, are.)
  std::uint64_t refused = 0;
  const TimeMs window_end = params.warmup + params.duration;
  while (true) {
    TimeMs earliest = window_end;
    for (const SenderState& s : senders) earliest = std::min(earliest, s.next);
    if (earliest >= window_end) break;
    const TimeMs now = rel_now();
    if (now < earliest) {
      std::this_thread::sleep_for(milliseconds(earliest - now));
      continue;
    }
    for (SenderState& s : senders) {
      if (s.next > now || s.next >= window_end) continue;
      auto payload = gossip::make_payload(
          std::vector<std::uint8_t>(params.payload_size, 0xab));
      // Tracker accounting happens in the deliver handler (the origin's
      // local delivery), atomically with the broadcast itself.
      if (params.adaptive) {
        // Blocking-BROADCAST semantics, like the simulator's sender path:
        // out-of-tokens arrivals queue on the node (drained as the bucket
        // refills) and only a full pending queue refuses.
        if (!s.runtime->enqueue_broadcast(std::move(payload))) ++refused;
      } else {
        s.runtime->broadcast(std::move(payload));
      }
      const double gap = std::max(
          1.0, params.poisson_arrivals ? s.rng.exponential(mean_ms)
                                       : mean_ms);
      s.next += static_cast<TimeMs>(gap);
    }
  }
  // Run the clock out to the end of the traffic window.
  const TimeMs left = window_end - rel_now();
  if (left > 0) std::this_thread::sleep_for(milliseconds(left));
  return refused;
}

ScenarioResults WallclockScenario::run() {
  Impl& im = *impl_;
  if (im.ran) return {};
  im.ran = true;

  // The fabric takes the first master-RNG split, exactly where Scenario
  // seeds its SimNetwork — every later split (the per-node streams) then
  // lines up with the simulator run of the same seed.
  const std::uint64_t fabric_seed = im.master_rng.split().next();
  im.fabric = std::make_unique<runtime::InMemoryFabric>(
      fabric_params(im.params, im.options), fabric_seed);
  im.tracker = metrics::DeliveryTracker(im.params.n);

  if (!im.params.chaos.empty()) {
    // Rule windows are run-relative; the fabric clock is not. Shift every
    // window by the fabric time at which the run is about to start (node
    // construction between here and start() is sub-millisecond noise
    // against windows hundreds of ms wide). Same seed derivation as the
    // simulator path, so both planes inject identical decisions per seed.
    fault::ChaosSchedule shifted = im.params.chaos;
    const TimeMs epoch0 = im.fabric->now();
    for (fault::FaultRule& rule : shifted.rules) {
      rule.start += epoch0;
      if (rule.end != fault::kNoEnd) rule.end += epoch0;
    }
    im.fault_plane = std::make_unique<fault::FaultPlane>(
        std::move(shifted), fault::chaos_seed(im.params.seed));
    im.fabric->set_fault_plane(im.fault_plane.get());
  }

  const auto cluster_map = scenario_cluster_map(im.params);
  im.runtimes.reserve(im.params.n);
  for (std::size_t i = 0; i < im.params.n; ++i) {
    const auto id = static_cast<NodeId>(i);
    runtime::NodeRuntime::Clock clock = [fabric = im.fabric.get()] {
      return fabric->now();
    };
    if (im.fault_plane != nullptr) {
      // Skewed round clock with a monotonic clamp: while a skew rule is
      // live the node reads a clock `amount` ms ahead; when the window
      // closes the raw reading would jump backward, so the clamp holds the
      // node's clock at its high-water mark until real time catches up —
      // clocks misbehave, but they never run backwards.
      clock = [fabric = im.fabric.get(), plane = im.fault_plane.get(), id,
               last = std::make_shared<std::atomic<TimeMs>>(0)] {
        const TimeMs raw = fabric->now();
        TimeMs t = raw + plane->clock_skew(id, raw);
        TimeMs prev = last->load(std::memory_order_relaxed);
        while (t > prev && !last->compare_exchange_weak(
                               prev, t, std::memory_order_relaxed)) {
        }
        return std::max(t, prev);
      };
    }
    auto runtime = std::make_unique<runtime::NodeRuntime>(
        build_scenario_node(im.params, id, im.master_rng, cluster_map),
        *im.fabric, std::move(clock));
    if (im.fault_plane != nullptr) {
      runtime->set_fault_plane(im.fault_plane.get());
    }
    runtime->set_deliver_handler(
        [&im, id](const gossip::Event& e, TimeMs now) {
          std::lock_guard lock(im.tracker_mutex);
          const TimeMs t = now - im.epoch;
          if (e.id.origin == id) {
            // The origin's local delivery fires inside broadcast(), under
            // the node lock — before the round thread can emit the event.
            // Registering the broadcast here (not after broadcast()
            // returns on the sender thread) means no remote delivery can
            // ever reach the tracker before its record exists.
            im.tracker.on_broadcast(e.id, id, t);
            im.tracker.on_delivery(e.id, id, t);
            return;
          }
          im.tracker.on_delivery(e.id, id, t);
        });
    runtime->set_pending_cap(im.params.pending_cap);
    im.runtimes.push_back(std::move(runtime));
  }

  // Merge the failure and capacity schedules into one timeline for the
  // scheduler thread (stable order for equal times: failures first, like
  // Scenario registering failure callbacks after capacity ones matters
  // only to ties, which neither path promises an order for).
  std::vector<ScheduledAction> actions;
  actions.reserve(im.params.failure_schedule.size() +
                  im.params.capacity_schedule.size());
  for (const FailureEvent& event : im.params.failure_schedule) {
    actions.push_back({event.at, true, event, {}});
  }
  for (const CapacityChange& change : im.params.capacity_schedule) {
    actions.push_back({change.at, false, {}, change});
  }
  std::stable_sort(actions.begin(), actions.end(),
                   [](const ScheduledAction& a, const ScheduledAction& b) {
                     return a.at < b.at;
                   });

  im.epoch = im.fabric->now();
  for (auto& runtime : im.runtimes) runtime->start();
  if (!actions.empty()) {
    im.scheduler = std::thread(
        [&im, actions = std::move(actions)]() mutable {
          im.scheduler_loop(std::move(actions));
        });
  }
  if (im.params.adaptive && im.params.adaptation.control.enabled) {
    im.plane_sampler = std::thread([&im] { im.sampler_loop(); });
  }

  ScenarioResults results;
  results.refused_broadcasts = im.run_senders();
  if (im.params.cooldown > 0) {
    std::this_thread::sleep_for(milliseconds(im.params.cooldown));
  }
  {
    std::lock_guard lock(im.sched_mutex);
    im.sched_stop = true;
  }
  im.sched_cv.notify_all();
  if (im.scheduler.joinable()) im.scheduler.join();
  if (im.plane_sampler.joinable()) im.plane_sampler.join();
  for (auto& runtime : im.runtimes) runtime->stop();

  // Every thread that touched the nodes or the tracker has stopped: read
  // them directly.
  results.p_local_ts = std::move(im.p_local_ts);
  std::vector<gossip::LpbcastNode*> nodes;
  std::vector<std::size_t> depth_samples;
  for (auto& runtime : im.runtimes) {
    nodes.push_back(&runtime->node());
    results.decode_failures += runtime->decode_drops();
    results.max_pending_depth =
        std::max(results.max_pending_depth, runtime->max_pending_depth());
    const auto samples = runtime->pending_depth_samples();
    depth_samples.insert(depth_samples.end(), samples.begin(), samples.end());
  }
  summarize_run(im.params, im.tracker, nodes, results);
  if (!depth_samples.empty()) {
    std::sort(depth_samples.begin(), depth_samples.end());
    const auto pct = [&depth_samples](double q) {
      return depth_samples[static_cast<std::size_t>(
          q * static_cast<double>(depth_samples.size() - 1))];
    };
    results.pending_depth_p50 = pct(0.50);
    results.pending_depth_p90 = pct(0.90);
    results.pending_depth_p99 = pct(0.99);
  }
  results.net = im.fabric->stats();
  results.peak_event_queue_len = im.fabric->max_queue_depth();
  if (im.fault_plane != nullptr) results.chaos = im.fault_plane->stats();
  return results;
}

}  // namespace agb::core
