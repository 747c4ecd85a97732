#include "core/wallclock_scenario.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <optional>
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
  sim::DelaySampler sampler(p.network.latency, p.network.clusters,
                            p.network.wan_latency);
  for (const ScenarioParams::LinkLatency& link : p.link_latencies) {
    sampler.set_link_override(link.a, link.b, link.model);
  }
  fp.sampler = std::move(sampler);
  fp.clusters = p.network.clusters;
  return fp;
}

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

  bool ran = false;

  [[nodiscard]] TimeMs rel_now() const { return fabric->now() - epoch; }

  /// Sleeps until the fabric clock reaches run-relative time `at`.
  void sleep_until(TimeMs at) const {
    for (TimeMs now = rel_now(); now < at; now = rel_now()) {
      std::this_thread::sleep_for(milliseconds(at - now));
    }
  }

  void apply_failure(const FailureEvent& event) {
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
  }

  void apply_capacity(const CapacityChange& change) {
    for (std::size_t i = 0; i < capacity_targets(change, params.n); ++i) {
      runtimes[i]->set_capacity(change.new_capacity);
    }
  }
};

WallclockScenario::WallclockScenario(ScenarioParams params,
                                     WallclockOptions options)
    : impl_(std::make_unique<Impl>(std::move(params), options)) {}

WallclockScenario::~WallclockScenario() = default;

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
            // The origin's local delivery fires inside admit(), under the
            // node lock — before the round thread can emit the event.
            // Registering the broadcast here (not after admit() returns on
            // the driving thread) means no remote delivery can ever reach
            // the tracker before its record exists.
            im.tracker.on_broadcast(e.id, id, t);
            im.tracker.on_delivery(e.id, id, t);
            return;
          }
          im.tracker.on_delivery(e.id, id, t);
        });
    im.runtimes.push_back(std::move(runtime));
  }

  // The paced clock, in run-relative milliseconds. Events go on it in the
  // simulators' order: the senders (retry tick, then first arrival, each
  // on its own master-RNG split), the series sampler, then the capacity
  // and failure schedules.
  sim::Simulator clock;
  std::vector<std::unique_ptr<SenderQueue>> senders;
  const auto sender_ids = scenario_sender_ids(im.params.n, im.params.senders);
  const double per_sender =
      im.params.offered_rate / static_cast<double>(sender_ids.size());
  for (NodeId id : sender_ids) {
    runtime::NodeRuntime* node = im.runtimes[id].get();
    senders.push_back(std::make_unique<SenderQueue>(
        im.params, id, per_sender, im.master_rng.split(),
        [node](gossip::Payload payload, std::uint32_t stream,
               bool supersedes) {
          return node->admit(std::move(payload), stream, supersedes);
        }));
    senders.back()->start(clock);
  }
  ScenarioResults results;
  std::optional<sim::PeriodicTimer> sampler;
  if (im.params.adaptive) {
    sampler.emplace(clock, 200, 200, [&im, &senders, &results](TimeMs now) {
      AdaptationSample sample(senders, im.params.adaptation.control.enabled);
      for (auto& runtime : im.runtimes) {
        runtime->with_node([&sample](gossip::LpbcastNode& node) {
          sample.add(dynamic_cast<adaptive::AdaptiveLpbcastNode&>(node));
        });
      }
      sample.record(now, results);
    });
  }
  for (const CapacityChange& change : im.params.capacity_schedule) {
    clock.at(change.at, [&im, change] { im.apply_capacity(change); });
  }
  for (const FailureEvent& event : im.params.failure_schedule) {
    clock.at(event.at, [&im, event] { im.apply_failure(event); });
  }

  im.epoch = im.fabric->now();
  for (auto& runtime : im.runtimes) runtime->start();
  // Sleep until the fabric clock reaches the next event, then step it. A
  // late event runs late, but reschedules from its own time, so lateness
  // never accumulates into the arrival process.
  const TimeMs horizon =
      im.params.warmup + im.params.duration + im.params.cooldown;
  for (auto next = clock.next_event_time(); next && *next <= horizon;
       next = clock.next_event_time()) {
    im.sleep_until(*next);
    clock.step();
  }
  im.sleep_until(horizon);
  for (auto& runtime : im.runtimes) runtime->stop();

  // Every thread that touched the nodes or the tracker has stopped: read
  // them directly.
  std::vector<gossip::LpbcastNode*> nodes;
  for (auto& runtime : im.runtimes) {
    nodes.push_back(&runtime->node());
    results.decode_failures += runtime->decode_drops();
  }
  summarize_run(im.params, im.tracker, nodes, senders, results);
  results.net = im.fabric->stats();
  results.peak_event_queue_len = im.fabric->max_queue_depth();
  if (im.fault_plane != nullptr) results.chaos = im.fault_plane->stats();
  return results;
}

}  // namespace agb::core
