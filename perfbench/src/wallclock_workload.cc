// The wall-clock workloads: baseline lpbcast NodeRuntimes over the
// in-memory fabric or UDP loopback, fed an open-loop Poisson broadcast
// load from the benchmark's own generator thread.
//
// Latency is timed from each broadcast's *due* time, so a stalled
// generator shows up as latency instead of silently thinning the load.
// The traced run wraps the fabric in a DatagramNetwork decorator that
// times send_batch and every inbound burst handler, and the generator
// times its own broadcast calls.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstdio>
#include <cstring>
#include <functional>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "common/config.h"
#include "core/scenario.h"
#include "core/scenario_registry.h"
#include "loadgen.h"
#include "runtime/inmemory_fabric.h"
#include "runtime/node_runtime.h"
#include "runtime/udp_transport.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

using agb::EventId;
using agb::NodeId;
using agb::TimeMs;

bool is_wallclock_workload(const std::string& name) {
  return name == "wallclock-inmemory" || name == "wallclock-udp";
}

namespace {

// wallclock-inmemory covers the largest messages (up to 120 one-KiB events
// per datagram), wallclock-udp the smallest (16-byte events), where
// per-datagram costs dominate. Both keep the load below saturation.
struct WallSpec {
  bool udp = false;
  std::size_t n = 32;
  double rate = 1000.0;
  std::size_t payload = 1024;
};

constexpr std::size_t kSenders = 4;
constexpr std::size_t kShards = 4;
constexpr std::int64_t kPeriodMs = 10;
// Receivers adopt the highest age they see, and with T = 10 ms over
// sub-millisecond links an event hops several times per period, so ages
// grow several times faster than rounds. At paper60's max_age 12 about one
// broadcast in 10^3-10^4 then dies one receiver short; at 20 none did in
// any run, so no offered broadcast fails.
constexpr int kMaxAge = 20;
// The window is cut into one-second slices, at most this many. CPU per
// delivery and the latency percentiles are taken per slice and reported as
// the median over slices, so a stall of a few hundred ms on a shared host
// moves one slice rather than the whole figure. In a 150 s recording of
// wallclock-udp, the median CPU per delivery spread 9% across 10 s windows
// and 5% across 20 s windows.
constexpr std::size_t kMaxSlices = 60;
// paper60's fixed 1 ms link delay; subtracted from in-memory dispatch waits.
constexpr Nanos kInMemoryDelayNs = 1'000'000;

WallSpec spec_for(const std::string& workload) {
  if (workload == "wallclock-udp") return WallSpec{true, 16, 200.0, 16};
  return WallSpec{false, 32, 1000.0, 1024};
}

agb::core::ScenarioParams group_params(const WallSpec& spec,
                                       std::uint64_t seed) {
  agb::Config cfg;
  cfg.set("n", std::to_string(spec.n));
  cfg.set("senders", std::to_string(kSenders));
  cfg.set("period_ms", std::to_string(kPeriodMs));
  cfg.set("payload", std::to_string(spec.payload));
  cfg.set("seed", std::to_string(seed));
  cfg.set("max_age", std::to_string(kMaxAge));
  return agb::core::ScenarioRegistry::instance().build("paper60", cfg);
}

std::uint64_t payload_key(NodeId from, const agb::SharedBytes& payload) {
  // The gossip header (sender, round, ...) leads the payload, so its first
  // bytes identify one round's message of one sender.
  std::uint64_t h = 0xcbf29ce484222325ull ^ from;
  const std::size_t len = std::min<std::size_t>(payload.size(), 64);
  for (std::size_t i = 0; i < len; ++i) {
    h = (h ^ payload.data()[i]) * 0x100000001b3ull;
  }
  return h ^ (static_cast<std::uint64_t>(payload.size()) << 40);
}

/// Times every send_batch and inbound burst of the fabric it wraps, and
/// measures each datagram's dispatch wait: from its send to the entry of
/// the handler that receives it, minus the configured link delay.
class TracingNetwork final : public agb::DatagramNetwork {
 public:
  TracingNetwork(agb::DatagramNetwork& inner, Tracer& tracer, std::size_t n,
                 Nanos link_delay_ns)
      : inner_(inner),
        tracer_(tracer),
        send_layer_(tracer.layer("runtime.send_batch")),
        recv_layer_(tracer.layer("runtime.recv_burst")),
        link_delay_ns_(link_delay_ns),
        stamps_(n) {}

  void attach(NodeId node, agb::DatagramHandler handler) override {
    attach_batch(node, [handler = std::move(handler)](
                           const agb::Datagram* batch, std::size_t count,
                           TimeMs now) {
      for (std::size_t i = 0; i < count; ++i) handler(batch[i], now);
    });
  }

  void attach_batch(NodeId node, agb::BatchHandler handler) override {
    inner_.attach_batch(node, [this, handler = std::move(handler)](
                                  const agb::Datagram* batch,
                                  std::size_t count, TimeMs now) {
      note_burst(batch, count, now_ns());
      Span span(&tracer_, recv_layer_);
      handler(batch, count, now);
    });
  }

  void detach(NodeId node) override { inner_.detach(node); }

  void send_batch(agb::Multicast batch) override {
    if (batch.from < stamps_.size()) {
      Stamps& s = stamps_[batch.from];
      std::lock_guard lock(s.mutex);
      s.ring[s.next++ % s.ring.size()] = {payload_key(batch.from, batch.payload),
                                          now_ns()};
    }
    {
      std::lock_guard lock(mutex_);
      ++batches_;
      datagrams_sent_ += batch.targets.size();
      bytes_sent_ += batch.payload.size() * batch.targets.size();
    }
    Span span(&tracer_, send_layer_);
    inner_.send_batch(std::move(batch));
  }

  struct Counts {
    std::uint64_t batches = 0;
    std::uint64_t datagrams_sent = 0;
    std::uint64_t bytes_sent = 0;
    std::uint64_t bursts = 0;
    std::uint64_t datagrams_received = 0;
    std::uint64_t unmatched = 0;  // received with no send stamp found
  };
  [[nodiscard]] Counts counts() const {
    std::lock_guard lock(mutex_);
    return Counts{batches_, datagrams_sent_, bytes_sent_,
                  bursts_,  received_,       unmatched_};
  }
  [[nodiscard]] std::vector<double> waits_ms() const {
    std::lock_guard lock(mutex_);
    return waits_ms_;
  }

 private:
  struct Stamps {
    std::mutex mutex;
    // 128 rounds of one sender: over a second at T = 10 ms, far beyond
    // any dispatch wait short of saturation.
    std::array<std::pair<std::uint64_t, Nanos>, 128> ring{};
    std::size_t next = 0;
  };

  void note_burst(const agb::Datagram* batch, std::size_t count, Nanos entry) {
    std::vector<double> waits;
    waits.reserve(count);
    std::uint64_t unmatched = 0;
    for (std::size_t i = 0; i < count; ++i) {
      const agb::Datagram& d = batch[i];
      if (d.from >= stamps_.size()) {
        ++unmatched;
        continue;
      }
      const std::uint64_t key = payload_key(d.from, d.payload);
      Stamps& s = stamps_[d.from];
      std::lock_guard lock(s.mutex);
      const auto it = std::find_if(s.ring.begin(), s.ring.end(),
                                   [key](const auto& e) { return e.first == key; });
      if (it == s.ring.end()) {
        ++unmatched;
        continue;
      }
      waits.push_back(static_cast<double>(entry - it->second - link_delay_ns_) /
                      1e6);
    }
    std::lock_guard lock(mutex_);
    ++bursts_;
    received_ += count;
    unmatched_ += unmatched;
    waits_ms_.insert(waits_ms_.end(), waits.begin(), waits.end());
  }

  agb::DatagramNetwork& inner_;
  Tracer& tracer_;
  std::uint32_t send_layer_;
  std::uint32_t recv_layer_;
  Nanos link_delay_ns_;
  std::vector<Stamps> stamps_;  // per sender, sized once

  mutable std::mutex mutex_;  // guards the counters and waits below
  std::uint64_t batches_ = 0;
  std::uint64_t datagrams_sent_ = 0;
  std::uint64_t bytes_sent_ = 0;
  std::uint64_t bursts_ = 0;
  std::uint64_t received_ = 0;
  std::uint64_t unmatched_ = 0;
  std::vector<double> waits_ms_;
};

struct Delivery {
  EventId id;
  Nanos at = 0;
};

/// A running group. Members are declared so that destruction stops the
/// runtimes first, then frees what their handlers write to, then the
/// fabric.
struct Group {
  std::unique_ptr<agb::runtime::InMemoryFabric> memory;
  std::unique_ptr<agb::runtime::UdpTransport> udp;
  std::unique_ptr<TracingNetwork> tracing;
  /// Per node; each written only by its node's deliver handler, which the
  /// runtime serialises under its node lock. Read after stop().
  std::vector<std::vector<Delivery>> deliveries;
  std::vector<std::unique_ptr<agb::runtime::NodeRuntime>> nodes;
};

std::unique_ptr<Group> build_group(const agb::core::ScenarioParams& p,
                                   const WallSpec& spec, std::uint16_t port,
                                   Tracer* tracer) {
  auto g = std::make_unique<Group>();
  agb::Rng master(p.seed);
  agb::DatagramNetwork* net = nullptr;
  std::function<TimeMs()> clock;
  if (spec.udp) {
    g->udp = std::make_unique<agb::runtime::UdpTransport>(port);
    net = g->udp.get();
    clock = [udp = g->udp.get()] { return udp->now(); };
  } else {
    agb::runtime::InMemoryFabric::Params fp;
    fp.shards = kShards;
    fp.sampler = agb::sim::DelaySampler(p.network.latency, p.network.clusters,
                                        p.network.wan_latency);
    fp.clusters = p.network.clusters;
    g->memory = std::make_unique<agb::runtime::InMemoryFabric>(
        fp, master.split().next());
    net = g->memory.get();
    clock = [memory = g->memory.get()] { return memory->now(); };
  }
  if (tracer != nullptr) {
    g->tracing = std::make_unique<TracingNetwork>(
        *net, *tracer, p.n, spec.udp ? 0 : kInMemoryDelayNs);
    net = g->tracing.get();
  }
  const auto cluster_map = agb::core::scenario_cluster_map(p);
  g->deliveries.resize(p.n);
  for (std::size_t i = 0; i < p.n; ++i) {
    const auto id = static_cast<NodeId>(i);
    auto runtime = std::make_unique<agb::runtime::NodeRuntime>(
        agb::core::build_scenario_node(p, id, master, cluster_map), *net,
        clock);
    std::vector<Delivery>* sink = &g->deliveries[i];
    runtime->set_deliver_handler(
        [sink, id](const agb::gossip::Event& e, TimeMs) {
          if (e.id.origin == id) return;  // the origin's local delivery
          sink->push_back(Delivery{e.id, now_ns()});
        });
    g->nodes.push_back(std::move(runtime));
  }
  return g;
}

void sleep_until_ns(Nanos t) {
  const Nanos now = now_ns();
  if (t > now) std::this_thread::sleep_for(std::chrono::nanoseconds(t - now));
}

std::uint64_t total_rounds(const Group& g) {
  std::uint64_t rounds = 0;
  for (const auto& node : g.nodes) rounds += node->counters().rounds;
  return rounds;
}

/// Everything one measured window yields.
struct Window {
  // Medians over the window's slices (see kMaxSlices).
  double cpu_us_per_delivery = 0.0;
  double deliver_p50_ms = 0.0;
  double deliver_p99_ms = 0.0;
  double setup_s = 0.0;  // medians of the samples below
  double teardown_s = 0.0;
  std::vector<double> setup_samples;
  std::vector<double> teardown_samples;
  double window_s = 0.0;
  double cpu_s = 0.0;
  double active_s = 0.0;  // first start to stop
  double active_cpu_s = 0.0;
  double rounds_node_s = 0.0;
  std::uint64_t broadcasts = 0;
  std::uint64_t remote = 0;
  std::uint64_t remote_in_window = 0;
  std::uint64_t incomplete = 0;  // broadcasts short of n-1 receivers
  double receivers_pct_sum = 0.0;
  std::vector<double> latency_ms;
  std::vector<double> late_ms;
  std::vector<double> broadcast_us;
  agb::gossip::NodeCounters counters;  // summed over nodes
  std::uint64_t queue_depth_max = 0;
  std::uint64_t send_syscalls = 0;
  std::uint64_t recv_syscalls = 0;
  std::uint64_t send_retries = 0;
  TracingNetwork::Counts traced;
  std::vector<double> dispatch_wait_ms;
};

Window run_window(const Options& o, const WallSpec& spec,
                  const agb::core::ScenarioParams& p, Tracer* tracer,
                  RunResult& result) {
  Window w;
  const Nanos period_ns = kPeriodMs * 1'000'000;
  const auto senders = agb::core::scenario_sender_ids(p.n, kSenders);
  const auto schedule = arrival_schedule(
      LoadSpec{o.seed, spec.rate, o.seconds, senders.size()});
  const std::size_t expected = schedule.size() + 1024;

  // Set-up and teardown are the process CPU time spent building a group
  // (fabric, nodes, runtimes; UDP binds its sockets and starts its receive
  // threads) and stopping and destroying it, over several groups, each run
  // for a few rounds so that teardown stops live threads. CPU time is the
  // work; the wall time of these few milliseconds is mostly thread wake-up
  // latency, which swings by 2x on a shared host. The group built last is
  // the measured one. UDP moves to another port range when a port is taken.
  std::vector<double> setup, teardown;
  std::unique_ptr<Group> g;
  std::uint32_t attempt = 0;
  const auto build_timed = [&]() {
    for (;;) {
      const auto port = static_cast<std::uint16_t>(
          20000 + ((o.seed * 7919 + attempt * 104729) % 30000) / 32 * 32);
      const Nanos t0 = process_cpu_ns();
      try {
        g = build_group(p, spec, port, tracer);
      } catch (const std::runtime_error&) {
        g.reset();
        if (++attempt > 20) throw;
        continue;
      }
      // Threads the build started (UDP receive threads, fabric
      // dispatchers) finish their own start-up (buffer pools, first page
      // touches) asynchronously; let them settle so it is all counted.
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      setup.push_back(static_cast<double>(process_cpu_ns() - t0) / 1e9);
      return;
    }
  };
  const Nanos setup_budget_end = now_ns() + 1'000'000'000;
  while (setup.size() < 5 ||
         (setup.size() < 25 && now_ns() < setup_budget_end)) {
    build_timed();
    for (auto& node : g->nodes) node->start();
    sleep_until_ns(now_ns() + 3 * period_ns);
    const Nanos t0 = process_cpu_ns();
    for (auto& node : g->nodes) node->stop();
    g.reset();
    teardown.push_back(static_cast<double>(process_cpu_ns() - t0) / 1e9);
  }
  build_timed();
  w.setup_s = median(setup);
  for (auto& sink : g->deliveries) sink.reserve(expected);

  // Staggered starts: seeded phases over one gossip period, so rounds are
  // unsynchronised like the simulator's.
  const auto phases = start_phases(o.seed, p.n, period_ns);
  std::vector<std::size_t> order(p.n);
  for (std::size_t i = 0; i < p.n; ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&phases](std::size_t a, std::size_t b) {
              return phases[a] < phases[b];
            });
  const Nanos t_start = now_ns();
  const Nanos cpu_start = process_cpu_ns();
  for (std::size_t i : order) {
    sleep_until_ns(t_start + phases[i]);
    g->nodes[i]->start();
  }
  sleep_until_ns(t_start + 6 * period_ns);  // every node has gossiped

  const std::uint32_t bcast_layer =
      tracer != nullptr ? tracer->layer("loadgen.broadcast") : 0;
  std::unordered_map<EventId, std::size_t> index;
  index.reserve(schedule.size() * 2);
  std::vector<Nanos> due(schedule.size());
  w.late_ms.reserve(schedule.size());
  if (tracer != nullptr) w.broadcast_us.reserve(schedule.size());

  const Nanos window_ns = static_cast<Nanos>(o.seconds * 1e9);
  const std::size_t slices = std::clamp<std::size_t>(
      static_cast<std::size_t>(o.seconds), 1, kMaxSlices);
  const Nanos slice_ns = window_ns / static_cast<Nanos>(slices);
  std::vector<Nanos> slice_at(slices + 1), slice_cpu(slices + 1);
  std::size_t next_slice = 1;

  const std::uint64_t rounds0 = total_rounds(*g);
  const Nanos cpu0 = process_cpu_ns();
  const Nanos w0 = now_ns();
  slice_at[0] = w0;
  slice_cpu[0] = cpu0;
  const auto mark_slices = [&](Nanos now) {
    for (; next_slice < slices &&
           now >= w0 + static_cast<Nanos>(next_slice) * slice_ns;
         ++next_slice) {
      slice_cpu[next_slice] = process_cpu_ns();
      slice_at[next_slice] = now_ns();
    }
  };
  for (std::size_t k = 0; k < schedule.size(); ++k) {
    due[k] = w0 + schedule[k].due_ns;
    sleep_until_ns(due[k]);
    mark_slices(now_ns());
    std::vector<std::uint8_t> bytes(spec.payload, 0x5a);
    std::memcpy(bytes.data(), &k, std::min(sizeof k, bytes.size()));
    auto payload = agb::gossip::make_payload(std::move(bytes));
    auto& runtime = *g->nodes[senders[schedule[k].sender]];
    const Nanos issued = now_ns();
    EventId id;
    {
      Span span(tracer, bcast_layer);
      id = runtime.broadcast(std::move(payload));
    }
    if (tracer != nullptr) {
      w.broadcast_us.push_back(static_cast<double>(now_ns() - issued) / 1e3);
    }
    w.late_ms.push_back(static_cast<double>(issued - due[k]) / 1e6);
    index.emplace(id, k);
  }
  sleep_until_ns(w0 + window_ns);
  mark_slices(now_ns());
  const Nanos cpu1 = process_cpu_ns();
  const Nanos w1 = now_ns();
  slice_at[slices] = w1;
  slice_cpu[slices] = cpu1;
  const std::uint64_t rounds1 = total_rounds(*g);
  // Drain: every event has left every buffer after max_age rounds.
  sleep_until_ns(w1 + static_cast<Nanos>(p.gossip.max_age + 8) * period_ns);

  const Nanos stop0 = now_ns();
  const Nanos stop_cpu0 = process_cpu_ns();
  for (auto& node : g->nodes) node->stop();
  const Nanos stop_cpu1 = process_cpu_ns();
  w.active_s = static_cast<double>(stop0 - t_start) / 1e9;
  w.active_cpu_s = static_cast<double>(stop_cpu0 - cpu_start) / 1e9;
  w.window_s = static_cast<double>(w1 - w0) / 1e9;
  w.cpu_s = static_cast<double>(cpu1 - cpu0) / 1e9;
  w.rounds_node_s = static_cast<double>(rounds1 - rounds0) *
                    static_cast<double>(kPeriodMs) / 1000.0;
  w.broadcasts = schedule.size();

  for (const auto& node : g->nodes) {
    result.check(node->decode_drops() == 0,
                 "node " + std::to_string(node->id()) + " dropped " +
                     std::to_string(node->decode_drops()) +
                     " undecodable datagrams");
    const agb::gossip::NodeCounters c = node->counters();
    w.counters.events_received += c.events_received;
    w.counters.duplicates += c.duplicates;
    w.counters.drops_overflow += c.drops_overflow;
    w.counters.drops_age_limit += c.drops_age_limit;
  }
  if (g->udp) {
    result.check(g->udp->send_failures() == 0,
                 "UDP send failures: " +
                     std::to_string(g->udp->send_failures()));
    w.send_syscalls = g->udp->send_syscalls();
    w.recv_syscalls = g->udp->recv_syscalls();
    w.send_retries = g->udp->send_retries();
  } else {
    w.queue_depth_max = g->memory->max_queue_depth();
  }
  if (g->tracing) {
    w.traced = g->tracing->counts();
    w.dispatch_wait_ms = g->tracing->waits_ms();
  }

  // Every delivery must belong to a broadcast of this run, and no (event,
  // receiver) pair may be delivered twice.
  std::vector<std::uint64_t> reached(schedule.size(), 0);
  std::uint64_t foreign = 0, duplicate = 0;
  std::vector<std::uint64_t> slice_deliveries(slices, 0);
  std::vector<std::vector<double>> slice_latency(slices);
  w.latency_ms.reserve(schedule.size() * (p.n - 1));
  for (std::size_t r = 0; r < p.n; ++r) {
    for (const Delivery& d : g->deliveries[r]) {
      const auto it = index.find(d.id);
      if (it == index.end()) {
        ++foreign;
        continue;
      }
      const std::uint64_t bit = std::uint64_t{1} << r;
      if ((reached[it->second] & bit) != 0) {
        ++duplicate;
        continue;
      }
      reached[it->second] |= bit;
      ++w.remote;
      if (d.at >= w0 && d.at < w1) {
        ++w.remote_in_window;
        const auto next = std::upper_bound(slice_at.begin(), slice_at.end(),
                                           d.at);
        ++slice_deliveries[static_cast<std::size_t>(next - slice_at.begin()) -
                           1];
      }
      const double latency =
          static_cast<double>(d.at - due[it->second]) / 1e6;
      w.latency_ms.push_back(latency);
      slice_latency[std::min<std::size_t>(
                        static_cast<std::size_t>(
                            schedule[it->second].due_ns / slice_ns),
                        slices - 1)]
          .push_back(latency);
    }
  }
  result.check(foreign == 0, std::to_string(foreign) +
                                 " deliveries of events this run never sent");
  result.check(duplicate == 0, std::to_string(duplicate) +
                                   " (event, receiver) pairs delivered twice");
  for (std::size_t k = 0; k < reached.size(); ++k) {
    const auto receivers = static_cast<std::size_t>(std::popcount(reached[k]));
    if (receivers < p.n - 1 && ++w.incomplete <= 10) {
      std::printf("incomplete       : broadcast %zu from node %u due at %.3f s "
                  "reached %zu of %zu receivers\n",
                  k, senders[schedule[k].sender],
                  static_cast<double>(schedule[k].due_ns) / 1e9, receivers,
                  p.n - 1);
    }
    w.receivers_pct_sum +=
        100.0 * static_cast<double>(receivers + 1) / static_cast<double>(p.n);
  }

  std::vector<double> cpu_per_delivery, p50, p99;
  for (std::size_t j = 0; j < slices; ++j) {
    if (slice_deliveries[j] > 0) {
      cpu_per_delivery.push_back(
          static_cast<double>(slice_cpu[j + 1] - slice_cpu[j]) / 1e3 /
          static_cast<double>(slice_deliveries[j]));
    }
    const Percentiles slice = percentiles(std::move(slice_latency[j]));
    result.check(slice.count >= 1000,
                 "slice " + std::to_string(j) + " has " +
                     std::to_string(slice.count) +
                     " latency samples, fewer than the 1000 p99 needs");
    p50.push_back(slice.p50);
    p99.push_back(slice.p99);
  }
  w.cpu_us_per_delivery = median(cpu_per_delivery);
  w.deliver_p50_ms = median(p50);
  w.deliver_p99_ms = median(p99);

  const Nanos td0 = process_cpu_ns();
  g.reset();
  teardown.push_back(
      static_cast<double>(stop_cpu1 - stop_cpu0 + process_cpu_ns() - td0) /
      1e9);
  w.teardown_s = median(teardown);
  w.setup_samples = std::move(setup);
  w.teardown_samples = std::move(teardown);
  return w;
}

void print_window(const WallSpec& spec, const agb::core::ScenarioParams& p,
                  const Window& w, const Percentiles& lat,
                  const Percentiles& late) {
  std::printf(
      "group            : %zu lpbcast NodeRuntimes over %s, fanout %zu, "
      "T=%lld ms, buffer %zu\n",
      p.n, spec.udp ? "UdpTransport on 127.0.0.1" : "InMemoryFabric (4 shards)",
      p.gossip.fanout, static_cast<long long>(kPeriodMs), p.gossip.max_events);
  std::printf(
      "load             : %llu Poisson broadcasts at %.0f/s of %zu B over "
      "%.3f s; generator late p99 %.3f ms\n",
      static_cast<unsigned long long>(w.broadcasts), spec.rate, spec.payload,
      w.window_s, late.p99);
  std::printf(
      "delivery latency : p50 %.3f  p99 %.3f ms (median over 1 s slices); "
      "whole window p50 %.3f  p99 %.3f  p%.4g %.3f ms over %zu (event, "
      "receiver) pairs\n",
      w.deliver_p50_ms, w.deliver_p99_ms, lat.p50, lat.p99, lat.top_q * 100.0,
      lat.top, lat.count);
  const auto range = [](const std::vector<double>& v) {
    return std::make_pair(*std::min_element(v.begin(), v.end()),
                          *std::max_element(v.begin(), v.end()));
  };
  const auto [setup_min, setup_max] = range(w.setup_samples);
  const auto [down_min, down_max] = range(w.teardown_samples);
  std::printf(
      "host             : %.3f cpu-s in window (%.2f cores), %.3f us per "
      "delivery  setup %.5f cpu-s [%.5f, %.5f] x%zu  teardown %.5f cpu-s "
      "[%.5f, %.5f] x%zu\n",
      w.cpu_s, w.cpu_s / w.window_s, w.cpu_us_per_delivery, w.setup_s,
      setup_min, setup_max,
      w.setup_samples.size(), w.teardown_s, down_min, down_max,
      w.teardown_samples.size());
}

}  // namespace

RunResult run_wallclock_workload(const Options& o) {
  RunResult result;
  const WallSpec spec = spec_for(o.workload);
  const auto p = group_params(spec, o.seed);

  Window w = run_window(o, spec, p, nullptr, result);
  const double untraced_cpu_us_per_delivery = w.cpu_us_per_delivery;
  std::unique_ptr<Tracer> tracer;
  if (o.trace) {
    // The traced window repeats the same seed; its per-layer figures are
    // the result, and the untraced window above is its overhead baseline.
    tracer = std::make_unique<Tracer>(std::vector<std::string>{
        "loadgen.broadcast", "runtime.send_batch", "runtime.recv_burst"});
    w = run_window(o, spec, p, tracer.get(), result);
  }

  const Percentiles lat = percentiles(w.latency_ms);
  const Percentiles late = percentiles(w.late_ms);
  result.attempted = w.broadcasts;
  result.failed = w.incomplete;
  result.check(w.broadcasts > 0, "no broadcasts");
  result.check(lat.count >= 1000, "fewer than 1000 latency samples");
  result.check(w.remote_in_window > 0, "no deliveries inside the window");
  print_window(spec, p, w, lat, late);

  if (!o.trace) {
    result.put("setup_s", w.setup_s, "s");
    result.info["teardown_s"] = w.teardown_s;
    result.put("sim_node_s_per_s", w.rounds_node_s / w.window_s, "node-s/s");
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    result.put("peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0,
               "MiB");
    result.put("cpu_us_per_delivery", w.cpu_us_per_delivery, "us");
    result.put("avg_receivers_pct",
               w.receivers_pct_sum / static_cast<double>(w.broadcasts), "%");
    result.put("delivered_pct",
               100.0 * static_cast<double>(w.remote) /
                   (static_cast<double>(w.broadcasts) *
                    static_cast<double>(p.n - 1)),
               "%");
    result.put("admitted_pct", 100.0, "%");  // baseline broadcast never refuses
    result.put("deliver_p50_ms", w.deliver_p50_ms, "ms");
    result.put("deliver_p99_ms", w.deliver_p99_ms, "ms");
    result.info["latency_samples"] = static_cast<double>(lat.count);
    result.info["window_deliver_p50_ms"] = lat.p50;
    result.info["window_deliver_p99_ms"] = lat.p99;
    result.info["window_deliver_top_q"] = lat.top_q;
    result.info["window_deliver_top_ms"] = lat.top;
    result.info["generator_late_ms_p99"] = late.p99;
    return result;
  }

  put_per_layer_defaults(result);
  result.put("core.teardown_s", w.teardown_s, "s");
  const auto busy = [&tracer](const char* layer) {
    return static_cast<double>(tracer->totals(layer).busy_ns) / 1e9;
  };
  const Percentiles bcast = percentiles(w.broadcast_us);
  const Percentiles wait = percentiles(w.dispatch_wait_ms);
  const auto& t = w.traced;
  const auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };
  result.put("runtime.broadcast_us_p50", bcast.p50, "us");
  result.put("runtime.broadcast_us_p99", bcast.p99, "us");
  result.put("runtime.send_batch_s", busy("runtime.send_batch"), "s");
  result.put("runtime.recv_burst_s", busy("runtime.recv_burst"), "s");
  result.put("runtime.dispatch_wait_ms_p50", wait.p50, "ms");
  result.put("runtime.dispatch_wait_ms_p99", wait.p99, "ms");
  result.put("runtime.queue_depth_max", static_cast<double>(w.queue_depth_max),
             "count");
  result.put("runtime.burst_len_mean",
             ratio(static_cast<double>(t.datagrams_received),
                   static_cast<double>(t.bursts)),
             "count");
  if (spec.udp) {
    result.put("runtime.udp_send_syscalls_per_batch",
               ratio(static_cast<double>(w.send_syscalls),
                     static_cast<double>(t.batches)),
               "ratio");
    result.put("runtime.udp_recv_syscalls_per_datagram",
               ratio(static_cast<double>(w.recv_syscalls),
                     static_cast<double>(t.datagrams_received)),
               "ratio");
    result.put("runtime.udp_send_retries", static_cast<double>(w.send_retries),
               "count");
  }
  const double receive_threads =
      static_cast<double>(spec.udp ? p.n : kShards);
  result.put("runtime.recv_busy_share",
             busy("runtime.recv_burst") / (w.active_s * receive_threads),
             "ratio");
  result.put("gossip.bytes_per_datagram",
             ratio(static_cast<double>(t.bytes_sent),
                   static_cast<double>(t.datagrams_sent)),
             "B");
  const double received =
      static_cast<double>(w.counters.events_received + w.counters.duplicates);
  result.put("gossip.novel_ratio",
             ratio(static_cast<double>(w.counters.events_received), received),
             "ratio");
  result.put("gossip.drops_overflow",
             static_cast<double>(w.counters.drops_overflow), "count");
  result.put("gossip.drops_age_limit",
             static_cast<double>(w.counters.drops_age_limit), "count");
  result.put("loadgen.late_ms_p99", late.p99, "ms");
  result.put("trace.overhead_pct",
             100.0 * (w.cpu_us_per_delivery - untraced_cpu_us_per_delivery) /
                 untraced_cpu_us_per_delivery,
             "%");
  const double spans = busy("loadgen.broadcast") +
                       busy("runtime.send_batch") + busy("runtime.recv_burst");
  result.put("trace.unattributed_pct",
             100.0 * (w.active_cpu_s - spans) / w.active_cpu_s, "%");
  result.info["dispatch_wait_unmatched"] = static_cast<double>(t.unmatched);
  std::printf(
      "trace            : cpu/delivery traced %.3f us vs untraced %.3f us "
      "(%+.1f%%); spans cover %.3f s of %.3f cpu-s; dispatch wait p50 "
      "%.3f p99 %.3f ms over %zu datagrams (%llu unmatched)\n",
      w.cpu_us_per_delivery, untraced_cpu_us_per_delivery,
      result.metrics["trace.overhead_pct"].value, spans, w.active_cpu_s,
      wait.p50, wait.p99, wait.count,
      static_cast<unsigned long long>(t.unmatched));
  // Waits: how late the generator issued its broadcasts, and how long
  // datagrams waited between send and their receive handler.
  print_layer_table(*tracer, static_cast<std::int64_t>(w.active_s * 1e9),
                    {{"loadgen.broadcast", late}, {"runtime.recv_burst", wait}});
  if (!o.trace_out.empty() && !tracer->write_chrome_trace(o.trace_out)) {
    result.failures.push_back("cannot write " + o.trace_out);
  }
  return result;
}

}  // namespace perfbench
