// agb_sim — the general experiment driver.
//
// A thin lookup into core::ScenarioRegistry: pick a named preset, override
// any key on the command line, run, report. Downstream users run custom
// experiments without writing C++:
//
//   agb_sim list=1                             # catalogue of presets
//   agb_sim scenario=fig9 adaptive=1 csv=run1
//   agb_sim scenario=burst-loss n=120 duration_s=300
//   agb_sim n=100 rate=40 adaptive=1 buffer=80 loss=0.05   # paper60 base
//
// sweep=<axis>:<lo>:<hi>:<step> reruns the preset once per axis value and
// prints one summary row per run — the registry-driven replacement for the
// hand-rolled per-figure sweep loops:
//   agb_sim scenario=fig2 sweep=rate:10:60:10 quick=1      # fig2's rate axis
//   agb_sim scenario=fig4 sweep=buffer:30:180:30           # fig4's buffer axis
// Any numeric key works as the axis; other overrides apply to every run.
// With csv=prefix the same rows land in <prefix>_sweep.csv.
//
// Keys (defaults in parentheses; presets change some of them — see
// src/core/scenario_registry.cc):
//   scenario(paper60) quick(0)
//   n(60) senders(4) rate(30) adaptive(0) partial_view(0) payload(16)
//   poisson(1) supersede(0) pending_cap(64) view_max/view_subs/view_unsubs
//   fanout(4) period_ms(2000) buffer(120) event_ids(4000) max_age(12)
//   semantic_purge(0)
//   tau_ms(2*period) window(2) alpha(0.9) critical_age(8) low_mark high_mark
//   delta_d(0.1) delta_i(0.1) gamma(0.1) bucket(8) initial_rate robust_k(1)
//   robust_floor(0) idle_age_boost(1)
//   recovery(0) repair_after(2) give_up_after(8) retrieve_rounds(6)
//   latency=fixed:ms | uniform:lo:hi | normal:mean:stddev   (fixed:1)
//   wan_latency=<same grammar>  clusters(1)
//   locality(0) p_local(0.85) bridges_per_cluster(1) failure_detector(0)
//   control_plane(0) control_hysteresis(0.25) p_local_min(0.5)
//   p_local_max(0.98) p_local_step(0.02) fanout_congested_scale(0.75)
//   fanout_spare_scale(1.25) starve_threshold(0.05)
//   gossip_membership(0) suspect_after_ms(4*period) down_after_ms(8*period)
//   membership_budget(256) migrate_on_rejoin(0)
//   loss=p (iid) | burst:pgood:pbad:pgb:pbg                 (0)
//   capacity=at_ms:frac:cap[,...]     failures=at_ms:node:up|down[,...]
//   chaos=rule[,rule...]   deterministic fault injection (fault::FaultPlane)
//       rule = kind:args[@start[s]-end[s]]  (window in seconds, absolute)
//       kinds: corrupt:p truncate:p dup:p reorder:p[:ms] oneway:a:b|*
//              stall:node:ms skew:node:ms
//       e.g. chaos=corrupt:0.05@5s-15s,oneway:3:*@5s-15s — malformed specs
//       exit 2 with a "did you mean" hint; presets chaos-soak /
//       asymmetric-partition / gray-failure carry calibrated schedules
//   sim_shards(1) sim_workers(0=auto) lookahead_ms(0=derive)
//       sim_shards>1 runs the preset on the multi-core sharded simulator
//       (core::ShardedScenario): per-shard event queues + clocks stepped in
//       conservative lookahead windows, all deliveries window-batched.
//       Scenario-visible results are shard- and worker-count invariant;
//       sim_shards<=1 keeps the classic single-queue engine (byte-identical
//       golden traces). lookahead_ms overrides the window length derived
//       from the minimum network delay — raising it coarsens the delay
//       floor.
//   warmup_s(40) duration_s(150) cooldown_s(30) bucket_s(5) seed(42)
//   csv=prefix   (writes <prefix>_series.csv)
//   bench=path.json   (sim fabric: writes a BENCH_sim_scale record —
//                      preset, n, sim_seconds, wall_seconds (construction
//                      + run(), no teardown), nodes_simulated_per_second,
//                      bytes_per_node, peak_event_queue_len — for the perf
//                      trajectory; pair with scenario=scale-1e5 / scale-1e6.
//                      with chaos active it writes a BENCH_chaos record
//                      instead — recovery-rounds p50/p99 (post-fault
//                      latency over the gossip period), post-chaos
//                      receiver %, injection + decode-drop counters; pair
//                      with scenario=chaos-soak.
//                      inmemory fabric: writes a BENCH_backpressure record —
//                      pending-queue depth p50/p90/p99/max, avg p_local,
//                      avg effective fanout; pair with
//                      scenario=adaptive-backpressure)
//
// fabric=inmemory runs the preset on the wall-clock runtime instead of the
// simulator: real NodeRuntime threads over the sharded InMemoryFabric
// (shards=N receiver shards, default 4), via core::WallclockScenario. The
// full preset runs for real — partial views, locality bias + bridges, WAN
// cluster delays (all latency models, including normal and per-link
// overrides, via the shared sim::DelaySampler), burst loss, failure and
// capacity schedules, and the adaptive control plane with real blocking
// back-pressure. duration_s is then real seconds — keep it small:
//   agb_sim scenario=wan-directional fabric=inmemory n=30 period_ms=50 duration_s=5
//
// Every engine prints the same report (core::ScenarioResults); only the
// engine line differs. "delivery throughput" is the network's delivered
// datagrams over the wall time of construction + run().
#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/config.h"
#include "core/scenario.h"
#include "core/scenario_registry.h"
#include "core/sharded_scenario.h"
#include "core/wallclock_scenario.h"
#include "metrics/table.h"
#include "metrics/timeseries.h"

namespace {

/// Formats an axis value the way a user would type it: integral values
/// without a decimal point, so integer keys (n, buffer, fanout) parse.
std::string format_axis_value(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.10g", value);
  return buf;
}

/// Runs the preset once per axis value and prints one row per run.
int run_sweep(const agb::core::ScenarioPreset& preset, const agb::Config& cfg,
              const agb::core::SweepSpec& sweep,
              const std::string& csv_prefix) {
  using namespace agb;
  const std::vector<std::string> columns{
      sweep.axis,     "input_msg_s",   "output_msg_s", "atomic_pct",
      "avg_recv_pct", "drop_age_hops", "ovf_drops"};
  metrics::Table table(columns);
  std::vector<std::vector<double>> rows;
  for (double value : sweep.values()) {
    Config run_cfg = cfg;  // fresh copy: the axis override must not stick
    run_cfg.set(sweep.axis, format_axis_value(value));
    core::ScenarioParams params;
    try {
      params = preset.build(run_cfg);
    } catch (const std::invalid_argument& e) {
      std::fprintf(stderr, "agb_sim: %s\n", e.what());
      return 2;
    }
    if (rows.empty()) {  // typo detection once, on the first resolved run
      for (const auto& key : run_cfg.unused_keys()) {
        std::fprintf(stderr, "agb_sim: warning: unknown key '%s'\n",
                     key.c_str());
      }
    }
    core::Scenario scenario(params);
    auto r = scenario.run();
    rows.push_back({value, r.input_rate, r.output_rate,
                    r.delivery.atomicity_pct, r.delivery.avg_receiver_pct,
                    r.avg_drop_age, static_cast<double>(r.overflow_drops)});
    table.add_numeric_row(rows.back(), 2);
  }
  std::printf("sweep            : %s over %s [%s..%s step %s]\n",
              preset.name.c_str(), sweep.axis.c_str(),
              format_axis_value(sweep.lo).c_str(),
              format_axis_value(sweep.hi).c_str(),
              format_axis_value(sweep.step).c_str());
  table.print(std::cout);
  if (!csv_prefix.empty()) {
    const std::string path = csv_prefix + "_sweep.csv";
    std::ofstream out(path);
    if (!out) {
      std::fprintf(stderr, "agb_sim: cannot write %s\n", path.c_str());
      return 1;
    }
    for (std::size_t i = 0; i < columns.size(); ++i) {
      out << (i ? "," : "") << columns[i];
    }
    out << "\n";
    for (const auto& row : rows) {
      for (std::size_t i = 0; i < row.size(); ++i) {
        out << (i ? "," : "") << metrics::fmt(row[i], 4);
      }
      out << "\n";
    }
    std::printf("csv              : %s (%zu rows)\n", path.c_str(),
                rows.size());
  }
  return 0;
}

/// One bench record: a flat JSON object written in key order. Values are
/// preformatted JSON (numbers bare, strings already quoted).
using BenchRecord = std::vector<std::pair<const char*, std::string>>;

std::string fixed(double value, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, value);
  return buf;
}

std::string quoted(const std::string& text) { return "\"" + text + "\""; }

int write_bench_record(const std::string& path, const BenchRecord& record) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "agb_sim: cannot write %s\n", path.c_str());
    return 1;
  }
  out << "{\n";
  for (std::size_t i = 0; i < record.size(); ++i) {
    out << "  \"" << record[i].first << "\": " << record[i].second
        << (i + 1 < record.size() ? ",\n" : "\n");
  }
  out << "}\n";
  std::printf("bench record     : %s\n", path.c_str());
  return 0;
}

/// The run report, the same on every engine; only `engine` differs.
/// "delivery throughput" is net.delivered over `wall_seconds`, the wall
/// time of construction + run().
void print_report(const agb::core::ScenarioParams& p,
                  const agb::core::ScenarioPreset& preset,
                  const std::string& engine,
                  const agb::core::ScenarioResults& r, double wall_seconds) {
  using ull = unsigned long long;
  std::printf("scenario         : %s (%s)\n", preset.name.c_str(),
              preset.summary.c_str());
  std::printf("engine           : %s\n", engine.c_str());
  std::printf("algorithm        : %s%s%s%s\n",
              p.adaptive ? "adaptive" : "lpbcast",
              p.gossip.recovery.enabled ? " + recovery" : "",
              p.partial_view ? " + partial views" : "",
              p.locality.enabled ? " + locality bias" : "");
  std::printf("group            : %zu nodes, %zu senders, fanout %zu, "
              "T=%lld ms, buffer %zu\n",
              p.n, agb::core::scenario_sender_ids(p.n, p.senders).size(),
              p.gossip.fanout, static_cast<long long>(p.gossip.gossip_period),
              p.gossip.max_events);
  std::printf("offered load     : %.2f msg/s   admitted: %.2f msg/s   "
              "output: %.2f msg/s\n",
              p.offered_rate, r.input_rate, r.output_rate);
  std::printf("reliability      : avg receivers %.2f%%   atomic (>95%%) "
              "%.2f%%   (%llu messages evaluated)\n",
              r.delivery.avg_receiver_pct, r.delivery.atomicity_pct,
              static_cast<ull>(r.delivery.messages));
  std::printf("latency to atomic: p50 %.0f ms   p99 %.0f ms\n",
              r.delivery.latency_p50_ms, r.delivery.latency_p99_ms);
  std::printf("drops            : overflow %llu (avg age %.2f hops)   "
              "age-limit %llu\n",
              static_cast<ull>(r.overflow_drops), r.avg_drop_age,
              static_cast<ull>(r.age_limit_drops));
  if (p.adaptive) {
    std::printf("adaptation       : allowed %.2f msg/s (final %.2f)   "
                "minBuff %.1f   avgAge %.2f   refused %llu\n",
                r.avg_allowed_rate, r.final_allowed_rate, r.avg_min_buff,
                r.avg_age_estimate, static_cast<ull>(r.refused_broadcasts));
  }
  if (p.adaptive && p.adaptation.control.enabled) {
    std::printf("control plane    : avg p_local %.3f   avg fanout %.2f   "
                "pending depth p50/p90/p99/max %zu/%zu/%zu/%zu (cap %zu)\n",
                r.avg_p_local, r.avg_effective_fanout, r.pending_depth_p50,
                r.pending_depth_p90, r.pending_depth_p99, r.max_pending_depth,
                p.pending_cap);
  }
  if (p.gossip.recovery.enabled) {
    std::printf("recovery         : %llu requests, %llu replies, %llu "
                "events recovered\n",
                static_cast<ull>(r.repair_requests),
                static_cast<ull>(r.repair_replies),
                static_cast<ull>(r.events_recovered));
  }
  std::printf("network          : %llu sent, %llu delivered, %llu lost, "
              "%llu down, %llu chaos, %llu detached, %.1f MB\n",
              static_cast<ull>(r.net.sent), static_cast<ull>(r.net.delivered),
              static_cast<ull>(r.net.dropped_loss),
              static_cast<ull>(r.net.dropped_down),
              static_cast<ull>(r.net.dropped_chaos),
              static_cast<ull>(r.net.dropped_detached),
              static_cast<double>(r.net.bytes_delivered) / 1e6);
  std::printf("delivery throughput: %.0f datagrams/s (%llu delivered in "
              "%.2f s wall)\n",
              wall_seconds > 0.0
                  ? static_cast<double>(r.net.delivered) / wall_seconds
                  : 0.0,
              static_cast<ull>(r.net.delivered), wall_seconds);
  if (p.network.clusters > 1) {
    const double cross_pct =
        r.net.sent == 0 ? 0.0
                        : 100.0 * static_cast<double>(r.net.sent_cross_cluster)
                              / static_cast<double>(r.net.sent);
    std::printf("wan traffic      : %llu intra-cluster, %llu cross-cluster "
                "datagrams (%.1f%% cross%s)\n",
                static_cast<ull>(r.net.sent_intra_cluster),
                static_cast<ull>(r.net.sent_cross_cluster), cross_pct,
                p.locality.enabled ? ", locality-biased" : "");
  }
  if (!p.chaos.empty()) {
    std::printf("chaos            : %llu corrupted, %llu truncated, %llu "
                "duplicated, %llu reordered, %llu oneway-dropped, %llu "
                "stalls, %llu skewed clock reads; decode failures %llu\n",
                static_cast<ull>(r.chaos.corrupted),
                static_cast<ull>(r.chaos.truncated),
                static_cast<ull>(r.chaos.duplicated),
                static_cast<ull>(r.chaos.reordered),
                static_cast<ull>(r.chaos.dropped_oneway),
                static_cast<ull>(r.chaos.stalls),
                static_cast<ull>(r.chaos.skew_reads),
                static_cast<ull>(r.decode_failures));
    if (p.gossip_membership) {
      std::printf("membership chaos : %llu suspicions / %llu downs / %llu "
                  "revivals\n",
                  static_cast<ull>(r.membership_transitions.suspicions),
                  static_cast<ull>(r.membership_transitions.downs),
                  static_cast<ull>(r.membership_transitions.revivals));
    }
    if (r.post_chaos_delivery) {
      std::printf("post-chaos       : avg receivers %.2f%%   atomic %.2f%% "
                  "over the recovery window\n",
                  r.post_chaos_delivery->avg_receiver_pct,
                  r.post_chaos_delivery->atomicity_pct);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace agb;

  Config cfg;
  std::string error;
  if (!cfg.parse_args(argc, argv, &error)) {
    std::fprintf(stderr, "agb_sim: %s\n(see the header of tools/agb_sim.cc "
                 "for the key reference)\n", error.c_str());
    return 2;
  }

  auto& registry = core::ScenarioRegistry::instance();
  if (cfg.get_bool("list", false)) {
    std::printf("%-22s %9s %-8s %s\n", "scenario", "n", "view", "summary");
    for (const auto* preset : registry.presets()) {
      std::string n_str = "?";
      std::string view = "?";
      try {
        const core::ScenarioParams defaults = preset->build(Config{});
        n_str = std::to_string(defaults.n);
        view = defaults.partial_view ? "partial" : "full";
      } catch (const std::exception&) {
        // A preset that needs config keys to resolve still lists.
      }
      std::printf("%-22s %9s %-8s %s\n", preset->name.c_str(), n_str.c_str(),
                  view.c_str(), preset->summary.c_str());
    }
    std::printf("\nview: full = every node holds the whole directory "
                "(O(n^2) group memory); partial = bounded lpbcast views "
                "(O(n*view), what the scale presets use)\n");
    return 0;
  }

  const std::string name = cfg.get_string("scenario", "paper60");
  const core::ScenarioPreset* preset = registry.find(name);
  if (preset == nullptr) {
    std::fprintf(stderr, "agb_sim: %s (try list=1)\n",
                 registry.unknown_name_message(name).c_str());
    return 2;
  }

  if (auto sweep_raw = cfg.raw("sweep")) {
    core::SweepSpec sweep;
    if (!core::parse_sweep_spec(*sweep_raw, &sweep)) {
      std::fprintf(stderr,
                   "agb_sim: bad sweep spec '%s' (want axis:lo:hi:step, "
                   "step > 0, hi >= lo)\n",
                   sweep_raw->c_str());
      return 2;
    }
    return run_sweep(*preset, cfg, sweep, cfg.get_string("csv", ""));
  }

  core::ScenarioParams p;
  try {
    p = preset->build(cfg);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "agb_sim: %s\n", e.what());
    return 2;
  }

  // Knobs the resolved scenario cannot react to are a warning, not a
  // silent no-op: a run whose flag did nothing reads like a run where the
  // flag mattered.
  if (cfg.raw("failure_detector") && p.failure_schedule.empty()) {
    std::fprintf(stderr,
                 "agb_sim: warning: failure_detector= has no effect: "
                 "scenario '%s' schedules no failures (add failures=... or "
                 "pick a churn preset)\n",
                 name.c_str());
  }
  if (!p.gossip_membership) {
    for (const char* key : {"suspect_after_ms", "down_after_ms",
                            "membership_budget", "migrate_on_rejoin"}) {
      if (cfg.raw(key)) {
        std::fprintf(stderr,
                     "agb_sim: warning: %s= has no effect without "
                     "gossip_membership=1\n",
                     key);
      }
    }
  }
  if (cfg.raw("p_local") && p.adaptive && p.adaptation.control.enabled) {
    std::fprintf(stderr,
                 "agb_sim: warning: p_local= sets only the starting point: "
                 "the control plane drives p_local at runtime (set "
                 "control_plane=0 to pin it)\n");
  }
  if (p.sim_shards <= 1) {
    for (const char* key : {"sim_workers", "lookahead_ms"}) {
      if (cfg.raw(key)) {
        std::fprintf(stderr,
                     "agb_sim: warning: %s= has no effect without "
                     "sim_shards>1 (the classic single-queue engine runs)\n",
                     key);
      }
    }
  }

  const std::string csv_prefix = cfg.get_string("csv", "");
  const std::string bench_path = cfg.get_string("bench", "");
  const bool per_node = cfg.get_bool("per_node", false);
  const std::string fabric = cfg.get_string("fabric", "sim");
  const auto shards = static_cast<std::size_t>(cfg.get_int("shards", 4));

  for (const auto& key : cfg.unused_keys()) {
    std::fprintf(stderr, "agb_sim: warning: unknown key '%s'\n", key.c_str());
  }

  if (fabric != "sim" && fabric != "inmemory") {
    std::fprintf(stderr, "agb_sim: unknown fabric '%s' (sim | inmemory)\n",
                 fabric.c_str());
    return 2;
  }
  if (fabric == "inmemory" && cfg.raw("sim_shards")) {
    std::fprintf(stderr,
                 "agb_sim: warning: sim_shards= has no effect on "
                 "fabric=inmemory (use shards= for receiver shards)\n");
  }

  // Every engine is timed over construction + run() and lives until main
  // returns, so no engine's wall time includes its teardown. sim_shards<=1
  // keeps the classic single-queue engine — its event traces are the
  // golden fingerprints — while sim_shards>1 dispatches to the sharded
  // engine, whose scenario-visible results are shard/worker-count
  // invariant (tests/sharded_sim_test.cc pins that contract).
  std::optional<core::Scenario> classic;
  std::optional<core::ShardedScenario> sharded;
  std::optional<core::WallclockScenario> wallclock;
  core::ScenarioResults r;
  char engine[160];
  const auto wall_start = std::chrono::steady_clock::now();
  if (fabric == "inmemory") {
    const core::WallclockOptions options{.shards = shards};
    wallclock.emplace(p, options);
    r = wallclock->run();
    std::snprintf(engine, sizeof(engine),
                  "inmemory wall-clock, shards=%zu, max_burst %zu",
                  options.shards, options.max_burst);
  } else if (p.sim_shards > 1) {
    sharded.emplace(p);
    r = sharded->run();
    std::snprintf(engine, sizeof(engine),
                  "sharded sim, %zu shards, %zu workers, %llu windows",
                  sharded->shards(), sharded->workers(),
                  static_cast<unsigned long long>(sharded->windows()));
  } else {
    classic.emplace(p);
    r = classic->run();
    std::snprintf(engine, sizeof(engine), "classic sim");
  }
  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  print_report(p, *preset, engine, r, wall_seconds);

  if (!bench_path.empty()) {
    BenchRecord record;
    if (!p.chaos.empty()) {
      // Chaos bench: how fast did the group heal? Latency percentiles over
      // the post-fault window, expressed in gossip rounds — the
      // recovery-rounds baseline the CI artifact tracks.
      const double period = static_cast<double>(p.gossip.gossip_period);
      const auto& post = r.post_chaos_delivery;
      record = {
          {"bench", quoted("chaos")},
          {"preset", quoted(preset->name)},
          {"n", std::to_string(p.n)},
          {"seed", std::to_string(p.seed)},
          {"mutations", std::to_string(r.chaos.mutations())},
          {"duplicated", std::to_string(r.chaos.duplicated)},
          {"reordered", std::to_string(r.chaos.reordered)},
          {"dropped_oneway", std::to_string(r.chaos.dropped_oneway)},
          {"decode_drops", std::to_string(r.decode_failures)},
          {"recovery_rounds_p50",
           fixed(post ? post->latency_p50_ms / period : -1.0, 2)},
          {"recovery_rounds_p99",
           fixed(post ? post->latency_p99_ms / period : -1.0, 2)},
          {"post_chaos_avg_receiver_pct",
           fixed(post ? post->avg_receiver_pct : -1.0, 2)}};
    } else if (wallclock) {
      record = {{"bench", quoted("backpressure")},
                {"preset", quoted(preset->name)},
                {"n", std::to_string(p.n)},
                {"pending_cap", std::to_string(p.pending_cap)},
                {"pending_depth_p50", std::to_string(r.pending_depth_p50)},
                {"pending_depth_p90", std::to_string(r.pending_depth_p90)},
                {"pending_depth_p99", std::to_string(r.pending_depth_p99)},
                {"max_pending_depth", std::to_string(r.max_pending_depth)},
                {"refused_broadcasts", std::to_string(r.refused_broadcasts)},
                {"avg_p_local", fixed(r.avg_p_local, 4)},
                {"avg_effective_fanout", fixed(r.avg_effective_fanout, 3)}};
    } else {
      struct rusage usage {};
      getrusage(RUSAGE_SELF, &usage);
      const double sim_seconds =
          static_cast<double>(p.warmup + p.duration + p.cooldown) / 1000.0;
      // ru_maxrss is KiB on Linux; whole-process peak RSS is the honest
      // number for "how much memory does a run this size need".
      const double bytes_per_node = static_cast<double>(usage.ru_maxrss) *
                                    1024.0 / static_cast<double>(p.n);
      record = {
          {"bench", quoted("sim_scale")},
          {"preset", quoted(preset->name)},
          {"n", std::to_string(p.n)},
          {"sim_shards", std::to_string(sharded ? sharded->shards() : 1)},
          {"sim_workers", std::to_string(sharded ? sharded->workers() : 1)},
          {"windows", std::to_string(sharded ? sharded->windows() : 0)},
          {"sim_seconds", fixed(sim_seconds, 3)},
          {"wall_seconds", fixed(wall_seconds, 3)},
          {"nodes_simulated_per_second",
           fixed(wall_seconds > 0.0 ? static_cast<double>(p.n) * sim_seconds /
                                          wall_seconds
                                    : 0.0,
                 1)},
          {"bytes_per_node", fixed(bytes_per_node, 1)},
          {"peak_event_queue_len", std::to_string(r.peak_event_queue_len)}};
    }
    if (write_bench_record(bench_path, record) != 0) return 1;
  }

  if (per_node && !classic) {
    std::fprintf(stderr,
                 "agb_sim: warning: per_node= needs the classic simulator "
                 "(fabric=sim, sim_shards<=1)\n");
  } else if (per_node) {
    std::printf("\n%-6s %-8s %-10s %-9s %-9s %-9s %-9s\n", "node", "bcasts",
                "delivered", "dups", "ovf_drop", "age_drop", "minbuff");
    for (const auto& node : classic->nodes()) {
      const auto& c = node->counters();
      std::uint32_t min_buff = 0;
      for (const auto* a : classic->adaptive_nodes()) {
        if (a->id() == node->id()) min_buff = a->min_buff();
      }
      std::printf("%-6u %-8llu %-10llu %-9llu %-9llu %-9llu %-9u\n",
                  node->id(), static_cast<unsigned long long>(c.broadcasts),
                  static_cast<unsigned long long>(c.deliveries),
                  static_cast<unsigned long long>(c.duplicates),
                  static_cast<unsigned long long>(c.drops_overflow),
                  static_cast<unsigned long long>(c.drops_age_limit),
                  min_buff);
    }
  }

  if (!csv_prefix.empty()) {
    const std::string path = csv_prefix + "_series.csv";
    std::ofstream out(path);
    if (!out) {
      std::fprintf(stderr, "agb_sim: cannot write %s\n", path.c_str());
      return 1;
    }
    std::vector<const metrics::TimeSeries*> series{&r.atomicity_ts,
                                                   &r.input_rate_ts};
    if (p.adaptive) {
      series.push_back(&r.allowed_rate_ts);
      series.push_back(&r.min_buff_ts);
    }
    // atomicity_ts has one point per bucket across the window; use it as
    // the row axis.
    metrics::write_csv(out, series);
    std::printf("csv              : %s (%zu rows)\n", path.c_str(),
                r.atomicity_ts.size());
  }
  return 0;
}
