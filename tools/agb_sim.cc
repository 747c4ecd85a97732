// agb_sim — the general experiment driver.
//
// A thin lookup into core::ScenarioRegistry: pick a preset, override any
// key on the command line, run, report:
//
//   agb_sim list=1                             # presets and key reference
//   agb_sim scenario=fig9 adaptive=1 csv=run1
//   agb_sim n=100 rate=40 adaptive=1 buffer=80 loss=0.05   # paper60 base
//   agb_sim scenario=fig2 sweep=rate:10:60:10 quick=1      # one row per rate
//   agb_sim scenario=wan-directional fabric=inmemory n=30 period_ms=50 duration_s=5
//
// A bad value exits 2 naming the key before any group is built; a key the
// run never reads warns. fabric=inmemory runs real NodeRuntime threads
// (core::WallclockScenario), so its seconds are real; sim_shards>1 runs
// core::ShardedScenario. Every engine prints the same report; "delivery
// throughput" is delivered datagrams over the wall time of construction +
// run(). bench=path.json writes one record: `chaos` when a chaos schedule
// ran (recovery-round percentiles, injection and decode-drop counters),
// `backpressure` on fabric=inmemory (pending-depth percentiles, refusals,
// avg p_local and fanout), `sim_scale` otherwise (nodes simulated per
// second, bytes per node, peak event-queue length).
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <optional>
#include <stdexcept>
#include <string>
#include <tuple>
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

/// "; did you mean: <key>?" for the key nearest `name`, or nothing.
std::string key_hint(const std::string& name) {
  const auto close = agb::core::closest_names(name, agb::core::key_names());
  return close.empty() ? "" : "; did you mean: " + close.front() + "?";
}

/// Warns about every key the run never read: a run whose flag did nothing
/// reads like a run where the flag mattered.
void warn_unread(const agb::Config& cfg, const std::string& scenario) {
  const auto known = agb::core::key_names();
  for (const auto& key : cfg.unused_keys()) {
    if (std::find(known.begin(), known.end(), key) != known.end()) {
      std::fprintf(stderr,
                   "agb_sim: warning: scenario '%s' does not read key '%s'\n",
                   scenario.c_str(), key.c_str());
    } else {
      std::fprintf(stderr, "agb_sim: warning: unknown key '%s'%s\n",
                   key.c_str(), key_hint(key).c_str());
    }
  }
}

/// Runs the preset once per axis value and prints one row per run. Every
/// value is built, and so checked, before the first run.
int run_sweep(const agb::core::ScenarioPreset& preset, const agb::Config& cfg,
              const agb::core::SweepSpec& sweep,
              const std::string& csv_prefix) {
  using namespace agb;
  const std::vector<double> values = sweep.values();
  std::vector<core::ScenarioParams> runs;
  for (double value : values) {
    Config run_cfg = cfg;  // fresh copy: the axis override must not stick
    run_cfg.set(sweep.axis, format_axis_value(value));
    runs.push_back(preset.build(run_cfg));
    if (runs.size() == 1) warn_unread(run_cfg, preset.name);
  }
  const std::vector<std::string> columns{
      sweep.axis,     "input_msg_s",   "output_msg_s", "atomic_pct",
      "avg_recv_pct", "drop_age_hops", "ovf_drops"};
  metrics::Table table(columns);
  std::vector<std::vector<double>> rows;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    core::Scenario scenario(runs[i]);
    auto r = scenario.run();
    rows.push_back({values[i], r.input_rate, r.output_rate,
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
              "age-limit %llu   obsolete %llu\n",
              static_cast<ull>(r.overflow_drops), r.avg_drop_age,
              static_cast<ull>(r.age_limit_drops),
              static_cast<ull>(r.obsolete_drops));
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

/// The presets, each as paper60 plus its override line, then the keys.
void print_catalogue(const agb::core::ScenarioRegistry& registry) {
  std::printf("%-22s %9s %-8s %s\n", "scenario", "n", "view", "summary");
  for (const auto* preset : registry.presets()) {
    const agb::core::ScenarioParams defaults = preset->build(agb::Config{});
    std::printf("%-22s %9zu %-8s %s\n", preset->name.c_str(), defaults.n,
                defaults.partial_view ? "partial" : "full",
                preset->summary.c_str());
    const std::string& generator = preset->generator.name;
    std::printf("    paper60%s%s%s%s\n", preset->overrides.empty() ? "" : " ",
                preset->overrides.c_str(), generator.empty() ? "" : " + ",
                generator.c_str());
  }
  std::printf("\nview: full = every node holds the whole directory "
              "(O(n^2) group memory); partial = bounded lpbcast views "
              "(O(n*view), what the scale presets use)\n\n%-22s %-13s %s\n%s",
              "key", "paper60", "meaning; accepts",
              agb::core::key_reference().c_str());
}

int run(const agb::Config& cfg) {
  using namespace agb;
  auto& registry = core::ScenarioRegistry::instance();
  if (core::key_value<bool>(cfg, "list")) {
    print_catalogue(registry);
    return 0;
  }

  const auto name = core::key_value<std::string>(cfg, "scenario");
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
                   "axis a numeric key, step > 0, hi >= lo)%s\n",
                   sweep_raw->c_str(),
                   key_hint(sweep_raw->substr(0, sweep_raw->find(':')))
                       .c_str());
      return 2;
    }
    return run_sweep(*preset, cfg, sweep,
                     core::key_value<std::string>(cfg, "csv"));
  }

  const core::ScenarioParams p = preset->build(cfg);

  const auto csv_prefix = core::key_value<std::string>(cfg, "csv");
  const auto bench_path = core::key_value<std::string>(cfg, "bench");
  const bool per_node = core::key_value<bool>(cfg, "per_node");
  const auto fabric = core::key_value<std::string>(cfg, "fabric");
  const auto shards = core::key_value<std::size_t>(cfg, "shards");
  if (fabric != "sim" && fabric != "inmemory") {
    std::fprintf(stderr, "agb_sim: unknown fabric '%s' (sim | inmemory)\n",
                 fabric.c_str());
    return 2;
  }

  // Knobs the resolved run cannot react to are a warning, not a silent
  // no-op: a run whose flag did nothing reads like a run where the flag
  // mattered.
  const char* without_membership = "has no effect without gossip_membership=1";
  const std::tuple<const char*, bool, const char*> idle_knobs[] = {
      {"failure_detector", p.failure_schedule.empty(),
       "has no effect: the run schedules no failures (add failures=... or "
       "pick a churn preset)"},
      {"suspect_after_ms", !p.gossip_membership, without_membership},
      {"down_after_ms", !p.gossip_membership, without_membership},
      {"membership_budget", !p.gossip_membership, without_membership},
      {"migrate_on_rejoin", !p.gossip_membership, without_membership},
      {"p_local", p.adaptive && p.adaptation.control.enabled,
       "sets only the starting point: the control plane drives p_local at "
       "runtime (set control_plane=0 to pin it)"},
      {"sim_workers", p.sim_shards <= 1,
       "has no effect without sim_shards>1 (the classic engine runs)"},
      {"sim_shards", fabric == "inmemory",
       "has no effect on fabric=inmemory (use shards= for receiver shards)"},
  };
  for (const auto& [key, idle, why] : idle_knobs) {
    if (idle && cfg.raw(key)) {
      std::fprintf(stderr, "agb_sim: warning: %s= %s\n", key, why);
    }
  }
  warn_unread(cfg, name);

  // Every engine is timed over construction + run() and lives until run()
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
    std::snprintf(engine, sizeof(engine), "inmemory wall-clock, shards=%zu",
                  options.shards);
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

}  // namespace

int main(int argc, char** argv) {
  agb::Config cfg;
  std::string error;
  if (!cfg.parse_args(argc, argv, &error)) {
    std::fprintf(stderr, "agb_sim: %s (agb_sim list=1 shows every key)\n",
                 error.c_str());
    return 2;
  }
  try {
    return run(cfg);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "agb_sim: %s\n", e.what());
    return 2;
  }
}
