#include "core/scenario_registry.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>

namespace agb::core {

namespace {

std::vector<std::string> split(const std::string& text, char sep) {
  std::vector<std::string> out;
  std::stringstream ss(text);
  std::string item;
  while (std::getline(ss, item, sep)) out.push_back(item);
  return out;
}

[[noreturn]] void die_bad_spec(const char* key, const std::string& spec) {
  throw std::invalid_argument(std::string("bad ") + key + " spec '" + spec +
                              "'");
}

/// Reads a size- or count-typed key. Cast straight to an unsigned type, a
/// negative value would wrap to about 2^64 (n=-1 asked vector::reserve for
/// that many nodes), so it is rejected, naming the key and the value.
std::size_t get_size(const Config& cfg, const std::string& key,
                     std::size_t fallback) {
  const auto raw = cfg.raw(key);
  if (!raw) return fallback;
  const std::int64_t value = cfg.get_int(key, 0);
  if (value < 0) {
    throw std::invalid_argument("bad " + key + " value '" + *raw +
                                "' (must be >= 0)");
  }
  return static_cast<std::size_t>(value);
}

/// Plain Levenshtein distance; preset names are short, so the quadratic
/// table is microscopic.
std::size_t edit_distance(std::string_view a, std::string_view b) {
  std::vector<std::size_t> row(b.size() + 1);
  for (std::size_t j = 0; j <= b.size(); ++j) row[j] = j;
  for (std::size_t i = 1; i <= a.size(); ++i) {
    std::size_t diagonal = row[0];
    row[0] = i;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const std::size_t substitution =
          diagonal + (a[i - 1] == b[j - 1] ? 0 : 1);
      diagonal = row[j];
      row[j] = std::min({row[j] + 1, row[j - 1] + 1, substitution});
    }
  }
  return row[b.size()];
}

/// Every fault kind parse_chaos_spec accepts, in grammar order — also the
/// candidate list behind the "did you mean" hint for misspelt kinds.
constexpr const char* kChaosKinds[] = {"corrupt", "truncate", "dup",
                                       "reorder", "oneway",   "stall",
                                       "skew"};

/// Window bound in seconds with an optional trailing 's' ("15" or "15s"),
/// converted to ms.
bool parse_chaos_time(std::string text, TimeMs* out) {
  if (!text.empty() && text.back() == 's') text.pop_back();
  if (text.empty()) return false;
  try {
    const double seconds = std::stod(text);
    if (seconds < 0.0) return false;
    *out = static_cast<TimeMs>(seconds * 1000.0);
  } catch (const std::exception&) {
    return false;
  }
  return true;
}

bool parse_chaos_rule(const std::string& item, fault::FaultRule* out) {
  fault::FaultRule rule;
  std::string body = item;
  const auto at = body.find('@');
  if (at != std::string::npos) {
    const auto bounds = split(body.substr(at + 1), '-');
    body = body.substr(0, at);
    if (bounds.size() != 2 || !parse_chaos_time(bounds[0], &rule.start) ||
        !parse_chaos_time(bounds[1], &rule.end) || rule.end <= rule.start) {
      return false;
    }
  }
  const auto fields = split(body, ':');
  if (fields.empty()) return false;
  const std::string& kind = fields[0];
  try {
    if (kind == "corrupt" && fields.size() == 2) {
      rule.kind = fault::FaultKind::kCorrupt;
      rule.rate = std::stod(fields[1]);
    } else if (kind == "truncate" && fields.size() == 2) {
      rule.kind = fault::FaultKind::kTruncate;
      rule.rate = std::stod(fields[1]);
    } else if (kind == "dup" && fields.size() == 2) {
      rule.kind = fault::FaultKind::kDuplicate;
      rule.rate = std::stod(fields[1]);
    } else if (kind == "reorder" &&
               (fields.size() == 2 || fields.size() == 3)) {
      rule.kind = fault::FaultKind::kReorder;
      rule.rate = std::stod(fields[1]);
      rule.amount = fields.size() == 3 ? std::stoll(fields[2]) : 50;
    } else if (kind == "oneway" && fields.size() == 3) {
      rule.kind = fault::FaultKind::kOneWay;
      rule.a = static_cast<NodeId>(std::stoul(fields[1]));
      rule.b = fields[2] == "*"
                   ? fault::kAnyNode
                   : static_cast<NodeId>(std::stoul(fields[2]));
    } else if ((kind == "stall" || kind == "skew") && fields.size() == 3) {
      rule.kind = kind == "stall" ? fault::FaultKind::kStall
                                  : fault::FaultKind::kSkew;
      rule.a = static_cast<NodeId>(std::stoul(fields[1]));
      rule.amount = std::stoll(fields[2]);
    } else {
      return false;
    }
  } catch (const std::exception&) {
    return false;
  }
  if (rule.rate < 0.0 || rule.rate > 1.0 || rule.amount < 0) return false;
  *out = rule;
  return true;
}

/// The calibrated paper60 configuration: 60 nodes, fanout 4, 2 s gossip
/// period — the period at which this substrate's capacity knee lands at the
/// paper's buffer-size axis (~120 events at 30 msg/s; see EXPERIMENTS.md).
ScenarioParams paper60_defaults(const Config& cfg) {
  ScenarioParams p;
  p.n = 60;
  p.senders = 4;
  p.offered_rate = 30.0;
  p.payload_size = 16;
  p.seed = 42;

  p.gossip.fanout = 4;
  p.gossip.gossip_period = 2000;
  p.gossip.max_events = 120;
  p.gossip.max_event_ids = 4000;
  p.gossip.max_age = 12;

  p.adaptation.critical_age = kPaper60CriticalAge;

  const bool quick = cfg.get_bool("quick", false);
  p.warmup = (quick ? 20 : 40) * 1000;
  p.duration = (quick ? 60 : 150) * 1000;
  p.cooldown = 30'000;
  return p;
}

ScenarioParams build_paper60(const Config& cfg) {
  return params_from_config(cfg, paper60_defaults(cfg));
}

ScenarioParams build_fig2(const Config& cfg) {
  auto p = paper60_defaults(cfg);
  p.gossip.max_events = 60;  // static, constrained: degradation is visible
  return params_from_config(cfg, p);
}

ScenarioParams build_fig9(const Config& cfg) {
  auto p = paper60_defaults(cfg);
  // Start just under the 90-slot capacity knee (~41 msg/s here) so the
  // shrink bites; recover slightly faster than the paper's gamma=0.1 so the
  // 450 s window shows both phases.
  p.offered_rate = 36.0;
  p.gossip.max_events = 90;
  p.adaptation.increase_probability = 0.2;
  p.duration = 450'000;
  p.series_bucket = 10'000;
  p = params_from_config(cfg, p);
  if (!cfg.raw("capacity")) {
    // 20 % of the nodes shrink 90 -> 45 at t1, then recover to 60 at t2
    // (still under what the load needs). Times are relative to the start of
    // the evaluation window.
    const TimeMs t1 = cfg.get_int("t1_s", 150) * 1000;
    const TimeMs t2 = cfg.get_int("t2_s", 300) * 1000;
    const double fraction = cfg.get_double("fraction", 0.2);
    const auto buf1 = get_size(cfg, "buf1", 45);
    const auto buf2 = get_size(cfg, "buf2", 60);
    p.capacity_schedule = {
        {p.warmup + t1, fraction, buf1},
        {p.warmup + t2, fraction, buf2},
    };
  }
  return p;
}

ScenarioParams build_churn(const Config& cfg) {
  auto p = params_from_config(cfg, paper60_defaults(cfg));
  if (!cfg.raw("failures")) {
    // A rolling wave of crash/recover: every churn_every_s another member
    // goes down for churn_down_s, starting once the warm-up completes. The
    // node walk (stride 7) spreads failures over the id space, senders
    // included.
    const DurationMs every = cfg.get_int("churn_every_s", 20) * 1000;
    const DurationMs down_for = cfg.get_int("churn_down_s", 15) * 1000;
    const auto count = get_size(cfg, "churn_count", 8);
    for (std::size_t i = 0; i < count; ++i) {
      const auto node = static_cast<NodeId>((3 + 7 * i) % p.n);
      const TimeMs at = p.warmup + static_cast<TimeMs>(i) * every;
      p.failure_schedule.push_back({at, node, /*up=*/false});
      p.failure_schedule.push_back({at + down_for, node, /*up=*/true});
    }
  }
  return p;
}

ScenarioParams build_burst_loss(const Config& cfg) {
  auto p = paper60_defaults(cfg);
  // ~20 % average loss arriving in bursts — the correlated-loss regime the
  // paper singles out as the hard case for gossip — with pull-based repair
  // on so the retrieval phase earns its keep.
  p.network.loss = sim::LossModel::burst(0.02, 0.9, 0.05, 0.2);
  p.gossip.recovery.enabled = true;
  return params_from_config(cfg, p);
}

ScenarioParams build_wan_clusters(const Config& cfg) {
  auto p = paper60_defaults(cfg);
  // Three LAN islands; cross-cluster links are an order of magnitude
  // slower (the directional-gossip setting of paper §5).
  p.network.clusters = 3;
  p.network.wan_latency = sim::LatencyModel::uniform(20.0, 60.0);
  return params_from_config(cfg, p);
}

ScenarioParams build_wan_directional(const Config& cfg) {
  auto p = paper60_defaults(cfg);
  // The same three-island topology as wan-clusters, but target selection
  // is locality-biased: 90 % of the fanout stays on the local island and
  // the rest goes through the remote clusters' bridges — the paper §5
  // directional result (same delivery, a fraction of the WAN datagrams).
  // Funnelling adds dissemination rounds, so the calibration grants a
  // longer age limit and two bridges per island: at these defaults the
  // preset lands within half a point of uniform wan-clusters' delivery
  // while cutting the cross-WAN share ~67 % -> ~10 %.
  p.network.clusters = 3;
  p.network.wan_latency = sim::LatencyModel::uniform(20.0, 60.0);
  p.gossip.max_age = 20;
  p.locality.enabled = true;
  p.locality.p_local = 0.9;
  p.locality.bridges_per_cluster = 2;
  return params_from_config(cfg, p);
}

ScenarioParams build_wan_directional_churn(const Config& cfg) {
  auto p = build_wan_directional(cfg);
  // Crash elected bridges, one island at a time. Under the modulo cluster
  // rule the first bridge of cluster c is node c (its lowest id); with
  // the failure detector on, every crash promotes the next-lowest id and
  // cross-cluster traffic reroutes.
  p.failure_detector = cfg.get_bool("failure_detector", true);
  if (!cfg.raw("failures")) {
    const DurationMs every = cfg.get_int("churn_every_s", 30) * 1000;
    const DurationMs down_for = cfg.get_int("churn_down_s", 20) * 1000;
    const auto count = get_size(cfg, "churn_count", 3);
    const std::size_t clusters = std::max<std::size_t>(p.network.clusters, 1);
    for (std::size_t i = 0; i < count; ++i) {
      const auto bridge = static_cast<NodeId>(i % clusters);
      const TimeMs at = p.warmup + static_cast<TimeMs>(i) * every;
      p.failure_schedule.push_back({at, bridge, /*up=*/false});
      p.failure_schedule.push_back({at + down_for, bridge, /*up=*/true});
    }
  }
  return p;
}

/// Suspicion timeouts track the (possibly overridden) gossip period unless
/// set explicitly: a few silent rounds raise a suspect, a few more declare
/// it down. Shared by the oracle-free presets below.
void derive_suspicion_timeouts(const Config& cfg, ScenarioParams& p) {
  if (!cfg.raw("suspect_after_ms")) {
    p.membership_params.suspect_after = 4 * p.gossip.gossip_period;
  }
  if (!cfg.raw("down_after_ms")) {
    p.membership_params.down_after = 8 * p.gossip.gossip_period;
  }
}

ScenarioParams build_churn_blind(const Config& cfg) {
  // The wan-directional topology and bridge churn of wan-directional-churn,
  // but with NO perfect failure detector: liveness is gossiped
  // (membership::GossipMembership), so bridge re-election runs on suspicion
  // timeouts alone. This is the oracle-retirement acceptance scenario.
  auto p = paper60_defaults(cfg);
  p.network.clusters = 3;
  p.network.wan_latency = sim::LatencyModel::uniform(20.0, 60.0);
  p.gossip.max_age = 20;
  p.locality.enabled = true;
  p.locality.p_local = 0.9;
  p.locality.bridges_per_cluster = 2;
  p.gossip_membership = true;
  p.failure_detector = false;
  p = params_from_config(cfg, p);
  derive_suspicion_timeouts(cfg, p);
  if (!cfg.raw("failures")) {
    const DurationMs every = cfg.get_int("churn_every_s", 30) * 1000;
    const DurationMs down_for = cfg.get_int("churn_down_s", 20) * 1000;
    const auto count = get_size(cfg, "churn_count", 3);
    const std::size_t clusters = std::max<std::size_t>(p.network.clusters, 1);
    for (std::size_t i = 0; i < count; ++i) {
      const auto bridge = static_cast<NodeId>(i % clusters);
      const TimeMs at = p.warmup + static_cast<TimeMs>(i) * every;
      p.failure_schedule.push_back({at, bridge, /*up=*/false});
      p.failure_schedule.push_back({at + down_for, bridge, /*up=*/true});
    }
  }
  return p;
}

ScenarioParams build_host_migration(const Config& cfg) {
  // Rolling churn where every recovering node comes back *somewhere else*:
  // the rejoin bumps its revision and rotates its advertised endpoint
  // binding, and the group re-resolves it purely from the gossiped
  // records (runtime deployments feed these into a DynamicDirectory).
  auto p = paper60_defaults(cfg);
  p.gossip_membership = true;
  p.failure_detector = false;
  p.migrate_on_rejoin = true;
  p = params_from_config(cfg, p);
  derive_suspicion_timeouts(cfg, p);
  if (!cfg.raw("failures")) {
    const DurationMs every = cfg.get_int("churn_every_s", 20) * 1000;
    const DurationMs down_for = cfg.get_int("churn_down_s", 15) * 1000;
    const auto count = get_size(cfg, "churn_count", 8);
    for (std::size_t i = 0; i < count; ++i) {
      const auto node = static_cast<NodeId>((3 + 7 * i) % p.n);
      const TimeMs at = p.warmup + static_cast<TimeMs>(i) * every;
      p.failure_schedule.push_back({at, node, /*up=*/false});
      p.failure_schedule.push_back({at + down_for, node, /*up=*/true});
    }
  }
  return p;
}

ScenarioParams build_adaptive_wan(const Config& cfg) {
  // wan-directional with the full adaptive stack and the control plane on:
  // mid-run, half the group's buffers shrink hard, driving avgAge below
  // the low mark (drops die young). The control plane answers by raising
  // p_local — keep traffic on the LAN islands — and trimming fanout, then
  // relaxes both toward their bases once the squeeze heals. The adaptive
  // parity suite runs this preset through both harnesses and asserts the
  // group-mean p_local lands in the same regime band.
  auto p = paper60_defaults(cfg);
  p.network.clusters = 3;
  p.network.wan_latency = sim::LatencyModel::uniform(20.0, 60.0);
  p.gossip.max_age = 20;
  p.locality.enabled = true;
  p.locality.p_local = 0.9;
  p.locality.bridges_per_cluster = 2;
  p.adaptive = true;
  p.adaptation.control.enabled = true;
  p = params_from_config(cfg, p);
  if (!cfg.raw("capacity")) {
    // Squeeze a quarter of the way into the window, heal at 5/8 — late
    // enough that quick parity runs still see both phases. Times are
    // absolute (the schedule is replayed against the run clock).
    const TimeMs squeeze = p.warmup + p.duration / 4;
    const TimeMs heal = p.warmup + (p.duration * 5) / 8;
    const double fraction = cfg.get_double("fraction", 0.5);
    const auto low = get_size(cfg, "buf1", 30);
    p.capacity_schedule = {
        {squeeze, fraction, low},
        {heal, fraction, p.gossip.max_events},
    };
  }
  return p;
}

ScenarioParams build_adaptive_backpressure(const Config& cfg) {
  // Deliberate overload on the LAN topology: the offered load outruns the
  // adapter's allowed rate, so sender arrivals queue behind the token
  // bucket (the paper's blocking BROADCAST) and drain as it refills. The
  // receipt is a pending queue that is busy but bounded by pending_cap on
  // both harnesses — the wall-clock path exercises NodeRuntime's
  // token-refill back-pressure loop, the simulator its SenderState twin.
  auto p = paper60_defaults(cfg);
  p.adaptive = true;
  p.adaptation.control.enabled = true;
  p.offered_rate = 45.0;
  p = params_from_config(cfg, p);
  if (!cfg.raw("capacity")) {
    const TimeMs squeeze = p.warmup + p.duration / 4;
    const double fraction = cfg.get_double("fraction", 0.3);
    const auto low = get_size(cfg, "buf1", 45);
    p.capacity_schedule = {{squeeze, fraction, low}};
  }
  return p;
}

ScenarioParams build_semantic_streams(const Config& cfg) {
  auto p = paper60_defaults(cfg);
  // Supersede-heavy workload under buffer pressure: each sender's stream
  // obsoletes its own history often, and semantic purging reclaims the
  // space from superseded events first.
  p.supersede_probability = 0.35;
  p.gossip.semantic_purge = true;
  p.gossip.max_events = 60;
  return params_from_config(cfg, p);
}

/// Scale presets: the calendar-queue / round-wheel soak targets of the
/// million-node roadmap item. Partial views keep per-node membership O(view)
/// instead of O(n), the horizon is 30 sim-seconds (4 warmup + 20 eval +
/// 6 cooldown), and the eventIds digest is bounded tighter than paper60's
/// since at this group size a node only ever sees a thin slice of traffic.
ScenarioParams scale_defaults(std::size_t n, const Config& cfg) {
  auto p = paper60_defaults(cfg);
  p.n = n;
  p.senders = 32;
  p.offered_rate = 10.0;
  p.partial_view = true;
  // Buffer sizing is per-node state multiplied by 10^5..10^6 nodes, so it
  // is both the memory bill and the cache working set. At 10 events/s
  // living max_age rounds, ~rate * max_age * period = 240 distinct events
  // are in flight; the dedup digest only needs to cover that window.
  p.gossip.max_events = 48;
  p.gossip.max_event_ids = 384;
  p.gossip.max_age = 12;  // ~log_fanout(n) dissemination rounds plus slack
  p.warmup = 4'000;
  p.duration = 20'000;
  p.cooldown = 6'000;
  return p;
}

ScenarioParams build_scale_1e5(const Config& cfg) {
  return params_from_config(cfg, scale_defaults(100'000, cfg));
}

ScenarioParams build_scale_1e6(const Config& cfg) {
  return params_from_config(cfg, scale_defaults(1'000'000, cfg));
}

// Fault-injection presets. All three compute their fault windows AFTER
// params_from_config so quick/parity scale-downs of warmup/duration move
// the windows with them, and all three leave room between the last window
// close and the evaluation end for the kChaosRecoveryRounds self-healing
// report. Injected nodes (3, 5) are non-senders under scenario_sender_ids
// at both the paper scale (senders 0/15/30/45) and the parity scale
// (senders 0/4/8), so the fault target never doubles as a traffic source.

ScenarioParams build_chaos_soak(const Config& cfg) {
  // Arbitrary datagram mutation mid-run: corruption and truncation feed
  // the fuzz-hardened codec in a live run (decode must answer monostate,
  // never crash), duplication stresses the dedup digest, reordering the
  // age-based purge. Pull repair is on so the healing phase has teeth.
  auto p = paper60_defaults(cfg);
  p.gossip.recovery.enabled = true;
  p = params_from_config(cfg, p);
  if (!cfg.raw("chaos")) {
    const TimeMs open = p.warmup + p.duration / 4;
    const TimeMs close = p.warmup + p.duration / 2;
    const DurationMs shuffle = p.gossip.gossip_period / 2;
    p.chaos.rules = {
        {fault::FaultKind::kCorrupt, cfg.get_double("chaos_corrupt", 0.15),
         fault::kAnyNode, fault::kAnyNode, 0, open, close},
        {fault::FaultKind::kTruncate, cfg.get_double("chaos_truncate", 0.05),
         fault::kAnyNode, fault::kAnyNode, 0, open, close},
        {fault::FaultKind::kDuplicate, cfg.get_double("chaos_dup", 0.10),
         fault::kAnyNode, fault::kAnyNode, 0, open, close},
        {fault::FaultKind::kReorder, cfg.get_double("chaos_reorder", 0.10),
         fault::kAnyNode, fault::kAnyNode, shuffle, open, close},
    };
  }
  return p;
}

ScenarioParams build_asymmetric_partition(const Config& cfg) {
  // One-way link failures under gossiped liveness: node 3 can hear the
  // group but nothing it sends arrives (the hardest case for suspicion
  // timeouts — it believes everyone is fine while everyone suspects it),
  // plus a single dead 1→2 direction whose reverse stays alive. The
  // receipt is suspicion traffic during the window and a re-converged
  // membership after it: node 3's own fresh heartbeats beat the group's
  // suspect/down records once its datagrams flow again.
  auto p = paper60_defaults(cfg);
  p.gossip_membership = true;
  p.failure_detector = false;
  p = params_from_config(cfg, p);
  derive_suspicion_timeouts(cfg, p);
  if (!cfg.raw("chaos")) {
    const TimeMs open = p.warmup + p.duration / 4;
    const TimeMs close = p.warmup + p.duration / 2;
    p.chaos.rules = {
        {fault::FaultKind::kOneWay, 0.0, 3, fault::kAnyNode, 0, open, close},
        {fault::FaultKind::kOneWay, 0.0, 1, 2, 0, open, close},
    };
  }
  return p;
}

ScenarioParams build_gray_failure(const Config& cfg) {
  // Gray failures: node 3's receive path stalls (slow-but-up — its round
  // thread keeps gossiping on cadence) and node 5's clock skews forward by
  // two gossip periods — deliberately under the 4-period suspicion
  // timeout, so a correct membership layer rides both out without a single
  // down verdict. Both are wall-clock phenomena; under the simulator the
  // rules are inert and the preset doubles as a clean-run control.
  auto p = paper60_defaults(cfg);
  p.gossip_membership = true;
  p.failure_detector = false;
  p = params_from_config(cfg, p);
  derive_suspicion_timeouts(cfg, p);
  if (!cfg.raw("chaos")) {
    const TimeMs open = p.warmup + p.duration / 4;
    const TimeMs close = p.warmup + (p.duration * 3) / 4;
    const auto stall = std::max<DurationMs>(5, p.gossip.gossip_period / 5);
    const DurationMs skew = 2 * p.gossip.gossip_period;
    p.chaos.rules = {
        {fault::FaultKind::kStall, 0.0, 3, fault::kAnyNode, stall, open,
         close},
        {fault::FaultKind::kSkew, 0.0, 5, fault::kAnyNode, skew, open,
         close},
    };
  }
  return p;
}

}  // namespace

std::vector<double> SweepSpec::values() const {
  std::vector<double> out;
  if (step <= 0.0) return out;
  const double tolerance = step * 1e-9;
  for (double v = lo; v <= hi + tolerance; v += step) out.push_back(v);
  return out;
}

bool parse_sweep_spec(const std::string& spec, SweepSpec* out) {
  auto parts = split(spec, ':');
  if (parts.size() != 4 || parts[0].empty()) return false;
  SweepSpec parsed;
  parsed.axis = parts[0];
  try {
    parsed.lo = std::stod(parts[1]);
    parsed.hi = std::stod(parts[2]);
    parsed.step = std::stod(parts[3]);
  } catch (const std::exception&) {
    return false;
  }
  if (parsed.step <= 0.0 || parsed.hi < parsed.lo) return false;
  *out = std::move(parsed);
  return true;
}

bool parse_latency_spec(const std::string& spec, sim::LatencyModel* out) {
  auto parts = split(spec, ':');
  if (parts.empty()) return false;
  try {
    if (parts[0] == "fixed" && parts.size() == 2) {
      *out = sim::LatencyModel::fixed(std::stod(parts[1]));
      return true;
    }
    if (parts[0] == "uniform" && parts.size() == 3) {
      *out = sim::LatencyModel::uniform(std::stod(parts[1]),
                                        std::stod(parts[2]));
      return true;
    }
    if (parts[0] == "normal" && parts.size() == 3) {
      *out = sim::LatencyModel::normal(std::stod(parts[1]),
                                       std::stod(parts[2]));
      return true;
    }
  } catch (const std::exception&) {
    return false;
  }
  return false;
}

bool parse_loss_spec(const std::string& spec, sim::LossModel* out) {
  auto parts = split(spec, ':');
  try {
    if (parts.size() == 1 && !parts[0].empty()) {
      *out = sim::LossModel::iid(std::stod(parts[0]));
      return true;
    }
    if (parts.size() == 5 && parts[0] == "burst") {
      *out = sim::LossModel::burst(std::stod(parts[1]), std::stod(parts[2]),
                                   std::stod(parts[3]), std::stod(parts[4]));
      return true;
    }
  } catch (const std::exception&) {
    return false;
  }
  return false;
}

bool parse_capacity_spec(const std::string& spec,
                         std::vector<CapacityChange>* out) {
  std::vector<CapacityChange> parsed;
  for (const auto& item : split(spec, ',')) {
    auto fields = split(item, ':');
    if (fields.size() != 3) return false;
    try {
      parsed.push_back(CapacityChange{
          std::stoll(fields[0]), std::stod(fields[1]),
          static_cast<std::size_t>(std::stoul(fields[2]))});
    } catch (const std::exception&) {
      return false;
    }
  }
  *out = std::move(parsed);
  return true;
}

bool parse_failure_spec(const std::string& spec,
                        std::vector<FailureEvent>* out) {
  std::vector<FailureEvent> parsed;
  for (const auto& item : split(spec, ',')) {
    auto fields = split(item, ':');
    if (fields.size() != 3 || (fields[2] != "up" && fields[2] != "down")) {
      return false;
    }
    try {
      parsed.push_back(FailureEvent{
          std::stoll(fields[0]), static_cast<NodeId>(std::stoul(fields[1])),
          fields[2] == "up"});
    } catch (const std::exception&) {
      return false;
    }
  }
  *out = std::move(parsed);
  return true;
}

bool parse_chaos_spec(const std::string& spec, fault::ChaosSchedule* out) {
  fault::ChaosSchedule parsed;
  for (const auto& item : split(spec, ',')) {
    fault::FaultRule rule;
    if (!parse_chaos_rule(item, &rule)) return false;
    parsed.rules.push_back(rule);
  }
  if (parsed.empty()) return false;
  *out = std::move(parsed);
  return true;
}

std::string bad_chaos_spec_message(const std::string& spec) {
  std::string message = "bad chaos spec '" + spec + "'";
  for (const auto& item : split(spec, ',')) {
    const std::string kind =
        item.substr(0, std::min(item.find(':'), item.find('@')));
    bool known = false;
    std::size_t best = std::string::npos;
    const char* nearest = nullptr;
    for (const char* candidate : kChaosKinds) {
      if (kind == candidate) {
        known = true;
        break;
      }
      const std::size_t distance = edit_distance(kind, candidate);
      if (distance < best) {
        best = distance;
        nearest = candidate;
      }
    }
    if (!known && nearest != nullptr &&
        best <= std::max<std::size_t>(2, kind.size() / 3)) {
      message += "; did you mean: ";
      message += nearest;
      message += '?';
    }
  }
  message +=
      " rules: corrupt:p | truncate:p | dup:p | reorder:p[:ms] | "
      "oneway:a:b|* | stall:node:ms | skew:node:ms, each with an optional "
      "@start[s]-end[s] window";
  return message;
}

ScenarioParams params_from_config(const Config& cfg, ScenarioParams base) {
  ScenarioParams p = std::move(base);

  p.n = get_size(cfg, "n", p.n);
  p.senders = get_size(cfg, "senders", p.senders);
  p.offered_rate = cfg.get_double("rate", p.offered_rate);
  p.poisson_arrivals = cfg.get_bool("poisson", p.poisson_arrivals);
  p.payload_size = get_size(cfg, "payload", p.payload_size);
  p.supersede_probability =
      cfg.get_double("supersede", p.supersede_probability);
  p.adaptive = cfg.get_bool("adaptive", p.adaptive);
  p.pending_cap = get_size(cfg, "pending_cap", p.pending_cap);
  p.seed = static_cast<std::uint64_t>(
      cfg.get_int("seed", static_cast<std::int64_t>(p.seed)));
  p.sim_shards = get_size(cfg, "sim_shards", p.sim_shards);
  p.sim_workers = get_size(cfg, "sim_workers", p.sim_workers);
  p.lookahead_ms = cfg.get_int("lookahead_ms", p.lookahead_ms);

  p.gossip.fanout = get_size(cfg, "fanout", p.gossip.fanout);
  p.gossip.gossip_period = cfg.get_int("period_ms", p.gossip.gossip_period);
  p.gossip.max_events = get_size(cfg, "buffer", p.gossip.max_events);
  p.gossip.max_event_ids = get_size(cfg, "event_ids", p.gossip.max_event_ids);
  p.gossip.max_age =
      static_cast<std::uint32_t>(get_size(cfg, "max_age", p.gossip.max_age));
  p.gossip.semantic_purge =
      cfg.get_bool("semantic_purge", p.gossip.semantic_purge);

  auto& recovery = p.gossip.recovery;
  recovery.enabled = cfg.get_bool("recovery", recovery.enabled);
  recovery.repair_after_rounds =
      get_size(cfg, "repair_after", recovery.repair_after_rounds);
  recovery.give_up_after_rounds =
      get_size(cfg, "give_up_after", recovery.give_up_after_rounds);
  recovery.retrieve_rounds =
      get_size(cfg, "retrieve_rounds", recovery.retrieve_rounds);

  // Adaptation knobs whose defaults derive from other parameters: the
  // sample period tracks the gossip period, the marks bracket the critical
  // age, and each sender starts at its fair share of the offered load.
  // Derivation only replaces a *stock* base value — a preset or embedder
  // that set one of these explicitly keeps it (cfg keys still win over
  // everything).
  const adaptive::AdaptiveParams stock;
  auto& a = p.adaptation;
  a.sample_period = cfg.get_int(
      "tau_ms", a.sample_period != stock.sample_period
                    ? a.sample_period
                    : 2 * p.gossip.gossip_period);
  a.min_buff_window = get_size(cfg, "window", a.min_buff_window);
  a.alpha = cfg.get_double("alpha", a.alpha);
  a.critical_age = cfg.get_double("critical_age", a.critical_age);
  a.low_age_mark = cfg.get_double(
      "low_mark", a.low_age_mark != stock.low_age_mark
                      ? a.low_age_mark
                      : a.critical_age - 0.5);
  a.high_age_mark = cfg.get_double(
      "high_mark", a.high_age_mark != stock.high_age_mark
                       ? a.high_age_mark
                       : a.critical_age + 0.5);
  a.decrease_factor = cfg.get_double("delta_d", a.decrease_factor);
  a.increase_factor = cfg.get_double("delta_i", a.increase_factor);
  a.increase_probability = cfg.get_double("gamma", a.increase_probability);
  a.bucket_capacity = cfg.get_double("bucket", a.bucket_capacity);
  a.initial_rate = cfg.get_double(
      "initial_rate", a.initial_rate != stock.initial_rate
                          ? a.initial_rate
                          : p.offered_rate / static_cast<double>(p.senders));
  a.robust_k = get_size(cfg, "robust_k", a.robust_k);
  a.robust_floor =
      static_cast<std::uint32_t>(get_size(cfg, "robust_floor", a.robust_floor));
  a.idle_age_boost = cfg.get_bool("idle_age_boost", a.idle_age_boost);

  // Control-plane keys (the self-tuning feedback layer; only consulted
  // when adaptive=true).
  auto& c = a.control;
  c.enabled = cfg.get_bool("control_plane", c.enabled);
  c.hysteresis = cfg.get_double("control_hysteresis", c.hysteresis);
  c.p_local_min = cfg.get_double("p_local_min", c.p_local_min);
  c.p_local_max = cfg.get_double("p_local_max", c.p_local_max);
  c.p_local_step = cfg.get_double("p_local_step", c.p_local_step);
  c.fanout_congested_scale =
      cfg.get_double("fanout_congested_scale", c.fanout_congested_scale);
  c.fanout_spare_scale =
      cfg.get_double("fanout_spare_scale", c.fanout_spare_scale);
  c.starve_threshold = cfg.get_double("starve_threshold", c.starve_threshold);

  p.partial_view = cfg.get_bool("partial_view", p.partial_view);
  p.view_params.max_view = get_size(cfg, "view_max", p.view_params.max_view);
  p.view_params.max_subs = get_size(cfg, "view_subs", p.view_params.max_subs);
  p.view_params.max_unsubs =
      get_size(cfg, "view_unsubs", p.view_params.max_unsubs);

  // Second-granularity keys replace the base value only when present, so a
  // base carrying sub-second values is never silently truncated.
  if (cfg.raw("warmup_s")) p.warmup = cfg.get_int("warmup_s", 0) * 1000;
  if (cfg.raw("duration_s")) p.duration = cfg.get_int("duration_s", 0) * 1000;
  if (cfg.raw("cooldown_s")) p.cooldown = cfg.get_int("cooldown_s", 0) * 1000;
  if (cfg.raw("bucket_s")) p.series_bucket = cfg.get_int("bucket_s", 0) * 1000;

  p.network.clusters = get_size(cfg, "clusters", p.network.clusters);
  p.locality.enabled = cfg.get_bool("locality", p.locality.enabled);
  p.locality.p_local = cfg.get_double("p_local", p.locality.p_local);
  p.locality.bridges_per_cluster = get_size(cfg, "bridges_per_cluster",
                                            p.locality.bridges_per_cluster);
  p.failure_detector = cfg.get_bool("failure_detector", p.failure_detector);
  p.gossip_membership =
      cfg.get_bool("gossip_membership", p.gossip_membership);
  p.membership_params.suspect_after = cfg.get_int(
      "suspect_after_ms", p.membership_params.suspect_after);
  p.membership_params.down_after =
      cfg.get_int("down_after_ms", p.membership_params.down_after);
  p.membership_params.digest_budget_bytes = get_size(
      cfg, "membership_budget", p.membership_params.digest_budget_bytes);
  p.migrate_on_rejoin =
      cfg.get_bool("migrate_on_rejoin", p.migrate_on_rejoin);
  if (auto spec = cfg.raw("latency")) {
    if (!parse_latency_spec(*spec, &p.network.latency)) {
      die_bad_spec("latency", *spec);
    }
  }
  if (auto spec = cfg.raw("wan_latency")) {
    if (!parse_latency_spec(*spec, &p.network.wan_latency)) {
      die_bad_spec("wan_latency", *spec);
    }
  }
  if (auto spec = cfg.raw("loss")) {
    if (!parse_loss_spec(*spec, &p.network.loss)) {
      die_bad_spec("loss", *spec);
    }
  }
  if (auto spec = cfg.raw("capacity")) {
    if (!parse_capacity_spec(*spec, &p.capacity_schedule)) {
      die_bad_spec("capacity", *spec);
    }
  }
  if (auto spec = cfg.raw("failures")) {
    if (!parse_failure_spec(*spec, &p.failure_schedule)) {
      die_bad_spec("failures", *spec);
    }
  }
  if (auto spec = cfg.raw("chaos")) {
    if (!parse_chaos_spec(*spec, &p.chaos)) {
      // Richer than die_bad_spec: the message carries the nearest-kind
      // hint, so a CLI typo gets a correction instead of just a rejection.
      throw std::invalid_argument(bad_chaos_spec_message(*spec));
    }
  }
  return p;
}

ScenarioRegistry& ScenarioRegistry::instance() {
  static ScenarioRegistry registry;
  return registry;
}

ScenarioRegistry::ScenarioRegistry() {
  add({"paper60", "calibrated 60-node LAN baseline (fanout 4, T=2s)",
       build_paper60});
  add({"fig2", "reliability degradation vs input rate (static 60-buffer)",
       build_fig2});
  add({"fig4", "maximum input rate vs buffer size (capacity search base)",
       build_paper60});
  add({"fig6", "ideal vs adaptive rates under shrinking buffers",
       build_paper60});
  add({"fig7", "input/output rates and drop ages, lpbcast vs adaptive",
       build_paper60});
  add({"fig8", "reliability (receivers & atomicity), lpbcast vs adaptive",
       build_paper60});
  add({"fig9", "dynamic buffers: 20% of nodes 90 -> 45 -> 60 under load",
       build_fig9});
  add({"churn", "rolling crash/recover wave across the group", build_churn});
  add({"burst-loss", "Gilbert-Elliott bursty loss (~20%) with pull repair",
       build_burst_loss});
  add({"wan-clusters", "three LAN islands joined by 20-60 ms WAN links",
       build_wan_clusters});
  add({"wan-directional",
       "wan-clusters with locality-biased targets and bridge nodes",
       build_wan_directional});
  add({"wan-directional-churn",
       "wan-directional with the elected bridges crashing in turn",
       build_wan_directional_churn});
  add({"churn-blind",
       "bridge churn detected by gossiped suspicion alone (no oracle)",
       build_churn_blind});
  add({"host-migration",
       "churned nodes rejoin at new endpoints under bumped revisions",
       build_host_migration});
  add({"adaptive-wan",
       "wan-directional + control plane: p_local rises under a buffer "
       "squeeze, recovers after it heals",
       build_adaptive_wan});
  add({"adaptive-backpressure",
       "overloaded adaptive LAN: blocking-BROADCAST queues bounded by "
       "pending_cap on both harnesses",
       build_adaptive_backpressure});
  add({"semantic-streams", "supersede-heavy streams with semantic purging",
       build_semantic_streams});
  add({"scale-1e5", "100k nodes on partial views (calendar-queue scale soak)",
       build_scale_1e5});
  add({"scale-1e6", "1M nodes on partial views (memory-bound scale soak)",
       build_scale_1e6});
  add({"chaos-soak",
       "mid-run corruption/truncation/dup/reorder burst; must self-heal",
       build_chaos_soak});
  add({"asymmetric-partition",
       "one-way link failures: suspicion under fire, re-convergence after",
       build_asymmetric_partition});
  add({"gray-failure",
       "stalled + clock-skewed nodes stay slow-but-up; no down verdicts",
       build_gray_failure});
}

void ScenarioRegistry::add(ScenarioPreset preset) {
  for (auto& existing : presets_) {
    if (existing.name == preset.name) {
      existing = std::move(preset);
      return;
    }
  }
  presets_.push_back(std::move(preset));
}

const ScenarioPreset* ScenarioRegistry::find(std::string_view name) const {
  for (const auto& preset : presets_) {
    if (preset.name == name) return &preset;
  }
  return nullptr;
}

std::vector<std::string> ScenarioRegistry::suggest(
    std::string_view name) const {
  // Plausibly-close: within a third of the typed name in edits (at least
  // 2, so short typos still match), or a containment either way (a
  // truncated or over-qualified name).
  const std::size_t budget = std::max<std::size_t>(2, name.size() / 3);
  std::vector<std::pair<std::size_t, std::string>> ranked;
  for (const auto& preset : presets_) {
    const std::size_t distance = edit_distance(name, preset.name);
    const bool contained =
        !name.empty() && (preset.name.find(name) != std::string::npos ||
                          name.find(preset.name) != std::string_view::npos);
    if (distance <= budget || contained) {
      ranked.emplace_back(distance, preset.name);
    }
  }
  std::sort(ranked.begin(), ranked.end());
  std::vector<std::string> out;
  out.reserve(ranked.size());
  for (auto& entry : ranked) out.push_back(std::move(entry.second));
  return out;
}

std::string ScenarioRegistry::unknown_name_message(
    std::string_view name) const {
  std::string message = "unknown scenario preset '";
  message.append(name);
  message += '\'';
  const auto close = suggest(name);
  if (!close.empty()) {
    message += "; did you mean:";
    for (const auto& candidate : close) {
      message += ' ';
      message += candidate;
    }
    message += '?';
  }
  message += " known:";
  for (const auto* known : presets()) {
    message += ' ';
    message += known->name;
  }
  return message;
}

ScenarioParams ScenarioRegistry::build(std::string_view name,
                                       const Config& cfg) const {
  const ScenarioPreset* preset = find(name);
  if (preset == nullptr) {
    throw std::invalid_argument(unknown_name_message(name));
  }
  return preset->build(cfg);
}

std::vector<const ScenarioPreset*> ScenarioRegistry::presets() const {
  std::vector<const ScenarioPreset*> out;
  out.reserve(presets_.size());
  for (const auto& preset : presets_) out.push_back(&preset);
  std::sort(out.begin(), out.end(),
            [](const ScenarioPreset* a, const ScenarioPreset* b) {
              return a->name < b->name;
            });
  return out;
}

}  // namespace agb::core
