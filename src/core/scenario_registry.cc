#include "core/scenario_registry.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <limits>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <variant>

namespace agb::core {

/// Only user reads mark keys consumed: unread keys stay in unused_keys().
struct KeySource {
  const Config& user;
  const Config& line;

  [[nodiscard]] std::optional<std::string> raw(const std::string& key) const {
    if (auto value = user.raw(key)) return value;
    return line.raw(key);
  }
};

namespace {

using P = ScenarioParams;

std::vector<std::string> split(const std::string& text, char sep) {
  std::vector<std::string> out;
  std::stringstream ss(text);
  std::string item;
  while (std::getline(ss, item, sep)) out.push_back(item);
  return out;
}

/// Parses a comma-separated list, each item by `parse_item`; `out` is
/// left untouched unless every item parses.
template <class T, class Fn>
bool parse_list(const std::string& spec, std::vector<T>* out, Fn parse_item) {
  std::vector<T> parsed;
  for (const auto& item : split(spec, ',')) {
    if (!parse_item(item, &parsed.emplace_back())) return false;
  }
  *out = std::move(parsed);
  return true;
}

/// Reads `text` whole as a T: no sign on an unsigned type, no trailing
/// junk, no inf or nan.
template <class T>
bool parse_number(std::string_view text, T* out) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end) return false;
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(value)) return false;
  }
  *out = value;
  return true;
}

bool parse_probability(std::string_view text, double* out) {
  double p = 0.0;
  if (!parse_number(text, &p) || p < 0.0 || p > 1.0) return false;
  *out = p;
  return true;
}

bool parse_bool(std::string text, bool* out) {
  std::transform(text.begin(), text.end(), text.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  *out = text == "1" || text == "true" || text == "yes" || text == "on";
  return *out || text == "0" || text == "false" || text == "no" ||
         text == "off";
}

/// Levenshtein distance; names are short, so the quadratic table is tiny.
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

/// Every fault kind parse_chaos_spec accepts, and its grammar.
const std::vector<std::string> kChaosKinds{"corrupt", "truncate", "dup",
                                           "reorder", "oneway",   "stall",
                                           "skew"};
constexpr const char* kChaosRules =
    "corrupt:p | truncate:p | dup:p | reorder:p[:ms] | oneway:a:b|* | "
    "stall:node:ms | skew:node:ms, each with an optional @start[s]-end[s] "
    "window";

/// Window bound in seconds, at most 1e9, with an optional trailing 's'
/// ("15" or "15s"), converted to ms.
bool parse_chaos_time(std::string text, TimeMs* out) {
  if (!text.empty() && text.back() == 's') text.pop_back();
  double seconds = 0.0;
  if (!parse_number(text, &seconds) || seconds < 0.0 || seconds > 1e9) {
    return false;
  }
  *out = static_cast<TimeMs>(seconds * 1000.0);
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
  bool ok = false;
  if ((kind == "corrupt" || kind == "truncate" || kind == "dup") &&
      fields.size() == 2) {
    rule.kind = kind == "corrupt"    ? fault::FaultKind::kCorrupt
                : kind == "truncate" ? fault::FaultKind::kTruncate
                                     : fault::FaultKind::kDuplicate;
    ok = parse_probability(fields[1], &rule.rate);
  } else if (kind == "reorder" && (fields.size() == 2 || fields.size() == 3)) {
    rule.kind = fault::FaultKind::kReorder;
    rule.amount = 50;
    ok = parse_probability(fields[1], &rule.rate) &&
         (fields.size() == 2 || parse_number(fields[2], &rule.amount));
  } else if (kind == "oneway" && fields.size() == 3) {
    rule.kind = fault::FaultKind::kOneWay;
    ok = parse_number(fields[1], &rule.a) &&
         (fields[2] == "*" || parse_number(fields[2], &rule.b));
  } else if ((kind == "stall" || kind == "skew") && fields.size() == 3) {
    rule.kind =
        kind == "stall" ? fault::FaultKind::kStall : fault::FaultKind::kSkew;
    ok = parse_number(fields[1], &rule.a) &&
         parse_number(fields[2], &rule.amount);
  }
  if (!ok || rule.amount < 0) return false;
  *out = rule;
  return true;
}

/// Where a key's parsed value lands: a ScenarioParams field, or, as a null
/// pointer of the value's type, a knob that a schedule generator or
/// agb_sim reads.
using Field =
    std::variant<bool*, std::uint32_t*, std::size_t*, std::int64_t*, double*,
                 std::string*, sim::LatencyModel*, sim::LossModel*,
                 std::vector<CapacityChange>*, std::vector<FailureEvent>*,
                 fault::ChaosSchedule*>;

template <class T>
Field knob(P&) {
  return static_cast<T*>(nullptr);
}

constexpr double kNoMax = std::numeric_limits<double>::infinity();

/// One key of the key=value vocabulary. A key named *_s takes whole
/// seconds into a millisecond field.
struct Key {
  const char* name;
  Field (*field)(P&);
  double lo;  // the inclusive range of a numeric value, in the key's unit
  double hi;
  const char* doc;
  void (*derive)(P&, const Field&) = nullptr;  // the value no key sets
  const char* fallback = nullptr;  // a knob's value when no key sets it
};

DurationMs unit(const Key& key) {
  return std::string_view(key.name).ends_with("_s") ? 1000 : 1;
}

/// Derived values. tau and, under gossip_membership, the suspicion
/// timeouts are whole gossip periods; the age marks bracket the critical
/// age.
template <DurationMs kPeriods>
void periods(P& p, const Field& field) {
  *std::get<DurationMs*>(field) = kPeriods * p.gossip.gossip_period;
}

template <DurationMs kPeriods>
void suspicion(P& p, const Field& field) {
  if (p.gossip_membership) periods<kPeriods>(p, field);
}

template <int kSide>
void around_critical_age(P& p, const Field& field) {
  *std::get<double*>(field) = p.adaptation.critical_age + kSide * 0.5;
}

// A row's field: where its parsed value lands.
#define AT(member) [](P& p) -> Field { return &p.member; }

const Key kKeys[] = {
    // Group and load.
    {"quick", knob<bool>, 0, 1, "paper60's 20 s warm-up, 60 s window", nullptr,
     "0"},
    {"n", AT(n), 1, 1e7, "group size"},
    {"senders", AT(senders), 1, 1e7, "members that broadcast"},
    {"rate", AT(offered_rate), 0, 1e6, "msg/s over all senders (0: idle)"},
    {"poisson", AT(poisson_arrivals), 0, 1, "Poisson (1) or periodic arrivals"},
    {"payload", AT(payload_size), 0, 65536, "bytes per broadcast"},
    {"supersede", AT(supersede_probability), 0, 1,
     "chance a broadcast obsoletes its stream's earlier ones"},
    {"pending_cap", AT(pending_cap), 0, 1e7, "sender queue before refusals"},
    {"seed", AT(seed), 0, kNoMax, "master random seed"},
    // Gossip (paper Fig. 1).
    {"fanout", AT(gossip.fanout), 1, 1e4, "gossip targets per round, F"},
    {"period_ms", AT(gossip.gossip_period), 1, 1e7, "gossip period T, ms"},
    {"buffer", AT(gossip.max_events), 1, 1e7, "buffer bound |events|max"},
    {"event_ids", AT(gossip.max_event_ids), 1, 1e8, "digest |eventIds|max"},
    {"max_age", AT(gossip.max_age), 1, 1e6, "age limit k, hops"},
    {"semantic_purge", AT(gossip.semantic_purge), 0, 1,
     "evict superseded events first"},
    {"recovery", AT(gossip.recovery.enabled), 0, 1, "pull repair"},
    {"repair_after", AT(gossip.recovery.repair_after_rounds), 0, 1e6,
     "rounds before a missing id is requested"},
    {"give_up_after", AT(gossip.recovery.give_up_after_rounds), 0, 1e6,
     "rounds before a missing id is abandoned"},
    {"retrieve_rounds", AT(gossip.recovery.retrieve_rounds), 0, 1e6,
     "rounds an evicted event stays retrievable (0: off)"},
    // Adaptation (paper Fig. 5).
    {"adaptive", AT(adaptive), 0, 1, "adaptive lpbcast (1) or the baseline"},
    {"tau_ms", AT(adaptation.sample_period), 1, 1e7,
     "minBuff sample period tau, ms (unset: 2 x period_ms)", periods<2>},
    {"window", AT(adaptation.min_buff_window), 1, 1e6,
     "sample periods W folded into minBuff"},
    {"alpha", AT(adaptation.alpha), 0, 1, "EWMA history weight alpha"},
    {"critical_age", AT(adaptation.critical_age), 0, 1e6,
     "critical drop age a_r, hops"},
    {"low_mark", AT(adaptation.low_age_mark), 0, 1e6,
     "avgAge under which the rate falls (unset: critical_age - 0.5)",
     around_critical_age<-1>},
    {"high_mark", AT(adaptation.high_age_mark), 0, 1e6,
     "avgAge over which the rate may rise (unset: critical_age + 0.5)",
     around_critical_age<1>},
    {"delta_d", AT(adaptation.decrease_factor), 0, 1,
     "relative rate decrease per congested round"},
    {"delta_i", AT(adaptation.increase_factor), 0, 1e6,
     "relative rate increase per spare round"},
    {"gamma", AT(adaptation.increase_probability), 0, 1,
     "chance a sender takes an allowed increase"},
    {"bucket", AT(adaptation.bucket_capacity), 1, 1e6, "token bucket size"},
    {"initial_rate", AT(adaptation.initial_rate), 0, 1e6,
     "each sender's first allowed msg/s (unset: rate / senders)",
     [](P& p, const Field& field) {  // senders beyond n do not send
       *std::get<double*>(field) =
           p.offered_rate /
           static_cast<double>(scenario_sender_ids(p.n, p.senders).size());
     }},
    {"robust_k", AT(adaptation.robust_k), 1, 1e4,
     "adapt to the k-th smallest buffer"},
    {"robust_floor", AT(adaptation.robust_floor), 0, 1e9,
     "with robust_k > 1, buffers under this are ignored"},
    {"idle_age_boost", AT(adaptation.idle_age_boost), 0, 1,
     "a drop-free round feeds avgAge the age limit"},
    // The control plane (adaptive runs).
    {"control_plane", AT(adaptation.control.enabled), 0, 1,
     "self-tuning p_local and fanout"},
    {"control_hysteresis", AT(adaptation.control.hysteresis), 0, 1e3,
     "hysteresis around the age marks, hops"},
    {"p_local_min", AT(adaptation.control.p_local_min), 0, 1, "p_local floor"},
    {"p_local_max", AT(adaptation.control.p_local_max), 0, 1, "p_local top"},
    {"p_local_step", AT(adaptation.control.p_local_step), 0, 1,
     "p_local change per round"},
    {"fanout_congested_scale", AT(adaptation.control.fanout_congested_scale),
     0, 100, "fanout scale when congested"},
    {"fanout_spare_scale", AT(adaptation.control.fanout_spare_scale), 0, 100,
     "fanout scale with spare capacity"},
    {"starve_threshold", AT(adaptation.control.starve_threshold), 0, 1e6,
     "remote-novelty EWMA under which p_local falls"},
    // Membership.
    {"partial_view", AT(partial_view), 0, 1, "lpbcast partial views"},
    {"view_max", AT(view_params.max_view), 1, 1e6, "partial view bound"},
    {"view_subs", AT(view_params.max_subs), 0, 1e6, "subs per message"},
    {"view_unsubs", AT(view_params.max_unsubs), 0, 1e6, "unsubs per message"},
    {"failure_detector", AT(failure_detector), 0, 1,
     "crashes and recoveries update every view"},
    {"gossip_membership", AT(gossip_membership), 0, 1,
     "liveness gossiped with suspicion timeouts"},
    {"suspect_after_ms", AT(membership_params.suspect_after), 1, 1e9,
     "silence before suspicion, ms (gossip_membership: 4 x period_ms)",
     suspicion<4>},
    {"down_after_ms", AT(membership_params.down_after), 1, 1e9,
     "silence before down, ms (gossip_membership: 8 x period_ms)",
     suspicion<8>},
    {"membership_budget", AT(membership_params.digest_budget_bytes), 0, 1e6,
     "member-record bytes per message"},
    {"migrate_on_rejoin", AT(migrate_on_rejoin), 0, 1,
     "a recovering node rejoins at a new endpoint"},
    // Network.
    {"latency", AT(network.latency), 0, 0, "LAN link delay"},
    {"clusters", AT(network.clusters), 1, 1e6, "islands; node i: i % clusters"},
    {"wan_latency", AT(network.wan_latency), 0, 0, "delay between islands"},
    {"loss", AT(network.loss), 0, 0, "i.i.d. or Gilbert-Elliott loss"},
    {"locality", AT(locality.enabled), 0, 1, "targets biased to the island"},
    {"p_local", AT(locality.p_local), 0, 1, "share of targets on the island"},
    {"bridges_per_cluster", AT(locality.bridges_per_cluster), 1, 1e6,
     "bridge nodes per island"},
    // Schedules; each replaces the preset's generator of its kind.
    {"capacity", AT(capacity_schedule), 0, 0, "buffer changes"},
    {"failures", AT(failure_schedule), 0, 0, "crashes and recoveries"},
    {"chaos", AT(chaos), 0, 0, "windowed fault injection"},
    // The run.
    {"warmup_s", AT(warmup), 0, 1e6, "warm-up outside the metrics, s"},
    {"duration_s", AT(duration), 0, 1e6, "evaluation window, s"},
    {"cooldown_s", AT(cooldown), 0, 1e6, "run-out after the window, s"},
    {"bucket_s", AT(series_bucket), 1, 1e6, "time-series bucket, s"},
    {"sim_shards", AT(sim_shards), 0, 256, "sharded simulator above 1"},
    {"sim_workers", AT(sim_workers), 0, 256,
     "sharded simulator threads (0: one per shard, up to the cores)"},
    // Read by a preset's schedule generator (list=1 shows which).
    {"t1_s", knob<DurationMs>, 0, 1e6, "squeeze: start after warm-up, s"},
    {"t2_s", knob<DurationMs>, 0, 1e6, "squeeze: move to buf2, s"},
    {"fraction", knob<double>, 0, 1, "squeeze: share of nodes resized"},
    {"buf1", knob<std::size_t>, 1, 1e7, "squeeze: buffer while squeezed"},
    {"buf2", knob<std::size_t>, 1, 1e7, "squeeze: buffer from t2_s on"},
    {"churn_every_s", knob<DurationMs>, 0, 1e6, "waves: s between crashes"},
    {"churn_down_s", knob<DurationMs>, 0, 1e6, "waves: s down per crash"},
    {"churn_count", knob<std::size_t>, 0, 1e6, "waves: crashes"},
    {"chaos_corrupt", knob<double>, 0, 1, "fault window: corruption rate"},
    {"chaos_truncate", knob<double>, 0, 1, "fault window: truncation rate"},
    {"chaos_dup", knob<double>, 0, 1, "fault window: duplication rate"},
    {"chaos_reorder", knob<double>, 0, 1, "fault window: reorder rate"},
    // Read by agb_sim.
    {"scenario", knob<std::string>, 0, 0, "preset", nullptr, "paper60"},
    {"list", knob<bool>, 0, 1, "print presets and keys", nullptr, "0"},
    {"sweep", knob<std::string>, 0, 0,
     "axis:lo:hi:step, one run per value of a numeric key"},
    {"fabric", knob<std::string>, 0, 0, "sim, or inmemory (real threads)",
     nullptr, "sim"},
    {"shards", knob<std::size_t>, 1, 64, "fabric=inmemory receiver shards",
     nullptr, "4"},
    {"csv", knob<std::string>, 0, 0, "prefix of the CSV written", nullptr, ""},
    {"bench", knob<std::string>, 0, 0, "JSON bench record path", nullptr, ""},
    {"per_node", knob<bool>, 0, 1, "per-node counters (classic engine)",
     nullptr, "0"},
};

#undef AT

const Key* find_key(std::string_view name) {
  for (const Key& key : kKeys) {
    if (name == key.name) return &key;
  }
  return nullptr;
}

/// Visits `key`'s value type, knobs included.
template <class Fn>
auto visit_type(const Key& key, Fn&& fn) {
  P probe;
  return std::visit(
      [&](auto* field) {
        using T = std::remove_pointer_t<decltype(field)>;
        return fn(static_cast<T*>(nullptr));
      },
      key.field(probe));
}

std::string number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.15g", v);
  return buf;
}

/// What `key` accepts, as the tail of its bad-value message.
std::string accepts(const Key& key) {
  return visit_type(key, [&](auto* type) -> std::string {
    using T = std::remove_pointer_t<decltype(type)>;
    if constexpr (std::is_same_v<T, bool>) {
      return "0 or 1";
    } else if constexpr (std::is_arithmetic_v<T>) {
      const std::string what =
          std::is_integral_v<T> ? "an integer" : "a number";
      return key.hi == kNoMax ? what + " >= " + number(key.lo)
                              : what + " in [" + number(key.lo) + ", " +
                                    number(key.hi) + "]";
    } else if constexpr (std::is_same_v<T, sim::LatencyModel>) {
      return "fixed:ms | uniform:lo:hi | normal:mean:stddev, each >= 0, "
             "lo <= hi";
    } else if constexpr (std::is_same_v<T, sim::LossModel>) {
      return "p | burst:pgood:pbad:pgb:pbg, each in [0, 1]";
    } else if constexpr (std::is_same_v<T, std::vector<CapacityChange>>) {
      return "at_ms:fraction:cap[,...], at_ms >= 0, fraction in [0, 1], "
             "cap >= 1";
    } else if constexpr (std::is_same_v<T, std::vector<FailureEvent>>) {
      return "at_ms:node:up|down[,...], at_ms >= 0, node below n";
    } else if constexpr (std::is_same_v<T, fault::ChaosSchedule>) {
      return std::string("rule[,rule...], rules: ") + kChaosRules;
    } else {
      return "text";
    }
  });
}

[[noreturn]] void throw_bad(const Key& key, const std::string& text,
                            const std::string& want) {
  throw std::invalid_argument("bad " + std::string(key.name) + " value '" +
                              text + "' (want " + want + ")");
}

/// The one strict parser per type: `text` read whole as `key`'s value,
/// range-checked, in the unit its field stores.
template <class T>
T parse_value(const Key& key, const std::string& text) {
  T value{};
  bool ok = false;
  if constexpr (std::is_same_v<T, bool>) {
    ok = parse_bool(text, &value);
  } else if constexpr (std::is_same_v<T, std::string>) {
    return text;
  } else if constexpr (std::is_arithmetic_v<T>) {
    ok = parse_number(text, &value) && static_cast<double>(value) >= key.lo &&
         static_cast<double>(value) <= key.hi;
    if constexpr (std::is_same_v<T, std::int64_t>) value *= unit(key);
  } else if constexpr (std::is_same_v<T, sim::LatencyModel>) {
    ok = parse_latency_spec(text, &value);
  } else if constexpr (std::is_same_v<T, sim::LossModel>) {
    ok = parse_loss_spec(text, &value);
  } else if constexpr (std::is_same_v<T, std::vector<CapacityChange>>) {
    ok = parse_capacity_spec(text, &value);
  } else if constexpr (std::is_same_v<T, std::vector<FailureEvent>>) {
    ok = parse_failure_spec(text, &value);
  } else if constexpr (std::is_same_v<T, fault::ChaosSchedule>) {
    if (!parse_chaos_spec(text, &value)) {
      throw std::invalid_argument(bad_chaos_spec_message(text));
    }
    ok = true;
  }
  if (!ok) throw_bad(key, text, accepts(key));
  return value;
}

/// A knob's value: the user's, else the preset line's, else the table's.
template <class T>
T read(const KeySource& keys, const std::string& name) {
  const Key* key = find_key(name);
  const auto text = keys.raw(name);
  if (key == nullptr || (!text && key->fallback == nullptr)) {
    throw std::logic_error("no value for key '" + name + "'");
  }
  return parse_value<T>(*key, text ? *text : key->fallback);
}

/// True when `key`'s numeric field holds the same value in `p` and `stock`.
bool holds_stock(const Key& key, P& p, P& stock) {
  const Field theirs = key.field(stock);
  return std::visit(
      [&](auto* mine) {
        using T = std::remove_pointer_t<decltype(mine)>;
        if constexpr (std::is_arithmetic_v<T>) {
          return *mine == *std::get<T*>(theirs);
        } else {
          return false;
        }
      },
      key.field(p));
}

ScenarioParams apply_keys(const KeySource& keys, ScenarioParams p) {
  P stock;
  std::vector<const Key*> derived;
  for (const Key& key : kKeys) {
    const Field field = key.field(p);  // null: a generator or agb_sim knob
    if (std::visit([](auto* f) { return f == nullptr; }, field)) continue;
    if (const auto text = keys.raw(key.name)) {
      std::visit(
          [&](auto* f) {
            *f = parse_value<std::remove_pointer_t<decltype(f)>>(key, *text);
          },
          field);
    } else if (key.derive != nullptr && holds_stock(key, p, stock)) {
      derived.push_back(&key);
    }
  }
  // Derived values follow the final values of the keys they derive from.
  for (const Key* key : derived) key->derive(p, key->field(p));

  // Node ids in the schedule specs must name members of the final group.
  const auto check = [&](const char* name, NodeId node) {
    if (node != fault::kAnyNode && node >= p.n && keys.raw(name)) {
      throw_bad(*find_key(name), *keys.raw(name),
                "node ids below n=" + std::to_string(p.n));
    }
  };
  for (const auto& event : p.failure_schedule) check("failures", event.node);
  for (const auto& rule : p.chaos.rules) {
    check("chaos", rule.a);
    check("chaos", rule.b);
  }
  return p;
}

/// The calibrated paper60 configuration: 60 nodes, fanout 4, 2 s gossip
/// period — the period at which this substrate's capacity knee lands at the
/// paper's buffer-size axis (~120 events at 30 msg/s; README's "Figure
/// reproductions" regenerates the curve with bench/fig4_max_rate).
ScenarioParams paper60(const KeySource& keys) {
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
  const bool quick = read<bool>(keys, "quick");
  p.warmup = (quick ? 20 : 40) * 1000;
  p.duration = (quick ? 60 : 150) * 1000;
  p.cooldown = 30'000;
  return p;
}

/// The crash/recover waves: every churn_every_s another node, pick(p, i),
/// goes down for churn_down_s, churn_count times, from the end of the
/// warm-up.
ScheduleGenerator crash_wave(const char* name,
                             NodeId (*pick)(const ScenarioParams&,
                                            std::size_t)) {
  return {name, "failures", [pick](const KeySource& keys, ScenarioParams& p) {
            const auto every = read<DurationMs>(keys, "churn_every_s");
            const auto down_for = read<DurationMs>(keys, "churn_down_s");
            const auto count = read<std::size_t>(keys, "churn_count");
            for (std::size_t i = 0; i < count; ++i) {
              const NodeId node = pick(p, i);
              const TimeMs at = p.warmup + static_cast<TimeMs>(i) * every;
              p.failure_schedule.push_back({at, node, /*up=*/false});
              p.failure_schedule.push_back({at + down_for, node, /*up=*/true});
            }
          }};
}

/// The capacity squeeze: `fraction` of the nodes move to each (time,
/// capacity) step `steps` gives, first down to buf1, then back up if the
/// squeeze heals.
using Steps = std::vector<std::pair<TimeMs, std::size_t>>;
ScheduleGenerator capacity_squeeze(Steps (*steps)(const KeySource&,
                                                  const ScenarioParams&)) {
  return {"capacity squeeze", "capacity",
          [steps](const KeySource& keys, ScenarioParams& p) {
            const auto fraction = read<double>(keys, "fraction");
            for (const auto& [at, capacity] : steps(keys, p)) {
              p.capacity_schedule.push_back({at, fraction, capacity});
            }
          }};
}

/// The fault window: the rules `rules` gives run from a quarter into the
/// evaluation window until `close_quarters` quarters in. Computed after the
/// keys, so scaled-down runs move the window with them; every preset
/// leaves room after it for the kChaosRecoveryRounds self-healing report.
ScheduleGenerator fault_window(
    TimeMs close_quarters,
    std::vector<fault::FaultRule> (*rules)(const KeySource&,
                                           const ScenarioParams&)) {
  return {"fault window", "chaos",
          [=](const KeySource& keys, ScenarioParams& p) {
            p.chaos.rules = rules(keys, p);
            for (auto& rule : p.chaos.rules) {
              rule.start = p.warmup + p.duration / 4;
              rule.end = p.warmup + (p.duration * close_quarters) / 4;
            }
          }};
}

/// A built-in preset: paper60 plus `line` plus `generator`.
ScenarioPreset on_paper60(std::string name, std::string summary,
                          std::string line, ScheduleGenerator generator = {}) {
  auto build = [line, generator](const Config& cfg) {
    return build_on_paper60(cfg, line, generator);
  };
  return {std::move(name), std::move(summary), std::move(build),
          std::move(line), std::move(generator)};
}

}  // namespace

ScenarioParams build_on_paper60(const Config& cfg, const std::string& line,
                                const ScheduleGenerator& generator) {
  Config parsed;
  std::string error;
  for (const auto& pair : split(line, ' ')) {
    if (!parsed.parse_pair(pair, &error)) throw std::logic_error(error);
  }
  const KeySource keys{cfg, parsed};
  ScenarioParams p = apply_keys(keys, paper60(keys));
  if (generator.run && !keys.raw(generator.owner)) generator.run(keys, p);
  return p;
}

ScenarioParams params_from_config(const Config& cfg, ScenarioParams base) {
  const Config none;
  return apply_keys(KeySource{cfg, none}, std::move(base));
}

template <class T>
T key_value(const Config& cfg, const std::string& name) {
  const Config none;
  return read<T>(KeySource{cfg, none}, name);
}
template bool key_value<bool>(const Config&, const std::string&);
template std::size_t key_value<std::size_t>(const Config&, const std::string&);
template std::string key_value<std::string>(const Config&, const std::string&);

std::vector<std::string> key_names() {
  std::vector<std::string> names;
  for (const Key& key : kKeys) names.emplace_back(key.name);
  return names;
}

std::vector<NumericKey> numeric_keys() {
  std::vector<NumericKey> out;
  for (const Key& key : kKeys) {
    visit_type(key, [&](auto* type) {
      using T = std::remove_pointer_t<decltype(type)>;
      if constexpr (std::is_arithmetic_v<T> && !std::is_same_v<T, bool>) {
        out.push_back({key.name, key.lo, key.hi, std::is_integral_v<T>});
      }
    });
  }
  return out;
}

std::string key_reference() {
  ScenarioParams base = build_on_paper60(Config{}, "", {});
  std::string out;
  char head[64];
  for (const Key& key : kKeys) {
    const std::string value = std::visit(
        [&](auto* f) -> std::string {
          using T = std::remove_pointer_t<decltype(f)>;
          if (f == nullptr) {
            return key.fallback && *key.fallback ? key.fallback : "-";
          }
          if constexpr (std::is_same_v<T, bool>) {
            return *f ? "1" : "0";
          } else if constexpr (std::is_integral_v<T>) {
            return std::to_string(*f / static_cast<T>(unit(key)));
          } else if constexpr (std::is_same_v<T, double>) {
            return number(*f);
          } else if constexpr (std::is_same_v<T, sim::LatencyModel>) {
            using K = sim::LatencyModel::Kind;
            return f->kind == K::kFixed ? "fixed:" + number(f->a)
                   : (f->kind == K::kUniform ? "uniform:" : "normal:") +
                         number(f->a) + ":" + number(f->b);
          } else {
            return "-";  // no loss and no schedules in paper60
          }
        },
        key.field(base));
    std::snprintf(head, sizeof head, "%-22s %-13s ", key.name, value.c_str());
    out += head + std::string(key.doc) + "; " + accepts(key) + "\n";
  }
  return out;
}

std::vector<std::string> closest_names(
    std::string_view name, const std::vector<std::string>& candidates) {
  const auto rank = [&](const std::string& candidate) {
    return std::make_pair(edit_distance(name, candidate), candidate);
  };
  std::vector<std::string> out;
  for (const auto& candidate : candidates) {
    if (rank(candidate).first <= std::max<std::size_t>(2, name.size() / 3) ||
        (!name.empty() && (candidate.find(name) != std::string::npos ||
                           name.find(candidate) != std::string_view::npos))) {
      out.push_back(candidate);
    }
  }
  std::sort(out.begin(), out.end(),
            [&](const auto& a, const auto& b) { return rank(a) < rank(b); });
  return out;
}

std::vector<double> SweepSpec::values() const {
  std::vector<double> out;
  if (step <= 0.0) return out;
  const double tolerance = step * 1e-9;
  for (double v = lo; v <= hi + tolerance; v += step) out.push_back(v);
  return out;
}

bool parse_sweep_spec(const std::string& spec, SweepSpec* out) {
  const auto parts = split(spec, ':');
  if (parts.size() != 4) return false;
  // The axis must be a numeric key, or loss, whose i.i.d. form is a number.
  const Key* axis = find_key(parts[0]);
  if (axis == nullptr || !visit_type(*axis, [](auto* type) {
        using T = std::remove_pointer_t<decltype(type)>;
        return std::is_arithmetic_v<T> || std::is_same_v<T, sim::LossModel>;
      })) {
    return false;
  }
  SweepSpec parsed;
  parsed.axis = parts[0];
  if (!parse_number(parts[1], &parsed.lo) ||
      !parse_number(parts[2], &parsed.hi) ||
      !parse_number(parts[3], &parsed.step) || parsed.step <= 0.0 ||
      parsed.hi < parsed.lo) {
    return false;
  }
  *out = std::move(parsed);
  return true;
}

bool parse_latency_spec(const std::string& spec, sim::LatencyModel* out) {
  const auto parts = split(spec, ':');
  double a = 0.0;
  double b = 0.0;
  if (parts.size() < 2 || !parse_number(parts[1], &a) || a < 0.0) return false;
  const bool two = parts.size() == 3 && parse_number(parts[2], &b) && b >= 0.0;
  if (parts[0] == "fixed" && parts.size() == 2) {
    *out = sim::LatencyModel::fixed(a);
  } else if (parts[0] == "uniform" && two && a <= b) {
    *out = sim::LatencyModel::uniform(a, b);
  } else if (parts[0] == "normal" && two) {
    *out = sim::LatencyModel::normal(a, b);
  } else {
    return false;
  }
  return true;
}

bool parse_loss_spec(const std::string& spec, sim::LossModel* out) {
  const auto parts = split(spec, ':');
  const bool burst = parts.size() == 5 && parts[0] == "burst";
  if (!burst && parts.size() != 1) return false;
  double p[4] = {};
  for (std::size_t i = burst ? 1 : 0; i < parts.size(); ++i) {
    if (!parse_probability(parts[i], &p[i - (burst ? 1 : 0)])) return false;
  }
  *out = burst ? sim::LossModel::burst(p[0], p[1], p[2], p[3])
               : sim::LossModel::iid(p[0]);
  return true;
}

bool parse_capacity_spec(const std::string& spec,
                         std::vector<CapacityChange>* out) {
  return parse_list(spec, out, [](const std::string& item, CapacityChange* c) {
    const auto f = split(item, ':');
    return f.size() == 3 && parse_number(f[0], &c->at) && c->at >= 0 &&
           parse_probability(f[1], &c->node_fraction) &&
           parse_number(f[2], &c->new_capacity) && c->new_capacity > 0;
  });
}

bool parse_failure_spec(const std::string& spec,
                        std::vector<FailureEvent>* out) {
  return parse_list(spec, out, [](const std::string& item, FailureEvent* e) {
    const auto f = split(item, ':');
    e->up = f.size() == 3 && f[2] == "up";
    return f.size() == 3 && parse_number(f[0], &e->at) && e->at >= 0 &&
           parse_number(f[1], &e->node) && (e->up || f[2] == "down");
  });
}

bool parse_chaos_spec(const std::string& spec, fault::ChaosSchedule* out) {
  fault::ChaosSchedule parsed;
  if (!parse_list(spec, &parsed.rules, parse_chaos_rule) || parsed.empty()) {
    return false;
  }
  *out = std::move(parsed);
  return true;
}

std::string bad_chaos_spec_message(const std::string& spec) {
  std::string message = "bad chaos spec '" + spec + "'";
  for (const auto& item : split(spec, ',')) {
    const std::string kind =
        item.substr(0, std::min(item.find(':'), item.find('@')));
    const auto close = closest_names(kind, kChaosKinds);
    if (!close.empty() && close.front() != kind) {  // a known kind: distance 0
      message += "; did you mean: " + close.front() + '?';
    }
  }
  return message + " rules: " + kChaosRules;
}

ScenarioRegistry& ScenarioRegistry::instance() {
  static ScenarioRegistry registry;
  return registry;
}

ScenarioRegistry::ScenarioRegistry() {
  // Paper §5's three islands joined by slower WAN links, and directional
  // gossip over them: 90 % of the fanout stays local, the rest goes through
  // remote bridges. Funnelling adds rounds, so a longer age limit and two
  // bridges per island keep delivery within half a point of wan-clusters
  // while the cross-WAN share falls from ~67 % to ~10 %.
  const std::string islands = "clusters=3 wan_latency=uniform:20:60";
  const std::string directional =
      islands + " max_age=20 locality=1 p_local=0.9 bridges_per_cluster=2";
  // Oracle-free liveness: GossipMembership's suspicion timeouts.
  const std::string oracle_free = "gossip_membership=1 failure_detector=0";
  // The rolling wave's stride 7 spreads crashes over the ids, senders
  // included. The bridge churn crashes island c's first bridge, node c, one
  // island at a time; each crash promotes the next-lowest id.
  const std::string wave = " churn_every_s=20 churn_down_s=15 churn_count=8";
  const auto rolling_wave =
      crash_wave("rolling crash wave", [](const P& p, std::size_t i) {
        return static_cast<NodeId>((3 + 7 * i) % p.n);
      });
  const std::string bridge_wave =
      " churn_every_s=30 churn_down_s=20 churn_count=3";
  const auto bridge_churn =
      crash_wave("bridge churn", [](const P& p, std::size_t i) {
        return static_cast<NodeId>(
            i % std::max<std::size_t>(p.network.clusters, 1));
      });
  // Scale presets: O(view) partial views, and buffers sized as the memory
  // bill they are at 10^5..10^6 nodes: at 10 events/s living 12 rounds of
  // 2 s, ~240 events are in flight, and the digest covers that window.
  const std::string scale =
      " senders=32 rate=10 partial_view=1 buffer=48 event_ids=384 warmup_s=4 "
      "duration_s=20 cooldown_s=6";

  add(on_paper60("paper60", "calibrated 60-node LAN baseline (fanout 4, T=2s)",
                 ""));
  add(on_paper60("fig2",
                 "reliability degradation vs input rate (static 60-buffer)",
                 "buffer=60"));
  for (const auto& [name, summary] :
       {std::pair{"fig4", "maximum input rate vs buffer size (capacity "
                          "search base)"},
        {"fig6", "ideal vs adaptive rates under shrinking buffers"},
        {"fig7", "input/output rates and drop ages, lpbcast vs adaptive"},
        {"fig8", "reliability (receivers & atomicity), lpbcast vs adaptive"}}) {
    add(on_paper60(name, summary, ""));
  }
  // Just under the 90-slot knee (~41 msg/s) so the shrink bites, and a
  // faster gamma than the paper's 0.1 so 450 s show both phases.
  add(on_paper60(
      "fig9", "dynamic buffers: 20% of nodes 90 -> 45 -> 60 under load",
      "rate=36 buffer=90 gamma=0.2 duration_s=450 bucket_s=10 t1_s=150 "
      "t2_s=300 fraction=0.2 buf1=45 buf2=60",
      capacity_squeeze([](const KeySource& keys, const P& p) {
        return Steps{{p.warmup + read<DurationMs>(keys, "t1_s"),
                      read<std::size_t>(keys, "buf1")},
                     {p.warmup + read<DurationMs>(keys, "t2_s"),
                      read<std::size_t>(keys, "buf2")}};
      })));
  add(on_paper60("churn", "rolling crash/recover wave across the group",
                 wave.substr(1), rolling_wave));
  // ~20 % loss in bursts, the paper's hard case for gossip.
  add(on_paper60("burst-loss",
                 "Gilbert-Elliott bursty loss (~20%) with pull repair",
                 "loss=burst:0.02:0.9:0.05:0.2 recovery=1"));
  add(on_paper60("wan-clusters",
                 "three LAN islands joined by 20-60 ms WAN links", islands));
  add(on_paper60("wan-directional",
                 "wan-clusters with locality-biased targets and bridge nodes",
                 directional));
  add(on_paper60("wan-directional-churn",
                 "wan-directional with the elected bridges crashing in turn",
                 directional + " failure_detector=1" + bridge_wave,
                 bridge_churn));
  add(on_paper60(
      "churn-blind",
      "bridge churn detected by gossiped suspicion alone (no oracle)",
      directional + " " + oracle_free + bridge_wave, bridge_churn));
  // A rejoin bumps the revision and rotates the advertised endpoint.
  add(on_paper60("host-migration",
                 "churned nodes rejoin at new endpoints under bumped "
                 "revisions",
                 oracle_free + " migrate_on_rejoin=1" + wave, rolling_wave));
  // Half the buffers shrink hard a quarter into the window: the control
  // plane raises p_local and trims fanout, then relaxes both after the heal
  // at 5/8, late enough that quick parity runs see both phases.
  add(on_paper60(
      "adaptive-wan",
      "wan-directional + control plane: p_local rises under a buffer "
      "squeeze, recovers after it heals",
      directional + " adaptive=1 control_plane=1 fraction=0.5 buf1=30",
      capacity_squeeze([](const KeySource& keys, const P& p) {
        const std::size_t low = read<std::size_t>(keys, "buf1");
        return Steps{{p.warmup + p.duration / 4, low},
                     {p.warmup + (p.duration * 5) / 8, p.gossip.max_events}};
      })));
  // Overload queues arrivals behind the token bucket (the paper's blocking
  // BROADCAST), busy but bounded by pending_cap on every engine.
  add(on_paper60("adaptive-backpressure",
                 "overloaded adaptive LAN: blocking-BROADCAST queues bounded "
                 "by pending_cap on both harnesses",
                 "adaptive=1 control_plane=1 rate=45 fraction=0.3 buf1=45",
                 capacity_squeeze([](const KeySource& keys, const P& p) {
                   return Steps{{p.warmup + p.duration / 4,
                                 read<std::size_t>(keys, "buf1")}};
                 })));
  add(on_paper60("semantic-streams",
                 "supersede-heavy streams with semantic purging",
                 "supersede=0.35 semantic_purge=1 buffer=60"));
  add(on_paper60("scale-1e5",
                 "100k nodes on partial views (calendar-queue scale soak)",
                 "n=100000" + scale));
  add(on_paper60("scale-1e6",
                 "1M nodes on partial views (memory-bound scale soak)",
                 "n=1000000" + scale));
  // Fault windows hit nodes 3 and 5, non-senders at the paper scale and at
  // the parity scale. Corruption feeds the codec live, duplication the
  // digest, reordering the age purge; pull repair helps the healing.
  using fault::FaultKind;
  using fault::kAnyNode;
  add(on_paper60(
      "chaos-soak",
      "mid-run corruption/truncation/dup/reorder burst; must self-heal",
      "recovery=1 chaos_corrupt=0.15 chaos_truncate=0.05 chaos_dup=0.1 "
      "chaos_reorder=0.1",
      fault_window(2, [](const KeySource& keys, const P& p) {
        return std::vector<fault::FaultRule>{
            {FaultKind::kCorrupt, read<double>(keys, "chaos_corrupt")},
            {FaultKind::kTruncate, read<double>(keys, "chaos_truncate")},
            {FaultKind::kDuplicate, read<double>(keys, "chaos_dup")},
            {FaultKind::kReorder, read<double>(keys, "chaos_reorder"),
             kAnyNode, kAnyNode, p.gossip.gossip_period / 2}};
      })));
  // Nothing node 3 sends arrives, and 1 -> 2 dies while 2 -> 1 lives;
  // after the window node 3's fresh heartbeats must win again.
  add(on_paper60(
      "asymmetric-partition",
      "one-way link failures: suspicion under fire, re-convergence after",
      oracle_free, fault_window(2, [](const KeySource&, const P&) {
        return std::vector<fault::FaultRule>{
            {FaultKind::kOneWay, 0.0, 3, kAnyNode},
            {FaultKind::kOneWay, 0.0, 1, 2}};
      })));
  // Node 3 stalls and node 5's clock skews two periods, under the 4-period
  // suspicion timeout: no down verdicts. Both act on the wall clock only.
  add(on_paper60(
      "gray-failure",
      "stalled + clock-skewed nodes stay slow-but-up; no down verdicts",
      oracle_free, fault_window(3, [](const KeySource&, const P& p) {
        const DurationMs period = p.gossip.gossip_period;
        return std::vector<fault::FaultRule>{
            {FaultKind::kStall, 0.0, 3, kAnyNode,
             std::max<DurationMs>(5, period / 5)},
            {FaultKind::kSkew, 0.0, 5, kAnyNode, 2 * period}};
      })));
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
  std::vector<std::string> names;
  for (const auto& preset : presets_) names.push_back(preset.name);
  return closest_names(name, names);
}

std::string ScenarioRegistry::unknown_name_message(
    std::string_view name) const {
  std::string message = "unknown scenario preset '" + std::string(name) + "'";
  const auto close = suggest(name);
  for (std::size_t i = 0; i < close.size(); ++i) {
    message += (i == 0 ? "; did you mean: " : " ") + close[i];
  }
  message += close.empty() ? " known:" : "? known:";
  for (const auto* known : presets()) message += " " + known->name;
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
