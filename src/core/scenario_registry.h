// Named scenario presets and the key table: the single source of every
// experiment configuration in the repo.
//
// Every key=value override (common::Config) is one row of the key table in
// scenario_registry.cc: name, doc, type, inclusive range and the
// ScenarioParams field it sets. Values are parsed whole, a bad one throws
// std::invalid_argument ("bad <key> value '<v>' (want ...)") before any
// group is built, and `agb_sim list=1` prints the rows. Every built-in
// preset is paper60 < one override line < the user's keys, plus at most
// one schedule generator.
#pragma once

#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "common/config.h"
#include "core/scenario.h"

namespace agb::core {

/// The calibrated critical age a_r (hops) of the paper60 configuration
/// under the bimodal-atomicity criterion the adaptive marks target: the
/// knee drop age bench/fig4_max_rate measures (ROADMAP item 1 lists the
/// measured knee ages; README's "Figure reproductions" gives the command).
inline constexpr double kPaper60CriticalAge = 8.0;

/// Where a build reads its keys: the user's Config, then the preset's line.
struct KeySource;

/// A preset's schedule: the rolling crash wave, the bridge churn, the
/// capacity squeeze or the fault window. It runs after the keys, unless the
/// user set `owner` (the failures=, capacity= or chaos= spec).
struct ScheduleGenerator {
  std::string name;
  std::string owner;
  std::function<void(const KeySource&, ScenarioParams&)> run;
};

struct ScenarioPreset {
  std::string name;
  std::string summary;  // one line, shown by `agb_sim list=1`
  std::function<ScenarioParams(const Config&)> build;
  std::string overrides{};        // the key=value line on paper60
  ScheduleGenerator generator{};  // empty `run`: none
};

class ScenarioRegistry {
 public:
  /// The process-wide registry, pre-populated with the built-in presets.
  static ScenarioRegistry& instance();

  ScenarioRegistry();

  /// Adds (or replaces, by name) a preset.
  void add(ScenarioPreset preset);

  [[nodiscard]] const ScenarioPreset* find(std::string_view name) const;

  /// Builds `name` with `cfg` overrides. Throws std::invalid_argument for
  /// an unknown name (unknown_name_message()) or a bad value.
  [[nodiscard]] ScenarioParams build(std::string_view name,
                                     const Config& cfg) const;

  /// Preset names close to `name`, best match first (closest_names()).
  [[nodiscard]] std::vector<std::string> suggest(std::string_view name) const;

  /// The full diagnostic for a name find() rejected: "did you mean" with
  /// suggest()'s hits (when any) plus the known-preset list. build()
  /// throws exactly this text; tools print it verbatim, so the two paths
  /// can't drift apart.
  [[nodiscard]] std::string unknown_name_message(std::string_view name) const;

  /// All presets, sorted by name.
  [[nodiscard]] std::vector<const ScenarioPreset*> presets() const;

 private:
  std::vector<ScenarioPreset> presets_;
};

/// paper60 < `line` < `cfg`, then `generator`: every built-in preset.
ScenarioParams build_on_paper60(const Config& cfg, const std::string& line,
                                const ScheduleGenerator& generator);

/// Applies every key of the table that `cfg` sets on top of `base`. A
/// derived key that no key sets (tau_ms, low_mark, high_mark,
/// initial_rate; suspect_after_ms and down_after_ms with gossip_membership)
/// follows the keys it derives from, unless `base` holds a non-stock value.
ScenarioParams params_from_config(const Config& cfg, ScenarioParams base);

/// An agb_sim key read from `cfg`, parsed and range-checked like build(),
/// else the table's default (bool, std::size_t and std::string).
template <class T>
T key_value(const Config& cfg, const std::string& name);

/// The names of every key in the table.
std::vector<std::string> key_names();

/// A numeric key's inclusive range, in the key's unit (seconds for *_s).
struct NumericKey {
  std::string name;
  double lo = 0.0;
  double hi = 0.0;  // infinity: only the value's type bounds it
  bool integer = false;
};
std::vector<NumericKey> numeric_keys();

/// One line per key: its paper60 value, doc and what it accepts.
std::string key_reference();

/// Names among `candidates` within max(2, |name| / 3) edits of `name` or
/// containing it (or contained), best first: the one "did you mean" rule
/// for preset names, keys and chaos kinds.
std::vector<std::string> closest_names(
    std::string_view name, const std::vector<std::string>& candidates);

/// A parameter sweep, `axis:lo:hi:step`, over a numeric key of the table
/// (or loss): the preset is rebuilt once per axis value.
struct SweepSpec {
  std::string axis;
  double lo = 0.0;
  double hi = 0.0;
  double step = 1.0;

  /// lo, lo+step, ... up to and including hi (with a tolerance of one
  /// part in 1e9 of a step, so fractional axes don't drop the last value).
  [[nodiscard]] std::vector<double> values() const;
};

/// Spec-string parsers, exposed for tools and tests. Return false on
/// malformed or out-of-range input and leave `out` untouched; `agb_sim
/// list=1` prints each grammar. Chaos window times are seconds, absolute
/// (warm-up included).
bool parse_sweep_spec(const std::string& spec, SweepSpec* out);
bool parse_latency_spec(const std::string& spec, sim::LatencyModel* out);
bool parse_loss_spec(const std::string& spec, sim::LossModel* out);
bool parse_capacity_spec(const std::string& spec,
                         std::vector<CapacityChange>* out);
bool parse_failure_spec(const std::string& spec,
                        std::vector<FailureEvent>* out);
bool parse_chaos_spec(const std::string& spec, fault::ChaosSchedule* out);

/// The diagnostic a chaos spec parse_chaos_spec rejected earns: names the
/// bad spec, suggests the nearest fault kind ("did you mean: corrupt?")
/// for a misspelt one, and restates the rule grammar. Tools print it
/// verbatim (exit 2), so a typo'd `chaos=corupt:0.1` is a correction, not
/// a stack trace.
std::string bad_chaos_spec_message(const std::string& spec);

}  // namespace agb::core
