// The scenario registry: preset lookup, default layering (preset defaults
// lose to user key=value overrides), spec parsing, and the topology presets
// actually shaping the simulated network.
#include "core/scenario_registry.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>

namespace agb::core {
namespace {

Config config_of(std::initializer_list<const char*> pairs) {
  Config cfg;
  std::string error;
  for (const char* pair : pairs) {
    EXPECT_TRUE(cfg.parse_pair(pair, &error)) << error;
  }
  return cfg;
}

TEST(ScenarioRegistryTest, ShipsTheDocumentedPresets) {
  auto& registry = ScenarioRegistry::instance();
  for (const char* name :
       {"paper60", "fig2", "fig4", "fig6", "fig7", "fig8", "fig9", "churn",
        "burst-loss", "wan-clusters", "wan-directional",
        "wan-directional-churn", "semantic-streams", "chaos-soak",
        "asymmetric-partition", "gray-failure"}) {
    EXPECT_NE(registry.find(name), nullptr) << name;
  }
  EXPECT_GE(registry.presets().size(), 16u);
  EXPECT_EQ(registry.find("no-such-preset"), nullptr);
  EXPECT_THROW((void)registry.build("no-such-preset", Config{}),
               std::invalid_argument);
}

TEST(ScenarioRegistryTest, SuggestsCloseNamesForTypos) {
  auto& registry = ScenarioRegistry::instance();
  // A one-edit typo resolves to the intended preset, best match first.
  const auto close = registry.suggest("wan-direcional");
  ASSERT_FALSE(close.empty());
  EXPECT_EQ(close.front(), "wan-directional");
  // A truncated name matches by containment.
  const auto contained = registry.suggest("wan");
  ASSERT_GE(contained.size(), 3u);
  // Gibberish suggests nothing rather than everything.
  EXPECT_TRUE(registry.suggest("zzzzzzzzzzzz").empty());
  // The build() error carries the hint for tools to surface.
  try {
    (void)registry.build("wan-direcional", Config{});
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("did you mean"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("wan-directional"),
              std::string::npos);
  }
}

TEST(ScenarioRegistryTest, MalformedSpecValuesThrow) {
  auto cfg = config_of({"latency=bogus:1"});
  EXPECT_THROW((void)ScenarioRegistry::instance().build("paper60", cfg),
               std::invalid_argument);
  auto loss_cfg = config_of({"loss=burst:0.1"});
  EXPECT_THROW((void)ScenarioRegistry::instance().build("paper60", loss_cfg),
               std::invalid_argument);
}

// Size- and count-typed keys reject a negative value, naming the key,
// instead of wrapping it to about 2^64 (n=-1 used to abort the process in
// vector::reserve; buffer=-1 ran with an 18446744073709551615-event buffer).
TEST(ScenarioRegistryTest, NegativeSizeKeysThrowNamingTheKey) {
  auto& registry = ScenarioRegistry::instance();
  const std::pair<const char*, const char*> cases[] = {
      {"paper60", "n"},
      {"paper60", "senders"},
      {"paper60", "payload"},
      {"paper60", "pending_cap"},
      {"paper60", "sim_shards"},
      {"paper60", "sim_workers"},
      {"paper60", "fanout"},
      {"paper60", "buffer"},
      {"paper60", "event_ids"},
      {"paper60", "max_age"},
      {"paper60", "repair_after"},
      {"paper60", "give_up_after"},
      {"paper60", "retrieve_rounds"},
      {"paper60", "window"},
      {"paper60", "robust_k"},
      {"paper60", "robust_floor"},
      {"paper60", "view_max"},
      {"paper60", "view_subs"},
      {"paper60", "view_unsubs"},
      {"paper60", "clusters"},
      {"paper60", "bridges_per_cluster"},
      {"paper60", "membership_budget"},
      {"fig9", "buf1"},
      {"fig9", "buf2"},
      {"churn", "churn_count"},
      {"wan-directional-churn", "churn_count"},
      {"churn-blind", "churn_count"},
      {"host-migration", "churn_count"},
      {"adaptive-wan", "buf1"},
      {"adaptive-backpressure", "buf1"},
  };
  for (const auto& [preset, key] : cases) {
    Config cfg;
    cfg.set(key, "-1");
    try {
      (void)registry.build(preset, cfg);
      ADD_FAILURE() << preset << " built with " << key << "=-1";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(std::string("bad ") + key +
                                           " value '-1'"),
                std::string::npos)
          << preset << ": " << e.what();
    }
  }
}

TEST(ScenarioRegistryTest, EveryPresetBuildsWithItsDefaults) {
  auto& registry = ScenarioRegistry::instance();
  for (const ScenarioPreset* preset : registry.presets()) {
    EXPECT_NO_THROW((void)registry.build(preset->name, Config{}))
        << preset->name;
  }
}

TEST(ScenarioRegistryTest, Paper60CarriesTheCalibratedDefaults) {
  auto p = ScenarioRegistry::instance().build("paper60", Config{});
  EXPECT_EQ(p.n, 60u);
  EXPECT_EQ(p.senders, 4u);
  EXPECT_DOUBLE_EQ(p.offered_rate, 30.0);
  EXPECT_EQ(p.gossip.fanout, 4u);
  EXPECT_EQ(p.gossip.gossip_period, 2000);
  EXPECT_EQ(p.gossip.max_events, 120u);
  EXPECT_DOUBLE_EQ(p.adaptation.critical_age, kPaper60CriticalAge);
  EXPECT_EQ(p.adaptation.sample_period, 4000);  // 2 * period, derived
  EXPECT_DOUBLE_EQ(p.adaptation.initial_rate, 7.5);  // rate / senders
}

TEST(ScenarioRegistryTest, UserOverridesBeatPresetDefaults) {
  auto cfg = config_of({"n=100", "rate=44", "buffer=80", "period_ms=1000"});
  auto p = ScenarioRegistry::instance().build("fig2", cfg);
  EXPECT_EQ(p.n, 100u);
  EXPECT_DOUBLE_EQ(p.offered_rate, 44.0);
  EXPECT_EQ(p.gossip.max_events, 80u);    // beats fig2's 60 default
  EXPECT_EQ(p.adaptation.sample_period, 2000);  // follows the new period
  EXPECT_DOUBLE_EQ(p.adaptation.initial_rate, 11.0);
}

TEST(ScenarioRegistryTest, Fig2DefaultsToTheConstrainedBuffer) {
  auto p = ScenarioRegistry::instance().build("fig2", Config{});
  EXPECT_EQ(p.gossip.max_events, 60u);
}

TEST(ScenarioRegistryTest, Fig9BuildsTheTwoStepCapacitySchedule) {
  auto p = ScenarioRegistry::instance().build("fig9", Config{});
  ASSERT_EQ(p.capacity_schedule.size(), 2u);
  EXPECT_EQ(p.capacity_schedule[0].at, p.warmup + 150'000);
  EXPECT_EQ(p.capacity_schedule[0].new_capacity, 45u);
  EXPECT_EQ(p.capacity_schedule[1].at, p.warmup + 300'000);
  EXPECT_EQ(p.capacity_schedule[1].new_capacity, 60u);
  EXPECT_EQ(p.gossip.max_events, 90u);
  EXPECT_DOUBLE_EQ(p.offered_rate, 36.0);
  // initial_rate follows the preset's offered load, not paper60's.
  EXPECT_DOUBLE_EQ(p.adaptation.initial_rate, 9.0);
}

TEST(ScenarioRegistryTest, ChurnSchedulesDownUpPairs) {
  auto p = ScenarioRegistry::instance().build("churn", Config{});
  ASSERT_EQ(p.failure_schedule.size(), 16u);  // 8 nodes, down + up each
  std::set<NodeId> churned;
  for (std::size_t i = 0; i < p.failure_schedule.size(); i += 2) {
    const auto& down = p.failure_schedule[i];
    const auto& up = p.failure_schedule[i + 1];
    EXPECT_FALSE(down.up);
    EXPECT_TRUE(up.up);
    EXPECT_EQ(down.node, up.node);
    EXPECT_EQ(up.at - down.at, 15'000);
    churned.insert(down.node);
  }
  EXPECT_EQ(churned.size(), 8u);  // distinct nodes
}

TEST(ScenarioRegistryTest, BurstLossEnablesRepairAndBurstChain) {
  auto p = ScenarioRegistry::instance().build("burst-loss", Config{});
  EXPECT_EQ(p.network.loss.kind, sim::LossModel::Kind::kBurst);
  EXPECT_TRUE(p.gossip.recovery.enabled);
  // Overrides still win.
  auto cfg = config_of({"recovery=0", "loss=0.1"});
  auto q = ScenarioRegistry::instance().build("burst-loss", cfg);
  EXPECT_FALSE(q.gossip.recovery.enabled);
  EXPECT_EQ(q.network.loss.kind, sim::LossModel::Kind::kIid);
}

TEST(ScenarioRegistryTest, WanClustersSetsTopology) {
  auto p = ScenarioRegistry::instance().build("wan-clusters", Config{});
  EXPECT_EQ(p.network.clusters, 3u);
  EXPECT_EQ(p.network.wan_latency.kind, sim::LatencyModel::Kind::kUniform);
  EXPECT_FALSE(p.locality.enabled);  // uniform selection is the baseline
}

TEST(ScenarioRegistryTest, WanDirectionalEnablesLocalityOverSameTopology) {
  auto p = ScenarioRegistry::instance().build("wan-directional", Config{});
  EXPECT_EQ(p.network.clusters, 3u);
  EXPECT_TRUE(p.locality.enabled);
  EXPECT_DOUBLE_EQ(p.locality.p_local, 0.9);
  EXPECT_EQ(p.locality.bridges_per_cluster, 2u);
  EXPECT_EQ(p.gossip.max_age, 20u);  // funnelling needs the longer tail
  // The locality knobs are part of the shared key=value vocabulary (and
  // hence sweepable axes).
  auto cfg = config_of({"p_local=0.6", "bridges_per_cluster=2",
                        "locality=0"});
  auto q = ScenarioRegistry::instance().build("wan-directional", cfg);
  EXPECT_FALSE(q.locality.enabled);
  EXPECT_DOUBLE_EQ(q.locality.p_local, 0.6);
  EXPECT_EQ(q.locality.bridges_per_cluster, 2u);
}

TEST(ScenarioRegistryTest, WanDirectionalChurnCrashesTheBridges) {
  auto p =
      ScenarioRegistry::instance().build("wan-directional-churn", Config{});
  EXPECT_TRUE(p.locality.enabled);
  EXPECT_TRUE(p.failure_detector);
  ASSERT_EQ(p.failure_schedule.size(), 6u);  // 3 bridges, down + up each
  for (std::size_t i = 0; i < p.failure_schedule.size(); i += 2) {
    const auto& down = p.failure_schedule[i];
    const auto& up = p.failure_schedule[i + 1];
    EXPECT_FALSE(down.up);
    EXPECT_TRUE(up.up);
    EXPECT_EQ(down.node, up.node);
    // Under the modulo rule the initial bridges are exactly 0, 1, 2.
    EXPECT_EQ(down.node, static_cast<NodeId>(i / 2));
  }
}

TEST(ScenarioRegistryTest, ExplicitBaseValuesSurviveDerivedFallbacks) {
  // A base (preset or embedder) that sets a derived-default knob
  // explicitly must keep it when no cfg key overrides it.
  ScenarioParams base;
  base.adaptation.sample_period = 7000;
  base.adaptation.low_age_mark = 6.0;
  base.adaptation.high_age_mark = 9.0;
  base.adaptation.initial_rate = 3.25;
  auto p = params_from_config(Config{}, base);
  EXPECT_EQ(p.adaptation.sample_period, 7000);
  EXPECT_DOUBLE_EQ(p.adaptation.low_age_mark, 6.0);
  EXPECT_DOUBLE_EQ(p.adaptation.high_age_mark, 9.0);
  EXPECT_DOUBLE_EQ(p.adaptation.initial_rate, 3.25);
}

TEST(ScenarioRegistryTest, SemanticStreamsTurnsOnSupersedeWorkload) {
  auto p = ScenarioRegistry::instance().build("semantic-streams", Config{});
  EXPECT_GT(p.supersede_probability, 0.0);
  EXPECT_TRUE(p.gossip.semantic_purge);
}

TEST(ScenarioRegistryTest, AddReplacesByName) {
  ScenarioRegistry registry;
  const auto before = registry.presets().size();
  registry.add({"paper60", "replaced", [](const Config& cfg) {
                  return ScenarioRegistry::instance().build("paper60", cfg);
                }});
  EXPECT_EQ(registry.presets().size(), before);
  EXPECT_EQ(registry.find("paper60")->summary, "replaced");
  registry.add({"custom", "mine", [](const Config& cfg) {
                  return params_from_config(cfg, ScenarioParams{});
                }});
  EXPECT_EQ(registry.presets().size(), before + 1);
}

TEST(ScenarioRegistryTest, SubSecondBaseTimingSurvives) {
  ScenarioParams base;
  base.warmup = 1'500;
  base.series_bucket = 500;
  auto p = params_from_config(Config{}, base);
  EXPECT_EQ(p.warmup, 1'500);       // not truncated to whole seconds
  EXPECT_EQ(p.series_bucket, 500);  // and never zeroed
  auto cfg = config_of({"bucket_s=2"});
  auto q = params_from_config(cfg, base);
  EXPECT_EQ(q.series_bucket, 2'000);
}

TEST(SpecParserTest, LatencySpecs) {
  sim::LatencyModel m;
  EXPECT_TRUE(parse_latency_spec("fixed:3", &m));
  EXPECT_EQ(m.kind, sim::LatencyModel::Kind::kFixed);
  EXPECT_DOUBLE_EQ(m.a, 3.0);
  EXPECT_TRUE(parse_latency_spec("uniform:1:40", &m));
  EXPECT_EQ(m.kind, sim::LatencyModel::Kind::kUniform);
  EXPECT_TRUE(parse_latency_spec("normal:20:5", &m));
  EXPECT_EQ(m.kind, sim::LatencyModel::Kind::kNormal);
  EXPECT_FALSE(parse_latency_spec("fixed", &m));
  EXPECT_FALSE(parse_latency_spec("fixed:x", &m));
  EXPECT_FALSE(parse_latency_spec("triangular:1:2", &m));
}

TEST(SpecParserTest, LossSpecs) {
  sim::LossModel m;
  EXPECT_TRUE(parse_loss_spec("0.25", &m));
  EXPECT_EQ(m.kind, sim::LossModel::Kind::kIid);
  EXPECT_DOUBLE_EQ(m.p, 0.25);
  EXPECT_TRUE(parse_loss_spec("burst:0.02:0.9:0.05:0.2", &m));
  EXPECT_EQ(m.kind, sim::LossModel::Kind::kBurst);
  EXPECT_FALSE(parse_loss_spec("", &m));
  EXPECT_FALSE(parse_loss_spec("burst:0.1", &m));
  EXPECT_FALSE(parse_loss_spec("nope", &m));
}

TEST(SpecParserTest, ScheduleSpecs) {
  std::vector<CapacityChange> capacity;
  EXPECT_TRUE(parse_capacity_spec("150000:0.2:45,300000:0.2:60", &capacity));
  ASSERT_EQ(capacity.size(), 2u);
  EXPECT_EQ(capacity[1].at, 300000);
  EXPECT_EQ(capacity[1].new_capacity, 60u);
  EXPECT_FALSE(parse_capacity_spec("150000:0.2", &capacity));

  std::vector<FailureEvent> failures;
  EXPECT_TRUE(parse_failure_spec("60000:3:down,120000:3:up", &failures));
  ASSERT_EQ(failures.size(), 2u);
  EXPECT_FALSE(failures[0].up);
  EXPECT_TRUE(failures[1].up);
  EXPECT_FALSE(parse_failure_spec("60000:3:sideways", &failures));
}

TEST(SpecParserTest, ChaosSpecs) {
  fault::ChaosSchedule s;
  ASSERT_TRUE(parse_chaos_spec("corrupt:0.05@5s-15s", &s));
  ASSERT_EQ(s.rules.size(), 1u);
  EXPECT_EQ(s.rules[0].kind, fault::FaultKind::kCorrupt);
  EXPECT_DOUBLE_EQ(s.rules[0].rate, 0.05);
  EXPECT_EQ(s.rules[0].start, 5'000);
  EXPECT_EQ(s.rules[0].end, 15'000);

  // The trailing 's' is optional, windows are optional (open-ended), and
  // rules combine with commas.
  ASSERT_TRUE(parse_chaos_spec(
      "truncate:0.1@2-4,dup:0.2,reorder:0.3:40,oneway:3:*,oneway:1:2,"
      "stall:4:25@1s-3s,skew:5:100",
      &s));
  ASSERT_EQ(s.rules.size(), 7u);
  EXPECT_EQ(s.rules[0].end, 4'000);
  EXPECT_EQ(s.rules[1].end, fault::kNoEnd);
  EXPECT_EQ(s.rules[2].amount, 40);
  EXPECT_EQ(s.rules[3].a, 3u);
  EXPECT_EQ(s.rules[3].b, fault::kAnyNode);
  EXPECT_EQ(s.rules[4].b, 2u);
  EXPECT_EQ(s.rules[5].amount, 25);
  EXPECT_EQ(s.rules[5].start, 1'000);
  EXPECT_EQ(s.rules[6].kind, fault::FaultKind::kSkew);
  EXPECT_TRUE(s.corrupts());
  EXPECT_TRUE(s.asymmetric());
  EXPECT_TRUE(s.gray());

  for (const char* bad :
       {"", "corupt:0.1", "corrupt", "corrupt:2.0", "corrupt:-0.1",
        "corrupt:x", "oneway:3", "stall:3", "stall:3:-5",
        "corrupt:0.1@5s-2s", "corrupt:0.1@5s", "dup:0.1,oops"}) {
    EXPECT_FALSE(parse_chaos_spec(bad, &s)) << bad;
  }
}

TEST(SpecParserTest, BadChaosSpecMessageSuggestsTheNearestKind) {
  // The agb_sim exit-2 contract: a typo'd kind earns a correction naming
  // the bad spec, the nearest kind and the grammar.
  const std::string msg = bad_chaos_spec_message("corupt:0.1");
  EXPECT_NE(msg.find("corupt:0.1"), std::string::npos) << msg;
  EXPECT_NE(msg.find("did you mean: corrupt?"), std::string::npos) << msg;
  EXPECT_NE(msg.find("oneway:a:b|*"), std::string::npos) << msg;
  // A kind nothing is close to gets the grammar but no bogus suggestion.
  EXPECT_EQ(bad_chaos_spec_message("zzzzzzzz:1").find("did you mean"),
            std::string::npos);
}

TEST(SpecParserTest, ChaosKeyBuildsTheSchedule) {
  auto cfg = config_of({"quick=1", "chaos=corrupt:0.1@1s-2s,oneway:3:*"});
  auto p = ScenarioRegistry::instance().build("paper60", cfg);
  ASSERT_EQ(p.chaos.rules.size(), 2u);
  EXPECT_TRUE(p.chaos.corrupts());
  EXPECT_TRUE(p.chaos.asymmetric());

  // A malformed value throws exactly the bad_chaos_spec_message text.
  auto bad = config_of({"quick=1", "chaos=corupt:0.1"});
  try {
    (void)ScenarioRegistry::instance().build("paper60", bad);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(e.what(), bad_chaos_spec_message("corupt:0.1"));
  }
}

TEST(SpecParserTest, SweepSpecs) {
  SweepSpec sweep;
  ASSERT_TRUE(parse_sweep_spec("rate:10:60:10", &sweep));
  EXPECT_EQ(sweep.axis, "rate");
  EXPECT_EQ(sweep.values(), (std::vector<double>{10, 20, 30, 40, 50, 60}));

  // The hi bound is inclusive even when float steps accumulate error.
  ASSERT_TRUE(parse_sweep_spec("loss:0:0.3:0.1", &sweep));
  ASSERT_EQ(sweep.values().size(), 4u);
  EXPECT_NEAR(sweep.values().back(), 0.3, 1e-9);

  // A single-point sweep is legal (lo == hi).
  ASSERT_TRUE(parse_sweep_spec("buffer:120:120:30", &sweep));
  EXPECT_EQ(sweep.values(), std::vector<double>{120});

  for (const char* bad :
       {"", "rate", "rate:10", "rate:10:60", "rate:10:60:0",
        "rate:10:60:-5", "rate:60:10:10", ":10:60:10", "rate:a:60:10"}) {
    EXPECT_FALSE(parse_sweep_spec(bad, &sweep)) << bad;
  }
}

TEST(SweepTest, AxisValueRebuildsThePreset) {
  // The sweep loop's contract: setting the axis key on a fresh cfg copy
  // rebuilds the preset with only that value changed.
  auto cfg = config_of({"quick=1"});
  for (double buffer : SweepSpec{"buffer", 30, 90, 30}.values()) {
    Config run_cfg = cfg;
    run_cfg.set("buffer", std::to_string(static_cast<int>(buffer)));
    auto p = ScenarioRegistry::instance().build("fig4", run_cfg);
    EXPECT_EQ(p.gossip.max_events, static_cast<std::size_t>(buffer));
    EXPECT_EQ(p.n, 60u);  // everything else stays the preset default
  }
}

// Every numeric key of the table builds at both ends of its range, and is
// refused, naming the key and its range, one step beyond each finite end,
// as a non-number and with trailing junk. Only params are built, never a
// group, a thread pool or a worker count. A generator's key is set on the
// first preset that reads it; agb_sim's own (shards) is read alone.
TEST(KeyTableTest, EveryNumericKeyBuildsAtItsEdgesAndRefusesBeyondThem) {
  auto& registry = ScenarioRegistry::instance();
  const auto text = [](double v, const char* format) {
    char buf[48];
    std::snprintf(buf, sizeof buf, format, v);
    return std::string(buf);
  };
  const auto keys = numeric_keys();
  ASSERT_GE(keys.size(), 60u);
  for (const NumericKey& key : keys) {
    SCOPED_TRACE("key " + key.name);
    const char* format = key.integer ? "%.0f" : "%.17g";
    const ScenarioPreset* reader = nullptr;
    for (const ScenarioPreset* preset : registry.presets()) {
      Config probe;
      probe.set(key.name, text(key.lo, format));
      (void)preset->build(probe);
      const auto unused = probe.unused_keys();
      if (std::find(unused.begin(), unused.end(), key.name) == unused.end()) {
        reader = preset;
        break;
      }
    }
    const auto build = [&](const std::string& value) {
      Config cfg;
      cfg.set(key.name, value);
      if (reader != nullptr) {
        (void)reader->build(cfg);
      } else {
        (void)key_value<std::size_t>(cfg, key.name);
      }
    };
    const bool bounded = !std::isinf(key.hi);
    EXPECT_NO_THROW(build(text(key.lo, format)));
    EXPECT_NO_THROW(build(text(bounded ? key.hi : key.lo + 1e9, format)));

    const std::string range =
        bounded ? "[" + text(key.lo, "%.15g") + ", " + text(key.hi, "%.15g") +
                      "]"
                : ">= " + text(key.lo, "%.15g");
    std::vector<std::string> refused{"abc", text(key.lo, format) + "x",
                                     text(key.lo - 1, format)};
    if (bounded) refused.push_back(text(key.hi + 1, format));
    for (const std::string& value : refused) {
      try {
        build(value);
        ADD_FAILURE() << key.name << "=" << value << " built";
      } catch (const std::invalid_argument& e) {
        const std::string message = e.what();
        EXPECT_NE(message.find("bad " + key.name + " value '" + value + "'"),
                  std::string::npos)
            << message;
        EXPECT_NE(message.find(range), std::string::npos) << message;
      }
    }
  }
}

// Spec values get the same checks: probabilities in [0, 1], latencies
// >= 0 with lo <= hi, capacity times >= 0 and fractions in [0, 1], and
// schedule node ids below n.
TEST(KeyTableTest, OutOfRangeSpecValuesThrowNamingTheKey) {
  const std::pair<const char*, const char*> cases[] = {
      {"loss", "1.5"},
      {"loss", "burst:0.02:1.2:0.05:0.2"},
      {"latency", "uniform:10:5"},
      {"latency", "fixed:-5"},
      {"wan_latency", "normal:40:-1"},
      {"capacity", "-5:2.0:10"},
      {"capacity", "1000:0.5:0"},
      {"failures", "-1:3:down"},
      {"failures", "1000:99:down"},
      {"chaos", "oneway:99:*"},
      {"chaos", "stall:3:5,skew:10:5"},
  };
  for (const auto& [key, value] : cases) {
    Config cfg;
    cfg.set("n", "10");
    cfg.set(key, value);
    try {
      (void)ScenarioRegistry::instance().build("paper60", cfg);
      ADD_FAILURE() << key << "=" << value << " built";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(std::string("bad ") + key +
                                           " value '" + value + "'"),
                std::string::npos)
          << e.what();
    }
  }
}

// initial_rate splits the load over the senders that exist: senders=100
// in a 10-node group is 10 senders, each starting at a tenth of the rate.
TEST(KeyTableTest, InitialRateCountsTheSendersThatExist) {
  auto p = ScenarioRegistry::instance().build(
      "paper60", config_of({"n=10", "senders=100"}));
  EXPECT_EQ(scenario_sender_ids(p.n, p.senders).size(), 10u);
  EXPECT_DOUBLE_EQ(p.adaptation.initial_rate, 3.0);
}

TEST(KeyTableTest, SweepAxisMustBeANumericKey) {
  SweepSpec sweep;
  EXPECT_FALSE(parse_sweep_spec("bufer:30:60:30", &sweep));  // a typo
  EXPECT_FALSE(parse_sweep_spec("latency:1:5:1", &sweep));   // a spec
  EXPECT_FALSE(parse_sweep_spec("scenario:1:5:1", &sweep));  // text
  EXPECT_TRUE(parse_sweep_spec("adaptive:0:1:1", &sweep));
  EXPECT_TRUE(parse_sweep_spec("churn_count:1:3:1", &sweep));
}

TEST(KeyTableTest, KeysAreUniqueAndTyposFindTheirKey) {
  const auto names = key_names();
  EXPECT_EQ(std::set<std::string>(names.begin(), names.end()).size(),
            names.size());
  ASSERT_FALSE(closest_names("bufer", names).empty());
  EXPECT_EQ(closest_names("bufer", names).front(), "buffer");
  EXPECT_EQ(closest_names("fanuot", names).front(), "fanout");
  EXPECT_TRUE(closest_names("zzzzzzzzzzzz", names).empty());
}

TEST(ScenarioTopologyTest, WanClustersRunsAndDeliversAcrossIslands) {
  // A small end-to-end run through the preset machinery: the WAN topology
  // must still disseminate to (nearly) everyone, it is just slower.
  auto cfg = config_of({"n=18", "senders=2", "rate=4", "quick=1",
                        "warmup_s=5", "duration_s=25", "cooldown_s=15",
                        "period_ms=1000", "buffer=200", "max_age=24"});
  auto p = ScenarioRegistry::instance().build("wan-clusters", cfg);
  ASSERT_EQ(p.network.clusters, 3u);
  Scenario scenario(p);
  auto r = scenario.run();
  EXPECT_GT(r.delivery.messages, 20u);
  EXPECT_GT(r.delivery.avg_receiver_pct, 95.0);
}

}  // namespace
}  // namespace agb::core
