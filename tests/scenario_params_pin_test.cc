// The registry's built parameters, pinned field by field. Every preset is
// built in three configurations — its defaults, quick=1, and the parity
// suite's scale-down plus that preset's parity overrides — and every field
// of the resulting ScenarioParams is folded into one FNV-1a fingerprint:
// integers by value, doubles by bit pattern, and the capacity, failure,
// chaos and per-link schedules element by element. The constants were
// captured before the registry's key handling was rewritten as one key
// table, so a preset whose built parameters move by a single bit fails
// here.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "common/config.h"
#include "core/scenario_registry.h"

namespace agb::core {
namespace {

class Fingerprint {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffu;
      h_ *= 1099511628211ull;
    }
  }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
  void add(bool v) { add(std::uint64_t{v ? 1u : 0u}); }
  void add(std::int64_t v) { add(static_cast<std::uint64_t>(v)); }
  void add(std::uint32_t v) { add(std::uint64_t{v}); }
  template <class E>
    requires std::is_enum_v<E>
  void add(E v) {
    add(static_cast<std::uint64_t>(v));
  }
  void add(const sim::LatencyModel& m) {
    add(m.kind);
    add(m.a);
    add(m.b);
  }

  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ull;
};

std::uint64_t fingerprint(const ScenarioParams& p) {
  Fingerprint f;
  f.add(std::uint64_t{p.n});
  f.add(std::uint64_t{p.senders});
  f.add(p.offered_rate);
  f.add(p.poisson_arrivals);
  f.add(std::uint64_t{p.payload_size});
  f.add(p.supersede_probability);
  f.add(p.adaptive);

  const auto& g = p.gossip;
  f.add(std::uint64_t{g.fanout});
  f.add(g.gossip_period);
  f.add(std::uint64_t{g.max_events});
  f.add(std::uint64_t{g.max_event_ids});
  f.add(g.max_age);
  f.add(g.recovery.enabled);
  f.add(std::uint64_t{g.recovery.seen_ids_per_gossip});
  f.add(std::uint64_t{g.recovery.seen_ids_memory});
  f.add(g.recovery.repair_after_rounds);
  f.add(g.recovery.give_up_after_rounds);
  f.add(std::uint64_t{g.recovery.max_ids_per_request});
  f.add(g.recovery.retrieve_rounds);
  f.add(std::uint64_t{g.recovery.max_retrieve_events});
  f.add(g.semantic_purge);

  const auto& a = p.adaptation;
  f.add(a.sample_period);
  f.add(std::uint64_t{a.min_buff_window});
  f.add(a.alpha);
  f.add(a.critical_age);
  f.add(a.low_age_mark);
  f.add(a.high_age_mark);
  f.add(a.decrease_factor);
  f.add(a.increase_factor);
  f.add(a.increase_probability);
  f.add(a.token_low_frac);
  f.add(a.token_high_frac);
  f.add(a.initial_rate);
  f.add(a.bucket_capacity);
  f.add(a.min_rate);
  f.add(a.max_rate);
  f.add(std::uint64_t{a.robust_k});
  f.add(a.robust_floor);
  f.add(a.idle_age_boost);
  const auto& c = a.control;
  f.add(c.enabled);
  f.add(c.hysteresis);
  f.add(c.p_local_min);
  f.add(c.p_local_max);
  f.add(c.p_local_step);
  f.add(c.fanout_congested_scale);
  f.add(c.fanout_spare_scale);
  f.add(c.starve_alpha);
  f.add(c.starve_threshold);

  f.add(p.partial_view);
  f.add(std::uint64_t{p.view_params.max_view});
  f.add(std::uint64_t{p.view_params.max_subs});
  f.add(std::uint64_t{p.view_params.max_unsubs});
  f.add(p.gossip_membership);
  f.add(p.membership_params.suspect_after);
  f.add(p.membership_params.down_after);
  f.add(std::uint64_t{p.membership_params.digest_budget_bytes});
  f.add(p.membership_params.initial_revision);
  f.add(p.migrate_on_rejoin);
  f.add(p.locality.enabled);
  f.add(p.locality.p_local);
  f.add(std::uint64_t{p.locality.bridges_per_cluster});
  f.add(p.failure_detector);

  f.add(p.network.latency);
  f.add(p.network.loss.kind);
  f.add(p.network.loss.p);
  f.add(p.network.loss.p_good);
  f.add(p.network.loss.p_bad);
  f.add(p.network.loss.p_gb);
  f.add(p.network.loss.p_bg);
  f.add(std::uint64_t{p.network.clusters});
  f.add(p.network.wan_latency);
  f.add(std::uint64_t{p.link_latencies.size()});
  for (const auto& link : p.link_latencies) {
    f.add(link.a);
    f.add(link.b);
    f.add(link.model);
  }

  f.add(p.seed);
  f.add(p.warmup);
  f.add(p.duration);
  f.add(p.cooldown);
  f.add(std::uint64_t{p.capacity_schedule.size()});
  for (const auto& change : p.capacity_schedule) {
    f.add(change.at);
    f.add(change.node_fraction);
    f.add(std::uint64_t{change.new_capacity});
  }
  f.add(std::uint64_t{p.failure_schedule.size()});
  for (const auto& event : p.failure_schedule) {
    f.add(event.at);
    f.add(event.node);
    f.add(event.up);
  }
  f.add(std::uint64_t{p.chaos.rules.size()});
  for (const auto& rule : p.chaos.rules) {
    f.add(rule.kind);
    f.add(rule.rate);
    f.add(rule.a);
    f.add(rule.b);
    f.add(rule.amount);
    f.add(rule.start);
    f.add(rule.end);
  }
  f.add(std::uint64_t{p.pending_cap});
  f.add(std::uint64_t{p.sim_shards});
  f.add(std::uint64_t{p.sim_workers});
  f.add(p.series_bucket);
  return f.value();
}

Config config_of(const std::vector<std::string>& pairs) {
  Config cfg;
  std::string error;
  for (const std::string& pair : pairs) {
    EXPECT_TRUE(cfg.parse_pair(pair, &error)) << error;
  }
  return cfg;
}

/// scenario_parity_test's scale-down and per-preset overrides, verbatim.
Config parity_config(const std::string& preset) {
  static const std::map<std::string, std::vector<std::string>> overrides{
      {"fig9", {"t1_s=1", "t2_s=2"}},
      {"churn", {"churn_every_s=1", "churn_down_s=1", "churn_count=2"}},
      {"wan-clusters", {"n=15"}},
      {"wan-directional", {"n=15"}},
      {"wan-directional-churn",
       {"n=15", "churn_every_s=1", "churn_down_s=1", "churn_count=2"}},
      {"churn-blind",
       {"n=15", "churn_every_s=1", "churn_down_s=1", "churn_count=2"}},
      {"host-migration",
       {"churn_every_s=1", "churn_down_s=1", "churn_count=2"}},
      {"adaptive-wan", {"n=15"}},
      {"adaptive-backpressure", {"initial_rate=2"}},
  };
  std::vector<std::string> pairs{
      "n=12",       "senders=3",    "rate=30",      "quick=1", "period_ms=50",
      "warmup_s=1", "duration_s=2", "cooldown_s=1", "seed=11"};
  if (auto it = overrides.find(preset); it != overrides.end()) {
    pairs.insert(pairs.end(), it->second.begin(), it->second.end());
  }
  return config_of(pairs);
}

struct Pin {
  std::uint64_t defaults;
  std::uint64_t quick;
  std::uint64_t parity;
};

const std::map<std::string, Pin>& pins() {
  static const std::map<std::string, Pin> table{
      {"adaptive-backpressure",
       {0xe47585e16beb88a7ull, 0xf9ae5db52f8aac79ull, 0x5fb5bf47f39c12beull}},
      {"adaptive-wan",
       {0xce7a0f1f6df9d32dull, 0x10f3e5a98d5cd069ull, 0x63dd351bbb02f413ull}},
      {"asymmetric-partition",
       {0x19067073fd1e4c53ull, 0x8584313720c564a6ull, 0xdf81b8d9a06ebc26ull}},
      {"burst-loss",
       {0xba4f294fe6375bfaull, 0xc83a626932acebefull, 0x428711db724ac4f7ull}},
      {"chaos-soak",
       {0x6175a0c67c2dd4c5ull, 0x8a2cf490bd810aecull, 0x4f20e175628ac124ull}},
      {"churn",
       {0xa8de5eb6d981ba8aull, 0x9ccfef0d373a1493ull, 0x3bf8cc3be639ebbdull}},
      {"churn-blind",
       {0xeb51c7a26524e078ull, 0x243ee66d1980bc68ull, 0x86b863e860ff8bc7ull}},
      {"fig2",
       {0x31a2225c294ccce8ull, 0x71fbc1957e9185a1ull, 0x074097896dec99ddull}},
      {"fig4",
       {0xf884ce1b623d7084ull, 0x16dc14f307202f7dull, 0xd0a06ae032896991ull}},
      {"fig6",
       {0xf884ce1b623d7084ull, 0x16dc14f307202f7dull, 0xd0a06ae032896991ull}},
      {"fig7",
       {0xf884ce1b623d7084ull, 0x16dc14f307202f7dull, 0xd0a06ae032896991ull}},
      {"fig8",
       {0xf884ce1b623d7084ull, 0x16dc14f307202f7dull, 0xd0a06ae032896991ull}},
      {"fig9",
       {0x1549ce86ac8d0118ull, 0xe2b9f8cccb8bcd13ull, 0xa9cceba4f7919f04ull}},
      {"gray-failure",
       {0x39a3596e8a448cbcull, 0x3ad8ae446efff121ull, 0x6754ac93ce9d0179ull}},
      {"host-migration",
       {0xf61f52b9fea04c32ull, 0x17d7d205210bafbbull, 0xe438b9371605debdull}},
      {"paper60",
       {0xf884ce1b623d7084ull, 0x16dc14f307202f7dull, 0xd0a06ae032896991ull}},
      {"scale-1e5",
       {0xcd27caef5dd5e0e9ull, 0xcd27caef5dd5e0e9ull, 0x77c481896c2d0642ull}},
      {"scale-1e6",
       {0x076cd11be2bf0adfull, 0x076cd11be2bf0adfull, 0x77c481896c2d0642ull}},
      {"semantic-streams",
       {0x040f8cd67e9c40daull, 0x6b12e80fc199354full, 0x5e3cacc4682a5a53ull}},
      {"wan-clusters",
       {0x265fcdc0e6cfa0baull, 0x1d8d2b0323ef2fafull, 0xbc38d20c4f24422cull}},
      {"wan-directional",
       {0x7310675ca21208c0ull, 0x91cabf4dfeb5ebd9ull, 0x11493c0698a5b78aull}},
      {"wan-directional-churn",
       {0x21ebb1958cc8d980ull, 0x2e71f7219c7ad170ull, 0x278c0436a18dcec7ull}},
  };
  return table;
}

TEST(ScenarioParamsPinTest, EveryPresetBuildsTheSameParams) {
  const auto& registry = ScenarioRegistry::instance();
  ASSERT_EQ(registry.presets().size(), pins().size());
  for (const auto& [name, pin] : pins()) {
    SCOPED_TRACE("preset " + name);
    const std::uint64_t defaults =
        fingerprint(registry.build(name, Config{}));
    const std::uint64_t quick =
        fingerprint(registry.build(name, config_of({"quick=1"})));
    const std::uint64_t parity =
        fingerprint(registry.build(name, parity_config(name)));
    EXPECT_EQ(defaults, pin.defaults) << std::hex << "0x" << defaults;
    EXPECT_EQ(quick, pin.quick) << std::hex << "0x" << quick;
    EXPECT_EQ(parity, pin.parity) << std::hex << "0x" << parity;
  }
}

/// `cfg` with the preset's override line under it, as user keys: a line
/// key the user already set keeps the user's value.
Config with_line(const ScenarioPreset& preset, Config cfg) {
  std::istringstream line(preset.overrides);
  std::string error;
  for (std::string pair; line >> pair;) {
    if (!cfg.raw(pair.substr(0, pair.find('=')))) {
      EXPECT_TRUE(cfg.parse_pair(pair, &error)) << error;
    }
  }
  return cfg;
}

// Each preset's printed override line, fed back as user keys on paper60
// with the preset's schedule generator, builds the same params in all
// three configurations: the line and the generator are the whole
// difference between a preset and paper60.
TEST(ScenarioParamsPinTest, OverrideLinesRoundTripOnPaper60) {
  const auto& registry = ScenarioRegistry::instance();
  for (const ScenarioPreset* preset : registry.presets()) {
    SCOPED_TRACE("preset " + preset->name);
    for (const Config& cfg : {Config{}, config_of({"quick=1"}),
                              parity_config(preset->name)}) {
      const ScenarioParams via_line = build_on_paper60(
          with_line(*preset, cfg), "", preset->generator);
      EXPECT_EQ(fingerprint(via_line),
                fingerprint(registry.build(preset->name, cfg)));
    }
  }
}

}  // namespace
}  // namespace agb::core
