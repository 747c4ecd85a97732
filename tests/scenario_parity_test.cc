// Scenario conformance: every ScenarioRegistry preset runs through THREE
// execution paths — the discrete-event simulator (core::Scenario), the
// multi-core sharded simulator at sim_shards=4 (core::ShardedScenario) and
// real NodeRuntime threads over the sharded InMemoryFabric
// (core::WallclockScenario) — from the same seed on a scaled-down group,
// and the paths must agree on the preset's invariants: delivery-ratio
// floors, the WAN intra/cross traffic split (locality bias must actually
// bias on real threads), failure-schedule suppression (down nodes really
// drop traffic) and membership sizes after churn. Wall-clock timing is not
// deterministic, so the contract is invariant bounds on both paths, not
// bitwise equality — but the bounds are the preset's point: a locality
// preset whose wall-clock run stops biasing, or a churn preset whose
// schedule stops firing, fails here.
//
// The suite enumerates the registry at runtime: a preset added without a
// parity entry still runs with the generic bounds, and the final coverage
// assertion fails if any registered preset was skipped.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/config.h"
#include "core/scenario.h"
#include "core/scenario_registry.h"
#include "core/sharded_scenario.h"
#include "core/wallclock_scenario.h"

namespace agb::core {
namespace {

/// Invariant bounds for one preset; the defaults are the generic contract
/// every preset must meet at the scaled-down size.
struct ParityBounds {
  double min_receiver_pct = 85.0;
  double max_cross_share = -1.0;  // < 0: unbounded
  double min_cross_share = -1.0;
  std::vector<std::string> overrides;  // preset-specific scale-down knobs
};

/// Scaled-down run: small group, 50 ms rounds, a 2 s real-time evaluation
/// window — large enough for dozens of gossip rounds, small enough that
/// running every preset twice stays ctest-friendly.
Config make_config(const ParityBounds& bounds) {
  Config cfg;
  std::string error;
  for (const char* pair :
       {"n=12", "senders=3", "rate=30", "quick=1", "period_ms=50",
        "warmup_s=1", "duration_s=2", "cooldown_s=1", "seed=11"}) {
    EXPECT_TRUE(cfg.parse_pair(pair, &error)) << error;
  }
  for (const std::string& pair : bounds.overrides) {
    EXPECT_TRUE(cfg.parse_pair(pair, &error)) << error;
  }
  return cfg;
}

/// Preset-specific bounds. WAN presets get 5 nodes per island so the local
/// pool covers the fanout (the same sizing the sim-only WAN test uses);
/// churn schedules are compressed to fit the 2 s window.
const std::map<std::string, ParityBounds>& parity_bounds() {
  static const std::map<std::string, ParityBounds> bounds{
      {"paper60", {}},
      {"fig2", {}},
      {"fig4", {}},
      {"fig6", {}},
      {"fig7", {}},
      {"fig8", {}},
      {"fig9", {85.0, -1.0, -1.0, {"t1_s=1", "t2_s=2"}}},
      {"churn",
       {70.0, -1.0, -1.0,
        {"churn_every_s=1", "churn_down_s=1", "churn_count=2"}}},
      {"burst-loss", {55.0, -1.0, -1.0, {}}},
      {"semantic-streams", {60.0, -1.0, -1.0, {}}},
      // Scale presets run here at the common n=12 override: what the suite
      // pins is their partial-view configuration (bounded views on both
      // paths), not the 10^5 population itself (the scale-smoke ctest
      // covers that).
      {"scale-1e5", {70.0, -1.0, -1.0, {}}},
      {"scale-1e6", {70.0, -1.0, -1.0, {}}},
      // Uniform selection spreads fanout over the whole group: with three
      // islands most datagrams cross. Locality bias must push the cross
      // share under the uniform floor by a wide margin on BOTH paths.
      {"wan-clusters", {85.0, -1.0, 0.5, {"n=15"}}},
      {"wan-directional", {75.0, 0.4, 0.0, {"n=15"}}},
      {"wan-directional-churn",
       {60.0, 0.45, 0.0,
        {"n=15", "churn_every_s=1", "churn_down_s=1", "churn_count=2"}}},
      // The oracle-free presets: liveness is gossiped (GossipMembership),
      // so bridge re-election and rejoin run on suspicion timeouts alone —
      // with failure_detector=false on BOTH paths. Floors sit below the
      // detector-driven churn presets because suspicion has built-in lag
      // (a few silent rounds before anyone reroutes).
      {"churn-blind",
       {55.0, 0.45, 0.0,
        {"n=15", "churn_every_s=1", "churn_down_s=1", "churn_count=2"}}},
      {"host-migration",
       {60.0, -1.0, -1.0,
        {"churn_every_s=1", "churn_down_s=1", "churn_count=2"}}},
      // The self-tuning presets: the control plane actuates p_local and
      // fanout on BOTH paths, so assert_invariants additionally checks the
      // actuators landed inside their clamps and the two paths converged
      // into the same p_local band (see the adaptive block there).
      {"adaptive-wan", {65.0, 0.45, 0.0, {"n=15"}}},
      {"adaptive-backpressure", {60.0, -1.0, -1.0, {"initial_rate=2"}}},
      // The fault-injection presets: chaos-soak mutates datagrams mid-run
      // (the whole-window average absorbs the burst, hence the low floor),
      // asymmetric-partition mutes one direction of two links under
      // gossiped liveness, gray-failure stalls and clock-skews nodes that
      // must stay up. assert_invariants adds the chaos receipts and the
      // post-window self-healing floor for these.
      {"chaos-soak", {55.0, -1.0, -1.0, {}}},
      {"asymmetric-partition", {60.0, -1.0, -1.0, {}}},
      {"gray-failure", {70.0, -1.0, -1.0, {}}},
  };
  return bounds;
}

/// One report per engine, all of them core::ScenarioResults: the classic
/// simulator, the multi-core sharded simulator at sim_shards=4 — every
/// invariant asserted on the classic column is asserted there too, so a
/// preset cannot regress only on the sharded engine — and the wall-clock
/// runtime.
struct PairResults {
  ScenarioResults sim;
  ScenarioResults sharded;
  ScenarioResults wc;

  [[nodiscard]] std::array<std::pair<const char*, const ScenarioResults*>, 3>
  columns() const {
    return {{{"sim", &sim}, {"sharded", &sharded}, {"wallclock", &wc}}};
  }
};

PairResults run_pair(const std::string& name, const Config& cfg) {
  const ScenarioParams params = ScenarioRegistry::instance().build(name, cfg);
  PairResults out;
  out.sim = Scenario(params).run();
  ScenarioParams sharded_params = params;
  sharded_params.sim_shards = 4;
  out.sharded = ShardedScenario(sharded_params).run();
  out.wc = WallclockScenario(params, WallclockOptions{.shards = 4}).run();
  return out;
}

double cross_share(std::uint64_t intra, std::uint64_t cross) {
  const std::uint64_t sent = intra + cross;
  return sent == 0 ? 0.0
                   : static_cast<double>(cross) / static_cast<double>(sent);
}

void assert_invariants(const ScenarioParams& params, const PairResults& r,
                       const ParityBounds& bounds) {
  for (const auto& [engine, column] : r.columns()) {
    SCOPED_TRACE(engine);
    const ScenarioResults& c = *column;

    // Every path evaluated real traffic and met the preset's delivery
    // floor.
    EXPECT_GT(c.delivery.messages, 0u);
    EXPECT_GE(c.delivery.avg_receiver_pct, bounds.min_receiver_pct);

    // WAN topology: every path splits traffic by the same cluster rule, and
    // the share lands on the same side of the preset's bound.
    if (params.network.clusters > 1) {
      EXPECT_GT(c.net.sent_intra_cluster, 0u);
      EXPECT_GT(c.net.sent_cross_cluster, 0u);
      const double share =
          cross_share(c.net.sent_intra_cluster, c.net.sent_cross_cluster);
      if (bounds.max_cross_share >= 0.0) {
        EXPECT_LE(share, bounds.max_cross_share);
      }
      if (bounds.min_cross_share >= 0.0) {
        EXPECT_GE(share, bounds.min_cross_share);
      }
    }

    // The paper's adaptation signals reach the report on every path: a
    // minBuff estimate inside (0, buffer] and a positive avgAge.
    if (params.adaptive) {
      EXPECT_GT(c.avg_min_buff, 0.0);
      EXPECT_LE(c.avg_min_buff, static_cast<double>(params.gossip.max_events));
      EXPECT_GT(c.avg_age_estimate, 0.0);
    }

    // Self-tuning control plane: every path runs the same feedback layer,
    // so the actuators must land inside their configured clamps and the
    // blocking-BROADCAST queues must respect the pending cap.
    if (params.adaptive && params.adaptation.control.enabled) {
      const auto& control = params.adaptation.control;
      EXPECT_LE(c.max_pending_depth, params.pending_cap);
      EXPECT_GE(c.avg_effective_fanout, 1.0);
      if (params.locality.enabled) {
        EXPECT_GE(c.avg_p_local, control.p_local_min);
        EXPECT_LE(c.avg_p_local, control.p_local_max);
      }
    }

    // A failure schedule must actually fire: down nodes suppress traffic
    // on every path (the wall-clock scheduler thread really took them
    // down).
    if (!params.failure_schedule.empty()) {
      EXPECT_GT(c.net.dropped_down, 0u);
    }

    // Fault-plane receipts and self-healing. A preset with a chaos
    // schedule must show the faults actually fired (the injected kinds'
    // counters moved) and that the group healed: delivery over the window
    // starting kChaosRecoveryRounds after the last fault window closes is
    // back above the preset floor. A preset without one must stay
    // spotless — the null-plane path cannot corrupt, so any decode failure
    // on a clean run is a codec regression.
    if (!params.chaos.empty()) {
      if (params.chaos.corrupts()) {
        // Corruption/truncation reached live decoders and was dropped
        // there without crashing the harness (finishing the run IS the
        // no-crash receipt).
        EXPECT_GT(c.chaos.mutations(), 0u);
        EXPECT_GT(c.decode_failures, 0u);
      }
      if (params.chaos.asymmetric()) {
        // One-way rules really dropped datagrams (the network ledger and
        // the plane agree) and the suspicion plane noticed the silence;
        // the membership band below is the re-convergence receipt.
        EXPECT_GT(c.net.dropped_chaos, 0u);
        EXPECT_GT(c.chaos.dropped_oneway, 0u);
        EXPECT_GT(c.membership_transitions.suspicions, 0u);
      }
      if (params.chaos.gray()) {
        // Slow-but-up nodes never earn a down verdict on any path.
        EXPECT_EQ(c.membership_transitions.downs, 0u);
      }
      ASSERT_TRUE(c.post_chaos_delivery.has_value());
      EXPECT_GT(c.post_chaos_delivery->messages, 0u);
      EXPECT_GE(c.post_chaos_delivery->avg_receiver_pct,
                bounds.min_receiver_pct);
    } else {
      EXPECT_EQ(c.chaos.mutations(), 0u);
      EXPECT_EQ(c.decode_failures, 0u);
    }

    // Membership after the run. Full-membership groups end at n-1 on every
    // path — churned nodes were re-added on recovery (the failure-detector
    // path), or never left the views at all. Partial views stay bounded.
    ASSERT_EQ(c.membership_sizes.size(), params.n);
    for (std::size_t i = 0; i < params.n; ++i) {
      const std::size_t size = c.membership_sizes[i];
      if (params.gossip_membership) {
        // Gossiped liveness counts *up* peers only: nodes the suspicion
        // plane hasn't re-confirmed by run end may still be suspect, so
        // the contract is a band, not equality — but every node must have
        // re-learned most of the group (no mutual-tombstone isolation).
        EXPECT_GE(size, params.n / 2) << "node " << i;
        EXPECT_LE(size, params.n - 1) << "node " << i;
      } else if (params.partial_view) {
        EXPECT_GE(size, 1u) << "node " << i;
        EXPECT_LE(size, params.view_params.max_view) << "node " << i;
      } else {
        EXPECT_EQ(size, params.n - 1) << "node " << i;
      }
    }
  }

  // Locality runs under the control plane converge into the same p_local
  // band on every path (wall-clock timing is noisy, so the cross-path
  // contract is a band, not equality).
  if (params.adaptive && params.adaptation.control.enabled &&
      params.locality.enabled) {
    EXPECT_NEAR(r.sim.avg_p_local, r.wc.avg_p_local, 0.35);
    EXPECT_NEAR(r.sim.avg_p_local, r.sharded.avg_p_local, 0.35);
  }
  // Stalls and skewed clock reads are wall-clock phenomena (the simulator
  // runs double as the clean control).
  if (params.chaos.gray()) {
    EXPECT_GT(r.wc.chaos.stalls, 0u);
    EXPECT_GT(r.wc.chaos.skew_reads, 0u);
  }
}

TEST(ScenarioParityTest, EveryRegistryPresetRunsOnBothPaths) {
  const auto& registry = ScenarioRegistry::instance();
  std::set<std::string> covered;
  for (const ScenarioPreset* preset : registry.presets()) {
    SCOPED_TRACE("preset " + preset->name);
    ParityBounds bounds;  // generic contract for presets without an entry
    bounds.min_receiver_pct = 70.0;
    if (auto it = parity_bounds().find(preset->name);
        it != parity_bounds().end()) {
      bounds = it->second;
    }
    const Config cfg = make_config(bounds);
    const ScenarioParams params = registry.build(preset->name, cfg);
    const PairResults results = run_pair(preset->name, cfg);
    assert_invariants(params, results, bounds);
    covered.insert(preset->name);
  }
  // The coverage gate: every registered preset ran on all three paths —
  // classic sim, sharded sim (sim_shards=4) and wall-clock — so a new
  // preset cannot silently dodge the conformance contract, and the known
  // catalogue cannot shrink unnoticed. 3 columns x 22+ presets.
  EXPECT_EQ(covered.size(), registry.presets().size());
  EXPECT_GE(covered.size(), 22u);
  EXPECT_GE(3 * covered.size(), 66u);
}

TEST(ScenarioParityTest, PartialViewGroupsAgreeOnBothPaths) {
  // No preset enables lpbcast partial views by default; pin the wall-clock
  // partial-view path (bootstrap sampling, digest exchange over real
  // threads) against the simulator explicitly.
  ParityBounds bounds;
  bounds.overrides = {"partial_view=1"};
  const Config cfg = make_config(bounds);
  const ScenarioParams params =
      ScenarioRegistry::instance().build("paper60", cfg);
  ASSERT_TRUE(params.partial_view);
  const PairResults results = run_pair("paper60", cfg);
  assert_invariants(params, results, bounds);
}

TEST(ScenarioParityTest, LocalityOverPartialViewsRunsOnRealThreads) {
  // The deepest stack: LocalityView decorating a PartialView, on real
  // threads — bridge election out of partial knowledge must still bias
  // traffic onto the local island on both paths.
  ParityBounds bounds;
  bounds.min_receiver_pct = 60.0;
  bounds.max_cross_share = 0.5;
  bounds.overrides = {"n=15", "partial_view=1"};
  const Config cfg = make_config(bounds);
  const ScenarioParams params =
      ScenarioRegistry::instance().build("wan-directional", cfg);
  ASSERT_TRUE(params.partial_view && params.locality.enabled);
  const PairResults results = run_pair("wan-directional", cfg);
  assert_invariants(params, results, bounds);
}

TEST(ScenarioParityTest, WallclockRunsFormerSimulatorOnlyFeatures) {
  // Normal (Gaussian) latency models and per-link overrides, once
  // simulator-only, run on the fabric: both paths price links through the
  // shared sim::DelaySampler.
  ParityBounds bounds;
  bounds.min_receiver_pct = 70.0;
  bounds.overrides = {"latency=normal:5:2"};
  const Config cfg = make_config(bounds);
  ScenarioParams params = ScenarioRegistry::instance().build("paper60", cfg);
  ASSERT_EQ(params.network.latency.kind, sim::LatencyModel::Kind::kNormal);
  params.network.clusters = 3;
  params.network.wan_latency = sim::LatencyModel::normal(40.0, 10.0);
  params.link_latencies.push_back({0, 1, sim::LatencyModel::fixed(9.0)});

  WallclockScenario wallclock(params, WallclockOptions{.shards = 4});
  const ScenarioResults results = wallclock.run();
  EXPECT_GT(results.delivery.messages, 0u);
  EXPECT_GE(results.delivery.avg_receiver_pct, bounds.min_receiver_pct);
  EXPECT_GT(results.net.delivered, 0u);
  // The cluster rule really priced links: both sides of the split moved.
  EXPECT_GT(results.net.sent_intra_cluster, 0u);
  EXPECT_GT(results.net.sent_cross_cluster, 0u);
}

TEST(ScenarioParityTest, BackpressureQueuesAreBusyButBoundedOnBothPaths) {
  // The blocking-BROADCAST receipt: pin the allowed rate far below the
  // offered load, so arrivals must queue behind the token bucket — then the
  // pending queues on BOTH paths must have been used (depth > 0) and never
  // exceeded the cap (assert_invariants checks the bound).
  ParityBounds bounds;
  bounds.min_receiver_pct = 60.0;
  bounds.overrides = {"initial_rate=2", "pending_cap=16"};
  const Config cfg = make_config(bounds);
  const ScenarioParams params =
      ScenarioRegistry::instance().build("adaptive-backpressure", cfg);
  ASSERT_TRUE(params.adaptive && params.adaptation.control.enabled);
  ASSERT_EQ(params.pending_cap, 16u);
  const PairResults results = run_pair("adaptive-backpressure", cfg);
  assert_invariants(params, results, bounds);
  EXPECT_GT(results.sim.max_pending_depth, 0u);
  EXPECT_GT(results.wc.max_pending_depth, 0u);
}

/// Peak value of a series, and the last sample (the run-end state).
struct Trajectory {
  double peak = 0.0;
  double last = 0.0;
};

Trajectory summarize(const metrics::TimeSeries& ts) {
  Trajectory out;
  for (const auto& [t, v] : ts.points()) {
    out.peak = std::max(out.peak, v);
    out.last = v;
  }
  return out;
}

TEST(ScenarioParityTest, PLocalRisesUnderSqueezeAndRecoversOnBothPaths) {
  // The acceptance receipt for the control plane: under adaptive-wan's
  // mid-run buffer squeeze the group-mean p_local must RISE above its
  // configured base (the feedback layer pulls traffic onto the LAN
  // islands while drops die young), and after the squeeze heals it must
  // RELAX back toward base — observable as a trajectory on both harnesses.
  // The squeeze is made unmissable at this scale: every node drops to a
  // 6-slot buffer against a 120 msg/s offered load. The age marks are
  // raised to fit the 50 ms quick-scale rounds — WAN hops cost ~1 round
  // here (20-60 ms links), so events arrive several hops old and the
  // drop-age floor sits near 7-8, far above the paper-scale mark of 4.
  // starve_threshold=0 pins the starvation actuator off: with p_local
  // near its max the remote-novelty EWMA legitimately starves, and WHEN
  // that fires is wall-clock-timing-dependent — it would turn the
  // last-sample assertions below into a race. The starvation branch is
  // pinned by tests/control_plane_test.cc instead; this test is about
  // the congestion rise and the post-heal relax.
  ParityBounds bounds;
  bounds.overrides = {"n=15",         "rate=120",      "buf1=6",
                      "fraction=1.0", "duration_s=8",  "bucket_s=1",
                      "low_mark=9.5", "high_mark=11",  "starve_threshold=0"};
  const Config cfg = make_config(bounds);
  const ScenarioParams params =
      ScenarioRegistry::instance().build("adaptive-wan", cfg);
  ASSERT_TRUE(params.adaptive && params.adaptation.control.enabled);
  ASSERT_TRUE(params.locality.enabled);
  ASSERT_EQ(params.capacity_schedule.size(), 2u);  // squeeze, then heal
  const double base = params.locality.p_local;

  const PairResults results = run_pair("adaptive-wan", cfg);

  ASSERT_FALSE(results.sim.p_local_ts.empty());
  ASSERT_FALSE(results.wc.p_local_ts.empty());
  const Trajectory sim_traj = summarize(results.sim.p_local_ts);
  const Trajectory wc_traj = summarize(results.wc.p_local_ts);

  // Rose under congestion…
  EXPECT_GE(sim_traj.peak, base + 0.03);
  EXPECT_GE(wc_traj.peak, base + 0.03);
  // …and recovered after the heal: the run ends near base again, well
  // below the peak (the Nominal regime relaxes p_local toward base).
  EXPECT_LE(sim_traj.last, sim_traj.peak - 0.02);
  EXPECT_LE(wc_traj.last, wc_traj.peak - 0.02);
  EXPECT_NEAR(sim_traj.last, base, 0.05);
  EXPECT_NEAR(wc_traj.last, base, 0.05);
}

}  // namespace
}  // namespace agb::core
