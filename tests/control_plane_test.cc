// The self-tuning control plane and the estimators feeding it.
//
// Three layers of pinning:
//   1. ControlPlane unit semantics — latched hysteresis (no flapping at a
//      mark), actuator clamps, and the Nominal relax-toward-base path that
//      makes "recovers after the squeeze heals" observable.
//   2. Estimator properties — RobustMinEstimator is permutation-invariant
//      and monotone in its inputs; CongestionEstimator's avgAge EWMA
//      converges under injected noise and moves monotonically toward
//      one-sided input.
//   3. Determinism receipts — the same seed yields byte-identical
//      p_local/fanout trajectories across two simulator runs, and enabling
//      the control plane changes ZERO bytes of an emitted gossip message
//      (its actuators steer target selection and local state only).
#include "adaptive/control_plane.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "adaptive/adaptive_node.h"
#include "adaptive/congestion_estimator.h"
#include "adaptive/robust_min_estimator.h"
#include "common/config.h"
#include "common/rng.h"
#include "core/scenario.h"
#include "core/scenario_registry.h"
#include "gossip/event_buffer.h"
#include "membership/full_membership.h"

namespace agb::adaptive {
namespace {

constexpr double kLow = 4.0;
constexpr double kHigh = 5.0;

ControlPlaneParams plane_params() {
  ControlPlaneParams p;
  p.enabled = true;
  return p;
}

ControlPlane make_plane(std::size_t base_fanout = 4,
                        double base_p_local = 0.9) {
  return ControlPlane(plane_params(), kLow, kHigh, base_fanout, base_p_local);
}

ControlPlane::Signals signals(double avg_age, double remote_novel = 1.0,
                              bool has_locality = true) {
  return ControlPlane::Signals{avg_age, remote_novel, has_locality};
}

TEST(ControlPlaneTest, StartsNominalAtConfiguredBases) {
  ControlPlane plane = make_plane(4, 0.9);
  EXPECT_EQ(plane.regime(), Regime::kNominal);
  EXPECT_DOUBLE_EQ(plane.p_local(), 0.9);
  EXPECT_EQ(plane.fanout(), 4u);
}

TEST(ControlPlaneTest, BasePLocalClampedIntoConfiguredRange) {
  // A preset p_local outside [min, max] is pulled inside, so the relax
  // target is always reachable by the actuator.
  ControlPlane plane = make_plane(4, /*base_p_local=*/0.1);
  EXPECT_DOUBLE_EQ(plane.p_local(), plane.params().p_local_min);
}

TEST(ControlPlaneTest, ZeroBaseFanoutClampedToOne) {
  ControlPlane plane = make_plane(0);
  EXPECT_EQ(plane.fanout(), 1u);
  plane.tick(signals(kLow - 1.0));  // congested scaling must stay >= 1
  EXPECT_GE(plane.fanout(), 1u);
}

TEST(ControlPlaneTest, CongestionRaisesPLocalAndTrimsFanout) {
  ControlPlane plane = make_plane(4, 0.9);
  const ControlPlane::Actions actions = plane.tick(signals(kLow - 0.5));
  EXPECT_EQ(plane.regime(), Regime::kCongested);
  EXPECT_DOUBLE_EQ(actions.p_local, 0.9 + plane.params().p_local_step);
  EXPECT_EQ(actions.fanout, 3u);  // 4 * 0.75
}

TEST(ControlPlaneTest, PLocalClampedAtMaxUnderSustainedCongestion) {
  ControlPlane plane = make_plane(4, 0.9);
  for (int i = 0; i < 100; ++i) plane.tick(signals(kLow - 1.0));
  EXPECT_DOUBLE_EQ(plane.p_local(), plane.params().p_local_max);
}

TEST(ControlPlaneTest, HysteresisLatchesCongestedInsideTheBand) {
  // Enter Congested below L, then hover just above L but inside the
  // hysteresis band: the regime must NOT flap back to Nominal.
  ControlPlane plane = make_plane();
  plane.tick(signals(kLow - 0.1));
  ASSERT_EQ(plane.regime(), Regime::kCongested);
  const double hysteresis = plane.params().hysteresis;
  for (int i = 0; i < 10; ++i) {
    plane.tick(signals(kLow + hysteresis / 2.0));
    EXPECT_EQ(plane.regime(), Regime::kCongested) << "tick " << i;
  }
  // Only clearing the band releases the latch.
  plane.tick(signals(kLow + hysteresis + 0.01));
  EXPECT_EQ(plane.regime(), Regime::kNominal);
}

TEST(ControlPlaneTest, HysteresisLatchesSpareSymmetrically) {
  ControlPlane plane = make_plane();
  plane.tick(signals(kHigh + 0.1));
  ASSERT_EQ(plane.regime(), Regime::kSpare);
  const double hysteresis = plane.params().hysteresis;
  for (int i = 0; i < 10; ++i) {
    plane.tick(signals(kHigh - hysteresis / 2.0));
    EXPECT_EQ(plane.regime(), Regime::kSpare) << "tick " << i;
  }
  plane.tick(signals(kHigh - hysteresis - 0.01));
  EXPECT_EQ(plane.regime(), Regime::kNominal);
}

TEST(ControlPlaneTest, SpareScalesFanoutUpButKeepsPLocalUnlessStarving) {
  ControlPlane plane = make_plane(4, 0.9);
  // Remote novelty keeps arriving: spare capacity alone must not open the
  // WAN (that would trade reliability for nothing).
  const ControlPlane::Actions actions =
      plane.tick(signals(kHigh + 1.0, /*remote_novel=*/2.0));
  EXPECT_EQ(plane.regime(), Regime::kSpare);
  EXPECT_EQ(actions.fanout, 5u);  // 4 * 1.25
  EXPECT_DOUBLE_EQ(actions.p_local, 0.9);
}

TEST(ControlPlaneTest, SpareAndStarvingOpensTheWan) {
  ControlPlane plane = make_plane(4, 0.9);
  // Zero remote novelty for long enough drains the EWMA below the starve
  // threshold; p_local must then step DOWN (the cluster is cut off).
  for (int i = 0; i < 200 && !plane.starving(); ++i) {
    plane.tick(signals(kHigh + 1.0, /*remote_novel=*/0.0));
  }
  ASSERT_TRUE(plane.starving());
  const double before = plane.p_local();
  const ControlPlane::Actions actions =
      plane.tick(signals(kHigh + 1.0, /*remote_novel=*/0.0));
  EXPECT_DOUBLE_EQ(actions.p_local, before - plane.params().p_local_step);
}

TEST(ControlPlaneTest, StarvationWithoutLocalityLeavesPLocalAlone) {
  ControlPlane plane = make_plane(4, 0.9);
  for (int i = 0; i < 200; ++i) {
    plane.tick(signals(kHigh + 1.0, 0.0, /*has_locality=*/false));
  }
  EXPECT_DOUBLE_EQ(plane.p_local(), 0.9);
}

TEST(ControlPlaneTest, NominalRelaxesTowardBaseFromBothSides) {
  ControlPlane plane = make_plane(4, 0.9);
  // Drive p_local up under congestion, then heal: Nominal ticks walk it
  // back to base at half step and restore the base fanout, without
  // overshooting below base.
  for (int i = 0; i < 20; ++i) plane.tick(signals(kLow - 1.0));
  ASSERT_GT(plane.p_local(), 0.9);
  const double mid = (kLow + kHigh) / 2.0;
  double previous = plane.p_local();
  for (int i = 0; i < 500 && plane.p_local() > 0.9; ++i) {
    const ControlPlane::Actions actions = plane.tick(signals(mid));
    EXPECT_LE(actions.p_local, previous);
    EXPECT_EQ(actions.fanout, 4u);
    previous = actions.p_local;
  }
  EXPECT_DOUBLE_EQ(plane.p_local(), 0.9);

  // And from below (after a starvation excursion).
  ControlPlane starved = make_plane(4, 0.9);
  for (int i = 0; i < 300; ++i) starved.tick(signals(kHigh + 1.0, 0.0));
  ASSERT_LT(starved.p_local(), 0.9);
  for (int i = 0; i < 500 && starved.p_local() < 0.9; ++i) {
    starved.tick(signals(mid));
  }
  EXPECT_DOUBLE_EQ(starved.p_local(), 0.9);
}

// ---------------------------------------------------------------------------
// Estimator properties.

gossip::MinSetEntry entry(NodeId node, std::uint32_t capacity) {
  return gossip::MinSetEntry{node, capacity};
}

TEST(EstimatorPropertyTest, RobustMinIsShuffleInvariant) {
  // The estimate is a function of the SET of (node, capacity) claims, not
  // of the order gossip happened to deliver them in.
  std::vector<gossip::MinSetEntry> entries;
  for (NodeId id = 1; id <= 12; ++id) {
    entries.push_back(entry(id, 20 + 7 * static_cast<std::uint32_t>(id)));
  }
  Rng rng(99);
  std::vector<std::uint32_t> estimates;
  for (int round = 0; round < 8; ++round) {
    RobustMinEstimator est(/*k=*/3, /*floor=*/0, /*window=*/2, /*self=*/0,
                           /*local_capacity=*/200);
    rng.shuffle(entries);
    // Deliver one entry per header, like distinct gossip messages would.
    for (const auto& e : entries) {
      est.on_entries(0, std::span<const gossip::MinSetEntry>(&e, 1));
    }
    estimates.push_back(est.estimate());
  }
  for (std::uint32_t estimate : estimates) {
    EXPECT_EQ(estimate, estimates.front());
  }
}

TEST(EstimatorPropertyTest, RobustMinIsMonotoneInNewClaims) {
  // Learning a strictly smaller capacity can only lower (never raise) the
  // estimate; learning a larger one can only raise or keep it.
  RobustMinEstimator est(/*k=*/2, /*floor=*/0, /*window=*/2, /*self=*/0,
                         /*local_capacity=*/100);
  Rng rng(7);
  std::uint32_t previous = est.estimate();
  for (NodeId id = 1; id <= 30; ++id) {
    const auto capacity =
        static_cast<std::uint32_t>(90 - 2 * id + rng.next_below(2));
    const gossip::MinSetEntry e = entry(id, capacity);
    est.on_entries(0, std::span<const gossip::MinSetEntry>(&e, 1));
    EXPECT_LE(est.estimate(), previous) << "claim from node " << id;
    previous = est.estimate();
  }
}

TEST(EstimatorPropertyTest, RobustMinWindowForgetsDepartedMinima) {
  // A small buffer advertised in a past period ages out of the window and
  // the estimate converges back to the survivors' capacities.
  RobustMinEstimator est(/*k=*/1, /*floor=*/0, /*window=*/2, /*self=*/0,
                         /*local_capacity=*/100);
  const gossip::MinSetEntry small = entry(5, 10);
  est.on_entries(0, std::span<const gossip::MinSetEntry>(&small, 1));
  EXPECT_EQ(est.estimate(), 10u);
  est.advance_to(1);
  EXPECT_EQ(est.estimate(), 10u);  // still inside the window
  est.advance_to(3);
  EXPECT_EQ(est.estimate(), 100u);  // aged out; only self remains
}

TEST(EstimatorPropertyTest, AvgAgeMovesMonotonicallyTowardOneSidedInput) {
  // Every sample strictly below the current average must pull the EWMA
  // down, and never below the sample itself.
  CongestionEstimator est(0.9, /*initial_age=*/8.0);
  gossip::EventBuffer buf;
  double previous = est.avg_age();
  for (std::uint64_t seq = 0; seq < 50; ++seq) {
    gossip::Event e;
    e.id = EventId{1, seq};
    e.age = 2;
    buf.insert(e);
    // min_buff 0: every event is virtually dropped.
    buf.settle_overflow(gossip::EventBuffer::kNoBound, 0, false,
                        [&est](const gossip::Event& d) { est.observe(d); });
    EXPECT_LT(est.avg_age(), previous);
    EXPECT_GE(est.avg_age(), 2.0);
    previous = est.avg_age();
  }
  EXPECT_NEAR(est.avg_age(), 2.0, 0.1);
}

TEST(EstimatorPropertyTest, AvgAgeConvergesUnderInjectedNoise) {
  // Noisy drop ages uniform in [3, 9] (mean 6): the EWMA must settle into
  // a band around the mean instead of tracking the extremes.
  CongestionEstimator est(0.9, /*initial_age=*/0.0);
  Rng rng(1234);
  gossip::EventBuffer buf;
  for (std::uint64_t seq = 0; seq < 400; ++seq) {
    gossip::Event e;
    e.id = EventId{1, seq};
    e.age = static_cast<std::uint32_t>(3 + rng.next_below(7));  // 3..9
    buf.insert(e);
    buf.settle_overflow(gossip::EventBuffer::kNoBound, 0, false,
                        [&est](const gossip::Event& d) { est.observe(d); });
  }
  EXPECT_GT(est.avg_age(), 4.5);
  EXPECT_LT(est.avg_age(), 7.5);
}

// ---------------------------------------------------------------------------
// Determinism receipts.

TEST(ControlPlaneDeterminismTest, SameSeedYieldsIdenticalTrajectories) {
  // Two full simulator runs of the adaptive-wan preset from one seed must
  // produce byte-identical p_local and fanout trajectories: the control
  // plane is pure arithmetic (no RNG), so any divergence here means a
  // hidden draw or iteration-order dependence crept into the feedback path.
  Config cfg;
  std::string error;
  for (const char* pair :
       {"n=12", "senders=3", "rate=30", "quick=1", "period_ms=50",
        "warmup_s=1", "duration_s=3", "cooldown_s=1", "bucket_s=1",
        "seed=77"}) {
    ASSERT_TRUE(cfg.parse_pair(pair, &error)) << error;
  }
  const core::ScenarioParams params =
      core::ScenarioRegistry::instance().build("adaptive-wan", cfg);
  ASSERT_TRUE(params.adaptation.control.enabled);

  auto run_once = [&params] {
    core::Scenario scenario(params);
    return scenario.run();
  };
  const core::ScenarioResults first = run_once();
  const core::ScenarioResults second = run_once();

  ASSERT_FALSE(first.p_local_ts.empty());
  ASSERT_EQ(first.p_local_ts.size(), second.p_local_ts.size());
  for (std::size_t i = 0; i < first.p_local_ts.size(); ++i) {
    EXPECT_EQ(first.p_local_ts.points()[i], second.p_local_ts.points()[i]);
  }
  ASSERT_EQ(first.fanout_ts.size(), second.fanout_ts.size());
  for (std::size_t i = 0; i < first.fanout_ts.size(); ++i) {
    EXPECT_EQ(first.fanout_ts.points()[i], second.fanout_ts.points()[i]);
  }
  EXPECT_EQ(first.delivery.messages, second.delivery.messages);
  EXPECT_DOUBLE_EQ(first.avg_p_local, second.avg_p_local);
  EXPECT_DOUBLE_EQ(first.avg_effective_fanout, second.avg_effective_fanout);
  EXPECT_EQ(first.max_pending_depth, second.max_pending_depth);
}

std::unique_ptr<membership::FullMembership> directory(NodeId self,
                                                      std::size_t n) {
  auto m = std::make_unique<membership::FullMembership>(self, Rng(self + 1));
  for (NodeId id = 0; id < n; ++id) {
    if (id != self) m->add(id);
  }
  return m;
}

TEST(ControlPlaneDeterminismTest, ControlPlaneAddsZeroWireBytes) {
  // Same node, same seed, same inputs — one with the control plane on, one
  // off. The emitted gossip payloads must be byte-identical: the plane's
  // actuators steer target *selection* and local state, never message
  // content, which is why the pinned golden fingerprints of the
  // failure_detector era survive this PR unchanged.
  gossip::GossipParams gp;
  gp.fanout = 3;
  gp.gossip_period = 1000;
  gp.max_events = 10;
  gp.max_event_ids = 200;
  gp.max_age = 12;
  AdaptiveParams on;
  on.control.enabled = true;
  AdaptiveParams off;
  off.control.enabled = false;

  AdaptiveLpbcastNode with_plane(0, gp, on, directory(0, 8), Rng(42));
  AdaptiveLpbcastNode without_plane(0, gp, off, directory(0, 8), Rng(42));
  ASSERT_NE(with_plane.control_plane(), nullptr);
  ASSERT_EQ(without_plane.control_plane(), nullptr);

  for (TimeMs now = 0; now < 10'000; now += 1000) {
    with_plane.try_broadcast(gossip::make_payload({7, 7}), now);
    without_plane.try_broadcast(gossip::make_payload({7, 7}), now);
    const auto a = with_plane.on_round(now).to_multicast(0);
    const auto b = without_plane.on_round(now).to_multicast(0);
    ASSERT_EQ(a.payload.size(), b.payload.size()) << "round at " << now;
    EXPECT_TRUE(std::equal(a.payload.data(), a.payload.data() + a.payload.size(),
                           b.payload.data()))
        << "round at " << now;
    if (with_plane.control_plane()->regime() == Regime::kNominal) {
      // While the plane hasn't actuated, it must also be draw-neutral:
      // both nodes consume the RNG identically, so target picks match.
      EXPECT_EQ(a.targets, b.targets) << "round at " << now;
    } else {
      // Once idle rounds boost avgAge into kSpare the fanout actuator
      // kicks in — target COUNT follows the plane, payload bytes don't.
      EXPECT_EQ(a.targets.size(), with_plane.control_plane()->fanout())
          << "round at " << now;
    }
  }
}

}  // namespace
}  // namespace agb::adaptive
