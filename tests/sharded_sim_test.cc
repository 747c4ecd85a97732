// The determinism suite pinning the multi-core sharded simulator's core
// contract: for a fixed seed, every scenario-visible outcome is independent
// of the shard count AND the worker count. The suite runs representative
// registry presets (calibrated baseline, crash/recover churn, mid-run fault
// injection, a partial-view scale smoke) at sim_shards in {1, 2, 4, 8} and
// sim_workers in {1, hardware}, and compares the full result surface
// EXACTLY — per-node delivered-event fingerprints, DeliveryReport doubles
// (shared accumulators replay per-shard logs in canonical order at the
// serial barriers, so float accumulation order is fixed), network drop
// ledgers, chaos receipts, membership verdicts and every time series. Only
// the two engine-internal capacity receipts (net.events_scheduled — batched
// application groups — and peak_event_queue_len) vary with layout and are
// excluded.
//
// The shard-count-invariance tests double as the latent-assumption audit's
// regression net: any code path that reads a global clock where it should
// read its shard's, or schedules straight into another shard's queue
// instead of the window-barrier channels, shows up here as a fingerprint
// mismatch at some shard count.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <string>
#include <thread>
#include <vector>

#include "common/config.h"
#include "core/scenario_registry.h"
#include "core/sharded_scenario.h"
#include "metrics/timeseries.h"
#include "sim/sharded_engine.h"

namespace agb::core {
namespace {

Config make_config(const std::vector<std::string>& overrides) {
  Config cfg;
  std::string error;
  for (const char* pair :
       {"n=12", "senders=3", "rate=30", "quick=1", "period_ms=50",
        "warmup_s=1", "duration_s=2", "cooldown_s=1", "seed=11"}) {
    EXPECT_TRUE(cfg.parse_pair(pair, &error)) << error;
  }
  for (const std::string& pair : overrides) {
    EXPECT_TRUE(cfg.parse_pair(pair, &error)) << error;
  }
  return cfg;
}

/// One sharded run: the report, the tracker's per-node fingerprints and
/// the layout the engine actually ran.
struct ShardedRun {
  ScenarioResults report;
  std::vector<std::uint64_t> node_fingerprints;
  std::size_t shards = 0;
  std::uint64_t windows = 0;
};

ShardedRun run_sharded(const std::string& preset, const Config& cfg,
                       std::size_t shards, std::size_t workers) {
  ScenarioParams params = ScenarioRegistry::instance().build(preset, cfg);
  params.sim_shards = shards;
  params.sim_workers = workers;
  ShardedScenario scenario(std::move(params));
  ShardedRun run;
  run.report = scenario.run();
  run.node_fingerprints = scenario.tracker().per_node_fingerprints();
  run.shards = scenario.shards();
  run.windows = scenario.windows();
  return run;
}

void expect_same_series(const metrics::TimeSeries& a,
                        const metrics::TimeSeries& b, const char* what) {
  ASSERT_EQ(a.points().size(), b.points().size()) << what;
  for (std::size_t i = 0; i < a.points().size(); ++i) {
    EXPECT_EQ(a.points()[i].first, b.points()[i].first) << what << "[" << i
                                                        << "] time";
    EXPECT_EQ(a.points()[i].second, b.points()[i].second) << what << "[" << i
                                                          << "] value";
  }
}

void expect_same_report(const metrics::DeliveryReport& a,
                        const metrics::DeliveryReport& b, const char* what) {
  EXPECT_EQ(a.messages, b.messages) << what;
  EXPECT_EQ(a.window_s, b.window_s) << what;
  EXPECT_EQ(a.input_rate, b.input_rate) << what;
  EXPECT_EQ(a.output_rate, b.output_rate) << what;
  EXPECT_EQ(a.avg_receiver_pct, b.avg_receiver_pct) << what;
  EXPECT_EQ(a.atomicity_pct, b.atomicity_pct) << what;
  EXPECT_EQ(a.latency_p50_ms, b.latency_p50_ms) << what;
  EXPECT_EQ(a.latency_p99_ms, b.latency_p99_ms) << what;
}

/// The whole scenario-visible surface, compared EXACTLY (doubles included:
/// determinism is by construction, not by tolerance). `run_a` is the
/// baseline (sim_shards=1 on the sharded path), `run_b` the candidate
/// layout.
void expect_identical(const ShardedRun& run_a, const ShardedRun& run_b) {
  // The strongest witness first: per-node delivered-event fingerprints.
  // Every (event, node, delivery-time) triple hashes in; one reordered or
  // re-timed delivery anywhere in the run flips a node's fingerprint.
  ASSERT_EQ(run_a.node_fingerprints.size(), run_b.node_fingerprints.size());
  for (std::size_t i = 0; i < run_a.node_fingerprints.size(); ++i) {
    EXPECT_EQ(run_a.node_fingerprints[i], run_b.node_fingerprints[i])
        << "node " << i;
  }
  const ScenarioResults& a = run_a.report;
  const ScenarioResults& b = run_b.report;
  ASSERT_EQ(a.membership_sizes.size(), b.membership_sizes.size());
  for (std::size_t i = 0; i < a.membership_sizes.size(); ++i) {
    EXPECT_EQ(a.membership_sizes[i], b.membership_sizes[i]) << "node " << i;
  }

  expect_same_report(a.delivery, b.delivery, "delivery");
  EXPECT_EQ(a.post_chaos_delivery.has_value(),
            b.post_chaos_delivery.has_value());
  if (a.post_chaos_delivery && b.post_chaos_delivery) {
    expect_same_report(*a.post_chaos_delivery,
                       *b.post_chaos_delivery, "post_chaos_delivery");
  }

  EXPECT_EQ(a.offered_rate, b.offered_rate);
  EXPECT_EQ(a.input_rate, b.input_rate);
  EXPECT_EQ(a.output_rate, b.output_rate);
  EXPECT_EQ(a.avg_drop_age, b.avg_drop_age);
  EXPECT_EQ(a.overflow_drops, b.overflow_drops);
  EXPECT_EQ(a.age_limit_drops, b.age_limit_drops);
  EXPECT_EQ(a.refused_broadcasts, b.refused_broadcasts);
  EXPECT_EQ(a.decode_failures, b.decode_failures);
  EXPECT_EQ(a.repair_requests, b.repair_requests);
  EXPECT_EQ(a.repair_replies, b.repair_replies);
  EXPECT_EQ(a.events_recovered, b.events_recovered);
  EXPECT_EQ(a.avg_allowed_rate, b.avg_allowed_rate);
  EXPECT_EQ(a.final_allowed_rate, b.final_allowed_rate);
  EXPECT_EQ(a.avg_min_buff, b.avg_min_buff);
  EXPECT_EQ(a.avg_age_estimate, b.avg_age_estimate);
  EXPECT_EQ(a.avg_p_local, b.avg_p_local);
  EXPECT_EQ(a.avg_effective_fanout, b.avg_effective_fanout);
  EXPECT_EQ(a.max_pending_depth, b.max_pending_depth);

  // The network ledger, minus events_scheduled: batched application merges
  // same-(shard, time) runs, so the event count is a property of the
  // layout, not of the traffic. Everything the protocols can observe —
  // sends, deliveries, every drop reason, bytes — must match.
  EXPECT_EQ(a.net.sent, b.net.sent);
  EXPECT_EQ(a.net.sent_intra_cluster, b.net.sent_intra_cluster);
  EXPECT_EQ(a.net.sent_cross_cluster, b.net.sent_cross_cluster);
  EXPECT_EQ(a.net.batches, b.net.batches);
  EXPECT_EQ(a.net.delivered, b.net.delivered);
  EXPECT_EQ(a.net.dropped_loss, b.net.dropped_loss);
  EXPECT_EQ(a.net.dropped_partition, b.net.dropped_partition);
  EXPECT_EQ(a.net.dropped_down, b.net.dropped_down);
  EXPECT_EQ(a.net.dropped_detached, b.net.dropped_detached);
  EXPECT_EQ(a.net.dropped_chaos, b.net.dropped_chaos);
  EXPECT_EQ(a.net.bytes_delivered, b.net.bytes_delivered);

  // Fault-plane receipts: per-node planes with fixed seed derivations, so
  // what chaos injected cannot depend on who shares a shard.
  EXPECT_EQ(a.chaos.corrupted, b.chaos.corrupted);
  EXPECT_EQ(a.chaos.truncated, b.chaos.truncated);
  EXPECT_EQ(a.chaos.duplicated, b.chaos.duplicated);
  EXPECT_EQ(a.chaos.reordered, b.chaos.reordered);
  EXPECT_EQ(a.chaos.dropped_oneway, b.chaos.dropped_oneway);

  EXPECT_EQ(a.membership_transitions.suspicions,
            b.membership_transitions.suspicions);
  EXPECT_EQ(a.membership_transitions.downs,
            b.membership_transitions.downs);
  EXPECT_EQ(a.membership_transitions.revivals,
            b.membership_transitions.revivals);

  expect_same_series(a.allowed_rate_ts, b.allowed_rate_ts,
                     "allowed_rate_ts");
  expect_same_series(a.min_buff_ts, b.min_buff_ts, "min_buff_ts");
  expect_same_series(a.atomicity_ts, b.atomicity_ts,
                     "atomicity_ts");
  expect_same_series(a.input_rate_ts, b.input_rate_ts,
                     "input_rate_ts");
  expect_same_series(a.p_local_ts, b.p_local_ts, "p_local_ts");
  expect_same_series(a.fanout_ts, b.fanout_ts, "fanout_ts");
}

/// The determinism matrix for one preset: run sim_shards=1 as the baseline,
/// then every (shards, workers) layout against it, five repetitions per
/// layout — interleaving flake (a racing accumulator that usually loses the
/// race) needs repetition to surface, not just coverage. Worker counts
/// cover the inline path (1) and the fork-join pool (hardware concurrency,
/// forced to at least 4 so single-core CI still exercises the threaded
/// barriers).
void run_matrix(const std::string& preset,
                const std::vector<std::string>& overrides) {
  constexpr int kReps = 5;
  const Config cfg = make_config(overrides);
  const std::size_t hw = std::max<std::size_t>(
      4, std::thread::hardware_concurrency());
  const ShardedRun baseline = run_sharded(preset, cfg, 1, 1);
  EXPECT_EQ(baseline.shards, 1u);
  EXPECT_FALSE(baseline.node_fingerprints.empty());
  for (std::size_t shards : {std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
    for (std::size_t workers : {std::size_t{1}, hw}) {
      for (int rep = 0; rep < kReps; ++rep) {
        SCOPED_TRACE(preset + " shards=" + std::to_string(shards) +
                     " workers=" + std::to_string(workers) + " rep=" +
                     std::to_string(rep));
        const ShardedRun run =
            run_sharded(preset, cfg, shards, workers);
        EXPECT_EQ(run.shards, shards);
        EXPECT_GT(run.windows, 0u);
        expect_identical(baseline, run);
        if (::testing::Test::HasFailure()) return;  // one diff is enough
      }
    }
  }
}

TEST(ShardedSimDeterminism, Paper60AcrossShardAndWorkerCounts) {
  run_matrix("paper60", {});
}

TEST(ShardedSimDeterminism, ChurnAcrossShardAndWorkerCounts) {
  // Crash/recover churn exercises the failure schedule's cross-shard
  // choreography: every shard sees every event on its own clock, only the
  // owner flips liveness. Restart membership refresh must not depend on
  // which shard hosts the churned nodes.
  run_matrix("churn",
             {"churn_every_s=1", "churn_down_s=1", "churn_count=2"});
}

TEST(ShardedSimDeterminism, ChaosSoakAcrossShardAndWorkerCounts) {
  // The hardest preset for an engine: corruption mutates payloads (which
  // can decode into garbage member ids nodes then gossip to — the
  // dropped_detached path), duplication adds copies with their own send
  // seqs, reorder adds per-copy extra delay. All of it rides per-node
  // fault planes with fixed seed derivations, so the receipts are exact.
  run_matrix("chaos-soak", {});
}

TEST(ShardedSimDeterminism, AdaptiveControlPlaneAcrossShardAndWorkerCounts) {
  // The self-tuning control plane closes its feedback loop through the
  // barrier-replayed samplers; the p_local/fanout trajectories must be
  // bit-identical at every layout (doubles compared exactly).
  run_matrix("adaptive-wan", {"n=15"});
}

TEST(ShardedSimDeterminism, ScaleSmokePartialViewsAcrossShards) {
  // A bigger group on bounded partial views: enough nodes that every shard
  // holds hundreds and the barrier batches are real. Kept to one worker
  // axis and a 1 s window so the matrix stays ctest-friendly.
  const Config cfg = make_config({"n=1024", "senders=8", "rate=40",
                                  "warmup_s=1", "duration_s=1",
                                  "cooldown_s=1"});
  const ShardedRun baseline =
      run_sharded("scale-1e5", cfg, 1, 1);
  EXPECT_FALSE(baseline.node_fingerprints.empty());
  for (std::size_t shards : {std::size_t{4}, std::size_t{8}}) {
    SCOPED_TRACE("scale-1e5 shards=" + std::to_string(shards));
    const ShardedRun run =
        run_sharded("scale-1e5", cfg, shards, 4);
    expect_identical(baseline, run);
  }
}

TEST(ShardedSimDeterminism, RepeatedRunsAreBitIdentical) {
  // Rerun stability: five repetitions of the same (seed, shards, workers)
  // triple produce the same fingerprints and stats — no hidden iteration
  // over pointer-keyed containers, no wall-clock reads, no racing
  // accumulator anywhere in the threaded path.
  const Config cfg = make_config({});
  const ShardedRun first = run_sharded("paper60", cfg, 4, 4);
  for (int rep = 1; rep < 5; ++rep) {
    SCOPED_TRACE("rep " + std::to_string(rep));
    const ShardedRun again = run_sharded("paper60", cfg, 4, 4);
    expect_identical(first, again);
  }
}

TEST(ShardedSimDeterminism, DifferentSeedsDiverge) {
  // The comparison machinery must be able to fail: a different seed moves
  // the per-node fingerprints (guards against expect_identical comparing
  // empty surfaces or the harness ignoring the seed).
  const ShardedRun a =
      run_sharded("paper60", make_config({}), 4, 1);
  const ShardedRun b =
      run_sharded("paper60", make_config({"seed=12"}), 4, 1);
  EXPECT_NE(a.node_fingerprints, b.node_fingerprints);
}

// --- Latent-assumption audit regressions (engine level) -------------------
//
// The audit swept the scenario layer for code that bypasses shard clocks or
// shard queues (Scenario::sim_.now() reads, direct sim_.at() scheduling,
// master-RNG draws inside the parallel phase). These engine-level tests pin
// the two properties the fixes rely on.

TEST(ShardedEngineClocks, CallbacksObserveTheirShardClockAtFireTime) {
  // Under conservative windows, shard clocks advance independently between
  // barriers: a callback must see ITS shard's now() equal to its scheduled
  // time, regardless of how far other shards have run ahead. Re-arming
  // round timers with shard.now() + period (not a global clock) rests on
  // exactly this.
  sim::ShardedEngine engine({.shards = 4, .workers = 1, .lookahead = 5});
  std::vector<std::pair<std::size_t, TimeMs>> observed;
  for (std::size_t s = 0; s < engine.shards(); ++s) {
    // Shard s gets events at stride (s+1)*7 — deliberately unaligned with
    // the window length so barriers land mid-stride for some shards.
    for (TimeMs t = (s + 1) * 7; t <= 100; t += (s + 1) * 7) {
      engine.shard(s).at(t, [&observed, &engine, s, t] {
        observed.emplace_back(s, t);
        EXPECT_EQ(engine.shard(s).now(), t)
            << "shard " << s << " clock drifted from its event time";
      });
    }
  }
  engine.run_until(100);
  EXPECT_FALSE(observed.empty());
  for (std::size_t s = 0; s < engine.shards(); ++s) {
    EXPECT_EQ(engine.shard(s).now(), 100) << "shard " << s;
  }
}

TEST(ShardedEngineClocks, BarrierBatchArrivesCanonicallySorted) {
  // The barrier hook's batch is the engine's whole cross-shard story: it
  // must arrive sorted by (at, from, seq, to) no matter which shard pushed
  // what, and nothing in it may sit below the window end.
  sim::ShardedEngine engine({.shards = 2, .workers = 1, .lookahead = 10});
  bool saw_batch = false;
  engine.set_barrier_hook(
      [&saw_batch](TimeMs window_end,
                   std::vector<sim::CrossShardDatagram>& batch) {
        if (batch.empty()) return;
        saw_batch = true;
        for (std::size_t i = 0; i < batch.size(); ++i) {
          EXPECT_GE(batch[i].at, window_end);
          if (i > 0) {
            EXPECT_FALSE(sim::canonical_before(batch[i], batch[i - 1]))
                << "batch not in canonical order at " << i;
          }
        }
      });
  // Both shards emit interleaved traffic from inside their windows, in
  // deliberately non-canonical per-shard order (high sender id first).
  engine.shard(0).at(1, [&engine] {
    engine.push(0, {20, 6, 1, 0, SharedBytes{{1}}});
    engine.push(0, {15, 6, 3, 1, SharedBytes{{2}}});
    engine.push(0, {15, 2, 0, 0, SharedBytes{{3}}});
  });
  engine.shard(1).at(1, [&engine] {
    engine.push(1, {15, 3, 2, 0, SharedBytes{{4}}});
    engine.push(1, {20, 1, 1, 0, SharedBytes{{5}}});
  });
  engine.run_until(30);
  EXPECT_TRUE(saw_batch);
}

}  // namespace
}  // namespace agb::core
