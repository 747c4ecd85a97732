#include "sim/event_queue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "adaptive/adaptive_node.h"
#include "common/config.h"
#include "core/scenario.h"
#include "core/scenario_registry.h"

namespace agb::sim {
namespace {

TEST(EventQueueTest, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(30, [&] { order.push_back(3); });
  q.schedule(10, [&] { order.push_back(1); });
  q.schedule(20, [&] { order.push_back(2); });
  while (auto fired = q.pop()) fired->fn();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, EqualTimesFireInSchedulingOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.schedule(5, [&order, i] { order.push_back(i); });
  }
  while (auto fired = q.pop()) fired->fn();
  std::vector<int> expected;
  for (int i = 0; i < 10; ++i) expected.push_back(i);
  EXPECT_EQ(order, expected);
}

TEST(EventQueueTest, PopReturnsTimestamp) {
  EventQueue q;
  q.schedule(42, [] {});
  auto fired = q.pop();
  ASSERT_TRUE(fired.has_value());
  EXPECT_EQ(fired->at, 42);
}

TEST(EventQueueTest, EmptyPopReturnsNullopt) {
  EventQueue q;
  EXPECT_FALSE(q.pop().has_value());
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, CancelPreventsExecution) {
  EventQueue q;
  bool ran = false;
  auto handle = q.schedule(1, [&] { ran = true; });
  handle.cancel();
  while (auto fired = q.pop()) fired->fn();
  EXPECT_FALSE(ran);
}

TEST(EventQueueTest, CancelIsIdempotentAndSafeAfterFire) {
  EventQueue q;
  auto handle = q.schedule(1, [] {});
  auto fired = q.pop();
  ASSERT_TRUE(fired.has_value());
  fired->fn();
  handle.cancel();  // no effect, no crash
  handle.cancel();
}

TEST(EventQueueTest, PendingReflectsLifecycle) {
  EventQueue q;
  auto handle = q.schedule(1, [] {});
  EXPECT_TRUE(handle.pending());
  handle.cancel();
  EXPECT_FALSE(handle.pending());
}

TEST(EventQueueTest, PendingFalseAfterPop) {
  EventQueue q;
  auto handle = q.schedule(1, [] {});
  (void)q.pop();
  EXPECT_FALSE(handle.pending());
}

TEST(EventQueueTest, PeekSkipsCancelled) {
  EventQueue q;
  auto first = q.schedule(1, [] {});
  q.schedule(2, [] {});
  first.cancel();
  EXPECT_EQ(q.peek_time(), 2);
}

TEST(EventQueueTest, EmptyAfterAllCancelled) {
  EventQueue q;
  auto a = q.schedule(1, [] {});
  auto b = q.schedule(2, [] {});
  a.cancel();
  b.cancel();
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(q.peek_time().has_value());
}

TEST(EventQueueTest, DefaultHandleIsInert) {
  EventHandle handle;
  EXPECT_FALSE(handle.pending());
  handle.cancel();  // no crash
}

TEST(EventQueueTest, ScheduleFromWithinCallback) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(1, [&] {
    order.push_back(1);
    q.schedule(2, [&] { order.push_back(2); });
  });
  while (auto fired = q.pop()) fired->fn();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

// The seed queue reported size() as the raw heap length, so cancelled
// entries inflated the count until lazily collected at pop time. size()
// is now the exact live count: cancellation decrements it immediately.
TEST(EventQueueTest, SizeIsExactUnderCancellation) {
  EventQueue q;
  constexpr std::size_t kEvents = 100;
  std::vector<EventHandle> handles;
  for (std::size_t i = 0; i < kEvents; ++i) {
    handles.push_back(q.schedule(static_cast<TimeMs>(i), [] {}));
  }
  EXPECT_EQ(q.size(), kEvents);
  std::size_t cancelled = 0;
  for (std::size_t i = 0; i < kEvents; i += 3) {
    handles[i].cancel();
    ++cancelled;
    EXPECT_EQ(q.size(), kEvents - cancelled);
  }
  std::size_t popped = 0;
  while (auto fired = q.pop()) {
    ++popped;
    EXPECT_EQ(q.size(), kEvents - cancelled - popped);
  }
  EXPECT_EQ(popped, kEvents - cancelled);
  EXPECT_EQ(q.size(), 0u);
  EXPECT_EQ(q.peak_size(), kEvents);
}

TEST(EventQueueTest, PeakSizeTracksHighWaterMark) {
  EventQueue q;
  auto a = q.schedule(1, [] {});
  auto b = q.schedule(2, [] {});
  a.cancel();
  auto c = q.schedule(3, [] {});  // live: 2, never above 2
  (void)b;
  (void)c;
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.peak_size(), 2u);
}

// Callbacks larger than the inline buffer take the heap path; the capture
// must survive the relocation into and out of the queue.
TEST(EventQueueTest, LargeCallbackRunsViaHeapPath) {
  EventQueue q;
  std::array<std::uint64_t, 16> big{};  // 128 B: over the 48 B inline cap
  for (std::size_t i = 0; i < big.size(); ++i) big[i] = i + 1;
  std::uint64_t sum = 0;
  q.schedule(5, [big, &sum] {
    for (std::uint64_t v : big) sum += v;
  });
  while (auto fired = q.pop()) fired->fn();
  EXPECT_EQ(sum, 136u);  // 1 + 2 + ... + 16
}

// Events beyond the ring horizon (4096 ms) start in the overflow heap and
// must migrate into the ring as the cursor advances — interleaved with
// near-future events, in exact (time, scheduling-order) order.
TEST(EventQueueTest, FarFutureEventsMigrateInOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(10'000, [&] { order.push_back(4); });  // overflow
  q.schedule(5'000, [&] { order.push_back(2); });   // overflow
  q.schedule(100, [&] { order.push_back(1); });     // ring
  q.schedule(9'999, [&] { order.push_back(3); });   // overflow
  q.schedule(10'000, [&] { order.push_back(5); });  // overflow, later seq
  while (auto fired = q.pop()) fired->fn();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5}));
}

// Same-timestamp FIFO must hold even when one twin sits in the ring and
// the other in the overflow heap at the moment the cursor reaches them.
TEST(EventQueueTest, RingOverflowTwinsKeepSchedulingOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(6'000, [&] { order.push_back(1); });  // overflow at schedule
  q.schedule(1, [&] {
    order.push_back(0);
    // By now the cursor is at 1, so 6'000 is within the ring horizon: this
    // twin goes straight to the ring while its earlier-seq sibling must be
    // migrated out of overflow first.
    q.schedule(6'000, [&] { order.push_back(2); });
  });
  while (auto fired = q.pop()) fired->fn();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

// Slots are recycled through a freelist; a stale handle to a fired event
// must not cancel (or report pending for) the slot's next occupant.
TEST(EventQueueTest, StaleHandleDoesNotTouchRecycledSlot) {
  EventQueue q;
  bool first_ran = false;
  auto stale = q.schedule(1, [&] { first_ran = true; });
  while (auto fired = q.pop()) fired->fn();
  EXPECT_TRUE(first_ran);

  bool second_ran = false;
  auto fresh = q.schedule(2, [&] { second_ran = true; });
  EXPECT_FALSE(stale.pending());
  stale.cancel();  // generation mismatch: must be a no-op
  EXPECT_TRUE(fresh.pending());
  EXPECT_EQ(q.size(), 1u);
  while (auto fired = q.pop()) fired->fn();
  EXPECT_TRUE(second_ran);
}

TEST(EventQueueTest, HandleOutlivingQueueIsInert) {
  EventHandle handle;
  {
    EventQueue q;
    handle = q.schedule(1, [] {});
    EXPECT_TRUE(handle.pending());
  }
  EXPECT_FALSE(handle.pending());
  handle.cancel();  // no crash, no dangling queue access
}

// ---------------------------------------------------------------------------
// Golden determinism: the calendar queue replaced the seed binary heap, and
// the round wheel replaced per-node timers; both swaps promised byte-
// identical schedules. These fingerprints were captured from the seed
// implementation (std::priority_queue + per-node PeriodicTimer) at seed
// 2003 and must never change — a mismatch means the event order moved.
// Adaptive nodes also fold in the exact bits of their avgAge EWMA, allowed
// rate and minBuff, so the adaptive pins below cover the estimators'
// arithmetic too; baseline runs hash exactly what they always did.

std::uint64_t fnv1a_mix(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffu;
    h *= 1099511628211ull;
  }
  return h;
}

std::uint64_t fnv1a_mix(std::uint64_t h, double v) {
  return fnv1a_mix(h, static_cast<std::uint64_t>(std::llround(v * 1e6)));
}

/// `lowest_min_buff`, when given, receives the smallest minBuff any
/// adaptive node ends the run with.
std::uint64_t trace_fingerprint(const std::string& preset,
                                const std::vector<std::string>& overrides,
                                std::uint32_t* lowest_min_buff = nullptr) {
  Config cfg;
  std::string error;
  for (const std::string& pair : overrides) {
    EXPECT_TRUE(cfg.parse_pair(pair, &error)) << error;
  }
  const core::ScenarioParams params =
      core::ScenarioRegistry::instance().build(preset, cfg);
  core::Scenario scenario(params);
  const core::ScenarioResults r = scenario.run();

  std::uint64_t h = 1469598103934665603ull;
  for (const auto& node : scenario.nodes()) {
    const auto& c = node->counters();
    for (std::uint64_t v :
         {c.broadcasts, c.rounds, c.gossips_sent, c.gossips_received,
          c.events_received, c.duplicates, c.deliveries, c.drops_overflow,
          c.drops_age_limit, c.drops_obsolete}) {
      h = fnv1a_mix(h, v);
    }
    h = fnv1a_mix(h, static_cast<std::uint64_t>(node->membership().size()));
  }
  for (const auto* node : scenario.adaptive_nodes()) {
    h = fnv1a_mix(h, std::bit_cast<std::uint64_t>(node->avg_age()));
    h = fnv1a_mix(h, std::bit_cast<std::uint64_t>(node->allowed_rate()));
    h = fnv1a_mix(h, static_cast<std::uint64_t>(node->min_buff()));
    if (lowest_min_buff != nullptr) {
      *lowest_min_buff = std::min(*lowest_min_buff, node->min_buff());
    }
  }
  const auto& n = r.net;
  for (std::uint64_t v :
       {n.sent, n.sent_intra_cluster, n.sent_cross_cluster, n.batches,
        n.events_scheduled, n.delivered, n.dropped_loss, n.dropped_partition,
        n.dropped_down, n.bytes_delivered}) {
    h = fnv1a_mix(h, v);
  }
  h = fnv1a_mix(h, r.delivery.messages);
  h = fnv1a_mix(h, r.delivery.avg_receiver_pct);
  h = fnv1a_mix(h, r.delivery.atomicity_pct);
  h = fnv1a_mix(h, r.delivery.latency_p50_ms);
  h = fnv1a_mix(h, r.delivery.latency_p99_ms);
  return h;
}

const std::vector<std::string>& golden_base_config() {
  static const std::vector<std::string> base = {
      "n=24",       "senders=4",     "rate=40",      "quick=1",
      "warmup_s=4", "duration_s=16", "cooldown_s=4", "seed=2003"};
  return base;
}

TEST(EventQueueGoldenTest, Paper60TraceMatchesSeedImplementation) {
  EXPECT_EQ(trace_fingerprint("paper60", golden_base_config()),
            0xb2313229612592e9ull);
}

TEST(EventQueueGoldenTest, ChurnTraceMatchesSeedImplementation) {
  auto overrides = golden_base_config();
  overrides.push_back("churn_every_s=4");
  overrides.push_back("churn_down_s=3");
  overrides.push_back("churn_count=2");
  EXPECT_EQ(trace_fingerprint("churn", overrides), 0xfa1c9987305df365ull);
}

TEST(EventQueueGoldenTest, PartialViewTraceMatchesSeedImplementation) {
  auto overrides = golden_base_config();
  overrides.push_back("partial_view=1");
  EXPECT_EQ(trace_fingerprint("paper60", overrides), 0x23c07594749bf542ull);
}

// The adaptive pins were captured before the congestion estimator's
// virtual drops and the buffer bound's real drops moved to one-pass
// oldest-first selection, which promised the same drop sequence bit for
// bit.
TEST(EventQueueGoldenTest, AdaptivePaper60OverloadTraceIsPinned) {
  auto overrides = golden_base_config();
  overrides.push_back("adaptive=1");
  overrides.push_back("rate=45");
  EXPECT_EQ(trace_fingerprint("paper60", overrides), 0x244d7b1f46201ab1ull);
}

// fig9 squeezes 20% of the buffers 90 -> 45 -> 60 inside the window, so
// minBuff falls below the real bound and virtually lost ids carry over from
// one received message to the next.
TEST(EventQueueGoldenTest, AdaptiveFig9SqueezeTraceIsPinned) {
  auto overrides = golden_base_config();
  overrides.push_back("adaptive=1");
  overrides.push_back("t1_s=4");
  overrides.push_back("t2_s=10");
  std::uint32_t lowest_min_buff = UINT32_MAX;
  EXPECT_EQ(trace_fingerprint("fig9", overrides, &lowest_min_buff),
            0xb1a9663f3eddabccull);
  EXPECT_LT(lowest_min_buff, 90u);  // fig9's real bound
}

}  // namespace
}  // namespace agb::sim
