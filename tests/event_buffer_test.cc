#include "gossip/event_buffer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstddef>
#include <ostream>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/rng.h"
#include "gossip/event.h"

namespace agb {

// Failure messages name ids instead of dumping their bytes.
void PrintTo(const EventId& id, std::ostream* os) { *os << to_string(id); }

namespace gossip {
namespace {

Event make_event(NodeId origin, std::uint64_t seq, std::uint32_t age = 0) {
  Event e;
  e.id = EventId{origin, seq};
  e.age = age;
  return e;
}

/// The ids settle_overflow(kNoBound, keep) marks lost, in marking order.
std::vector<EventId> mark_beyond(EventBuffer& buf, std::size_t keep) {
  std::vector<EventId> ids;
  buf.settle_overflow(EventBuffer::kNoBound, keep, false,
                      [&ids](const Event& e) { ids.push_back(e.id); });
  return ids;
}

std::vector<EventId> ids_of(std::span<const Event> events) {
  std::vector<EventId> ids;
  for (const Event& e : events) ids.push_back(e.id);
  return ids;
}

/// Copies of the events in_insertion_order() points at.
std::vector<Event> ordered(const EventBuffer& buf) {
  std::vector<Event> events;
  for (const Event* e : buf.in_insertion_order()) events.push_back(*e);
  return events;
}

/// The buffer's slots in storage order (the order for_each visits).
std::vector<Event> slot_layout(const EventBuffer& buf) {
  std::vector<Event> layout;
  buf.for_each([&](const Event& e) { layout.push_back(e); });
  return layout;
}

/// The test's own record of insertions: each id's insertion rank, counted
/// here, so the reference models never ask the buffer for its order.
struct InsertionLog {
  std::unordered_map<EventId, std::uint64_t> rank;
  std::uint64_t next = 0;

  bool insert(EventBuffer& buf, Event e) {
    const EventId id = e.id;
    if (!buf.insert(std::move(e))) return false;
    rank[id] = next++;  // a re-inserted id ranks anew
    return true;
  }

  /// The buffered events, earliest insertion first.
  [[nodiscard]] std::vector<Event> in_order(const EventBuffer& buf) const {
    std::vector<Event> events = slot_layout(buf);
    std::sort(events.begin(), events.end(),
              [this](const Event& a, const Event& b) {
                return rank.at(a.id) < rank.at(b.id);
              });
    return events;
  }
};

/// Reference model of eviction: the paper's loop taken literally. It picks
/// the oldest remaining candidate one at a time (age descending, earliest
/// insertion on ties; ids in `excluded`, the model's lost set, are no
/// candidates) and, when `erase` is set, removes it the way the buffer
/// does — the last slot moves into the hole.
struct NaiveEviction {
  std::vector<EventId> victims;
  std::vector<Event> layout;  // storage order afterwards (when erasing)
};

NaiveEviction naive_oldest_beyond(const EventBuffer& buf,
                                  const InsertionLog& log, std::size_t keep,
                                  const std::unordered_set<EventId>* excluded,
                                  bool erase) {
  NaiveEviction out;
  out.layout = slot_layout(buf);
  std::vector<bool> gone(out.layout.size(), false);  // virtual drops
  auto candidate = [&](std::size_t i) {
    return !gone[i] &&
           (excluded == nullptr || !excluded->contains(out.layout[i].id));
  };
  for (;;) {
    std::size_t remaining = 0;
    std::size_t oldest = out.layout.size();
    for (std::size_t i = 0; i < out.layout.size(); ++i) {
      if (!candidate(i)) continue;
      ++remaining;
      const Event& e = out.layout[i];
      if (oldest == out.layout.size() || e.age > out.layout[oldest].age ||
          (e.age == out.layout[oldest].age &&
           log.rank.at(e.id) < log.rank.at(out.layout[oldest].id))) {
        oldest = i;
      }
    }
    if (remaining <= keep) break;
    out.victims.push_back(out.layout[oldest].id);
    if (erase) {
      out.layout[oldest] = out.layout.back();
      out.layout.pop_back();
      gone.pop_back();
    } else {
      gone[oldest] = true;
    }
  }
  return out;
}

void expect_same_events(const std::vector<Event>& actual,
                        const std::vector<Event>& expected) {
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(actual[i].id, expected[i].id) << i;
    EXPECT_EQ(actual[i].age, expected[i].age) << i;
  }
}

/// Reference model of settle_overflow(): the naive model run twice, the
/// marks (over events - lost) and then the eviction, with the buffer's own
/// semantic purge, when it runs, between them on a copy.
struct NaiveSettle {
  std::vector<EventId> marked;
  std::vector<EventId> obsolete;
  std::vector<EventId> evicted;
  std::vector<Event> layout;  // storage order afterwards
  std::vector<Event> order;   // insertion order afterwards
};

NaiveSettle naive_settle(const EventBuffer& buf, const InsertionLog& log,
                         std::size_t capacity, std::size_t keep_unmarked,
                         const std::unordered_set<EventId>& lost,
                         bool semantic_purge) {
  NaiveSettle out;
  out.marked =
      naive_oldest_beyond(buf, log, keep_unmarked, &lost, false).victims;
  EventBuffer purged = buf;
  if (semantic_purge && purged.size() > capacity) {
    out.obsolete = ids_of(purged.purge_superseded());
  }
  NaiveEviction eviction =
      naive_oldest_beyond(purged, log, capacity, nullptr, true);
  out.evicted = std::move(eviction.victims);
  out.layout = std::move(eviction.layout);
  for (const Event& e : log.in_order(purged)) {
    if (std::find(out.evicted.begin(), out.evicted.end(), e.id) ==
        out.evicted.end()) {
      out.order.push_back(e);
    }
  }
  return out;
}

/// How often check_settle() met the cases one selection must get right.
struct SettleCoverage {
  std::size_t purge_then_evict = 0;  // purged some, still evicted some
  std::size_t marks_past_evictions = 0;  // the last mark beyond them
  std::size_t marks_over_old_marks = 0;  // new marks beside earlier ones
  std::size_t last_bucket = 0;  // a victim aged 63 or more
};
SettleCoverage coverage;

/// settle_overflow() on a copy of `buf` against naive_settle(): the marked
/// ids (with their ages) in order, the purged and evicted events in order
/// (moved out whole), the slot layout and insertion order afterwards, and
/// every mark left: the old ones plus the new, on buffered events only.
void check_settle(const EventBuffer& buf, const InsertionLog& log,
                  std::size_t capacity, std::size_t keep_unmarked,
                  const std::unordered_set<EventId>& lost,
                  bool semantic_purge) {
  SCOPED_TRACE(::testing::Message()
               << "size " << buf.size() << " capacity " << capacity
               << " keep " << keep_unmarked << " lost " << lost.size()
               << (semantic_purge ? " purge" : ""));
  const NaiveSettle expected =
      naive_settle(buf, log, capacity, keep_unmarked, lost, semantic_purge);
  EventBuffer settled = buf;
  std::vector<EventId> marked;
  const EventBuffer::Overflow overflow = settled.settle_overflow(
      capacity, keep_unmarked, semantic_purge, [&](const Event& e) {
        // Visited as marked, before anything is removed.
        EXPECT_TRUE(settled.lost(e.id)) << to_string(e.id);
        EXPECT_EQ(e.age, buf.find(e.id)->age) << to_string(e.id);
        EXPECT_EQ(e.payload, buf.find(e.id)->payload) << to_string(e.id);
        EXPECT_EQ(settled.size(), buf.size());
        marked.push_back(e.id);
      });
  EXPECT_EQ(marked, expected.marked);
  EXPECT_EQ(ids_of(overflow.obsolete), expected.obsolete);
  EXPECT_EQ(ids_of(overflow.evicted), expected.evicted);
  for (const Event& e : overflow.evicted) {
    const Event* original = buf.find(e.id);
    ASSERT_NE(original, nullptr);
    EXPECT_EQ(e.age, original->age) << to_string(e.id);
    EXPECT_EQ(e.payload, original->payload) << to_string(e.id);
  }
  expect_same_events(slot_layout(settled), expected.layout);
  expect_same_events(ordered(settled), expected.order);
  coverage.purge_then_evict +=
      !expected.obsolete.empty() && !expected.evicted.empty();
  coverage.marks_over_old_marks += !expected.marked.empty() && !lost.empty();
  if (!expected.marked.empty()) {
    std::vector<Event> order_events = slot_layout(buf);
    std::sort(order_events.begin(), order_events.end(),
              [&log](const Event& a, const Event& b) {
                return a.age != b.age ? a.age > b.age
                                      : log.rank.at(a.id) < log.rank.at(b.id);
              });
    const std::vector<EventId> order = ids_of(order_events);
    const auto last_mark =
        std::find(order.begin(), order.end(), expected.marked.back());
    const auto evictions = static_cast<std::ptrdiff_t>(
        buf.size() - std::min(buf.size(), capacity));
    coverage.marks_past_evictions += last_mark - order.begin() >= evictions;
  }
  for (const std::vector<EventId>* victims :
       {&expected.marked, &expected.evicted}) {
    if (!victims->empty() && buf.find(victims->front())->age >= 63) {
      ++coverage.last_bucket;
    }
  }
  settled.for_each([&](const Event& e) {
    const bool marked_now =
        std::find(marked.begin(), marked.end(), e.id) != marked.end();
    EXPECT_EQ(settled.lost(e.id), marked_now || lost.contains(e.id))
        << to_string(e.id);
  });
}

TEST(EventBufferTest, InsertDeduplicatesById) {
  EventBuffer buf;
  EXPECT_TRUE(buf.insert(make_event(1, 1)));
  EXPECT_FALSE(buf.insert(make_event(1, 1, 99)));
  EXPECT_EQ(buf.size(), 1u);
}

TEST(EventBufferTest, ContainsAndEmpty) {
  EventBuffer buf;
  EXPECT_TRUE(buf.empty());
  buf.insert(make_event(1, 1));
  EXPECT_TRUE(buf.contains(EventId{1, 1}));
  EXPECT_FALSE(buf.contains(EventId{1, 2}));
  EXPECT_FALSE(buf.empty());
}

TEST(EventBufferTest, BumpAgeTakesMaximum) {
  EventBuffer buf;
  buf.insert(make_event(1, 1, 5));
  buf.bump_age(EventId{1, 1}, 3);  // lower: ignored
  buf.bump_age(EventId{1, 1}, 8);  // higher: adopted
  buf.bump_age(EventId{9, 9}, 100);  // unknown id: no-op
  auto events = ordered(buf);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].age, 8u);
}

TEST(EventBufferTest, IncrementAgesAddsOneHopToAll) {
  EventBuffer buf;
  buf.insert(make_event(1, 1, 0));
  buf.insert(make_event(1, 2, 4));
  buf.increment_ages();
  auto events = ordered(buf);
  EXPECT_EQ(events[0].age, 1u);
  EXPECT_EQ(events[1].age, 5u);
}

TEST(EventBufferTest, PurgeAgeLimitRemovesStrictlyOlder) {
  EventBuffer buf;
  buf.insert(make_event(1, 1, 10));
  buf.insert(make_event(1, 2, 11));
  buf.insert(make_event(1, 3, 12));
  auto removed = buf.purge_age_limit(11);
  ASSERT_EQ(removed.size(), 1u);
  EXPECT_EQ(removed[0].id, (EventId{1, 3}));
  EXPECT_EQ(buf.size(), 2u);
}

TEST(EventBufferTest, ShrinkRemovesOldestFirst) {
  EventBuffer buf;
  buf.insert(make_event(1, 1, 3));
  buf.insert(make_event(1, 2, 9));
  buf.insert(make_event(1, 3, 6));
  auto removed = buf.settle_overflow(1).evicted;
  ASSERT_EQ(removed.size(), 2u);
  EXPECT_EQ(removed[0].id, (EventId{1, 2}));  // age 9 first
  EXPECT_EQ(removed[1].id, (EventId{1, 3}));  // then age 6
  EXPECT_TRUE(buf.contains(EventId{1, 1}));
}

TEST(EventBufferTest, ShrinkTieBreaksByInsertionOrder) {
  EventBuffer buf;
  buf.insert(make_event(1, 1, 5));
  buf.insert(make_event(1, 2, 5));
  buf.insert(make_event(1, 3, 5));
  auto removed = buf.settle_overflow(2).evicted;
  ASSERT_EQ(removed.size(), 1u);
  EXPECT_EQ(removed[0].id, (EventId{1, 1}));  // earliest inserted goes first
}

TEST(EventBufferTest, ShrinkNoopWhenUnderCapacity) {
  EventBuffer buf;
  buf.insert(make_event(1, 1));
  EXPECT_TRUE(buf.settle_overflow(5).evicted.empty());
  EXPECT_EQ(buf.size(), 1u);
}

TEST(EventBufferTest, ShrinkToZeroEmptiesBuffer) {
  EventBuffer buf;
  buf.insert(make_event(1, 1));
  buf.insert(make_event(1, 2));
  EXPECT_EQ(buf.settle_overflow(0).evicted.size(), 2u);
  EXPECT_TRUE(buf.empty());
}

// One selection must reproduce the repeated-oldest loop run twice, marks
// then eviction, exactly: the same virtual drops and evictions in the same
// order, and the same slot layout, insertion order and marks afterwards.
TEST(EventBufferTest, SettleOverflowMatchesMarksThenEviction) {
  constexpr std::size_t kNone = EventBuffer::kNoBound;
  // Every mark bound below, at and above the capacity, and none, with and
  // without the purge.
  auto check_bounds = [](const EventBuffer& buf, const InsertionLog& log,
                         std::size_t capacity,
                         const std::unordered_set<EventId>& lost) {
    for (std::size_t keep : {std::size_t{0}, capacity / 2, capacity,
                             capacity + 3, kNone}) {
      for (bool purge : {false, true}) {
        check_settle(buf, log, capacity, keep, lost, purge);
      }
    }
  };

  // Hand-made cases: a marked event is no candidate, marking everything
  // leaves nothing to select, and an evicted event's mark leaves with it.
  EventBuffer two;
  InsertionLog two_log;
  two_log.insert(two, make_event(1, 1, 9));
  two_log.insert(two, make_event(1, 2, 7));
  EXPECT_EQ(mark_beyond(two, 1), (std::vector<EventId>{EventId{1, 1}}));
  const std::unordered_set<EventId> first{EventId{1, 1}};
  for (std::size_t capacity : {0, 1, 2}) {
    check_bounds(two, two_log, capacity, first);
  }
  EXPECT_EQ(mark_beyond(two, 0), (std::vector<EventId>{EventId{1, 2}}));
  EXPECT_TRUE(mark_beyond(two, 0).empty());
  check_bounds(two, two_log, 0, {EventId{1, 1}, EventId{1, 2}});
  EventBuffer three;
  InsertionLog three_log;
  for (std::uint64_t seq = 1; seq <= 3; ++seq) {
    three_log.insert(three, make_event(1, seq, 3 - seq));
  }
  EXPECT_EQ(mark_beyond(three, 1).size(), 2u);  // {1,1} and {1,2}
  EXPECT_EQ(ids_of(three.settle_overflow(2).evicted),
            (std::vector<EventId>{EventId{1, 1}}));
  EXPECT_FALSE(three.lost(EventId{1, 1}));
  three_log.insert(three, make_event(1, 1, 2));  // admitted again: unmarked
  EXPECT_FALSE(three.lost(EventId{1, 1}));
  EXPECT_EQ(EventBuffer(three).settle_overflow(0).evicted.size(), 3u);
  for (std::size_t capacity : {0, 1, 2, 3}) {
    check_bounds(three, three_log, capacity, {EventId{1, 2}});
  }

  // Seeded random buffers: 0 to 300 events with assorted payloads, ages
  // from a narrow range so ties are common, a swap-erase-shuffled slot
  // layout, streams whose rare superseding events give the purge work,
  // lost marks laid by virtual drops along the way (then aged, bumped,
  // evicted and re-admitted), and capacities from 0 to past size, with
  // exactly one eviction among them. One trial in three draws ages from 58
  // to 70, across the start of the last age bucket (63 and up), and one in
  // three from 0 to 70.
  Rng rng(2003);
  for (int trial = 0; trial < 600; ++trial) {
    const std::uint32_t age_lo = std::array{0u, 58u, 0u}[trial % 3];
    const std::uint32_t age_span = std::array{6u, 13u, 71u}[trial % 3];
    const double drop_share = std::array{0.0, 0.3, 0.9, 1.0}[trial % 4];
    auto age = [&] {
      return age_lo + static_cast<std::uint32_t>(rng.next_below(age_span));
    };
    EventBuffer buf;
    InsertionLog log;
    std::unordered_set<EventId> lost;  // the model: lost ⊆ buffered
    auto forget_evicted = [&] {
      std::erase_if(lost, [&](const EventId& id) { return !buf.contains(id); });
    };
    const auto target = rng.next_below(301);
    std::uint64_t seq = 0;
    while (buf.size() < target) {
      const bool again = seq > 0 && rng.bernoulli(0.05);
      Event e = make_event(static_cast<NodeId>(rng.next_below(4)),
                           again ? rng.next_below(seq) : seq++, age());
      e.stream = static_cast<std::uint32_t>(rng.next_below(3));
      e.supersedes = rng.bernoulli(0.03);
      if (rng.bernoulli(0.5)) {
        e.payload = make_payload(std::vector<std::uint8_t>(
            rng.next_below(20), static_cast<std::uint8_t>(seq)));
      }
      log.insert(buf, std::move(e));
      if (rng.bernoulli(0.05)) {
        buf.settle_overflow(buf.size() - std::min<std::size_t>(
                                       buf.size(), rng.next_below(4)));
      }
      if (rng.bernoulli(0.02)) buf.purge_age_limit(age_lo + age_span - 2);
      if (rng.bernoulli(0.02)) {
        const auto origin = static_cast<NodeId>(rng.next_below(4));
        buf.bump_age(EventId{origin, rng.next_below(seq)}, age());
      }
      forget_evicted();
      if (rng.bernoulli(0.1)) {
        const auto keep = static_cast<std::size_t>(
            static_cast<double>(buf.size()) * (1.0 - drop_share));
        const auto victims =
            naive_oldest_beyond(buf, log, keep, &lost, false).victims;
        ASSERT_EQ(mark_beyond(buf, keep), victims);
        lost.insert(victims.begin(), victims.end());
      }
    }
    std::size_t candidates = 0;
    buf.for_each([&](const Event& e) {
      ASSERT_EQ(buf.lost(e.id), lost.contains(e.id)) << to_string(e.id);
      candidates += !lost.contains(e.id);
    });
    const std::size_t size = buf.size();
    const auto some = static_cast<std::size_t>(rng.next_below(size + 1));
    const bool purge = rng.bernoulli(0.5);
    for (std::size_t capacity : {std::size_t{0}, some, size}) {
      for (std::size_t keep :
           {static_cast<std::size_t>(rng.next_below(capacity + 1)), capacity,
            capacity + 1 + rng.next_below(size + 1), kNone}) {
        check_settle(buf, log, capacity, keep, lost, purge);
      }
    }
    // Exactly one eviction, and exactly one virtual drop.
    if (size > 0) check_settle(buf, log, size - 1, kNone, lost, purge);
    if (candidates > 0) {
      check_settle(buf, log, kNone, candidates - 1, lost, purge);
    }
  }
  EXPECT_GT(coverage.purge_then_evict, 500u);
  EXPECT_GT(coverage.marks_past_evictions, 500u);
  EXPECT_GT(coverage.marks_over_old_marks, 500u);
  EXPECT_GT(coverage.last_bucket, 500u);
}

// in_insertion_order() lists the live events in insertion order whatever happened to
// the buffer: inserts (some rejected as duplicates), age bumps, rounds,
// shrinks, both purges and capacity changes. Half the sequences keep a few
// young events alive while thousands of older ones pass through, so the
// live insertion numbers span far more than size() and the sort runs;
// the others stay dense and are placed.
TEST(EventBufferTest, InsertionOrderEqualsLiveEventsInInsertionOrder) {
  Rng rng(2020);
  std::size_t dense = 0;
  std::size_t sparse = 0;
  for (int trial = 0; trial < 200; ++trial) {
    const bool anchored = trial % 2 == 1;
    EventBuffer buf;
    InsertionLog log;
    std::size_t capacity = 1 + rng.next_below(150);
    std::uint64_t seq = 0;
    if (anchored) {
      for (int i = 0; i < 3; ++i) {
        log.insert(buf, make_event(7, seq++, 0));  // never aged, never bumped
      }
    }
    for (int step = 0; step < 2000; ++step) {
      const auto op = rng.next_below(100);
      if (op < 60) {
        Event e = make_event(static_cast<NodeId>(rng.next_below(3)), seq++,
                             1 + static_cast<std::uint32_t>(rng.next_below(8)));
        e.stream = static_cast<std::uint32_t>(rng.next_below(3));
        e.supersedes = rng.bernoulli(0.1);
        log.insert(buf, e);
        if (rng.bernoulli(0.1)) {  // a duplicate copy is rejected
          EXPECT_FALSE(log.insert(buf, make_event(e.id.origin, e.id.sequence)));
        }
      } else if (op < 75) {
        const std::uint64_t back = 1 + rng.next_below(seq);
        const auto origin = static_cast<NodeId>(rng.next_below(3));
        buf.bump_age(EventId{origin, seq - back},
                     1 + static_cast<std::uint32_t>(rng.next_below(20)));
      } else if (op < 85) {
        buf.settle_overflow(capacity);
      } else if (op < 88 && !anchored) {
        buf.increment_ages();
      } else if (op < 91) {
        buf.purge_age_limit(anchored ? 12 : 10);
      } else if (op < 94) {
        buf.purge_superseded();
      } else if (op < 96) {
        capacity = 1 + rng.next_below(150);
      }
      if (step % 50 != 49) continue;
      const std::vector<Event> expected = log.in_order(buf);
      expect_same_events(ordered(buf), expected);
      if (!expected.empty()) {
        const std::uint64_t span = log.rank.at(expected.back().id) -
                                   log.rank.at(expected.front().id) + 1;
        (span > 4 * expected.size() ? sparse : dense) += 1;
      }
    }
  }
  EXPECT_GT(dense, 100u);
  EXPECT_GT(sparse, 100u);
}

TEST(EventBufferTest, InsertionOrderSurvivesSwapErase) {
  EventBuffer buf;
  buf.insert(make_event(3, 1));
  buf.insert(make_event(1, 1));
  buf.insert(make_event(2, 1));
  // Force internal swap-erase churn, then check the order survives.
  buf.insert(make_event(4, 1, 99));
  buf.settle_overflow(3);  // removes the age-99 event
  auto events = ordered(buf);
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].id, (EventId{3, 1}));
  EXPECT_EQ(events[1].id, (EventId{1, 1}));
  EXPECT_EQ(events[2].id, (EventId{2, 1}));
}

TEST(EventBufferTest, ForEachVisitsAll) {
  EventBuffer buf;
  buf.insert(make_event(1, 1));
  buf.insert(make_event(1, 2));
  int count = 0;
  buf.for_each([&](const Event&) { ++count; });
  EXPECT_EQ(count, 2);
}

TEST(EventBufferTest, ReinsertAfterRemovalWorks) {
  EventBuffer buf;
  buf.insert(make_event(1, 1, 5));
  buf.settle_overflow(0);
  EXPECT_TRUE(buf.insert(make_event(1, 1, 0)));
  EXPECT_EQ(buf.size(), 1u);
}

TEST(EventIdBufferTest, InsertReportsNovelty) {
  EventIdBuffer ids(10);
  EXPECT_TRUE(ids.insert(EventId{1, 1}));
  EXPECT_FALSE(ids.insert(EventId{1, 1}));
}

TEST(EventIdBufferTest, EvictsOldestWhenFull) {
  EventIdBuffer ids(3);
  ids.insert(EventId{1, 1});
  ids.insert(EventId{1, 2});
  ids.insert(EventId{1, 3});
  ids.insert(EventId{1, 4});  // evicts {1,1}
  EXPECT_FALSE(ids.contains(EventId{1, 1}));
  EXPECT_TRUE(ids.contains(EventId{1, 2}));
  EXPECT_TRUE(ids.contains(EventId{1, 4}));
  EXPECT_EQ(ids.size(), 3u);
}

TEST(EventIdBufferTest, EvictedIdCanBeReinserted) {
  EventIdBuffer ids(2);
  ids.insert(EventId{1, 1});
  ids.insert(EventId{1, 2});
  ids.insert(EventId{1, 3});  // evicts {1,1}
  EXPECT_TRUE(ids.insert(EventId{1, 1}));
  EXPECT_TRUE(ids.contains(EventId{1, 1}));
}

TEST(EventIdBufferTest, ShrinkingCapacityEvictsImmediately) {
  EventIdBuffer ids(10);
  for (std::uint64_t i = 0; i < 10; ++i) ids.insert(EventId{1, i});
  ids.set_capacity(4);
  EXPECT_EQ(ids.size(), 4u);
  // The four newest survive.
  for (std::uint64_t i = 6; i < 10; ++i) {
    EXPECT_TRUE(ids.contains(EventId{1, i})) << i;
  }
}

TEST(EventIdBufferTest, LongFifoChurnStaysConsistent) {
  EventIdBuffer ids(64);
  for (std::uint64_t i = 0; i < 10000; ++i) {
    EXPECT_TRUE(ids.insert(EventId{1, i}));
    EXPECT_EQ(ids.size(), std::min<std::size_t>(64, i + 1));
    if (i >= 64) {
      EXPECT_FALSE(ids.contains(EventId{1, i - 64}));
      EXPECT_TRUE(ids.contains(EventId{1, i - 63}));
    }
  }
}

}  // namespace
}  // namespace gossip
}  // namespace agb
