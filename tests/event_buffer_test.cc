#include "gossip/event_buffer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstddef>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/rng.h"

namespace agb::gossip {
namespace {

Event make_event(NodeId origin, std::uint64_t seq, std::uint32_t age = 0) {
  Event e;
  e.id = EventId{origin, seq};
  e.age = age;
  return e;
}

std::vector<EventId> ids_of(std::span<const EventBuffer::Slot* const> slots) {
  std::vector<EventId> ids;
  for (const auto* slot : slots) ids.push_back(slot->event.id);
  return ids;
}

std::vector<EventId> ids_of(std::span<const Event> events) {
  std::vector<EventId> ids;
  for (const Event& e : events) ids.push_back(e.id);
  return ids;
}

/// The buffer takes its exclusion set as an EventIdTable; the reference
/// model below keeps a std::unordered_set.
EventIdTable table_of(const std::unordered_set<EventId>& ids) {
  EventIdTable table;
  for (const EventId& id : ids) table.insert(id);
  return table;
}

/// The buffer's slots in storage order (the order for_each visits).
std::vector<Event> slot_layout(const EventBuffer& buf) {
  std::vector<Event> layout;
  buf.for_each([&](const Event& e) { layout.push_back(e); });
  return layout;
}

/// Reference model of eviction: the paper's loop taken literally. It picks
/// the oldest remaining candidate one at a time (age descending, earliest
/// insertion on ties) and, when `erase` is set, removes it the way the
/// buffer does — the last slot moves into the hole.
struct NaiveEviction {
  std::vector<EventId> victims;
  std::vector<Event> layout;  // storage order afterwards (when erasing)
};

NaiveEviction naive_oldest_beyond(const EventBuffer& buf, std::size_t keep,
                                  const std::unordered_set<EventId>* excluded,
                                  bool erase) {
  std::unordered_map<EventId, std::size_t> inserted_rank;
  for (const Event& e : buf.snapshot()) {
    inserted_rank.emplace(e.id, inserted_rank.size());
  }
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
           inserted_rank[e.id] < inserted_rank[out.layout[oldest].id])) {
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
  auto snapshot = buf.snapshot();
  ASSERT_EQ(snapshot.size(), 1u);
  EXPECT_EQ(snapshot[0].age, 8u);
}

TEST(EventBufferTest, IncrementAgesAddsOneHopToAll) {
  EventBuffer buf;
  buf.insert(make_event(1, 1, 0));
  buf.insert(make_event(1, 2, 4));
  buf.increment_ages();
  auto snapshot = buf.snapshot();
  EXPECT_EQ(snapshot[0].age, 1u);
  EXPECT_EQ(snapshot[1].age, 5u);
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
  auto removed = buf.shrink_to(1);
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
  auto removed = buf.shrink_to(2);
  ASSERT_EQ(removed.size(), 1u);
  EXPECT_EQ(removed[0].id, (EventId{1, 1}));  // earliest inserted goes first
}

TEST(EventBufferTest, ShrinkNoopWhenUnderCapacity) {
  EventBuffer buf;
  buf.insert(make_event(1, 1));
  EXPECT_TRUE(buf.shrink_to(5).empty());
  EXPECT_EQ(buf.size(), 1u);
}

TEST(EventBufferTest, ShrinkToZeroEmptiesBuffer) {
  EventBuffer buf;
  buf.insert(make_event(1, 1));
  buf.insert(make_event(1, 2));
  EXPECT_EQ(buf.shrink_to(0).size(), 2u);
  EXPECT_TRUE(buf.empty());
}

// One-pass selection must reproduce the repeated-oldest loop exactly: the
// same victims in the same order, and — through shrink_to — the same
// removals, slot layout and snapshot.
TEST(EventBufferTest, OldestBeyondMatchesRepeatedOldestSelection) {
  auto check = [](const EventBuffer& buf, std::size_t keep,
                  const std::unordered_set<EventId>& excluded) {
    SCOPED_TRACE(::testing::Message() << "size " << buf.size() << " keep "
                                      << keep << " excluded "
                                      << excluded.size());
    const EventIdTable excluded_table = table_of(excluded);
    EXPECT_EQ(ids_of(buf.oldest_beyond(keep, &excluded_table)),
              naive_oldest_beyond(buf, keep, &excluded, false).victims);
    EXPECT_EQ(ids_of(buf.oldest_beyond(keep)),
              naive_oldest_beyond(buf, keep, nullptr, false).victims);

    const NaiveEviction expected =
        naive_oldest_beyond(buf, keep, nullptr, true);
    std::vector<Event> expected_snapshot;
    for (const Event& e : buf.snapshot()) {
      if (std::find(expected.victims.begin(), expected.victims.end(), e.id) ==
          expected.victims.end()) {
        expected_snapshot.push_back(e);
      }
    }
    EventBuffer shrunk = buf;
    EXPECT_EQ(ids_of(shrunk.shrink_to(keep)), expected.victims);
    expect_same_events(slot_layout(shrunk), expected.layout);
    expect_same_events(shrunk.snapshot(), expected_snapshot);
  };

  // Hand-made cases: exclusion skips ids, excluding everything selects
  // nothing, and ids absent from the buffer exclude nothing.
  EventBuffer two;
  two.insert(make_event(1, 1, 9));
  two.insert(make_event(1, 2, 7));
  const std::unordered_set<EventId> first{EventId{1, 1}};
  const EventIdTable first_table = table_of(first);
  EXPECT_EQ(ids_of(two.oldest_beyond(0, &first_table)),
            (std::vector<EventId>{EventId{1, 2}}));
  check(two, 0, first);
  check(two, 0, {EventId{1, 1}, EventId{1, 2}});
  EventBuffer three;
  for (std::uint64_t seq = 1; seq <= 3; ++seq) three.insert(make_event(1, seq));
  const std::unordered_set<EventId> partly_absent{EventId{1, 2},
                                                  EventId{9, 9}};
  const EventIdTable partly_absent_table = table_of(partly_absent);
  EXPECT_EQ(three.oldest_beyond(0, &partly_absent_table).size(), 2u);
  EXPECT_EQ(three.oldest_beyond(0).size(), 3u);
  check(three, 1, partly_absent);

  // Seeded random buffers: up to 300 events, ages from a narrow range so
  // ties are common, a swap-erase-shuffled slot layout, exclusion sets
  // that mix buffered and absent ids, and keep values from 0 to past size.
  Rng rng(2003);
  for (int trial = 0; trial < 400; ++trial) {
    EventBuffer buf;
    const auto target = rng.next_below(301);
    std::uint64_t seq = 0;
    while (buf.size() < target) {
      buf.insert(make_event(static_cast<NodeId>(rng.next_below(4)), seq++,
                            static_cast<std::uint32_t>(rng.next_below(6))));
      if (rng.bernoulli(0.05)) {
        buf.shrink_to(buf.size() - std::min<std::size_t>(
                                       buf.size(), rng.next_below(4)));
      }
      if (rng.bernoulli(0.02)) buf.purge_age_limit(4);
    }
    const double excluded_share = std::array{0.0, 0.3, 0.9, 1.0}[trial % 4];
    std::unordered_set<EventId> excluded;
    buf.for_each([&](const Event& e) {
      if (rng.bernoulli(excluded_share)) excluded.insert(e.id);
    });
    for (int i = 0; i < 5; ++i) excluded.insert(EventId{99, rng.next()});
    const std::size_t size = buf.size();
    for (std::size_t keep :
         {std::size_t{0}, static_cast<std::size_t>(rng.next_below(size + 1)),
          size, size + 1 + rng.next_below(5)}) {
      check(buf, keep, excluded);
    }
  }
}

TEST(EventBufferTest, SnapshotPreservesInsertionOrder) {
  EventBuffer buf;
  buf.insert(make_event(3, 1));
  buf.insert(make_event(1, 1));
  buf.insert(make_event(2, 1));
  // Force internal swap-erase churn, then check the order survives.
  buf.insert(make_event(4, 1, 99));
  buf.shrink_to(3);  // removes the age-99 event
  auto snapshot = buf.snapshot();
  ASSERT_EQ(snapshot.size(), 3u);
  EXPECT_EQ(snapshot[0].id, (EventId{3, 1}));
  EXPECT_EQ(snapshot[1].id, (EventId{1, 1}));
  EXPECT_EQ(snapshot[2].id, (EventId{2, 1}));
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
  buf.shrink_to(0);
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
}  // namespace agb::gossip
