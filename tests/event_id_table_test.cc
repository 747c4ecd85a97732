#include "gossip/event_id_table.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/rng.h"

namespace agb::gossip {
namespace {

constexpr std::uint64_t kMaxSequence =
    std::numeric_limits<std::uint64_t>::max();

using Model = std::unordered_map<EventId, std::uint32_t>;

std::size_t home_in_16(const EventId& id) {
  return std::hash<EventId>{}(id) & 15;
}

/// The table holds exactly the model's entries: every model id maps to its
/// value, and the sizes agree (so the table holds nothing else).
void expect_same(const EventIdTable& table, const Model& model) {
  ASSERT_EQ(table.size(), model.size());
  ASSERT_EQ(table.empty(), model.empty());
  for (const auto& [id, value] : model) {
    ASSERT_EQ(table.find(id), value) << to_string(id);
  }
}

/// `count` ids over a few origins and a sequence range of about `count`, so
/// a draw from the pool often repeats an id. The pool always carries the
/// edge keys: kInvalidNode is an ordinary origin to the table, and the
/// largest sequence an ordinary sequence.
std::vector<EventId> key_pool(Rng& rng, std::size_t count) {
  std::vector<EventId> keys{EventId{kInvalidNode, 0}, EventId{0, kMaxSequence},
                            EventId{kInvalidNode, kMaxSequence},
                            EventId{0, 0}};
  while (keys.size() < count) {
    const NodeId origin = rng.bernoulli(0.1)
                              ? kInvalidNode
                              : static_cast<NodeId>(rng.next_below(4));
    keys.push_back(EventId{origin, rng.next_below(count)});
  }
  return keys;
}

// A seeded differential run against std::unordered_map: mixed inserts,
// overwrites, finds, erases and erase_ifs over small key pools. The pools
// grow and then shrink, so the table crosses its growth boundaries (16 up
// to 2048 slots) and later runs sparse in its largest size; at every size,
// collisions build runs that wrap past the last slot.
TEST(EventIdTableTest, MatchesUnorderedMapUnderMixedOperations) {
  Rng rng(2003);
  EventIdTable table;
  Model model;
  std::size_t ops = 0;
  std::size_t peak = 0;
  for (const std::size_t pool_size : {6, 24, 90, 300, 1200, 40, 8}) {
    SCOPED_TRACE(::testing::Message() << "pool " << pool_size);
    const std::vector<EventId> keys = key_pool(rng, pool_size);
    for (int i = 0; i < 16000; ++i, ++ops) {
      const EventId id = keys[rng.next_below(keys.size())];
      const auto value = static_cast<std::uint32_t>(rng.next_below(1u << 20));
      const std::uint64_t op = rng.next_below(1000);
      if (op < 400) {
        ASSERT_EQ(table.insert(id, value), model.try_emplace(id, value).second)
            << to_string(id);
      } else if (op < 500) {
        table.insert_or_assign(id, value);
        model.insert_or_assign(id, value);
      } else if (op < 700) {
        ASSERT_EQ(table.erase(id), model.erase(id) == 1) << to_string(id);
      } else if (op < 703) {
        // Rare, so the pools fill: each call sweeps a fifth of the table.
        const std::uint64_t mod = 2 + rng.next_below(6);
        const std::uint64_t rem = rng.next_below(mod);
        auto doomed = [&](const EventId& e) {
          return (e.sequence ^ e.origin) % mod == rem;
        };
        const std::size_t erased = std::erase_if(
            model, [&](const auto& entry) { return doomed(entry.first); });
        ASSERT_EQ(table.erase_if(doomed), erased);
      } else {
        const auto it = model.find(id);
        ASSERT_EQ(table.find(id),
                  it == model.end() ? EventIdTable::kAbsent : it->second)
            << to_string(id);
        ASSERT_EQ(table.contains(id), it != model.end());
      }
      ASSERT_EQ(table.size(), model.size());
      peak = std::max(peak, model.size());
      if (i % 1000 == 0) expect_same(table, model);
    }
    expect_same(table, model);
  }
  EXPECT_GE(ops, 100'000u);
  EXPECT_GT(peak, 512u);  // past the 1024 -> 2048-slot boundary
}

// Backward-shift erase across the array's end, on the smallest (16-slot)
// table: ids homed at slots 14, 15, 15 and 0 fill slots 14, 15, 0 and 1.
// Erasing any of them must leave the rest reachable — the entry at slot 0
// (home 15) must not move back into a hole at slot 14.
TEST(EventIdTableTest, EraseKeepsARunThatWrapsPastTheLastSlot) {
  std::vector<EventId> ids;
  for (const std::size_t want : {14u, 15u, 15u, 0u}) {
    for (std::uint64_t seq = 0;; ++seq) {
      const EventId id{7, seq};
      if (home_in_16(id) == want &&
          std::find(ids.begin(), ids.end(), id) == ids.end()) {
        ids.push_back(id);
        break;
      }
    }
  }
  for (std::size_t victim = 0; victim < ids.size(); ++victim) {
    EventIdTable table;
    for (std::size_t i = 0; i < ids.size(); ++i) {
      ASSERT_TRUE(table.insert(ids[i], static_cast<std::uint32_t>(i)));
    }
    ASSERT_TRUE(table.erase(ids[victim]));
    EXPECT_FALSE(table.contains(ids[victim]));
    for (std::size_t i = 0; i < ids.size(); ++i) {
      if (i == victim) continue;
      EXPECT_EQ(table.find(ids[i]), i) << "victim " << victim << " id " << i;
    }
  }
}

TEST(EventIdTableTest, EdgeKeysAreOrdinaryKeys) {
  EventIdTable table;
  EXPECT_FALSE(table.contains(EventId{kInvalidNode, 0}));
  EXPECT_TRUE(table.insert(EventId{kInvalidNode, 0}, 5));
  EXPECT_TRUE(table.insert(EventId{0, kMaxSequence}));
  EXPECT_FALSE(table.insert(EventId{kInvalidNode, 0}, 9));  // keeps 5
  EXPECT_EQ(table.find(EventId{kInvalidNode, 0}), 5u);
  EXPECT_EQ(table.find(EventId{0, kMaxSequence}), 0u);
  EXPECT_EQ(table.find(EventId{0, 0}), EventIdTable::kAbsent);
  EXPECT_EQ(table.size(), 2u);
  EXPECT_TRUE(table.erase(EventId{kInvalidNode, 0}));
  EXPECT_FALSE(table.erase(EventId{kInvalidNode, 0}));
  EXPECT_EQ(table.size(), 1u);
}

/// The eventIds digest as the paper states it: a FIFO of the last
/// `capacity` novel ids and a set to look them up.
class ReferenceDigest {
 public:
  explicit ReferenceDigest(std::size_t capacity) : capacity_(capacity) {}

  bool insert(const EventId& id) {
    if (!known_.insert(id).second) return false;
    fifo_.push_back(id);
    evict_to_capacity();
    return true;
  }
  [[nodiscard]] bool contains(const EventId& id) const {
    return known_.contains(id);
  }
  [[nodiscard]] std::size_t size() const { return known_.size(); }
  void set_capacity(std::size_t capacity) {
    capacity_ = capacity;
    evict_to_capacity();
  }

 private:
  void evict_to_capacity() {
    while (fifo_.size() > capacity_) {
      known_.erase(fifo_.front());
      fifo_.pop_front();
    }
  }

  std::size_t capacity_;
  std::deque<EventId> fifo_;
  std::unordered_set<EventId> known_;
};

/// The block table's bound: it doubles only while the live blocks (at most
/// one per live id) fill more than 3/8 of it, and starts at 16 slots of 64
/// bytes.
std::size_t digest_bytes_bound(std::size_t max_live) {
  return 64 * std::max<std::size_t>(16, 16 * (max_live + 1) / 3);
}

// Seeded random streams drive the stamped digest and the FIFO reference
// side by side, comparing insert's answer, contains and size after every
// step. A stream mixes dense per-origin sequences (1 to 64 origins) taken
// up to 600 back, ids inserted again after eviction, capacity shrinks and
// growths, sequences far ahead of and behind their origin's, and random
// {origin, sequence} pairs as a corrupted datagram decodes. One stream in
// three renumbers its stamps every few to few hundred inserts, and some of
// those hold fewer stamps than their capacity, where the digest keeps the
// newest max_stamp - 1 ids. One stream in four keeps its capacity, so ids
// keep dying at a steady bound: after each stream the block table must be
// within what the ids it remembered at once can grow it to.
TEST(EventIdBufferDifferentialTest, MatchesFifoReferenceOnRandomStreams) {
  Rng rng(2026);
  std::uint64_t steps = 0;
  int renumbering_streams = 0;  // streams whose stamps ran out at least once
  for (int stream = 0; stream < 240; ++stream) {
    const std::size_t origins = 1 + rng.next_below(64);
    std::size_t capacity = 1 + rng.next_below(rng.bernoulli(0.5) ? 64 : 2000);
    const bool renumbers = stream % 3 == 0;
    const bool resizes = stream % 4 != 3;
    const auto max_stamp =
        renumbers ? static_cast<std::uint32_t>(2 + rng.next_below(400))
                  : EventIdBuffer::kMaxStamp;
    SCOPED_TRACE(::testing::Message()
                 << "stream " << stream << " origins " << origins
                 << " capacity " << capacity << " max_stamp " << max_stamp);
    auto limited = [&](std::size_t c) {
      return std::min<std::size_t>(c, max_stamp - 1);
    };
    EventIdBuffer digest(capacity, max_stamp);
    ReferenceDigest reference(limited(capacity));
    std::size_t max_live = 0;  // the most ids remembered at once
    std::vector<std::uint64_t> next(origins, 0);
    std::vector<EventId> history;  // every id inserted, for re-insertion
    std::uint64_t novel = 0;
    for (int step = 0; step < 2500; ++step, ++steps) {
      const auto origin = static_cast<NodeId>(rng.next_below(origins));
      std::uint64_t& head = next[origin];
      EventId id{origin, head};
      const std::uint64_t op = rng.next_below(1000);
      if (op < 450) {
        ++head;  // the origin's next broadcast
      } else if (op < 800) {
        id.sequence -= std::min(head, rng.next_below(600));  // reordered
      } else if (op < 880 && !history.empty()) {
        id = history[rng.next_below(history.size())];  // again, maybe evicted
      } else if (op < 910) {
        id.sequence += 1000 + rng.next_below(1'000'000);  // far ahead
      } else if (op < 940) {
        id.sequence = rng.next_below(head + 1) / 1000;  // far behind
      } else if (op < 970 || !resizes) {
        id = EventId{static_cast<NodeId>(rng.next()), rng.next()};  // garbage
      } else {
        capacity = 1 + rng.next_below(rng.bernoulli(0.5) ? 64 : 2000);
        digest.set_capacity(capacity);
        reference.set_capacity(limited(capacity));
        ASSERT_EQ(digest.size(), reference.size()) << "set_capacity " << step;
        continue;
      }
      const bool inserted = reference.insert(id);
      ASSERT_EQ(digest.insert(id), inserted) << to_string(id) << " " << step;
      if (inserted) {
        history.push_back(id);
        ++novel;
      }
      ASSERT_EQ(digest.size(), reference.size()) << step;
      max_live = std::max(max_live, reference.size());
      ASSERT_TRUE(digest.contains(id)) << to_string(id);
      const EventId earlier = history[rng.next_below(history.size())];
      ASSERT_EQ(digest.contains(earlier), reference.contains(earlier))
          << to_string(earlier) << " " << step;
      const EventId nearby{origin, head - std::min(head, rng.next_below(700))};
      ASSERT_EQ(digest.contains(nearby), reference.contains(nearby))
          << to_string(nearby) << " " << step;
    }
    for (const EventId& id : history) {
      ASSERT_EQ(digest.contains(id), reference.contains(id)) << to_string(id);
    }
    EXPECT_LE(digest.bytes(), digest_bytes_bound(max_live));
    renumbering_streams += renumbers && novel > max_stamp;
  }
  EXPECT_GE(steps, 500'000u);
  EXPECT_GE(renumbering_streams, 60);
}

// Renumbering keeps FIFO order: with 8 stamps and room for 5 ids, the
// stamps run out every few inserts, and the digest still forgets exactly
// the oldest id each time.
TEST(EventIdBufferDifferentialTest, RenumbersStampsBeforeTheyRunOut) {
  EventIdBuffer digest(5, /*max_stamp=*/8);
  ReferenceDigest reference(5);
  for (std::uint64_t seq = 0; seq < 200; ++seq) {
    const EventId id{static_cast<NodeId>(seq % 3), seq / 2};
    ASSERT_EQ(digest.insert(id), reference.insert(id)) << seq;
    ASSERT_EQ(digest.size(), reference.size()) << seq;
    for (std::uint64_t back = 0; back < 12 && back <= seq; ++back) {
      const EventId old{static_cast<NodeId>((seq - back) % 3),
                        (seq - back) / 2};
      ASSERT_EQ(digest.contains(old), reference.contains(old))
          << seq << " back " << back;
    }
  }
  // The default stamp range renumbers only after 2^32 - 2 novel ids.
  EXPECT_EQ(EventIdBuffer::kMaxStamp, 0xfffffffeu);
}

}  // namespace
}  // namespace agb::gossip
