#include "gossip/event_id_table.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <unordered_map>
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

}  // namespace
}  // namespace agb::gossip
