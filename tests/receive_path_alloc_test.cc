// Exact heap-allocation gates for the gossip receive path: the id digest,
// the event buffer's index, the congestion estimator's lost set and the
// simulator's per-fan-out decode. A counting global operator new (this test
// binary only) makes every allocation visible, so the counts are exact and
// machine-independent.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <variant>
#include <vector>

#include "adaptive/congestion_estimator.h"
#include "common/rng.h"
#include "common/shared_bytes.h"
#include "gossip/event_buffer.h"
#include "gossip/event_id_table.h"
#include "gossip/message.h"

namespace {
std::atomic<std::uint64_t> g_heap_allocs{0};
}  // namespace

// noinline keeps GCC from inlining the malloc/free bodies into call sites,
// where it would flag the new-via-malloc / delete-via-free pairing.
__attribute__((noinline)) void* operator new(std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc{};
}

__attribute__((noinline)) void operator delete(void* p) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete(void* p,
                                               std::size_t) noexcept {
  std::free(p);
}

namespace agb::gossip {
namespace {

std::uint64_t allocs() {
  return g_heap_allocs.load(std::memory_order_relaxed);
}

TEST(ReceivePathAllocTest, EmptyContainersAllocateNothing) {
  const std::uint64_t before = allocs();
  {
    EventIdTable table;
    EXPECT_FALSE(table.contains(EventId{1, 1}));
    EXPECT_FALSE(table.erase(EventId{1, 1}));
    EXPECT_EQ(table.erase_if([](const EventId&) { return true; }), 0u);
    EventIdBuffer digest(4000);
    EXPECT_FALSE(digest.contains(EventId{1, 1}));
    EventBuffer buffer;
    EXPECT_EQ(buffer.find(EventId{1, 1}), nullptr);
    buffer.bump_age(EventId{1, 1}, 3);
    adaptive::CongestionEstimator estimator(0.9, 5.0);
    estimator.prune(buffer);
  }
  EXPECT_EQ(allocs() - before, 0u);
}

// The digest at the paper60 bound (4000 ids) on sim-paper-adaptive's id
// stream: 16% novel ids, 84% duplicates of ids still remembered. Once the
// table and the FIFO have reached their working size, neither a novel id
// (insert plus the oldest id's eviction) nor a duplicate allocates.
TEST(ReceivePathAllocTest, EventIdBufferInsertIsAllocationFreeAtCapacity) {
  constexpr std::size_t kCapacity = 4000;
  EventIdBuffer digest(kCapacity);
  Rng rng(7);
  std::uint64_t next = 0;
  std::uint64_t wrong = 0;  // novelty reports that disagree with the stream
  auto step = [&] {
    if (next < kCapacity || rng.bernoulli(0.16)) {
      wrong += !digest.insert(EventId{static_cast<NodeId>(next % 60), next});
      ++next;
    } else {
      const std::uint64_t seq = next - 1 - rng.next_below(kCapacity / 2);
      wrong += digest.insert(EventId{static_cast<NodeId>(seq % 60), seq});
    }
  };
  while (next < 5 * kCapacity) step();  // warm-up: table and FIFO at size
  const std::uint64_t before = allocs();
  const std::uint64_t novel_before = next;
  for (int i = 0; i < 100'000; ++i) step();
  EXPECT_EQ(allocs() - before, 0u);
  EXPECT_EQ(wrong, 0u);
  EXPECT_GT(next - novel_before, 10'000u);  // the stream really churned
  EXPECT_EQ(digest.size(), kCapacity);
}

// An adaptive node's per-message buffer work on a 120-event buffer: 20
// novel events, 100 duplicates (bump_age plus find), the virtual drops
// against minBuff and the lost-set prune. Only the real eviction,
// shrink_to, returns a fresh vector and stays outside the count.
TEST(ReceivePathAllocTest, BufferAndEstimatorAreAllocationFreeAfterWarmUp) {
  constexpr std::size_t kBuffer = 120;
  EventBuffer buffer;
  adaptive::CongestionEstimator estimator(0.9, 5.0);
  Rng rng(11);
  std::uint64_t next = 0;
  std::uint64_t counted = 0;
  std::uint64_t wrong = 0;  // rejected novel events or mismatched finds
  auto message = [&](bool count) {
    const std::uint64_t before = allocs();
    for (int i = 0; i < 20; ++i, ++next) {
      Event e;
      e.id = EventId{static_cast<NodeId>(next % 60), next};
      e.age = static_cast<std::uint32_t>(rng.next_below(4));
      wrong += !buffer.insert(e);
    }
    for (int i = 0; i < 100; ++i) {
      const std::uint64_t seq = next - 1 - rng.next_below(kBuffer);
      const EventId id{static_cast<NodeId>(seq % 60), seq};
      buffer.bump_age(id, static_cast<std::uint32_t>(rng.next_below(12)));
      const Event* stored = buffer.find(id);
      wrong += stored != nullptr && stored->id != id;
    }
    estimator.observe(buffer, kBuffer - 10);
    if (count) counted += allocs() - before;
    buffer.shrink_to(kBuffer);
    const std::uint64_t prune_before = allocs();
    estimator.prune(buffer);
    if (count) counted += allocs() - prune_before;
    buffer.increment_ages();
  };
  for (int i = 0; i < 200; ++i) message(/*count=*/false);  // warm-up
  for (int i = 0; i < 2000; ++i) message(/*count=*/true);
  EXPECT_EQ(counted, 0u);
  EXPECT_EQ(wrong, 0u);
  EXPECT_EQ(buffer.size(), kBuffer);
  EXPECT_GT(estimator.observations(), 0u);
  EXPECT_FALSE(estimator.lost().empty());
}

SharedBytes encoded_gossip() {
  GossipMessage m;
  m.sender = 3;
  m.round = 17;
  for (std::uint64_t i = 0; i < 120; ++i) {
    Event e;
    e.id = EventId{static_cast<NodeId>(i % 60), i};
    e.age = static_cast<std::uint32_t>(i % 12);
    e.payload = make_payload(std::vector<std::uint8_t>(16, 0x5a));
    m.events.push_back(std::move(e));
  }
  return m.encode_shared();
}

std::size_t events_in(const WireMessage& message) {
  const auto* gossip = std::get_if<GossipMessage>(&message);
  return gossip == nullptr ? 0 : gossip->events.size();
}

// A fan-out of four receivers decodes once: four WireDecoder calls on the
// round's shared buffer allocate exactly what one decode_any does, and a
// byte-equal copy in another buffer is decoded afresh.
TEST(ReceivePathAllocTest, FanoutDecodesOnce) {
  const SharedBytes bytes = encoded_gossip();
  std::uint64_t before = allocs();
  {
    const WireMessage once = decode_any(bytes);
    ASSERT_EQ(events_in(once), 120u);
  }
  const std::uint64_t one_decode = allocs() - before;
  ASSERT_GT(one_decode, 0u);

  WireDecoder decoder;
  before = allocs();
  for (int receiver = 0; receiver < 4; ++receiver) {
    EXPECT_EQ(events_in(decoder.decode(bytes)), 120u);
  }
  EXPECT_EQ(allocs() - before, one_decode);

  const SharedBytes copy = SharedBytes::copy_of(bytes.view());
  before = allocs();
  EXPECT_EQ(events_in(decoder.decode(copy)), 120u);
  EXPECT_EQ(allocs() - before, one_decode);
}

}  // namespace
}  // namespace agb::gossip
