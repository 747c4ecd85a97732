// Exact heap-allocation gates for the gossip path: the id digest, the event
// buffer's index, the congestion estimator's lost set, the codec (encode
// into a buffer sized up front; decode with payloads aliasing the
// datagram), the node's copy-on-ingest of novel payloads and whole
// simulated runs of the five golden configurations. A counting global
// operator new (alloc_counter.h) makes every allocation visible, so the
// counts are exact and machine-independent.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "adaptive/congestion_estimator.h"
#include "alloc_counter.h"
#include "common/config.h"
#include "common/rng.h"
#include "common/shared_bytes.h"
#include "core/scenario.h"
#include "core/scenario_registry.h"
#include "gossip/event_buffer.h"
#include "gossip/event_id_table.h"
#include "gossip/lpbcast_node.h"
#include "gossip/message.h"
#include "membership/full_membership.h"

namespace agb::gossip {
namespace {

std::uint64_t allocs() { return test::heap_allocs(); }

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
// against minBuff, the real eviction and the lost-set prune.
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
    buffer.shrink_to(kBuffer);
    estimator.prune(buffer);
    if (count) counted += allocs() - before;
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

/// A gossip message of `events` events with `payload_size`-byte payloads,
/// each payload's bytes distinct from its neighbours'.
GossipMessage gossip_of(std::size_t events, std::size_t payload_size) {
  GossipMessage m;
  m.sender = 3;
  m.round = 17;
  for (std::uint64_t i = 0; i < events; ++i) {
    Event e;
    e.id = EventId{static_cast<NodeId>(i % 60), i};
    e.age = static_cast<std::uint32_t>(i % 12);
    std::vector<std::uint8_t> payload(payload_size);
    for (std::size_t b = 0; b < payload_size; ++b) {
      payload[b] = static_cast<std::uint8_t>(i + b);
    }
    e.payload = make_payload(std::move(payload));
    m.events.push_back(std::move(e));
  }
  return m;
}

SharedBytes encoded_gossip() { return gossip_of(120, 16).encode_shared(); }

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

// Decoding allocates the events vector and nothing else: every payload is
// a slice of the datagram, whatever its size.
TEST(ReceivePathAllocTest, DecodeAllocatesOnlyTheEventVector) {
  for (const auto& [events, payload_size] :
       {std::pair<std::size_t, std::size_t>{120, 16}, {55, 1024}}) {
    const SharedBytes bytes = gossip_of(events, payload_size).encode_shared();
    const std::uint64_t before = allocs();
    const WireMessage message = decode_any(bytes);
    EXPECT_EQ(allocs() - before, 1u) << events << " x " << payload_size;
    EXPECT_EQ(events_in(message), events);
  }
}

// Encoding counts the message first and writes it into a buffer of exactly
// that size: the buffer and its SharedBytes owner are the two allocations.
TEST(ReceivePathAllocTest, EncodeSharedAllocatesBufferAndOwner) {
  for (const auto& [events, payload_size] :
       {std::pair<std::size_t, std::size_t>{120, 16}, {55, 1024}}) {
    const GossipMessage m = gossip_of(events, payload_size);
    const std::uint64_t before = allocs();
    const SharedBytes bytes = m.encode_shared();
    EXPECT_EQ(allocs() - before, 2u) << events << " x " << payload_size;
    EXPECT_EQ(bytes.size(), m.encoded_size());
  }
}

/// Node 0 of eight, with room for all 120 events of encoded_gossip().
std::unique_ptr<LpbcastNode> receiver() {
  auto members = std::make_unique<membership::FullMembership>(0, Rng(3));
  for (NodeId id = 1; id < 8; ++id) members->add(id);
  GossipParams params;
  params.max_events = 120;
  params.max_event_ids = 4000;
  return std::make_unique<LpbcastNode>(0, params, std::move(members), Rng(5));
}

bool inside(const SharedBytes& part, const SharedBytes& whole) {
  return part.data() >= whole.data() &&
         part.data() < whole.data() + whole.size();
}

// A decoded message's payloads alias its datagram; a node that ingests them
// keeps and delivers copies of its own, so once the message is gone the
// datagram has no other owner.
TEST(PayloadLifetimeTest, IngestedPayloadsDoNotPinTheDatagram) {
  const GossipMessage original = gossip_of(120, 16);
  const SharedBytes datagram = original.encode_shared();
  auto node = receiver();
  std::vector<Event> delivered;
  node->set_deliver_handler(
      [&](const Event& e, TimeMs) { delivered.push_back(e); });
  {
    const WireMessage message = decode_any(datagram);
    const auto& events = std::get<GossipMessage>(message).events;
    for (std::size_t i = 0; i < events.size(); ++i) {
      EXPECT_TRUE(inside(events[i].payload, datagram)) << i;
      EXPECT_EQ(events[i].payload, original.events[i].payload) << i;
    }
    EXPECT_EQ(datagram.use_count(), 1 + 120);  // one slice per payload
    ASSERT_TRUE(node->on_wire(message, 0));
  }
  EXPECT_EQ(datagram.use_count(), 1);

  ASSERT_EQ(delivered.size(), 120u);
  for (std::size_t i = 0; i < delivered.size(); ++i) {
    EXPECT_FALSE(inside(delivered[i].payload, datagram)) << i;
    EXPECT_EQ(delivered[i].payload, original.events[i].payload) << i;
  }
  ASSERT_EQ(node->events().size(), 120u);
  for (const Event& sent : original.events) {
    const Event* stored = node->events().find(sent.id);
    ASSERT_NE(stored, nullptr);
    EXPECT_FALSE(inside(stored->payload, datagram));
    EXPECT_EQ(stored->payload, sent.payload);
  }
}

// A message made only of events the node already holds costs nothing:
// duplicates are dropped before anything is copied.
TEST(PayloadLifetimeTest, AllDuplicateMessageAllocatesNothing) {
  const SharedBytes datagram = encoded_gossip();
  const WireMessage message = decode_any(datagram);
  auto node = receiver();
  ASSERT_TRUE(node->on_wire(message, 0));
  ASSERT_EQ(node->events().size(), 120u);

  const std::uint64_t before = allocs();
  ASSERT_TRUE(node->on_wire(message, 0));
  EXPECT_EQ(allocs() - before, 0u);
  EXPECT_EQ(node->counters().duplicates, 120u);
}

// Heap allocations of one whole core::Scenario::run(), gossip rounds
// included, on the five EventQueueGoldenTest configurations. The params are
// built first (the registry's statics stay out of the count) and the run
// has a thread of its own (so does the buffer's thread-local scratch): the
// count is the same whatever ran before. A change that lowers one updates
// its constant; one that raises one says why.
struct RunCost {
  std::uint64_t allocs = 0;
  std::uint64_t rounds = 0;
};

RunCost run_cost(const std::string& preset,
                 const std::vector<std::string>& extra) {
  Config cfg;
  std::string error;
  for (const char* pair :
       {"n=24", "senders=4", "rate=40", "quick=1", "warmup_s=4",
        "duration_s=16", "cooldown_s=4", "seed=2003"}) {
    EXPECT_TRUE(cfg.parse_pair(pair, &error)) << error;
  }
  for (const std::string& pair : extra) {
    EXPECT_TRUE(cfg.parse_pair(pair, &error)) << error;
  }
  const core::ScenarioParams params =
      core::ScenarioRegistry::instance().build(preset, cfg);
  RunCost cost;
  std::thread([&] {
    core::Scenario scenario(params);
    const std::uint64_t before = allocs();
    (void)scenario.run();
    cost.allocs = allocs() - before;
    for (const LpbcastNode* node : scenario.nodes()) {
      cost.rounds += node->counters().rounds;
    }
  }).join();
  return cost;
}

TEST(ScenarioRunAllocTest, GoldenConfigurationsAllocateExactly) {
  struct Pin {
    const char* preset;
    std::vector<std::string> extra;
    std::uint64_t allocs;
  };
  const std::vector<Pin> pins = {
      {"paper60", {}, 28000},
      {"churn", {"churn_every_s=4", "churn_down_s=3", "churn_count=2"}, 27964},
      {"paper60", {"partial_view=1"}, 29895},
      {"paper60", {"adaptive=1", "rate=45"}, 27767},
      {"fig9", {"adaptive=1", "t1_s=4", "t2_s=10"}, 22845},
  };
  for (const Pin& pin : pins) {
    const RunCost cost = run_cost(pin.preset, pin.extra);
    EXPECT_EQ(cost.allocs, pin.allocs)
        << pin.preset << " " << testing::PrintToString(pin.extra) << ": "
        << cost.rounds << " rounds, "
        << static_cast<double>(cost.allocs) /
               static_cast<double>(cost.rounds)
        << " allocations per round";
  }
}

}  // namespace
}  // namespace agb::gossip
