// SharedBytes semantics, and the encode-once / zero-copy guarantee of the
// datagram pipeline: one Outgoing batch of fan-out F performs exactly one
// GossipMessage::encode and every Datagram — queued or delivered, simulated
// or threaded — aliases the same payload buffer (asserted on the data
// pointer and the use-count, not just byte equality).
#include "common/shared_bytes.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "alloc_counter.h"
#include "gossip/lpbcast_node.h"
#include "gossip/message.h"
#include "membership/full_membership.h"
#include "runtime/inmemory_fabric.h"
#include "sim/network.h"
#include "sim/simulator.h"

namespace agb {
namespace {

TEST(SharedBytesTest, DefaultIsEmpty) {
  SharedBytes bytes;
  EXPECT_TRUE(bytes.empty());
  EXPECT_EQ(bytes.size(), 0u);
  EXPECT_EQ(bytes.data(), nullptr);
  EXPECT_EQ(bytes.use_count(), 0);
}

TEST(SharedBytesTest, TakesOwnershipWithoutCopying) {
  std::vector<std::uint8_t> source{1, 2, 3};
  const std::uint8_t* raw = source.data();
  SharedBytes bytes(std::move(source));
  EXPECT_EQ(bytes.data(), raw);  // moved, not copied
  EXPECT_EQ(bytes.size(), 3u);
  EXPECT_EQ(bytes.use_count(), 1);
}

TEST(SharedBytesTest, CopiesShareTheBuffer) {
  SharedBytes a{1, 2, 3};
  SharedBytes b = a;
  SharedBytes c = b;
  EXPECT_EQ(a.data(), b.data());
  EXPECT_EQ(b.data(), c.data());
  EXPECT_EQ(a.use_count(), 3);
  c = SharedBytes{};
  EXPECT_EQ(a.use_count(), 2);
}

TEST(SharedBytesTest, ByteEqualityIgnoresIdentity) {
  SharedBytes a{1, 2, 3};
  SharedBytes b{1, 2, 3};
  EXPECT_NE(a.data(), b.data());
  EXPECT_EQ(a, b);
  EXPECT_EQ(a, (std::vector<std::uint8_t>{1, 2, 3}));
  EXPECT_FALSE(a == SharedBytes({1, 2}));
}

TEST(SharedBytesTest, SliceSharesTheBuffer) {
  SharedBytes whole{1, 2, 3, 4, 5};
  const SharedBytes part = whole.slice(1, 3);
  EXPECT_EQ(part.data(), whole.data() + 1);  // a view, not a copy
  EXPECT_EQ(part, (std::vector<std::uint8_t>{2, 3, 4}));
  EXPECT_EQ(whole.use_count(), 2);
  EXPECT_EQ(part.use_count(), 2);
  whole = SharedBytes{};
  EXPECT_EQ(part.use_count(), 1);  // the slice alone keeps the buffer alive
  EXPECT_EQ(part, (std::vector<std::uint8_t>{2, 3, 4}));
}

TEST(SharedBytesTest, SliceOfASliceAndEmptySlice) {
  const SharedBytes whole{1, 2, 3, 4, 5, 6};
  const SharedBytes inner = whole.slice(1, 4).slice(1, 2);
  EXPECT_EQ(inner.data(), whole.data() + 2);
  EXPECT_EQ(inner, (std::vector<std::uint8_t>{3, 4}));
  EXPECT_EQ(whole.use_count(), 2);

  const SharedBytes none = whole.slice(6, 0);
  EXPECT_TRUE(none.empty());
  EXPECT_EQ(none.data(), nullptr);
  EXPECT_EQ(none.use_count(), 0);  // an empty slice pins nothing
  EXPECT_EQ(whole.use_count(), 2);
}

TEST(SharedBytesTest, CopyOfMakesOneAllocation) {
  const std::vector<std::uint8_t> source(1024, 0x5a);
  const std::uint64_t before = test::heap_allocs();
  const SharedBytes copy = SharedBytes::copy_of(source);
  EXPECT_EQ(test::heap_allocs() - before, 1u);
  EXPECT_NE(copy.data(), source.data());
  EXPECT_EQ(copy, source);
  EXPECT_EQ(copy.use_count(), 1);

  const std::uint64_t empty_before = test::heap_allocs();
  const SharedBytes empty = SharedBytes::copy_of({});
  EXPECT_EQ(test::heap_allocs() - empty_before, 0u);
  EXPECT_TRUE(empty.empty());
}

TEST(SharedBytesTest, SpanConversionFeedsTheCodec) {
  gossip::GossipMessage m;
  m.sender = 5;
  m.round = 9;
  SharedBytes wire = m.encode_shared();
  auto decoded = gossip::GossipMessage::decode(wire);  // implicit span
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->sender, 5u);
  EXPECT_EQ(decoded->round, 9u);
}

// --- the pipeline guarantee -----------------------------------------------

std::unique_ptr<gossip::LpbcastNode> make_node(NodeId self, std::size_t n) {
  auto members = std::make_unique<membership::FullMembership>(self, Rng(3));
  for (NodeId id = 0; id < n; ++id) {
    if (id != self) members->add(id);
  }
  gossip::GossipParams params;
  params.fanout = 5;
  params.max_events = 50;
  return std::make_unique<gossip::LpbcastNode>(self, params,
                                               std::move(members), Rng(7));
}

TEST(ZeroCopyPipelineTest, SimNetworkFanOutSharesOneBuffer) {
  constexpr std::size_t kGroup = 12;
  sim::Simulator sim;
  sim::SimNetwork net(sim, {}, Rng(1));

  auto node = make_node(0, kGroup);
  node->broadcast(gossip::make_payload({0xaa, 0xbb}), 0);
  auto out = node->on_round(1000);
  ASSERT_EQ(out.targets.size(), 5u);  // fanout 5

  std::set<const std::uint8_t*> delivered_ptrs;
  std::size_t deliveries = 0;
  for (NodeId target : out.targets) {
    net.attach(target, [&](const Datagram& d, TimeMs) {
      delivered_ptrs.insert(d.payload.data());
      ++deliveries;
    });
  }

  // The round's one encode, for the whole batch (the driver contract).
  const SharedBytes bytes = std::move(out.wire);
  ASSERT_EQ(bytes.use_count(), 1);
  for (NodeId target : out.targets) {
    net.send(Datagram{0, target, bytes});
  }
  // All five datagrams sit in the delay queue aliasing the same buffer:
  // the original + one reference per queued datagram, zero byte copies.
  EXPECT_EQ(bytes.use_count(), 1 + 5);

  sim.run();
  EXPECT_EQ(deliveries, 5u);
  ASSERT_EQ(delivered_ptrs.size(), 1u);  // every delivery saw the same bytes
  EXPECT_EQ(*delivered_ptrs.begin(), bytes.data());
  EXPECT_EQ(bytes.use_count(), 1);  // queue drained, references released
}

TEST(ZeroCopyPipelineTest, InMemoryFabricFanOutSharesOneBuffer) {
  runtime::InMemoryFabric fabric({});
  constexpr int kFanout = 5;

  std::mutex mutex;
  std::set<const std::uint8_t*> delivered_ptrs;
  std::atomic<int> deliveries{0};
  for (NodeId target = 1; target <= kFanout; ++target) {
    fabric.attach(target, [&](const Datagram& d, TimeMs) {
      std::lock_guard lock(mutex);
      delivered_ptrs.insert(d.payload.data());
      deliveries.fetch_add(1);
    });
  }

  gossip::GossipMessage m;
  m.sender = 0;
  const SharedBytes bytes = m.encode_shared();
  for (NodeId target = 1; target <= kFanout; ++target) {
    fabric.send(Datagram{0, target, bytes});
  }

  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(5);
  while (deliveries.load() < kFanout &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_EQ(deliveries.load(), kFanout);
  std::lock_guard lock(mutex);
  ASSERT_EQ(delivered_ptrs.size(), 1u);
  EXPECT_EQ(*delivered_ptrs.begin(), bytes.data());
}

}  // namespace
}  // namespace agb
