// Hot-path micro-benchmarks (google-benchmark): wire codec, event buffer
// operations, estimators, RNG and the end-to-end simulated round. These
// guard the constants behind the figure benches — a regression here shows
// up as minutes of extra wall time in the sweeps.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <functional>
#include <memory>
#include <new>
#include <optional>
#include <queue>
#include <thread>
#include <vector>

#include "adaptive/congestion_estimator.h"
#include "adaptive/minbuff_estimator.h"
#include "common/rng.h"
#include "core/scenario.h"
#include "core/sharded_scenario.h"
#include "gossip/event_buffer.h"
#include "gossip/lpbcast_node.h"
#include "gossip/message.h"
#include "membership/cluster_map.h"
#include "membership/full_membership.h"
#include "membership/locality_view.h"
#include "runtime/inmemory_fabric.h"
#include "runtime/udp_transport.h"
#include "sim/event_callback.h"
#include "sim/event_queue.h"
#include "sim/network.h"
#include "sim/simulator.h"

// Process-wide heap-allocation counter backing the zero-alloc receipts in
// the event-queue benchmarks below: benchmarks snapshot the counter around
// their timed loop, so a steady-state path that touches the allocator at
// all shows up as allocs_per_event > 0. noinline keeps GCC from inlining
// the malloc/free bodies into call sites, where it would flag the
// new-via-malloc / delete-via-free pairing as mismatched.
std::atomic<std::uint64_t> g_heap_allocs{0};

__attribute__((noinline)) void* operator new(std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc{};
}

__attribute__((noinline)) void* operator new(std::size_t size,
                                             std::align_val_t align) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  void* p = nullptr;
  if (posix_memalign(&p, static_cast<std::size_t>(align), size ? size : 1) ==
      0) {
    return p;
  }
  throw std::bad_alloc{};
}

__attribute__((noinline)) void operator delete(void* p) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete(void* p,
                                               std::size_t) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete(void* p,
                                               std::align_val_t) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete(void* p, std::size_t,
                                               std::align_val_t) noexcept {
  std::free(p);
}

namespace {

using namespace agb;

gossip::GossipMessage make_message(std::size_t events,
                                   std::size_t payload_size) {
  gossip::GossipMessage m;
  m.sender = 3;
  m.round = 17;
  m.period = 2;
  m.min_buff = 60;
  for (std::size_t i = 0; i < events; ++i) {
    gossip::Event e;
    e.id = EventId{static_cast<NodeId>(i % 60), i};
    e.age = static_cast<std::uint32_t>(i % 12);
    e.created_at = static_cast<TimeMs>(i);
    e.payload = gossip::make_payload(
        std::vector<std::uint8_t>(payload_size, 0x5a));
    m.events.push_back(std::move(e));
  }
  return m;
}

/// Node 0's directory of a `group`-node full membership.
std::unique_ptr<membership::FullMembership> bench_directory(
    std::size_t group) {
  auto members = std::make_unique<membership::FullMembership>(0, Rng(3));
  for (NodeId id = 1; id < group; ++id) members->add(id);
  return members;
}

void BM_MessageEncode(benchmark::State& state) {
  const auto m = make_message(static_cast<std::size_t>(state.range(0)), 16);
  std::size_t bytes = 0;
  for (auto _ : state) {
    auto encoded = m.encode();
    bytes = encoded.size();
    benchmark::DoNotOptimize(encoded);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes) *
                          static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_MessageEncode)->Arg(30)->Arg(120)->Arg(500);

void BM_MessageDecode(benchmark::State& state) {
  const SharedBytes bytes =
      make_message(static_cast<std::size_t>(state.range(0)), 16)
          .encode_shared();
  for (auto _ : state) {
    auto decoded = gossip::GossipMessage::decode(bytes);
    benchmark::DoNotOptimize(decoded);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes.size()) *
                          static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_MessageDecode)->Arg(30)->Arg(120)->Arg(500);

// The simulator's receive side of one gossip round: F receivers of one
// 120-event message, which share one SharedBytes buffer. memo=0 decodes per
// receiver with decode_any; memo=1 goes through one WireDecoder, as both
// simulator engines do, and decodes once per fan-out. Iterations alternate
// between two byte-equal buffers, so every fan-out starts with a memo miss.
void BM_FanoutDecode(benchmark::State& state) {
  const auto receivers = static_cast<std::size_t>(state.range(0));
  const bool memo = state.range(1) != 0;
  const SharedBytes first = make_message(120, 16).encode_shared();
  const SharedBytes buffers[2] = {first, SharedBytes::copy_of(first.view())};
  gossip::WireDecoder decoder;
  std::size_t round = 0;
  for (auto _ : state) {
    const SharedBytes& bytes = buffers[round++ % 2];
    for (std::size_t r = 0; r < receivers; ++r) {
      if (memo) {
        benchmark::DoNotOptimize(&decoder.decode(bytes));
      } else {
        auto decoded = gossip::decode_any(bytes);
        benchmark::DoNotOptimize(decoded);
      }
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(receivers));
}
BENCHMARK(BM_FanoutDecode)
    ->ArgNames({"receivers", "memo"})
    ->ArgsProduct({{1, 4, 8}, {0, 1}});

// The wall-clock receive path on wallclock-inmemory's shape: decode plus
// on_wire of a 55-event message of 1 KiB payloads into a node that already
// holds 52 of its 55 ids, as lpbcast's whole-buffer gossip makes most
// received events duplicates. Message i carries ids 3i .. 3i+54 (mod 480):
// 52 seen in message i-1 and 3 the node's 400-id digest has forgotten. A
// decoded payload aliases the datagram and the node copies only the novel
// ones, so payload_bytes_copied_per_op is novel events x 1 KiB.
void BM_ReceiveMostlyDuplicates(benchmark::State& state) {
  constexpr std::size_t kEvents = 55;
  constexpr std::size_t kNovel = 3;
  constexpr std::size_t kPayload = 1024;
  constexpr std::size_t kMessages = 160;  // 480 ids cycle past the digest
  std::vector<SharedBytes> wire;
  for (std::size_t i = 0; i < kMessages; ++i) {
    gossip::GossipMessage m;
    m.sender = 1;
    for (std::size_t j = 0; j < kEvents; ++j) {
      gossip::Event e;
      e.id = EventId{2, (kNovel * i + j) % (kNovel * kMessages)};
      e.payload = gossip::make_payload(
          std::vector<std::uint8_t>(kPayload, static_cast<std::uint8_t>(j)));
      m.events.push_back(std::move(e));
    }
    wire.push_back(m.encode_shared());
  }
  gossip::GossipParams params;
  params.max_events = kEvents;
  gossip::LpbcastNode node(0, params, bench_directory(8), Rng(5));
  std::size_t next = 0;
  auto receive = [&] {
    const gossip::WireMessage message =
        gossip::decode_any(wire[next++ % kMessages]);
    return node.on_wire(message, 0);
  };
  for (std::size_t i = 0; i < 2 * kMessages; ++i) receive();  // warm
  const std::uint64_t allocs_before = g_heap_allocs.load();
  const std::uint64_t novel_before = node.counters().events_received;
  for (auto _ : state) benchmark::DoNotOptimize(receive());
  const auto ops = static_cast<double>(state.iterations());
  state.counters["allocs_per_op"] =
      static_cast<double>(g_heap_allocs.load() - allocs_before) / ops;
  state.counters["payload_bytes_copied_per_op"] =
      static_cast<double>((node.counters().events_received - novel_before) *
                          kPayload) /
      ops;
}
BENCHMARK(BM_ReceiveMostlyDuplicates);

// The encode-once refactor's receipts: fanning one encoded gossip message
// out to F targets with per-target payload copies (the old Datagram) vs
// SharedBytes aliasing (the current pipeline). bytes_per_second counts the
// bytes actually copied per iteration — encode output plus, in the copy
// variant, one payload clone per target; SharedBytes copies only the encode
// output regardless of F (>= 2x fewer bytes copied from fanout 1 up).
void BM_FanoutPerTargetCopy(benchmark::State& state) {
  const auto fanout = static_cast<std::size_t>(state.range(0));
  const auto m = make_message(120, 16);
  std::size_t bytes_copied = 0;
  for (auto _ : state) {
    auto encoded = m.encode();
    bytes_copied = encoded.size();
    for (std::size_t i = 0; i < fanout; ++i) {
      std::vector<std::uint8_t> per_target = encoded;  // old pipeline
      bytes_copied += per_target.size();
      benchmark::DoNotOptimize(per_target);
    }
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes_copied) *
                          static_cast<std::int64_t>(state.iterations()));
  state.counters["bytes_copied_per_batch"] =
      static_cast<double>(bytes_copied);
}
BENCHMARK(BM_FanoutPerTargetCopy)->Arg(3)->Arg(5)->Arg(10);

void BM_FanoutSharedBytes(benchmark::State& state) {
  const auto fanout = static_cast<std::size_t>(state.range(0));
  const auto m = make_message(120, 16);
  std::size_t bytes_copied = 0;
  for (auto _ : state) {
    const SharedBytes encoded = m.encode_shared();
    bytes_copied = encoded.size();  // the one and only byte copy
    for (std::size_t i = 0; i < fanout; ++i) {
      SharedBytes per_target = encoded;  // refcount bump
      benchmark::DoNotOptimize(per_target);
    }
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes_copied) *
                          static_cast<std::int64_t>(state.iterations()));
  state.counters["bytes_copied_per_batch"] =
      static_cast<double>(bytes_copied);
}
BENCHMARK(BM_FanoutSharedBytes)->Arg(3)->Arg(5)->Arg(10);

// The batch-first send path's receipts, one pair per fabric: fanning one
// encoded message out to F targets one Datagram at a time (the old
// interface, still available through the send() wrapper) vs one
// send_batch(Multicast). Counters report the amortised resource per
// fan-out batch — lock acquisitions (InMemoryFabric), simulator events
// (SimNetwork), syscalls (UdpTransport) — each expected to drop ~F -> 1.

std::vector<agb::NodeId> batch_targets(std::size_t fanout) {
  std::vector<agb::NodeId> targets(fanout);
  for (std::size_t i = 0; i < fanout; ++i) {
    targets[i] = static_cast<agb::NodeId>(i + 1);
  }
  return targets;
}

void BM_InMemoryFanoutPerTargetSend(benchmark::State& state) {
  const auto fanout = static_cast<std::size_t>(state.range(0));
  runtime::InMemoryFabric fabric({.min_delay = 0,
                                  .max_delay = 0,
                                  .shards = 1});
  const auto targets = batch_targets(fanout);
  for (NodeId t : targets) fabric.attach(t, [](const Datagram&, TimeMs) {});
  const SharedBytes payload = make_message(120, 16).encode_shared();
  for (auto _ : state) {
    for (NodeId t : targets) fabric.send(Datagram{0, t, payload});
  }
  state.counters["lock_acquisitions_per_batch"] =
      static_cast<double>(fabric.send_lock_acquisitions()) /
      static_cast<double>(state.iterations());
}
BENCHMARK(BM_InMemoryFanoutPerTargetSend)->Arg(3)->Arg(5)->Arg(10);

void BM_InMemoryFanoutBatchSend(benchmark::State& state) {
  const auto fanout = static_cast<std::size_t>(state.range(0));
  runtime::InMemoryFabric fabric({.min_delay = 0,
                                  .max_delay = 0,
                                  .shards = 1});
  const auto targets = batch_targets(fanout);
  for (NodeId t : targets) fabric.attach(t, [](const Datagram&, TimeMs) {});
  const SharedBytes payload = make_message(120, 16).encode_shared();
  for (auto _ : state) {
    fabric.send_batch(Multicast{0, targets, payload});
  }
  state.counters["lock_acquisitions_per_batch"] =
      static_cast<double>(fabric.send_lock_acquisitions()) /
      static_cast<double>(state.iterations());
}
BENCHMARK(BM_InMemoryFanoutBatchSend)->Arg(3)->Arg(5)->Arg(10);

// The sharded receive path's receipts: end-to-end delivery throughput of a
// 60-node fan-out-heavy workload (every node fans one encoded gossip
// message out to every other) against the shard count. Every receiver
// takes its due datagrams in bursts of up to 64 (one handler call + lock
// cycle per burst); shards add core-parallelism on top.
// max_queue_depth shows the backlog the dispatchers ran at.
void BM_InMemoryDeliveryThroughput(benchmark::State& state) {
  constexpr std::size_t kGroup = 60;
  runtime::InMemoryFabric fabric(
      {.min_delay = 0,
       .max_delay = 0,
       .shards = static_cast<std::size_t>(state.range(0))});
  std::atomic<std::uint64_t> received{0};
  for (NodeId n = 0; n < kGroup; ++n) {
    fabric.attach_batch(n, [&received](const Datagram* batch,
                                       std::size_t count, TimeMs) {
      benchmark::DoNotOptimize(batch);
      received.fetch_add(count, std::memory_order_relaxed);
    });
  }
  std::vector<std::vector<NodeId>> targets(kGroup);
  for (NodeId from = 0; from < kGroup; ++from) {
    for (NodeId to = 0; to < kGroup; ++to) {
      if (to != from) targets[from].push_back(to);
    }
  }
  const SharedBytes payload = make_message(120, 16).encode_shared();
  constexpr std::uint64_t kPerRound = kGroup * (kGroup - 1);
  std::uint64_t want = 0;
  for (auto _ : state) {
    for (NodeId from = 0; from < kGroup; ++from) {
      fabric.send_batch(Multicast{from, targets[from], payload});
    }
    want += kPerRound;
    while (received.load(std::memory_order_relaxed) < want) {
      std::this_thread::yield();  // lossless fabric: always completes
    }
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(kPerRound));  // items/s = datagrams/s
  state.counters["max_queue_depth"] =
      static_cast<double>(fabric.max_queue_depth());
}
BENCHMARK(BM_InMemoryDeliveryThroughput)
    ->Arg(1)  // single dispatcher
    ->Arg(4)  // the default
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_SimNetworkFanoutPerTargetSend(benchmark::State& state) {
  const auto fanout = static_cast<std::size_t>(state.range(0));
  sim::Simulator sim;
  sim::SimNetwork net(sim, sim::NetworkParams{}, Rng(1));
  const auto targets = batch_targets(fanout);
  for (NodeId t : targets) net.attach(t, [](const Datagram&, TimeMs) {});
  const SharedBytes payload = make_message(120, 16).encode_shared();
  for (auto _ : state) {
    for (NodeId t : targets) net.send(Datagram{0, t, payload});
    sim.run();  // drain deliveries: the full per-round cost
  }
  state.counters["sim_events_per_batch"] =
      static_cast<double>(net.stats().events_scheduled) /
      static_cast<double>(state.iterations());
}
BENCHMARK(BM_SimNetworkFanoutPerTargetSend)->Arg(3)->Arg(5)->Arg(10);

void BM_SimNetworkFanoutBatchSend(benchmark::State& state) {
  const auto fanout = static_cast<std::size_t>(state.range(0));
  sim::Simulator sim;
  sim::SimNetwork net(sim, sim::NetworkParams{}, Rng(1));
  const auto targets = batch_targets(fanout);
  for (NodeId t : targets) net.attach(t, [](const Datagram&, TimeMs) {});
  const SharedBytes payload = make_message(120, 16).encode_shared();
  for (auto _ : state) {
    net.send_batch(Multicast{0, targets, payload});
    sim.run();
  }
  state.counters["sim_events_per_batch"] =
      static_cast<double>(net.stats().events_scheduled) /
      static_cast<double>(state.iterations());
}
BENCHMARK(BM_SimNetworkFanoutBatchSend)->Arg(3)->Arg(5)->Arg(10);

void BM_UdpFanoutPerTargetSend(benchmark::State& state) {
  const auto fanout = static_cast<std::size_t>(state.range(0));
  runtime::UdpTransport transport(29'100);
  transport.attach(0, [](const Datagram&, TimeMs) {});
  const auto targets = batch_targets(fanout);
  for (NodeId t : targets) {
    transport.attach(t, [](const Datagram&, TimeMs) {});
  }
  const SharedBytes payload = make_message(120, 16).encode_shared();
  for (auto _ : state) {
    for (NodeId t : targets) transport.send(Datagram{0, t, payload});
  }
  state.counters["syscalls_per_batch"] =
      static_cast<double>(transport.send_syscalls()) /
      static_cast<double>(state.iterations());
}
BENCHMARK(BM_UdpFanoutPerTargetSend)->Arg(3)->Arg(5)->Arg(10);

void BM_UdpFanoutBatchSend(benchmark::State& state) {
  const auto fanout = static_cast<std::size_t>(state.range(0));
  runtime::UdpTransport transport(29'200);
  transport.attach(0, [](const Datagram&, TimeMs) {});
  const auto targets = batch_targets(fanout);
  for (NodeId t : targets) {
    transport.attach(t, [](const Datagram&, TimeMs) {});
  }
  const SharedBytes payload = make_message(120, 16).encode_shared();
  for (auto _ : state) {
    transport.send_batch(Multicast{0, targets, payload});
  }
  state.counters["syscalls_per_batch"] =
      static_cast<double>(transport.send_syscalls()) /
      static_cast<double>(state.iterations());
}
BENCHMARK(BM_UdpFanoutBatchSend)->Arg(3)->Arg(5)->Arg(10);

// Inbound mirror of the fan-out benches: one sendmmsg burst of F datagrams
// to a single receiver, drained through recvmmsg (recv_batch 16). The
// handler decodes every datagram, as NodeRuntime's does — that realistic
// per-datagram cost is what lets inbound bursts pile up behind it, which
// is exactly when batch draining pays. The recv_syscalls_per_burst
// counter is the receipt — F per-recv() syscalls before, approaching
// ceil(F/16) (plus wakeup calls) after. Arg is F.
void BM_UdpRecvBurstSyscalls(benchmark::State& state) {
  const auto fanout = static_cast<std::size_t>(state.range(0));
  runtime::UdpTransport transport(29'300, /*recv_batch=*/16);
  transport.attach(0, [](const Datagram&, TimeMs) {});
  std::atomic<std::uint64_t> received{0};
  transport.attach_batch(
      1, [&received](const Datagram* batch, std::size_t count, TimeMs) {
        for (std::size_t i = 0; i < count; ++i) {
          auto decoded = gossip::decode_any(batch[i].payload);
          benchmark::DoNotOptimize(decoded);
        }
        received.fetch_add(count, std::memory_order_relaxed);
      });
  const std::vector<NodeId> targets(fanout, 1);
  // Small payload: the whole burst must fit the socket rcvbuf, UDP drops
  // the overflow otherwise.
  const SharedBytes payload = make_message(4, 16).encode_shared();
  std::uint64_t want = 0;
  for (auto _ : state) {
    transport.send_batch(Multicast{0, targets, payload});
    want += fanout;
    // UDP is lossy even on loopback (rcvbuf overflow under scheduler
    // stalls): top up any kernel-dropped datagrams instead of spinning
    // forever. Rare, so the syscall counter stays representative.
    auto deadline = std::chrono::steady_clock::now() +
                    std::chrono::milliseconds(200);
    while (received.load(std::memory_order_relaxed) < want) {
      if (std::chrono::steady_clock::now() > deadline) {
        const std::uint64_t missing =
            want - received.load(std::memory_order_relaxed);
        transport.send_batch(Multicast{
            0, std::vector<NodeId>(static_cast<std::size_t>(missing), 1),
            payload});
        deadline = std::chrono::steady_clock::now() +
                   std::chrono::milliseconds(200);
      }
      std::this_thread::yield();
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(fanout));
  state.counters["recv_syscalls_per_burst"] =
      static_cast<double>(transport.recv_syscalls()) /
      static_cast<double>(state.iterations());
  state.counters["datagrams_per_burst"] = static_cast<double>(fanout);
}
BENCHMARK(BM_UdpRecvBurstSyscalls)->Arg(16)->Arg(64)->UseRealTime();

void BM_EventBufferInsertShrink(benchmark::State& state) {
  const auto capacity = static_cast<std::size_t>(state.range(0));
  std::uint64_t seq = 0;
  gossip::EventBuffer buf;
  for (auto _ : state) {
    gossip::Event e;
    e.id = EventId{1, seq++};
    e.age = static_cast<std::uint32_t>(seq % 12);
    buf.insert(std::move(e));
    auto dropped = buf.settle_overflow(capacity).evicted;
    benchmark::DoNotOptimize(dropped);
  }
}
BENCHMARK(BM_EventBufferInsertShrink)->Arg(60)->Arg(180);

// A round's wire image of a live buffer, written straight from its slots in
// insertion order (what LpbcastNode::on_round sends): rounds of arrivals
// with assorted ages and 16-byte payloads, each round aged, purged at k and
// bounded oldest first, so swap-erase has shuffled the slots against
// insertion order. insertion_span_per_event is the live insertion numbers'
// span over the buffer size (about 1.6 on sim-paper-adaptive).
void BM_RoundWireImage(benchmark::State& state) {
  const auto capacity = static_cast<std::size_t>(state.range(0));
  gossip::EventBuffer buf;
  Rng rng(1);
  std::uint64_t seq = 0;
  for (int round = 0; round < 50; ++round) {
    buf.increment_ages();
    buf.purge_age_limit(12);
    for (std::size_t i = 0; i < capacity / 2; ++i, ++seq) {
      gossip::Event e;
      e.id = EventId{static_cast<NodeId>(seq % 60), seq};
      e.age = static_cast<std::uint32_t>(rng.next_below(12));
      e.payload = gossip::make_payload(std::vector<std::uint8_t>(16));
      buf.insert(std::move(e));
    }
    buf.settle_overflow(capacity);
  }
  std::uint64_t first = seq;
  std::uint64_t last = 0;
  buf.for_each([&](const gossip::Event& e) {
    first = std::min(first, e.id.sequence);
    last = std::max(last, e.id.sequence);
  });
  gossip::GossipMessage header;
  header.sender = 1;
  header.round = 100;
  for (auto _ : state) {
    auto wire = header.encode_with(buf.in_insertion_order());
    benchmark::DoNotOptimize(wire);
  }
  state.counters["insertion_span_per_event"] =
      static_cast<double>(last - first + 1) / static_cast<double>(buf.size());
}
BENCHMARK(BM_RoundWireImage)->Arg(60)->Arg(180);

/// Runs `step` (one digest insert) once the digest is at its bound and its
/// table at its working size, and reports heap allocations per insert and
/// the digest's heap bytes per remembered id.
template <typename Step>
void time_digest(benchmark::State& state, gossip::EventIdBuffer& digest,
                 Step step) {
  for (std::size_t i = 0; i < 50 * digest.capacity(); ++i) step();
  const std::uint64_t allocs_before = g_heap_allocs.load();
  for (auto _ : state) benchmark::DoNotOptimize(step());
  state.counters["allocs_per_op"] =
      static_cast<double>(g_heap_allocs.load() - allocs_before) /
      static_cast<double>(state.iterations());
  state.counters["bytes_per_id"] = static_cast<double>(digest.bytes()) /
                                   static_cast<double>(digest.size());
}

// The receive path's digest check (paper Fig. 1's eventIds): one insert per
// incoming event, 16% novel ids and 84% duplicates of ids still
// remembered, at the scale presets' digest bound (384) and paper60's
// (4000). This stream draws origin = seq % 60 from one global counter, so
// each origin's sequences stride by 60 and no two ids share a stamp block:
// the sparse worst case, which real traffic does not produce.
void BM_EventIdBufferInsert(benchmark::State& state) {
  const auto capacity = static_cast<std::size_t>(state.range(0));
  gossip::EventIdBuffer digest(capacity);
  Rng rng(1);
  std::uint64_t next = 0;
  time_digest(state, digest, [&] {
    if (next < capacity || rng.bernoulli(0.16)) {
      ++next;
      return digest.insert(EventId{static_cast<NodeId>(next % 60), next});
    }
    const std::uint64_t seq = next - rng.next_below(capacity / 2);
    return digest.insert(EventId{static_cast<NodeId>(seq % 60), seq});
  });
}
BENCHMARK(BM_EventIdBufferInsert)->Arg(384)->Arg(4000);

// The same 16% novel / 84% duplicate mix as each origin really numbers its
// broadcasts: densely, {capacity, origins} = {4000, 4} like paper60's
// senders and {384, 32} like scale-1e5's. A novel id is its origin's next
// sequence; a duplicate one of the origin's ids still remembered.
void BM_EventIdBufferInsertDense(benchmark::State& state) {
  const auto capacity = static_cast<std::size_t>(state.range(0));
  const auto origins = static_cast<std::uint64_t>(state.range(1));
  gossip::EventIdBuffer digest(capacity);
  Rng rng(1);
  std::vector<std::uint64_t> next(origins, 0);
  const std::uint64_t window = capacity / origins / 2;
  time_digest(state, digest, [&] {
    const auto origin = static_cast<NodeId>(rng.next_below(origins));
    std::uint64_t& head = next[origin];
    if (head < window || rng.bernoulli(0.16)) {
      return digest.insert(EventId{origin, head++});
    }
    return digest.insert(EventId{origin, head - 1 - rng.next_below(window)});
  });
}
BENCHMARK(BM_EventIdBufferInsertDense)->Args({4000, 4})->Args({384, 32});

// The adaptive node's on_gossip steady state: a buffer at capacity C takes
// C/6 novel events (sim-paper-adaptive's novel ratio is ~0.16), then one
// settle_overflow call marks the virtual drops against minBuff = C (lost
// marks), folding each into the estimator, and enforces the real bound.
// Every iteration evicts, so this is the overflow cost paid per received
// gossip message.
void BM_CongestionEstimatorObserve(benchmark::State& state) {
  const auto capacity = static_cast<std::size_t>(state.range(0));
  gossip::EventBuffer buf;
  adaptive::CongestionEstimator est(0.9, 5.0);
  Rng rng(1);
  std::uint64_t seq = 0;
  auto receive = [&](std::size_t count) {
    for (std::size_t i = 0; i < count; ++i, ++seq) {
      gossip::Event e;
      e.id = EventId{static_cast<NodeId>(seq % 60), seq};
      e.age = static_cast<std::uint32_t>(rng.next_below(12));
      buf.insert(std::move(e));
    }
  };
  receive(capacity);
  for (auto _ : state) {
    receive(capacity / 6);
    const auto overflow = buf.settle_overflow(
        capacity, capacity, false,
        [&est](const gossip::Event& dropped) { est.observe(dropped); });
    benchmark::DoNotOptimize(overflow.evicted);
  }
  state.counters["virtual_drops_per_iter"] =
      static_cast<double>(est.observations()) /
      static_cast<double>(state.iterations());
}
BENCHMARK(BM_CongestionEstimatorObserve)->Arg(60)->Arg(120)->Arg(480);

void BM_MinBuffEstimatorHeader(benchmark::State& state) {
  adaptive::MinBuffEstimator est(2, 120);
  Rng rng(1);
  PeriodId period = 0;
  for (auto _ : state) {
    est.on_header(period, static_cast<std::uint32_t>(30 + rng.next_below(90)));
    if (rng.bernoulli(0.01)) est.advance_to(++period);
    benchmark::DoNotOptimize(est.estimate());
  }
}
BENCHMARK(BM_MinBuffEstimatorHeader);

void BM_RngSampleIndices(benchmark::State& state) {
  Rng rng(7);
  for (auto _ : state) {
    auto sample = rng.sample_indices(60, 4);
    benchmark::DoNotOptimize(sample);
  }
}
BENCHMARK(BM_RngSampleIndices);

// Target selection on the per-round hot path: uniform sampling from a full
// directory vs the locality-biased decorator (snapshot + cluster
// partition + bridge election every call, the price of staying correct
// under churn). Arg is the group size.

void BM_UniformTargets(benchmark::State& state) {
  auto members = bench_directory(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    auto targets = members->targets(4);
    benchmark::DoNotOptimize(targets);
  }
}
BENCHMARK(BM_UniformTargets)->Arg(60)->Arg(300);

void BM_LocalityTargets(benchmark::State& state) {
  membership::LocalityParams params;
  params.enabled = true;
  params.p_local = 0.9;
  membership::LocalityView view(
      0, params, std::make_shared<membership::ModuloClusterMap>(3),
      bench_directory(static_cast<std::size_t>(state.range(0))), Rng(4));
  for (auto _ : state) {
    auto targets = view.targets(4);
    benchmark::DoNotOptimize(targets);
  }
}
BENCHMARK(BM_LocalityTargets)->Arg(60)->Arg(300);

// The calendar-queue receipts. `seed_baseline` is a verbatim copy of the
// event queue this repo shipped before the calendar rewrite — binary heap
// of std::function entries, one shared_ptr<bool> tombstone per event — so
// the pair below measures old vs new on the same workload in the same
// binary. Keep it in sync with nothing: it is frozen history.
namespace seed_baseline {

class EventHandle {
 public:
  EventHandle() = default;
  void cancel() noexcept {
    if (auto alive = alive_.lock()) *alive = false;
  }

 private:
  friend class EventQueue;
  explicit EventHandle(std::weak_ptr<bool> alive) : alive_(std::move(alive)) {}
  std::weak_ptr<bool> alive_;
};

class EventQueue {
 public:
  EventHandle schedule(TimeMs at, std::function<void()> fn) {
    auto alive = std::make_shared<bool>(true);
    EventHandle handle{alive};
    heap_.push(Entry{at, next_seq_++, std::move(fn), std::move(alive)});
    return handle;
  }

  struct Fired {
    TimeMs at;
    std::function<void()> fn;
  };

  std::optional<Fired> pop() {
    while (!heap_.empty() && !*heap_.top().alive) heap_.pop();
    if (heap_.empty()) return std::nullopt;
    Entry entry = heap_.top();
    heap_.pop();
    *entry.alive = false;
    return Fired{entry.at, std::move(entry.fn)};
  }

 private:
  struct Entry {
    TimeMs at;
    std::uint64_t seq;
    std::function<void()> fn;
    std::shared_ptr<bool> alive;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const noexcept {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };

  std::priority_queue<Entry, std::vector<Entry>, Later> heap_;
  std::uint64_t next_seq_ = 0;
};

}  // namespace seed_baseline

// Schedule n events scattered over an 8192 ms span (half land past the
// 4096-bucket ring, exercising the overflow heap and its migration),
// cancel every 4th, drain the rest. Arg is n. The allocs_per_event counter
// is the zero-allocation receipt: after the untimed warm-up pass the
// calendar queue's slot pool and ring are at capacity, so the steady-state
// schedule/cancel/pop cycle must not touch the allocator at all — the seed
// baseline pays at least the shared_ptr control block per event.
constexpr agb::TimeMs kQueueBenchSpan = 8192;

void BM_EventQueueScheduleCancelDrain(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  sim::EventQueue queue;
  std::vector<sim::EventHandle> handles(n);
  Rng rng(42);
  std::uint64_t sink = 0;
  TimeMs base = 0;
  const auto pass = [&] {
    for (std::size_t i = 0; i < n; ++i) {
      handles[i] = queue.schedule(
          base + static_cast<TimeMs>(rng.next_below(kQueueBenchSpan)),
          [&sink, i] { sink += i; });
    }
    for (std::size_t i = 0; i < n; i += 4) handles[i].cancel();
    while (auto fired = queue.pop()) fired->fn();
    base += kQueueBenchSpan;
  };
  // Untimed warm-up: grows the slot pool and the overflow heap's backing
  // vector to their steady-state high-water marks.
  for (int i = 0; i < 4; ++i) pass();
  const std::uint64_t allocs_before =
      g_heap_allocs.load(std::memory_order_relaxed);
  for (auto _ : state) pass();
  const auto events =
      static_cast<double>(state.iterations()) * static_cast<double>(n);
  state.counters["allocs_per_event"] =
      static_cast<double>(g_heap_allocs.load(std::memory_order_relaxed) -
                          allocs_before) /
      events;
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
  benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_EventQueueScheduleCancelDrain)
    ->Arg(1'000)
    ->Arg(10'000)
    ->Arg(100'000);

void BM_SeedEventQueueScheduleCancelDrain(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  seed_baseline::EventQueue queue;
  std::vector<seed_baseline::EventHandle> handles(n);
  Rng rng(42);
  std::uint64_t sink = 0;
  TimeMs base = 0;
  const auto pass = [&] {
    for (std::size_t i = 0; i < n; ++i) {
      handles[i] = queue.schedule(
          base + static_cast<TimeMs>(rng.next_below(kQueueBenchSpan)),
          [&sink, i] { sink += i; });
    }
    for (std::size_t i = 0; i < n; i += 4) handles[i].cancel();
    while (auto fired = queue.pop()) fired->fn();
    base += kQueueBenchSpan;
  };
  pass();
  const std::uint64_t allocs_before =
      g_heap_allocs.load(std::memory_order_relaxed);
  for (auto _ : state) pass();
  const auto events =
      static_cast<double>(state.iterations()) * static_cast<double>(n);
  state.counters["allocs_per_event"] =
      static_cast<double>(g_heap_allocs.load(std::memory_order_relaxed) -
                          allocs_before) /
      events;
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
  benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_SeedEventQueueScheduleCancelDrain)
    ->Arg(1'000)
    ->Arg(10'000)
    ->Arg(100'000);

// Whole-scenario round cost at scale: two full gossip rounds (round wheel
// sweep, target selection, codec, network delivery) over n nodes.
// items/s is nodes simulated per virtual second of wall time — the number
// the BENCH_sim_scale record tracks. Second arg selects membership:
// 0 = full directory (the seed configuration — FullMembership::targets
// draws from an O(n) directory, so per-round work is O(n^2) and the
// n=10^5 point is omitted as intractable), 1 = bounded lpbcast partial
// views (what the scale presets run). The >= 10x acceptance compares
// {10000, 1} against {10000, 0}.
void BM_ScenarioRoundTick(benchmark::State& state) {
  constexpr TimeMs kPeriod = 1'000;
  constexpr std::size_t kRounds = 2;
  for (auto _ : state) {
    state.PauseTiming();
    core::ScenarioParams p;
    p.n = static_cast<std::size_t>(state.range(0));
    p.senders = 8;
    p.offered_rate = 10.0;
    p.partial_view = state.range(1) == 1;
    p.gossip.gossip_period = kPeriod;
    p.warmup = 0;
    p.duration = kPeriod * kRounds;
    p.cooldown = 0;
    core::Scenario s(p);
    state.ResumeTiming();
    auto r = s.run();
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0) *
                          static_cast<std::int64_t>(kRounds) * kPeriod /
                          1'000);
}
BENCHMARK(BM_ScenarioRoundTick)
    ->Args({1'000, 0})
    ->Args({10'000, 0})
    ->Args({1'000, 1})
    ->Args({10'000, 1})
    ->Args({100'000, 1})
    ->Unit(benchmark::kMillisecond);

// The same partial-view workload on the sharded engine: arg0 is n, arg1 the
// shard count (workers = shards). The {n, 1} point prices the sharded
// harness's fixed overhead against BM_ScenarioRoundTick {n, 1} above
// (window barriers + canonical sorts on one core); the 2/4/8 points are the
// scaling curve — flat on a single-core runner, and the multi-core speedup
// the BENCH_sim_scale acceptance gate tracks elsewhere.
void BM_ShardedRoundTick(benchmark::State& state) {
  constexpr TimeMs kPeriod = 1'000;
  constexpr std::size_t kRounds = 2;
  for (auto _ : state) {
    state.PauseTiming();
    core::ScenarioParams p;
    p.n = static_cast<std::size_t>(state.range(0));
    p.senders = 8;
    p.offered_rate = 10.0;
    p.partial_view = true;
    p.gossip.gossip_period = kPeriod;
    p.warmup = 0;
    p.duration = kPeriod * kRounds;
    p.cooldown = 0;
    p.sim_shards = static_cast<std::size_t>(state.range(1));
    p.sim_workers = static_cast<std::size_t>(state.range(1));
    core::ShardedScenario s(std::move(p));
    state.ResumeTiming();
    auto r = s.run();
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0) *
                          static_cast<std::int64_t>(kRounds) * kPeriod /
                          1'000);
}
BENCHMARK(BM_ShardedRoundTick)
    ->Args({10'000, 1})
    ->Args({10'000, 2})
    ->Args({10'000, 4})
    ->Args({10'000, 8})
    ->Args({100'000, 4})
    ->Unit(benchmark::kMillisecond);

void BM_SimulatedSecond(benchmark::State& state) {
  // Cost of one virtual second of the full 60-node simulation, codec and
  // network model included (the unit the figure benches are made of).
  for (auto _ : state) {
    state.PauseTiming();
    core::ScenarioParams p;
    p.n = 60;
    p.senders = 4;
    p.offered_rate = 30.0;
    p.adaptive = state.range(0) == 1;
    p.gossip.gossip_period = 2000;
    p.gossip.max_events = 120;
    p.warmup = 0;
    p.duration = 1000;
    p.cooldown = 0;
    core::Scenario s(p);
    state.ResumeTiming();
    auto r = s.run();
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_SimulatedSecond)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
