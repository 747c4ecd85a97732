// Datagram abstraction shared by the simulated network and the real
// transports.
//
// Protocol nodes are sans-I/O state machines; a *driver* (simulation harness
// or runtime) moves serialized datagrams between them. Both the simulator
// (src/sim) and the real transports (src/runtime) implement DatagramNetwork,
// so the exact same protocol code and wire codec run in both worlds.
//
// The interface is batch-first: a gossip round is inherently fan-out shaped
// (the *same* encoded message to F targets), so the one virtual send entry
// point is send_batch(Multicast). Fabrics amortise whatever is expensive for
// them — locking, stats, simulator events, syscalls — across the whole
// batch; the per-datagram send() is a non-virtual convenience wrapper over a
// one-target batch, so there is exactly one code path to test and tune.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "common/shared_bytes.h"
#include "common/types.h"

namespace agb {

/// An unreliable, unordered, point-to-point message (UDP semantics).
///
/// The payload is a SharedBytes: a batch fanned out to F targets encodes
/// once and every copy of the datagram — in flight, queued, delivered —
/// aliases the same buffer. Networks must never mutate it.
struct Datagram {
  NodeId from = kInvalidNode;
  NodeId to = kInvalidNode;
  SharedBytes payload;
};

/// One encoded payload addressed to many targets — a whole gossip fan-out.
/// Loss, latency and delivery stay *per target* (UDP semantics are
/// unchanged); only the bookkeeping around them is amortised.
struct Multicast {
  NodeId from = kInvalidNode;
  std::vector<NodeId> targets;
  SharedBytes payload;
};

/// Receives datagrams addressed to one node.
using DatagramHandler =
    std::function<void(const Datagram& datagram, TimeMs now)>;

/// Receives a whole inbound burst for one node: `count >= 1` datagrams, all
/// with the same `to`, in arrival order. The array is only valid for the
/// duration of the call. Fabrics with a batched receive path (recvmmsg
/// drains, sharded dispatch) hand a burst over in one call so the receiver
/// pays its per-delivery costs (state lock, wakeup) once per burst instead
/// of once per datagram.
using BatchHandler = std::function<void(const Datagram* batch,
                                        std::size_t count, TimeMs now)>;

/// Best-effort datagram fabric. Implementations: sim::SimNetwork (virtual
/// time, the sim::Link loss/latency/fault model) and runtime transports
/// (in-memory threaded fabric, UDP sockets).
class DatagramNetwork {
 public:
  virtual ~DatagramNetwork() = default;

  /// Registers the handler invoked when a datagram arrives for `node`.
  /// A node must be attached before anyone sends to it.
  virtual void attach(NodeId node, DatagramHandler handler) = 0;

  /// Batch counterpart of attach(): the handler sees whole inbound bursts.
  /// The default adapter delivers every datagram as a burst of one through
  /// attach(), preserving per-datagram semantics on fabrics without native
  /// batch ingestion (e.g. the simulator); the runtime fabrics override it.
  virtual void attach_batch(NodeId node, BatchHandler handler) {
    attach(node, [handler = std::move(handler)](const Datagram& datagram,
                                                TimeMs now) {
      handler(&datagram, 1, now);
    });
  }

  /// Removes a node; datagrams in flight to it are dropped.
  virtual void detach(NodeId node) = 0;

  /// Sends `batch.payload` best-effort to every target; any target's copy
  /// may be silently dropped (loss, partition, detach). The single virtual
  /// send entry point.
  virtual void send_batch(Multicast batch) = 0;

  /// Point-to-point convenience: a one-target batch.
  void send(Datagram datagram) {
    send_batch(Multicast{datagram.from,
                         std::vector<NodeId>{datagram.to},
                         std::move(datagram.payload)});
  }
};

}  // namespace agb
