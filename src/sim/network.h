// Simulated best-effort datagram network.
//
// Substitutes for the paper's Ethernet LAN of 60 workstations: point-to-point
// datagrams with a pluggable latency distribution, a pluggable loss process
// (i.i.d. or bursty Gilbert-Elliott, since the paper notes that correlated
// loss hurts gossip), pairwise partitions and per-node crash/recover. All
// randomness is drawn from one seeded Rng, so runs are deterministic.
#pragma once

#include <cstdint>
#include <memory>
#include <set>
#include <unordered_map>
#include <utility>

#include "common/datagram.h"
#include "common/rng.h"
#include "common/types.h"
#include "fault/fault_plane.h"
#include "sim/delay_sampler.h"
#include "sim/simulator.h"

namespace agb::sim {

/// Loss process for datagrams. kBurst is a two-state Gilbert-Elliott chain:
/// in the good state packets drop with p_good, in the bad state with p_bad;
/// transitions good->bad with p_gb and bad->good with p_bg per packet.
struct LossModel {
  enum class Kind { kNone, kIid, kBurst };
  Kind kind = Kind::kNone;
  double p = 0.0;      // iid drop probability
  double p_good = 0.0;
  double p_bad = 0.9;
  double p_gb = 0.01;
  double p_bg = 0.2;

  static LossModel none() { return {}; }
  static LossModel iid(double drop_probability) {
    LossModel m;
    m.kind = Kind::kIid;
    m.p = drop_probability;
    return m;
  }
  static LossModel burst(double p_good, double p_bad, double p_gb,
                         double p_bg) {
    LossModel m;
    m.kind = Kind::kBurst;
    m.p_good = p_good;
    m.p_bad = p_bad;
    m.p_gb = p_gb;
    m.p_bg = p_bg;
    return m;
  }

  /// Samples one packet: true = drop. kBurst first advances the caller's
  /// Gilbert-Elliott chain state `bad` once, then samples the state's drop
  /// probability. Every fabric keeps its own chain state and Rng and calls
  /// this per (datagram, target); kNone draws nothing, and neither does a
  /// probability of 0 (Rng::bernoulli short-circuits).
  [[nodiscard]] bool drop(Rng& rng, bool& bad) const {
    switch (kind) {
      case Kind::kNone:
        return false;
      case Kind::kIid:
        return rng.bernoulli(p);
      case Kind::kBurst:
        if (bad) {
          if (rng.bernoulli(p_bg)) bad = false;
        } else {
          if (rng.bernoulli(p_gb)) bad = true;
        }
        return rng.bernoulli(bad ? p_bad : p_good);
    }
    return false;
  }
};

struct NetworkParams {
  LatencyModel latency = LatencyModel::fixed(1.0);
  LossModel loss = LossModel::none();

  /// WAN topology (the setting of directional gossip, paper §5): when
  /// clusters > 1, node i belongs to cluster i % clusters and every link
  /// crossing a cluster boundary samples `wan_latency` instead of
  /// `latency` (which keeps modelling the intra-cluster LAN hop). A plain
  /// membership rule, not a per-pair table — O(1) per send at any n.
  std::size_t clusters = 1;
  LatencyModel wan_latency = LatencyModel::uniform(20.0, 60.0);
};

/// The datagram ledger every fabric reports: sim::SimNetwork, the sharded
/// engine's per-shard networks and runtime::InMemoryFabric. A counter a
/// fabric cannot measure stays at zero (see each field).
struct NetworkStats {
  std::uint64_t sent = 0;        // one per (batch, target) pair
  /// `sent`, split by the cluster rule: a (batch, target) pair whose
  /// endpoints share a cluster counts as intra, one that crosses a
  /// boundary as cross. With clusters <= 1 everything is intra. These are
  /// the WAN-traffic receipts of locality-biased target selection
  /// (directional gossip, paper §5).
  std::uint64_t sent_intra_cluster = 0;
  std::uint64_t sent_cross_cluster = 0;
  /// send_batch calls (a fan-out counts once). Zero on InMemoryFabric.
  std::uint64_t batches = 0;
  /// Simulator events scheduled for deliveries: same-delay targets of one
  /// batch share one event, so a fixed-latency fan-out of F costs 1, not F.
  /// Zero on InMemoryFabric, which has no event queue.
  std::uint64_t events_scheduled = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped_loss = 0;
  /// Symmetric partitions (SimNetwork::partition); zero elsewhere.
  std::uint64_t dropped_partition = 0;
  std::uint64_t dropped_down = 0;
  /// Receiver unknown or detached at delivery time; on InMemoryFabric also
  /// every datagram shutdown() discards.
  std::uint64_t dropped_detached = 0;
  /// Dropped by a fault-plane one-way partition rule (asymmetric: the
  /// reverse direction keeps flowing, unlike `dropped_partition`).
  std::uint64_t dropped_chaos = 0;
  std::uint64_t bytes_delivered = 0;
};

class SimNetwork final : public DatagramNetwork {
 public:
  SimNetwork(Simulator& sim, NetworkParams params, Rng rng);

  void attach(NodeId node, DatagramHandler handler) override;
  void detach(NodeId node) override;

  /// Loss/latency are sampled per target (per-target RNG draw order matches
  /// the old per-datagram path, so seeded runs are unchanged); stats run
  /// once per batch, and all targets that sampled the same delay are
  /// delivered by one simulator event.
  void send_batch(Multicast batch) override;

  /// Crash/recover: a down node neither sends nor receives.
  void set_node_up(NodeId node, bool up);
  [[nodiscard]] bool node_up(NodeId node) const;

  /// Symmetric pairwise partition control.
  void partition(NodeId a, NodeId b);
  void heal(NodeId a, NodeId b);
  void heal_all();
  [[nodiscard]] bool partitioned(NodeId a, NodeId b) const;

  /// Topology: overrides the default latency for one (symmetric) link —
  /// e.g. WAN links between clusters vs LAN links within them (the setting
  /// of directional gossip, paper §5). clear_link_latencies() reverts all.
  void set_link_latency(NodeId a, NodeId b, LatencyModel model);
  void clear_link_latencies();

  /// Fault injection (non-owning; may be null = clean run). A clean run
  /// takes the exact pre-fault code path — no extra RNG draws — so seeded
  /// traces and golden fingerprints are unchanged.
  void set_fault_plane(fault::FaultPlane* plane) noexcept {
    fault_plane_ = plane;
  }

  [[nodiscard]] const NetworkStats& stats() const noexcept { return stats_; }
  [[nodiscard]] Simulator& simulator() noexcept { return sim_; }
  [[nodiscard]] const DelaySampler& delay_sampler() const noexcept {
    return sampler_;
  }

 private:
  Simulator& sim_;
  NetworkParams params_;
  Rng rng_;
  /// Latency topology (default model, cluster rule, per-link overrides);
  /// shares precedence and draw semantics with InMemoryFabric.
  DelaySampler sampler_;
  std::unordered_map<NodeId, DatagramHandler> handlers_;
  std::set<NodeId> down_;
  std::set<std::pair<NodeId, NodeId>> partitions_;
  bool burst_bad_ = false;
  fault::FaultPlane* fault_plane_ = nullptr;
  NetworkStats stats_;
};

}  // namespace agb::sim
