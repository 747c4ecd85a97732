// Pluggable per-hop delay sampling: the latency half of sim::Link, which
// every fabric with a delay model sends through.
//
// A DelaySampler owns the full latency topology of a run: a default
// (intra-cluster) LatencyModel, the cluster rule with its WAN model, and an
// optional per-link override table. Both harnesses resolve a (from, to) pair
// through the same precedence — explicit per-link override > cluster rule >
// default — and sample the resolved model with the caller's Rng, so a preset
// that says `latency=normal:5:2` or pins one slow link means the same thing
// on the simulator and on real threads.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <utility>

#include "common/rng.h"
#include "common/types.h"

namespace agb::sim {

/// Latency distribution for one datagram hop.
struct LatencyModel {
  enum class Kind { kFixed, kUniform, kNormal };
  Kind kind = Kind::kFixed;
  double a = 1.0;  // fixed: delay; uniform: lo; normal: mean
  double b = 0.0;  // uniform: hi; normal: stddev

  static LatencyModel fixed(double delay_ms) {
    return {Kind::kFixed, delay_ms, 0.0};
  }
  static LatencyModel uniform(double lo_ms, double hi_ms) {
    return {Kind::kUniform, lo_ms, hi_ms};
  }
  static LatencyModel normal(double mean_ms, double stddev_ms) {
    return {Kind::kNormal, mean_ms, stddev_ms};
  }

  [[nodiscard]] DurationMs sample(Rng& rng) const;

  /// True when every sample is guaranteed to be 0 ms — the gate for the
  /// fabric's zero-delay fast path (which skips the delay queue and its RNG
  /// draw entirely).
  [[nodiscard]] bool always_zero() const noexcept {
    switch (kind) {
      case Kind::kFixed:
        return a <= 0.0;
      case Kind::kUniform:
        return a <= 0.0 && b <= 0.0;
      case Kind::kNormal:
        return false;
    }
    return false;
  }
};

/// Canonical key for a symmetric (unordered) node pair. Per-link latency
/// tables index on this, so (a,b) and (b,a) spellings always hit the same
/// entry.
[[nodiscard]] constexpr std::pair<NodeId, NodeId> symmetric_link_key(
    NodeId a, NodeId b) {
  return a < b ? std::pair{a, b} : std::pair{b, a};
}

class DelaySampler {
 public:
  DelaySampler() = default;
  DelaySampler(LatencyModel default_latency, std::size_t clusters,
               LatencyModel wan_latency)
      : default_(default_latency),
        wan_(wan_latency),
        clusters_(clusters == 0 ? 1 : clusters) {}

  void set_link_override(NodeId a, NodeId b, LatencyModel model) {
    overrides_[symmetric_link_key(a, b)] = model;
  }
  void clear_link_overrides() { overrides_.clear(); }

  /// The cluster rule (directional gossip, paper §5): node i belongs to
  /// cluster i % clusters; a link crossing a boundary is a WAN hop.
  [[nodiscard]] bool cross_cluster(NodeId from, NodeId to) const noexcept {
    return clusters_ > 1 && from % clusters_ != to % clusters_;
  }

  /// Precedence: explicit per-link override > cluster rule > default.
  [[nodiscard]] const LatencyModel& model_for(NodeId from, NodeId to) const {
    if (!overrides_.empty()) {
      auto it = overrides_.find(symmetric_link_key(from, to));
      if (it != overrides_.end()) return it->second;
    }
    return cross_cluster(from, to) ? wan_ : default_;
  }

  /// One delay draw for one (from, to) hop. Exactly the draws the resolved
  /// LatencyModel makes: 0 for fixed, 1 for uniform/normal — callers that
  /// pin seeded traces rely on this.
  [[nodiscard]] DurationMs sample(NodeId from, NodeId to, Rng& rng) const {
    return model_for(from, to).sample(rng);
  }

  /// True when no hop can ever be delayed.
  [[nodiscard]] bool always_zero() const noexcept {
    if (!default_.always_zero()) return false;
    if (clusters_ > 1 && !wan_.always_zero()) return false;
    for (const auto& [key, model] : overrides_) {
      if (!model.always_zero()) return false;
    }
    return true;
  }

  [[nodiscard]] std::size_t clusters() const noexcept { return clusters_; }

 private:
  LatencyModel default_ = LatencyModel::fixed(1.0);
  LatencyModel wan_ = LatencyModel::uniform(20.0, 60.0);
  std::size_t clusters_ = 1;
  std::map<std::pair<NodeId, NodeId>, LatencyModel> overrides_;
};

}  // namespace agb::sim
