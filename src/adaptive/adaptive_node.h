// The adaptive gossip-based broadcast node — the paper's contribution
// (Fig. 5), assembled from the three mechanisms:
//
//   MinBuffEstimator     distributed discovery of the smallest buffer,
//   CongestionEstimator  local virtual-drop accounting against minBuff,
//   RateAdapter          threshold/usage-gated multiplicative rate control,
//
// layered onto the baseline gossip::LpbcastNode via its protocol hooks. The
// sender side is gated by a token bucket whose refill rate is the adapter's
// output; try_broadcast() is the rate-limited entry point (the paper's
// BROADCAST blocks on tokens; drivers queue instead of blocking).
#pragma once

#include <memory>

#include "adaptive/congestion_estimator.h"
#include "adaptive/control_plane.h"
#include "adaptive/minbuff_estimator.h"
#include "adaptive/params.h"
#include "adaptive/rate_adapter.h"
#include "adaptive/robust_min_estimator.h"
#include "common/moving_average.h"
#include "flowcontrol/token_bucket.h"
#include "gossip/lpbcast_node.h"
#include "membership/locality_view.h"

namespace agb::adaptive {

class AdaptiveLpbcastNode final : public gossip::LpbcastNode {
 public:
  AdaptiveLpbcastNode(NodeId self, gossip::GossipParams gossip_params,
                      AdaptiveParams adaptive_params,
                      std::unique_ptr<membership::Membership> membership,
                      Rng rng);

  /// Rate-gated broadcast: consumes a token or refuses. Callers queue
  /// refused messages and retry (see core::ScenarioGroup's sender queues).
  bool try_broadcast(gossip::Payload payload, TimeMs now,
                     EventId* out_id = nullptr);

  /// Rate-gated broadcast with semantic metadata (see Event::stream).
  bool try_broadcast_on_stream(gossip::Payload payload, TimeMs now,
                               std::uint32_t stream, bool supersedes,
                               EventId* out_id = nullptr);

  /// True when try_broadcast would be admitted right now (a whole token is
  /// available). Non-consuming: pending-queue drivers use it to avoid
  /// moving a payload into a call that would refuse it.
  [[nodiscard]] bool tokens_available(TimeMs now) noexcept {
    return bucket_.level(now) >= 1.0;
  }

  // Introspection for metrics, tests and benches.
  [[nodiscard]] double allowed_rate() const noexcept {
    return adapter_.rate();
  }
  [[nodiscard]] double avg_age() const noexcept {
    return congestion_.avg_age();
  }
  [[nodiscard]] double avg_tokens() const noexcept {
    return avg_tokens_.value();
  }
  /// The adaptation threshold actually in use: the plain group minimum, or
  /// the robust k-th smallest when robust_k > 1.
  [[nodiscard]] std::uint32_t min_buff() const {
    return robust_ ? robust_->estimate() : min_buff_.estimate();
  }
  [[nodiscard]] PeriodId sample_period() const noexcept {
    return min_buff_.period();
  }
  [[nodiscard]] const AdaptiveParams& adaptive_params() const noexcept {
    return params_;
  }

  /// The feedback layer, when AdaptiveParams::control.enabled; nullptr
  /// otherwise (and then nothing else in the node behaves differently).
  [[nodiscard]] const ControlPlane* control_plane() const noexcept {
    return control_.get();
  }

  /// The live p_local of the node's LocalityView, or -1 when the node runs
  /// without locality (no cluster bias to steer).
  [[nodiscard]] double p_local() noexcept {
    auto* view = locality_view();
    return view != nullptr ? view->p_local() : -1.0;
  }

 protected:
  void on_round_start(TimeMs now) override;
  void augment_header(gossip::GossipMessage& message, TimeMs now) override;
  void process_header(const gossip::GossipMessage& message,
                      TimeMs now) override;
  void before_shrink(TimeMs now) override;
  void after_gc(TimeMs now) override;
  /// Dynamic resources: the running per-period minimum the node advertises
  /// follows the new real bound.
  void on_capacity_change(TimeMs now) override;
  void on_event_ingested(const gossip::Event& event, TimeMs now) override;

 private:
  [[nodiscard]] PeriodId period_for(TimeMs now) const;

  AdaptiveParams params_;
  MinBuffEstimator min_buff_;
  std::unique_ptr<RobustMinEstimator> robust_;  // only when robust_k > 1
  CongestionEstimator congestion_;
  RateAdapter adapter_;
  flowcontrol::TokenBucket bucket_;
  Ewma avg_tokens_;
  std::size_t observations_at_last_round_ = 0;
  std::unique_ptr<ControlPlane> control_;  // only when control.enabled
  /// Novel remote-cluster-origin events seen since the last round started
  /// (the control plane's starvation signal; reset every tick).
  double remote_novel_round_ = 0.0;
};

}  // namespace agb::adaptive
