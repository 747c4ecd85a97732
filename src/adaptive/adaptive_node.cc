#include "adaptive/adaptive_node.h"

namespace agb::adaptive {

AdaptiveLpbcastNode::AdaptiveLpbcastNode(
    NodeId self, gossip::GossipParams gossip_params,
    AdaptiveParams adaptive_params,
    std::unique_ptr<membership::Membership> membership, Rng rng)
    : gossip::LpbcastNode(self, gossip_params, std::move(membership), rng),
      params_(adaptive_params),
      min_buff_(adaptive_params.min_buff_window,
                static_cast<std::uint32_t>(gossip_params.max_events)),
      congestion_(adaptive_params.alpha, adaptive_params.critical_age),
      adapter_(adaptive_params, this->rng().split()),
      bucket_(adaptive_params.initial_rate, adaptive_params.bucket_capacity,
              0),
      avg_tokens_(adaptive_params.alpha, adaptive_params.bucket_capacity) {
  if (params_.robust_k > 1) {
    robust_ = std::make_unique<RobustMinEstimator>(
        params_.robust_k, params_.robust_floor, params_.min_buff_window,
        self, static_cast<std::uint32_t>(gossip_params.max_events));
  }
  if (params_.control.enabled) {
    // The control plane anchors on the same L/H marks the RateAdapter
    // throttles on, and starts its actuators at the configured values (the
    // LocalityView's p_local, the base fanout) so an idle plane is a no-op.
    auto* view = locality_view();
    control_ = std::make_unique<ControlPlane>(
        params_.control, params_.low_age_mark, params_.high_age_mark,
        gossip_params.fanout,
        view != nullptr ? view->p_local() : params_.control.p_local_max);
  }
}

bool AdaptiveLpbcastNode::try_broadcast(gossip::Payload payload, TimeMs now,
                                        EventId* out_id) {
  return try_broadcast_on_stream(std::move(payload), now, /*stream=*/0,
                                 /*supersedes=*/false, out_id);
}

bool AdaptiveLpbcastNode::try_broadcast_on_stream(gossip::Payload payload,
                                                  TimeMs now,
                                                  std::uint32_t stream,
                                                  bool supersedes,
                                                  EventId* out_id) {
  if (!bucket_.try_take(now)) return false;
  const EventId id =
      broadcast_on_stream(std::move(payload), now, stream, supersedes);
  if (out_id != nullptr) *out_id = id;
  return true;
}

PeriodId AdaptiveLpbcastNode::period_for(TimeMs now) const {
  return static_cast<PeriodId>(now / params_.sample_period);
}

void AdaptiveLpbcastNode::on_round_start(TimeMs now) {
  // Clock-driven period advance; message-driven advance happens in
  // process_header when a later-period header arrives first.
  min_buff_.advance_to(period_for(now));
  if (robust_) robust_->advance_to(period_for(now));

  // A full round without any virtual drop is evidence of spare capacity:
  // count it as a maximally-old sample so avgAge can rise above the high
  // mark and unlock rate increases (see AdaptiveParams::idle_age_boost).
  if (params_.idle_age_boost &&
      congestion_.observations() == observations_at_last_round_) {
    congestion_.idle_sample(static_cast<double>(params().max_age));
  }
  observations_at_last_round_ = congestion_.observations();

  // Sample the token level, then run one adaptation step (Fig. 5(c)).
  avg_tokens_.add(bucket_.level(now));
  const double new_rate =
      adapter_.update(congestion_.avg_age(), avg_tokens_.value());
  bucket_.set_rate(new_rate, now);

  // One control-plane step on the same signals: classify the regime, steer
  // p_local and the effective fanout (no-op while control.enabled = false).
  if (control_) {
    auto* view = locality_view();
    const ControlPlane::Actions actions = control_->tick(
        ControlPlane::Signals{congestion_.avg_age(), remote_novel_round_,
                              view != nullptr});
    remote_novel_round_ = 0.0;
    set_effective_fanout(actions.fanout);
    if (view != nullptr) view->set_p_local(actions.p_local);
  }
}

void AdaptiveLpbcastNode::augment_header(gossip::GossipMessage& message,
                                         TimeMs now) {
  min_buff_.advance_to(period_for(now));
  message.period = min_buff_.period();
  // The header advertises the *running* minimum for the current period, not
  // the windowed operational estimate: periods must stay independent so
  // obsolete constraints can expire (paper §3.1).
  message.min_buff = min_buff_.running_minimum();
  if (robust_) {
    robust_->advance_to(period_for(now));
    message.min_set = robust_->header_entries();
  }
}

void AdaptiveLpbcastNode::process_header(const gossip::GossipMessage& message,
                                         TimeMs now) {
  min_buff_.advance_to(period_for(now));
  min_buff_.on_header(message.period, message.min_buff);
  if (robust_) {
    robust_->advance_to(period_for(now));
    robust_->on_entries(message.period, message.min_set);
  }
}

void AdaptiveLpbcastNode::before_shrink(TimeMs /*now*/) {
  congestion_.observe(events(), min_buff());
}

void AdaptiveLpbcastNode::after_gc(TimeMs /*now*/) {
  congestion_.prune(events());
}

void AdaptiveLpbcastNode::on_capacity_change(TimeMs /*now*/) {
  const auto capacity = static_cast<std::uint32_t>(params().max_events);
  min_buff_.set_local_capacity(capacity);
  if (robust_) robust_->set_local_capacity(capacity);
}

void AdaptiveLpbcastNode::on_event_ingested(const gossip::Event& event,
                                            TimeMs /*now*/) {
  if (!control_) return;
  // Starvation signal: count novel events whose *origin* lives outside the
  // home cluster (with no locality view there is no cluster to starve, but
  // the count is still maintained so introspection stays meaningful).
  auto* view = locality_view();
  if (view == nullptr ||
      view->clusters().cluster_of(event.id.origin) != view->home_cluster()) {
    remote_novel_round_ += 1.0;
  }
}

}  // namespace agb::adaptive
