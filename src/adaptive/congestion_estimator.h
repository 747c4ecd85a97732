// Local estimation of congestion (paper Fig. 5(b)).
//
// Given minBuff (the estimated size of the smallest buffer in the group),
// each node simulates the drops that a node with *exactly* minBuff slots
// would be performing on the node's own traffic: whenever the buffered
// events not yet marked lost outnumber minBuff, the oldest such events are
// virtually discarded — marked lost on their buffer slots — and their ages
// folded into the EWMA avgAge. The node keeps using its full real buffer —
// the virtual drops are pure accounting — so reliability still benefits
// from larger local buffers (paper §3.2, validated by the dynamic-buffer
// experiment). The buffer picks and marks the victims in the same
// oldest-first selection that enforces its real bound
// (gossip::EventBuffer::settle_overflow, called once per received
// message); the marks live and die with the slots, so the estimator holds
// no set of its own: only the average.
#pragma once

#include "common/moving_average.h"
#include "common/types.h"
#include "gossip/event.h"

namespace agb::adaptive {

class CongestionEstimator {
 public:
  /// `alpha` weights history in the EWMA (paper: 0.9); `initial_age` seeds
  /// avgAge so the controller is neutral before the first observation.
  CongestionEstimator(double alpha, double initial_age)
      : avg_age_(alpha, initial_age) {}

  /// Folds the age of one virtual drop into avgAge (Fig. 5(b)'s "avgAge <-
  /// alpha*avgAge + (1-alpha)*e.age"). Call it for each event
  /// EventBuffer::settle_overflow marks lost against minBuff, in the order
  /// it marks them: oldest first, ties by insertion.
  void observe(const gossip::Event& dropped) {
    avg_age_.add(static_cast<double>(dropped.age));
  }

  /// Folds an "uncongested" pseudo-sample into avgAge. The paper's update
  /// rule only fires on virtual drops, so a system with *no* drops at all
  /// (deep under capacity) would freeze avgAge and never allow the rate to
  /// grow; drivers call this once per drop-free round with the age-limit k
  /// ("everything lives to full dissemination") to restore liveness. See
  /// AdaptiveParams::idle_age_boost.
  void idle_sample(double age) { avg_age_.add(age); }

  [[nodiscard]] double avg_age() const noexcept { return avg_age_.value(); }
  [[nodiscard]] std::size_t observations() const noexcept {
    return avg_age_.samples();
  }

  void reset(double initial_age) { avg_age_.reset(initial_age); }

 private:
  Ewma avg_age_;
};

}  // namespace agb::adaptive
