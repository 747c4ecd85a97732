#include "adaptive/congestion_estimator.h"

namespace agb::adaptive {

CongestionEstimator::CongestionEstimator(double alpha, double initial_age)
    : avg_age_(alpha, initial_age) {}

void CongestionEstimator::observe(gossip::EventBuffer& events,
                                  std::size_t min_buff) {
  // "while |events - lost| > minBuff: select oldest element e from
  //  events - lost; avgAge <- alpha*avgAge + (1-alpha)*e.age; lost += {e}"
  // The loop's picks are the events beyond the minBuff youngest of
  // events - lost, oldest first, which one selection yields in order.
  for (const gossip::EventBuffer::Slot* victim :
       events.mark_lost_beyond(min_buff)) {
    avg_age_.add(static_cast<double>(victim->event.age));
  }
}

}  // namespace agb::adaptive
