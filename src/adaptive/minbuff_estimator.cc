#include "adaptive/minbuff_estimator.h"

#include <algorithm>
#include <utility>

namespace agb::adaptive {

MinBuffEstimator::MinBuffEstimator(std::size_t window,
                                   std::uint32_t local_capacity)
    : window_(std::max<std::size_t>(window, 1)),
      local_(local_capacity),
      running_(local_capacity) {}

void MinBuffEstimator::set_local_capacity(std::uint32_t capacity) {
  local_ = capacity;
  running_ = std::min(running_, capacity);
}

void MinBuffEstimator::advance_to(PeriodId p) {
  if (p <= period_) return;
  // A fresh period starts from local knowledge only; remote minima must be
  // re-learned, which is exactly what lets obsolete constraints expire. So a
  // gap of W or more leaves W-1 local-only periods: W pushes cover any gap.
  for (PeriodId i = std::min<PeriodId>(p - period_, window_); i > 0; --i)
    history_.push_front(std::exchange(running_, local_));
  while (history_.size() > window_ - 1) history_.pop_back();
  period_ = p;
}

void MinBuffEstimator::on_header(PeriodId p, std::uint32_t remote_min) {
  if (p > period_) advance_to(p);
  if (p == period_) running_ = std::min(running_, remote_min);
  // p < period_: stale header, ignore.
}

std::uint32_t MinBuffEstimator::estimate() const {
  std::uint32_t best = running_;
  for (std::uint32_t v : history_) best = std::min(best, v);
  return best;
}

}  // namespace agb::adaptive
