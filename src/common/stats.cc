#include "common/stats.h"

#include <algorithm>
#include <cmath>

namespace agb {

void RunningStats::add(double x) noexcept {
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

double RunningStats::variance() const noexcept {
  return count_ < 2 ? 0.0 : m2_ / static_cast<double>(count_ - 1);
}

double RunningStats::stddev() const noexcept { return std::sqrt(variance()); }

double SampleSet::mean() const noexcept {
  if (samples_.empty()) return 0.0;
  double sum = 0.0;
  for (double s : samples_) sum += s;
  return sum / static_cast<double>(samples_.size());
}

double SampleSet::quantile(double q) const {
  if (samples_.empty()) return 0.0;
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
  q = std::clamp(q, 0.0, 1.0);
  const double pos = q * static_cast<double>(samples_.size() - 1);
  const auto idx = static_cast<std::size_t>(pos);
  const double frac = pos - static_cast<double>(idx);
  if (idx + 1 >= samples_.size()) return samples_.back();
  return samples_[idx] * (1.0 - frac) + samples_[idx + 1] * frac;
}

}  // namespace agb
