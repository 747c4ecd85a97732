// Exponentially weighted moving average.
//
// The adaptation mechanism (paper §3.2, §3.3) smooths two signals with an
// exponentially weighted moving average: the age of virtually-dropped
// messages (avgAge) and the token-bucket fill level (avgTokens). The paper's
// update rule is  avg <- alpha * avg + (1 - alpha) * sample  with alpha
// "close to 1" (0.9 in their experiments).
#pragma once

#include <cstddef>

namespace agb {

/// Exponentially weighted moving average, seeded with an initial value so
/// the controller has a sane estimate before the first sample arrives.
class Ewma {
 public:
  /// alpha is the weight of history; must be in [0, 1].
  Ewma(double alpha, double initial) noexcept
      : alpha_(alpha), value_(initial) {}

  void add(double sample) noexcept {
    value_ = alpha_ * value_ + (1.0 - alpha_) * sample;
    ++count_;
  }

  [[nodiscard]] double value() const noexcept { return value_; }
  [[nodiscard]] std::size_t samples() const noexcept { return count_; }
  [[nodiscard]] double alpha() const noexcept { return alpha_; }

  /// Re-seeds the average (used when reconfiguring a running node).
  void reset(double value) noexcept {
    value_ = value;
    count_ = 0;
  }

 private:
  double alpha_;
  double value_;
  std::size_t count_ = 0;
};

}  // namespace agb
