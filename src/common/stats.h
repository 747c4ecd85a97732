// Summary statistics used by the metrics layer and the benchmark harness.
#pragma once

#include <cstddef>
#include <limits>
#include <vector>

namespace agb {

/// Streaming accumulator: count, mean, variance (Welford), min, max.
class RunningStats {
 public:
  void add(double x) noexcept;

  [[nodiscard]] std::size_t count() const noexcept { return count_; }
  [[nodiscard]] double mean() const noexcept {
    return count_ == 0 ? 0.0 : mean_;
  }
  [[nodiscard]] double variance() const noexcept;
  [[nodiscard]] double stddev() const noexcept;
  [[nodiscard]] double min() const noexcept {
    return count_ == 0 ? 0.0 : min_;
  }
  [[nodiscard]] double max() const noexcept {
    return count_ == 0 ? 0.0 : max_;
  }
  [[nodiscard]] double sum() const noexcept { return mean_ * count_; }

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Retains all samples; supports exact quantiles. Only used offline
/// (experiment post-processing), never on protocol hot paths.
class SampleSet {
 public:
  void add(double x) { samples_.push_back(x); }
  void reserve(std::size_t n) { samples_.reserve(n); }

  [[nodiscard]] std::size_t count() const noexcept { return samples_.size(); }
  [[nodiscard]] double mean() const noexcept;
  /// Quantile in [0, 1] with linear interpolation. Returns 0 when empty.
  [[nodiscard]] double quantile(double q) const;
  [[nodiscard]] double median() const { return quantile(0.5); }
  [[nodiscard]] const std::vector<double>& samples() const noexcept {
    return samples_;
  }

 private:
  mutable std::vector<double> samples_;
  mutable bool sorted_ = false;
};

}  // namespace agb
