// Sample statistics and result output shared by every workload.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// A timing distribution as the benchmark reports it: the median, p99, the
/// sample count, and the highest percentile that still has at least
/// kTailSamples samples beyond it (0 when even the median has fewer).
struct Percentiles {
  static constexpr std::size_t kTailSamples = 10;
  std::size_t count = 0;
  double p50 = 0.0;
  double p99 = 0.0;
  double top_q = 0.0;  // e.g. 0.999 — the highest supported percentile
  double top = 0.0;    // its value
};

/// Nearest-rank percentiles of `samples` (taken by value: it is reordered).
[[nodiscard]] Percentiles percentiles(std::vector<double> samples);

[[nodiscard]] double median(std::vector<double> samples);

/// One named metric with its unit, as printed in the result line.
struct Metric {
  double value = 0.0;
  std::string unit;
};

/// Everything one invocation reports. `checks` lists failed correctness
/// checks; an empty list means every check passed.
struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
  std::map<std::string, Metric> metrics;
  std::map<std::string, double> info;  // extra figures for the record

  void check(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
  void put(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
};

/// The result as one JSON line: correct, attempted, failed, metrics, plus
/// the failed checks and the extra figures.
[[nodiscard]] std::string to_json(const RunResult& result);

}  // namespace perfbench
