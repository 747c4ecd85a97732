#include "stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

namespace {

/// Nearest-rank quantile q in [0, 1] of unsorted samples (reorders them).
double quantile(std::vector<double>& samples, double q) {
  if (samples.empty()) return 0.0;
  // Nearest rank: the smallest sample with at least q*N samples at or
  // below it.
  const auto n = samples.size();
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  auto it = samples.begin() + static_cast<std::ptrdiff_t>(rank - 1);
  std::nth_element(samples.begin(), it, samples.end());
  return *it;
}

}  // namespace

Percentiles percentiles(std::vector<double> samples) {
  Percentiles p;
  p.count = samples.size();
  if (samples.empty()) return p;
  p.p50 = quantile(samples, 0.5);
  p.p99 = quantile(samples, 0.99);
  const auto n = static_cast<double>(samples.size());
  for (double q : {0.5, 0.9, 0.99, 0.999, 0.9999, 0.99999}) {
    // Samples strictly beyond the q-quantile's rank.
    const double beyond = n - std::ceil(q * n);
    if (beyond + 1e-9 < static_cast<double>(Percentiles::kTailSamples)) break;
    p.top_q = q;
  }
  if (p.top_q > 0.0) p.top = quantile(samples, p.top_q);
  return p;
}

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t mid = samples.size() / 2;
  return samples.size() % 2 == 1 ? samples[mid]
                                 : (samples[mid - 1] + samples[mid]) / 2.0;
}

namespace {

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
  }
  return out + "\"";
}

}  // namespace

std::string to_json(const RunResult& r) {
  std::string out = "{\"correct\": ";
  out += r.failures.empty() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : r.metrics) {
    out += (first ? "" : ", ") + quoted(name) + ": {\"value\": " +
           number(m.value) + ", \"unit\": " + quoted(m.unit) + "}";
    first = false;
  }
  out += "}, \"failures\": [";
  first = true;
  for (const auto& f : r.failures) {
    out += (first ? "" : ", ") + quoted(f);
    first = false;
  }
  out += "], \"info\": {";
  first = true;
  for (const auto& [name, v] : r.info) {
    out += (first ? "" : ", ") + quoted(name) + ": " + number(v);
    first = false;
  }
  return out + "}}";
}

}  // namespace perfbench
