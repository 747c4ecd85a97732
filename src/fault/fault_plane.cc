#include "fault/fault_plane.h"

#include <algorithm>
#include <utility>

namespace agb::fault {
namespace {

constexpr std::size_t kCorpusCap = 64;

bool in_window(const FaultRule& rule, TimeMs now) noexcept {
  return now >= rule.start && now < rule.end;
}

}  // namespace

TimeMs ChaosSchedule::last_window_end() const noexcept {
  TimeMs latest = 0;
  for (const FaultRule& rule : rules) {
    if (rule.end != kNoEnd) latest = std::max(latest, rule.end);
  }
  return latest;
}

bool ChaosSchedule::corrupts() const noexcept {
  return std::any_of(rules.begin(), rules.end(), [](const FaultRule& r) {
    return r.kind == FaultKind::kCorrupt || r.kind == FaultKind::kTruncate;
  });
}

bool ChaosSchedule::gray() const noexcept {
  return std::any_of(rules.begin(), rules.end(), [](const FaultRule& r) {
    return r.kind == FaultKind::kStall || r.kind == FaultKind::kSkew;
  });
}

bool ChaosSchedule::asymmetric() const noexcept {
  return std::any_of(rules.begin(), rules.end(), [](const FaultRule& r) {
    return r.kind == FaultKind::kOneWay;
  });
}

FaultStats& FaultStats::operator+=(const FaultStats& other) noexcept {
  corrupted += other.corrupted;
  truncated += other.truncated;
  duplicated += other.duplicated;
  reordered += other.reordered;
  dropped_oneway += other.dropped_oneway;
  stalls += other.stalls;
  skew_reads += other.skew_reads;
  return *this;
}

FaultPlane::FaultPlane(ChaosSchedule schedule, std::uint64_t seed)
    : schedule_(std::move(schedule)), rng_(seed) {}

FaultAction FaultPlane::sample(NodeId from, NodeId to, TimeMs now) {
  FaultAction action;
  std::lock_guard<std::mutex> lock(mutex_);
  for (const FaultRule& rule : schedule_.rules) {
    if (!in_window(rule, now)) continue;
    switch (rule.kind) {
      case FaultKind::kOneWay:
        if (rule.a == from && (rule.b == kAnyNode || rule.b == to)) {
          action.drop = true;
        }
        break;
      case FaultKind::kCorrupt:
        if (rng_.bernoulli(rule.rate)) action.corrupt = true;
        break;
      case FaultKind::kTruncate:
        if (rng_.bernoulli(rule.rate)) action.truncate = true;
        break;
      case FaultKind::kDuplicate:
        if (rng_.bernoulli(rule.rate)) ++action.duplicates;
        break;
      case FaultKind::kReorder:
        if (rng_.bernoulli(rule.rate)) {
          const DurationMs cap = std::max<DurationMs>(1, rule.amount);
          action.extra_delay +=
              1 + static_cast<DurationMs>(
                      rng_.next_below(static_cast<std::uint64_t>(cap)));
        }
        break;
      case FaultKind::kStall:
      case FaultKind::kSkew:
        break;  // gray failures are probed per node, not per datagram
    }
  }
  // A one-way drop wins: the datagram never leaves, so nothing else that was
  // sampled for it can be observed.
  if (action.drop) {
    dropped_oneway_.fetch_add(1, std::memory_order_relaxed);
    return FaultAction{.drop = true};
  }
  if (action.corrupt) corrupted_.fetch_add(1, std::memory_order_relaxed);
  if (action.truncate) truncated_.fetch_add(1, std::memory_order_relaxed);
  if (action.duplicates > 0) {
    duplicated_.fetch_add(static_cast<std::uint64_t>(action.duplicates),
                          std::memory_order_relaxed);
  }
  if (action.extra_delay > 0) {
    reordered_.fetch_add(1, std::memory_order_relaxed);
  }
  return action;
}

SharedBytes FaultPlane::mutate(const SharedBytes& payload,
                               const FaultAction& action) {
  std::vector<std::uint8_t> bytes(payload.begin(), payload.end());
  std::lock_guard<std::mutex> lock(mutex_);
  if (action.truncate && !bytes.empty()) {
    bytes.resize(static_cast<std::size_t>(rng_.next_below(bytes.size())));
  }
  if (action.corrupt && !bytes.empty()) {
    const std::uint64_t flips = 1 + rng_.next_below(4);
    for (std::uint64_t f = 0; f < flips; ++f) {
      const auto pos = static_cast<std::size_t>(rng_.next_below(bytes.size()));
      // XOR with a non-zero mask so every flip really changes the byte.
      bytes[pos] ^= static_cast<std::uint8_t>(1 + rng_.next_below(255));
    }
  }
  if (corpus_.size() < kCorpusCap) corpus_.push_back(bytes);
  return SharedBytes(std::move(bytes));
}

DurationMs FaultPlane::stall_for(NodeId node, TimeMs now) {
  DurationMs total = 0;
  for (const FaultRule& rule : schedule_.rules) {
    if (rule.kind == FaultKind::kStall && rule.a == node &&
        in_window(rule, now)) {
      total += rule.amount;
    }
  }
  if (total > 0) stalls_.fetch_add(1, std::memory_order_relaxed);
  return total;
}

DurationMs FaultPlane::clock_skew(NodeId node, TimeMs now) {
  DurationMs total = 0;
  for (const FaultRule& rule : schedule_.rules) {
    if (rule.kind == FaultKind::kSkew && rule.a == node &&
        in_window(rule, now)) {
      total += rule.amount;
    }
  }
  if (total > 0) skew_reads_.fetch_add(1, std::memory_order_relaxed);
  return total;
}

FaultStats FaultPlane::stats() const {
  FaultStats s;
  s.corrupted = corrupted_.load(std::memory_order_relaxed);
  s.truncated = truncated_.load(std::memory_order_relaxed);
  s.duplicated = duplicated_.load(std::memory_order_relaxed);
  s.reordered = reordered_.load(std::memory_order_relaxed);
  s.dropped_oneway = dropped_oneway_.load(std::memory_order_relaxed);
  s.stalls = stalls_.load(std::memory_order_relaxed);
  s.skew_reads = skew_reads_.load(std::memory_order_relaxed);
  return s;
}

std::vector<std::vector<std::uint8_t>> FaultPlane::corpus() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return corpus_;
}

}  // namespace agb::fault
