#include "adaptive/robust_min_estimator.h"

#include <algorithm>
#include <map>
#include <utility>

namespace agb::adaptive {

RobustMinEstimator::RobustMinEstimator(std::size_t k, std::uint32_t floor,
                                       std::size_t window, NodeId self,
                                       std::uint32_t local_capacity)
    : k_(std::max<std::size_t>(k, 1)),
      floor_(floor),
      window_(std::max<std::size_t>(window, 1)),
      self_(self),
      local_(local_capacity) {
  current_.push_back({self_, local_});
}

void RobustMinEstimator::merge_entry(
    Entries& entries, const gossip::MinSetEntry& entry) const {
  for (auto& existing : entries) {
    if (existing.node == entry.node) {
      existing.capacity = std::min(existing.capacity, entry.capacity);
      std::sort(entries.begin(), entries.end(),
                [](const auto& a, const auto& b) {
                  return a.capacity < b.capacity;
                });
      return;
    }
  }
  entries.push_back(entry);
  std::sort(entries.begin(), entries.end(),
            [](const auto& a, const auto& b) {
              return a.capacity < b.capacity;
            });
  trim(entries);
}

void RobustMinEstimator::trim(Entries& entries) const {
  // Keep the k smallest *usable* entries (at or above the floor — slots
  // spent on ignored outliers would starve the information that matters),
  // plus always this node's own entry so it keeps circulating.
  Entries kept;
  std::size_t usable = 0;
  for (const auto& entry : entries) {  // sorted by capacity ascending
    if (entry.node == self_) {
      kept.push_back(entry);
      continue;
    }
    if (floor_ > 0 && entry.capacity < floor_) continue;
    if (usable < k_) {
      kept.push_back(entry);
      ++usable;
    }
  }
  std::sort(kept.begin(), kept.end(),
            [](const auto& a, const auto& b) {
              return a.capacity < b.capacity;
            });
  entries = std::move(kept);
}

void RobustMinEstimator::set_local_capacity(std::uint32_t capacity) {
  local_ = capacity;
  bool found = false;
  for (auto& entry : current_) {
    if (entry.node == self_) {
      // Shrinks apply immediately; growth shows when the window rolls over,
      // mirroring MinBuffEstimator's semantics.
      entry.capacity = std::min(entry.capacity, capacity);
      found = true;
    }
  }
  if (!found) merge_entry(current_, {self_, capacity});
}

void RobustMinEstimator::advance_to(PeriodId p) {
  if (p <= period_) return;
  // As in MinBuffEstimator, W pushes cover any gap.
  for (PeriodId i = std::min<PeriodId>(p - period_, window_); i > 0; --i)
    history_.push_front(std::exchange(current_, Entries{{self_, local_}}));
  while (history_.size() > window_ - 1) history_.pop_back();
  period_ = p;
}

void RobustMinEstimator::on_entries(
    PeriodId p, std::span<const gossip::MinSetEntry> entries) {
  if (p > period_) advance_to(p);
  if (p != period_) return;  // stale
  for (const auto& entry : entries) {
    if (entry.node == kInvalidNode) continue;
    merge_entry(current_, entry);
  }
}

std::vector<gossip::MinSetEntry> RobustMinEstimator::header_entries() const {
  return current_;
}

std::uint32_t RobustMinEstimator::estimate() const {
  // Merge all window periods: per node, its smallest advertised capacity.
  std::map<NodeId, std::uint32_t> merged;
  auto fold = [&](const Entries& entries) {
    for (const auto& entry : entries) {
      auto [it, inserted] = merged.try_emplace(entry.node, entry.capacity);
      if (!inserted) it->second = std::min(it->second, entry.capacity);
    }
  };
  fold(current_);
  for (const auto& entries : history_) fold(entries);

  std::vector<std::uint32_t> capacities;
  capacities.reserve(merged.size());
  for (const auto& [node, capacity] : merged) {
    if (floor_ > 0 && capacity < floor_) continue;  // outlier: ignored
    capacities.push_back(capacity);
  }
  if (capacities.empty()) return local_;
  std::sort(capacities.begin(), capacities.end());
  const std::size_t idx = std::min(k_ - 1, capacities.size() - 1);
  return capacities[idx];
}

}  // namespace agb::adaptive
