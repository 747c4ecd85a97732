#include "gossip/event_buffer.h"

#include <algorithm>
#include <array>
#include <unordered_map>
#include <utility>

namespace agb::gossip {

namespace {

using Slot = EventBuffer::Slot;

/// Oldest first: age descending, then earliest insertion, as one key that
/// is higher for the older slot. fifo_seq is unique per slot, so this is a
/// total order and every selection by it has one answer.
std::pair<std::uint32_t, std::uint64_t> seniority(const Slot& s) {
  return {s.event.age, ~s.fifo_seq};
}

bool older(const Slot* a, const Slot* b) {
  return seniority(*a) > seniority(*b);
}

bool inserted_earlier(const Slot* a, const Slot* b) {
  return a->fifo_seq < b->fifo_seq;
}

/// Buckets of oldest_beyond's age histogram: one per age below the last,
/// which holds every older age. Live ages stay near the age limit k (12 in
/// the paper), so the last bucket is normally empty.
constexpr std::uint32_t kAgeBuckets = 64;

std::uint32_t age_bucket(const Slot* s) {
  return std::min(s->event.age, kAgeBuckets - 1);
}

/// in_insertion_order() places slots by insertion number while the live
/// numbers span at most this many times size(); a sparser buffer is sorted.
constexpr std::size_t kPlacedSpan = 4;

}  // namespace

bool EventBuffer::insert(Event event) {
  if (!index_.insert(event.id, static_cast<std::uint32_t>(slots_.size()))) {
    return false;
  }
  slots_.push_back(Slot{std::move(event), next_seq_++});
  return true;
}

bool EventBuffer::bump_age(const EventId& id, std::uint32_t age) {
  const std::uint32_t pos = index_.find(id);
  if (pos == EventIdTable::kAbsent) return false;
  auto& stored = slots_[pos].event;
  stored.age = std::max(stored.age, age);
  return true;
}

void EventBuffer::increment_ages() noexcept {
  for (auto& slot : slots_) ++slot.event.age;
}

std::span<const Event> EventBuffer::purge_age_limit(std::uint32_t max_age) {
  thread_local std::vector<Event> removed;
  removed.clear();
  for (std::size_t i = 0; i < slots_.size();) {
    if (slots_[i].event.age > max_age) {
      removed.push_back(std::move(slots_[i].event));
      erase_slot(i);
    } else {
      ++i;
    }
  }
  return removed;
}

std::span<const Event> EventBuffer::purge_superseded() {
  // Pass 1: per (origin, stream), the highest sequence carrying the
  // supersedes flag. Pass 2: evict everything older in that stream.
  std::unordered_map<std::uint64_t, std::uint64_t> horizon;
  auto key = [](const Event& e) {
    return (static_cast<std::uint64_t>(e.id.origin) << 32) | e.stream;
  };
  for (const auto& slot : slots_) {
    const Event& e = slot.event;
    if (!e.supersedes) continue;
    auto [it, inserted] = horizon.try_emplace(key(e), e.id.sequence);
    if (!inserted) it->second = std::max(it->second, e.id.sequence);
  }
  thread_local std::vector<Event> removed;
  removed.clear();
  if (horizon.empty()) return {};
  for (std::size_t i = 0; i < slots_.size();) {
    const Event& e = slots_[i].event;
    auto it = horizon.find(key(e));
    if (it != horizon.end() && e.id.sequence < it->second) {
      removed.push_back(std::move(slots_[i].event));
      erase_slot(i);
    } else {
      ++i;
    }
  }
  return removed;
}

std::span<const EventBuffer::Slot* const> EventBuffer::mark_lost_beyond(
    std::size_t keep) {
  const auto victims = select_oldest(keep, /*unmarked_only=*/true);
  for (const Slot* victim : victims) {
    slots_[static_cast<std::size_t>(victim - slots_.data())].lost = true;
  }
  return victims;
}

std::span<const EventBuffer::Slot* const> EventBuffer::select_oldest(
    std::size_t keep, bool unmarked_only) const {
  if (slots_.size() <= keep) return {};  // no pass when everything fits
  thread_local std::vector<const Slot*> candidates;
  candidates.clear();
  if (!unmarked_only && slots_.size() - keep == 1) {
    // One victim, what every broadcast into a full buffer evicts: one scan
    // that keeps the oldest key in registers.
    const Slot* oldest = &slots_.front();
    auto key = seniority(*oldest);
    for (const Slot& slot : slots_) {
      if (const auto k = seniority(slot); k > key) {
        key = k;
        oldest = &slot;
      }
    }
    candidates.push_back(oldest);
    return candidates;
  }
  // One pass: the candidates and a histogram of their age buckets.
  std::array<std::uint32_t, kAgeBuckets> in_bucket{};
  std::uint32_t top = 0;  // the highest candidate bucket
  for (const Slot& slot : slots_) {
    if (unmarked_only && slot.lost) continue;
    candidates.push_back(&slot);
    const std::uint32_t bucket = age_bucket(&slot);
    top = std::max(top, bucket);
    ++in_bucket[bucket];
  }
  if (candidates.size() <= keep) return {};
  const std::size_t victims = candidates.size() - keep;
  // The threshold bucket: every candidate above it is a victim, and the
  // remaining victims are the oldest in it (below the last bucket, the
  // earliest inserted at that age).
  std::uint32_t threshold = top;
  std::size_t above = 0;
  while (above + in_bucket[threshold] < victims) {
    above += in_bucket[threshold--];
  }
  const auto first = candidates.begin();
  const auto tied_end = std::partition(
      first, candidates.end(),
      [threshold](const Slot* s) { return age_bucket(s) >= threshold; });
  const auto tied = first + static_cast<std::ptrdiff_t>(above);
  std::partition(first, tied_end, [threshold](const Slot* s) {
    return age_bucket(s) > threshold;
  });
  const auto last = first + static_cast<std::ptrdiff_t>(victims);
  std::nth_element(tied, last, tied_end, older);
  std::sort(first, last, older);
  return {candidates.data(), victims};
}

void EventBuffer::erase_slot(std::size_t idx) {
  index_.erase(slots_[idx].event.id);
  if (idx != slots_.size() - 1) {
    slots_[idx] = std::move(slots_.back());
    index_.insert_or_assign(slots_[idx].event.id,
                            static_cast<std::uint32_t>(idx));
  }
  slots_.pop_back();
}

std::span<const Event> EventBuffer::shrink_to(std::size_t capacity) {
  // Reused across calls, like oldest_beyond's candidates: a warm buffer
  // evicts without allocating.
  thread_local std::vector<Event> removed;
  removed.clear();
  for (const Slot* victim : oldest_beyond(capacity)) {
    removed.push_back(victim->event);
  }
  // erase_slot() moves the last slot into the hole, so each victim is looked
  // up afresh. The order matters: for_each and purge_age_limit follow the
  // slot layout, which the golden traces pin.
  for (const Event& event : removed) erase_slot(index_.find(event.id));
  return removed;
}

std::span<const Event* const> EventBuffer::in_insertion_order() const {
  thread_local std::vector<const Event*> ordered;
  ordered.clear();
  if (slots_.empty()) return {};
  // fifo_seq numbers the slots by insertion, so while the live numbers are
  // dense each slot is placed at its offset from the oldest (the gaps
  // squeezed out after); a sparse buffer is sorted.
  const auto [lo, hi] = std::minmax_element(
      slots_.begin(), slots_.end(), [](const Slot& a, const Slot& b) {
        return a.fifo_seq < b.fifo_seq;
      });
  const std::uint64_t base = lo->fifo_seq;
  const std::uint64_t span = hi->fifo_seq - base + 1;
  if (span <= kPlacedSpan * slots_.size()) {
    ordered.assign(span, nullptr);
    for (const Slot& slot : slots_) ordered[slot.fifo_seq - base] = &slot.event;
    std::erase(ordered, nullptr);
    return ordered;
  }
  thread_local std::vector<const Slot*> sorted;
  sorted.clear();
  for (const Slot& slot : slots_) sorted.push_back(&slot);
  std::sort(sorted.begin(), sorted.end(), inserted_earlier);
  for (const Slot* slot : sorted) ordered.push_back(&slot->event);
  return ordered;
}

void EventBuffer::for_each(
    const std::function<void(const Event&)>& fn) const {
  for (const auto& slot : slots_) fn(slot.event);
}

}  // namespace agb::gossip
