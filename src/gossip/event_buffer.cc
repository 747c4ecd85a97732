#include "gossip/event_buffer.h"

#include <algorithm>
#include <array>
#include <unordered_map>
#include <utility>

namespace agb::gossip {

namespace {

/// Oldest first: age descending, then earliest insertion, as one key that
/// is higher for the older slot. Insertion numbers are unique per slot, so
/// this is a total order and every selection by it has one answer.
template <class Slot>
std::pair<std::uint32_t, std::uint64_t> seniority(const Slot& s) {
  return {s.event.age, ~s.seq()};
}

template <class Slot>
bool older(const Slot* a, const Slot* b) {
  return seniority(*a) > seniority(*b);
}

/// Buckets of the selection's age counts: one per age below the last,
/// which holds every older age. Live ages stay near the age limit k (12 in
/// the paper), so the last bucket is normally empty.
constexpr std::uint32_t kAgeBuckets = 64;

std::uint32_t age_bucket(const Event& e) {
  return std::min(e.age, kAgeBuckets - 1);
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

EventBuffer::Overflow EventBuffer::settle_overflow(
    std::size_t capacity, std::size_t keep_unmarked, bool semantic_purge,
    const std::function<void(const Event&)>& on_mark) {
  // Reused across calls, like the selection's candidates: a warm buffer
  // settles without allocating.
  thread_local std::vector<Event> evicted;
  evicted.clear();
  Overflow out;
  const std::size_t evict =
      slots_.size() > capacity ? slots_.size() - capacity : 0;
  const Selection selection = select_oldest(evict, keep_unmarked);
  std::size_t marked = 0;
  for (Slot* slot : selection.prefix) {
    if (marked == selection.marks) break;
    if (slot->lost()) continue;
    slot->fifo_seq |= kLost;
    ++marked;
    if (on_mark) on_mark(slot->event);
  }
  if (evict == 0) return out;
  const auto victims = selection.prefix.first(evict);
  if (semantic_purge) {
    // The purge moves slots, so the prefix is named by id across it. It
    // only removes entries, so the survivors' own oldest are the first
    // survivors of the prefix, and `evict` minus the purged count of them
    // are still needed.
    thread_local std::vector<EventId> doomed;
    doomed.clear();
    for (const Slot* slot : victims) doomed.push_back(slot->event.id);
    out.obsolete = purge_superseded();
    const std::size_t still =
        slots_.size() - std::min(slots_.size(), capacity);
    for (const EventId& id : doomed) {
      if (evicted.size() == still) break;
      const std::uint32_t pos = index_.find(id);
      if (pos == EventIdTable::kAbsent) continue;  // purged as obsolete
      evicted.push_back(std::move(slots_[pos].event));
    }
  } else {
    for (Slot* slot : victims) evicted.push_back(std::move(slot->event));
  }
  // A moved-out event keeps its id, and erase_slot() moves the last slot
  // into the hole, so each victim is looked up afresh. The order matters:
  // for_each and purge_age_limit follow the slot layout, which the golden
  // traces pin.
  for (const Event& event : evicted) erase_slot(index_.find(event.id));
  out.evicted = evicted;
  return out;
}

EventBuffer::Selection EventBuffer::select_oldest(std::size_t evict,
                                                  std::size_t keep_unmarked) {
  thread_local std::vector<Slot*> candidates;
  candidates.clear();
  // At most size() slots are unmarked, so a bound at or above it marks
  // nothing and the unmarked slots need no count.
  const bool marking = keep_unmarked < slots_.size();
  if (!marking && evict <= 1) {
    if (evict == 0) return {};
    // One victim, what every broadcast into a full buffer evicts: one scan
    // that keeps the oldest key in registers.
    Slot* oldest = &slots_.front();
    auto key = seniority(*oldest);
    for (Slot& slot : slots_) {
      if (const auto k = seniority(slot); k > key) {
        key = k;
        oldest = &slot;
      }
    }
    candidates.push_back(oldest);
    return {candidates, 0};
  }
  // One pass: the age buckets of all slots and of the unmarked ones. Every
  // slot goes into `candidates` too, so the reused scratch grows with the
  // buffer; the placement below overwrites its front.
  std::array<std::uint32_t, kAgeBuckets> all{};
  std::array<std::uint32_t, kAgeBuckets> unmarked{};
  std::uint32_t top = 0;  // the highest occupied bucket
  std::size_t unmarked_count = 0;
  for (Slot& slot : slots_) {
    candidates.push_back(&slot);
    const std::uint32_t bucket = age_bucket(slot.event);
    top = std::max(top, bucket);
    ++all[bucket];
    if (marking && !slot.lost()) {
      ++unmarked[bucket];
      ++unmarked_count;
    }
  }
  const std::size_t marks =
      unmarked_count > keep_unmarked ? unmarked_count - keep_unmarked : 0;
  // The prefix holds the `evict` oldest slots and the `marks` oldest
  // unmarked ones. The last mark lies in the bucket where the unmarked
  // counts, walked down from the oldest, reach `marks`: the prefix takes
  // every slot above it, and in it at most the marks still needed plus
  // every marked slot there.
  std::size_t length = evict;
  if (marks > 0) {
    std::uint32_t bucket = top;
    std::size_t above = 0;
    std::size_t above_unmarked = 0;
    while (above_unmarked + unmarked[bucket] < marks) {
      above += all[bucket];
      above_unmarked += unmarked[bucket--];
    }
    length = std::max(length, above + (marks - above_unmarked) +
                                  (all[bucket] - unmarked[bucket]));
  }
  if (length == 0) return {};
  // The threshold bucket: every slot above it is in the prefix, and the
  // rest of the prefix is the oldest in it (below the last bucket, the
  // earliest inserted at that age).
  std::uint32_t threshold = top;
  std::size_t above = 0;
  while (above + all[threshold] < length) above += all[threshold--];
  // The slots from the threshold bucket up, placed by their counts, oldest
  // bucket first; then each bucket is ordered on its own, the threshold
  // bucket only as far as the prefix reaches.
  std::array<std::uint32_t, kAgeBuckets> next{};
  for (std::uint32_t bucket = top + 1, at = 0; bucket-- > threshold;) {
    next[bucket] = at;
    at += all[bucket];
  }
  for (Slot& slot : slots_) {
    const std::uint32_t bucket = age_bucket(slot.event);
    if (bucket >= threshold) candidates[next[bucket]++] = &slot;
  }
  auto first = candidates.begin();
  for (std::uint32_t bucket = top; bucket > threshold; --bucket) {
    const auto end = first + all[bucket];
    std::sort(first, end, older<Slot>);
    first = end;
  }
  const auto last = candidates.begin() + static_cast<std::ptrdiff_t>(length);
  std::nth_element(first, last, first + all[threshold], older<Slot>);
  std::sort(first, last, older<Slot>);
  return {{candidates.data(), length}, marks};
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

std::span<const Event* const> EventBuffer::in_insertion_order() const {
  thread_local std::vector<const Event*> ordered;
  ordered.clear();
  if (slots_.empty()) return {};
  // fifo_seq numbers the slots by insertion, so while the live numbers are
  // dense each slot is placed at its offset from the oldest (the gaps
  // squeezed out after); a sparse buffer is sorted.
  const auto [lo, hi] = std::minmax_element(
      slots_.begin(), slots_.end(),
      [](const Slot& a, const Slot& b) { return a.seq() < b.seq(); });
  const std::uint64_t base = lo->seq();
  const std::uint64_t span = hi->seq() - base + 1;
  if (span <= kPlacedSpan * slots_.size()) {
    ordered.assign(span, nullptr);
    for (const Slot& slot : slots_) ordered[slot.seq() - base] = &slot.event;
    std::erase(ordered, nullptr);
    return ordered;
  }
  thread_local std::vector<const Slot*> sorted;
  sorted.clear();
  for (const Slot& slot : slots_) sorted.push_back(&slot);
  std::sort(sorted.begin(), sorted.end(), [](const Slot* a, const Slot* b) {
    return a->seq() < b->seq();
  });
  for (const Slot* slot : sorted) ordered.push_back(&slot->event);
  return ordered;
}

void EventBuffer::for_each(
    const std::function<void(const Event&)>& fn) const {
  for (const auto& slot : slots_) fn(slot.event);
}

}  // namespace agb::gossip
