#include "gossip/event_buffer.h"

#include <algorithm>
#include <unordered_map>

namespace agb::gossip {

bool EventBuffer::insert(Event event) {
  if (!index_.insert(event.id, static_cast<std::uint32_t>(slots_.size()))) {
    return false;
  }
  slots_.push_back(Slot{std::move(event), next_seq_++});
  return true;
}

void EventBuffer::bump_age(const EventId& id, std::uint32_t age) {
  const std::uint32_t pos = index_.find(id);
  if (pos == EventIdTable::kAbsent) return;
  auto& stored = slots_[pos].event;
  stored.age = std::max(stored.age, age);
}

void EventBuffer::increment_ages() noexcept {
  for (auto& slot : slots_) ++slot.event.age;
}

std::vector<Event> EventBuffer::purge_age_limit(std::uint32_t max_age) {
  std::vector<Event> removed;
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

std::vector<Event> EventBuffer::purge_superseded() {
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
  std::vector<Event> removed;
  if (horizon.empty()) return removed;
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

std::span<const EventBuffer::Slot* const> EventBuffer::oldest_beyond(
    std::size_t keep, const EventIdTable* excluded) const {
  if (slots_.size() <= keep) return {};  // no pass when everything fits
  thread_local std::vector<const Slot*> candidates;
  candidates.clear();
  for (const Slot& slot : slots_) {
    if (excluded == nullptr || !excluded->contains(slot.event.id)) {
      candidates.push_back(&slot);
    }
  }
  if (candidates.size() <= keep) return {};
  const auto victims = static_cast<std::ptrdiff_t>(candidates.size() - keep);
  std::partial_sort(candidates.begin(), candidates.begin() + victims,
                    candidates.end(), [](const Slot* a, const Slot* b) {
                      return a->event.age != b->event.age
                                 ? a->event.age > b->event.age
                                 : a->fifo_seq < b->fifo_seq;
                    });
  return {candidates.data(), static_cast<std::size_t>(victims)};
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

std::vector<Event> EventBuffer::shrink_to(std::size_t capacity) {
  const auto victims = oldest_beyond(capacity);
  std::vector<Event> removed;
  removed.reserve(victims.size());
  for (const Slot* victim : victims) removed.push_back(victim->event);
  // erase_slot() moves the last slot into the hole, so each victim is looked
  // up afresh. The order matters: for_each and purge_age_limit follow the
  // slot layout, which the golden traces pin.
  for (const Event& event : removed) erase_slot(index_.find(event.id));
  return removed;
}

std::vector<Event> EventBuffer::snapshot() const {
  std::vector<Event> out;
  out.reserve(slots_.size());
  // Emit in insertion order for deterministic wire images.
  std::vector<const Slot*> ordered;
  ordered.reserve(slots_.size());
  for (const auto& slot : slots_) ordered.push_back(&slot);
  std::sort(ordered.begin(), ordered.end(),
            [](const Slot* a, const Slot* b) { return a->fifo_seq < b->fifo_seq; });
  for (const Slot* slot : ordered) out.push_back(slot->event);
  return out;
}

void EventBuffer::for_each(
    const std::function<void(const Event&)>& fn) const {
  for (const auto& slot : slots_) fn(slot.event);
}

bool EventIdBuffer::insert(const EventId& id) {
  if (!set_.insert(id)) return false;
  fifo_.push_back(id);
  evict_to_capacity();
  return true;
}

void EventIdBuffer::set_capacity(std::size_t capacity) {
  capacity_ = capacity;
  evict_to_capacity();
}

void EventIdBuffer::evict_to_capacity() {
  while (set_.size() > capacity_ && head_ < fifo_.size()) {
    set_.erase(fifo_[head_]);
    ++head_;
  }
  // Compact the fifo vector once the dead prefix dominates.
  if (head_ > fifo_.size() / 2 && head_ > 64) {
    fifo_.erase(fifo_.begin(), fifo_.begin() + static_cast<long>(head_));
    head_ = 0;
  }
}

}  // namespace agb::gossip
