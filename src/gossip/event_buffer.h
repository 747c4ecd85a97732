// The bounded event buffer at the heart of lpbcast (paper Fig. 1).
//
// Semantics:
//  * insert() dedupes by id;
//  * increment_ages() adds one round of age to every stored event;
//  * bump_age() adopts a higher age learned from a peer;
//  * purge_age_limit() removes events older than k (the paper's "e.age > k");
//  * shrink_to() removes the *oldest* events (highest age, FIFO tie-break)
//    until the buffer fits its bound — the age-based purging of [7] that the
//    adaptive mechanism observes.
//
// Buffer sizes are small (tens to hundreds), so events live in a flat vector
// of slots, found by id through a flat EventIdTable index (id -> slot
// position); erasing moves the last slot into the hole. Oldest-first
// eviction, real or virtual, is one oldest_beyond() pass plus a partial sort
// of the victims, and its selection contract (age descending, ties by
// insertion) does not depend on the index.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "gossip/event.h"
#include "gossip/event_id_table.h"

namespace agb::gossip {

class EventBuffer {
 public:
  /// `fifo_seq` orders events by insertion for stable oldest-selection.
  struct Slot {
    Event event;
    std::uint64_t fifo_seq;
  };

  /// Returns false (and keeps the existing slot) when the id is present.
  bool insert(Event event);

  [[nodiscard]] bool contains(const EventId& id) const {
    return index_.contains(id);
  }

  /// Stored event with this id, or nullptr. The pointer is invalidated by
  /// any mutating call.
  [[nodiscard]] const Event* find(const EventId& id) const {
    const std::uint32_t pos = index_.find(id);
    return pos == EventIdTable::kAbsent ? nullptr : &slots_[pos].event;
  }
  [[nodiscard]] std::size_t size() const noexcept { return slots_.size(); }
  [[nodiscard]] bool empty() const noexcept { return slots_.empty(); }

  /// Adopts `age` for `id` if it is higher than the stored age.
  void bump_age(const EventId& id, std::uint32_t age);

  /// One gossip round passed: every stored event gets one hop older.
  void increment_ages() noexcept;

  /// Removes events with age > max_age; returns them (for drop accounting).
  std::vector<Event> purge_age_limit(std::uint32_t max_age);

  /// Removes events made obsolete by a buffered superseding event: e is
  /// obsolete iff some e' with the same (origin, stream), e'.sequence >
  /// e.sequence and e'.supersedes is also buffered. Returns the removals.
  std::vector<Event> purge_superseded();

  /// Removes oldest events until size() <= capacity; returns them in removal
  /// order, which is oldest_beyond(capacity)'s. The span aliases per-thread
  /// scratch, valid until this thread's next call.
  std::span<const Event> shrink_to(std::size_t capacity);

  /// The events beyond the `keep` youngest among those whose id is not in
  /// `excluded` (if given), oldest first: age descending, ties by earliest
  /// insertion — what repeatedly taking the oldest would yield (paper Fig.
  /// 5(b): "select oldest element e from events - lost"), in one pass with
  /// one exclusion probe per slot. The span aliases per-thread scratch, valid
  /// until this thread's next call or a mutation of the buffer.
  [[nodiscard]] std::span<const Slot* const> oldest_beyond(
      std::size_t keep, const EventIdTable* excluded = nullptr) const;

  /// Copies of all stored events (what a gossip message carries).
  [[nodiscard]] std::vector<Event> snapshot() const;

  /// Visits every stored event.
  void for_each(const std::function<void(const Event&)>& fn) const;

 private:
  void erase_slot(std::size_t idx);

  std::vector<Slot> slots_;
  EventIdTable index_;  // id -> slot position
  std::uint64_t next_seq_ = 0;
};

/// Bounded FIFO set of event ids (paper's `eventIds` with "remove oldest
/// element" garbage collection).
class EventIdBuffer {
 public:
  explicit EventIdBuffer(std::size_t capacity) : capacity_(capacity) {}

  /// Returns true if newly inserted; false if already known. Evicts the
  /// oldest id when the bound is exceeded.
  bool insert(const EventId& id);

  [[nodiscard]] bool contains(const EventId& id) const {
    return set_.contains(id);
  }
  [[nodiscard]] std::size_t size() const noexcept { return set_.size(); }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  void set_capacity(std::size_t capacity);

 private:
  void evict_to_capacity();

  std::size_t capacity_;
  EventIdTable set_;
  std::vector<EventId> fifo_;  // insertion order; head = fifo_[head_]
  std::size_t head_ = 0;
};

}  // namespace agb::gossip
