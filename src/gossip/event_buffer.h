// The bounded event buffer at the heart of lpbcast (paper Fig. 1).
//
// Semantics:
//  * insert() dedupes by id;
//  * increment_ages() adds one round of age to every stored event;
//  * bump_age() adopts a higher age learned from a peer;
//  * purge_age_limit() removes events older than k (the paper's "e.age > k");
//  * shrink_to() removes the *oldest* events (highest age, FIFO tie-break)
//    until the buffer fits its bound — the age-based purging of [7] that the
//    adaptive mechanism observes;
//  * mark_lost_beyond() is the adaptive mechanism's virtual drop (paper Fig.
//    5(b)): it marks the oldest unmarked events lost and leaves them stored.
//
// Buffer sizes are small (tens to hundreds), so events live in a flat vector
// of slots, found by id through a flat EventIdTable index (id -> slot
// position); erasing moves the last slot into the hole. The Fig. 5(b) `lost`
// set is a mark on the slot, so it holds only buffered events by
// construction: an evicted event takes its mark along, and one admitted
// again arrives unmarked. Oldest-first selection, real or virtual, is one
// pass that counts the candidates' ages, so only the victims are sorted; its
// contract (age descending, ties by insertion) does not depend on the index.
// A gossip round reads the slots in insertion order through
// in_insertion_order(), which orders pointers and copies no event.
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
  /// `fifo_seq` orders events by insertion for stable oldest-selection;
  /// `lost` is the virtual-drop mark of mark_lost_beyond().
  struct Slot {
    Event event;
    std::uint64_t fifo_seq;
    bool lost = false;
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
  /// Whether `id` is buffered and marked lost.
  [[nodiscard]] bool lost(const EventId& id) const {
    const std::uint32_t pos = index_.find(id);
    return pos != EventIdTable::kAbsent && slots_[pos].lost;
  }
  [[nodiscard]] std::size_t size() const noexcept { return slots_.size(); }
  [[nodiscard]] bool empty() const noexcept { return slots_.empty(); }

  /// Adopts `age` for `id` if it is higher than the stored age. Returns
  /// whether `id` is buffered.
  bool bump_age(const EventId& id, std::uint32_t age);

  /// One gossip round passed: every stored event gets one hop older.
  void increment_ages() noexcept;

  /// Removes events with age > max_age; returns them (for drop accounting).
  /// The span aliases per-thread scratch, valid until this thread's next
  /// purge_age_limit call.
  std::span<const Event> purge_age_limit(std::uint32_t max_age);

  /// Removes events made obsolete by a buffered superseding event: e is
  /// obsolete iff some e' with the same (origin, stream), e'.sequence >
  /// e.sequence and e'.supersedes is also buffered. Returns the removals,
  /// in per-thread scratch valid until this thread's next
  /// purge_superseded call.
  std::span<const Event> purge_superseded();

  /// Removes oldest events until size() <= capacity; returns them in removal
  /// order, which is oldest_beyond(capacity)'s. The span aliases per-thread
  /// scratch, valid until this thread's next shrink_to call.
  std::span<const Event> shrink_to(std::size_t capacity);

  /// The events beyond the `keep` youngest, oldest first: age descending,
  /// ties by earliest insertion — what repeatedly taking the oldest would
  /// yield, in one pass that also counts the candidates' ages: the counts
  /// give the youngest victim age, and only the victims are sorted. The
  /// span aliases per-thread scratch, valid until this thread's next
  /// selection or a mutation of the buffer.
  [[nodiscard]] std::span<const Slot* const> oldest_beyond(
      std::size_t keep) const {
    return select_oldest(keep, /*unmarked_only=*/false);
  }

  /// Paper Fig. 5(b)'s virtual drop: "while |events - lost| > minBuff:
  /// select oldest element e from events - lost; lost += {e}". Marks lost
  /// the unmarked events beyond the `keep` youngest unmarked ones and
  /// returns them oldest first, as oldest_beyond() orders; the events stay
  /// buffered. The span aliases the same scratch as oldest_beyond().
  std::span<const Slot* const> mark_lost_beyond(std::size_t keep);

  /// Pointers to the stored events in insertion order (what a gossip
  /// message carries), into per-thread scratch valid until this thread's
  /// next call or a mutation of the buffer. No event is copied.
  [[nodiscard]] std::span<const Event* const> in_insertion_order() const;

  /// Visits every stored event.
  void for_each(const std::function<void(const Event&)>& fn) const;

 private:
  [[nodiscard]] std::span<const Slot* const> select_oldest(
      std::size_t keep, bool unmarked_only) const;
  void erase_slot(std::size_t idx);

  std::vector<Slot> slots_;
  EventIdTable index_;  // id -> slot position
  std::uint64_t next_seq_ = 0;
};

}  // namespace agb::gossip
