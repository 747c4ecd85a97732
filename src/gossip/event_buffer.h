// The bounded event buffer at the heart of lpbcast (paper Fig. 1).
//
// Semantics:
//  * insert() dedupes by id;
//  * increment_ages() adds one round of age to every stored event;
//  * bump_age() adopts a higher age learned from a peer;
//  * purge_age_limit() removes events older than k (the paper's "e.age > k");
//  * settle_overflow() settles a received message's overflow: it marks the
//    adaptive mechanism's virtual drops (paper Fig. 5(b)) and removes the
//    *oldest* events (highest age, FIFO tie-break) until the buffer fits
//    its bound — the age-based purging of [7] that the adaptive mechanism
//    observes. Without a mark bound it is the removal alone.
//
// Buffer sizes are small (tens to hundreds), so events live in a flat vector
// of slots, found by id through a flat EventIdTable index (id -> slot
// position); erasing moves the last slot into the hole. The Fig. 5(b) `lost`
// set is a mark on the slot (the top bit of its insertion number), so it
// holds only buffered events by construction: an evicted event takes its
// mark along, and one admitted again arrives unmarked.
//
// One prefix serves both bounds. Fig. 1's "remove oldest element" and Fig.
// 5(b)'s "select oldest element e from events - lost" walk the same order
// (age descending, ties by insertion): the virtual drops are the first
// unmarked slots of that order and the evictions its first slots. One pass
// counts the ages of all slots and of the unmarked ones, the counts give
// the prefix long enough for both, and only that prefix is ordered. A
// semantic purge between the marks and the eviction keeps it exact: the
// purge only removes entries, so the eviction takes the prefix's first
// survivors. A gossip round reads the slots in insertion order through
// in_insertion_order(), which orders pointers and copies no event.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <span>
#include <vector>

#include "gossip/event.h"
#include "gossip/event_id_table.h"

namespace agb::gossip {

class EventBuffer {
 public:
  /// A settle_overflow() bound that removes or marks nothing: the mark
  /// bound of a baseline node, or no real bound at all.
  static constexpr std::size_t kNoBound =
      std::numeric_limits<std::size_t>::max();

  /// What one settle_overflow() call removed. The spans alias per-thread
  /// scratch, valid until this thread's next settle_overflow() call (and,
  /// for `obsolete`, its next purge_superseded() call).
  struct Overflow {
    std::span<const Event> obsolete;  // the semantic purge's removals
    std::span<const Event> evicted;   // oldest first
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
    return pos != EventIdTable::kAbsent && slots_[pos].lost();
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

  /// Settles the overflow a received message (or a broadcast, or a lower
  /// capacity) leaves, with one oldest-first selection (age descending,
  /// ties by earliest insertion), in three steps:
  ///  1. paper Fig. 5(b)'s virtual drop, "while |events - lost| > minBuff:
  ///     select oldest element e from events - lost; lost += {e}": the
  ///     unmarked events beyond the `keep_unmarked` youngest unmarked ones
  ///     are marked lost and stay buffered; `on_mark` (when set) visits
  ///     each as it is marked, oldest first, and must not change the
  ///     buffer;
  ///  2. when `semantic_purge` is set and size() > capacity,
  ///     purge_superseded() runs;
  ///  3. Fig. 1's bound: the oldest events are moved out, oldest first,
  ///     until size() <= capacity.
  /// Both victim lists are prefixes of the one order, so the result is
  /// what the three steps would give run one after the other, for any
  /// `keep_unmarked` below, at or above `capacity`.
  Overflow settle_overflow(std::size_t capacity,
                           std::size_t keep_unmarked = kNoBound,
                           bool semantic_purge = false,
                           const std::function<void(const Event&)>& on_mark =
                               {});

  /// Pointers to the stored events in insertion order (what a gossip
  /// message carries), into per-thread scratch valid until this thread's
  /// next call or a mutation of the buffer. No event is copied.
  [[nodiscard]] std::span<const Event* const> in_insertion_order() const;

  /// Visits every stored event.
  void for_each(const std::function<void(const Event&)>& fn) const;

 private:
  static constexpr std::uint64_t kLost = std::uint64_t{1} << 63;

  /// `fifo_seq` numbers the slots by insertion (for the FIFO tie-break and
  /// in_insertion_order) below its top bit, kLost, the virtual-drop mark.
  struct Slot {
    Event event;
    std::uint64_t fifo_seq;

    [[nodiscard]] std::uint64_t seq() const noexcept {
      return fifo_seq & ~kLost;
    }
    [[nodiscard]] bool lost() const noexcept {
      return (fifo_seq & kLost) != 0;
    }
  };
  static_assert(sizeof(Slot) == 72, "the lost mark rides in fifo_seq");

  /// The oldest-first prefix whose first `evict` slots are the evictions
  /// and whose first `marks` unmarked slots are the virtual drops.
  struct Selection {
    std::span<Slot* const> prefix;
    std::size_t marks = 0;
  };
  [[nodiscard]] Selection select_oldest(std::size_t evict,
                                        std::size_t keep_unmarked);
  void erase_slot(std::size_t idx);

  std::vector<Slot> slots_;
  EventIdTable index_;  // id -> slot position
  std::uint64_t next_seq_ = 0;
};

}  // namespace agb::gossip
