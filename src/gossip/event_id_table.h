// Flat open-addressing table keyed by EventId: the receive path's id digest,
// the event buffer's id -> slot index and the congestion estimator's lost
// set.
//
// Every event of every received gossip message costs a probe here, and
// under load most of them are duplicates, so the table is one power-of-two
// array of 16-byte slots: linear probing from std::hash<EventId>, growth by
// doubling once an insert would pass load 1/2, and backward-shift erase, so
// FIFO churn leaves no tombstones to lengthen later probes. It allocates
// nothing until the first insert and never shrinks.
//
// Occupancy lives in the value beside the key (kAbsent marks an empty slot),
// never in a reserved key: a corrupted datagram can decode into any EventId,
// {kInvalidNode, 0} included. Iteration order is unspecified; no caller
// depends on it.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "common/types.h"

namespace agb::gossip {

class EventIdTable {
 public:
  /// What find() returns for an absent id; not a storable value.
  static constexpr std::uint32_t kAbsent =
      std::numeric_limits<std::uint32_t>::max();

  /// Maps `id` to `value` (< kAbsent) unless `id` is present, in which case
  /// the stored value stays. Returns true iff `id` was absent.
  bool insert(const EventId& id, std::uint32_t value = 0) {
    return place(id, value, /*overwrite=*/false);
  }

  /// Maps `id` to `value` (< kAbsent) whether or not it was present.
  void insert_or_assign(const EventId& id, std::uint32_t value) {
    place(id, value, /*overwrite=*/true);
  }

  /// The value stored for `id`, or kAbsent.
  [[nodiscard]] std::uint32_t find(const EventId& id) const {
    return size_ == 0 ? kAbsent : slots_[probe(id)].value;
  }

  [[nodiscard]] bool contains(const EventId& id) const {
    return find(id) != kAbsent;
  }

  /// Returns true iff `id` was present.
  bool erase(const EventId& id) {
    if (size_ == 0) return false;
    const std::size_t i = probe(id);
    if (!slots_[i].used()) return false;
    erase_at(i);
    return true;
  }

  /// Erases every id for which `pred(id)` holds; returns how many.
  template <typename Pred>
  std::size_t erase_if(Pred pred) {
    std::size_t erased = 0;
    for (std::size_t i = 0; i < slots_.size();) {
      if (slots_[i].used() && pred(slots_[i].id())) {
        erase_at(i);  // may shift a later entry into slot i: look again
        ++erased;
      } else {
        ++i;
      }
    }
    return erased;
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }

 private:
  static constexpr std::size_t kMinSlots = 16;

  struct Slot {
    std::uint64_t sequence = 0;
    NodeId origin = 0;
    std::uint32_t value = kAbsent;  // kAbsent marks an empty slot

    [[nodiscard]] bool used() const { return value != kAbsent; }
    [[nodiscard]] EventId id() const { return EventId{origin, sequence}; }
    [[nodiscard]] bool holds(const EventId& key) const {
      return sequence == key.sequence && origin == key.origin;
    }
  };

  [[nodiscard]] std::size_t next(std::size_t i) const {
    return (i + 1) & (slots_.size() - 1);
  }
  [[nodiscard]] std::size_t home(const EventId& id) const {
    return std::hash<EventId>{}(id) & (slots_.size() - 1);
  }

  /// The slot holding `id`, or the empty slot that ends its probe run (load
  /// <= 1/2 guarantees one). Requires allocated slots.
  [[nodiscard]] std::size_t probe(const EventId& id) const {
    std::size_t i = home(id);
    while (slots_[i].used() && !slots_[i].holds(id)) i = next(i);
    return i;
  }

  bool place(const EventId& id, std::uint32_t value, bool overwrite) {
    if (slots_.empty()) grow();
    std::size_t i = probe(id);
    if (slots_[i].used()) {
      if (overwrite) slots_[i].value = value;
      return false;
    }
    if ((size_ + 1) * 2 > slots_.size()) {
      grow();
      i = probe(id);
    }
    slots_[i] = Slot{id.sequence, id.origin, value};
    ++size_;
    return true;
  }

  void grow() {
    std::vector<Slot> old(std::max(kMinSlots, slots_.size() * 2));
    old.swap(slots_);
    for (const Slot& slot : old) {
      if (slot.used()) slots_[probe(slot.id())] = slot;
    }
  }

  /// Backward-shift deletion: walks the run after the hole and moves back
  /// every entry whose probe path crosses the hole, so the run stays
  /// contiguous and lookups need no tombstones.
  void erase_at(std::size_t hole) {
    for (std::size_t j = next(hole); slots_[j].used(); j = next(j)) {
      const std::size_t h = home(slots_[j].id());
      // The entry stays when its home lies cyclically in (hole, j]: moving
      // it to the hole would put it before its home, off its probe path.
      const bool stays =
          hole < j ? (hole < h && h <= j) : (hole < h || h <= j);
      if (!stays) {
        slots_[hole] = slots_[j];
        hole = j;
      }
    }
    slots_[hole].value = kAbsent;
    --size_;
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
};

}  // namespace agb::gossip
