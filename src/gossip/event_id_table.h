// Flat open-addressing tables keyed by EventId, and lpbcast's eventIds
// digest built on one.
//
// Two tables sit on the receive path, and every event of every received
// gossip message probes one or both: the event buffer's index (id -> slot
// position, EventIdTable) and the digest's stamp blocks (EventIdBuffer).
// Under load most events are duplicates, so each table is one power-of-two
// array of slots: linear probing from std::hash<EventId>, growth by doubling
// once an insert would pass load 1/2, and backward-shift erase, so churn
// leaves no tombstones to lengthen later probes. The probe, growth and erase
// code is written once, in IdTable<Slot>; a slot type adds what a key maps
// to. A table allocates nothing until its first insert and never shrinks.
//
// Occupancy lives in the 32-bit value beside the key (kAbsent marks an
// empty slot), never in a reserved key: a corrupted datagram can decode into
// any EventId, {kInvalidNode, 0} included. Iteration order is unspecified;
// no caller depends on it.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/types.h"

namespace agb::gossip {

/// What every table slot starts with: its key and a 32-bit value, kAbsent
/// in an empty slot. 16 bytes; a slot type derived from it adds fields.
struct IdSlot {
  static constexpr std::uint32_t kAbsent =
      std::numeric_limits<std::uint32_t>::max();

  std::uint64_t sequence = 0;
  NodeId origin = 0;
  std::uint32_t value = kAbsent;

  [[nodiscard]] bool used() const { return value != kAbsent; }
  [[nodiscard]] EventId id() const { return EventId{origin, sequence}; }
  [[nodiscard]] bool holds(const EventId& key) const {
    return sequence == key.sequence && origin == key.origin;
  }
};

template <class Slot>
class IdTable {
 public:
  /// What find() returns for an absent id; not a storable value.
  static constexpr std::uint32_t kAbsent = IdSlot::kAbsent;

  /// Maps `id` to `value` (< kAbsent) unless `id` is present, in which case
  /// the stored value stays. Returns true iff `id` was absent.
  bool insert(const EventId& id, std::uint32_t value = 0) {
    return try_emplace(id, value, [] {}).second;
  }

  /// Maps `id` to `value` (< kAbsent) whether or not it was present.
  void insert_or_assign(const EventId& id, std::uint32_t value) {
    try_emplace(id, value, [] {}).first->value = value;
  }

  /// The value stored for `id`, or kAbsent.
  [[nodiscard]] std::uint32_t find(const EventId& id) const {
    return size_ == 0 ? kAbsent : slots_[probe(id)].value;
  }

  [[nodiscard]] bool contains(const EventId& id) const {
    return find(id) != kAbsent;
  }

  /// The slot holding `id`, or nullptr.
  [[nodiscard]] const Slot* slot(const EventId& id) const {
    if (size_ == 0) return nullptr;
    const Slot& found = slots_[probe(id)];
    return found.used() ? &found : nullptr;
  }

  /// The slot holding `id` and false, or a new slot for `id` holding
  /// `value` (< kAbsent; other fields value-initialised) and true. While an
  /// insert would pass load 1/2, `reclaim()` runs first and may erase
  /// slots; the table then doubles unless it is left at load 3/8 or less,
  /// so a reclaim that frees little does not run again at the next insert.
  /// The pointer is invalidated by the next insert or erase.
  template <typename Reclaim>
  std::pair<Slot*, bool> try_emplace(const EventId& id, std::uint32_t value,
                                     Reclaim reclaim) {
    if (slots_.empty()) grow();
    std::size_t i = probe(id);
    if (slots_[i].used()) return {&slots_[i], false};
    if ((size_ + 1) * 2 > slots_.size()) {
      reclaim();
      if ((size_ + 1) * 8 > slots_.size() * 3) grow();
      i = probe(id);
    }
    slots_[i] = Slot{};
    slots_[i].sequence = id.sequence;
    slots_[i].origin = id.origin;
    slots_[i].value = value;
    ++size_;
    return {&slots_[i], true};
  }

  /// Returns true iff `id` was present.
  bool erase(const EventId& id) {
    if (size_ == 0) return false;
    const std::size_t i = probe(id);
    if (!slots_[i].used()) return false;
    erase_at(i);
    return true;
  }

  /// Erases every entry for which `pred` holds; returns how many. `pred`
  /// takes the entry's id, or its whole slot.
  template <typename Pred>
  std::size_t erase_if(Pred pred) {
    std::size_t erased = 0;
    for (std::size_t i = 0; i < slots_.size();) {
      if (slots_[i].used() && matches(pred, slots_[i])) {
        erase_at(i);  // may shift a later entry into slot i: look again
        ++erased;
      } else {
        ++i;
      }
    }
    return erased;
  }

  /// Calls `fn(slot)` on every used slot; `fn` may change anything but the
  /// key and occupancy.
  template <typename Fn>
  void for_each_slot(Fn fn) {
    for (Slot& slot : slots_) {
      if (slot.used()) fn(slot);
    }
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  /// Heap bytes held: the slot array.
  [[nodiscard]] std::size_t bytes() const noexcept {
    return slots_.capacity() * sizeof(Slot);
  }

 private:
  static constexpr std::size_t kMinSlots = 16;

  template <typename Pred>
  static bool matches(Pred& pred, const Slot& slot) {
    if constexpr (std::is_invocable_v<Pred&, const EventId&>) {
      return pred(slot.id());
    } else {
      return pred(slot);
    }
  }

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

/// id -> 32-bit value: the event buffer's index.
using EventIdTable = IdTable<IdSlot>;

/// lpbcast's bounded `eventIds` digest (Eugster et al., ACM TOCS 2003): the
/// ids of the last `capacity` novel events, the oldest forgotten first.
///
/// Novel inserts are stamped 1, 2, 3, …; `evicted` rises to
/// `count − capacity` after each insert and each capacity change and never
/// falls. An id is known exactly when its stamp is greater than `evicted`:
/// FIFO eviction with no FIFO kept, and growth never brings an evicted id
/// back. An EventId is an origin plus that origin's dense sequence, so the
/// stamps of sequences 12b … 12b+11 share one 64-byte block keyed by
/// {origin, b}: a lookup is one probe. A block whose newest stamp is
/// evicted is dead; dead blocks are swept in place before the table grows,
/// so the table is bounded by the live ids, whatever ids arrive. Stamps are
/// 32-bit and renumbered before they run out.
class EventIdBuffer {
 public:
  /// The largest stamp: the block's newest stamp is its occupancy value,
  /// which must stay below kAbsent.
  static constexpr std::uint32_t kMaxStamp = IdSlot::kAbsent - 1;

  /// `max_stamp` (>= 2) is where stamps are renumbered; below kMaxStamp
  /// only to exercise that. The digest holds at most `max_stamp - 1` ids
  /// whatever its capacity, so renumbering always frees a stamp.
  explicit EventIdBuffer(std::size_t capacity,
                         std::uint32_t max_stamp = kMaxStamp)
      : capacity_(capacity), max_stamp_(max_stamp) {}

  /// Returns true if newly inserted; false if already known. Forgets the
  /// oldest id when the bound is exceeded.
  bool insert(const EventId& id) {
    if (count_ == max_stamp_) renumber();
    const std::uint32_t stamp = count_ + 1;
    auto [block, added] =
        blocks_.try_emplace(block_of(id), stamp, [this] { sweep(); });
    std::uint32_t& id_stamp = block->stamps[id.sequence % kBlockIds];
    if (!added && id_stamp > evicted_) return false;
    id_stamp = block->value = stamp;
    count_ = stamp;
    evict_to_capacity();
    return true;
  }

  [[nodiscard]] bool contains(const EventId& id) const {
    const Block* block = blocks_.slot(block_of(id));
    return block != nullptr &&
           block->stamps[id.sequence % kBlockIds] > evicted_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return count_ - evicted_; }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  void set_capacity(std::size_t capacity) {
    capacity_ = capacity;
    evict_to_capacity();
  }
  /// Heap bytes held: the block table.
  [[nodiscard]] std::size_t bytes() const noexcept { return blocks_.bytes(); }

 private:
  static constexpr std::uint64_t kBlockIds = 12;

  /// value: the newest stamp in the block; 0 in stamps: never inserted.
  /// Cache-line aligned, so a probe reads one line.
  struct alignas(64) Block : IdSlot {
    std::array<std::uint32_t, kBlockIds> stamps{};
  };
  static_assert(sizeof(Block) == 64);

  static EventId block_of(const EventId& id) {
    return EventId{id.origin, id.sequence / kBlockIds};
  }

  void evict_to_capacity() {
    const auto bound = static_cast<std::uint32_t>(
        std::min<std::size_t>(capacity_, max_stamp_ - 1));
    if (size() > bound) evicted_ = count_ - bound;
  }

  /// Erases the blocks whose every id is forgotten.
  void sweep() {
    blocks_.erase_if([this](const Block& b) { return b.value <= evicted_; });
  }

  /// Stamps ran out: the live ones become 1 … size() in the same order,
  /// the forgotten ones 0, and the dead blocks go.
  void renumber() {
    sweep();
    blocks_.for_each_slot([this](Block& b) {
      for (std::uint32_t& s : b.stamps) s = s > evicted_ ? s - evicted_ : 0;
      b.value -= evicted_;
    });
    count_ -= evicted_;
    evicted_ = 0;
  }

  IdTable<Block> blocks_;
  std::size_t capacity_;
  std::uint32_t max_stamp_;
  std::uint32_t count_ = 0;    // stamps handed out
  std::uint32_t evicted_ = 0;  // ids stamped at or below it are forgotten
};

}  // namespace agb::gossip
