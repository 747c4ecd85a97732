// Immutable, reference-counted byte buffer for the datagram pipeline.
//
// A gossip round sends *the same encoded message* to `fanout` targets, and
// each copy may additionally sit in a delay queue before delivery. Carrying
// the payload as a SharedBytes means the bytes are produced once (one
// GossipMessage::encode_shared, which writes its image straight into one
// exact-size block through SharedBytes::build) and every Datagram — across
// fan-out targets, delay queues and delivery callbacks — shares the same
// heap buffer; copying a SharedBytes is a reference-count bump, never a
// byte copy.
//
// A slice names a byte range of another SharedBytes and shares its
// ownership: the decoder hands out each event payload as a slice of the
// received datagram, so decoding copies no payload byte. A slice keeps the
// whole underlying buffer alive, so whatever stores bytes for long copies
// them out first (SharedBytes::copy_of); use_count() counts the slices of a
// buffer along with its plain copies.
//
// The buffer is strictly immutable: there is no mutating accessor, so a
// payload aliased across fan-out targets, delay queues and receive paths
// can never be edited out from under a reader. (An earlier copy-on-write
// escape hatch, mutate(), was removed unused — per-target payload variants
// never materialised; re-adding CoW is trivial if they ever do.)
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <memory>
#include <span>
#include <utility>
#include <vector>

namespace agb {

class SharedBytes {
 public:
  SharedBytes() = default;

  /// Takes ownership of `bytes` without copying them. Implicit on purpose:
  /// codec output (`std::vector<std::uint8_t>`) flows into Datagrams
  /// directly.
  SharedBytes(std::vector<std::uint8_t> bytes) {
    auto owner =
        std::make_shared<const std::vector<std::uint8_t>>(std::move(bytes));
    size_ = owner->size();
    buf_ = std::shared_ptr<const std::uint8_t>(owner, owner->data());
  }

  SharedBytes(std::initializer_list<std::uint8_t> bytes)
      : SharedBytes(std::vector<std::uint8_t>(bytes)) {}

  /// A fresh buffer of exactly `size` bytes, which `fill` writes through
  /// the std::span<std::uint8_t> it is handed before the buffer turns
  /// immutable: one allocation, no byte zeroed first, so `fill` must write
  /// every byte. If `fill` throws, the block is freed. A size of zero
  /// allocates nothing and runs no fill.
  template <class Fill>
  static SharedBytes build(std::size_t size, Fill&& fill) {
    if (size == 0) return {};
    auto block = std::make_shared_for_overwrite<std::uint8_t[]>(size);
    std::uint8_t* raw = block.get();
    fill(std::span<std::uint8_t>(raw, size));
    return SharedBytes(
        std::shared_ptr<const std::uint8_t>(std::move(block), raw), size);
  }

  /// Copies `bytes` into a fresh buffer of exactly their size, in one
  /// allocation (for callers holding a borrowed span, e.g. a socket receive
  /// buffer, or a slice they must not pin). Empty bytes allocate nothing.
  static SharedBytes copy_of(std::span<const std::uint8_t> bytes) {
    return build(bytes.size(), [bytes](std::span<std::uint8_t> block) {
      std::memcpy(block.data(), bytes.data(), bytes.size());
    });
  }

  /// The `len` bytes from `offset` on, sharing this buffer: no byte is
  /// copied and the slice keeps the whole buffer alive. An empty slice is
  /// an empty SharedBytes and keeps nothing alive. Requires
  /// `offset + len <= size()`.
  [[nodiscard]] SharedBytes slice(std::size_t offset, std::size_t len) const {
    assert(offset <= size_ && len <= size_ - offset);
    if (len == 0) return {};
    return SharedBytes(
        std::shared_ptr<const std::uint8_t>(buf_, buf_.get() + offset), len);
  }

  [[nodiscard]] const std::uint8_t* data() const noexcept {
    return buf_.get();
  }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }

  [[nodiscard]] std::span<const std::uint8_t> view() const noexcept {
    return {data(), size()};
  }
  operator std::span<const std::uint8_t>() const noexcept { return view(); }

  [[nodiscard]] const std::uint8_t* begin() const noexcept { return data(); }
  [[nodiscard]] const std::uint8_t* end() const noexcept {
    return data() + size();
  }

  /// How many SharedBytes instances share this buffer, slices included (0
  /// for a default-constructed or empty-sliced one). The zero-copy pipeline
  /// tests assert on this.
  [[nodiscard]] long use_count() const noexcept { return buf_.use_count(); }

  /// Byte-wise equality (not buffer identity). A bare vector converts
  /// implicitly, so `payload == std::vector<std::uint8_t>{...}` works too.
  friend bool operator==(const SharedBytes& a, const SharedBytes& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }

 private:
  SharedBytes(std::shared_ptr<const std::uint8_t> buf, std::size_t size)
      : buf_(std::move(buf)), size_(size) {}

  std::shared_ptr<const std::uint8_t> buf_;  // immutable once built
  std::size_t size_ = 0;
};

}  // namespace agb
