// Byte-level serialization primitives for the wire codec.
//
// The runtime layer exchanges real datagrams, so every protocol message has
// a binary encoding. ByteWriter appends little-endian fixed-width integers
// and LEB128 varints to a growable buffer; ByteCounter has the same
// interface and only counts, so an encoder written once against either can
// size its buffer exactly before it writes. ByteReader consumes them with
// explicit bounds checking (a malformed datagram must never crash a node —
// decode failures surface as std::nullopt / false, never UB).
#pragma once

#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace agb {

/// Encoded length of `v` as an unsigned LEB128 varint (1..10 bytes).
constexpr std::size_t varint_size(std::uint64_t v) noexcept {
  std::size_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}

class ByteWriter {
 public:
  ByteWriter() = default;

  /// Makes room for `capacity` bytes in one allocation.
  void reserve(std::size_t capacity) { buf_.reserve(capacity); }

  void u8(std::uint8_t v) { buf_.push_back(v); }

  void u16(std::uint16_t v) { append_le(v); }
  void u32(std::uint32_t v) { append_le(v); }
  void u64(std::uint64_t v) { append_le(v); }
  void i64(std::int64_t v) { append_le(static_cast<std::uint64_t>(v)); }

  /// IEEE-754 double, bit-copied little-endian.
  void f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    append_le(bits);
  }

  /// Unsigned LEB128 varint (1..10 bytes).
  void varint(std::uint64_t v);

  /// Length-prefixed (varint) byte string.
  void bytes(std::span<const std::uint8_t> data);
  void str(std::string_view s);

  [[nodiscard]] const std::vector<std::uint8_t>& data() const& {
    return buf_;
  }
  [[nodiscard]] std::vector<std::uint8_t> take() && { return std::move(buf_); }
  [[nodiscard]] std::size_t size() const { return buf_.size(); }

 private:
  template <typename T>
  void append_le(T v) {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }

  std::vector<std::uint8_t> buf_;
};

/// ByteWriter's write interface, counting the bytes instead of storing them.
class ByteCounter {
 public:
  void u8(std::uint8_t) { size_ += 1; }
  void u16(std::uint16_t) { size_ += 2; }
  void u32(std::uint32_t) { size_ += 4; }
  void u64(std::uint64_t) { size_ += 8; }
  void i64(std::int64_t) { size_ += 8; }
  void f64(double) { size_ += 8; }
  void varint(std::uint64_t v) { size_ += varint_size(v); }
  void bytes(std::span<const std::uint8_t> data) {
    size_ += varint_size(data.size()) + data.size();
  }
  void str(std::string_view s) { size_ += varint_size(s.size()) + s.size(); }

  [[nodiscard]] std::size_t size() const { return size_; }

 private:
  std::size_t size_ = 0;
};

class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

  [[nodiscard]] std::optional<std::uint8_t> u8();
  [[nodiscard]] std::optional<std::uint16_t> u16();
  [[nodiscard]] std::optional<std::uint32_t> u32();
  [[nodiscard]] std::optional<std::uint64_t> u64();
  [[nodiscard]] std::optional<std::int64_t> i64();
  [[nodiscard]] std::optional<double> f64();
  [[nodiscard]] std::optional<std::uint64_t> varint();
  /// A length-prefixed byte string, as a view into the input: valid while
  /// the input is.
  [[nodiscard]] std::optional<std::span<const std::uint8_t>> bytes();
  [[nodiscard]] std::optional<std::string> str();

  [[nodiscard]] std::size_t remaining() const {
    return data_.size() - pos_;
  }
  [[nodiscard]] bool exhausted() const { return pos_ == data_.size(); }

 private:
  template <typename T>
  std::optional<T> read_le() {
    if (remaining() < sizeof(T)) return std::nullopt;
    T v = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v |= static_cast<T>(static_cast<T>(data_[pos_ + i]) << (8 * i));
    }
    pos_ += sizeof(T);
    return v;
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

}  // namespace agb
