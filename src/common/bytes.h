// Byte-level serialization primitives for the wire codec.
//
// The runtime layer exchanges real datagrams, so every protocol message has
// a binary encoding. ByteWriter writes little-endian fixed-width integers
// and LEB128 varints into a block its caller sized; ByteCounter has the
// same interface and only counts, so an encoder written once against both
// counts its image, then writes it into a block of exactly that size
// (write_counted here; GossipMessage::encode_shared into a SharedBytes
// block). The writer never grows and never writes past its block: each
// fixed-width field, varint or byte run is bounds-checked as a whole, and
// one that would not fit throws std::out_of_range instead of writing.
// ByteReader consumes them with explicit bounds checking (a malformed
// datagram must never crash a node — decode failures surface as
// std::nullopt / false, never UB).
#pragma once

#include <bit>
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
  return (static_cast<std::size_t>(std::bit_width(v | 1)) + 6) / 7;
}

class ByteWriter {
 public:
  /// Writes from the start of `block`, which outlives the writer.
  explicit ByteWriter(std::span<std::uint8_t> block) noexcept
      : begin_(block.data()), pos_(block.data()),
        end_(block.data() + block.size()) {}

  void u8(std::uint8_t v) { *claim(1) = v; }

  void u16(std::uint16_t v) { put_le(v); }
  void u32(std::uint32_t v) { put_le(v); }
  void u64(std::uint64_t v) { put_le(v); }
  void i64(std::int64_t v) { put_le(static_cast<std::uint64_t>(v)); }

  /// IEEE-754 double, bit-copied little-endian.
  void f64(double v) { put_le(std::bit_cast<std::uint64_t>(v)); }

  /// Unsigned LEB128 varint (1..10 bytes), written in place.
  void varint(std::uint64_t v) {
    std::uint8_t* out = claim(varint_size(v));
    while (v >= 0x80) {
      *out++ = static_cast<std::uint8_t>(v) | 0x80;
      v >>= 7;
    }
    *out = static_cast<std::uint8_t>(v);
  }

  /// Length-prefixed (varint) byte string.
  void bytes(std::span<const std::uint8_t> data) {
    varint(data.size());
    put(data.data(), data.size());
  }
  void str(std::string_view s) {
    varint(s.size());
    put(s.data(), s.size());
  }

  /// Bytes written so far.
  [[nodiscard]] std::size_t size() const noexcept {
    return static_cast<std::size_t>(pos_ - begin_);
  }
  /// Bytes of the block not yet written.
  [[nodiscard]] std::size_t remaining() const noexcept {
    return static_cast<std::size_t>(end_ - pos_);
  }
  /// Throws std::logic_error unless every byte of the block is written.
  void expect_full() const;

 private:
  /// The next `n` bytes of the block, or std::out_of_range.
  std::uint8_t* claim(std::size_t n) {
    if (n > remaining()) overflow(n);
    std::uint8_t* at = pos_;
    pos_ += n;
    return at;
  }
  [[noreturn]] void overflow(std::size_t n) const;

  template <typename T>
  void put_le(T v) {
    std::uint8_t* out = claim(sizeof(T));
    if constexpr (std::endian::native == std::endian::little) {
      std::memcpy(out, &v, sizeof(T));
    } else {
      for (std::size_t i = 0; i < sizeof(T); ++i) {
        out[i] = static_cast<std::uint8_t>(v >> (8 * i));
      }
    }
  }

  void put(const void* data, std::size_t n) {
    if (n != 0) std::memcpy(claim(n), data, n);
  }

  std::uint8_t* begin_;
  std::uint8_t* pos_;
  std::uint8_t* end_;
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

/// Writes what `write` writes into `block` through a ByteWriter, and
/// throws unless that fills it exactly (std::out_of_range past its end,
/// std::logic_error short of it): a block sized by a count the writer
/// disagrees with never ships unwritten bytes.
template <class Write>
void write_whole(std::span<std::uint8_t> block, Write&& write) {
  ByteWriter w(block);
  write(w);
  w.expect_full();
}

/// The bytes `write` writes (a callable taking a ByteCounter& and a
/// ByteWriter&, such as a generic lambda), in a vector of exactly their
/// size: counted first, then written whole into it.
template <class Write>
std::vector<std::uint8_t> write_counted(Write&& write) {
  ByteCounter counter;
  write(counter);
  std::vector<std::uint8_t> out(counter.size());
  write_whole(out, write);
  return out;
}

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
