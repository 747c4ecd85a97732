#include "common/bytes.h"

#include <stdexcept>
#include <string>

namespace agb {

void ByteWriter::overflow(std::size_t n) const {
  throw std::out_of_range("ByteWriter: " + std::to_string(n) +
                          "-byte write with " + std::to_string(remaining()) +
                          " bytes left in its block");
}

void ByteWriter::expect_full() const {
  if (pos_ == end_) return;
  throw std::logic_error("ByteWriter: " + std::to_string(remaining()) +
                         " bytes of the block left unwritten");
}

std::optional<std::uint8_t> ByteReader::u8() { return read_le<std::uint8_t>(); }
std::optional<std::uint16_t> ByteReader::u16() {
  return read_le<std::uint16_t>();
}
std::optional<std::uint32_t> ByteReader::u32() {
  return read_le<std::uint32_t>();
}
std::optional<std::uint64_t> ByteReader::u64() {
  return read_le<std::uint64_t>();
}
std::optional<std::int64_t> ByteReader::i64() {
  auto raw = read_le<std::uint64_t>();
  if (!raw) return std::nullopt;
  return static_cast<std::int64_t>(*raw);
}
std::optional<double> ByteReader::f64() {
  auto raw = read_le<std::uint64_t>();
  if (!raw) return std::nullopt;
  double v;
  std::memcpy(&v, &*raw, sizeof(v));
  return v;
}

std::optional<std::uint64_t> ByteReader::varint() {
  std::uint64_t v = 0;
  int shift = 0;
  while (pos_ < data_.size()) {
    const std::uint8_t byte = data_[pos_++];
    if (shift >= 63 && (byte & 0x7f) > 1) return std::nullopt;  // overflow
    v |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) return v;
    shift += 7;
    if (shift > 63) return std::nullopt;
  }
  return std::nullopt;  // truncated
}

std::optional<std::span<const std::uint8_t>> ByteReader::bytes() {
  auto len = varint();
  if (!len || *len > remaining()) return std::nullopt;
  const auto out = data_.subspan(pos_, static_cast<std::size_t>(*len));
  pos_ += out.size();
  return out;
}

std::optional<std::string> ByteReader::str() {
  auto len = varint();
  if (!len || *len > remaining()) return std::nullopt;
  std::string out(reinterpret_cast<const char*>(data_.data()) + pos_,
                  static_cast<std::size_t>(*len));
  pos_ += static_cast<std::size_t>(*len);
  return out;
}

}  // namespace agb
