#include "common/bytes.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

namespace agb {
namespace {

TEST(ByteWriterTest, FixedWidthLittleEndian) {
  ByteWriter w;
  w.u16(0x1234);
  w.u32(0xdeadbeef);
  const auto& buf = w.data();
  ASSERT_EQ(buf.size(), 6u);
  EXPECT_EQ(buf[0], 0x34);
  EXPECT_EQ(buf[1], 0x12);
  EXPECT_EQ(buf[2], 0xef);
  EXPECT_EQ(buf[3], 0xbe);
  EXPECT_EQ(buf[4], 0xad);
  EXPECT_EQ(buf[5], 0xde);
}

TEST(ByteRoundTripTest, AllScalarTypes) {
  ByteWriter w;
  w.u8(200);
  w.u16(65000);
  w.u32(4000000000u);
  w.u64(0x0123456789abcdefull);
  w.i64(-42);
  w.f64(3.14159);
  ByteReader r(w.data());
  EXPECT_EQ(r.u8(), 200);
  EXPECT_EQ(r.u16(), 65000);
  EXPECT_EQ(r.u32(), 4000000000u);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefull);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_EQ(r.f64(), 3.14159);
  EXPECT_TRUE(r.exhausted());
}

TEST(ByteRoundTripTest, DoubleSpecialValues) {
  ByteWriter w;
  w.f64(0.0);
  w.f64(-0.0);
  w.f64(std::numeric_limits<double>::infinity());
  w.f64(std::numeric_limits<double>::denorm_min());
  ByteReader r(w.data());
  EXPECT_EQ(r.f64(), 0.0);
  EXPECT_EQ(r.f64(), -0.0);
  EXPECT_EQ(r.f64(), std::numeric_limits<double>::infinity());
  EXPECT_EQ(r.f64(), std::numeric_limits<double>::denorm_min());
}

TEST(VarintTest, RoundTripBoundaryValues) {
  const std::uint64_t values[] = {0,
                                  1,
                                  127,
                                  128,
                                  16383,
                                  16384,
                                  (1ull << 32) - 1,
                                  1ull << 32,
                                  std::numeric_limits<std::uint64_t>::max()};
  for (std::uint64_t v : values) {
    ByteWriter w;
    w.varint(v);
    ByteReader r(w.data());
    EXPECT_EQ(r.varint(), v) << "value " << v;
    EXPECT_TRUE(r.exhausted());
  }
}

TEST(VarintTest, SmallValuesAreOneByte) {
  for (std::uint64_t v : {0ull, 1ull, 127ull}) {
    ByteWriter w;
    w.varint(v);
    EXPECT_EQ(w.size(), 1u);
  }
}

TEST(VarintTest, TruncatedInputFails) {
  ByteWriter w;
  w.varint(1ull << 40);
  auto bytes = w.data();
  bytes.pop_back();
  ByteReader r(bytes);
  EXPECT_FALSE(r.varint().has_value());
}

TEST(VarintTest, OverlongEncodingRejected) {
  // 11 continuation bytes exceeds the maximum 64-bit varint length.
  std::vector<std::uint8_t> bad(11, 0x80);
  ByteReader r(bad);
  EXPECT_FALSE(r.varint().has_value());
}

TEST(VarintTest, OverflowBeyond64BitsRejected) {
  // 10 bytes where the last one carries bits above bit 63.
  std::vector<std::uint8_t> bad(9, 0x80);
  bad.push_back(0x7f);
  ByteReader r(bad);
  EXPECT_FALSE(r.varint().has_value());
}

TEST(BytesTest, LengthPrefixedRoundTrip) {
  ByteWriter w;
  std::vector<std::uint8_t> payload{1, 2, 3, 4, 5};
  w.bytes(payload);
  ByteReader r(w.data());
  const auto out = r.bytes();
  ASSERT_TRUE(out.has_value());
  EXPECT_TRUE(std::ranges::equal(*out, payload));
}

TEST(BytesTest, ByteCounterCountsWhatByteWriterWrites) {
  ByteWriter w;
  ByteCounter c;
  auto both = [&](auto write) {
    write(w);
    write(c);
    EXPECT_EQ(c.size(), w.size());
  };
  both([](auto& out) { out.u8(7); });
  both([](auto& out) { out.u16(0xbeef); });
  both([](auto& out) { out.u32(0xdeadbeef); });
  both([](auto& out) { out.u64(~0ull); });
  both([](auto& out) { out.i64(-1); });
  both([](auto& out) { out.f64(0.5); });
  for (std::uint64_t v : {0ull, 0x7full, 0x80ull, 0x3fffull, 0x4000ull,
                          1ull << 35, ~0ull}) {
    both([v](auto& out) { out.varint(v); });
  }
  const std::vector<std::uint8_t> blob(200, 1);
  both([&](auto& out) { out.bytes(blob); });
  both([](auto& out) { out.bytes({}); });
  both([](auto& out) { out.str("gossip"); });
}

TEST(BytesTest, EmptyPayload) {
  ByteWriter w;
  w.bytes({});
  ByteReader r(w.data());
  auto out = r.bytes();
  ASSERT_TRUE(out.has_value());
  EXPECT_TRUE(out->empty());
  EXPECT_TRUE(r.exhausted());
}

TEST(BytesTest, LengthBeyondRemainingFails) {
  ByteWriter w;
  w.varint(100);  // claims 100 bytes
  w.u8(1);        // but only one follows
  ByteReader r(w.data());
  EXPECT_FALSE(r.bytes().has_value());
}

TEST(StrTest, RoundTrip) {
  ByteWriter w;
  w.str("hello gossip");
  w.str("");
  ByteReader r(w.data());
  EXPECT_EQ(r.str(), "hello gossip");
  EXPECT_EQ(r.str(), "");
  EXPECT_TRUE(r.exhausted());
}

TEST(ByteReaderTest, ReadsPastEndFail) {
  ByteWriter w;
  w.u16(7);
  ByteReader r(w.data());
  EXPECT_TRUE(r.u16().has_value());
  EXPECT_FALSE(r.u8().has_value());
  EXPECT_FALSE(r.u16().has_value());
  EXPECT_FALSE(r.u32().has_value());
  EXPECT_FALSE(r.u64().has_value());
  EXPECT_FALSE(r.f64().has_value());
}

TEST(ByteReaderTest, RemainingTracksPosition) {
  ByteWriter w;
  w.u32(1);
  w.u32(2);
  ByteReader r(w.data());
  EXPECT_EQ(r.remaining(), 8u);
  (void)r.u32();
  EXPECT_EQ(r.remaining(), 4u);
  (void)r.u32();
  EXPECT_EQ(r.remaining(), 0u);
  EXPECT_TRUE(r.exhausted());
}

TEST(ByteReaderTest, PartialReadDoesNotAdvance) {
  std::vector<std::uint8_t> three{1, 2, 3};
  ByteReader r(three);
  EXPECT_FALSE(r.u32().has_value());
  EXPECT_EQ(r.remaining(), 3u);  // failed read consumed nothing
  EXPECT_TRUE(r.u16().has_value());
}

TEST(ByteWriterTest, TakeMovesBuffer) {
  ByteWriter w;
  w.u8(9);
  auto buf = std::move(w).take();
  ASSERT_EQ(buf.size(), 1u);
  EXPECT_EQ(buf[0], 9);
}

}  // namespace
}  // namespace agb
