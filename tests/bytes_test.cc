#include "common/bytes.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <functional>
#include <limits>
#include <span>
#include <stdexcept>
#include <string_view>
#include <vector>

#include "common/rng.h"

namespace agb {
namespace {

TEST(ByteWriterTest, FixedWidthLittleEndian) {
  const auto buf = write_counted([](auto& w) {
    w.u16(0x1234);
    w.u32(0xdeadbeef);
  });
  ASSERT_EQ(buf.size(), 6u);
  EXPECT_EQ(buf[0], 0x34);
  EXPECT_EQ(buf[1], 0x12);
  EXPECT_EQ(buf[2], 0xef);
  EXPECT_EQ(buf[3], 0xbe);
  EXPECT_EQ(buf[4], 0xad);
  EXPECT_EQ(buf[5], 0xde);
}

TEST(ByteRoundTripTest, AllScalarTypes) {
  const auto bytes = write_counted([](auto& w) {
    w.u8(200);
    w.u16(65000);
    w.u32(4000000000u);
    w.u64(0x0123456789abcdefull);
    w.i64(-42);
    w.f64(3.14159);
  });
  ByteReader r(bytes);
  EXPECT_EQ(r.u8(), 200);
  EXPECT_EQ(r.u16(), 65000);
  EXPECT_EQ(r.u32(), 4000000000u);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefull);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_EQ(r.f64(), 3.14159);
  EXPECT_TRUE(r.exhausted());
}

TEST(ByteRoundTripTest, DoubleSpecialValues) {
  const auto bytes = write_counted([](auto& w) {
    w.f64(0.0);
    w.f64(-0.0);
    w.f64(std::numeric_limits<double>::infinity());
    w.f64(std::numeric_limits<double>::denorm_min());
  });
  ByteReader r(bytes);
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
    const auto bytes = write_counted([v](auto& w) { w.varint(v); });
    ByteReader r(bytes);
    EXPECT_EQ(r.varint(), v) << "value " << v;
    EXPECT_TRUE(r.exhausted());
  }
}

TEST(VarintTest, SmallValuesAreOneByte) {
  for (std::uint64_t v : {0ull, 1ull, 127ull}) {
    std::uint8_t block[1];
    ByteWriter w(block);
    w.varint(v);
    EXPECT_EQ(w.size(), 1u);
  }
}

TEST(VarintTest, TruncatedInputFails) {
  auto bytes = write_counted([](auto& w) { w.varint(1ull << 40); });
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
  std::vector<std::uint8_t> payload{1, 2, 3, 4, 5};
  const auto bytes = write_counted([&](auto& w) { w.bytes(payload); });
  ByteReader r(bytes);
  const auto out = r.bytes();
  ASSERT_TRUE(out.has_value());
  EXPECT_TRUE(std::ranges::equal(*out, payload));
}

TEST(BytesTest, ByteCounterCountsWhatByteWriterWrites) {
  std::vector<std::uint8_t> block(1024);
  ByteWriter w(block);
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
  const auto bytes = write_counted([](auto& w) { w.bytes({}); });
  ByteReader r(bytes);
  auto out = r.bytes();
  ASSERT_TRUE(out.has_value());
  EXPECT_TRUE(out->empty());
  EXPECT_TRUE(r.exhausted());
}

TEST(BytesTest, LengthBeyondRemainingFails) {
  const auto bytes = write_counted([](auto& w) {
    w.varint(100);  // claims 100 bytes
    w.u8(1);        // but only one follows
  });
  ByteReader r(bytes);
  EXPECT_FALSE(r.bytes().has_value());
}

TEST(StrTest, RoundTrip) {
  const auto bytes = write_counted([](auto& w) {
    w.str("hello gossip");
    w.str("");
  });
  ByteReader r(bytes);
  EXPECT_EQ(r.str(), "hello gossip");
  EXPECT_EQ(r.str(), "");
  EXPECT_TRUE(r.exhausted());
}

TEST(ByteReaderTest, ReadsPastEndFail) {
  const auto bytes = write_counted([](auto& w) { w.u16(7); });
  ByteReader r(bytes);
  EXPECT_TRUE(r.u16().has_value());
  EXPECT_FALSE(r.u8().has_value());
  EXPECT_FALSE(r.u16().has_value());
  EXPECT_FALSE(r.u32().has_value());
  EXPECT_FALSE(r.u64().has_value());
  EXPECT_FALSE(r.f64().has_value());
}

TEST(ByteReaderTest, RemainingTracksPosition) {
  const auto bytes = write_counted([](auto& w) {
    w.u32(1);
    w.u32(2);
  });
  ByteReader r(bytes);
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

TEST(ByteWriterTest, WritesIntoTheCallersBlock) {
  std::vector<std::uint8_t> buf(1);
  ByteWriter w(buf);
  w.u8(9);
  ASSERT_EQ(buf.size(), 1u);
  EXPECT_EQ(buf[0], 9);
  EXPECT_EQ(w.remaining(), 0u);
}

/// The growable writer the block writer replaced, kept as the reference:
/// every field goes out one push_back per byte, least significant first.
struct ByteAtATimeWriter {
  std::vector<std::uint8_t> out;

  void u8(std::uint8_t v) { out.push_back(v); }
  void u16(std::uint16_t v) { le(v, 2); }
  void u32(std::uint32_t v) { le(v, 4); }
  void u64(std::uint64_t v) { le(v, 8); }
  void i64(std::int64_t v) { le(static_cast<std::uint64_t>(v), 8); }
  void f64(double v) { le(std::bit_cast<std::uint64_t>(v), 8); }
  void varint(std::uint64_t v) {
    while (v >= 0x80) {
      out.push_back(static_cast<std::uint8_t>(v) | 0x80);
      v >>= 7;
    }
    out.push_back(static_cast<std::uint8_t>(v));
  }
  void bytes(std::span<const std::uint8_t> data) {
    varint(data.size());
    for (std::uint8_t b : data) out.push_back(b);
  }
  void str(std::string_view s) {
    varint(s.size());
    for (char c : s) out.push_back(static_cast<std::uint8_t>(c));
  }

 private:
  void le(std::uint64_t v, int width) {
    for (int i = 0; i < width; ++i) {
      out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }
};

// Seeded random field sequences, written whole into a counted block and
// byte at a time by the reference: the images are equal. Varints cover
// 0, 127, 128, 2^32 and 2^64 - 1 with random values between; payloads are
// empty, 1 KiB or in between.
TEST(ByteWriterTest, MatchesByteAtATimeReference) {
  const std::uint64_t edges[] = {0,
                                 127,
                                 128,
                                 1ull << 32,
                                 std::numeric_limits<std::uint64_t>::max()};
  const std::vector<std::uint8_t> kib(1024, 0xa5);
  Rng rng(2027);
  for (int trial = 0; trial < 500; ++trial) {
    std::vector<std::uint8_t> random_payload(rng.next_below(40));
    for (auto& b : random_payload) b = static_cast<std::uint8_t>(rng.next());
    const auto fields = rng.next_below(30);
    const std::uint64_t seed = rng.next();
    // The same field sequence, drawn afresh from `seed` for each writer.
    auto write = [&](auto& w) {
      Rng draw(seed);
      for (std::uint64_t f = 0; f < fields; ++f) {
        switch (draw.next_below(9)) {
          case 0: w.u8(static_cast<std::uint8_t>(draw.next())); break;
          case 1: w.u16(static_cast<std::uint16_t>(draw.next())); break;
          case 2: w.u32(static_cast<std::uint32_t>(draw.next())); break;
          case 3: w.u64(draw.next()); break;
          case 4:
            w.i64(-static_cast<std::int64_t>(draw.next_below(1000)));
            break;
          case 5: w.f64(draw.uniform() - 0.5); break;
          case 6:
            w.varint(draw.bernoulli(0.5) ? edges[draw.next_below(5)]
                                         : draw.next() >> draw.next_below(64));
            break;
          case 7: {
            const std::span<const std::uint8_t> payloads[] = {
                {}, kib, random_payload};
            w.bytes(payloads[draw.next_below(3)]);
            break;
          }
          default: w.str(draw.bernoulli(0.5) ? "" : "gossip"); break;
        }
      }
    };
    ByteAtATimeWriter reference;
    write(reference);
    EXPECT_EQ(write_counted(write), reference.out) << "trial " << trial;
  }
}

// The writer never writes past its block: a field that does not fit
// throws, whatever its kind, and the byte after the block is untouched. A
// fixed-width field or varint writes nothing at all; a byte string has
// written its length first.
TEST(ByteWriterTest, WritePastTheBlockThrows) {
  const std::vector<std::uint8_t> kib(1024, 1);
  const std::vector<std::function<void(ByteWriter&)>> fields = {
      [](ByteWriter& w) { w.u8(1); },
      [](ByteWriter& w) { w.u16(1); },
      [](ByteWriter& w) { w.u32(1); },
      [](ByteWriter& w) { w.u64(1); },
      [](ByteWriter& w) { w.i64(-1); },
      [](ByteWriter& w) { w.f64(1.0); },
      [](ByteWriter& w) { w.varint(128); },
      [](ByteWriter& w) { w.varint(~0ull); },
      [&kib](ByteWriter& w) { w.bytes(kib); },
      [](ByteWriter& w) { w.str("gossip"); },
  };
  for (std::size_t f = 0; f < fields.size(); ++f) {
    std::vector<std::uint8_t> probe(2048);
    ByteWriter sized(probe);
    fields[f](sized);
    // One byte short of the field, with a guard byte after the block.
    std::vector<std::uint8_t> storage(sized.size(), 0xee);
    ByteWriter w(std::span<std::uint8_t>(storage).first(sized.size() - 1));
    EXPECT_THROW(fields[f](w), std::out_of_range) << "field " << f;
    EXPECT_EQ(storage.back(), 0xee) << "field " << f;
    if (f < 8) {
      EXPECT_EQ(w.size(), 0u) << "field " << f;
      EXPECT_TRUE(std::all_of(storage.begin(), storage.end(),
                              [](std::uint8_t b) { return b == 0xee; }))
          << "field " << f;
    }
  }
  std::vector<std::uint8_t> empty;
  ByteWriter none(empty);
  EXPECT_THROW(none.u8(0), std::out_of_range);
  // An empty payload still needs its length byte.
  EXPECT_THROW(none.bytes({}), std::out_of_range);
}

// A block left short of full is refused too: the counted size and the
// write must agree, so no unwritten byte goes out.
TEST(ByteWriterTest, BlockLeftShortIsRefused) {
  std::vector<std::uint8_t> block(3);
  EXPECT_THROW(write_whole(block, [](ByteWriter& w) { w.u16(7); }),
               std::logic_error);
  EXPECT_NO_THROW(write_whole(block, [](ByteWriter& w) {
    w.u16(7);
    w.u8(1);
  }));
  EXPECT_THROW(write_whole(block, [](ByteWriter& w) { w.u32(7); }),
               std::out_of_range);
}

}  // namespace
}  // namespace agb
