// Unit tests for the common substrate: buffers, XOR kernel, deterministic
// RNG, CRC64, unit helpers.
#include <gtest/gtest.h>

#include "common/bytes.hpp"
#include "common/check.hpp"
#include "common/crc64.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"

namespace eccheck {
namespace {

TEST(Buffer, ZeroInitialized) {
  Buffer b(257);
  for (std::size_t i = 0; i < b.size(); ++i)
    EXPECT_EQ(b.data()[i], std::byte{0});
}

TEST(Buffer, Alignment) {
  for (std::size_t sz : {1u, 63u, 64u, 4096u}) {
    Buffer b(sz);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(b.data()) % Buffer::kAlignment,
              0u);
  }
}

TEST(Buffer, CopyOfAndEquality) {
  Buffer a(128, Buffer::Init::kUninitialized);
  fill_random(a.span(), 7);
  Buffer b = Buffer::copy_of(a.span());
  EXPECT_EQ(a, b);
  b.data()[5] ^= std::byte{1};
  EXPECT_FALSE(a == b);
}

TEST(Buffer, CloneIsIndependent) {
  Buffer a(64, Buffer::Init::kUninitialized);
  fill_random(a.span(), 1);
  Buffer c = a.clone();
  c.data()[0] ^= std::byte{0xff};
  EXPECT_FALSE(a == c);
}

TEST(Buffer, SubspanBounds) {
  Buffer a(64);
  EXPECT_NO_THROW(a.subspan(0, 64));
  EXPECT_NO_THROW(a.subspan(64, 0));
  EXPECT_THROW(a.subspan(60, 5), CheckFailure);
}

TEST(Buffer, EmptyBuffer) {
  Buffer b;
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(b.size(), 0u);
  Buffer c(0);
  EXPECT_TRUE(b == c);
}

TEST(XorInto, SelfInverse) {
  Buffer a(333, Buffer::Init::kUninitialized);
  Buffer b(333, Buffer::Init::kUninitialized);
  fill_random(a.span(), 11);
  fill_random(b.span(), 22);
  Buffer orig = a.clone();
  xor_into(a.span(), b.span());
  EXPECT_FALSE(a == orig);
  xor_into(a.span(), b.span());
  EXPECT_EQ(a, orig);
}

TEST(XorInto, MatchesScalarReference) {
  Buffer a(117, Buffer::Init::kUninitialized);
  Buffer b(117, Buffer::Init::kUninitialized);
  fill_random(a.span(), 3);
  fill_random(b.span(), 4);
  Buffer expect(117, Buffer::Init::kUninitialized);
  for (std::size_t i = 0; i < 117; ++i)
    expect.data()[i] = a.data()[i] ^ b.data()[i];
  xor_into(a.span(), b.span());
  EXPECT_EQ(a, expect);
}

TEST(XorInto, SizeMismatchThrows) {
  Buffer a(16), b(17);
  EXPECT_THROW(xor_into(a.span(), b.span()), CheckFailure);
}

TEST(Rng, Deterministic) {
  Buffer a(100, Buffer::Init::kUninitialized);
  Buffer b(100, Buffer::Init::kUninitialized);
  fill_random(a.span(), 42);
  fill_random(b.span(), 42);
  EXPECT_EQ(a, b);
  fill_random(b.span(), 43);
  EXPECT_FALSE(a == b);
}

TEST(Rng, SplitMixDistribution) {
  SplitMix64 rng(1);
  int buckets[8] = {};
  for (int i = 0; i < 8000; ++i) ++buckets[rng.next() & 7];
  for (int c : buckets) {
    EXPECT_GT(c, 800);
    EXPECT_LT(c, 1200);
  }
}

TEST(Rng, NextDoubleInUnitInterval) {
  SplitMix64 rng(9);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Crc64, EmptyAndSeed) {
  EXPECT_EQ(crc64({}), crc64({}));
  EXPECT_NE(crc64({}, 1), crc64({}, 2));
}

TEST(Crc64, SensitiveToEveryByte) {
  Buffer a(64, Buffer::Init::kUninitialized);
  fill_random(a.span(), 5);
  const std::uint64_t base = crc64(a.span());
  for (std::size_t i = 0; i < a.size(); ++i) {
    a.data()[i] ^= std::byte{1};
    EXPECT_NE(crc64(a.span()), base) << "byte " << i;
    a.data()[i] ^= std::byte{1};
  }
  EXPECT_EQ(crc64(a.span()), base);
}

TEST(Crc64, KnownAnswer) {
  // CRC-64/WE check value, plus digests of a fixed 1 MiB buffer captured
  // from the byte-at-a-time implementation: wire headers, chunk trailers
  // and checked-in digests depend on these staying put on every kernel.
  const char* msg = "123456789";
  EXPECT_EQ(crc64({reinterpret_cast<const std::byte*>(msg), 9}),
            0x62ec59e3f1a4f00aULL);
  Buffer b(std::size_t{1} << 20, Buffer::Init::kUninitialized);
  fill_random(b.span(), 2024);
  EXPECT_EQ(crc64(b.span()), 0x957fbb889bbc3f2bULL);
  EXPECT_EQ(crc64(b.span(), 0x0123456789abcdefULL), 0xe4407225037bfd1eULL);
  EXPECT_EQ(crc64(b.span().subspan(3, 1000003)), 0x3a177e24045211afULL);
}

TEST(Crc64, ChainsThroughSeed) {
  Buffer b(1000, Buffer::Init::kUninitialized);
  fill_random(b.span(), 6);
  for (std::size_t cut : {std::size_t{0}, std::size_t{7}, std::size_t{64},
                          std::size_t{999}, std::size_t{1000}}) {
    EXPECT_EQ(crc64(b.span().subspan(cut), crc64(b.span().first(cut))),
              crc64(b.span()))
        << "cut=" << cut;
  }
}

TEST(Crc64, OrderSensitive) {
  std::byte ab[] = {std::byte{'a'}, std::byte{'b'}};
  std::byte ba[] = {std::byte{'b'}, std::byte{'a'}};
  EXPECT_NE(crc64({ab, 2}), crc64({ba, 2}));
}

TEST(Units, Sizes) {
  EXPECT_EQ(kib(1), 1024u);
  EXPECT_EQ(mib(64), 64u * 1024 * 1024);
  EXPECT_EQ(gib(2), 2ull * 1024 * 1024 * 1024);
}

TEST(Units, Bandwidth) {
  EXPECT_DOUBLE_EQ(gbps(8), 1e9);           // 8 Gbit/s = 1e9 B/s
  EXPECT_DOUBLE_EQ(gibps(1), 1073741824.0);
}

TEST(Units, HumanReadable) {
  EXPECT_EQ(human_bytes(512), "512 B");
  EXPECT_EQ(human_bytes(6.5 * 1024 * 1024 * 1024), "6.50 GiB");
  EXPECT_EQ(human_seconds(1.5), "1.500 s");
  EXPECT_EQ(human_seconds(0.0025), "2.500 ms");
}

TEST(Check, ThrowsWithMessage) {
  try {
    ECC_CHECK_MSG(1 == 2, "custom " << 42);
    FAIL() << "should have thrown";
  } catch (const CheckFailure& e) {
    EXPECT_NE(std::string(e.what()).find("custom 42"), std::string::npos);
  }
}

}  // namespace
}  // namespace eccheck
