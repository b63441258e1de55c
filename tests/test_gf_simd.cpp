// Differential tests for the runtime-dispatched SIMD kernels: every ISA the
// host supports must be bit-exact with the scalar reference for xor_into and
// mul_region, across odd/prime region sizes, misaligned buffers, accumulate
// on/off, and all three symbol widths, and with a byte-at-a-time oracle for
// crc64 across every short length/offset, long random buffers and chained
// calls; crc64_shift must match feeding zeros to each kernel and carry a
// checksum through in-place patches. Also covers the dispatch machinery
// (probe/override sanity) and the per-constant table cache.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/bytes.hpp"
#include "common/crc64.hpp"
#include "common/rng.hpp"
#include "gf/galois.hpp"
#include "gf/simd.hpp"

namespace eccheck::gf {
namespace {

// Region sizes chosen to exercise every code path: empty, sub-vector, exact
// vector widths (16/32/64), one-past (tail of 1), unrolled-block boundaries,
// primes (no alignment at all), and large-enough-to-unroll.
const std::size_t kSizes[] = {0,  1,  2,   3,   7,    8,    15,   16,   17,
                              31, 32, 33,  63,  64,   65,   127,  128,  129,
                              257, 1021, 4096, 65537};

// Byte offsets into an over-allocated 64B-aligned Buffer: aligned, byte-odd,
// and "almost aligned" (61 = 64 - 3) to shift vector bodies off alignment.
const std::size_t kOffsets[] = {0, 1, 3, 16, 61};

constexpr std::size_t kPad = 64;  // slack so offset + size always fits

std::size_t round_down(std::size_t n, std::size_t g) { return n - n % g; }

class SimdIsaTest : public ::testing::TestWithParam<simd::Isa> {
 protected:
  const simd::Kernels& k() const { return simd::kernels_for(GetParam()); }
};

TEST_P(SimdIsaTest, KernelsForReturnsRequestedIsa) {
  // GetParam() comes from supported_isas(), so no fallback may happen.
  EXPECT_EQ(k().isa, GetParam());
  EXPECT_NE(k().xor_into, nullptr);
  EXPECT_NE(k().mul_region_b, nullptr);
  EXPECT_NE(k().mul_region_w16, nullptr);
  EXPECT_NE(k().crc64, nullptr);
}

TEST_P(SimdIsaTest, XorIntoMatchesScalar) {
  const simd::Kernels& scalar = simd::kernels_for(simd::Isa::kScalar);
  std::uint64_t seed = 1;
  for (std::size_t n : kSizes) {
    for (std::size_t src_off : kOffsets) {
      for (std::size_t dst_off : kOffsets) {
        Buffer src_buf(n + kPad, Buffer::Init::kUninitialized);
        Buffer want_buf(n + kPad, Buffer::Init::kUninitialized);
        fill_random(src_buf.span(), seed++);
        fill_random(want_buf.span(), seed++);
        Buffer got_buf = Buffer::copy_of(want_buf.span());

        const std::byte* src = src_buf.data() + src_off;
        scalar.xor_into(want_buf.data() + dst_off, src, n);
        k().xor_into(got_buf.data() + dst_off, src, n);

        ASSERT_EQ(std::memcmp(got_buf.data(), want_buf.data(), n + kPad), 0)
            << simd::isa_name(GetParam()) << " n=" << n
            << " src_off=" << src_off << " dst_off=" << dst_off;
      }
    }
  }
}

TEST_P(SimdIsaTest, XorIntoSelfZeroes) {
  // The contract allows dst == src; x ^ x == 0.
  for (std::size_t n : {std::size_t{0}, std::size_t{17}, std::size_t{4096}}) {
    Buffer buf(n, Buffer::Init::kUninitialized);
    fill_random(buf.span(), 7);
    k().xor_into(buf.data(), buf.data(), n);
    for (std::size_t i = 0; i < n; ++i)
      ASSERT_EQ(buf.data()[i], std::byte{0}) << "i=" << i;
  }
}

TEST_P(SimdIsaTest, MulRegionMatchesScalar) {
  const simd::Kernels& scalar = simd::kernels_for(simd::Isa::kScalar);
  std::uint64_t seed = 1000;
  for (int w : {4, 8, 16}) {
    const Field& f = Field::get(w);
    SplitMix64 rng(static_cast<std::uint64_t>(w));
    std::vector<std::uint32_t> constants = {0, 1, 2, f.max_element()};
    for (int i = 0; i < 6; ++i)
      constants.push_back(
          static_cast<std::uint32_t>(rng.next_below(f.order())));

    for (std::uint32_t c : constants) {
      for (std::size_t raw_n : kSizes) {
        const std::size_t n = round_down(raw_n, f.region_granularity());
        for (bool accumulate : {false, true}) {
          // Rotate through offset pairs instead of the full cross product —
          // the XOR test already covers alignment exhaustively.
          const std::size_t src_off = kOffsets[raw_n % std::size(kOffsets)];
          const std::size_t dst_off =
              kOffsets[(raw_n + 2) % std::size(kOffsets)];

          Buffer src_buf(n + kPad, Buffer::Init::kUninitialized);
          Buffer want_buf(n + kPad, Buffer::Init::kUninitialized);
          fill_random(src_buf.span(), seed++);
          fill_random(want_buf.span(), seed++);
          Buffer got_buf = Buffer::copy_of(want_buf.span());

          ByteSpan src = src_buf.span().subspan(src_off, n);
          f.mul_region(c, src, want_buf.span().subspan(dst_off, n),
                       accumulate, scalar);
          f.mul_region(c, src, got_buf.span().subspan(dst_off, n),
                       accumulate, k());

          ASSERT_EQ(std::memcmp(got_buf.data(), want_buf.data(), n + kPad), 0)
              << simd::isa_name(GetParam()) << " w=" << w << " c=" << c
              << " n=" << n << " acc=" << accumulate
              << " src_off=" << src_off << " dst_off=" << dst_off;
        }
      }
    }
  }
}

TEST_P(SimdIsaTest, MulRegionMatchesScalarSymbolMultiply) {
  // Ground truth independent of the table layout: unpack symbols, multiply
  // with Field::mul, repack. Moderate sizes — this is the semantic anchor;
  // the differential test above carries the size/alignment sweep.
  for (int w : {4, 8, 16}) {
    const Field& f = Field::get(w);
    SplitMix64 rng(static_cast<std::uint64_t>(10 + w));
    const std::size_t n = round_down(253, f.region_granularity());
    for (int trial = 0; trial < 8; ++trial) {
      const std::uint32_t c =
          static_cast<std::uint32_t>(rng.next_below(f.order()));
      Buffer src(n, Buffer::Init::kUninitialized);
      fill_random(src.span(), 77 + static_cast<std::uint64_t>(trial));
      Buffer got(n, Buffer::Init::kZeroed);
      f.mul_region(c, src.span(), got.span(), /*accumulate=*/false, k());

      for (std::size_t i = 0; i < n; ++i) {
        const auto sb = static_cast<std::uint32_t>(src.data()[i]);
        const auto gb = static_cast<std::uint32_t>(got.data()[i]);
        if (w == 4) {
          ASSERT_EQ(gb, f.mul(c, sb & 0xf) | (f.mul(c, sb >> 4) << 4))
              << "i=" << i << " c=" << c;
        } else if (w == 8) {
          ASSERT_EQ(gb, f.mul(c, sb)) << "i=" << i << " c=" << c;
        } else if (i % 2 == 0) {
          const auto hi = static_cast<std::uint32_t>(src.data()[i + 1]);
          const std::uint32_t prod = f.mul(c, sb | (hi << 8));
          const auto ghi = static_cast<std::uint32_t>(got.data()[i + 1]);
          ASSERT_EQ(gb | (ghi << 8), prod) << "i=" << i << " c=" << c;
        }
      }
    }
  }
}

// Byte-at-a-time CRC-64/WE on the raw register — the original table loop,
// kept here as the oracle every dispatched crc64 kernel must match.
std::uint64_t crc64_oracle(std::uint64_t crc, const std::byte* p,
                           std::size_t n) {
  static const auto table = [] {
    std::array<std::uint64_t, 256> t{};
    for (int i = 0; i < 256; ++i) {
      std::uint64_t c = static_cast<std::uint64_t>(i) << 56;
      for (int b = 0; b < 8; ++b)
        c = (c & (1ULL << 63)) ? (c << 1) ^ 0x42f0e1eba9ea3693ULL : (c << 1);
      t[static_cast<std::size_t>(i)] = c;
    }
    return t;
  }();
  for (std::size_t i = 0; i < n; ++i) {
    auto idx = static_cast<std::size_t>(
        ((crc >> 56) ^ static_cast<std::uint64_t>(p[i])) & 0xff);
    crc = (crc << 8) ^ table[idx];
  }
  return crc;
}

TEST_P(SimdIsaTest, Crc64CheckValue) {
  const char* msg = "123456789";
  const auto* p = reinterpret_cast<const std::byte*>(msg);
  EXPECT_EQ(~crc64_oracle(~0ULL, p, 9), 0x62ec59e3f1a4f00aULL);
  EXPECT_EQ(~k().crc64(~0ULL, p, 9), 0x62ec59e3f1a4f00aULL);
}

TEST_P(SimdIsaTest, Crc64MatchesOracleEveryShortLengthAndOffset) {
  // Lengths 0..300 cross the 16-byte (fold-by-1) and 64-byte (fold-by-4)
  // thresholds with every tail; offsets 0..63 cover every alignment.
  constexpr std::size_t kMaxLen = 300;
  Buffer buf(64 + kMaxLen, Buffer::Init::kUninitialized);
  fill_random(buf.span(), 31);
  SplitMix64 rng(32);
  for (std::size_t off = 0; off < 64; ++off) {
    for (std::size_t n = 0; n <= kMaxLen; ++n) {
      const std::uint64_t state = rng.next();
      const std::byte* p = buf.data() + off;
      ASSERT_EQ(k().crc64(state, p, n), crc64_oracle(state, p, n))
          << simd::isa_name(GetParam()) << " off=" << off << " n=" << n;
    }
  }
}

TEST_P(SimdIsaTest, Crc64MatchesOracleRandomLengths) {
  constexpr std::size_t kMax = std::size_t{1} << 20;
  Buffer buf(kMax + 64, Buffer::Init::kUninitialized);
  fill_random(buf.span(), 33);
  SplitMix64 rng(34);
  for (int trial = 0; trial < 48; ++trial) {
    const std::size_t n = rng.next_below(kMax + 1);
    const std::size_t off = rng.next_below(64);
    const std::uint64_t state = rng.next();
    const std::byte* p = buf.data() + off;
    ASSERT_EQ(k().crc64(state, p, n), crc64_oracle(state, p, n))
        << simd::isa_name(GetParam()) << " off=" << off << " n=" << n;
  }
}

TEST_P(SimdIsaTest, Crc64ChainsAcrossSplits) {
  constexpr std::size_t kLen = 4099;
  Buffer buf(kLen, Buffer::Init::kUninitialized);
  fill_random(buf.span(), 35);
  const std::uint64_t whole = k().crc64(~0ULL, buf.data(), kLen);
  for (std::size_t cut : {std::size_t{0}, std::size_t{1}, std::size_t{15},
                          std::size_t{16}, std::size_t{63}, std::size_t{64},
                          std::size_t{1000}, std::size_t{4096}, kLen}) {
    const std::uint64_t head = k().crc64(~0ULL, buf.data(), cut);
    EXPECT_EQ(k().crc64(head, buf.data() + cut, kLen - cut), whole)
        << simd::isa_name(GetParam()) << " cut=" << cut;
  }
}

TEST_P(SimdIsaTest, Crc64ShiftMatchesFeedingZeros) {
  constexpr std::size_t kMax = std::size_t{1} << 20;
  const Buffer zeros(kMax);
  SplitMix64 rng(36);
  std::vector<std::size_t> lengths;
  for (std::size_t n = 0; n <= 300; ++n) lengths.push_back(n);
  for (std::size_t n : {std::size_t{4095}, std::size_t{4096},
                        std::size_t{65535}, std::size_t{65536}, kMax})
    lengths.push_back(n);
  for (int trial = 0; trial < 32; ++trial)
    lengths.push_back(rng.next_below(kMax + 1));
  for (std::size_t n : lengths) {
    const std::uint64_t reg = rng.next();
    ASSERT_EQ(crc64_shift(reg, n), k().crc64(reg, zeros.data(), n))
        << simd::isa_name(GetParam()) << " n=" << n;
  }
  EXPECT_EQ(crc64_shift(0, kMax), 0u);
}

// The carry the delta save relies on: patch extents of a buffer in place,
// fold each extent's raw-CRC change shifted past the bytes after it into
// the old checksum, and demand the checksum recomputed in full after
// every patch.
TEST_P(SimdIsaTest, Crc64ShiftCarriesChecksumThroughPatches) {
  for (std::size_t len : {std::size_t{1}, std::size_t{4099},
                          std::size_t{65536}}) {
    Buffer buf(len, Buffer::Init::kUninitialized);
    fill_random(buf.span(), 37 + len);
    std::uint64_t sum = ~k().crc64(~0ULL, buf.data(), len);
    struct Patch {
      std::size_t off, n;
    };
    std::vector<Patch> patches = {
        {0, 1},                      // offset 0, length 1
        {len - 1, 1},                // ends at the buffer's end
        {0, len},                    // the whole buffer
        {len / 3, len / 2},          // then two overlapping in sequence
        {len / 3 + len / 4, len / 2},
        {len / 2, len - len / 2},    // runs to the end
    };
    SplitMix64 rng(38 + len);
    for (int trial = 0; trial < 40; ++trial) {
      const std::size_t off = rng.next_below(len);
      patches.push_back({off, 1 + rng.next_below(len - off)});
    }
    for (std::size_t i = 0; i < patches.size(); ++i) {
      const std::size_t off = patches[i].off;
      const std::size_t n = std::min(patches[i].n, len - off);
      if (n == 0) continue;
      std::byte* p = buf.data() + off;
      const std::uint64_t before = k().crc64(0, p, n);
      fill_random({p, n}, 1000 + i);
      const std::uint64_t after = k().crc64(0, p, n);
      sum ^= crc64_shift(before ^ after, len - off - n);
      ASSERT_EQ(sum, ~k().crc64(~0ULL, buf.data(), len))
          << simd::isa_name(GetParam()) << " len=" << len << " patch " << i
          << " off=" << off << " n=" << n;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllSupported, SimdIsaTest,
    ::testing::ValuesIn(simd::supported_isas()),
    [](const ::testing::TestParamInfo<simd::Isa>& info) {
      return std::string(simd::isa_name(info.param));
    });

TEST(SimdDispatch, SupportedIsasStartWithScalarAndAreSupported) {
  const auto isas = simd::supported_isas();
  ASSERT_FALSE(isas.empty());
  EXPECT_EQ(isas.front(), simd::Isa::kScalar);
  for (simd::Isa isa : isas) EXPECT_TRUE(simd::supported(isa));
  EXPECT_TRUE(simd::supported(simd::best_supported()));
}

TEST(SimdDispatch, ActiveIsSupportedAndStable) {
  const simd::Kernels& a = simd::active();
  EXPECT_TRUE(simd::supported(a.isa));
  EXPECT_EQ(&a, &simd::active());  // probed once, same vtable thereafter
  EXPECT_STREQ(simd::active_isa_name(), simd::isa_name(a.isa));
}

TEST(SimdDispatch, ParseIsaRoundTrips) {
  for (simd::Isa isa :
       {simd::Isa::kScalar, simd::Isa::kSse2, simd::Isa::kSsse3,
        simd::Isa::kAvx2, simd::Isa::kNeon}) {
    simd::Isa parsed;
    ASSERT_TRUE(simd::parse_isa(simd::isa_name(isa), &parsed));
    EXPECT_EQ(parsed, isa);
  }
  simd::Isa parsed;
  EXPECT_FALSE(simd::parse_isa("avx512", &parsed));
  EXPECT_FALSE(simd::parse_isa("", &parsed));
  EXPECT_FALSE(simd::parse_isa("Scalar", &parsed));  // case-sensitive
}

TEST(SimdDispatch, UnsupportedKernelsFallBackToScalar) {
  // At least one of the five ISAs is always unsupported on any one host
  // (sse2 and neon are mutually exclusive).
  for (simd::Isa isa :
       {simd::Isa::kSse2, simd::Isa::kSsse3, simd::Isa::kAvx2,
        simd::Isa::kNeon}) {
    if (simd::supported(isa)) continue;
    EXPECT_EQ(simd::kernels_for(isa).isa, simd::Isa::kScalar)
        << simd::isa_name(isa);
  }
}

TEST(SimdDispatch, SpanNameCarriesActiveIsa) {
  const std::string name = simd::isa_span_name("codec.encode");
  EXPECT_EQ(name, std::string("codec.encode[") + simd::active_isa_name() +
                      "]");
}

TEST(TableCache, TablesForIsStableAndShared) {
  const Field& f = Field::get(8);
  const simd::MulTables& t1 = f.tables_for(42);
  const simd::MulTables& t2 = f.tables_for(42);
  EXPECT_EQ(&t1, &t2);  // built once, cached

  const Field copy = f;  // copies share the cache
  EXPECT_EQ(&copy.tables_for(42), &t1);

  // Table contents agree with scalar field arithmetic.
  for (std::uint32_t b = 0; b < 256; ++b)
    EXPECT_EQ(t1.byte_tab[b], f.mul(42, b)) << b;
}

TEST(TableCache, ConcurrentFirstUseBuildsOneTablePerConstant) {
  // Hammer first-touch of fresh constants from many threads; every thread
  // must observe the same published table for a given constant.
  const Field& f = Field::get(16);
  constexpr int kThreads = 8;
  std::vector<std::uint32_t> cs = {3, 9, 100, 4095, 65535};
  std::vector<std::vector<const simd::MulTables*>> seen(
      kThreads, std::vector<const simd::MulTables*>(cs.size()));
  std::vector<std::thread> threads;
  for (int ti = 0; ti < kThreads; ++ti) {
    threads.emplace_back([&, ti] {
      for (std::size_t ci = 0; ci < cs.size(); ++ci)
        seen[static_cast<std::size_t>(ti)][ci] = &f.tables_for(cs[ci]);
    });
  }
  for (auto& t : threads) t.join();
  for (std::size_t ci = 0; ci < cs.size(); ++ci)
    for (int ti = 1; ti < kThreads; ++ti)
      EXPECT_EQ(seen[static_cast<std::size_t>(ti)][ci], seen[0][ci]);
}

}  // namespace
}  // namespace eccheck::gf
