// Erasure-coding tests: GF matrices, Cauchy construction, bitmatrix
// expansion, and full CrsCodec round trips over exhaustive failure subsets.
#include <gtest/gtest.h>

#include <functional>
#include <numeric>

#include "common/rng.hpp"
#include "ec/bitmatrix.hpp"
#include "ec/cauchy.hpp"
#include "ec/crs_codec.hpp"
#include "ec/gf_matrix.hpp"
#include "ec/xor_program.hpp"

namespace eccheck::ec {
namespace {

using gf::Field;

GfMatrix random_matrix(int n, const Field& f, std::uint64_t seed) {
  SplitMix64 rng(seed);
  GfMatrix m(n, n, f);
  for (int r = 0; r < n; ++r)
    for (int c = 0; c < n; ++c)
      m.set(r, c, static_cast<std::uint32_t>(rng.next_below(f.order())));
  return m;
}

TEST(GfMatrix, IdentityMultiplication) {
  const auto& f = Field::get(8);
  GfMatrix a = random_matrix(5, f, 1);
  GfMatrix i = GfMatrix::identity(5, f);
  EXPECT_EQ(a.mul(i), a);
  EXPECT_EQ(i.mul(a), a);
}

TEST(GfMatrix, InverseRoundTrip) {
  const auto& f = Field::get(8);
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    GfMatrix a = random_matrix(6, f, seed);
    if (!a.invertible()) continue;
    GfMatrix inv = a.inverse();
    EXPECT_EQ(a.mul(inv), GfMatrix::identity(6, f)) << "seed " << seed;
    EXPECT_EQ(inv.mul(a), GfMatrix::identity(6, f)) << "seed " << seed;
  }
}

TEST(GfMatrix, SingularDetected) {
  const auto& f = Field::get(8);
  GfMatrix a(3, 3, f);
  // Row 2 = row 0 ⊕ row 1 — singular over GF(2^8).
  std::uint32_t rows[2][3] = {{1, 2, 3}, {4, 5, 6}};
  for (int c = 0; c < 3; ++c) {
    a.set(0, c, rows[0][c]);
    a.set(1, c, rows[1][c]);
    a.set(2, c, rows[0][c] ^ rows[1][c]);
  }
  EXPECT_FALSE(a.invertible());
  EXPECT_THROW(a.inverse(), CheckFailure);
}

TEST(GfMatrix, SelectRows) {
  const auto& f = Field::get(8);
  GfMatrix a = random_matrix(4, f, 5);
  GfMatrix s = a.select_rows({3, 1});
  EXPECT_EQ(s.rows(), 2);
  for (int c = 0; c < 4; ++c) {
    EXPECT_EQ(s.at(0, c), a.at(3, c));
    EXPECT_EQ(s.at(1, c), a.at(1, c));
  }
}

TEST(GfMatrix, MulDimensionMismatchThrows) {
  const auto& f = Field::get(8);
  GfMatrix a(2, 3, f), b(2, 3, f);
  EXPECT_THROW(a.mul(b), CheckFailure);
}

// --- Cauchy ----------------------------------------------------------------

/// Enumerate all k-subsets of [0, n).
void for_each_subset(int n, int k, const std::function<void(std::vector<int>&)>& fn) {
  std::vector<int> idx(static_cast<std::size_t>(k));
  std::iota(idx.begin(), idx.end(), 0);
  for (;;) {
    fn(idx);
    int i = k - 1;
    while (i >= 0 && idx[static_cast<std::size_t>(i)] == n - k + i) --i;
    if (i < 0) break;
    ++idx[static_cast<std::size_t>(i)];
    for (int j = i + 1; j < k; ++j)
      idx[static_cast<std::size_t>(j)] = idx[static_cast<std::size_t>(j - 1)] + 1;
  }
}

TEST(Cauchy, EveryKRowSubsetOfGeneratorIsInvertible) {
  const auto& f = Field::get(8);
  for (auto [k, m] : std::vector<std::pair<int, int>>{
           {2, 2}, {3, 2}, {2, 3}, {4, 4}, {5, 3}}) {
    for (bool normalized : {false, true}) {
      GfMatrix e = systematic_generator(k, m, f, normalized);
      for_each_subset(k + m, k, [&](std::vector<int>& rows) {
        EXPECT_TRUE(e.select_rows(rows).invertible())
            << "k=" << k << " m=" << m << " normalized=" << normalized;
      });
    }
  }
}

TEST(Cauchy, NormalizedFirstColumnIsOnes) {
  const auto& f = Field::get(8);
  GfMatrix c = normalized_cauchy_matrix(4, 3, f);
  for (int r = 0; r < 3; ++r) EXPECT_EQ(c.at(r, 0), 1u);
}

TEST(Cauchy, RejectsOversizedCode) {
  const auto& f = Field::get(4);  // order 16
  EXPECT_THROW(cauchy_matrix(10, 8, f), CheckFailure);
  EXPECT_NO_THROW(cauchy_matrix(10, 6, f));
}

TEST(Cauchy, NormalizationReducesBitmatrixOnes) {
  const auto& f = Field::get(8);
  BitMatrix plain = expand_to_bitmatrix(cauchy_matrix(6, 3, f));
  BitMatrix norm = expand_to_bitmatrix(normalized_cauchy_matrix(6, 3, f));
  EXPECT_LT(norm.ones(), plain.ones());
}

// --- BitMatrix --------------------------------------------------------------

TEST(BitMatrix, ExpansionIsRingHomomorphism) {
  // B(a)·(bits of x) == bits of (a·x): check by multiplying basis vectors.
  const auto& f = Field::get(8);
  SplitMix64 rng(7);
  for (int trial = 0; trial < 50; ++trial) {
    std::uint32_t a = static_cast<std::uint32_t>(rng.next_below(256));
    GfMatrix one(1, 1, f);
    one.set(0, 0, a);
    BitMatrix bm = expand_to_bitmatrix(one);
    for (int j = 0; j < 8; ++j) {
      std::uint32_t prod = f.mul(a, 1u << j);
      for (int i = 0; i < 8; ++i)
        ASSERT_EQ(bm.get(i, j), ((prod >> i) & 1) != 0)
            << "a=" << a << " i=" << i << " j=" << j;
    }
  }
}

TEST(BitMatrix, ProgramRunMatchesGfSemantics) {
  // Encode a stripe with the bitmatrix program, then decode it with the
  // inverse applied the same way; bit-exact round trip proves consistency.
  const auto& f = Field::get(8);
  const int k = 3, m = 2, w = 8;
  GfMatrix parity(m, k, f);
  parity.set(0, 0, 1);
  parity.set(0, 1, 3);
  parity.set(0, 2, 7);
  parity.set(1, 0, 9);
  parity.set(1, 1, 11);
  parity.set(1, 2, 200);
  BitMatrix bm = expand_to_bitmatrix(parity);
  XorProgram prog = naive_xor_program(bm, k, m, w);

  const std::size_t P = 512;
  std::vector<Buffer> data;
  for (int i = 0; i < k; ++i) {
    data.emplace_back(P, Buffer::Init::kUninitialized);
    fill_random(data.back().span(), 100 + static_cast<std::uint64_t>(i));
  }
  std::vector<Buffer> out;
  out.emplace_back(P);
  out.emplace_back(P);
  std::vector<ByteSpan> in_spans{data[0].span(), data[1].span(),
                                 data[2].span()};
  std::vector<MutableByteSpan> out_spans{out[0].span(), out[1].span()};
  run_xor_program(prog, in_spans, out_spans);

  // Linearity check instead of layout equality: program(x ⊕ y) ==
  // program(x) ⊕ program(y).
  std::vector<Buffer> data2;
  for (int i = 0; i < k; ++i) {
    data2.emplace_back(P, Buffer::Init::kUninitialized);
    fill_random(data2.back().span(), 200 + static_cast<std::uint64_t>(i));
  }
  std::vector<Buffer> out2;
  out2.emplace_back(P);
  out2.emplace_back(P);
  std::vector<ByteSpan> in2{data2[0].span(), data2[1].span(), data2[2].span()};
  std::vector<MutableByteSpan> o2{out2[0].span(), out2[1].span()};
  run_xor_program(prog, in2, o2);

  std::vector<Buffer> xored;
  for (int i = 0; i < k; ++i) {
    xored.push_back(data[static_cast<std::size_t>(i)].clone());
    xor_into(xored.back().span(), data2[static_cast<std::size_t>(i)].span());
  }
  std::vector<Buffer> out3;
  out3.emplace_back(P);
  out3.emplace_back(P);
  std::vector<ByteSpan> in3{xored[0].span(), xored[1].span(), xored[2].span()};
  std::vector<MutableByteSpan> o3{out3[0].span(), out3[1].span()};
  run_xor_program(prog, in3, o3);

  for (int r = 0; r < m; ++r) {
    Buffer expect = out[static_cast<std::size_t>(r)].clone();
    xor_into(expect.span(), out2[static_cast<std::size_t>(r)].span());
    EXPECT_EQ(out3[static_cast<std::size_t>(r)], expect) << "row " << r;
  }
}

TEST(BitMatrix, ProgramRejectsBadPacketSize) {
  const auto& f = Field::get(8);
  GfMatrix one(1, 1, f);
  one.set(0, 0, 3);
  XorProgram prog = naive_xor_program(expand_to_bitmatrix(one), 1, 1, 8);
  Buffer in(60, Buffer::Init::kUninitialized);  // not divisible by 64
  Buffer out(60);
  std::vector<ByteSpan> is{in.span()};
  std::vector<MutableByteSpan> os{out.span()};
  EXPECT_THROW(run_xor_program(prog, is, os), CheckFailure);
}

// --- CrsCodec ---------------------------------------------------------------

struct CodecParam {
  int k, m, w;
  KernelMode mode;
};

std::string param_name(const ::testing::TestParamInfo<CodecParam>& info) {
  return "k" + std::to_string(info.param.k) + "m" +
         std::to_string(info.param.m) + "w" + std::to_string(info.param.w) +
         (info.param.mode == KernelMode::kGfTable ? "_table" : "_xor");
}

class CrsCodecTest : public ::testing::TestWithParam<CodecParam> {
 protected:
  static constexpr std::size_t kPacket = 1024;

  std::vector<Buffer> make_data(int k, std::uint64_t seed) {
    std::vector<Buffer> d;
    for (int i = 0; i < k; ++i) {
      d.emplace_back(kPacket, Buffer::Init::kUninitialized);
      fill_random(d.back().span(), seed + static_cast<std::uint64_t>(i));
    }
    return d;
  }
};

TEST_P(CrsCodecTest, DecodeRecoversEveryFailurePattern) {
  const auto [k, m, w, mode] = GetParam();
  CrsCodec codec(k, m, w, mode);
  auto data = make_data(k, 42);

  std::vector<Buffer> parity;
  for (int r = 0; r < m; ++r) parity.emplace_back(kPacket);
  {
    std::vector<ByteSpan> in;
    for (auto& d : data) in.push_back(d.span());
    std::vector<MutableByteSpan> out;
    for (auto& p : parity) out.push_back(p.span());
    codec.encode(in, out);
  }

  // All chunks by generator row: rows [0,k) data, rows [k,k+m) parity.
  std::vector<const Buffer*> chunks;
  for (auto& d : data) chunks.push_back(&d);
  for (auto& p : parity) chunks.push_back(&p);

  // Exhaustive: every k-subset of surviving rows must reproduce the data.
  for_each_subset(k + m, k, [&](std::vector<int>& rows) {
    std::vector<ByteSpan> survive;
    for (int r : rows)
      survive.push_back(chunks[static_cast<std::size_t>(r)]->span());
    std::vector<Buffer> rec;
    for (int i = 0; i < k; ++i)
      rec.emplace_back(kPacket, Buffer::Init::kUninitialized);
    std::vector<MutableByteSpan> out;
    for (auto& r : rec) out.push_back(r.span());
    codec.decode(rows, survive, out);
    for (int i = 0; i < k; ++i)
      ASSERT_EQ(rec[static_cast<std::size_t>(i)],
                data[static_cast<std::size_t>(i)])
          << "rows subset failed";
  });
}

TEST_P(CrsCodecTest, PartialEncodingEqualsFullEncode) {
  const auto [k, m, w, mode] = GetParam();
  CrsCodec codec(k, m, w, mode);
  auto data = make_data(k, 77);

  std::vector<Buffer> parity_full;
  for (int r = 0; r < m; ++r) parity_full.emplace_back(kPacket);
  {
    std::vector<ByteSpan> in;
    for (auto& d : data) in.push_back(d.span());
    std::vector<MutableByteSpan> out;
    for (auto& p : parity_full) out.push_back(p.span());
    codec.encode(in, out);
  }

  // The distributed path: per-worker partial products XORed together.
  for (int r = 0; r < m; ++r) {
    Buffer acc(kPacket, Buffer::Init::kUninitialized);
    for (int c = 0; c < k; ++c) {
      codec.encode_partial(k + r, c, data[static_cast<std::size_t>(c)].span(),
                           acc.span(), c != 0);
    }
    EXPECT_EQ(acc, parity_full[static_cast<std::size_t>(r)]) << "row " << r;
  }
}

// A packet encoded slice by slice, each slice through its own
// encode_partial calls, equals the whole-packet encode: the property a
// sliced encode relies on. In kGfTable mode a slice is a byte range of the
// packet. The bitmatrix kernel mixes only the bytes at one offset within
// each of the w strips, so there a slice is one offset range taken from
// every strip, laid out as a packet of its own.
TEST_P(CrsCodecTest, SlicedPartialEncodeMatchesWholePacketEncode) {
  const auto [k, m, w, mode] = GetParam();
  CrsCodec codec(k, m, w, mode);
  auto data = make_data(k, 123);

  std::vector<Buffer> whole;
  for (int r = 0; r < m; ++r) whole.emplace_back(kPacket);
  {
    std::vector<ByteSpan> in;
    for (auto& d : data) in.push_back(d.span());
    std::vector<MutableByteSpan> out;
    for (auto& p : whole) out.push_back(p.span());
    codec.encode(in, out);
  }

  const std::size_t strips =
      mode == KernelMode::kXorBitmatrix ? static_cast<std::size_t>(w) : 1;
  const std::size_t strip = kPacket / strips;
  // Uneven slices of [0, strip), each a multiple of 8 bytes.
  const std::vector<std::size_t> cuts{0, 8, strip / 4, strip / 2 + 8, strip};
  std::vector<Buffer> sliced;
  for (int r = 0; r < m; ++r)
    sliced.emplace_back(kPacket, Buffer::Init::kUninitialized);
  for (std::size_t i = 0; i + 1 < cuts.size(); ++i) {
    const std::size_t lo = cuts[i], len = cuts[i + 1] - lo;
    auto gather = [&](const Buffer& pkt) {
      Buffer out(strips * len, Buffer::Init::kUninitialized);
      for (std::size_t s = 0; s < strips; ++s)
        std::memcpy(out.data() + s * len, pkt.data() + s * strip + lo, len);
      return out;
    };
    std::vector<Buffer> src;
    for (const Buffer& d : data) src.push_back(gather(d));
    for (int r = 0; r < m; ++r) {
      Buffer acc(strips * len, Buffer::Init::kUninitialized);
      for (int c = 0; c < k; ++c)
        codec.encode_partial(k + r, c, src[static_cast<std::size_t>(c)].span(),
                             acc.span(), c != 0);
      for (std::size_t s = 0; s < strips; ++s)
        std::memcpy(sliced[static_cast<std::size_t>(r)].data() + s * strip + lo,
                    acc.data() + s * len, len);
    }
  }
  for (int r = 0; r < m; ++r)
    EXPECT_EQ(sliced[static_cast<std::size_t>(r)],
              whole[static_cast<std::size_t>(r)])
        << "row " << r;
}

TEST_P(CrsCodecTest, ReconstructionMatrixRebuildsLostParity) {
  const auto [k, m, w, mode] = GetParam();
  if (m < 1) return;
  CrsCodec codec(k, m, w, mode);
  auto data = make_data(k, 99);

  std::vector<Buffer> parity;
  for (int r = 0; r < m; ++r) parity.emplace_back(kPacket);
  {
    std::vector<ByteSpan> in;
    for (auto& d : data) in.push_back(d.span());
    std::vector<MutableByteSpan> out;
    for (auto& p : parity) out.push_back(p.span());
    codec.encode(in, out);
  }

  // Survivors: all data rows. Targets: every parity row.
  std::vector<int> surv(static_cast<std::size_t>(k));
  std::iota(surv.begin(), surv.end(), 0);
  std::vector<int> targets;
  for (int r = 0; r < m; ++r) targets.push_back(k + r);
  GfMatrix t = codec.reconstruction_matrix(surv, targets);

  std::vector<ByteSpan> in;
  for (auto& d : data) in.push_back(d.span());
  std::vector<Buffer> rebuilt;
  for (int r = 0; r < m; ++r)
    rebuilt.emplace_back(kPacket, Buffer::Init::kUninitialized);
  std::vector<MutableByteSpan> out;
  for (auto& b : rebuilt) out.push_back(b.span());
  codec.apply_matrix(t, in, out);

  for (int r = 0; r < m; ++r)
    EXPECT_EQ(rebuilt[static_cast<std::size_t>(r)],
              parity[static_cast<std::size_t>(r)]);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, CrsCodecTest,
    ::testing::Values(CodecParam{2, 2, 8, KernelMode::kGfTable},
                      CodecParam{2, 2, 8, KernelMode::kXorBitmatrix},
                      CodecParam{3, 2, 8, KernelMode::kGfTable},
                      CodecParam{2, 3, 8, KernelMode::kGfTable},
                      CodecParam{4, 4, 8, KernelMode::kGfTable},
                      CodecParam{4, 4, 8, KernelMode::kXorBitmatrix},
                      CodecParam{5, 3, 4, KernelMode::kGfTable},
                      CodecParam{2, 2, 16, KernelMode::kGfTable},
                      CodecParam{3, 3, 16, KernelMode::kGfTable},
                      CodecParam{6, 2, 8, KernelMode::kXorBitmatrix}),
    param_name);

TEST(CrsCodec, DecodeRejectsWrongRowCount) {
  CrsCodec codec(3, 2, 8);
  Buffer b(64, Buffer::Init::kUninitialized);
  std::vector<ByteSpan> chunks{b.span(), b.span()};
  std::vector<Buffer> rec(3);
  for (auto& r : rec) r = Buffer(64);
  std::vector<MutableByteSpan> out;
  for (auto& r : rec) out.push_back(r.span());
  EXPECT_THROW(codec.decode({0, 1}, chunks, out), CheckFailure);
}

TEST(CrsCodec, DecodeRejectsDuplicateRows) {
  CrsCodec codec(2, 2, 8);
  Buffer b(64, Buffer::Init::kUninitialized);
  std::vector<ByteSpan> chunks{b.span(), b.span()};
  std::vector<Buffer> rec(2);
  for (auto& r : rec) r = Buffer(64);
  std::vector<MutableByteSpan> out;
  for (auto& r : rec) out.push_back(r.span());
  EXPECT_THROW(codec.decode({1, 1}, chunks, out), CheckFailure);
}

TEST(CrsCodec, XorOpsReportedOnlyInBitmatrixMode) {
  CrsCodec table(2, 2, 8, KernelMode::kGfTable);
  CrsCodec xorm(2, 2, 8, KernelMode::kXorBitmatrix);
  EXPECT_EQ(table.xor_ops_per_stripe(), -1);
  EXPECT_GT(xorm.xor_ops_per_stripe(), 0);
}

TEST(CrsCodec, StripingOnlyWhenMZero) {
  CrsCodec codec(3, 0, 8);
  std::vector<ByteSpan> in;
  std::vector<MutableByteSpan> out;
  Buffer a(64, Buffer::Init::kUninitialized), b(64, Buffer::Init::kUninitialized),
      c(64, Buffer::Init::kUninitialized);
  in = {a.span(), b.span(), c.span()};
  EXPECT_NO_THROW(codec.encode(in, out));
}

}  // namespace
}  // namespace eccheck::ec
