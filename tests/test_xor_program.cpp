// XOR programs: the CSE'd program must be bit-exact with the naive one and
// strictly cheaper on real Cauchy matrices; the tiled executor must match a
// whole-strip reference at every strip length; the codec's bitmatrix mode
// must produce exactly what the naive program does.
#include <gtest/gtest.h>

#include <thread>

#include "common/rng.hpp"
#include "ec/cauchy.hpp"
#include "ec/crs_codec.hpp"
#include "ec/xor_program.hpp"

namespace eccheck::ec {
namespace {

using gf::Field;

BitMatrix parity_bitmatrix(int k, int m, int w, bool normalized = true) {
  const auto& f = Field::get(w);
  return expand_to_bitmatrix(normalized ? normalized_cauchy_matrix(k, m, f)
                                        : cauchy_matrix(k, m, f));
}

std::vector<Buffer> rand_packets(int n, std::size_t size,
                                 std::uint64_t seed) {
  std::vector<Buffer> v;
  for (int i = 0; i < n; ++i) {
    v.emplace_back(size, Buffer::Init::kUninitialized);
    fill_random(v.back().span(), seed + static_cast<std::uint64_t>(i));
  }
  return v;
}

std::vector<ByteSpan> spans(const std::vector<Buffer>& bufs) {
  std::vector<ByteSpan> v;
  for (const auto& b : bufs) v.push_back(b.span());
  return v;
}

std::vector<MutableByteSpan> mut_spans(std::vector<Buffer>& bufs) {
  std::vector<MutableByteSpan> v;
  for (auto& b : bufs) v.push_back(b.span());
  return v;
}

std::vector<Buffer> clones(const std::vector<Buffer>& bufs) {
  std::vector<Buffer> v;
  for (const auto& b : bufs) v.push_back(b.clone());
  return v;
}

/// Whole-strip, byte-at-a-time bitmatrix product: out strip r is the XOR of
/// the input strips whose bit is set in row r, XORed into `out` when
/// `accumulate`. Independent of XorProgram and of the tiling.
void reference_product(const BitMatrix& bm, int w,
                       const std::vector<Buffer>& in, std::vector<Buffer>& out,
                       bool accumulate) {
  const std::size_t strip = in[0].size() / static_cast<std::size_t>(w);
  for (int r = 0; r < bm.rows(); ++r) {
    std::byte* dst = out[static_cast<std::size_t>(r / w)].data() +
                     static_cast<std::size_t>(r % w) * strip;
    if (!accumulate) std::memset(dst, 0, strip);
    for (int c = 0; c < bm.cols(); ++c) {
      if (!bm.get(r, c)) continue;
      const std::byte* src = in[static_cast<std::size_t>(c / w)].data() +
                             static_cast<std::size_t>(c % w) * strip;
      for (std::size_t i = 0; i < strip; ++i) dst[i] ^= src[i];
    }
  }
}

struct Shape {
  int k, m, w;
};

class XorProgramTest : public ::testing::TestWithParam<Shape> {};

TEST_P(XorProgramTest, OptimizedMatchesNaive) {
  const auto [k, m, w] = GetParam();
  BitMatrix bm = parity_bitmatrix(k, m, w);
  XorProgram naive = naive_xor_program(bm, k, m, w);
  XorProgram opt = optimize_xor_program(bm, k, m, w);

  const std::size_t P = static_cast<std::size_t>(w) * 8 * 16;
  auto data = rand_packets(k, P, 42);
  std::vector<ByteSpan> in;
  for (auto& d : data) in.push_back(d.span());

  auto out_naive = rand_packets(m, P, 100);
  auto out_opt = rand_packets(m, P, 200);
  std::vector<MutableByteSpan> on, oo;
  for (auto& b : out_naive) on.push_back(b.span());
  for (auto& b : out_opt) oo.push_back(b.span());

  run_xor_program(naive, in, on);
  run_xor_program(opt, in, oo);
  for (int r = 0; r < m; ++r)
    ASSERT_EQ(out_naive[static_cast<std::size_t>(r)],
              out_opt[static_cast<std::size_t>(r)])
        << "row " << r;
}

TEST_P(XorProgramTest, OptimizationNeverCostsMore) {
  const auto [k, m, w] = GetParam();
  BitMatrix bm = parity_bitmatrix(k, m, w);
  XorProgram naive = naive_xor_program(bm, k, m, w);
  XorProgram opt = optimize_xor_program(bm, k, m, w);
  EXPECT_LE(opt.xor_count(), naive.xor_count());
}

INSTANTIATE_TEST_SUITE_P(Shapes, XorProgramTest,
                         ::testing::Values(Shape{2, 2, 8}, Shape{4, 2, 8},
                                           Shape{6, 3, 8}, Shape{3, 3, 4},
                                           Shape{4, 4, 8}),
                         [](const auto& info) {
                           const auto& s = info.param;
                           return "k" + std::to_string(s.k) + "m" +
                                  std::to_string(s.m) + "w" +
                                  std::to_string(s.w);
                         });

TEST(XorProgram, RealCauchyMatricesActuallyShrink) {
  // Dense parity matrices have many shared pairs — expect real savings.
  BitMatrix bm = parity_bitmatrix(6, 3, 8, /*normalized=*/false);
  XorProgram naive = naive_xor_program(bm, 6, 3, 8);
  XorProgram opt = optimize_xor_program(bm, 6, 3, 8);
  EXPECT_LT(opt.xor_count(), naive.xor_count() * 0.8)
      << "naive=" << naive.xor_count() << " opt=" << opt.xor_count();
}

TEST(XorProgram, NaiveCountEqualsScheduleOnes) {
  BitMatrix bm = parity_bitmatrix(4, 2, 8);
  XorProgram naive = naive_xor_program(bm, 4, 2, 8);
  // ones(B) ops total; first op per row is a copy, so XORs = ones - rows.
  EXPECT_EQ(naive.xor_count(), bm.ones() - bm.rows());
}

TEST(XorProgram, NaiveEqualsBitmatrixReference) {
  const int k = 3, m = 2, w = 8;
  BitMatrix bm = parity_bitmatrix(k, m, w);
  const std::size_t P = 512;

  auto data = rand_packets(k, P, 7);
  std::vector<ByteSpan> in;
  for (auto& d : data) in.push_back(d.span());

  auto a = rand_packets(m, P, 300);
  auto b = rand_packets(m, P, 400);
  std::vector<MutableByteSpan> ob;
  for (auto& x : b) ob.push_back(x.span());

  reference_product(bm, w, data, a, /*accumulate=*/false);
  run_xor_program(naive_xor_program(bm, k, m, w), in, ob);
  for (int r = 0; r < m; ++r)
    EXPECT_EQ(a[static_cast<std::size_t>(r)], b[static_cast<std::size_t>(r)]);
}

// Strips shorter than one tile, exactly one tile, and one tile plus one
// 8-byte word (a short last tile), in every field width.
TEST(XorProgram, TiledExecutorMatchesReferenceAtEveryStripLength) {
  for (const Shape s : {Shape{3, 2, 4}, Shape{4, 2, 8}, Shape{3, 2, 16}}) {
    const BitMatrix bm = parity_bitmatrix(s.k, s.m, s.w);
    const XorProgram naive = naive_xor_program(bm, s.k, s.m, s.w);
    const XorProgram opt = optimize_xor_program(bm, s.k, s.m, s.w);
    for (const std::size_t strip : {std::size_t{64}, kXorTile, kXorTile + 8}) {
      const std::size_t P = strip * static_cast<std::size_t>(s.w);
      const auto data = rand_packets(s.k, P, strip);
      const auto init = rand_packets(s.m, P, strip + 1000);
      for (const bool accumulate : {false, true}) {
        auto want = clones(init);
        reference_product(bm, s.w, data, want, accumulate);
        for (const XorProgram* prog : {&naive, &opt}) {
          auto got = clones(init);
          auto out = mut_spans(got);
          run_xor_program(*prog, spans(data), out, accumulate);
          for (int r = 0; r < s.m; ++r)
            ASSERT_EQ(got[static_cast<std::size_t>(r)],
                      want[static_cast<std::size_t>(r)])
                << "w=" << s.w << " strip=" << strip
                << " accumulate=" << accumulate
                << (prog == &opt ? " optimized" : " naive") << " row " << r;
        }
      }
    }
  }
}

TEST(XorProgram, BitmatrixMulPacketAccumulateFoldsTheProduct) {
  for (const int w : {4, 8, 16}) {
    CrsCodec codec(3, 2, w, KernelMode::kXorBitmatrix);
    const std::size_t P = (kXorTile + 8) * static_cast<std::size_t>(w);
    const auto src = rand_packets(1, P, 11);
    for (const std::uint32_t coeff : {0u, 1u, 2u, 0x9u, (1u << w) - 1}) {
      auto dst = rand_packets(1, P, 12);
      Buffer product(P, Buffer::Init::kUninitialized);
      codec.mul_packet(coeff, src[0].span(), product.span(), false);
      Buffer want = dst[0].clone();
      xor_into(want.span(), product.span());
      codec.mul_packet(coeff, src[0].span(), dst[0].span(), true);
      EXPECT_EQ(dst[0], want) << "w=" << w << " coeff=" << coeff;
    }
  }
}

TEST(XorProgram, BitmatrixEncodeEqualsNaiveProgram) {
  for (const Shape s : {Shape{8, 4, 8}, Shape{4, 2, 16}}) {
    CrsCodec codec(s.k, s.m, s.w, KernelMode::kXorBitmatrix);
    GfMatrix parity(s.m, s.k, codec.field());
    for (int r = 0; r < s.m; ++r)
      for (int c = 0; c < s.k; ++c)
        parity.set(r, c, codec.coefficient(s.k + r, c));
    const XorProgram naive =
        naive_xor_program(expand_to_bitmatrix(parity), s.k, s.m, s.w);

    const std::size_t P = (2 * kXorTile + 64) * static_cast<std::size_t>(s.w);
    const auto data = rand_packets(s.k, P, 21);
    auto want = rand_packets(s.m, P, 22);
    auto got = rand_packets(s.m, P, 23);
    auto want_out = mut_spans(want);
    auto got_out = mut_spans(got);
    run_xor_program(naive, spans(data), want_out);
    codec.encode(spans(data), got_out);
    for (int r = 0; r < s.m; ++r)
      EXPECT_EQ(got[static_cast<std::size_t>(r)],
                want[static_cast<std::size_t>(r)])
          << "(" << s.k << "," << s.m << "," << s.w << ") row " << r;
  }
}

// The encode program is built lazily by whichever encode comes first.
TEST(XorProgram, ConcurrentFirstEncodesAgree) {
  const CrsCodec codec(4, 2, 8, KernelMode::kXorBitmatrix);
  const std::size_t P = 8 * 64;
  const auto data = rand_packets(4, P, 31);
  std::vector<std::vector<Buffer>> results(4);
  std::vector<std::thread> threads;
  for (auto& r : results)
    threads.emplace_back([&codec, &data, &r] {
      r = rand_packets(2, P, 32);
      auto out = mut_spans(r);
      codec.encode(spans(data), out);
    });
  for (auto& t : threads) t.join();
  for (std::size_t i = 1; i < results.size(); ++i)
    for (int r = 0; r < 2; ++r)
      EXPECT_EQ(results[i][static_cast<std::size_t>(r)],
                results[0][static_cast<std::size_t>(r)]);
}

TEST(XorProgram, RejectsBadPacketSizes) {
  BitMatrix bm = parity_bitmatrix(2, 1, 8);
  XorProgram prog = naive_xor_program(bm, 2, 1, 8);
  Buffer in1(60, Buffer::Init::kUninitialized);
  Buffer in2(60, Buffer::Init::kUninitialized);
  Buffer out(60);
  std::vector<ByteSpan> in{in1.span(), in2.span()};
  std::vector<MutableByteSpan> o{out.span()};
  EXPECT_THROW(run_xor_program(prog, in, o), CheckFailure);
}

}  // namespace
}  // namespace eccheck::ec
