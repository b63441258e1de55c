// NEON (aarch64) kernels. vqtbl1q_u8 is pshufb's cousin (and out-of-range
// indices already yield zero, so no mask-and-lookup dance is needed for the
// nibble tables); vld2q/vst2q de/re-interleave the w=16 lo/hi bytes for
// free, which x86 has to emulate with pack/unpack.
#include "gf/simd.hpp"

#if defined(__aarch64__) && defined(__ARM_NEON)

#include <arm_neon.h>

namespace eccheck::gf::simd::detail {
namespace {

void xor_into_neon(std::byte* dst, const std::byte* src, std::size_t n) {
  auto* d = reinterpret_cast<unsigned char*>(dst);
  const auto* s = reinterpret_cast<const unsigned char*>(src);
  std::size_t i = 0;
  for (; i + 64 <= n; i += 64) {
    uint8x16x4_t a = vld1q_u8_x4(d + i);
    uint8x16x4_t b = vld1q_u8_x4(s + i);
    a.val[0] = veorq_u8(a.val[0], b.val[0]);
    a.val[1] = veorq_u8(a.val[1], b.val[1]);
    a.val[2] = veorq_u8(a.val[2], b.val[2]);
    a.val[3] = veorq_u8(a.val[3], b.val[3]);
    vst1q_u8_x4(d + i, a);
  }
  for (; i + 16 <= n; i += 16)
    vst1q_u8(d + i, veorq_u8(vld1q_u8(d + i), vld1q_u8(s + i)));
  if (i < n) xor_scalar(dst + i, src + i, n - i);
}

template <bool Acc>
void mul_b_impl(const MulTables& t, const std::byte* src, std::byte* dst,
                std::size_t n) {
  const uint8x16_t lo_tab = vld1q_u8(t.lo_nib);
  const uint8x16_t hi_tab = vld1q_u8(t.hi_nib);
  const uint8x16_t nib = vdupq_n_u8(0x0f);
  auto* d = reinterpret_cast<unsigned char*>(dst);
  const auto* s = reinterpret_cast<const unsigned char*>(src);
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const uint8x16_t v = vld1q_u8(s + i);
    const uint8x16_t lo = vandq_u8(v, nib);
    const uint8x16_t hi = vshrq_n_u8(v, 4);
    uint8x16_t p = veorq_u8(vqtbl1q_u8(lo_tab, lo), vqtbl1q_u8(hi_tab, hi));
    if (Acc) p = veorq_u8(p, vld1q_u8(d + i));
    vst1q_u8(d + i, p);
  }
  if (i < n) mul_region_b_scalar(t, src + i, dst + i, n - i, Acc);
}

template <bool Acc>
void mul_w16_impl(const MulTables& t, const std::byte* src, std::byte* dst,
                  std::size_t n) {
  const uint8x16_t tl0 = vld1q_u8(t.nib16_lo[0]);
  const uint8x16_t tl1 = vld1q_u8(t.nib16_lo[1]);
  const uint8x16_t tl2 = vld1q_u8(t.nib16_lo[2]);
  const uint8x16_t tl3 = vld1q_u8(t.nib16_lo[3]);
  const uint8x16_t th0 = vld1q_u8(t.nib16_hi[0]);
  const uint8x16_t th1 = vld1q_u8(t.nib16_hi[1]);
  const uint8x16_t th2 = vld1q_u8(t.nib16_hi[2]);
  const uint8x16_t th3 = vld1q_u8(t.nib16_hi[3]);
  const uint8x16_t nib = vdupq_n_u8(0x0f);
  auto* d = reinterpret_cast<unsigned char*>(dst);
  const auto* s = reinterpret_cast<const unsigned char*>(src);
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    // De-interleaved load: val[0] = low bytes of 16 symbols, val[1] = high.
    const uint8x16x2_t v = vld2q_u8(s + i);
    const uint8x16_t n0 = vandq_u8(v.val[0], nib);
    const uint8x16_t n1 = vshrq_n_u8(v.val[0], 4);
    const uint8x16_t n2 = vandq_u8(v.val[1], nib);
    const uint8x16_t n3 = vshrq_n_u8(v.val[1], 4);
    uint8x16x2_t r;
    r.val[0] = veorq_u8(veorq_u8(vqtbl1q_u8(tl0, n0), vqtbl1q_u8(tl1, n1)),
                        veorq_u8(vqtbl1q_u8(tl2, n2), vqtbl1q_u8(tl3, n3)));
    r.val[1] = veorq_u8(veorq_u8(vqtbl1q_u8(th0, n0), vqtbl1q_u8(th1, n1)),
                        veorq_u8(vqtbl1q_u8(th2, n2), vqtbl1q_u8(th3, n3)));
    if (Acc) {
      const uint8x16x2_t old = vld2q_u8(d + i);
      r.val[0] = veorq_u8(r.val[0], old.val[0]);
      r.val[1] = veorq_u8(r.val[1], old.val[1]);
    }
    vst2q_u8(d + i, r);  // re-interleaves lo/hi back to symbol order
  }
  if (i < n) mul_region_w16_scalar(t, src + i, dst + i, n - i, Acc);
}

void mul_b(const MulTables& t, const std::byte* src, std::byte* dst,
           std::size_t n, bool accumulate) {
  if (accumulate)
    mul_b_impl<true>(t, src, dst, n);
  else
    mul_b_impl<false>(t, src, dst, n);
}

void mul_w16(const MulTables& t, const std::byte* src, std::byte* dst,
             std::size_t n, bool accumulate) {
  if (accumulate)
    mul_w16_impl<true>(t, src, dst, n);
  else
    mul_w16_impl<false>(t, src, dst, n);
}

const Kernels kNeonKernels{Isa::kNeon, &xor_into_neon, &mul_b, &mul_w16,
                           &crc64_scalar};

}  // namespace

const Kernels* neon_kernels() { return &kNeonKernels; }

}  // namespace eccheck::gf::simd::detail

#else  // not aarch64

namespace eccheck::gf::simd::detail {
const Kernels* neon_kernels() { return nullptr; }
}  // namespace eccheck::gf::simd::detail

#endif
