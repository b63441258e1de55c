// SSSE3 kernels: 4-bit split-table GF multiply via pshufb (the
// GF-Complete / ISA-L technique). A 16-entry nibble-product table lives in
// one xmm register; _mm_shuffle_epi8 looks up 16 products per instruction.
#include "gf/simd.hpp"

#if (defined(__x86_64__) || defined(__i386__)) && defined(__SSSE3__)

#include <tmmintrin.h>

#include "gf/kernels_x86.hpp"

namespace eccheck::gf::simd::detail {
namespace {

inline __m128i loadu(const void* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}
inline void storeu(void* p, __m128i v) {
  _mm_storeu_si128(reinterpret_cast<__m128i*>(p), v);
}

/// Byte-symbol multiply (w=4/8): per 16-byte block, product =
/// lo_tab[b & 0xf] ^ hi_tab[b >> 4].
template <bool Acc>
void mul_b_impl(const MulTables& t, const std::byte* src, std::byte* dst,
                std::size_t n) {
  const __m128i lo_tab = loadu(t.lo_nib);
  const __m128i hi_tab = loadu(t.hi_nib);
  const __m128i nib = _mm_set1_epi8(0x0f);
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m128i v = loadu(src + i);
    const __m128i lo = _mm_and_si128(v, nib);
    const __m128i hi = _mm_and_si128(_mm_srli_epi16(v, 4), nib);
    __m128i p = _mm_xor_si128(_mm_shuffle_epi8(lo_tab, lo),
                              _mm_shuffle_epi8(hi_tab, hi));
    if (Acc) p = _mm_xor_si128(p, loadu(dst + i));
    storeu(dst + i, p);
  }
  if (i < n) mul_region_b_scalar(t, src + i, dst + i, n - i, Acc);
}

/// w=16 multiply over interleaved little-endian symbols, 32 bytes
/// (16 symbols) per block: deinterleave lo/hi product-input bytes with
/// pack, shuffle 4 nibble positions, reinterleave with unpack.
template <bool Acc>
void mul_w16_impl(const MulTables& t, const std::byte* src, std::byte* dst,
                  std::size_t n) {
  const __m128i tl0 = loadu(t.nib16_lo[0]), tl1 = loadu(t.nib16_lo[1]);
  const __m128i tl2 = loadu(t.nib16_lo[2]), tl3 = loadu(t.nib16_lo[3]);
  const __m128i th0 = loadu(t.nib16_hi[0]), th1 = loadu(t.nib16_hi[1]);
  const __m128i th2 = loadu(t.nib16_hi[2]), th3 = loadu(t.nib16_hi[3]);
  const __m128i nib = _mm_set1_epi8(0x0f);
  const __m128i lo8 = _mm_set1_epi16(0x00ff);
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m128i a = loadu(src + i);       // symbols 0..7, interleaved
    const __m128i b = loadu(src + i + 16);  // symbols 8..15
    // lo[j] = low byte of symbol j, hi[j] = high byte.
    const __m128i lo = _mm_packus_epi16(_mm_and_si128(a, lo8),
                                        _mm_and_si128(b, lo8));
    const __m128i hi =
        _mm_packus_epi16(_mm_srli_epi16(a, 8), _mm_srli_epi16(b, 8));
    const __m128i n0 = _mm_and_si128(lo, nib);
    const __m128i n1 = _mm_and_si128(_mm_srli_epi16(lo, 4), nib);
    const __m128i n2 = _mm_and_si128(hi, nib);
    const __m128i n3 = _mm_and_si128(_mm_srli_epi16(hi, 4), nib);
    __m128i plo = _mm_xor_si128(
        _mm_xor_si128(_mm_shuffle_epi8(tl0, n0), _mm_shuffle_epi8(tl1, n1)),
        _mm_xor_si128(_mm_shuffle_epi8(tl2, n2), _mm_shuffle_epi8(tl3, n3)));
    __m128i phi = _mm_xor_si128(
        _mm_xor_si128(_mm_shuffle_epi8(th0, n0), _mm_shuffle_epi8(th1, n1)),
        _mm_xor_si128(_mm_shuffle_epi8(th2, n2), _mm_shuffle_epi8(th3, n3)));
    __m128i r0 = _mm_unpacklo_epi8(plo, phi);  // products of symbols 0..7
    __m128i r1 = _mm_unpackhi_epi8(plo, phi);  // products of symbols 8..15
    if (Acc) {
      r0 = _mm_xor_si128(r0, loadu(dst + i));
      r1 = _mm_xor_si128(r1, loadu(dst + i + 16));
    }
    storeu(dst + i, r0);
    storeu(dst + i + 16, r1);
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

const Kernels kSsse3Kernels{Isa::kSsse3, &xor_into_sse2, &mul_b, &mul_w16,
                            &crc64_scalar};

}  // namespace

const Kernels* ssse3_kernels() { return &kSsse3Kernels; }

}  // namespace eccheck::gf::simd::detail

#else  // not x86 / no SSSE3

namespace eccheck::gf::simd::detail {
const Kernels* ssse3_kernels() { return nullptr; }
}  // namespace eccheck::gf::simd::detail

#endif
