// SSE2 kernels: 128-bit XOR. SSE2 has no byte shuffle, so the multiply
// entries point at the scalar split-table loops — selecting "sse2" still
// vectorizes XOR-reduce (the dominant primitive of bitmatrix schedules)
// while multiplies run the cached-table scalar path. CRC64 stays on the
// scalar slice-by-8 loop (carry-less folding needs PCLMULQDQ).
#include "gf/simd.hpp"

#if (defined(__x86_64__) || defined(__i386__)) && defined(__SSE2__)

#include <emmintrin.h>

#include "gf/kernels_x86.hpp"

namespace eccheck::gf::simd::detail {

void xor_into_sse2(std::byte* dst, const std::byte* src, std::size_t n) {
  auto* d = reinterpret_cast<unsigned char*>(dst);
  const auto* s = reinterpret_cast<const unsigned char*>(src);
  std::size_t i = 0;
  for (; i + 64 <= n; i += 64) {
    __m128i a0 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(d + i));
    __m128i a1 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(d + i + 16));
    __m128i a2 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(d + i + 32));
    __m128i a3 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(d + i + 48));
    __m128i b0 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(s + i));
    __m128i b1 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(s + i + 16));
    __m128i b2 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(s + i + 32));
    __m128i b3 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(s + i + 48));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(d + i),
                     _mm_xor_si128(a0, b0));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(d + i + 16),
                     _mm_xor_si128(a1, b1));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(d + i + 32),
                     _mm_xor_si128(a2, b2));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(d + i + 48),
                     _mm_xor_si128(a3, b3));
  }
  for (; i + 16 <= n; i += 16) {
    __m128i a = _mm_loadu_si128(reinterpret_cast<const __m128i*>(d + i));
    __m128i b = _mm_loadu_si128(reinterpret_cast<const __m128i*>(s + i));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(d + i), _mm_xor_si128(a, b));
  }
  if (i < n) xor_scalar(dst + i, src + i, n - i);
}

namespace {
const Kernels kSse2Kernels{Isa::kSse2, &xor_into_sse2, &mul_region_b_scalar,
                           &mul_region_w16_scalar, &crc64_scalar};
}  // namespace

const Kernels* sse2_kernels() { return &kSse2Kernels; }

}  // namespace eccheck::gf::simd::detail

#else  // not x86 / no SSE2

namespace eccheck::gf::simd::detail {
const Kernels* sse2_kernels() { return nullptr; }
}  // namespace eccheck::gf::simd::detail

#endif
