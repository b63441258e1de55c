// AVX2 kernels: the SSSE3 split-table technique widened to 256-bit
// registers (vpshufb shuffles within each 128-bit lane, which is exactly
// what a broadcast 16-entry table wants). XOR gets an aligned fast path —
// eccheck::Buffer allocations are 64-byte aligned, so whole-packet calls
// peel at most a strip prefix and then run aligned loads/stores.
//
// CRC64 uses carry-less multiplication (PCLMULQDQ, compiled in with
// -mpclmul; the dispatcher only offers avx2 when the CPU reports both
// features): Intel's "Fast CRC Computation for Generic Polynomials Using
// PCLMULQDQ" in its non-reflected form.
#include "gf/simd.hpp"

#if (defined(__x86_64__) || defined(__i386__)) && defined(__AVX2__) && \
    defined(__PCLMUL__)

#include <immintrin.h>

namespace eccheck::gf::simd::detail {
namespace {

inline __m256i loadu(const void* p) {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
}
inline void storeu(void* p, __m256i v) {
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
}
inline __m256i broadcast_table(const std::uint8_t* t16) {
  return _mm256_broadcastsi128_si256(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(t16)));
}

void xor_into_avx2(std::byte* dst, const std::byte* src, std::size_t n) {
  auto* d = reinterpret_cast<unsigned char*>(dst);
  const auto* s = reinterpret_cast<const unsigned char*>(src);
  std::size_t i = 0;
  const std::size_t dmis = reinterpret_cast<std::uintptr_t>(d) & 31;
  if (n >= 96 && dmis != 0 &&
      dmis == (reinterpret_cast<std::uintptr_t>(s) & 31)) {
    // Co-aligned buffers: peel to a 32-byte boundary, then run aligned.
    xor_scalar(dst, src, 32 - dmis);
    i = 32 - dmis;
  }
  if (((reinterpret_cast<std::uintptr_t>(d + i) |
        reinterpret_cast<std::uintptr_t>(s + i)) &
       31) == 0) {
    for (; i + 64 <= n; i += 64) {
      const __m256i* ds = reinterpret_cast<const __m256i*>(d + i);
      const __m256i* ss = reinterpret_cast<const __m256i*>(s + i);
      __m256i r0 = _mm256_xor_si256(_mm256_load_si256(ds),
                                    _mm256_load_si256(ss));
      __m256i r1 = _mm256_xor_si256(_mm256_load_si256(ds + 1),
                                    _mm256_load_si256(ss + 1));
      _mm256_store_si256(reinterpret_cast<__m256i*>(d + i), r0);
      _mm256_store_si256(reinterpret_cast<__m256i*>(d + i) + 1, r1);
    }
  } else {
    for (; i + 64 <= n; i += 64) {
      __m256i r0 = _mm256_xor_si256(loadu(d + i), loadu(s + i));
      __m256i r1 = _mm256_xor_si256(loadu(d + i + 32), loadu(s + i + 32));
      storeu(d + i, r0);
      storeu(d + i + 32, r1);
    }
  }
  for (; i + 32 <= n; i += 32)
    storeu(d + i, _mm256_xor_si256(loadu(d + i), loadu(s + i)));
  if (i < n) xor_scalar(dst + i, src + i, n - i);
}

template <bool Acc>
void mul_b_impl(const MulTables& t, const std::byte* src, std::byte* dst,
                std::size_t n) {
  const __m256i lo_tab = broadcast_table(t.lo_nib);
  const __m256i hi_tab = broadcast_table(t.hi_nib);
  const __m256i nib = _mm256_set1_epi8(0x0f);
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m256i v = loadu(src + i);
    const __m256i lo = _mm256_and_si256(v, nib);
    const __m256i hi = _mm256_and_si256(_mm256_srli_epi16(v, 4), nib);
    __m256i p = _mm256_xor_si256(_mm256_shuffle_epi8(lo_tab, lo),
                                 _mm256_shuffle_epi8(hi_tab, hi));
    if (Acc) p = _mm256_xor_si256(p, loadu(dst + i));
    storeu(dst + i, p);
  }
  if (i < n) mul_region_b_scalar(t, src + i, dst + i, n - i, Acc);
}

/// w=16, 64 bytes (32 symbols) per block. pack/unpack operate per 128-bit
/// lane, but since the deinterleave (pack) and reinterleave (unpack) use the
/// same lane geometry the output lands back in source order — see the r0/r1
/// comments.
template <bool Acc>
void mul_w16_impl(const MulTables& t, const std::byte* src, std::byte* dst,
                  std::size_t n) {
  const __m256i tl0 = broadcast_table(t.nib16_lo[0]);
  const __m256i tl1 = broadcast_table(t.nib16_lo[1]);
  const __m256i tl2 = broadcast_table(t.nib16_lo[2]);
  const __m256i tl3 = broadcast_table(t.nib16_lo[3]);
  const __m256i th0 = broadcast_table(t.nib16_hi[0]);
  const __m256i th1 = broadcast_table(t.nib16_hi[1]);
  const __m256i th2 = broadcast_table(t.nib16_hi[2]);
  const __m256i th3 = broadcast_table(t.nib16_hi[3]);
  const __m256i nib = _mm256_set1_epi8(0x0f);
  const __m256i lo8 = _mm256_set1_epi16(0x00ff);
  std::size_t i = 0;
  for (; i + 64 <= n; i += 64) {
    const __m256i a = loadu(src + i);       // symbols 0..15, interleaved
    const __m256i b = loadu(src + i + 32);  // symbols 16..31
    const __m256i lo = _mm256_packus_epi16(_mm256_and_si256(a, lo8),
                                           _mm256_and_si256(b, lo8));
    const __m256i hi = _mm256_packus_epi16(_mm256_srli_epi16(a, 8),
                                           _mm256_srli_epi16(b, 8));
    const __m256i n0 = _mm256_and_si256(lo, nib);
    const __m256i n1 = _mm256_and_si256(_mm256_srli_epi16(lo, 4), nib);
    const __m256i n2 = _mm256_and_si256(hi, nib);
    const __m256i n3 = _mm256_and_si256(_mm256_srli_epi16(hi, 4), nib);
    const __m256i plo = _mm256_xor_si256(
        _mm256_xor_si256(_mm256_shuffle_epi8(tl0, n0),
                         _mm256_shuffle_epi8(tl1, n1)),
        _mm256_xor_si256(_mm256_shuffle_epi8(tl2, n2),
                         _mm256_shuffle_epi8(tl3, n3)));
    const __m256i phi = _mm256_xor_si256(
        _mm256_xor_si256(_mm256_shuffle_epi8(th0, n0),
                         _mm256_shuffle_epi8(th1, n1)),
        _mm256_xor_si256(_mm256_shuffle_epi8(th2, n2),
                         _mm256_shuffle_epi8(th3, n3)));
    // unpacklo rebuilds symbols 0..7 (lane 0) and 8..15 (lane 1) = bytes
    // [i, i+32); unpackhi rebuilds 16..23 / 24..31 = bytes [i+32, i+64).
    __m256i r0 = _mm256_unpacklo_epi8(plo, phi);
    __m256i r1 = _mm256_unpackhi_epi8(plo, phi);
    if (Acc) {
      r0 = _mm256_xor_si256(r0, loadu(dst + i));
      r1 = _mm256_xor_si256(r1, loadu(dst + i + 32));
    }
    storeu(dst + i, r0);
    storeu(dst + i + 32, r1);
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

/// x^n mod P, n >= 64: the folding constants.
constexpr std::uint64_t xpow_mod(unsigned n) {
  std::uint64_t v = kCrc64Poly;  // x^64 mod P
  for (unsigned i = 64; i < n; ++i)
    v = (v << 1) ^ ((v >> 63) ? kCrc64Poly : 0);
  return v;
}

/// Constants that move a 128-bit accumulator `Bits` further down the
/// message: high qword x^(Bits+64) mod P, low qword x^Bits mod P (both
/// evaluated at compile time).
template <unsigned Bits>
inline __m128i fold_constants() {
  constexpr std::uint64_t hi = xpow_mod(Bits + 64), lo = xpow_mod(Bits);
  return _mm_set_epi64x(static_cast<long long>(hi),
                        static_cast<long long>(lo));
}

/// acc·x^Bits + next (mod P), for the `Bits` behind fold_constants():
/// each 64-bit half times its constant is a 127-bit product, so the result
/// stays a 128-bit value congruent to the whole prefix.
inline __m128i fold(__m128i acc, __m128i k, __m128i next) {
  return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(acc, k, 0x11),
                                     _mm_clmulepi64_si128(acc, k, 0x00)),
                       next);
}

/// 16 message bytes as one polynomial: the first byte's MSB is x^127.
inline __m128i load_be128(const unsigned char* p, __m128i bswap) {
  return _mm_shuffle_epi8(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(p)), bswap);
}

std::uint64_t crc64_pclmul(std::uint64_t crc, const std::byte* p,
                           std::size_t n) {
  if (n < 16) return crc64_scalar(crc, p, n);
  const auto* s = reinterpret_cast<const unsigned char*>(p);
  const __m128i bswap =
      _mm_setr_epi8(15, 14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0);
  const __m128i k128 = fold_constants<128>();
  // The register contributes state·x^(8n), which is the state XORed over
  // the message's first 64 bits.
  __m128i x0 = _mm_xor_si128(load_be128(s, bswap),
                             _mm_set_epi64x(static_cast<long long>(crc), 0));
  std::size_t i = 16;
  if (n >= 64) {
    // Four independent accumulators hide the multiply latency; each
    // advances 512 bits per step.
    const __m128i k512 = fold_constants<512>();
    __m128i x1 = load_be128(s + 16, bswap);
    __m128i x2 = load_be128(s + 32, bswap);
    __m128i x3 = load_be128(s + 48, bswap);
    for (i = 64; i + 64 <= n; i += 64) {
      x0 = fold(x0, k512, load_be128(s + i, bswap));
      x1 = fold(x1, k512, load_be128(s + i + 16, bswap));
      x2 = fold(x2, k512, load_be128(s + i + 32, bswap));
      x3 = fold(x3, k512, load_be128(s + i + 48, bswap));
    }
    x0 = fold(fold(fold(x0, k128, x1), k128, x2), k128, x3);
  }
  for (; i + 16 <= n; i += 16) x0 = fold(x0, k128, load_be128(s + i, bswap));
  // x0 ≡ the message so far (mod P), so the register after it is the CRC
  // of x0's 16 bytes from a zero state — exact, no Barrett step needed.
  alignas(16) unsigned char rem[16];
  _mm_store_si128(reinterpret_cast<__m128i*>(rem),
                  _mm_shuffle_epi8(x0, bswap));
  crc = crc64_scalar(0, reinterpret_cast<const std::byte*>(rem), 16);
  return crc64_scalar(crc, p + i, n - i);
}

const Kernels kAvx2Kernels{Isa::kAvx2, &xor_into_avx2, &mul_b, &mul_w16,
                           &crc64_pclmul};

}  // namespace

const Kernels* avx2_kernels() { return &kAvx2Kernels; }

}  // namespace eccheck::gf::simd::detail

#else  // not x86 / no AVX2 or PCLMUL

namespace eccheck::gf::simd::detail {
const Kernels* avx2_kernels() { return nullptr; }
}  // namespace eccheck::gf::simd::detail

#endif
