#include "gf/simd.hpp"

#include <array>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace eccheck::gf::simd {

namespace detail {

void xor_scalar(std::byte* dst, const std::byte* src, std::size_t n) {
  auto* d = reinterpret_cast<unsigned char*>(dst);
  const auto* s = reinterpret_cast<const unsigned char*>(src);
  std::size_t i = 0;
  // Word-at-a-time main loop; memcpy keeps it UB-free on unaligned tails.
  for (; i + sizeof(std::uint64_t) <= n; i += sizeof(std::uint64_t)) {
    std::uint64_t a, b;
    std::memcpy(&a, d + i, sizeof(a));
    std::memcpy(&b, s + i, sizeof(b));
    a ^= b;
    std::memcpy(d + i, &a, sizeof(a));
  }
  for (; i < n; ++i) d[i] ^= s[i];
}

void mul_region_b_scalar(const MulTables& t, const std::byte* src,
                         std::byte* dst, std::size_t n, bool accumulate) {
  const auto* s = reinterpret_cast<const unsigned char*>(src);
  auto* d = reinterpret_cast<unsigned char*>(dst);
  if (accumulate) {
    for (std::size_t i = 0; i < n; ++i) d[i] ^= t.byte_tab[s[i]];
  } else {
    for (std::size_t i = 0; i < n; ++i) d[i] = t.byte_tab[s[i]];
  }
}

void mul_region_w16_scalar(const MulTables& t, const std::byte* src,
                           std::byte* dst, std::size_t n, bool accumulate) {
  const auto* s = reinterpret_cast<const unsigned char*>(src);
  auto* d = reinterpret_cast<unsigned char*>(dst);
  for (std::size_t i = 0; i < n; i += 2) {
    const std::uint16_t v =
        static_cast<std::uint16_t>(t.lo16[s[i]] ^ t.hi16[s[i + 1]]);
    if (accumulate) {
      d[i] = static_cast<unsigned char>(d[i] ^ (v & 0xff));
      d[i + 1] = static_cast<unsigned char>(d[i + 1] ^ (v >> 8));
    } else {
      d[i] = static_cast<unsigned char>(v & 0xff);
      d[i + 1] = static_cast<unsigned char>(v >> 8);
    }
  }
}

namespace {

/// Slice-by-8 tables: kCrcTab[k][b] = b·x^(64+8k) mod P, i.e. the register
/// contribution of byte b followed by k more bytes. kCrcTab[0] is the
/// classic byte-at-a-time table.
using CrcTables = std::array<std::array<std::uint64_t, 256>, 8>;

constexpr CrcTables make_crc_tables() {
  CrcTables t{};
  for (std::size_t b = 0; b < 256; ++b) {
    std::uint64_t crc = static_cast<std::uint64_t>(b) << 56;
    for (int i = 0; i < 8; ++i)
      crc = (crc & (1ULL << 63)) ? (crc << 1) ^ kCrc64Poly : (crc << 1);
    t[0][b] = crc;
  }
  for (std::size_t k = 1; k < 8; ++k)
    for (std::size_t b = 0; b < 256; ++b)
      t[k][b] = (t[k - 1][b] << 8) ^ t[0][t[k - 1][b] >> 56];
  return t;
}

constexpr CrcTables kCrcTab = make_crc_tables();

inline std::uint64_t load_be64(const unsigned char* p) {
  std::uint64_t v = 0;
  std::memcpy(&v, p, sizeof(v));
  if constexpr (std::endian::native == std::endian::little)
    v = __builtin_bswap64(v);
  return v;
}

}  // namespace

std::uint64_t crc64_scalar(std::uint64_t crc, const std::byte* p,
                           std::size_t n) {
  const auto* s = reinterpret_cast<const unsigned char*>(p);
  std::size_t i = 0;
  // Eight bytes per step: fold them into the register (MSB-first, so the
  // first byte meets the top byte), then each byte of the sum contributes
  // its table entry for the number of bytes still to follow it.
  for (; i + 8 <= n; i += 8) {
    const std::uint64_t v = crc ^ load_be64(s + i);
    crc = kCrcTab[7][v >> 56] ^ kCrcTab[6][(v >> 48) & 0xff] ^
          kCrcTab[5][(v >> 40) & 0xff] ^ kCrcTab[4][(v >> 32) & 0xff] ^
          kCrcTab[3][(v >> 24) & 0xff] ^ kCrcTab[2][(v >> 16) & 0xff] ^
          kCrcTab[1][(v >> 8) & 0xff] ^ kCrcTab[0][v & 0xff];
  }
  for (; i < n; ++i) crc = (crc << 8) ^ kCrcTab[0][(crc >> 56) ^ s[i]];
  return crc;
}

namespace {
const Kernels kScalarKernels{Isa::kScalar, &xor_scalar, &mul_region_b_scalar,
                             &mul_region_w16_scalar, &crc64_scalar};
}  // namespace

}  // namespace detail

const char* isa_name(Isa isa) {
  switch (isa) {
    case Isa::kScalar: return "scalar";
    case Isa::kSse2: return "sse2";
    case Isa::kSsse3: return "ssse3";
    case Isa::kAvx2: return "avx2";
    case Isa::kNeon: return "neon";
  }
  return "unknown";
}

bool parse_isa(const std::string& name, Isa* out) {
  for (Isa isa : {Isa::kScalar, Isa::kSse2, Isa::kSsse3, Isa::kAvx2,
                  Isa::kNeon}) {
    if (name == isa_name(isa)) {
      *out = isa;
      return true;
    }
  }
  return false;
}

namespace {

const Kernels* compiled_kernels(Isa isa) {
  switch (isa) {
    case Isa::kScalar: return &detail::kScalarKernels;
    case Isa::kSse2: return detail::sse2_kernels();
    case Isa::kSsse3: return detail::ssse3_kernels();
    case Isa::kAvx2: return detail::avx2_kernels();
    case Isa::kNeon: return detail::neon_kernels();
  }
  return nullptr;
}

/// Does the host CPU execute this ISA? (The probe itself — cpuid on x86 —
/// runs inside __builtin_cpu_supports; results are cached by supported().)
bool cpu_has(Isa isa) {
  if (isa == Isa::kScalar) return true;
#if defined(__x86_64__) || defined(__i386__)
  switch (isa) {
    case Isa::kSse2: return __builtin_cpu_supports("sse2") != 0;
    case Isa::kSsse3: return __builtin_cpu_supports("ssse3") != 0;
    // The avx2 vtable's CRC64 folds with PCLMULQDQ, a separate feature bit.
    case Isa::kAvx2:
      return __builtin_cpu_supports("avx2") != 0 &&
             __builtin_cpu_supports("pclmul") != 0;
    default: return false;
  }
#elif defined(__aarch64__)
  return isa == Isa::kNeon;  // NEON is architecturally mandatory on aarch64
#else
  return false;
#endif
}

struct Probe {
  bool ok[5] = {};
  Probe() {
    for (int i = 0; i < 5; ++i) {
      const Isa isa = static_cast<Isa>(i);
      ok[i] = compiled_kernels(isa) != nullptr && cpu_has(isa);
    }
  }
};

const Probe& probe() {
  static const Probe p;
  return p;
}

}  // namespace

bool supported(Isa isa) {
  const int i = static_cast<int>(isa);
  return i >= 0 && i < 5 && probe().ok[i];
}

Isa best_supported() {
  // Enum order is preference order; NEON and the x86 tiers never coexist.
  for (int i = 4; i >= 0; --i)
    if (probe().ok[i]) return static_cast<Isa>(i);
  return Isa::kScalar;
}

std::vector<Isa> supported_isas() {
  std::vector<Isa> out;
  for (int i = 0; i < 5; ++i)
    if (probe().ok[i]) out.push_back(static_cast<Isa>(i));
  return out;
}

const Kernels& kernels_for(Isa isa) {
  if (supported(isa)) return *compiled_kernels(isa);
  return detail::kScalarKernels;
}

const Kernels& active() {
  static const Kernels* picked = [] {
    Isa pick = best_supported();
    if (const char* env = std::getenv("ECCHECK_SIMD"); env && *env) {
      Isa req;
      if (!parse_isa(env, &req)) {
        std::fprintf(stderr,
                     "eccheck: unknown ECCHECK_SIMD='%s' "
                     "(want scalar|sse2|ssse3|avx2|neon); using %s\n",
                     env, isa_name(pick));
      } else if (!supported(req)) {
        std::fprintf(stderr,
                     "eccheck: ECCHECK_SIMD=%s is not supported on this "
                     "host; using %s\n",
                     env, isa_name(pick));
      } else {
        pick = req;
      }
    }
    return &kernels_for(pick);
  }();
  return *picked;
}

const char* active_isa_name() { return isa_name(active().isa); }

std::string isa_span_name(const char* base) {
  return std::string(base) + "[" + active_isa_name() + "]";
}

}  // namespace eccheck::gf::simd
