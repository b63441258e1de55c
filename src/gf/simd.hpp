// Runtime-dispatched XOR / GF(2^w) region kernels and the CRC64 checksum.
//
// The encode hot path is two byte-level primitives: dst ^= src (XOR-reduce,
// bitmatrix schedules) and dst (^)= c·src over packed GF(2^w) symbols
// (Cauchy-RS partial products). Every wire frame, remote chunk and commit
// row is additionally checksummed with CRC-64 (common/crc64.hpp). This
// layer provides vectorized implementations of all three behind a
// one-time-probed dispatch table:
//
//   scalar — portable uint64/table loops, the bit-exact reference;
//            CRC64 is a slice-by-8 table loop
//   sse2   — 128-bit XOR; multiplies stay on the scalar table loop
//            (no byte shuffle before SSSE3)
//   ssse3  — 128-bit XOR + 4-bit split-table multiply via pshufb
//            (GF-Complete / ISA-L style)
//   avx2   — the same with 256-bit registers, plus a carry-less-multiply
//            (PCLMULQDQ) CRC64: fold-by-4 over 64-byte blocks, fold-by-1,
//            then an exact table reduction of the last 128-bit remainder
//   neon   — aarch64 vtbl/veor equivalents
//
// sse2, ssse3 and neon share the scalar slice-by-8 CRC64.
//
// The active ISA is probed once per process (cpuid via
// __builtin_cpu_supports on x86 — avx2 additionally requires the pclmul
// feature bit — unconditional NEON on aarch64) and can be
// pinned for testing with ECCHECK_SIMD=scalar|sse2|ssse3|avx2|neon; an
// unknown or unsupported request warns once on stderr and falls back to the
// probed best. Every ISA is bit-exact with scalar — tests/test_gf_simd
// compares all dispatched paths differentially, including misaligned
// buffers and odd tails.
//
// Kernels are table-driven and field-agnostic: gf::Field builds a MulTables
// per (field, constant) — cached there, see Field::tables_for — and the
// kernels only index into it. Buffers may be arbitrarily aligned; vector
// bodies use unaligned loads with scalar tail cleanup (eccheck::Buffer's
// 64-byte alignment lets full-packet calls hit the aligned fast path).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace eccheck::gf::simd {

enum class Isa : int {
  kScalar = 0,
  kSse2 = 1,
  kSsse3 = 2,
  kAvx2 = 3,
  kNeon = 4,
};

/// Lookup tables for multiplication by one constant c in one field, laid out
/// for both the scalar and the nibble-shuffle kernels. Built by
/// gf::Field::tables_for (which caches them per (field, c)).
struct alignas(64) MulTables {
  // w=4/8 nibble split: product byte of b is lo_nib[b & 0xf] ^ hi_nib[b >> 4]
  // (for w=4 the tables carry the <<4 shift of the high nibble's product).
  std::uint8_t lo_nib[16];
  std::uint8_t hi_nib[16];
  // w=16 nibble split: with x = Σ_j n_j·16^j (n_j the j-th nibble of the
  // little-endian symbol), c·x = Σ_j c·(n_j << 4j); nib16_lo/hi hold the
  // low/high product bytes per nibble position.
  std::uint8_t nib16_lo[4][16];
  std::uint8_t nib16_hi[4][16];
  // Full-byte tables: the scalar kernels and all vector tails.
  std::uint8_t byte_tab[256];              // w<=8: product of a whole byte
  std::uint16_t lo16[256], hi16[256];      // w=16: c·b and c·(b<<8)
};

/// One ISA's kernel set. Function pointers, resolved once — no per-call
/// branching beyond the indirect call.
struct Kernels {
  Isa isa = Isa::kScalar;
  /// dst ^= src over n bytes. Any alignment, n >= 0, dst may equal src.
  void (*xor_into)(std::byte* dst, const std::byte* src, std::size_t n) =
      nullptr;
  /// Byte-symbol multiply (w=4 packs two symbols per byte, w=8 one):
  /// dst (^)= table-product of src over n bytes.
  void (*mul_region_b)(const MulTables& t, const std::byte* src,
                       std::byte* dst, std::size_t n, bool accumulate) =
      nullptr;
  /// w=16 multiply over packed little-endian symbols; n must be even.
  void (*mul_region_w16)(const MulTables& t, const std::byte* src,
                         std::byte* dst, std::size_t n, bool accumulate) =
      nullptr;
  /// Advance a raw CRC-64/WE register (MSB-first, poly 0x42f0e1eba9ea3693,
  /// no init/xorout applied — eccheck::crc64 wraps those) over n bytes.
  std::uint64_t (*crc64)(std::uint64_t state, const std::byte* p,
                         std::size_t n) = nullptr;
};

const char* isa_name(Isa isa);

/// Parse "scalar" / "sse2" / "ssse3" / "avx2" / "neon" (case-sensitive).
bool parse_isa(const std::string& name, Isa* out);

/// Compiled in AND usable on this host (probed once, cached).
bool supported(Isa isa);

/// The fastest supported ISA.
Isa best_supported();

/// All supported ISAs, ascending; always starts with kScalar.
std::vector<Isa> supported_isas();

/// Kernel set for one ISA; falls back to scalar if `isa` is unsupported
/// (callers that care should check supported() first — tests iterate
/// supported_isas()).
const Kernels& kernels_for(Isa isa);

/// The process-wide kernel set: best_supported(), overridable with the
/// ECCHECK_SIMD environment variable (read once, on first use).
const Kernels& active();

/// Name of the ISA behind active() — for tracer span labels and reports.
const char* active_isa_name();

/// "<base>[<isa>]" with the active ISA — the naming convention for
/// kernel-level tracer spans ("codec.encode[avx2]"). Call sites keep the
/// result in a function-local static so the hot path never rebuilds it.
std::string isa_span_name(const char* base);

namespace detail {
/// CRC-64/WE generator polynomial (ECMA-182), x^64 implicit.
inline constexpr std::uint64_t kCrc64Poly = 0x42f0e1eba9ea3693ULL;

// Per-ISA vtables; null when the ISA is not compiled into this binary
// (wrong architecture or the compiler rejected the target flag). Host
// support is checked separately by supported().
const Kernels* sse2_kernels();
const Kernels* ssse3_kernels();
const Kernels* avx2_kernels();
const Kernels* neon_kernels();

// Scalar kernels, shared as tail cleanup by every vector implementation.
void xor_scalar(std::byte* dst, const std::byte* src, std::size_t n);
void mul_region_b_scalar(const MulTables& t, const std::byte* src,
                         std::byte* dst, std::size_t n, bool accumulate);
void mul_region_w16_scalar(const MulTables& t, const std::byte* src,
                           std::byte* dst, std::size_t n, bool accumulate);
std::uint64_t crc64_scalar(std::uint64_t state, const std::byte* p,
                           std::size_t n);
}  // namespace detail

}  // namespace eccheck::gf::simd
