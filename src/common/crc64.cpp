#include "common/crc64.hpp"

#include <array>

#include "gf/simd.hpp"

namespace eccheck {
namespace {

constexpr std::uint64_t kPoly = 0x42f0e1eba9ea3693ULL;

/// v·x mod the polynomial; bit 63 is the x^63 coefficient.
constexpr std::uint64_t times_x(std::uint64_t v) {
  return (v << 1) ^ (kPoly & (0 - (v >> 63)));
}

/// kFold[h] = h·x^64 mod the polynomial: folds back the nibble h that a
/// left shift by four pushes out of the register.
constexpr std::array<std::uint64_t, 16> make_fold() {
  std::array<std::uint64_t, 16> t{};
  for (std::uint64_t h = 0; h < 16; ++h) {
    std::uint64_t v = h;
    for (int i = 0; i < 64; ++i) v = times_x(v);
    t[h] = v;
  }
  return t;
}
constexpr std::array<std::uint64_t, 16> kFold = make_fold();

/// a·b mod the polynomial over GF(2), four bits of a per step.
constexpr std::uint64_t mul_mod(std::uint64_t a, std::uint64_t b) {
  std::array<std::uint64_t, 16> nib{};  // nib[d] = d·b
  for (std::size_t d = 1; d < 16; ++d)
    nib[d] = (d & 1) != 0 ? nib[d - 1] ^ b : times_x(nib[d / 2]);
  std::uint64_t r = 0;
  for (int s = 60; s >= 0; s -= 4)
    r = (r << 4) ^ kFold[r >> 60] ^ nib[(a >> s) & 15];
  return r;
}

/// kZeroShift[i][d] = x^(8·d·16^i) mod the polynomial: advancing over
/// d·16^i zero bytes is one multiply, so any n takes one per nonzero hex
/// digit.
using ShiftTable = std::array<std::array<std::uint64_t, 16>, 16>;
constexpr ShiftTable make_zero_shift() {
  ShiftTable t{};
  std::uint64_t step = std::uint64_t{1} << 8;  // x^8: one zero byte
  for (auto& row : t) {
    row[0] = 1;
    for (std::size_t d = 1; d < 16; ++d) row[d] = mul_mod(row[d - 1], step);
    step = mul_mod(row[15], step);
  }
  return t;
}
constexpr ShiftTable kZeroShift = make_zero_shift();

}  // namespace

std::uint64_t crc64(ByteSpan data, std::uint64_t seed) {
  return ~gf::simd::active().crc64(~seed, data.data(), data.size());
}

std::uint64_t crc64_shift(std::uint64_t reg, std::uint64_t n) {
  for (std::size_t i = 0; n != 0; ++i, n >>= 4)
    if ((n & 15) != 0) reg = mul_mod(reg, kZeroShift[i][n & 15]);
  return reg;
}

}  // namespace eccheck
