// CRC64 for checkpoint integrity verification.
//
// Every tensor carries a CRC so tests can assert bit-exact recovery without
// holding a second copy of multi-megabyte payloads.
//
// The variant is CRC-64/WE: the ECMA-182 polynomial 0x42f0e1eba9ea3693,
// MSB-first (not reflected), register initialised to ~seed and the result
// complemented (seed 0 gives init = xorout = ~0; check value of "123456789"
// is 0x62ec59e3f1a4f00a). Because of the complements, a result can seed
// the next call to continue the same stream:
//
//   crc64(b, crc64(a)) == crc64(a ‖ b)
//
// The checksum runs on the dispatched gf::simd kernel (PCLMULQDQ folding on
// avx2 hosts, slice-by-8 tables elsewhere); every path returns the same
// value for every (data, seed).
#pragma once

#include <cstdint>

#include "common/bytes.hpp"

namespace eccheck {

std::uint64_t crc64(ByteSpan data, std::uint64_t seed = 0);

/// The raw CRC register `reg` (the state gf::simd's crc64 kernel carries,
/// before the final complement) advanced over `n` zero bytes:
/// reg·x^(8n) mod the polynomial, in O(log n) instead of O(n).
///
/// CRC is linear over GF(2), so it follows an in-place XOR patch without
/// rereading the buffer. If the bytes [off, off+len) of an N-byte buffer
/// change from `old` to `new` and K(·) is the raw kernel run from a zero
/// register (gf::simd::active().crc64(0, ·)), then
///
///   crc64(patched) == crc64(original) ^
///                     crc64_shift(K(old) ^ K(new), N - off - len)
std::uint64_t crc64_shift(std::uint64_t reg, std::uint64_t n);

}  // namespace eccheck
