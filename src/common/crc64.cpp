#include "common/crc64.hpp"

#include "gf/simd.hpp"

namespace eccheck {

std::uint64_t crc64(ByteSpan data, std::uint64_t seed) {
  return ~gf::simd::active().crc64(~seed, data.data(), data.size());
}

}  // namespace eccheck
