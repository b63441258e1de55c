#include "core/delta.hpp"

#include <algorithm>
#include <cstring>

#include "common/check.hpp"

namespace eccheck::core {
namespace {

void put_u32(std::byte* p, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<std::byte>(v >> (8 * i));
}

void put_u64(std::byte* p, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<std::byte>(v >> (8 * i));
}

std::uint32_t get_u32(const std::byte* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i)
    v |= static_cast<std::uint32_t>(std::to_integer<std::uint8_t>(p[i]))
         << (8 * i);
  return v;
}

std::uint64_t get_u64(const std::byte* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i)
    v |= static_cast<std::uint64_t>(std::to_integer<std::uint8_t>(p[i]))
         << (8 * i);
  return v;
}

}  // namespace

std::vector<DirtyExtent> diff_packet(int packet_index, ByteSpan base,
                                     ByteSpan next, std::size_t granularity) {
  ECC_CHECK(base.size() == next.size());
  ECC_CHECK(granularity > 0);
  // A skip span is a whole number of blocks, so the blocks of a dirty span
  // sit on the same grid as a plain block-by-block walk would put them.
  constexpr std::size_t kSkipSpan = 4096;
  const std::size_t span = (kSkipSpan + granularity - 1) / granularity *
                           granularity;
  const std::size_t size = base.size();
  std::vector<DirtyExtent> extents;
  for (std::size_t s = 0; s < size; s += span) {
    const std::size_t end = std::min(s + span, size);
    if (std::memcmp(base.data() + s, next.data() + s, end - s) == 0) continue;
    const bool one_block = end - s <= granularity;  // already known dirty
    for (std::size_t lo = s; lo < end; lo += granularity) {
      const std::size_t len = std::min(granularity, end - lo);
      if (!one_block &&
          std::memcmp(base.data() + lo, next.data() + lo, len) == 0)
        continue;
      if (!extents.empty() &&
          extents.back().offset + extents.back().length == lo) {
        extents.back().length += len;
      } else {
        extents.push_back({static_cast<std::uint32_t>(packet_index), lo, len});
      }
    }
  }
  return extents;
}

std::uint64_t dirty_bytes(const std::vector<DirtyExtent>& extents) {
  std::uint64_t n = 0;
  for (const DirtyExtent& e : extents) n += e.length;
  return n;
}

Buffer serialize_extents(const std::vector<DirtyExtent>& extents) {
  Buffer out(8 + extents.size() * 20, Buffer::Init::kZeroed);
  put_u64(out.data(), extents.size());
  std::byte* p = out.data() + 8;
  for (const DirtyExtent& e : extents) {
    put_u32(p, e.packet);
    put_u64(p + 4, e.offset);
    put_u64(p + 12, e.length);
    p += 20;
  }
  return out;
}

std::vector<DirtyExtent> deserialize_extents(ByteSpan blob) {
  ECC_CHECK_MSG(blob.size() >= 8, "truncated extent manifest");
  const std::uint64_t count = get_u64(blob.data());
  // Check against the count the size implies: `8 + count * 20` would wrap
  // for a hostile count.
  ECC_CHECK_MSG((blob.size() - 8) % 20 == 0 && count == (blob.size() - 8) / 20,
                "extent manifest size " << blob.size()
                                        << " inconsistent with count "
                                        << count);
  std::vector<DirtyExtent> extents(count);
  const std::byte* p = blob.data() + 8;
  for (std::uint64_t i = 0; i < count; ++i) {
    extents[i].packet = get_u32(p);
    extents[i].offset = get_u64(p + 4);
    extents[i].length = get_u64(p + 12);
    p += 20;
  }
  return extents;
}

}  // namespace eccheck::core
