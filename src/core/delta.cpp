#include "core/delta.hpp"

#include <algorithm>
#include <cstring>

#include "common/check.hpp"
#include "core/protocol.hpp"

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

/// A slice of a packet's bytes: its offset in the packet and the tensor
/// bytes there. A packet is its pieces back to back from offset 0, then
/// zeros; pieces are never empty.
struct Piece {
  std::size_t at;
  ByteSpan bytes;
};

/// Walks packet bytes [lo, hi) as maximal runs: `run(at, n, src)` gets each
/// run's packet offset, length and tensor bytes, src null over the zero
/// tail. Stops early, returning false, when `run` returns false.
template <typename Run>
bool for_each_run(std::span<const Piece> pieces, std::size_t lo,
                  std::size_t hi, Run&& run) {
  auto it = std::upper_bound(
      pieces.begin(), pieces.end(), lo, [](std::size_t x, const Piece& p) {
        return x < p.at + p.bytes.size();
      });
  for (; lo < hi && it != pieces.end(); ++it) {
    const std::size_t n = std::min(hi, it->at + it->bytes.size()) - lo;
    if (!run(lo, n, it->bytes.data() + (lo - it->at))) return false;
    lo += n;
  }
  return lo >= hi || run(lo, hi - lo, nullptr);
}

bool all_zero(const std::byte* p, std::size_t n) {
  static constexpr std::byte kZeros[4096] = {};
  for (std::size_t at = 0; at < n; at += sizeof kZeros)
    if (std::memcmp(p + at, kZeros, std::min(sizeof kZeros, n - at)) != 0)
      return false;
  return true;
}

/// Whether the packet's bytes [lo, hi) equal base's.
bool same(ByteSpan base, std::span<const Piece> pieces, std::size_t lo,
          std::size_t hi) {
  return for_each_run(pieces, lo, hi,
                      [&](std::size_t at, std::size_t n, const std::byte* src) {
                        return src != nullptr
                                   ? std::memcmp(base.data() + at, src, n) == 0
                                   : all_zero(base.data() + at, n);
                      });
}

/// The one diff behind diff_packet and diff_tensors: appends the merged
/// dirty extents of the packet made of `pieces` to `extents` and, when
/// `delta` is given, each extent's new ⊕ base to it.
void diff_pieces(std::uint32_t packet, ByteSpan base,
                 std::span<const Piece> pieces, std::size_t granularity,
                 std::vector<DirtyExtent>& extents,
                 std::vector<std::byte>* delta) {
  ECC_CHECK(granularity > 0);
  // A skip span is a whole number of blocks, so the blocks of a dirty span
  // sit on the same grid as a plain block-by-block walk would put them.
  constexpr std::size_t kSkipSpan = 4096;
  const std::size_t span = (kSkipSpan + granularity - 1) / granularity *
                           granularity;
  const std::size_t size = base.size();
  const std::size_t first = extents.size();
  for (std::size_t s = 0; s < size; s += span) {
    const std::size_t end = std::min(s + span, size);
    if (same(base, pieces, s, end)) continue;
    const bool one_block = end - s <= granularity;  // already known dirty
    for (std::size_t lo = s; lo < end; lo += granularity) {
      const std::size_t len = std::min(granularity, end - lo);
      if (!one_block && same(base, pieces, lo, lo + len)) continue;
      if (extents.size() > first &&
          extents.back().offset + extents.back().length == lo) {
        extents.back().length += len;
      } else {
        extents.push_back({packet, lo, len});
      }
    }
  }
  if (delta == nullptr) return;
  for (std::size_t x = first; x < extents.size(); ++x) {
    const DirtyExtent& e = extents[x];
    for_each_run(pieces, e.offset, e.offset + e.length,
                 [&](std::size_t at, std::size_t n, const std::byte* src) {
                   // Over the zero tail new ⊕ base is the base bytes.
                   const std::size_t d = delta->size();
                   const std::byte* from = src ? src : base.data() + at;
                   delta->insert(delta->end(), from, from + n);
                   if (src != nullptr)
                     xor_into(MutableByteSpan(delta->data() + d, n),
                              base.subspan(at, n));
                   return true;
                 });
  }
}

}  // namespace

std::vector<DirtyExtent> diff_packet(int packet_index, ByteSpan base,
                                     ByteSpan next, std::size_t granularity) {
  ECC_CHECK(base.size() == next.size());
  const Piece whole{0, next};
  std::vector<DirtyExtent> extents;
  diff_pieces(static_cast<std::uint32_t>(packet_index), base,
              std::span<const Piece>(&whole, next.empty() ? 0 : 1),
              granularity, extents, nullptr);
  return extents;
}

std::uint64_t diff_tensors(const std::vector<ByteSpan>& tensors,
                           std::size_t b, ByteSpan base,
                           std::size_t granularity,
                           std::vector<DirtyExtent>& extents,
                           std::vector<std::byte>& delta) {
  std::vector<Piece> pieces;
  std::size_t at = 0;
  for_each_packet_piece(tensors, b, base.size(), [&](ByteSpan src) {
    pieces.push_back({at, src});
    at += src.size();
  });
  const std::size_t first = extents.size();
  diff_pieces(static_cast<std::uint32_t>(b), base, pieces, granularity,
              extents, &delta);
  std::uint64_t dirty = 0;
  for (std::size_t x = first; x < extents.size(); ++x)
    dirty += extents[x].length;
  return dirty;
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
