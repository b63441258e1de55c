// Dirty-region tracking for incremental checkpoints (ECCheckConfig::delta).
//
// A delta save diffs each of a worker's live packets against the cached
// packet of the last committed version without packing it: it walks the
// packet's tensor pieces with pack_packet's cursor and compares them with
// the cached bytes in place, the zero tail against zeros. Dirty
// kDirtyBlock-byte blocks merge into extents, and only those extents'
// XOR-deltas, built straight from the tensor bytes, travel over the
// fabric. Extents are exchanged between ranks as tiny serialized
// manifests (all ranks must walk the identical extent list SPMD-style), so
// the wire format here is part of the save protocol.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/bytes.hpp"

namespace eccheck::core {

/// One maximal dirty byte range of one packed packet.
struct DirtyExtent {
  std::uint32_t packet = 0;   ///< packet index b within the worker
  std::uint64_t offset = 0;   ///< first dirty byte within the packet
  std::uint64_t length = 0;   ///< dirty bytes (> 0)

  friend bool operator==(const DirtyExtent&, const DirtyExtent&) = default;
};

/// The dirty-tracking block of a delta save: one cache line. A multiple of
/// 8, so every extent (bar a packet's tail, which ends at the packet size)
/// stays symbol- and strip-offset aligned for CrsCodec::update_row in
/// every (w, mode).
inline constexpr std::size_t kDirtyBlock = 64;

/// Above this share of dirty live bytes a delta save would move more data
/// than re-encoding (each dirty byte travels to 1 data + m parity nodes):
/// the save falls back to the full path instead.
inline constexpr double kMaxDirtyRatio = 0.35;

/// Compare `next` against `base` block by block (`granularity` bytes, the
/// final block may be short) and return the merged dirty extents of packet
/// `packet_index`. Spans must be the same length. Granularity must be > 0.
/// Clean runs cost one memcmp per span of at least 4 KiB; only a span that
/// differs is resolved into blocks. The one-piece case of diff_tensors.
std::vector<DirtyExtent> diff_packet(int packet_index, ByteSpan base,
                                     ByteSpan next, std::size_t granularity);

/// The in-place form of pack_packet followed by diff_packet, with the same
/// extents: diffs packet `b` of the pack_packets layout of `tensors` (packet
/// size base.size()) against `base` without packing it. Spans and blocks sit
/// on the packet grid and may straddle tensors; the packet's zero tail is
/// compared against zeros. Appends the packet's merged dirty extents to
/// `extents` and each one's XOR-delta, new ⊕ base, to `delta`; returns the
/// dirty bytes it appended.
std::uint64_t diff_tensors(const std::vector<ByteSpan>& tensors,
                           std::size_t b, ByteSpan base,
                           std::size_t granularity,
                           std::vector<DirtyExtent>& extents,
                           std::vector<std::byte>& delta);

/// Total dirty bytes of an extent list.
std::uint64_t dirty_bytes(const std::vector<DirtyExtent>& extents);

/// Manifest wire format: u64 count, then (u32 packet, u64 offset,
/// u64 length) per extent, little-endian, extents in (packet, offset) order.
Buffer serialize_extents(const std::vector<DirtyExtent>& extents);
std::vector<DirtyExtent> deserialize_extents(ByteSpan blob);

}  // namespace eccheck::core
