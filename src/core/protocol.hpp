// Serialization-free encoding/decoding protocol (paper §III-C, Fig. 8).
//
// Instead of pickling the whole state_dict, ECCheck decomposes it into
//   (1) non-tensor key-value pairs   — serialized, broadcast (tiny);
//   (2) tensor keys (names/shapes)   — serialized, broadcast (tiny);
//   (3) tensor data                  — raw contiguous bytes (≈ all of it).
// The tensor bytes are packed back-to-back into fixed-size *packets*
// (the paper's 64 MB data buffers); packets are the unit the erasure code
// and the reduction groups operate on. Every worker is padded to the same
// packet count so packet t of chunk a aligns with packet t of chunk b.
// The padding is zero by construction, and every rank can tell it apart
// from the tensor-keys component alone (packets_needed of the worker's
// tensor bytes), so the fabric engine never ships, encodes or decodes a
// slot that is padding for every worker it covers — it only stores it.
//
// Reassembly is the inverse: rebuild the state_dict skeleton from the two
// tiny components, then copy each packet's bytes back into the tensors in
// place, one packet at a time, along the same cursor that packed it.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/check.hpp"
#include "dnn/serializer.hpp"
#include "dnn/state_dict.hpp"

namespace eccheck::core {

/// The three components of one worker's state_dict.
struct Decomposition {
  Buffer metadata_blob;              ///< serialized non-tensor KV pairs
  Buffer keys_blob;                  ///< serialized tensor keys
  std::vector<ByteSpan> tensor_data; ///< views into the live state_dict
  std::size_t tensor_bytes = 0;
};

Decomposition decompose(const dnn::StateDict& sd);

/// Packets needed to hold `payload_bytes` at `packet_size` granularity.
std::size_t packets_needed(std::size_t payload_bytes, std::size_t packet_size);

/// Concatenate tensor byte spans into `num_packets` zero-padded packets of
/// `packet_size` bytes each (num_packets ≥ packets_needed(total)).
std::vector<Buffer> pack_packets(const std::vector<ByteSpan>& tensor_data,
                                 std::size_t packet_size,
                                 std::size_t num_packets);

/// The cursor behind pack_packet and unpack_packet: calls `piece(bytes)` for
/// each slice of `tensor_data` (read-only views to pack, writable ones to
/// unpack into) that packet b of pack_packets' layout (packet size `size`)
/// holds, in order. The slices fill the packet back to back from its first
/// byte; its bytes past them are zeros. A zero-length tensor yields none.
template <typename Span, typename Piece>
void for_each_packet_piece(const std::vector<Span>& tensor_data,
                           std::size_t b, std::size_t size, Piece&& piece) {
  ECC_CHECK(size > 0);
  ECC_CHECK_MSG(b <= SIZE_MAX / size, "packet index " << b << " overflows");
  // `at` is the payload offset of the current tensor's first byte; the
  // tensors are contiguous, so the next byte to emit, b·P + filled, always
  // lies at or past it.
  const std::size_t first = b * size;
  std::size_t at = 0, filled = 0;
  for (const Span& src : tensor_data) {
    if (filled == size) break;
    const std::size_t next = first + filled;
    if (at + src.size() > next) {
      const std::size_t from = next - at;
      const std::size_t n = std::min(src.size() - from, size - filled);
      piece(src.subspan(from, n));
      filled += n;
    }
    at += src.size();
  }
}

/// Write packet `b` of pack_packets' layout, with packet size out.size(),
/// into `out`: the payload bytes [b·P, (b+1)·P), zeros past the payload's
/// end. A slot past the live count comes out all zeros.
void pack_packet(const std::vector<ByteSpan>& tensor_data, std::size_t b,
                 MutableByteSpan out);

/// Writable views of the skeleton's tensors, in order: unpack_packet's
/// target (sizes come from the tensor keys component).
std::vector<MutableByteSpan> tensor_views(dnn::StateDict& skeleton);

/// Inverse of pack_packet: copy packet `b` of pack_packets' layout, with
/// packet size `packet_size`, into the tensor slices it holds. A packet that
/// is not exactly packet_size bytes is refused before any tensor byte is
/// written. Its zero tail, and a padding packet, write nothing.
void unpack_packet(ByteSpan packet, std::size_t b, std::size_t packet_size,
                   const std::vector<MutableByteSpan>& tensors);

/// Inverse of pack_packets: unpack_packet for each packet in turn, with the
/// first packet's size as the layout's packet size. Packets too few to hold
/// the skeleton's bytes are refused before any is unpacked.
void unpack_packets(const std::vector<ByteSpan>& packets,
                    dnn::StateDict& skeleton);

}  // namespace eccheck::core
