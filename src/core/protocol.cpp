#include "core/protocol.hpp"

#include <algorithm>
#include <cstdint>
#include <cstring>

namespace eccheck::core {

Decomposition decompose(const dnn::StateDict& sd) {
  Decomposition d;
  d.metadata_blob = dnn::serialize_metadata(sd.metadata());
  d.keys_blob = dnn::serialize_tensor_keys(sd);
  d.tensor_data.reserve(sd.tensors().size());
  for (const auto& e : sd.tensors()) {
    d.tensor_data.push_back(e.tensor.bytes());
    d.tensor_bytes += e.tensor.nbytes();
  }
  return d;
}

std::size_t packets_needed(std::size_t payload_bytes,
                           std::size_t packet_size) {
  ECC_CHECK(packet_size > 0);
  return (payload_bytes + packet_size - 1) / packet_size;
}

std::vector<Buffer> pack_packets(const std::vector<ByteSpan>& tensor_data,
                                 std::size_t packet_size,
                                 std::size_t num_packets) {
  std::size_t total = 0;
  for (const auto& s : tensor_data) total += s.size();
  const std::size_t live = packets_needed(total, packet_size);
  ECC_CHECK_MSG(num_packets >= live,
                "payload " << total << " B does not fit in " << num_packets
                           << " packets of " << packet_size << " B");

  // Each byte is written once: live packets take the payload and their
  // zero tail; padding packets are zero throughout.
  std::vector<Buffer> packets;
  packets.reserve(num_packets);
  for (std::size_t i = 0; i < num_packets; ++i) {
    if (i >= live) {
      packets.emplace_back(packet_size, Buffer::Init::kZeroed);
      continue;
    }
    Buffer& pkt =
        packets.emplace_back(packet_size, Buffer::Init::kUninitialized);
    pack_packet(tensor_data, i, pkt.span());
  }
  return packets;
}

void pack_packet(const std::vector<ByteSpan>& tensor_data, std::size_t b,
                 MutableByteSpan out) {
  std::size_t filled = 0;
  for_each_packet_piece(tensor_data, b, out.size(), [&](ByteSpan src) {
    std::memcpy(out.data() + filled, src.data(), src.size());
    filled += src.size();
  });
  if (filled < out.size())
    std::memset(out.data() + filled, 0, out.size() - filled);
}

void unpack_packets(const std::vector<ByteSpan>& packets,
                    dnn::StateDict& skeleton) {
  std::size_t pkt = 0, off = 0;
  std::size_t available = 0;
  for (const auto& p : packets) available += p.size();
  ECC_CHECK_MSG(available >= skeleton.tensor_bytes(),
                "packets hold fewer bytes than the skeleton needs");

  for (auto& e : skeleton.tensors()) {
    MutableByteSpan dst = e.tensor.bytes();
    std::size_t copied = 0;
    while (copied < dst.size()) {
      ECC_CHECK(pkt < packets.size());
      const ByteSpan src = packets[pkt];
      const std::size_t n = std::min(src.size() - off, dst.size() - copied);
      std::memcpy(dst.data() + copied, src.data() + off, n);
      copied += n;
      off += n;
      if (off == src.size()) {
        ++pkt;
        off = 0;
      }
    }
  }
}

}  // namespace eccheck::core
