#include "core/protocol.hpp"

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

std::vector<MutableByteSpan> tensor_views(dnn::StateDict& skeleton) {
  std::vector<MutableByteSpan> views;
  views.reserve(skeleton.tensors().size());
  for (auto& e : skeleton.tensors()) views.push_back(e.tensor.bytes());
  return views;
}

void unpack_packet(ByteSpan packet, std::size_t b, std::size_t packet_size,
                   const std::vector<MutableByteSpan>& tensors) {
  ECC_CHECK_MSG(packet.size() == packet_size,
                "packet " << b << " holds " << packet.size()
                          << " B, not the layout's " << packet_size);
  std::size_t read = 0;
  for_each_packet_piece(tensors, b, packet_size, [&](MutableByteSpan dst) {
    std::memcpy(dst.data(), packet.data() + read, dst.size());
    read += dst.size();
  });
}

void unpack_packets(const std::vector<ByteSpan>& packets,
                    dnn::StateDict& skeleton) {
  const std::size_t P = packets.empty() ? 0 : packets.front().size();
  ECC_CHECK_MSG(packets.size() * P >= skeleton.tensor_bytes(),
                "packets hold fewer bytes than the skeleton needs");
  const std::vector<MutableByteSpan> tensors = tensor_views(skeleton);
  for (std::size_t b = 0; b < packets.size(); ++b)
    unpack_packet(packets[b], b, P, tensors);
}

}  // namespace eccheck::core
