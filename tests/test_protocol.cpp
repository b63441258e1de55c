// Serialization-free protocol tests: decompose → pack → unpack round trips.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "common/rng.hpp"
#include "core/protocol.hpp"
#include "ec/crs_codec.hpp"
#include "dnn/checkpoint_gen.hpp"

namespace eccheck::core {
namespace {

dnn::StateDict sample_state_dict(std::uint64_t seed = 3) {
  dnn::CheckpointGenConfig cfg;
  cfg.model = dnn::make_model(dnn::ModelFamily::kBERT, 128, 2, 4, "proto");
  cfg.parallelism = {2, 2, 1};
  cfg.seed = seed;
  return dnn::make_worker_state_dict(cfg, 1);
}

TEST(Protocol, DecomposeSeparatesComponents) {
  dnn::StateDict sd = sample_state_dict();
  Decomposition d = decompose(sd);
  EXPECT_GT(d.metadata_blob.size(), 0u);
  EXPECT_GT(d.keys_blob.size(), 0u);
  EXPECT_EQ(d.tensor_data.size(), sd.tensors().size());
  EXPECT_EQ(d.tensor_bytes, sd.tensor_bytes());
  // Metadata + keys are tiny relative to tensor data (§III-C).
  EXPECT_LT(d.metadata_blob.size() + d.keys_blob.size(), d.tensor_bytes / 10);
}

TEST(Protocol, PacketsNeededRoundsUp) {
  EXPECT_EQ(packets_needed(0, 64), 0u);
  EXPECT_EQ(packets_needed(1, 64), 1u);
  EXPECT_EQ(packets_needed(64, 64), 1u);
  EXPECT_EQ(packets_needed(65, 64), 2u);
}

TEST(Protocol, PackUnpackRoundTrip) {
  dnn::StateDict sd = sample_state_dict();
  Decomposition d = decompose(sd);
  const std::size_t P = 4096;
  const std::size_t B = packets_needed(d.tensor_bytes, P);
  auto packets = pack_packets(d.tensor_data, P, B);
  ASSERT_EQ(packets.size(), B);
  for (const auto& p : packets) EXPECT_EQ(p.size(), P);

  dnn::StateDict skel = dnn::make_skeleton(
      dnn::deserialize_metadata(d.metadata_blob.span()),
      dnn::deserialize_tensor_keys(d.keys_blob.span()));
  std::vector<ByteSpan> views;
  for (const auto& p : packets) views.push_back(p.span());
  unpack_packets(views, skel);
  EXPECT_EQ(skel, sd);
  EXPECT_EQ(skel.digest(), sd.digest());
}

TEST(Protocol, PaddingPacketsAreZeroed) {
  // Live packets are allocated uninitialised and written once, so a byte
  // the pack forgets to zero holds whatever the allocator left there:
  // random packets freed just before the pack, or ASan's malloc fill
  // pattern, which makes the sanitizer build catch it every time.
  dnn::StateDict sd = sample_state_dict();
  Decomposition d = decompose(sd);
  const std::size_t P = 4096;
  const std::size_t needed = packets_needed(d.tensor_bytes, P);
  ASSERT_NE(d.tensor_bytes % P, 0u) << "the payload must end mid-packet";
  {
    std::vector<Buffer> stale;
    for (int i = 0; i < 16; ++i) {
      stale.emplace_back(P, Buffer::Init::kUninitialized);
      fill_random(stale.back().span(), 100 + static_cast<std::uint64_t>(i));
    }
  }
  // Over-allocate by 2 packets (worker padding to uniform B).
  const std::size_t B = needed + 2;
  auto packets = pack_packets(d.tensor_data, P, B);
  ASSERT_EQ(packets.size(), B);

  // The payload followed by zeros: the last live packet's tail and the
  // padding packets.
  Buffer want(B * P);
  std::size_t at = 0;
  for (ByteSpan t : d.tensor_data) {
    std::memcpy(want.data() + at, t.data(), t.size());
    at += t.size();
  }
  for (std::size_t b = 0; b < B; ++b)
    EXPECT_EQ(packets[b], Buffer::copy_of(want.subspan(b * P, P)))
        << "packet " << b;
}

// pack_packet writes one packet of pack_packets' layout: both must match
// the zero-padded concatenation of the tensors, packet by packet, wherever
// the tensor boundaries fall. unpack_packet is its inverse one packet at a
// time: the packets unpacked alone, in reverse order, rebuild the tensors.
TEST(Protocol, PackPacketMatchesPackPacketsLayout) {
  struct Layout {
    const char* what;
    std::vector<std::size_t> sizes;  // tensor byte counts
    std::size_t P;
    std::size_t padding;             // slots past the live count
  };
  const std::vector<Layout> layouts = {
      {"tensors straddling boundaries", {100, 700, 33, 2000, 1}, 256, 0},
      {"zero-length tensors", {0, 300, 0, 0, 257, 0}, 128, 1},
      {"exact multiple of P", {256, 512, 0, 256}, 256, 0},
      {"padding slots", {10, 20}, 64, 3},
      {"no payload", {0, 0}, 64, 2},
      {"one tensor larger than many packets", {5000}, 512, 1},
      {"short last tensor", {512, 300, 7}, 256, 0},
  };
  for (const Layout& l : layouts) {
    SCOPED_TRACE(l.what);
    std::vector<Buffer> tensors;
    std::vector<ByteSpan> views;
    std::size_t total = 0;
    for (std::size_t i = 0; i < l.sizes.size(); ++i) {
      tensors.emplace_back(l.sizes[i], Buffer::Init::kUninitialized);
      fill_random(tensors.back().span(), 40 + i);
      views.push_back(tensors.back().span());
      total += l.sizes[i];
    }
    const std::size_t B = packets_needed(total, l.P) + l.padding;
    Buffer want(B * l.P);
    std::size_t at = 0;
    for (ByteSpan t : views) {
      if (!t.empty()) std::memcpy(want.data() + at, t.data(), t.size());
      at += t.size();
    }
    const std::vector<Buffer> packets = pack_packets(views, l.P, B);
    ASSERT_EQ(packets.size(), B);
    Buffer scratch(l.P, Buffer::Init::kUninitialized);
    for (std::size_t b = 0; b < B; ++b) {
      // Stale bytes in the reused scratch must all be overwritten.
      fill_random(scratch.span(), 900 + b);
      pack_packet(views, b, scratch.span());
      const Buffer expected = Buffer::copy_of(want.subspan(b * l.P, l.P));
      EXPECT_EQ(scratch, expected) << "pack_packet, packet " << b;
      EXPECT_EQ(packets[b], expected) << "pack_packets, packet " << b;
    }

    std::vector<Buffer> rebuilt;
    std::vector<MutableByteSpan> targets;
    for (std::size_t size : l.sizes) {
      rebuilt.emplace_back(size, Buffer::Init::kUninitialized);
      fill_random(rebuilt.back().span(), 70 + size);
      targets.push_back(rebuilt.back().span());
    }
    for (std::size_t b = B; b-- > 0;)
      unpack_packet(packets[b].span(), b, l.P, targets);
    for (std::size_t i = 0; i < tensors.size(); ++i)
      EXPECT_EQ(rebuilt[i], tensors[i]) << "unpack_packet, tensor " << i;
  }
}

TEST(Protocol, PackRejectsOverflow) {
  dnn::StateDict sd = sample_state_dict();
  Decomposition d = decompose(sd);
  EXPECT_THROW(pack_packets(d.tensor_data, 64,
                            packets_needed(d.tensor_bytes, 64) - 1),
               CheckFailure);
}

TEST(Protocol, UnpackRejectsShortPackets) {
  dnn::StateDict sd = sample_state_dict();
  Decomposition d = decompose(sd);
  dnn::StateDict skel = dnn::make_skeleton(
      dnn::deserialize_metadata(d.metadata_blob.span()),
      dnn::deserialize_tensor_keys(d.keys_blob.span()));
  const std::uint64_t blank = skel.digest();
  Buffer one(64);
  std::vector<ByteSpan> views{one.span()};
  EXPECT_THROW(unpack_packets(views, skel), CheckFailure);
  EXPECT_EQ(skel.digest(), blank);

  // A packet one byte short of or past the layout's size is refused before
  // it writes a tensor byte.
  const std::size_t P = 4096;
  const std::vector<MutableByteSpan> tensors = tensor_views(skel);
  for (std::size_t size : {P - 1, P + 1}) {
    SCOPED_TRACE(size);
    Buffer packet(size, Buffer::Init::kUninitialized);
    fill_random(packet.span(), size);
    EXPECT_THROW(unpack_packet(packet.span(), 0, P, tensors), CheckFailure);
    EXPECT_EQ(skel.digest(), blank);
  }
}

TEST(Protocol, TensorBoundariesCrossPackets) {
  // A tensor larger than the packet size must split and reassemble cleanly.
  dnn::StateDict sd;
  dnn::Tensor big(dnn::DType::kU8, {10000});
  fill_random(big.bytes(), 9);
  sd.add_tensor("big", std::move(big));
  dnn::Tensor small(dnn::DType::kU8, {10});
  fill_random(small.bytes(), 10);
  sd.add_tensor("small", std::move(small));
  sd.metadata()["iteration"] = std::int64_t{1};

  Decomposition d = decompose(sd);
  auto packets = pack_packets(d.tensor_data, 4096,
                              packets_needed(d.tensor_bytes, 4096));
  dnn::StateDict skel = dnn::make_skeleton(
      dnn::deserialize_metadata(d.metadata_blob.span()),
      dnn::deserialize_tensor_keys(d.keys_blob.span()));
  std::vector<ByteSpan> views;
  for (const auto& p : packets) views.push_back(p.span());
  unpack_packets(views, skel);
  EXPECT_EQ(skel, sd);
}

TEST(Protocol, RoundTripSurvivesEncodeDecodeOfPackets) {
  // End-to-end through the codec: pack → encode → drop data → decode →
  // unpack, the actual ECCheck data path.
  dnn::StateDict sd = sample_state_dict(77);
  Decomposition d = decompose(sd);
  const std::size_t P = 8192;
  const int k = 2, m = 2;
  const std::size_t B = packets_needed(d.tensor_bytes, P);
  auto packets = pack_packets(d.tensor_data, P, B);

  ec::CrsCodec codec(k, m, 8);
  for (std::size_t b = 0; b + 1 < B; b += 2) {
    // Treat consecutive packet pairs as the two data chunks of a stripe.
    std::vector<Buffer> parity;
    parity.emplace_back(P);
    parity.emplace_back(P);
    std::vector<ByteSpan> in{packets[b].span(), packets[b + 1].span()};
    std::vector<MutableByteSpan> out{parity[0].span(), parity[1].span()};
    codec.encode(in, out);

    // Lose both data packets; recover from the two parities.
    std::vector<Buffer> rec;
    rec.emplace_back(P, Buffer::Init::kUninitialized);
    rec.emplace_back(P, Buffer::Init::kUninitialized);
    std::vector<ByteSpan> surv{parity[0].span(), parity[1].span()};
    std::vector<MutableByteSpan> ro{rec[0].span(), rec[1].span()};
    codec.decode({2, 3}, surv, ro);
    packets[b] = std::move(rec[0]);
    packets[b + 1] = std::move(rec[1]);
  }

  dnn::StateDict skel = dnn::make_skeleton(
      dnn::deserialize_metadata(d.metadata_blob.span()),
      dnn::deserialize_tensor_keys(d.keys_blob.span()));
  std::vector<ByteSpan> views;
  for (const auto& p : packets) views.push_back(p.span());
  unpack_packets(views, skel);
  EXPECT_EQ(skel.digest(), sd.digest());
}

}  // namespace
}  // namespace eccheck::core
