// Randomized integration fuzzing: deterministic pseudo-random cluster
// shapes, codec settings, failure/corruption patterns — every recoverable
// scenario must restore bit-exact state, every unrecoverable one must fail
// cleanly (no exceptions, no wrong data). The wire decoders of the blobs
// ranks exchange get the same treatment: any input either decodes or is
// refused with a CheckFailure, which the save protocol rolls back on. The
// service's save/load reply bodies must parse or be refused with BadRequest.
#include <gtest/gtest.h>

#include <exception>
#include <functional>
#include <iterator>
#include <limits>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "core/delta.hpp"
#include "core/eccheck_engine.hpp"
#include "dnn/checkpoint_gen.hpp"
#include "dnn/serializer.hpp"
#include "svc/checkpoint_service.hpp"

namespace eccheck {
namespace {

using cluster::ClusterConfig;
using cluster::VirtualCluster;

struct Scenario {
  int nodes, gpus, k, m;
  int gf_width;
  ec::KernelMode kernel;
  std::size_t packet;
  bool pipelined, tree, flush;
  std::vector<int> kills;
  int corruptions;
};

Scenario random_scenario(SplitMix64& rng) {
  Scenario s;
  // Valid shapes: k + m == nodes, W % k == 0.
  const std::vector<std::array<int, 4>> shapes = {
      {4, 1, 2, 2}, {4, 2, 2, 2}, {4, 2, 1, 3}, {3, 2, 2, 1}, {6, 1, 3, 3},
      {6, 1, 2, 4}, {6, 2, 4, 2}, {8, 1, 4, 4}, {5, 2, 2, 3}, {4, 3, 2, 2}};
  auto sh = shapes[rng.next_below(shapes.size())];
  s.nodes = sh[0];
  s.gpus = sh[1];
  s.k = sh[2];
  s.m = sh[3];
  const int widths[] = {4, 8, 8, 16};  // bias towards w=8
  s.gf_width = widths[rng.next_below(4)];
  s.kernel = rng.next_below(3) == 0 ? ec::KernelMode::kXorBitmatrix
                                    : ec::KernelMode::kGfTable;
  const std::size_t packets[] = {kib(4), kib(8), kib(16), kib(8) + 128};
  s.packet = packets[rng.next_below(4)];
  s.pipelined = rng.next_below(4) != 0;
  s.tree = rng.next_below(3) == 0;
  s.flush = rng.next_below(4) == 0;
  // 0..nodes-1 failures plus occasional corruption.
  const int fail_count = static_cast<int>(rng.next_below(
      static_cast<std::uint64_t>(s.nodes)));
  std::vector<int> all(static_cast<std::size_t>(s.nodes));
  for (int i = 0; i < s.nodes; ++i) all[static_cast<std::size_t>(i)] = i;
  for (int i = 0; i < fail_count; ++i) {
    auto j = i + static_cast<int>(rng.next_below(
                     static_cast<std::uint64_t>(s.nodes - i)));
    std::swap(all[static_cast<std::size_t>(i)],
              all[static_cast<std::size_t>(j)]);
    s.kills.push_back(all[static_cast<std::size_t>(i)]);
  }
  s.corruptions = static_cast<int>(rng.next_below(2));
  return s;
}

TEST(Fuzz, RandomScenariosEitherRecoverExactlyOrFailCleanly) {
  SplitMix64 rng(0xecc);
  int recovered = 0, refused = 0;
  for (int trial = 0; trial < 40; ++trial) {
    Scenario s = random_scenario(rng);
    SCOPED_TRACE("trial " + std::to_string(trial) + ": n=" +
                 std::to_string(s.nodes) + " g=" + std::to_string(s.gpus) +
                 " k=" + std::to_string(s.k) + " m=" + std::to_string(s.m) +
                 " w=" + std::to_string(s.gf_width) + " kills=" +
                 std::to_string(s.kills.size()) + " corrupt=" +
                 std::to_string(s.corruptions));

    ClusterConfig ccfg;
    ccfg.num_nodes = s.nodes;
    ccfg.gpus_per_node = s.gpus;
    VirtualCluster cluster(ccfg);

    dnn::CheckpointGenConfig gen;
    gen.model =
        dnn::make_model(dnn::ModelFamily::kGPT2, 64, 1, s.nodes * s.gpus,
                        "fuzz");
    gen.model.vocab = 128;
    gen.parallelism = {1, s.nodes * s.gpus, 1};
    gen.seed = rng.next();
    auto shards = dnn::make_sharded_checkpoint(gen);
    std::vector<std::uint64_t> want;
    for (const auto& sd : shards) want.push_back(sd.digest());

    core::ECCheckConfig ec;
    ec.k = s.k;
    ec.m = s.m;
    ec.gf_width = s.gf_width;
    ec.kernel = s.kernel;
    // Packet size must satisfy the codec granularity.
    ec.packet_size = s.packet;
    const std::size_t gran =
        ec::CrsCodec(s.k, std::max(1, s.m), s.gf_width, s.kernel)
            .packet_granularity();
    if (ec.packet_size % gran != 0)
      ec.packet_size += gran - ec.packet_size % gran;
    ec.pipelined = s.pipelined;
    ec.tree_reduction = s.tree;
    ec.flush_to_remote = s.flush;
    core::ECCheckEngine engine(ec);

    ASSERT_NO_THROW(engine.save(cluster, shards, 7));

    // Inject corruption on a random surviving node's chunk.
    int erasures = static_cast<int>(s.kills.size());
    if (s.corruptions > 0) {
      int victim = -1;
      for (int n = 0; n < s.nodes; ++n) {
        if (std::find(s.kills.begin(), s.kills.end(), n) == s.kills.end()) {
          victim = n;
          break;
        }
      }
      if (victim >= 0) {
        auto plan = engine.plan_for(cluster);
        std::string key = "ec/7/row/" +
                          std::to_string(plan.generator_row_of_node(victim)) +
                          "/0/0";
        Buffer t = cluster.host(victim).get(key).clone();
        t.data()[0] ^= std::byte{1};
        cluster.host(victim).put(key, std::move(t));
        ++erasures;
      }
    }
    for (int n : s.kills) {
      cluster.kill(n);
      cluster.replace(n);
    }

    std::vector<dnn::StateDict> out;
    ckpt::LoadReport load;
    ASSERT_NO_THROW(load = engine.load(cluster, 7, out));

    const bool should_recover = s.flush || erasures <= s.m;
    if (should_recover) {
      ASSERT_TRUE(load.success) << load.detail;
      ASSERT_EQ(out.size(), want.size());
      for (std::size_t i = 0; i < out.size(); ++i)
        ASSERT_EQ(out[i].digest(), want[i]) << "worker " << i;
      ++recovered;
    } else {
      ASSERT_FALSE(load.success);
      ++refused;
    }
  }
  // The mix should exercise both outcomes.
  EXPECT_GT(recovered, 5);
  EXPECT_GT(refused, 1);
}

/// Feeds `blob` to `decode`: it must return or throw CheckFailure.
void expect_decodes_or_refuses(const std::function<void(ByteSpan)>& decode,
                               ByteSpan blob, const std::string& what) {
  try {
    decode(blob);
  } catch (const CheckFailure&) {
  } catch (const std::exception& e) {
    ADD_FAILURE() << what << " (" << blob.size()
                  << " bytes) threw an untyped exception: " << e.what();
  }
}

struct Decoder {
  std::string name;
  std::function<void(ByteSpan)> decode;
  Buffer valid;            ///< a well-formed blob
  std::size_t count_size;  ///< bytes of its leading count header
};

std::vector<Decoder> wire_decoders(SplitMix64& rng) {
  std::vector<core::DirtyExtent> extents;
  for (std::uint32_t b = 0; b < 5; ++b)
    extents.push_back({b, rng.next_below(4096), 1 + rng.next_below(4096)});
  dnn::StateDict sd;
  sd.metadata()["iteration"] = std::int64_t{7};
  sd.metadata()["lr"] = 0.125;
  sd.metadata()["name"] = std::string("fuzz");
  sd.add_tensor("w", dnn::Tensor(dnn::DType::kF32, {3, 5}));
  sd.add_tensor("b", dnn::Tensor(dnn::DType::kBF16, {5}));
  std::vector<Decoder> out;
  out.push_back({"deserialize_extents",
                 [](ByteSpan b) { core::deserialize_extents(b); },
                 core::serialize_extents(extents), 8});
  out.push_back({"deserialize_tensor_keys",
                 [](ByteSpan b) { dnn::deserialize_tensor_keys(b); },
                 dnn::serialize_tensor_keys(sd), 4});
  out.push_back({"deserialize_metadata",
                 [](ByteSpan b) { dnn::deserialize_metadata(b); },
                 dnn::serialize_metadata(sd.metadata()), 4});
  return out;
}

TEST(Fuzz, WireDecodersDecodeOrRefuseWithCheckFailure) {
  SplitMix64 rng(0xdec0de);
  for (const Decoder& d : wire_decoders(rng)) {
    SCOPED_TRACE(d.name);
    const ByteSpan valid = d.valid.span();
    ASSERT_NO_THROW(d.decode(valid));
    // Every truncation of a well-formed blob.
    for (std::size_t n = 0; n < valid.size(); ++n)
      expect_decodes_or_refuses(d.decode, valid.subspan(0, n), "truncation");
    // Hostile, then random, count headers over the whole blob and over
    // the blob one byte short.
    const std::uint64_t counts[] = {
        0xFFFFFFFFu, std::uint64_t{1} << 62, std::uint64_t{1} << 63,
        ~std::uint64_t{0}, (~std::uint64_t{0}) / 20 + 1, rng.next()};
    for (const std::uint64_t count : counts)
      for (int trial = 0; trial < 4; ++trial) {
        Buffer blob = d.valid.clone();
        const std::uint64_t c = trial < 2 ? count : rng.next();
        for (std::size_t i = 0; i < d.count_size; ++i)
          blob.data()[i] = static_cast<std::byte>(c >> (8 * i));
        expect_decodes_or_refuses(
            d.decode, blob.span().subspan(0, blob.size() - trial % 2),
            "count header");
      }
    // Random byte flips of the well-formed blob, and random blobs.
    for (int trial = 0; trial < 500; ++trial) {
      Buffer blob = d.valid.clone();
      const std::uint64_t flips = 1 + rng.next_below(4);
      for (std::uint64_t f = 0; f < flips; ++f)
        blob.data()[rng.next_below(blob.size())] =
            static_cast<std::byte>(rng.next());
      expect_decodes_or_refuses(d.decode, blob.span(), "mutation");

      Buffer noise(rng.next_below(96), Buffer::Init::kUninitialized);
      fill_random(noise.span(), rng.next());
      expect_decodes_or_refuses(d.decode, noise.span(), "random blob");
    }
  }

  // Save/load reply bodies: random replies round-trip; their truncations,
  // byte mutations and appended junk tokens parse or raise BadRequest.
  auto parse_or_refuse = [](const std::string& body, const char* what) {
    try {
      svc::ShardReply::parse(body);
    } catch (const svc::BadRequest&) {
    } catch (const std::exception& e) {
      ADD_FAILURE() << what << " '" << body
                    << "' threw an untyped exception: " << e.what();
    }
  };
  const std::string junk[] = {
      ";", "=", "version=", "version=0", "version=-1",
      "version=99999999999999999999", "iteration=x", "w1", "w:0000000000000001",
      "w-1:0000000000000001", "w1:000000000000000g", "w1:00000000000000001",
      "w0:0000000000000000", "lost=", "lost=1,,2", "lost=-1", "garbage"};
  const std::string details[] = {"", "workflow B decode",
                                 "degraded (1 dead, redundancy 1/2)", "a ; b"};
  for (int trial = 0; trial < 300; ++trial) {
    svc::ShardReply r;
    r.version = 1 + static_cast<std::int64_t>(rng.next_below(1u << 20));
    r.iteration = 1 + static_cast<std::int64_t>(rng.next_below(
                          std::numeric_limits<std::int64_t>::max()));
    for (std::uint64_t n = rng.next_below(9); n > 0; --n)
      r.digests[static_cast<int>(rng.next_below(16))] = rng.next();
    for (std::uint64_t n = rng.next_below(3); n > 0; --n)
      r.lost.push_back(static_cast<int>(rng.next_below(16)));
    r.detail = details[rng.next_below(std::size(details))];
    const std::string body = r.body();
    svc::ShardReply back;
    ASSERT_NO_THROW(back = svc::ShardReply::parse(body)) << body;
    EXPECT_EQ(back.version, r.version) << body;
    EXPECT_EQ(back.iteration, r.iteration) << body;
    EXPECT_EQ(back.digests, r.digests) << body;
    EXPECT_EQ(back.lost, r.lost) << body;
    EXPECT_EQ(back.detail, r.detail) << body;
    for (std::size_t n = 0; n < body.size(); ++n)
      parse_or_refuse(body.substr(0, n), "truncation");
    std::string mutated = body;
    mutated[rng.next_below(mutated.size())] = static_cast<char>(rng.next());
    parse_or_refuse(mutated, "mutation");
    const std::string& tok = junk[rng.next_below(std::size(junk))];
    const std::size_t semi = body.find(" ; ");
    parse_or_refuse(semi == std::string::npos
                        ? body + " " + tok
                        : body.substr(0, semi) + " " + tok + body.substr(semi),
                    "junk token");
  }
}

}  // namespace
}  // namespace eccheck
