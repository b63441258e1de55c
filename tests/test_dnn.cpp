// DNN substrate tests: model zoo sizing, serialization round trips,
// synthetic sharded checkpoint structure and determinism.
#include <gtest/gtest.h>

#include <set>

#include "common/rng.hpp"
#include "dnn/checkpoint_gen.hpp"
#include "dnn/model_zoo.hpp"
#include "dnn/parallelism.hpp"
#include "dnn/serializer.hpp"

namespace eccheck::dnn {
namespace {

TEST(ModelZoo, Table1ParamCountsMatchLabels) {
  auto models = table1_models();
  ASSERT_EQ(models.size(), 9u);
  // Hidden 1600 / 48 layers ≈ 1.6B; 2560/64 ≈ 5.3B; 5120/64 ≈ 20B.
  for (const auto& m : models) {
    double b = static_cast<double>(m.param_count()) / 1e9;
    if (m.hidden == 1600) {
      EXPECT_NEAR(b, 1.6, 0.15) << m.label;
    }
    if (m.hidden == 2560) {
      EXPECT_NEAR(b, 5.3, 0.3) << m.label;
    }
    if (m.hidden == 5120) {
      EXPECT_NEAR(b, 20.0, 1.0) << m.label;
    }
  }
}

TEST(ModelZoo, Gpt2_345mIsRight) {
  EXPECT_NEAR(static_cast<double>(gpt2_345m().param_count()) / 1e6, 345, 40);
}

TEST(ModelZoo, CheckpointBytesScaleWithPolicy) {
  auto m = gpt2_345m();
  EXPECT_EQ(m.checkpoint_bytes(16.0), m.param_count() * 16);
  EXPECT_GT(m.checkpoint_bytes(16.0), m.checkpoint_bytes(2.0));
}

TEST(ModelZoo, ScaledDownShrinksQuadratically) {
  auto big = table1_models()[2];  // GPT-2 20B
  auto small = big.scaled_down(8.0);
  EXPECT_EQ(small.layers, big.layers);
  EXPECT_EQ(small.hidden % 64, 0);
  double ratio = static_cast<double>(big.param_count()) /
                 static_cast<double>(small.param_count());
  EXPECT_GT(ratio, 30.0);  // ~8² with vocab scaling
}

TEST(Parallelism, RankCoordsRoundTrip) {
  ParallelismSpec p{4, 4, 2};
  EXPECT_EQ(p.world_size(), 32);
  for (int w = 0; w < p.world_size(); ++w) {
    auto c = rank_coords(p, w);
    EXPECT_EQ(worker_of(p, c), w);
    EXPECT_LT(c.tp_rank, 4);
    EXPECT_LT(c.pp_stage, 4);
    EXPECT_LT(c.dp_rank, 2);
  }
}

TEST(Parallelism, TpIsFastestDimension) {
  ParallelismSpec p{4, 2, 1};
  EXPECT_EQ(rank_coords(p, 0).tp_rank, 0);
  EXPECT_EQ(rank_coords(p, 3).tp_rank, 3);
  EXPECT_EQ(rank_coords(p, 3).pp_stage, 0);
  EXPECT_EQ(rank_coords(p, 4).pp_stage, 1);
}

StateDict tiny_state_dict() {
  StateDict sd;
  sd.metadata()["iteration"] = std::int64_t{123};
  sd.metadata()["lr"] = 0.001;
  sd.metadata()["name"] = std::string("tiny");
  Tensor t(DType::kF16, {4, 8});
  fill_random(t.bytes(), 1);
  sd.add_tensor("layer.weight", std::move(t));
  Tensor b(DType::kF32, {8});
  fill_random(b.bytes(), 2);
  sd.add_tensor("layer.bias", std::move(b));
  return sd;
}

TEST(Serializer, FullStateDictRoundTrip) {
  StateDict sd = tiny_state_dict();
  Buffer blob = serialize_state_dict(sd);
  StateDict back = deserialize_state_dict(blob.span());
  EXPECT_EQ(sd, back);
  EXPECT_EQ(sd.digest(), back.digest());
}

TEST(Serializer, MetadataRoundTrip) {
  StateDict sd = tiny_state_dict();
  Buffer blob = serialize_metadata(sd.metadata());
  auto meta = deserialize_metadata(blob.span());
  EXPECT_EQ(meta, sd.metadata());
}

TEST(Serializer, TensorKeysRoundTripAndSkeleton) {
  StateDict sd = tiny_state_dict();
  Buffer blob = serialize_tensor_keys(sd);
  auto keys = deserialize_tensor_keys(blob.span());
  ASSERT_EQ(keys.size(), 2u);
  EXPECT_EQ(keys[0].key, "layer.weight");
  EXPECT_EQ(keys[0].dtype, DType::kF16);
  EXPECT_EQ(keys[0].shape, (std::vector<std::int64_t>{4, 8}));
  EXPECT_EQ(keys[0].nbytes(), 64u);

  StateDict skel = make_skeleton(sd.metadata(), keys);
  ASSERT_EQ(skel.tensors().size(), 2u);
  EXPECT_EQ(skel.tensors()[1].tensor.nbytes(), 32u);
  EXPECT_EQ(skel.metadata(), sd.metadata());
}

TEST(Serializer, MetadataAndKeysAreTinyVsTensorData) {
  // The §III-C observation: both small components are a vanishing fraction.
  CheckpointGenConfig cfg;
  cfg.model = make_model(ModelFamily::kGPT2, 256, 4, 4, "unit");
  cfg.parallelism = {2, 2, 1};
  StateDict sd = make_worker_state_dict(cfg, 0);
  Buffer meta = serialize_metadata(sd.metadata());
  Buffer keys = serialize_tensor_keys(sd);
  EXPECT_LT(meta.size() + keys.size(), sd.tensor_bytes() / 50);
}

TEST(Serializer, CorruptMagicRejected) {
  StateDict sd = tiny_state_dict();
  Buffer blob = serialize_state_dict(sd);
  blob.data()[0] ^= std::byte{0xff};
  EXPECT_THROW(deserialize_state_dict(blob.span()), CheckFailure);
}

TEST(Serializer, TruncationRejected) {
  StateDict sd = tiny_state_dict();
  Buffer blob = serialize_state_dict(sd);
  EXPECT_THROW(
      deserialize_state_dict(blob.subspan(0, blob.size() - 8)),
      CheckFailure);
}

// Tensor-keys blobs come from peers. A count the blob cannot hold must be
// a CheckFailure before anything is reserved, not a std::bad_alloc.
TEST(Serializer, HostileTensorKeyCountsRejected) {
  Buffer count(4, Buffer::Init::kZeroed);
  std::memset(count.data(), 0xFF, 4);  // 2^32 − 1 tensors in 4 bytes
  EXPECT_THROW(deserialize_tensor_keys(count.span()), CheckFailure);

  // One tensor, empty key, F32, rank 2^32 − 1 with no dims behind it.
  ByteWriter w;
  w.u32(1);
  w.str("");
  w.u8(static_cast<std::uint8_t>(DType::kF32));
  w.u32(0xFFFFFFFFu);
  const Buffer rank = w.finish();
  EXPECT_THROW(deserialize_tensor_keys(rank.span()), CheckFailure);
}

TEST(Digest, SensitiveToPayloadAndMetadata) {
  StateDict a = tiny_state_dict();
  StateDict b = tiny_state_dict();
  EXPECT_EQ(a.digest(), b.digest());
  b.metadata()["iteration"] = std::int64_t{124};
  EXPECT_NE(a.digest(), b.digest());
  StateDict c = tiny_state_dict();
  c.tensors()[0].tensor.bytes()[0] ^= std::byte{1};
  EXPECT_NE(a.digest(), c.digest());
}

CheckpointGenConfig small_gen() {
  CheckpointGenConfig cfg;
  cfg.model = make_model(ModelFamily::kGPT2, 128, 2, 8, "gen-test");
  cfg.parallelism = {2, 4, 1};
  cfg.seed = 7;
  return cfg;
}

TEST(CheckpointGen, Deterministic) {
  auto cfg = small_gen();
  EXPECT_EQ(make_worker_state_dict(cfg, 3).digest(),
            make_worker_state_dict(cfg, 3).digest());
  auto cfg2 = cfg;
  cfg2.seed = 8;
  EXPECT_NE(make_worker_state_dict(cfg, 3).digest(),
            make_worker_state_dict(cfg2, 3).digest());
}

TEST(CheckpointGen, WorkersDiffer) {
  auto cfg = small_gen();
  EXPECT_NE(make_worker_state_dict(cfg, 0).digest(),
            make_worker_state_dict(cfg, 1).digest());
}

TEST(CheckpointGen, StructureFollowsParallelism) {
  auto cfg = small_gen();  // tp=2, pp=4, 8 layers → 2 layers/stage
  auto shards = make_sharded_checkpoint(cfg);
  ASSERT_EQ(shards.size(), 8u);

  auto has_key_prefix = [](const StateDict& sd, const std::string& p) {
    for (const auto& e : sd.tensors())
      if (e.key.rfind(p, 0) == 0) return true;
    return false;
  };
  // Embeddings only on stage 0 (workers 0,1); final LN only on stage 3.
  EXPECT_TRUE(has_key_prefix(shards[0], "model.embedding"));
  EXPECT_TRUE(has_key_prefix(shards[1], "model.embedding"));
  EXPECT_FALSE(has_key_prefix(shards[2], "model.embedding"));
  EXPECT_TRUE(has_key_prefix(shards[7], "model.final_layernorm"));
  EXPECT_FALSE(has_key_prefix(shards[0], "model.final_layernorm"));
  // Every worker carries RNG state and optimizer moments.
  for (const auto& sd : shards) {
    EXPECT_TRUE(has_key_prefix(sd, "rng."));
    EXPECT_TRUE(has_key_prefix(sd, "optimizer.exp_avg."));
  }
}

TEST(CheckpointGen, LayerRangesPartitionTheModel) {
  auto cfg = small_gen();
  auto shards = make_sharded_checkpoint(cfg);
  // Count distinct layer indices mentioned across all shards of dp=0, tp=0.
  std::set<int> layers;
  for (int s = 0; s < 4; ++s) {
    const auto& sd = shards[static_cast<std::size_t>(worker_of(
        cfg.parallelism, {0, s, 0}))];
    for (const auto& e : sd.tensors()) {
      auto pos = e.key.find("layers.");
      if (pos == std::string::npos) continue;
      layers.insert(std::stoi(e.key.substr(pos + 7)));
    }
  }
  EXPECT_EQ(layers.size(), 8u);
  EXPECT_EQ(*layers.begin(), 0);
  EXPECT_EQ(*layers.rbegin(), 7);
}

TEST(CheckpointGen, TensorParallelShardsSmaller) {
  auto cfg = small_gen();
  auto cfg_tp1 = cfg;
  cfg_tp1.parallelism = {1, 4, 1};
  auto sharded = make_worker_state_dict(cfg, 2);      // tp=2
  auto full = make_worker_state_dict(cfg_tp1, 1);     // same stage, tp=1
  EXPECT_LT(sharded.tensor_bytes(), full.tensor_bytes());
}

TEST(CheckpointGen, OptimizerStatesToggle) {
  auto cfg = small_gen();
  auto with = make_worker_state_dict(cfg, 0).tensor_bytes();
  cfg.optimizer_states = false;
  auto without = make_worker_state_dict(cfg, 0).tensor_bytes();
  EXPECT_GT(with, 3 * without);  // f32 m+v ≈ 4× the f16 weights
}

TEST(CheckpointGen, ShardDigestsMatchFullGeneration) {
  auto cfg = small_gen();
  auto digests = shard_digests(cfg);
  auto shards = make_sharded_checkpoint(cfg);
  ASSERT_EQ(digests.size(), shards.size());
  for (std::size_t i = 0; i < shards.size(); ++i)
    EXPECT_EQ(digests[i], shards[i].digest());
}


TEST(CheckpointGen, DataParallelReplicasShareTensorBytes) {
  auto cfg = small_gen();
  cfg.parallelism = {2, 2, 2};  // world = 8, two dp replicas
  auto shards = make_sharded_checkpoint(cfg);
  // Worker and its dp=1 counterpart hold identical model tensors...
  int a = worker_of(cfg.parallelism, {0, 1, 0});
  int b = worker_of(cfg.parallelism, {0, 1, 1});
  const auto& sa = shards[static_cast<std::size_t>(a)];
  const auto& sb = shards[static_cast<std::size_t>(b)];
  ASSERT_EQ(sa.tensors().size(), sb.tensors().size());
  for (std::size_t i = 0; i < sa.tensors().size(); ++i) {
    const auto& ta = sa.tensors()[i];
    const auto& tb = sb.tensors()[i];
    if (ta.key.rfind("rng.", 0) == 0) {
      // ...except the per-worker RNG state.
      EXPECT_NE(0, std::memcmp(ta.tensor.bytes().data(),
                               tb.tensor.bytes().data(), ta.tensor.nbytes()));
    } else {
      EXPECT_EQ(0, std::memcmp(ta.tensor.bytes().data(),
                               tb.tensor.bytes().data(), ta.tensor.nbytes()))
          << ta.key;
    }
  }
}

TEST(CheckpointGen, FsdpShardsAreFlatAndSmaller) {
  auto cfg = small_gen();
  cfg.parallelism = {2, 2, 2};
  auto plain = make_worker_state_dict(cfg, 0);
  cfg.fsdp = true;
  auto fsdp = make_worker_state_dict(cfg, 0);
  // Roughly half the bytes (1/dp), flattened to 1-D.
  EXPECT_LT(fsdp.tensor_bytes(), plain.tensor_bytes() * 3 / 5);
  for (const auto& e : fsdp.tensors()) {
    if (e.key.rfind("rng.", 0) == 0) continue;
    EXPECT_EQ(e.tensor.shape().size(), 1u) << e.key;
  }
  EXPECT_EQ(std::get<std::int64_t>(fsdp.metadata().at("fsdp")), 1);
}

TEST(CheckpointGen, FsdpReplicasHoldDistinctSlices) {
  auto cfg = small_gen();
  cfg.parallelism = {2, 2, 2};
  cfg.fsdp = true;
  auto shards = make_sharded_checkpoint(cfg);
  int a = worker_of(cfg.parallelism, {0, 1, 0});
  int b = worker_of(cfg.parallelism, {0, 1, 1});
  EXPECT_NE(shards[static_cast<std::size_t>(a)].digest(),
            shards[static_cast<std::size_t>(b)].digest());
}

}  // namespace
}  // namespace eccheck::dnn
