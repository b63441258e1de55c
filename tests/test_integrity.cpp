// Silent-corruption tolerance (checksum scrubbing) and tree reduction.
#include <gtest/gtest.h>

#include "core/eccheck_engine.hpp"
#include "core/engine_keys.hpp"
#include "dnn/checkpoint_gen.hpp"

namespace eccheck {
namespace {

using cluster::ClusterConfig;
using cluster::VirtualCluster;

ClusterConfig cluster_config(int nodes = 4, int gpus = 1) {
  ClusterConfig cfg;
  cfg.num_nodes = nodes;
  cfg.gpus_per_node = gpus;
  return cfg;
}

std::vector<dnn::StateDict> make_shards(int world) {
  dnn::CheckpointGenConfig cfg;
  cfg.model = dnn::make_model(dnn::ModelFamily::kBERT, 64, 1, world, "int");
  cfg.model.vocab = 256;
  cfg.parallelism = {1, world, 1};
  cfg.seed = 31;
  return dnn::make_sharded_checkpoint(cfg);
}

core::ECCheckConfig ec_config() {
  core::ECCheckConfig cfg;
  cfg.k = 2;
  cfg.m = 2;
  cfg.packet_size = kib(8);
  return cfg;
}

std::vector<std::uint64_t> digests_of(const std::vector<dnn::StateDict>& v) {
  std::vector<std::uint64_t> out;
  for (const auto& sd : v) out.push_back(sd.digest());
  return out;
}

/// Flip one byte in the first chunk packet stored on `node`.
void corrupt_node_chunk(VirtualCluster& cluster, core::ECCheckEngine& engine,
                        int node, std::int64_t version) {
  auto plan = engine.plan_for(cluster);
  int row = plan.generator_row_of_node(node);
  std::string key = "ec/" + std::to_string(version) + "/row/" +
                    std::to_string(row) + "/0/0";
  Buffer tampered = cluster.host(node).get(key).clone();
  tampered.data()[3] ^= std::byte{0x40};
  cluster.host(node).put(key, std::move(tampered));
}

TEST(Integrity, SilentCorruptionIsDecodedAround) {
  VirtualCluster cluster(cluster_config());
  auto shards = make_shards(4);
  auto want = digests_of(shards);
  core::ECCheckEngine engine(ec_config());
  engine.save(cluster, shards, 1);

  corrupt_node_chunk(cluster, engine, 0, 1);  // bit-rot on a data node

  std::vector<dnn::StateDict> out;
  auto load = engine.load(cluster, 1, out);
  ASSERT_TRUE(load.success) << load.detail;
  EXPECT_NE(load.detail.find("workflow B"), std::string::npos)
      << "corrupt chunk should be treated as an erasure";
  EXPECT_EQ(digests_of(out), want);
}

TEST(Integrity, CorruptionPlusFailureWithinBudgetRecovers) {
  VirtualCluster cluster(cluster_config());
  auto shards = make_shards(4);
  auto want = digests_of(shards);
  core::ECCheckEngine engine(ec_config());
  engine.save(cluster, shards, 1);

  corrupt_node_chunk(cluster, engine, 1, 1);
  cluster.kill(2);
  cluster.replace(2);  // corruption + crash = 2 erasures = m

  std::vector<dnn::StateDict> out;
  auto load = engine.load(cluster, 1, out);
  ASSERT_TRUE(load.success) << load.detail;
  EXPECT_EQ(digests_of(out), want);
}

TEST(Integrity, TooMuchCorruptionFails) {
  VirtualCluster cluster(cluster_config());
  auto shards = make_shards(4);
  core::ECCheckEngine engine(ec_config());
  engine.save(cluster, shards, 1);
  for (int n : {0, 1, 2}) corrupt_node_chunk(cluster, engine, n, 1);
  std::vector<dnn::StateDict> out;
  EXPECT_FALSE(engine.load(cluster, 1, out).success);
}

TEST(Integrity, ScrubRewritesChecksumsAfterRecovery) {
  VirtualCluster cluster(cluster_config());
  auto shards = make_shards(4);
  auto want = digests_of(shards);
  core::ECCheckEngine engine(ec_config());
  engine.save(cluster, shards, 1);

  corrupt_node_chunk(cluster, engine, 3, 1);
  std::vector<dnn::StateDict> out;
  ASSERT_TRUE(engine.load(cluster, 1, out).success);

  // The corrupted chunk was rebuilt and re-checksummed: a second load with
  // a different failure must succeed without the original data.
  cluster.kill(0);
  cluster.kill(1);
  cluster.replace(0);
  cluster.replace(1);
  auto load2 = engine.load(cluster, 1, out);
  ASSERT_TRUE(load2.success) << load2.detail;
  EXPECT_EQ(digests_of(out), want);
}

// A node whose sums blob is corrupt (a flipped byte), missing, or cut short
// must fail the scrub, so the load rebuilds its row — here the row has a
// flipped byte too, which a cut-short blob would leave unscrubbed. The load
// must also rewrite its sums, although its commit marker survived.
// Otherwise the node fails the scrub on every later load and never counts
// as a survivor again, or its corrupt packet serves as a decode source:
// losing two more nodes (still m) would leave one chunk, or a wrong one.
TEST(Integrity, RebuiltRowGetsFreshSumsDespiteItsCommitMarker) {
  const std::string sums_key = "ec/1/sums";
  enum class Fault { kFlip, kErase, kCutShort };
  for (const Fault fault : {Fault::kFlip, Fault::kErase, Fault::kCutShort}) {
    SCOPED_TRACE(fault == Fault::kFlip    ? "sums byte flipped"
                 : fault == Fault::kErase ? "sums erased"
                                          : "sums cut to one slot");
    VirtualCluster cluster(cluster_config());
    auto shards = make_shards(4);
    auto want = digests_of(shards);
    core::ECCheckEngine engine(ec_config());
    engine.save(cluster, shards, 1);
    const Buffer saved = cluster.host(3).get(sums_key).clone();
    Buffer tampered = saved.clone();
    switch (fault) {
      case Fault::kFlip:
        tampered.data()[5] ^= std::byte{0x01};
        cluster.host(3).put(sums_key, std::move(tampered));
        break;
      case Fault::kErase:
        cluster.host(3).erase(sums_key);
        break;
      case Fault::kCutShort:
        cluster.host(3).put(sums_key,
                            Buffer::copy_of(tampered.span().subspan(0, 8)));
        break;
    }
    corrupt_node_chunk(cluster, engine, 3, 1);

    std::vector<dnn::StateDict> out;
    for (int attempt = 0; attempt < 2; ++attempt) {
      SCOPED_TRACE("load " + std::to_string(attempt));
      auto load = engine.load(cluster, 1, out);
      ASSERT_TRUE(load.success) << load.detail;
      EXPECT_NE(load.detail.find("workflow A"), std::string::npos)
          << load.detail;
      EXPECT_EQ(digests_of(out), want);
      EXPECT_TRUE(cluster.host(3).get(sums_key) == saved);
    }

    cluster.kill(0);
    cluster.kill(1);
    cluster.replace(0);
    cluster.replace(1);
    auto load = engine.load(cluster, 1, out);
    ASSERT_TRUE(load.success) << load.detail;
    EXPECT_EQ(digests_of(out), want);
  }
}

// A row that keeps its commit marker, its first packet and its sums but has
// lost a later packet is not a survivor: the scrub checks every packet the
// sums cover, so the load reports the row missing, decodes it bit-exact and
// puts the lost packet back.
TEST(Integrity, RowMissingALaterPacketIsDecodedAround) {
  struct Case {
    int node;  // 0 holds data row 0, 3 a parity row
    int j, b;
  };
  for (const Case tc : {Case{0, 0, 1}, Case{0, 1, 0}, Case{3, 0, 1},
                        Case{3, 1, 0}}) {
    SCOPED_TRACE("node " + std::to_string(tc.node) + " packet " +
                 std::to_string(tc.j) + "/" + std::to_string(tc.b));
    VirtualCluster cluster(cluster_config());
    auto shards = make_shards(4);
    core::ECCheckEngine engine(ec_config());
    engine.save(cluster, shards, 1);
    const int row = engine.plan_for(cluster).generator_row_of_node(tc.node);
    cluster::Store& store = cluster.host(tc.node);
    const std::string lost = core::keys::row_key("", 1, row, tc.j, tc.b);
    ASSERT_TRUE(store.contains(core::keys::commit_key("", 1)));
    ASSERT_TRUE(store.contains(core::keys::row_key("", 1, row, 0, 0)));
    ASSERT_TRUE(store.contains(core::keys::sums_key("", 1)));
    ASSERT_TRUE(store.contains(lost));
    const Buffer saved = store.take(lost);

    std::vector<dnn::StateDict> out;
    auto load = engine.load(cluster, 1, out);
    ASSERT_TRUE(load.success) << load.detail;
    EXPECT_EQ(load.rows[static_cast<std::size_t>(row)],
              ckpt::RowOutcome::kMissing);
    EXPECT_EQ(digests_of(out), digests_of(shards));
    ASSERT_TRUE(store.contains(lost));
    EXPECT_TRUE(store.get(lost) == saved);
  }
}

TEST(TreeReduction, RecoversIdentically) {
  auto shards = make_shards(8);
  auto want = digests_of(shards);
  for (bool tree : {false, true}) {
    VirtualCluster cluster(cluster_config(8, 1));
    auto cfg = ec_config();
    cfg.k = 4;
    cfg.m = 4;
    cfg.tree_reduction = tree;
    core::ECCheckEngine engine(cfg);
    engine.save(cluster, shards, 1);
    for (int n : {0, 4, 6}) {
      cluster.kill(n);
      cluster.replace(n);
    }
    std::vector<dnn::StateDict> out;
    auto load = engine.load(cluster, 1, out);
    ASSERT_TRUE(load.success) << "tree=" << tree << ": " << load.detail;
    EXPECT_EQ(digests_of(out), want) << "tree=" << tree;
  }
}

TEST(TreeReduction, SameNetworkVolumeAsChain) {
  // The tree changes latency, not volume: k−1 partial transfers per
  // reduction either way.
  auto shards = make_shards(8);
  std::size_t bytes[2];
  int i = 0;
  for (bool tree : {false, true}) {
    VirtualCluster cluster(cluster_config(8, 1));
    auto cfg = ec_config();
    cfg.k = 4;
    cfg.m = 4;
    cfg.tree_reduction = tree;
    core::ECCheckEngine engine(cfg);
    bytes[i++] = engine.save(cluster, shards, 1).network_bytes;
  }
  EXPECT_EQ(bytes[0], bytes[1]);
}


TEST(TreeReduction, ShorterCriticalPathAtLargeK) {
  // With few stripes the ⌈log2 k⌉-hop tree beats the (k−1)-hop chain on
  // latency; volumes are identical (SameNetworkVolumeAsChain).
  dnn::CheckpointGenConfig gen;
  gen.model = dnn::make_model(dnn::ModelFamily::kGPT2, 64, 1, 16, "treek");
  gen.model.vocab = 128;
  gen.parallelism = {1, 16, 1};
  gen.seed = 77;
  auto shards = dnn::make_sharded_checkpoint(gen);

  Seconds totals[2];
  int i = 0;
  for (bool tree : {false, true}) {
    VirtualCluster cluster(cluster_config(16, 1));
    core::ECCheckConfig cfg;
    cfg.k = 8;
    cfg.m = 8;
    cfg.packet_size = mib(2);  // few large stripes → latency-bound
    cfg.tree_reduction = tree;
    core::ECCheckEngine engine(cfg);
    totals[i++] = engine.save(cluster, shards, 1).total_time;
  }
  EXPECT_LE(totals[1], totals[0] * 1.02)
      << "chain=" << totals[0] << " tree=" << totals[1];
}

}  // namespace
}  // namespace eccheck
