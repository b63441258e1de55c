// Integration tests over all four checkpoint engines: save → failure
// injection → load must return bit-exact state_dicts, timing reports must
// reflect each design's blocking structure.
#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "ckpt/base_gemini.hpp"
#include "ckpt/base_remote.hpp"
#include "cluster/fabric.hpp"
#include "core/eccheck_engine.hpp"
#include "core/fabric_engine.hpp"
#include "dnn/checkpoint_gen.hpp"

namespace eccheck {
namespace {

using ckpt::CheckpointEngine;
using cluster::ClusterConfig;
using cluster::VirtualCluster;

ClusterConfig test_cluster_config(int nodes = 4, int gpus = 2) {
  ClusterConfig cfg;
  cfg.num_nodes = nodes;
  cfg.gpus_per_node = gpus;
  // Paper-shaped ratios at convenient magnitudes.
  cfg.nic_bandwidth = gbps(100);
  cfg.dtoh_bandwidth = gibps(16);
  cfg.remote_storage_bandwidth = gbps(5);
  cfg.host_memcpy_bandwidth = gibps(20);
  cfg.serialize_bandwidth = gibps(1);
  cfg.encode_bandwidth_per_thread = gibps(1);
  cfg.encode_threads = 8;
  return cfg;
}

dnn::CheckpointGenConfig shard_config(int world, std::uint64_t seed = 11) {
  dnn::CheckpointGenConfig cfg;
  cfg.model = dnn::make_model(dnn::ModelFamily::kGPT2, 128, 2, 8, "itest");
  cfg.model.vocab = 512;  // keep stage-0 shards comparable to the others
  cfg.parallelism = {2, world / 2, 1};
  cfg.seed = seed;
  return cfg;
}

core::ECCheckConfig eccheck_config(int k, int m) {
  core::ECCheckConfig cfg;
  cfg.k = k;
  cfg.m = m;
  cfg.packet_size = kib(64);
  return cfg;
}

std::vector<std::uint64_t> digests_of(const std::vector<dnn::StateDict>& v) {
  std::vector<std::uint64_t> out;
  for (const auto& sd : v) out.push_back(sd.digest());
  return out;
}

void expect_bit_exact(const std::vector<dnn::StateDict>& got,
                      const std::vector<std::uint64_t>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i)
    EXPECT_EQ(got[i].digest(), want[i]) << "worker " << i;
}

struct EngineCase {
  std::string name;
  std::function<std::unique_ptr<CheckpointEngine>()> make;
};

class AllEnginesTest : public ::testing::TestWithParam<EngineCase> {};

TEST_P(AllEnginesTest, SaveThenLoadWithoutFailures) {
  VirtualCluster cluster(test_cluster_config());
  auto shards = dnn::make_sharded_checkpoint(shard_config(8));
  auto want = digests_of(shards);
  auto engine = GetParam().make();

  auto save = engine->save(cluster, shards, 1);
  EXPECT_GT(save.total_time, 0.0);
  EXPECT_GE(save.total_time, save.stall_time);

  std::vector<dnn::StateDict> out;
  auto load = engine->load(cluster, 1, out);
  ASSERT_TRUE(load.success) << load.detail;
  expect_bit_exact(out, want);
}

TEST_P(AllEnginesTest, SurvivesSingleNodeFailure) {
  VirtualCluster cluster(test_cluster_config());
  auto shards = dnn::make_sharded_checkpoint(shard_config(8));
  auto want = digests_of(shards);
  auto engine = GetParam().make();
  engine->save(cluster, shards, 2);

  for (int victim = 0; victim < cluster.num_nodes(); ++victim) {
    cluster.kill(victim);
    cluster.replace(victim);
    std::vector<dnn::StateDict> out;
    auto load = engine->load(cluster, 2, out);
    ASSERT_TRUE(load.success) << GetParam().name << " victim=" << victim
                              << ": " << load.detail;
    expect_bit_exact(out, want);
    EXPECT_GT(load.resume_time, 0.0);
    EXPECT_GE(load.total_time, load.resume_time);
    // Re-save so the next victim starts from a fully redundant state.
    engine->save(cluster, shards, 2);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Engines, AllEnginesTest,
    ::testing::Values(
        EngineCase{"base1",
                   [] {
                     return std::make_unique<ckpt::RemoteSyncEngine>();
                   }},
        EngineCase{"base2",
                   [] {
                     return std::make_unique<ckpt::RemoteTwoPhaseEngine>();
                   }},
        EngineCase{"base3",
                   [] {
                     return std::make_unique<ckpt::GeminiReplicationEngine>(2);
                   }},
        EngineCase{"eccheck",
                   [] {
                     return std::make_unique<core::ECCheckEngine>(
                         eccheck_config(2, 2));
                   }}),
    [](const auto& info) { return info.param.name; });

// --- failure-pattern semantics -----------------------------------------------

TEST(Base3, DiesWhenWholeGroupFails) {
  VirtualCluster cluster(test_cluster_config());
  auto shards = dnn::make_sharded_checkpoint(shard_config(8));
  ckpt::GeminiReplicationEngine engine(2);
  engine.save(cluster, shards, 1);

  // Nodes 2 and 3 form one replication group: both down → unrecoverable.
  cluster.kill(2);
  cluster.kill(3);
  cluster.replace(2);
  cluster.replace(3);
  std::vector<dnn::StateDict> out;
  auto load = engine.load(cluster, 1, out);
  EXPECT_FALSE(load.success);
  EXPECT_NE(load.detail.find("group"), std::string::npos);
}

TEST(Base3, SurvivesOneFailurePerGroup) {
  VirtualCluster cluster(test_cluster_config());
  auto shards = dnn::make_sharded_checkpoint(shard_config(8));
  auto want = digests_of(shards);
  ckpt::GeminiReplicationEngine engine(2);
  engine.save(cluster, shards, 1);

  cluster.kill(0);
  cluster.kill(2);  // one per group
  cluster.replace(0);
  cluster.replace(2);
  std::vector<dnn::StateDict> out;
  auto load = engine.load(cluster, 1, out);
  ASSERT_TRUE(load.success) << load.detail;
  expect_bit_exact(out, want);
}

TEST(ECCheck, SurvivesAnyTwoNodeFailures) {
  // The headline capability (Fig. 2c): with k = m = 2 every 2-subset of
  // nodes is survivable, including patterns that kill base3.
  auto shards = dnn::make_sharded_checkpoint(shard_config(8));
  auto want = digests_of(shards);
  for (int a = 0; a < 4; ++a) {
    for (int b = a + 1; b < 4; ++b) {
      VirtualCluster cluster(test_cluster_config());
      core::ECCheckEngine engine(eccheck_config(2, 2));
      engine.save(cluster, shards, 1);
      cluster.kill(a);
      cluster.kill(b);
      cluster.replace(a);
      cluster.replace(b);
      std::vector<dnn::StateDict> out;
      auto load = engine.load(cluster, 1, out);
      ASSERT_TRUE(load.success)
          << "failed nodes " << a << "," << b << ": " << load.detail;
      expect_bit_exact(out, want);
    }
  }
}

TEST(ECCheck, FailsBeyondMWithoutRemote) {
  VirtualCluster cluster(test_cluster_config());
  auto shards = dnn::make_sharded_checkpoint(shard_config(8));
  core::ECCheckEngine engine(eccheck_config(2, 2));
  engine.save(cluster, shards, 1);
  for (int n : {0, 1, 2}) {
    cluster.kill(n);
    cluster.replace(n);
  }
  std::vector<dnn::StateDict> out;
  auto load = engine.load(cluster, 1, out);
  EXPECT_FALSE(load.success);
  EXPECT_NE(load.detail.find("need k=2"), std::string::npos);
}

TEST(ECCheck, RemoteFlushRescuesCatastrophicFailure) {
  VirtualCluster cluster(test_cluster_config());
  auto shards = dnn::make_sharded_checkpoint(shard_config(8));
  auto want = digests_of(shards);
  auto cfg = eccheck_config(2, 2);
  cfg.flush_to_remote = true;  // step 4 enabled
  core::ECCheckEngine engine(cfg);
  engine.save(cluster, shards, 1);

  for (int n : {0, 1, 2}) {  // 3 > m failures
    cluster.kill(n);
    cluster.replace(n);
  }
  std::vector<dnn::StateDict> out;
  auto load = engine.load(cluster, 1, out);
  ASSERT_TRUE(load.success) << load.detail;
  expect_bit_exact(out, want);
}

TEST(ECCheck, RemoteFallbackTimingTracksRemoteBandwidth) {
  // Regression: the catastrophic-recovery path used to discard the
  // fetch_from_remote task ids, so resume_time/total_time never charged the
  // remote transfers — recovery looked equally fast at any remote
  // bandwidth. The fetch finish times must gate reconstruction.
  auto shards = dnn::make_sharded_checkpoint(shard_config(8));
  auto run = [&](double remote_bw) {
    auto ccfg = test_cluster_config();
    ccfg.remote_storage_bandwidth = remote_bw;
    VirtualCluster cluster(ccfg);
    auto cfg = eccheck_config(2, 2);
    cfg.flush_to_remote = true;
    core::ECCheckEngine engine(cfg);
    engine.save(cluster, shards, 1);
    for (int n : {0, 1, 2}) {  // > m failures → remote fallback
      cluster.kill(n);
      cluster.replace(n);
    }
    std::vector<dnn::StateDict> out;
    auto load = engine.load(cluster, 1, out);
    EXPECT_TRUE(load.success) << load.detail;
    EXPECT_NE(load.detail.find("remote fallback"), std::string::npos)
        << load.detail;
    EXPECT_GE(load.total_time, load.resume_time);
    return load;
  };
  auto fast = run(gbps(5));
  auto slow = run(gbps(5) / 10.0);
  // 10× less remote bandwidth must show up in the recovery clock.
  EXPECT_GT(fast.resume_time, 0.0);
  EXPECT_GT(slow.resume_time, fast.resume_time * 2);
  EXPECT_GT(slow.total_time, fast.total_time * 1.5);
}

TEST(ECCheck, WorkflowAReportedWhenDataNodesSurvive) {
  VirtualCluster cluster(test_cluster_config());
  auto shards = dnn::make_sharded_checkpoint(shard_config(8));
  core::ECCheckEngine engine(eccheck_config(2, 2));
  auto plan = engine.plan_for(cluster);
  engine.save(cluster, shards, 1);

  int parity = plan.parity_nodes[0];
  cluster.kill(parity);
  cluster.replace(parity);
  std::vector<dnn::StateDict> out;
  auto load = engine.load(cluster, 1, out);
  ASSERT_TRUE(load.success);
  EXPECT_NE(load.detail.find("workflow A"), std::string::npos);

  engine.save(cluster, shards, 2);
  int data = plan.data_nodes[0];
  cluster.kill(data);
  cluster.replace(data);
  auto load2 = engine.load(cluster, 2, out);
  ASSERT_TRUE(load2.success);
  EXPECT_NE(load2.detail.find("workflow B"), std::string::npos);
}

TEST(ECCheck, RecoveryRestoresRedundancy) {
  // After one recovery, a second (different) failure must still succeed —
  // task 2 of §III-B.
  VirtualCluster cluster(test_cluster_config());
  auto shards = dnn::make_sharded_checkpoint(shard_config(8));
  auto want = digests_of(shards);
  core::ECCheckEngine engine(eccheck_config(2, 2));
  engine.save(cluster, shards, 1);

  cluster.kill(0);
  cluster.kill(1);
  cluster.replace(0);
  cluster.replace(1);
  std::vector<dnn::StateDict> out;
  ASSERT_TRUE(engine.load(cluster, 1, out).success);

  cluster.kill(2);
  cluster.kill(3);
  cluster.replace(2);
  cluster.replace(3);
  auto load2 = engine.load(cluster, 1, out);
  ASSERT_TRUE(load2.success) << load2.detail;
  expect_bit_exact(out, want);
}

// --- timing semantics --------------------------------------------------------

TEST(Timing, Base1BlocksForWholeSaveBase2OnlyForSnapshot) {
  VirtualCluster c1(test_cluster_config());
  VirtualCluster c2(test_cluster_config());
  auto shards = dnn::make_sharded_checkpoint(shard_config(8));
  ckpt::RemoteSyncEngine base1;
  ckpt::RemoteTwoPhaseEngine base2;
  auto r1 = base1.save(c1, shards, 1);
  auto r2 = base2.save(c2, shards, 1);
  EXPECT_DOUBLE_EQ(r1.stall_time, r1.total_time);
  EXPECT_LT(r2.stall_time, r2.total_time / 2);
  // Same data, same persistence path → same total duration.
  EXPECT_NEAR(r1.total_time, r2.total_time, r1.total_time * 0.01);
}

TEST(Timing, InMemoryEnginesBeatRemoteOnCheckpointTime) {
  auto shards = dnn::make_sharded_checkpoint(shard_config(8));
  VirtualCluster c1(test_cluster_config());
  VirtualCluster c3(test_cluster_config());
  VirtualCluster ce(test_cluster_config());
  ckpt::RemoteSyncEngine base1;
  ckpt::GeminiReplicationEngine base3(2);
  core::ECCheckEngine ec(eccheck_config(2, 2));
  auto r1 = base1.save(c1, shards, 1);
  auto r3 = base3.save(c3, shards, 1);
  auto re = ec.save(ce, shards, 1);
  EXPECT_LT(r3.total_time, r1.total_time);
  EXPECT_LT(re.total_time, r1.total_time);
  // ECCheck costs a modest factor over base3 (paper: ≈1.6×).
  EXPECT_GT(re.total_time, r3.total_time * 0.9);
  EXPECT_LT(re.total_time, r3.total_time * 4.0);
}

TEST(Timing, ECCheckStallIsOnlySnapshot) {
  VirtualCluster cluster(test_cluster_config());
  auto shards = dnn::make_sharded_checkpoint(shard_config(8));
  core::ECCheckEngine engine(eccheck_config(2, 2));
  auto rep = engine.save(cluster, shards, 1);
  EXPECT_LT(rep.stall_time, rep.total_time / 2);
  EXPECT_DOUBLE_EQ(rep.breakdown.at("step1_snapshot"), rep.stall_time);
  EXPECT_GT(rep.breakdown.at("step3_encode_pipeline"),
            rep.breakdown.at("step1_snapshot"));
}

TEST(Timing, RecoveryFromPeersBeatsRemote) {
  auto shards = dnn::make_sharded_checkpoint(shard_config(8));
  VirtualCluster c1(test_cluster_config());
  VirtualCluster ce(test_cluster_config());
  ckpt::RemoteSyncEngine base1;
  core::ECCheckEngine ec(eccheck_config(2, 2));
  base1.save(c1, shards, 1);
  ec.save(ce, shards, 1);

  for (auto* c : {&c1, &ce}) {
    c->kill(1);
    c->replace(1);
  }
  std::vector<dnn::StateDict> out;
  auto l1 = base1.load(c1, 1, out);
  auto le = ec.load(ce, 1, out);
  ASSERT_TRUE(l1.success);
  ASSERT_TRUE(le.success);
  EXPECT_LT(le.resume_time, l1.resume_time / 3);
}

TEST(Timing, WorkflowBSlowerThanWorkflowA) {
  auto shards = dnn::make_sharded_checkpoint(shard_config(8));
  core::ECCheckEngine ec(eccheck_config(2, 2));

  VirtualCluster ca(test_cluster_config());
  ec.save(ca, shards, 1);
  auto plan = ec.plan_for(ca);
  ca.kill(plan.parity_nodes[0]);
  ca.replace(plan.parity_nodes[0]);
  std::vector<dnn::StateDict> out;
  auto la = ec.load(ca, 1, out);

  VirtualCluster cb(test_cluster_config());
  ec.save(cb, shards, 1);
  cb.kill(plan.data_nodes[0]);
  cb.replace(plan.data_nodes[0]);
  auto lb = ec.load(cb, 1, out);

  ASSERT_TRUE(la.success);
  ASSERT_TRUE(lb.success);
  EXPECT_GE(lb.resume_time, la.resume_time);
}

TEST(Timing, NetworkBytesMatchCommVolumeLaw) {
  // §V-F: inter-node traffic ≈ m·s·W (metadata broadcast adds a sliver).
  VirtualCluster cluster(test_cluster_config());
  auto shards = dnn::make_sharded_checkpoint(shard_config(8));
  core::ECCheckEngine ec(eccheck_config(2, 2));
  auto rep = ec.save(cluster, shards, 1);

  std::size_t max_shard = 0;
  for (const auto& sd : shards) max_shard = std::max(max_shard, sd.tensor_bytes());
  const std::size_t P = ec.config().packet_size;
  const std::size_t B = core::packets_needed(max_shard, P);
  const double s = static_cast<double>(B * P);  // padded shard size
  const double msW = 2.0 * s * 8;               // m=2, W=8
  EXPECT_NEAR(static_cast<double>(rep.network_bytes), msW, msW * 0.1);
}


TEST(Base3, LargerGroupsToleratePartialLoss) {
  // Group size 4: each node replicates the whole group, so up to 3 of the 4
  // members can fail — at 4× the memory cost ECCheck avoids (Fig. 2).
  VirtualCluster cluster(test_cluster_config(4, 2));
  auto shards = dnn::make_sharded_checkpoint(shard_config(8));
  auto want = digests_of(shards);
  ckpt::GeminiReplicationEngine engine(4);
  engine.save(cluster, shards, 1);
  for (int v : {0, 1, 3}) {
    cluster.kill(v);
    cluster.replace(v);
  }
  std::vector<dnn::StateDict> out;
  auto load = engine.load(cluster, 1, out);
  ASSERT_TRUE(load.success) << load.detail;
  expect_bit_exact(out, want);

  // All four down → gone.
  for (int v : {0, 1, 2, 3}) {
    cluster.kill(v);
    cluster.replace(v);
  }
  EXPECT_FALSE(engine.load(cluster, 1, out).success);
}

TEST(Base3, MemoryCostScalesWithGroupSize) {
  auto shards = dnn::make_sharded_checkpoint(shard_config(8));
  std::size_t bytes[2];
  int i = 0;
  for (int gs : {2, 4}) {
    VirtualCluster cluster(test_cluster_config(4, 2));
    ckpt::GeminiReplicationEngine engine(gs);
    engine.save(cluster, shards, 1);
    bytes[i++] = cluster.host(0).total_bytes();
  }
  // Group of 4 stores ~2x what a group of 2 does on every node.
  EXPECT_GT(bytes[1], bytes[0] * 3 / 2);
}

// A load reports what it did. The baselines name where the shards came from,
// so a recovery line never reads as an empty success.
TEST(BaseEngines, LoadDetailSaysWhereTheShardsCameFrom) {
  auto shards = dnn::make_sharded_checkpoint(shard_config(8));
  ckpt::RemoteSyncEngine base1;
  ckpt::RemoteTwoPhaseEngine base2;
  ckpt::GeminiReplicationEngine base3(2);
  const std::pair<CheckpointEngine*, std::string> cases[] = {
      {&base1, "read 8 shards from remote storage"},
      {&base2, "read 8 shards from remote storage"},
      {&base3, "refilled 2 of 8 shards from group replicas"}};
  for (const auto& [engine, want] : cases) {
    VirtualCluster cluster(test_cluster_config());
    engine->save(cluster, shards, 1);
    cluster.kill(0);
    cluster.replace(0);
    std::vector<dnn::StateDict> out;
    const auto load = engine->load(cluster, 1, out);
    ASSERT_TRUE(load.success) << engine->name() << ": " << load.detail;
    EXPECT_EQ(load.detail, want) << engine->name();
  }
}

std::set<std::string> breakdown_keys(const ckpt::SaveReport& rep) {
  std::set<std::string> keys;
  for (const auto& [key, value] : rep.breakdown) keys.insert(key);
  return keys;
}

// Every stage stamp is a time since the save began, so none exceeds the
// save's total; the dirty ratio is the one entry that is not a time.
void expect_stamps_within_total(const ckpt::SaveReport& rep,
                                const std::string& what) {
  for (const auto& [key, value] : rep.breakdown) {
    if (key != "delta_dirty_ratio") {
      EXPECT_LE(value, rep.total_time) << what << ": " << key;
    }
  }
}

// The simulator's schedule and the byte plane stamp the same stages under
// the same keys, which bench/e2e and fig11 read by name.
TEST(Stages, ScheduleAndBytePlaneReportOneVocabulary) {
  auto shards = dnn::make_sharded_checkpoint(shard_config(8));
  std::vector<const dnn::StateDict*> ptrs;
  for (const auto& sd : shards) ptrs.push_back(&sd);
  for (bool flush : {false, true}) {
    core::ECCheckConfig cfg = eccheck_config(2, 2);
    cfg.flush_to_remote = flush;
    std::set<std::string> want = {"step1_snapshot",
                                  "step2_metadata_broadcast",
                                  "step3_encode_pipeline"};
    if (flush) want.insert("step4_remote_flush");

    VirtualCluster scheduled(test_cluster_config());
    const auto sched = core::ECCheckEngine(cfg).save(scheduled, shards, 1);
    VirtualCluster moved(test_cluster_config());
    cluster::VirtualFabric fabric(moved);
    const auto bytes = core::fabric_save(fabric, cfg, ptrs, 1);

    const std::string what = flush ? "with flush" : "without flush";
    EXPECT_EQ(breakdown_keys(sched), want) << what;
    EXPECT_EQ(breakdown_keys(bytes), want) << what;
    expect_stamps_within_total(sched, "schedule " + what);
    expect_stamps_within_total(bytes, "fabric_save " + what);
  }

  core::ECCheckConfig cfg = eccheck_config(2, 2);
  cfg.delta.enabled = true;
  VirtualCluster cluster(test_cluster_config());
  cluster::VirtualFabric fabric(cluster);
  core::fabric_save(fabric, cfg, ptrs, 1);
  const auto delta = core::fabric_save(fabric, cfg, ptrs, 2);
  EXPECT_EQ(breakdown_keys(delta),
            (std::set<std::string>{"step1_snapshot", "step2_metadata_broadcast",
                                   "step3_delta_patch", "delta_dirty_ratio"}));
  expect_stamps_within_total(delta, "delta save");
}

}  // namespace
}  // namespace eccheck
