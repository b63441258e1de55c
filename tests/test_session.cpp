// Session facade tests: the paper's initialize/save/load API, version
// retention, idle-slot calendars, fallback to older versions, and the
// rollback of saves torn by a node failure.
#include <gtest/gtest.h>

#include "chaos/fault_plan.hpp"
#include "core/session.hpp"
#include "dnn/checkpoint_gen.hpp"

namespace eccheck {
namespace {

using cluster::ClusterConfig;
using cluster::VirtualCluster;

struct Fixture {
  VirtualCluster cluster;
  dnn::ModelSpec model;
  dnn::ParallelismSpec par;

  Fixture()
      : cluster([] {
          ClusterConfig cfg;
          cfg.num_nodes = 4;
          cfg.gpus_per_node = 2;
          return cfg;
        }()),
        model(dnn::make_model(dnn::ModelFamily::kGPT2, 64, 1, 4, "sess")),
        par{2, 4, 1} {
    model.vocab = 256;
  }

  std::vector<dnn::StateDict> shards(std::int64_t iteration) {
    dnn::CheckpointGenConfig gen;
    gen.model = model;
    gen.parallelism = par;
    gen.seed = 77;
    gen.iteration = iteration;
    return dnn::make_sharded_checkpoint(gen);
  }

  core::SessionConfig session_config() {
    core::SessionConfig cfg;
    cfg.ec.k = 2;
    cfg.ec.m = 2;
    cfg.ec.packet_size = kib(8);
    return cfg;
  }
};

TEST(Session, InitializeProfilesAndPlans) {
  Fixture f;
  auto s = core::Session::initialize(f.cluster, f.model, f.par,
                                     f.session_config());
  EXPECT_EQ(s.placement().data_nodes.size(), 2u);
  EXPECT_GT(s.train_profile().iteration_time, 0.0);
  EXPECT_EQ(s.latest_version(), 0);
}

TEST(Session, SaveLoadLatestVersion) {
  Fixture f;
  auto s = core::Session::initialize(f.cluster, f.model, f.par,
                                     f.session_config());
  auto v1 = f.shards(100);
  auto v2 = f.shards(200);
  s.save(v1);
  s.save(v2);
  EXPECT_EQ(s.latest_version(), 2);

  f.cluster.kill(0);
  f.cluster.replace(0);
  std::vector<dnn::StateDict> out;
  auto r = s.load(out);
  ASSERT_TRUE(r.report.success) << r.report.detail;
  EXPECT_EQ(r.version, 2);
  for (std::size_t i = 0; i < out.size(); ++i)
    EXPECT_EQ(out[i].digest(), v2[i].digest());
}

TEST(Session, RetentionPrunesOldVersions) {
  Fixture f;
  auto cfg = f.session_config();
  cfg.retain_versions = 2;
  auto s = core::Session::initialize(f.cluster, f.model, f.par, cfg);
  s.save(f.shards(1));
  s.save(f.shards(2));
  s.save(f.shards(3));

  // Version 1 must be gone from every node's host memory.
  for (int n = 0; n < f.cluster.num_nodes(); ++n)
    EXPECT_TRUE(f.cluster.host(n).keys_with_prefix("ec/1/").empty())
        << "node " << n;
  // Versions 2 and 3 are still present.
  EXPECT_FALSE(f.cluster.host(0).keys_with_prefix("ec/3/").empty());
  EXPECT_FALSE(f.cluster.host(0).keys_with_prefix("ec/2/").empty());

  std::vector<dnn::StateDict> out;
  EXPECT_FALSE(s.engine().load(f.cluster, 1, out).success);
  EXPECT_TRUE(s.engine().load(f.cluster, 2, out).success);
}

TEST(Session, LoadFallsBackToOlderRetainedVersion) {
  Fixture f;
  auto s = core::Session::initialize(f.cluster, f.model, f.par,
                                     f.session_config());
  auto v1 = f.shards(1);
  s.save(v1);
  s.save(f.shards(2));

  // Corrupt version 2 everywhere (simulates a save torn by failure): only
  // version 1 remains loadable.
  for (int n = 0; n < f.cluster.num_nodes(); ++n)
    for (const auto& key : f.cluster.host(n).keys_with_prefix("ec/2/"))
      f.cluster.host(n).erase(key);

  std::vector<dnn::StateDict> out;
  auto r = s.load(out);
  ASSERT_TRUE(r.report.success) << r.report.detail;
  EXPECT_EQ(r.version, 1);
  for (std::size_t i = 0; i < out.size(); ++i)
    EXPECT_EQ(out[i].digest(), v1[i].digest());
}

TEST(Session, ReportsFailureWhenNothingLoadable) {
  Fixture f;
  auto s = core::Session::initialize(f.cluster, f.model, f.par,
                                     f.session_config());
  s.save(f.shards(1));
  for (int n : {0, 1, 2}) {  // > m failures, no remote flush
    f.cluster.kill(n);
    f.cluster.replace(n);
  }
  std::vector<dnn::StateDict> out;
  auto r = s.load(out);
  EXPECT_FALSE(r.report.success);
  EXPECT_EQ(r.version, 0);
  // The detail names the version range that was tried, not just the last
  // engine error.
  EXPECT_NE(r.report.detail.find("no retained version"), std::string::npos)
      << r.report.detail;
}

TEST(Session, LoadBeforeAnySaveReportsEmptyHistory) {
  Fixture f;
  auto s = core::Session::initialize(f.cluster, f.model, f.par,
                                     f.session_config());
  std::vector<dnn::StateDict> out;
  auto r = s.load(out);
  EXPECT_FALSE(r.report.success);
  EXPECT_EQ(r.version, 0);
  // Must say "nothing saved yet", not leave detail empty or probe version 0.
  EXPECT_NE(r.report.detail.find("no committed checkpoint version exists"),
            std::string::npos)
      << r.report.detail;
}

TEST(Session, RetentionPrunesRemoteFlushedCopies) {
  // With step-4 remote flush on, retired versions must also be erased from
  // the remote store — otherwise it accumulates every version forever.
  Fixture f;
  auto cfg = f.session_config();
  cfg.retain_versions = 2;
  cfg.ec.flush_to_remote = true;
  auto s = core::Session::initialize(f.cluster, f.model, f.par, cfg);
  s.save(f.shards(1));
  ASSERT_FALSE(f.cluster.remote().keys_with_prefix("ec/1/").empty());
  s.save(f.shards(2));
  s.save(f.shards(3));

  EXPECT_TRUE(f.cluster.remote().keys_with_prefix("ec/1/").empty());
  EXPECT_FALSE(f.cluster.remote().keys_with_prefix("ec/2/").empty());
  EXPECT_FALSE(f.cluster.remote().keys_with_prefix("ec/3/").empty());

  // The surviving remote copy still rescues a catastrophic failure.
  for (int n : {0, 1, 2}) {
    f.cluster.kill(n);
    f.cluster.replace(n);
  }
  std::vector<dnn::StateDict> out;
  auto r = s.load(out);
  ASSERT_TRUE(r.report.success) << r.report.detail;
  EXPECT_EQ(r.version, 3);
}

TEST(Session, IdleCalendarsInstalledOnNics) {
  Fixture f;
  auto s = core::Session::initialize(f.cluster, f.model, f.par,
                                     f.session_config());
  (void)s;
  // A non-idle send overlapping the training windows reports interference.
  f.cluster.net_send(0, 1, static_cast<std::size_t>(1e9), {}, false);
  Seconds total = 0;
  for (int n = 0; n < f.cluster.num_nodes(); ++n)
    total += f.cluster.nic_interference(n);
  EXPECT_GT(total, 0.0);
}

TEST(Session, SaveAfterRecoveryContinuesVersioning) {
  Fixture f;
  auto s = core::Session::initialize(f.cluster, f.model, f.par,
                                     f.session_config());
  s.save(f.shards(1));
  f.cluster.kill(3);
  f.cluster.replace(3);
  std::vector<dnn::StateDict> out;
  ASSERT_TRUE(s.load(out).report.success);
  auto rep = s.save(out);  // checkpoint the recovered state
  EXPECT_GT(rep.total_time, 0.0);
  EXPECT_EQ(s.latest_version(), 2);
  auto r2 = s.load(out);
  EXPECT_TRUE(r2.report.success);
  EXPECT_EQ(r2.version, 2);
}


TEST(Session, TornSaveNeverBecomesVisible) {
  // A save interrupted before its commit marker lands must be invisible:
  // emulate by erasing the commit markers of the newest version — load
  // falls back to the previous fully-committed checkpoint.
  Fixture f;
  auto s = core::Session::initialize(f.cluster, f.model, f.par,
                                     f.session_config());
  auto v1 = f.shards(1);
  s.save(v1);
  s.save(f.shards(2));
  for (int n = 0; n < f.cluster.num_nodes(); ++n)
    f.cluster.host(n).erase("ec/2/commit");

  std::vector<dnn::StateDict> out;
  auto r = s.load(out);
  ASSERT_TRUE(r.report.success) << r.report.detail;
  EXPECT_EQ(r.version, 1);
  for (std::size_t i = 0; i < out.size(); ++i)
    EXPECT_EQ(out[i].digest(), v1[i].digest());
}

TEST(Session, PartiallyTornSaveStillRecoversViaDecode) {
  // Commit lost on one node only: that node's chunk is treated as missing
  // and the version is decoded from the other k survivors.
  Fixture f;
  auto s = core::Session::initialize(f.cluster, f.model, f.par,
                                     f.session_config());
  auto v1 = f.shards(1);
  s.save(v1);
  f.cluster.host(3).erase("ec/1/commit");

  std::vector<dnn::StateDict> out;
  auto r = s.load(out);
  ASSERT_TRUE(r.report.success) << r.report.detail;
  EXPECT_EQ(r.version, 1);
  for (std::size_t i = 0; i < out.size(); ++i)
    EXPECT_EQ(out[i].digest(), v1[i].digest());
}

// ---- saves torn by a node failure roll back -------------------------------

using Op = cluster::FabricOp;

/// Records every fabric op of a probe run.
struct OpLog final : cluster::FaultHook {
  std::vector<Op> ops;
  void on_fabric_op(cluster::VirtualCluster&, const Op& op) override {
    ops.push_back(op);
  }
};

enum class TearAt { kStep3, kStep4Flush };

/// Index, among the ops of a clean save, of the op a kill lands on: the
/// middle packet-sized transfer of step 3, or the first write of the step-4
/// remote flush, when every local commit marker is already in place.
std::size_t tear_point(const std::vector<Op>& ops, TearAt at,
                       std::size_t packet) {
  std::vector<std::size_t> hits;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const bool hit = at == TearAt::kStep3
                         ? ops[i].kind == Op::Kind::kNetSend &&
                               ops[i].bytes == packet
                         : ops[i].kind == Op::Kind::kRemoteWrite;
    if (hit) hits.push_back(i);
  }
  if (hits.empty()) throw CheckFailure("probe save has no such op");
  return at == TearAt::kStep3 ? hits[hits.size() / 2] : hits.front();
}

/// Kill node 1 at `at` of the second save. The torn version must vanish
/// from every survivor, load must return version 1 bit-exact, and the
/// retried save must reuse version 2.
void tear_second_save(TearAt at) {
  Fixture probe;
  auto cfg = probe.session_config();
  cfg.ec.flush_to_remote = at == TearAt::kStep4Flush;
  std::size_t offset = 0;
  {
    auto s = core::Session::initialize(probe.cluster, probe.model, probe.par,
                                       cfg);
    s.save(probe.shards(1));
    OpLog log;
    probe.cluster.set_fault_hook(&log);
    s.save(probe.shards(2));
    probe.cluster.set_fault_hook(nullptr);
    offset = tear_point(log.ops, at, cfg.ec.packet_size);
  }

  Fixture f;
  chaos::FaultPlan plan;
  f.cluster.set_fault_hook(&plan);
  auto s = core::Session::initialize(f.cluster, f.model, f.par, cfg);
  const auto v1 = f.shards(1);
  s.save(v1);
  constexpr int kVictim = 1;
  plan.arm({{plan.op_count() + offset, kVictim}});
  EXPECT_THROW(s.save(f.shards(2)), CheckFailure);
  EXPECT_EQ(s.latest_version(), 1);  // the torn number is given back
  ASSERT_EQ(plan.fired().size(), 1u);
  EXPECT_EQ(plan.fired()[0].during, at == TearAt::kStep3
                                        ? Op::Kind::kNetSend
                                        : Op::Kind::kRemoteWrite);
  f.cluster.set_fault_hook(nullptr);

  for (int n : f.cluster.alive_nodes()) {
    EXPECT_TRUE(f.cluster.host(n).keys_with_prefix("ec/2/").empty())
        << "node " << n;
    EXPECT_TRUE(f.cluster.host(n).keys_with_prefix("tmp/2/").empty())
        << "node " << n;
  }

  f.cluster.replace(kVictim);
  std::vector<dnn::StateDict> out;
  auto r = s.load(out);
  ASSERT_TRUE(r.report.success) << r.report.detail;
  EXPECT_EQ(r.version, 1);
  ASSERT_EQ(out.size(), v1.size());
  for (std::size_t i = 0; i < out.size(); ++i)
    EXPECT_EQ(out[i].digest(), v1[i].digest()) << "worker " << i;

  s.save(f.shards(2));
  EXPECT_EQ(s.latest_version(), 2);
  for (int n = 0; n < f.cluster.num_nodes(); ++n)
    EXPECT_TRUE(f.cluster.host(n).contains("ec/2/commit")) << "node " << n;
}

TEST(Session, SaveTornInStep3RollsBackAndRetryReusesVersion) {
  tear_second_save(TearAt::kStep3);
}

TEST(Session, SaveTornInRemoteFlushRollsBackCommittedMarkers) {
  tear_second_save(TearAt::kStep4Flush);
}

}  // namespace
}  // namespace eccheck
