// Chaos subsystem: deterministic schedules, exact mid-operation fault
// firing, failure-during-save fallback, the shared oracle, the negative
// (tamper) control, and the headline randomized campaigns with zero
// invariant violations.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <sstream>

#include "chaos/runner.hpp"
#include "cluster/fabric.hpp"
#include "common/crc64.hpp"
#include "core/engine_keys.hpp"
#include "core/session.hpp"
#include "dnn/checkpoint_gen.hpp"

namespace eccheck {
namespace {

using chaos::ChaosConfig;
using chaos::ChaosEvent;
using chaos::ChaosRunner;
using chaos::EventKind;
using chaos::FaultPlan;

ChaosConfig small_config(std::uint64_t seed, int events = 48) {
  ChaosConfig cfg;
  cfg.seed = seed;
  cfg.events = events;
  cfg.packet_size = kib(8);
  return cfg;
}

// ---- schedule generator ---------------------------------------------------

TEST(ChaosSchedule, DeterministicFromSeed) {
  auto a = chaos::generate_schedule(small_config(123));
  auto b = chaos::generate_schedule(small_config(123));
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].kind, b[i].kind) << i;
    EXPECT_EQ(a[i].picks, b[i].picks) << i;
    EXPECT_DOUBLE_EQ(a[i].op_frac, b[i].op_frac) << i;
    EXPECT_DOUBLE_EQ(a[i].detect_heartbeat, b[i].detect_heartbeat) << i;
    EXPECT_DOUBLE_EQ(a[i].detect_timeout, b[i].detect_timeout) << i;
    EXPECT_EQ(a[i].detect_quorum, b[i].detect_quorum) << i;
    EXPECT_DOUBLE_EQ(a[i].replace_delay, b[i].replace_delay) << i;
  }
  // A different seed diverges somewhere.
  auto c = chaos::generate_schedule(small_config(124));
  bool differs = false;
  for (std::size_t i = 0; i < std::min(a.size(), c.size()); ++i)
    if (a[i].kind != c[i].kind || a[i].op_frac != c[i].op_frac)
      differs = true;
  EXPECT_TRUE(differs);
}

TEST(ChaosSchedule, ShapeAndParameterRanges) {
  ChaosConfig cfg = small_config(7, 200);
  auto sched = chaos::generate_schedule(cfg);
  ASSERT_EQ(sched.size(), 200u);
  EXPECT_EQ(sched.front().kind, EventKind::kSave);
  EXPECT_EQ(sched.back().kind, EventKind::kRecover);
  for (const auto& e : sched) {
    EXPECT_GT(e.detect_heartbeat, 0.0);
    EXPECT_GE(e.detect_timeout, e.detect_heartbeat);
    EXPECT_GE(e.detect_quorum, 1);
    EXPECT_LE(e.detect_quorum, cfg.num_nodes - 1);
    EXPECT_GE(e.op_frac, 0.0);
    EXPECT_LT(e.op_frac, 1.0);
    EXPECT_GE(e.replace_delay, 0.0);
    switch (e.kind) {
      case EventKind::kMidSaveKill: EXPECT_EQ(e.picks.size(), 1u); break;
      case EventKind::kMidLoadKill: EXPECT_EQ(e.picks.size(), 2u); break;
      case EventKind::kCorrupt: EXPECT_EQ(e.picks.size(), 3u); break;
      case EventKind::kKill:
        EXPECT_GE(e.picks.size(), 1u);
        // burst cap: min(m+1, nodes-1)
        EXPECT_LE(e.picks.size(),
                  static_cast<std::size_t>(
                      std::min(cfg.m + 1, cfg.num_nodes - 1)));
        break;
      default: EXPECT_TRUE(e.picks.empty()); break;
    }
  }
  // The mix actually contains the interesting kinds at this length.
  auto count = [&](EventKind k) {
    std::size_t n = 0;
    for (const auto& e : sched) n += e.kind == k ? 1 : 0;
    return n;
  };
  EXPECT_GT(count(EventKind::kSave), 0u);
  EXPECT_GT(count(EventKind::kKill), 0u);
  EXPECT_GT(count(EventKind::kMidSaveKill), 0u);
  EXPECT_GT(count(EventKind::kMidLoadKill), 0u);
  EXPECT_GT(count(EventKind::kCorrupt), 0u);
}

// ---- FaultPlan ------------------------------------------------------------

TEST(FaultPlan, FiresAtExactOperationIndex) {
  cluster::ClusterConfig cc;
  cc.num_nodes = 2;
  cc.gpus_per_node = 1;
  cluster::VirtualCluster vc(cc);
  FaultPlan plan;
  vc.set_fault_hook(&plan);

  plan.arm({{plan.op_count() + 2, 0}});  // fire at the start of the 3rd op
  vc.host_copy(1, 64, {});
  EXPECT_TRUE(vc.alive(0));
  vc.host_copy(1, 64, {});
  EXPECT_TRUE(vc.alive(0));
  vc.host_copy(1, 64, {});  // index +2: trigger fires before bytes move
  EXPECT_FALSE(vc.alive(0));
  ASSERT_EQ(plan.fired().size(), 1u);
  EXPECT_EQ(plan.fired()[0].node, 0);
  EXPECT_EQ(plan.fired()[0].during, cluster::FabricOp::Kind::kHostCopy);
  vc.set_fault_hook(nullptr);
}

TEST(FaultPlan, TriggerOnDeadNodeIsConsumedWithoutFiring) {
  cluster::ClusterConfig cc;
  cc.num_nodes = 2;
  cc.gpus_per_node = 1;
  cluster::VirtualCluster vc(cc);
  FaultPlan plan;
  vc.set_fault_hook(&plan);
  vc.kill(0);
  plan.arm({{plan.op_count(), 0}});
  vc.host_copy(1, 64, {});
  EXPECT_TRUE(plan.fired().empty());
  EXPECT_FALSE(plan.armed());
  vc.set_fault_hook(nullptr);
}

// ---- failure during save (satellite): previous version must survive ------

struct SaveFixture {
  cluster::VirtualCluster cluster;
  dnn::ModelSpec model;
  dnn::ParallelismSpec par;
  FaultPlan plan;

  SaveFixture()
      : cluster([] {
          cluster::ClusterConfig cfg;
          cfg.num_nodes = 4;
          cfg.gpus_per_node = 2;
          return cfg;
        }()),
        model(dnn::make_model(dnn::ModelFamily::kGPT2, 64, 1, 4, "chaos-t")),
        par{2, 4, 1} {
    model.vocab = 256;
    cluster.set_fault_hook(&plan);
  }
  ~SaveFixture() { cluster.set_fault_hook(nullptr); }

  std::vector<dnn::StateDict> shards(std::int64_t iteration) {
    dnn::CheckpointGenConfig gen;
    gen.model = model;
    gen.parallelism = par;
    gen.seed = 99;
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

  /// Fabric ops of the version agreement (fabric_newest_version's flag
  /// all_gather) that opens every Session save, counted on a fresh fixture.
  /// Kills meant for the save protocol itself are placed past it.
  static std::uint64_t agreement_ops() {
    SaveFixture probe;
    cluster::VirtualFabric fabric(probe.cluster);
    core::fabric_newest_version(fabric, probe.session_config().ec);
    return probe.plan.op_count();
  }
};

TEST(ChaosMidSave, KillBetweenPipelineStagesFallsBackToPreviousVersion) {
  // Probe the fabric-op count of a clean save's protocol (the ops past the
  // version agreement) once, then tear a save at several points of that
  // window. Whatever happens to version 2 — torn (never committed) or
  // completed before the kill landed — load must return a bit-exact
  // checkpoint: v1 if v2 never committed, v2 if it did.
  const std::uint64_t agreement = SaveFixture::agreement_ops();
  ASSERT_GT(agreement, 0u);
  std::uint64_t clean_save_ops = 0;
  {
    SaveFixture probe;
    auto s = core::Session::initialize(probe.cluster, probe.model, probe.par,
                                       probe.session_config());
    const std::uint64_t before = probe.plan.op_count();
    s.save(probe.shards(1));
    clean_save_ops = probe.plan.op_count() - before - agreement;
    ASSERT_GT(clean_save_ops, 4u);
  }

  for (double frac : {0.05, 0.25, 0.5, 0.75, 0.95}) {
    SaveFixture f;
    auto s = core::Session::initialize(f.cluster, f.model, f.par,
                                       f.session_config());
    auto v1 = f.shards(1);
    s.save(v1);
    auto v2 = f.shards(2);
    std::vector<std::uint64_t> v2_digests;
    for (const auto& sd : v2) v2_digests.push_back(sd.digest());

    const std::uint64_t offset =
        agreement + 1 +
        static_cast<std::uint64_t>(frac *
                                   static_cast<double>(clean_save_ops - 2));
    const std::uint64_t start = f.plan.op_count();
    f.plan.arm({{start + offset, 2}});
    bool torn = false;
    try {
      s.save(v2);
    } catch (const CheckFailure&) {
      torn = true;
    }
    f.plan.disarm();
    // The kill landed inside the save protocol, past the version agreement.
    ASSERT_EQ(f.plan.fired().size(), 1u) << "frac=" << frac;
    EXPECT_GT(f.plan.fired()[0].at_op, start + agreement) << "frac=" << frac;

    if (!f.cluster.alive(2)) f.cluster.replace(2);
    std::vector<dnn::StateDict> out;
    auto r = s.load(out);
    ASSERT_TRUE(r.report.success) << "frac=" << frac << ": " << r.report.detail;
    ASSERT_TRUE(r.version == 1 || r.version == 2) << "frac=" << frac;
    const auto& want = r.version == 2 ? v2_digests : [&] {
      std::vector<std::uint64_t> d;
      for (const auto& sd : v1) d.push_back(sd.digest());
      return d;
    }();
    ASSERT_EQ(out.size(), want.size());
    for (std::size_t i = 0; i < out.size(); ++i)
      EXPECT_EQ(out[i].digest(), want[i]) << "frac=" << frac << " worker " << i;
    // A torn save must never present itself as loadable newest.
    if (torn && r.version == 2) {
      // Acceptable only if the kill landed after all local commits (step-4
      // remote-flush window) — in which case v2 is genuinely complete, which
      // the digest equality above already proved.
      SUCCEED();
    }
  }
}

TEST(ChaosMidSave, TornFirstSaveLeavesNothingLoadable) {
  SaveFixture f;
  auto s = core::Session::initialize(f.cluster, f.model, f.par,
                                     f.session_config());
  const std::uint64_t agreement = SaveFixture::agreement_ops();
  const std::uint64_t start = f.plan.op_count();
  f.plan.arm({{start + agreement + 3, 1}});
  EXPECT_THROW(s.save(f.shards(1)), CheckFailure);
  f.plan.disarm();
  // The kill landed inside the save protocol, past the version agreement.
  ASSERT_EQ(f.plan.fired().size(), 1u);
  EXPECT_GT(f.plan.fired()[0].at_op, start + agreement);
  if (!f.cluster.alive(1)) f.cluster.replace(1);
  std::vector<dnn::StateDict> out;
  auto r = s.load(out);
  EXPECT_FALSE(r.report.success);
  EXPECT_EQ(r.version, 0);
}

// ---- the shared oracle ----------------------------------------------------

TEST(ChaosOracle, ChecksDigestsAndRangeAndReplacesReusedVersions) {
  std::size_t violations = 0;
  std::vector<std::string> messages;
  std::ostringstream jsonl;
  chaos::Oracle oracle(9, violations, messages, &jsonl);
  oracle.set_event(3);
  oracle.commit(1, {11, 12});
  oracle.check_digests("load", 1, {{0, 11}, {1, 12}});
  oracle.check_range("load", 1, 1, 1);
  EXPECT_EQ(violations, 0u);

  // A digest mismatch is not bit-exact.
  oracle.check_digests("load", 1, {{0, 11}, {1, 99}});
  ASSERT_EQ(violations, 1u);
  EXPECT_NE(messages.back().find("[bitexact]"), std::string::npos);
  EXPECT_NE(messages.back().find("seed=9 event=3"), std::string::npos);
  EXPECT_NE(jsonl.str().find("\"violation\":\"bitexact\""), std::string::npos);

  // Neither is a version that never committed.
  oracle.check_digests("load", 2, {{0, 11}, {1, 12}});
  ASSERT_EQ(violations, 2u);
  EXPECT_NE(messages.back().find("[bitexact]"), std::string::npos);

  // One range rule: floor <= version <= ceiling.
  oracle.check_range("load", 1, 2, 4);
  oracle.check_range("load", 5, 2, 4);
  ASSERT_EQ(violations, 4u);
  EXPECT_NE(messages.back().find("[version_range]"), std::string::npos);

  // A reused version number replaces its entry.
  oracle.commit(1, {21, 22});
  oracle.check_digests("load", 1, {{0, 21}, {1, 22}});
  EXPECT_EQ(violations, 4u);
  oracle.check_digests("load", 1, {{0, 11}, {1, 12}});
  EXPECT_EQ(violations, 6u) << "one violation per stale worker digest";
}

// ---- runner oracle: negative control --------------------------------------

TEST(ChaosRunnerOracle, CorruptionWithAMatchingSumIsFlaggedAsNotBitExact) {
  // A flipped byte in a *data* chunk whose stored CRC sum is rewritten to
  // match passes the load's scrub and reaches the recovered state_dict — the
  // runner's bit-exact invariant must flag it. This proves the oracle
  // detects real corruption rather than trivially passing.
  ChaosConfig cfg = small_config(5);
  ChaosRunner runner(cfg);
  ASSERT_GT(runner.force_save(), 0);

  const auto& placement = runner.session().placement();
  ASSERT_FALSE(placement.data_nodes.empty());
  const int victim = placement.data_nodes[0];
  cluster::Store& store = runner.cluster().host(victim);
  auto rows = store.keys_with_prefix("ec/1/row/");
  ASSERT_FALSE(rows.empty());
  Buffer chunk = store.take(rows[0]);
  ASSERT_GT(chunk.size(), 0u);
  chunk.data()[0] ^= std::byte{0xff};
  const std::uint64_t flipped_sum = crc64(chunk.span());
  store.put(rows[0], std::move(chunk));

  // The packet's sum sits in slot j·B + b of the row's sums blob.
  const std::string row_prefix =
      core::keys::row_prefix("", 1, placement.generator_row_of_node(victim));
  int j = -1;
  int b = -1;
  ASSERT_EQ(std::sscanf(rows[0].substr(row_prefix.size()).c_str(), "%d/%d",
                        &j, &b),
            2)
      << rows[0];
  const std::size_t B = store.keys_with_prefix(row_prefix + "0/").size();
  Buffer& sums = store.get_mutable(core::keys::sums_key("", 1));
  const std::size_t slot = static_cast<std::size_t>(j) * B +
                           static_cast<std::size_t>(b);
  ASSERT_LE((slot + 1) * 8, sums.size());
  std::memcpy(sums.data() + slot * 8, &flipped_sum, 8);

  runner.force_recovery();
  EXPECT_GT(runner.summary().violations, 0u);
  ASSERT_FALSE(runner.summary().violation_messages.empty());
  EXPECT_NE(runner.summary().violation_messages[0].find("bitexact"),
            std::string::npos);
  EXPECT_NE(runner.summary().violation_messages[0].find("seed="),
            std::string::npos);
}

TEST(ChaosRunnerOracle, ScrubbingDecodesAroundTheSameCorruption) {
  // Positive twin of the test above: with the stored sum left alone, the
  // same tampering is detected by the CRC scrub, decoded around, and
  // recovery stays bit-exact — zero violations.
  ChaosConfig cfg = small_config(5);
  ChaosRunner runner(cfg);
  ASSERT_GT(runner.force_save(), 0);

  const auto& placement = runner.session().placement();
  const int victim = placement.data_nodes[0];
  auto rows = runner.cluster().host(victim).keys_with_prefix("ec/1/row/");
  ASSERT_FALSE(rows.empty());
  Buffer chunk = runner.cluster().host(victim).take(rows[0]);
  chunk.data()[0] ^= std::byte{0xff};
  runner.cluster().host(victim).put(rows[0], std::move(chunk));

  runner.force_recovery();
  EXPECT_EQ(runner.summary().violations, 0u)
      << (runner.summary().violation_messages.empty()
              ? ""
              : runner.summary().violation_messages[0]);
}

// ---- the headline campaigns ----------------------------------------------

struct CampaignTotals {
  std::size_t events = 0, saves = 0, torn_saves = 0, kills = 0,
              mid_op_kills = 0, corruptions = 0, recoveries = 0,
              detect_count = 0;
  void add(const chaos::CampaignSummary& s) {
    events += s.events;
    saves += s.saves;
    torn_saves += s.torn_saves;
    kills += s.kills;
    mid_op_kills += s.mid_op_kills;
    corruptions += s.corruptions;
    recoveries += s.recoveries;
    detect_count += static_cast<std::size_t>(s.detect_latency.count);
  }
};

TEST(ChaosCampaign, FiveHundredPlusEventsZeroViolations) {
  // ≥ 500 events across multiple seeds, with correlated bursts, mid-save and
  // mid-load kills, silent corruption and detector sweeps. Zero invariant
  // violations, and the aggregate mix must actually have exercised the
  // interesting paths (otherwise the campaign proves nothing).
  CampaignTotals totals;
  for (std::uint64_t seed : {11ull, 22ull, 33ull, 44ull, 55ull, 66ull}) {
    ChaosConfig cfg = small_config(seed, 90);
    cfg.flush_to_remote = seed % 2 == 0;  // alternate remote-rescue coverage
    ChaosRunner runner(cfg);
    const auto& s = runner.run();
    EXPECT_EQ(s.violations, 0u)
        << "seed " << seed << ": "
        << (s.violation_messages.empty() ? "?" : s.violation_messages[0]);
    totals.add(s);
  }
  EXPECT_GE(totals.events, 500u);
  EXPECT_GT(totals.saves, 0u);
  EXPECT_GT(totals.torn_saves, 0u);
  EXPECT_GT(totals.mid_op_kills, 0u);
  EXPECT_GT(totals.kills, 0u);
  EXPECT_GT(totals.corruptions, 0u);
  EXPECT_GT(totals.recoveries, 0u);
  EXPECT_GT(totals.detect_count, 0u);
}

TEST(ChaosCampaign, SummaryJsonCarriesSeedAndVerdicts) {
  std::ostringstream jsonl;
  ChaosConfig cfg = small_config(77, 24);
  ChaosRunner runner(cfg, &jsonl);
  const auto& s = runner.run();
  const std::string json = s.to_json();
  EXPECT_NE(json.find("\"seed\":77"), std::string::npos) << json;
  EXPECT_NE(json.find("\"violations\":"), std::string::npos);
  EXPECT_NE(json.find("\"detect_latency\""), std::string::npos);
  // The per-event log is one JSON object per line, each carrying the seed.
  std::istringstream lines(jsonl.str());
  std::string line;
  std::size_t n = 0;
  while (std::getline(lines, line)) {
    EXPECT_NE(line.find("\"seed\":77"), std::string::npos) << line;
    ++n;
  }
  EXPECT_EQ(n, s.events);
}

}  // namespace
}  // namespace eccheck
