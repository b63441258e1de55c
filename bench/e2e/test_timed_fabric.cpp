// TimedFabric must be invisible to the protocol: the same save → delta save
// → lose two ranks → load sequence over VirtualFabric, once bare and once
// through the decorator, must leave byte-identical stores, recovered
// digests and stats — while the decorator saw every operation kind the
// sequence uses.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "bench/e2e/timed_fabric.hpp"
#include "cluster/fabric.hpp"
#include "core/session.hpp"
#include "dnn/sparse_update.hpp"

namespace eccheck {
namespace {

constexpr int kNodes = 4;

struct Outcome {
  std::vector<std::map<std::string, Buffer>> stores;  // per node
  std::vector<std::uint64_t> digests;
  obs::StatsRegistry::CounterMap stats;
  std::string detail;
};

Outcome run_sequence(bool decorated, bench::FabricTimes* times) {
  cluster::ClusterConfig cc;
  cc.num_nodes = kNodes;
  cc.gpus_per_node = 1;
  cluster::VirtualCluster vc(cc);
  cluster::VirtualFabric bare(vc);
  bench::TimedFabric timed(bare);
  cluster::Fabric& fabric = decorated ? static_cast<cluster::Fabric&>(timed)
                                      : static_cast<cluster::Fabric&>(bare);

  core::ECCheckConfig cfg;
  cfg.packet_size = kib(16);
  cfg.delta.enabled = true;
  dnn::SparseUpdateSpec spec;
  spec.embedding_rows = 2048;

  std::vector<dnn::StateDict> shards;
  for (int w = 0; w < kNodes; ++w)
    shards.push_back(dnn::make_sparse_model_shard(spec, w));
  std::vector<const dnn::StateDict*> ptrs;
  for (const auto& sd : shards) ptrs.push_back(&sd);

  Outcome out;
  {
    core::FabricSession session(fabric, cfg);
    session.save(ptrs);  // full encode, seeds the delta base
    for (int w = 0; w < kNodes; ++w)
      dnn::apply_sparse_update(shards[static_cast<std::size_t>(w)], spec, w, 1);
    const ckpt::SaveReport rep = session.save(ptrs);
    EXPECT_TRUE(rep.breakdown.count("step3_delta_patch"))
        << "second save should take the delta path";
  }
  for (int node : {0, 3}) {
    vc.kill(node);
    vc.replace(node);
  }
  core::FabricSession session(fabric, cfg);
  std::vector<dnn::StateDict> loaded;
  const auto r = session.load(loaded);
  EXPECT_TRUE(r.report.success) << r.report.detail;
  out.detail = r.report.detail;
  for (const auto& sd : loaded) out.digests.push_back(sd.digest());
  for (int node = 0; node < kNodes; ++node) {
    std::map<std::string, Buffer> img;
    for (const auto& key : vc.host(node).keys_with_prefix(""))
      img.emplace(key, vc.host(node).get(key).clone());
    out.stores.push_back(std::move(img));
  }
  out.stats = vc.stats().counters();
  if (times != nullptr) *times = timed.times();
  return out;
}

TEST(TimedFabric, DecoratorLeavesStoresDigestsAndStatsByteIdentical) {
  bench::FabricTimes times;
  const Outcome bare = run_sequence(/*decorated=*/false, nullptr);
  const Outcome timed = run_sequence(/*decorated=*/true, &times);

  EXPECT_EQ(timed.detail, bare.detail);
  EXPECT_EQ(timed.digests, bare.digests);
  EXPECT_EQ(timed.stats, bare.stats);
  ASSERT_EQ(timed.stores.size(), bare.stores.size());
  for (std::size_t node = 0; node < bare.stores.size(); ++node) {
    ASSERT_EQ(timed.stores[node].size(), bare.stores[node].size())
        << "node " << node;
    for (const auto& [key, value] : bare.stores[node]) {
      auto it = timed.stores[node].find(key);
      ASSERT_NE(it, timed.stores[node].end()) << "node " << node << " " << key;
      EXPECT_TRUE(it->second == value) << "node " << node << " " << key;
    }
  }

  // The sequence exercises every reported operation kind; each must have
  // been seen and charged.
  for (bench::FabricOp op :
       {bench::FabricOp::kSendBuffer, bench::FabricOp::kSendBuffers,
        bench::FabricOp::kBroadcast, bench::FabricOp::kAllGather,
        bench::FabricOp::kRingAllReduceXor, bench::FabricOp::kBarrier}) {
    const auto i = static_cast<std::size_t>(op);
    EXPECT_GT(times.calls[i], 0u) << bench::fabric_op_name(op);
    EXPECT_GE(times.seconds[i], 0.0) << bench::fabric_op_name(op);
  }
}

}  // namespace
}  // namespace eccheck
