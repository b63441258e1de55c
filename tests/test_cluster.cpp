// VirtualCluster tests: stores, failure injection, fabric timing semantics.
#include <gtest/gtest.h>

#include "cluster/cluster.hpp"
#include "common/rng.hpp"

namespace eccheck::cluster {
namespace {

ClusterConfig small_config() {
  ClusterConfig cfg;
  cfg.num_nodes = 4;
  cfg.gpus_per_node = 2;
  cfg.nic_bandwidth = 100.0;      // 100 B/s — easy arithmetic
  cfg.dtoh_bandwidth = 200.0;
  cfg.remote_storage_bandwidth = 10.0;
  cfg.host_memcpy_bandwidth = 400.0;
  cfg.serialize_bandwidth = 50.0;
  cfg.encode_bandwidth_per_thread = 25.0;
  cfg.encode_threads = 4;
  cfg.xor_bandwidth = 100.0;
  return cfg;
}

TEST(Store, PutGetTakeErase) {
  Store s;
  s.put("a", Buffer::copy_of(as_bytes_of(42)));
  EXPECT_TRUE(s.contains("a"));
  EXPECT_EQ(s.get("a").size(), sizeof(int));
  Buffer b = s.take("a");
  EXPECT_FALSE(s.contains("a"));
  EXPECT_EQ(b.size(), sizeof(int));
  EXPECT_THROW(s.get("a"), CheckFailure);
}

TEST(Store, RenameReKeysWithoutCopyingAndRefusesClashes) {
  Store s;
  s.put("a", Buffer::copy_of(as_bytes_of(42)));
  const std::byte* bytes = s.get("a").data();
  s.rename("a", "b");
  EXPECT_FALSE(s.contains("a"));
  ASSERT_TRUE(s.contains("b"));
  EXPECT_EQ(s.get("b").data(), bytes);  // the same allocation, re-keyed
  EXPECT_TRUE(s.get("b") == Buffer::copy_of(as_bytes_of(42)));

  EXPECT_THROW(s.rename("a", "c"), CheckFailure);  // source missing
  EXPECT_FALSE(s.contains("c"));
  s.put("c", Buffer(4));
  EXPECT_THROW(s.rename("b", "c"), CheckFailure);  // destination taken
  EXPECT_EQ(s.get("b").data(), bytes);             // both left as they were
  EXPECT_EQ(s.get("c").size(), 4u);
  EXPECT_EQ(s.size(), 2u);
}

TEST(Store, PrefixQueryAndAccounting) {
  Store s;
  s.put("x/1", Buffer(10));
  s.put("x/2", Buffer(20));
  s.put("y/1", Buffer(30));
  auto keys = s.keys_with_prefix("x/");
  ASSERT_EQ(keys.size(), 2u);
  EXPECT_EQ(keys[0], "x/1");
  EXPECT_EQ(s.total_bytes(), 60u);
  s.clear();
  EXPECT_EQ(s.size(), 0u);
}

TEST(Cluster, KillWipesVolatileMemoryOnly) {
  VirtualCluster c(small_config());
  c.host(1).put("key", Buffer(8));
  c.remote().put("rkey", Buffer(8));
  c.kill(1);
  EXPECT_FALSE(c.alive(1));
  EXPECT_THROW(c.host(1), CheckFailure);
  EXPECT_TRUE(c.remote().contains("rkey"));  // remote storage persists
  c.replace(1);
  EXPECT_TRUE(c.alive(1));
  EXPECT_FALSE(c.host(1).contains("key"));  // fresh node is empty
}

TEST(Cluster, AliveNodesList) {
  VirtualCluster c(small_config());
  c.kill(0);
  c.kill(3);
  auto alive = c.alive_nodes();
  EXPECT_EQ(alive, (std::vector<int>{1, 2}));
}

TEST(Cluster, DtohChargesPerGpuEngine) {
  VirtualCluster c(small_config());
  // Two GPUs on node 0 copy in parallel; same GPU serialises.
  auto t1 = c.dtoh(0, 0, 400, {});
  auto t2 = c.dtoh(0, 1, 400, {});
  auto t3 = c.dtoh(0, 0, 200, {});
  EXPECT_DOUBLE_EQ(c.timeline().finish_time(t1), 2.0);
  EXPECT_DOUBLE_EQ(c.timeline().finish_time(t2), 2.0);
  EXPECT_DOUBLE_EQ(c.timeline().finish_time(t3), 3.0);
}

TEST(Cluster, NetSendOccupiesTxAndRx) {
  VirtualCluster c(small_config());
  auto t1 = c.net_send(0, 1, 100, {});  // 1s
  // 0→2 waits for node 0's TX; 3→1 waits for node 1's RX.
  auto t2 = c.net_send(0, 2, 100, {});
  auto t3 = c.net_send(3, 1, 100, {});
  EXPECT_DOUBLE_EQ(c.timeline().finish_time(t1), 1.0);
  EXPECT_DOUBLE_EQ(c.timeline().task(t2).start, 1.0);
  EXPECT_DOUBLE_EQ(c.timeline().task(t3).start, 1.0);
  // Disjoint pair 2→3 runs immediately.
  auto t4 = c.net_send(2, 3, 100, {});
  EXPECT_DOUBLE_EQ(c.timeline().task(t4).start, 0.0);
}

TEST(Cluster, SendToSelfRejected) {
  VirtualCluster c(small_config());
  EXPECT_THROW(c.net_send(1, 1, 10, {}), CheckFailure);
}

TEST(Cluster, RemoteStorageSharesAggregateBandwidth) {
  VirtualCluster c(small_config());
  // Two writers serialise on the shared 10 B/s storage link.
  auto t1 = c.remote_write(0, 100, {});
  auto t2 = c.remote_write(1, 100, {});
  EXPECT_DOUBLE_EQ(c.timeline().finish_time(t1), 10.0);
  EXPECT_DOUBLE_EQ(c.timeline().finish_time(t2), 20.0);
}

TEST(Cluster, CpuCostsFollowConfig) {
  VirtualCluster c(small_config());
  // encode: 4 threads × 25 B/s = 100 B/s.
  auto enc = c.cpu_code(0, 200, {});
  EXPECT_DOUBLE_EQ(c.timeline().finish_time(enc), 2.0);
  auto ser = c.cpu_serialize(1, 100, {});
  EXPECT_DOUBLE_EQ(c.timeline().finish_time(ser), 2.0);
  auto cp = c.host_copy(2, 400, {});
  EXPECT_DOUBLE_EQ(c.timeline().finish_time(cp), 1.0);
  auto xr = c.cpu_xor(3, 300, {});
  EXPECT_DOUBLE_EQ(c.timeline().finish_time(xr), 3.0);
}

TEST(Cluster, SizeScaleMultipliesVirtualBytes) {
  auto cfg = small_config();
  cfg.size_scale = 8.0;
  VirtualCluster c(cfg);
  auto t = c.net_send(0, 1, 100, {});  // 800 virtual bytes at 100 B/s
  EXPECT_DOUBLE_EQ(c.timeline().finish_time(t), 8.0);
}

TEST(Cluster, SendBufferMovesBytes) {
  VirtualCluster c(small_config());
  Buffer b(64, Buffer::Init::kUninitialized);
  fill_random(b.span(), 3);
  c.host(0).put("src", b.clone());
  c.send_buffer(0, 2, "src", "dst", {});
  EXPECT_TRUE(c.host(2).contains("dst"));
  EXPECT_EQ(c.host(2).get("dst"), b);
  EXPECT_TRUE(c.host(0).contains("src"));  // sender keeps its copy
}

TEST(Cluster, RemoteRoundTripMovesBytes) {
  VirtualCluster c(small_config());
  Buffer b(32, Buffer::Init::kUninitialized);
  fill_random(b.span(), 5);
  c.host(1).put("k", b.clone());
  c.flush_to_remote(1, "k", "rk", {});
  EXPECT_TRUE(c.remote().contains("rk"));
  c.kill(1);
  c.replace(1);
  c.fetch_from_remote(1, "rk", "k2", {});
  EXPECT_EQ(c.host(1).get("k2"), b);
}

TEST(Cluster, ResetTimelineKeepsStoresAndCalendars) {
  VirtualCluster c(small_config());
  c.host(0).put("k", Buffer(8));
  c.set_nic_calendar(0, {{0.0, 1.0}});
  c.net_send(0, 1, 100, {});
  EXPECT_GT(c.timeline().makespan(), 0.0);
  c.reset_timeline();
  EXPECT_DOUBLE_EQ(c.timeline().makespan(), 0.0);
  EXPECT_TRUE(c.host(0).contains("k"));
  // Calendar still applies: idle-only send must start after the busy window.
  sim::TaskOptions idle;
  idle.idle_only = true;
  auto t = c.timeline().add_task("s", {c.nic_tx(0), c.nic_rx(1)}, 0.5, {},
                                 idle);
  EXPECT_DOUBLE_EQ(c.timeline().task(t).start, 1.0);
}

TEST(Cluster, IdleOnlySendAvoidsTrainingWindowsAndReportsNoInterference) {
  VirtualCluster c(small_config());
  c.set_nic_calendar(0, {{0.0, 2.0}, {3.0, 4.0}});
  auto idle_send = c.net_send(0, 1, 100, {}, /*idle_only=*/true);
  // 1s of transfer: gap [2,3) fits it exactly.
  EXPECT_DOUBLE_EQ(c.timeline().task(idle_send).start, 2.0);
  EXPECT_DOUBLE_EQ(c.timeline().finish_time(idle_send), 3.0);
  EXPECT_DOUBLE_EQ(c.nic_interference(0), 0.0);

  c.reset_timeline();
  auto rude = c.net_send(0, 1, 100, {}, /*idle_only=*/false);
  EXPECT_DOUBLE_EQ(c.timeline().finish_time(rude), 1.0);
  EXPECT_GT(c.nic_interference(0), 0.0);
}

TEST(Cluster, BarrierJoins) {
  VirtualCluster c(small_config());
  auto a = c.net_send(0, 1, 100, {});
  auto b = c.net_send(2, 3, 300, {});
  auto bar = c.barrier({a, b});
  EXPECT_DOUBLE_EQ(c.timeline().finish_time(bar), 3.0);
}

TEST(Cluster, WorldSizeAndValidation) {
  auto cfg = small_config();
  VirtualCluster c(cfg);
  EXPECT_EQ(c.world_size(), 8);
  EXPECT_THROW(c.host(7), CheckFailure);
  EXPECT_THROW(c.dtoh(0, 5, 10, {}), CheckFailure);
}

TEST(Cluster, KillAndReplaceGuardStateTransitions) {
  // A slot fails at most once per replace: kill() of a dead node and
  // replace() of an alive node are caller bookkeeping bugs, not no-ops.
  VirtualCluster c(small_config());
  EXPECT_EQ(c.alive_count(), 4);
  c.kill(2);
  EXPECT_EQ(c.alive_count(), 3);
  EXPECT_THROW(c.kill(2), CheckFailure);      // already dead
  EXPECT_THROW(c.replace(0), CheckFailure);   // still alive
  c.replace(2);
  EXPECT_EQ(c.alive_count(), 4);
  EXPECT_THROW(c.replace(2), CheckFailure);   // alive again
  c.kill(2);                                  // legal after replace
  EXPECT_FALSE(c.alive(2));
}

namespace {
/// Records every fabric op; optionally kills a node on the Nth call.
struct RecordingHook final : FaultHook {
  std::vector<FabricOp> ops;
  int kill_node = -1;
  std::size_t kill_on = 0;  // 0-based op index
  void on_fabric_op(VirtualCluster& cluster, const FabricOp& op) override {
    if (kill_node >= 0 && ops.size() == kill_on && cluster.alive(kill_node))
      cluster.kill(kill_node);
    ops.push_back(op);
  }
};
}  // namespace

TEST(Cluster, FaultHookSeesEveryByteMovingHelper) {
  VirtualCluster c(small_config());
  RecordingHook hook;
  c.set_fault_hook(&hook);
  c.dtoh(0, 1, 100, {});
  c.host_copy(1, 200, {});
  c.net_send(0, 3, 300, {});
  c.remote_write(2, 400, {});
  c.remote_read(3, 500, {});
  c.set_fault_hook(nullptr);
  c.dtoh(0, 0, 999, {});  // hook cleared: not recorded

  ASSERT_EQ(hook.ops.size(), 5u);
  EXPECT_EQ(hook.ops[0].kind, FabricOp::Kind::kDtoh);
  EXPECT_EQ(hook.ops[0].src, 0);
  EXPECT_EQ(hook.ops[0].bytes, 100u);
  EXPECT_EQ(hook.ops[1].kind, FabricOp::Kind::kHostCopy);
  EXPECT_EQ(hook.ops[2].kind, FabricOp::Kind::kNetSend);
  EXPECT_EQ(hook.ops[2].src, 0);
  EXPECT_EQ(hook.ops[2].dst, 3);
  EXPECT_EQ(hook.ops[3].kind, FabricOp::Kind::kRemoteWrite);
  EXPECT_EQ(hook.ops[4].kind, FabricOp::Kind::kRemoteRead);
  EXPECT_STREQ(fabric_op_kind_name(hook.ops[4].kind), "remote_read");
}

TEST(Cluster, MidSendKillAbortsTransferWithoutDelivery) {
  // The hook fires before bytes land: killing the source inside
  // send_buffer must abort the copy (CheckFailure) and leave the
  // destination without the key — in-flight bytes vanish.
  VirtualCluster c(small_config());
  Buffer payload(64);
  fill_random(payload.span(), 7);
  c.host(0).put("k", std::move(payload));

  RecordingHook hook;
  hook.kill_node = 0;
  hook.kill_on = 0;  // first fabric op = the net_send inside send_buffer
  c.set_fault_hook(&hook);
  EXPECT_THROW(c.send_buffer(0, 1, "k", "k", {}), CheckFailure);
  c.set_fault_hook(nullptr);
  EXPECT_FALSE(c.alive(0));
  c.replace(0);
  EXPECT_FALSE(c.host(1).contains("k"));
}

TEST(Cluster, MidFlushKillAbortsRemoteWrite) {
  VirtualCluster c(small_config());
  c.host(2).put("k", Buffer(32));
  RecordingHook hook;
  hook.kill_node = 2;
  hook.kill_on = 0;
  c.set_fault_hook(&hook);
  EXPECT_THROW(c.flush_to_remote(2, "k", "rk", {}), CheckFailure);
  c.set_fault_hook(nullptr);
  EXPECT_FALSE(c.remote().contains("rk"));
}

TEST(Cluster, FaultHookIsNotReentered) {
  // A hook whose kill path triggers fabric activity must not recurse.
  struct Reentrant final : FaultHook {
    int calls = 0;
    void on_fabric_op(VirtualCluster& cluster, const FabricOp&) override {
      ++calls;
      cluster.host_copy(1, 8, {});  // would recurse without the guard
    }
  } hook;
  VirtualCluster c(small_config());
  c.set_fault_hook(&hook);
  c.host_copy(0, 16, {});
  c.set_fault_hook(nullptr);
  EXPECT_EQ(hook.calls, 1);
}

}  // namespace
}  // namespace eccheck::cluster
