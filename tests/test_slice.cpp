// ClusterSlice: node-window translation, shared timelines, and guard rails.
// A slice offers timing-only tasks; it never touches a store.
#include <gtest/gtest.h>

#include "cluster/slice.hpp"
#include "common/rng.hpp"

namespace eccheck::cluster {
namespace {

ClusterConfig cfg() {
  ClusterConfig c;
  c.num_nodes = 6;
  c.gpus_per_node = 2;
  c.nic_bandwidth = 100.0;
  return c;
}

TEST(Slice, TranslatesNodeIds) {
  VirtualCluster c(cfg());
  ClusterSlice s(c, 2, 3);
  EXPECT_EQ(s.num_nodes(), 3);
  EXPECT_EQ(s.world_size(), 6);
  EXPECT_EQ(s.cpu(0), c.cpu(2));  // slice-local 0 == global 2
  EXPECT_NE(s.cpu(0), c.cpu(0));
}

TEST(Slice, FabricOpsTargetGlobalResources) {
  VirtualCluster c(cfg());
  ClusterSlice s(c, 3, 2);
  auto t = s.net_send(0, 1, 100, {});  // global 3 -> 4
  EXPECT_DOUBLE_EQ(c.timeline().finish_time(t), 1.0);
  EXPECT_EQ(s.nic_tx(0), c.nic_tx(3));
  EXPECT_EQ(s.nic_rx(1), c.nic_rx(4));
  // Global node 0's NIC untouched.
  EXPECT_DOUBLE_EQ(c.timeline().resource_available(c.nic_tx(0)), 0.0);
}

TEST(Slice, SlicesShareOneTimeline) {
  VirtualCluster c(cfg());
  ClusterSlice a(c, 0, 3);
  ClusterSlice b(c, 3, 3);
  auto ta = a.net_send(0, 1, 100, {});
  auto tb = b.net_send(0, 1, 100, {});
  // Disjoint nodes: both run at t=0 in the shared schedule.
  EXPECT_DOUBLE_EQ(c.timeline().task(ta).start, 0.0);
  EXPECT_DOUBLE_EQ(c.timeline().task(tb).start, 0.0);
}

TEST(Slice, OutOfRangeRejected) {
  VirtualCluster c(cfg());
  EXPECT_THROW(ClusterSlice(c, 4, 3), CheckFailure);
  ClusterSlice s(c, 2, 2);
  EXPECT_THROW(s.cpu(2), CheckFailure);
  EXPECT_THROW(s.net_send(0, 2, 10, {}), CheckFailure);
}

TEST(Slice, WorkerHelpers) {
  VirtualCluster c(cfg());
  ClusterSlice s(c, 2, 3);
  EXPECT_EQ(slice_node_of_worker(s, 0), 0);
  EXPECT_EQ(slice_node_of_worker(s, 3), 1);
  EXPECT_EQ(slice_gpu_of_worker(s, 3), 1);
}

}  // namespace
}  // namespace eccheck::cluster
