// ClusterSlice: a contiguous window of nodes presented as a standalone
// cluster.
//
// The ECCheck engine emits its virtual-time schedule through a slice: in
// the group-based mode (§VI) each group's schedule runs on a window whose
// local node ids [0, group_size) translate onto the global cluster, sharing
// the global timeline so the groups' schedules overlap naturally. A slice
// over the whole cluster behaves exactly like the cluster itself. A slice
// offers timing-only tasks and no store: a group's bytes move over a
// VirtualFabric window of the same nodes (cluster/fabric.hpp).
#pragma once

#include "cluster/cluster.hpp"

namespace eccheck::cluster {

class ClusterSlice {
 public:
  /// Whole-cluster view.
  explicit ClusterSlice(VirtualCluster& c)
      : c_(&c), first_(0), count_(c.num_nodes()) {}

  ClusterSlice(VirtualCluster& c, int first_node, int node_count)
      : c_(&c), first_(first_node), count_(node_count) {
    ECC_CHECK(first_node >= 0 && node_count >= 1 &&
              first_node + node_count <= c.num_nodes());
  }

  int num_nodes() const { return count_; }
  int gpus_per_node() const { return c_->gpus_per_node(); }
  int world_size() const { return count_ * c_->gpus_per_node(); }
  const ClusterConfig& config() const { return c_->config(); }
  sim::Timeline& timeline() { return c_->timeline(); }
  const sim::Timeline& timeline() const { return c_->timeline(); }
  obs::StatsRegistry& stats() { return c_->stats(); }
  const obs::StatsRegistry& stats() const { return c_->stats(); }

  TaskId dtoh(int node, int gpu, std::size_t bytes,
              const std::vector<TaskId>& deps) {
    return c_->dtoh(to_global(node), gpu, bytes, deps);
  }
  TaskId host_copy(int node, std::size_t bytes,
                   const std::vector<TaskId>& deps) {
    return c_->host_copy(to_global(node), bytes, deps);
  }
  TaskId cpu_code(int node, std::size_t bytes,
                  const std::vector<TaskId>& deps) {
    return c_->cpu_code(to_global(node), bytes, deps);
  }
  TaskId cpu_xor(int node, std::size_t bytes,
                 const std::vector<TaskId>& deps) {
    return c_->cpu_xor(to_global(node), bytes, deps);
  }
  TaskId cpu_serialize(int node, std::size_t bytes,
                       const std::vector<TaskId>& deps) {
    return c_->cpu_serialize(to_global(node), bytes, deps);
  }
  TaskId net_send(int src, int dst, std::size_t bytes,
                  const std::vector<TaskId>& deps, bool idle_only = false,
                  const std::string& label = "send") {
    return c_->net_send(to_global(src), to_global(dst), bytes, deps,
                        idle_only, label);
  }
  TaskId remote_write(int node, std::size_t bytes,
                      const std::vector<TaskId>& deps) {
    return c_->remote_write(to_global(node), bytes, deps);
  }
  TaskId remote_read(int node, std::size_t bytes,
                     const std::vector<TaskId>& deps) {
    return c_->remote_read(to_global(node), bytes, deps);
  }
  TaskId barrier(const std::vector<TaskId>& deps) {
    return c_->barrier(deps);
  }

  sim::ResourceId nic_tx(int node) const {
    return c_->nic_tx(to_global(node));
  }
  sim::ResourceId nic_rx(int node) const {
    return c_->nic_rx(to_global(node));
  }
  sim::ResourceId cpu(int node) const { return c_->cpu(to_global(node)); }

 private:
  int to_global(int local) const {
    ECC_CHECK_MSG(local >= 0 && local < count_,
                  "slice-local node " << local << " out of range");
    return first_ + local;
  }

  VirtualCluster* c_;
  int first_;
  int count_;
};

/// Worker placement helpers in slice-local coordinates.
inline int slice_node_of_worker(const ClusterSlice& s, int worker) {
  return worker / s.gpus_per_node();
}
inline int slice_gpu_of_worker(const ClusterSlice& s, int worker) {
  return worker % s.gpus_per_node();
}

}  // namespace eccheck::cluster
