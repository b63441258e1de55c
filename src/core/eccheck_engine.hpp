// ECCheck: erasure-coded in-memory checkpointing engine (paper §III–§IV)
// on the simulator's VirtualCluster.
//
// save() runs the four-step protocol of Fig. 5:
//   1. decompose each worker's state_dict and snapshot tensor data to host
//      memory (the only training-blocking part);
//   2. broadcast the two tiny serialized components (metadata, tensor keys)
//      to every node;
//   3. asynchronously encode / XOR-reduce / P2P-transfer the packed packets
//      so that data node c ends up with data chunk c and parity node r with
//      parity chunk r — communication is packed into profiled network-idle
//      windows and the three stages pipeline across packets;
//   4. optionally flush chunks to remote persistent storage (low frequency,
//      catastrophic-failure insurance).
//
// load() implements the two recovery workflows of Fig. 7:
//   A. all data nodes survive — replaced nodes are refilled by plain P2P
//      from data nodes, lost parity chunks are re-encoded;
//   B. data chunks were lost — any k surviving chunks are decoded with the
//      inverted generator submatrix (a distributed pass structurally
//      identical to encoding), training resumes as soon as every worker has
//      its packets, then redundancy is restored.
// If more than m nodes failed, load falls back to the remote flush when one
// exists, and reports failure otherwise. Every committed row carries the
// per-packet CRC-64s of its packets, and load scrubs each row against them:
// a silently corrupted row is an erasure, decoded around like a failed node.
//
// Each operation runs on two planes. The byte plane is fabric_save /
// fabric_load (core/fabric_engine.hpp) over a VirtualFabric of the same
// cluster: the one implementation of the protocol, which also runs over
// real sockets. The time plane is this file's schedule: byte-free
// dtoh / host_copy / cpu_code / cpu_xor / net_send / remote / refill /
// unpack tasks on the cluster's timeline, from which the reports (and the
// paper's Figs. 10–15) take their virtual times and traffic counters. The
// schedule models the paper's system — every packet slot, padding
// included — and is emitted after the byte plane finished, on a timeline
// and counters cleared of what the byte plane charged (ScheduleScope).
#pragma once

#include <functional>
#include <span>

#include "ckpt/engine.hpp"
#include "cluster/slice.hpp"
#include "core/placement.hpp"
#include "core/protocol.hpp"
#include "ec/crs_codec.hpp"

namespace eccheck::core {

struct ECCheckConfig {
  int k = 2;  ///< data nodes
  int m = 2;  ///< parity nodes; k + m must equal the cluster's node count
  int gf_width = 8;
  ec::KernelMode kernel = ec::KernelMode::kGfTable;

  /// Coding buffer size (the paper reserves 64 MB buffers; tests shrink it).
  std::size_t packet_size = mib(64);

  /// Schedule checkpoint communication inside profiled network-idle windows
  /// (§IV-B3). Disabling it is the interference ablation. Read by the
  /// simulator's schedule only, like `pipelined` and `tree_reduction`.
  bool idle_aware_comm = true;

  /// Pipeline encode → XOR-reduce → P2P per packet (§IV-C). Disabling
  /// inserts a barrier after the encode stage (ablation).
  bool pipelined = true;

  /// Step 4: also persist chunks to remote storage during save.
  bool flush_to_remote = false;

  /// Combine XOR-reduction partials in a binary tree instead of a chain:
  /// ⌈log2 k⌉ network hops of latency instead of k−1 (matters for large k).
  bool tree_reduction = false;

  /// Incremental checkpointing (ECRM-style delta saves). When enabled, the
  /// fabric save path keeps a copy of the last committed version's packed
  /// packets next to each worker (≈2× host memory for staging), diffs each
  /// new save against it in 64-byte blocks (core::kDirtyBlock), ships only
  /// the dirty regions, and patches data rows (XOR) and parity rows
  /// (P' = P ⊕ G·Δ, ec::CrsCodec::update_row) in place of a full re-encode.
  /// Falls back to the full four-step protocol — transparently and
  /// bit-identically — when no usable base exists (first save,
  /// post-rollback, shape change, degraded membership) or the dirty share
  /// of the live (non-padding) bytes exceeds core::kMaxDirtyRatio. Saved
  /// versions are byte-identical to full-encode saves either way.
  struct DeltaConfig {
    bool enabled = false;
  };
  DeltaConfig delta;

  /// Prefix for all store keys — lets several engines (the per-group
  /// instances of GroupedECCheckEngine) share the remote store without
  /// collisions.
  std::string key_namespace;
};

class ECCheckEngine final : public ckpt::CheckpointEngine {
 public:
  explicit ECCheckEngine(ECCheckConfig cfg);

  std::string name() const override { return "eccheck"; }
  const ECCheckConfig& config() const { return cfg_; }

  /// The communication plan for a given cluster shape (exposed for tests
  /// and the placement ablation bench).
  Placement plan_for(const cluster::VirtualCluster& cluster) const;

  ckpt::SaveReport save(cluster::VirtualCluster& cluster,
                        const std::vector<dnn::StateDict>& shards,
                        std::int64_t version) override;
  ckpt::LoadReport load(cluster::VirtualCluster& cluster, std::int64_t version,
                        std::vector<dnn::StateDict>& out) override;

  /// One simulator save on both planes: `move_bytes` runs the byte plane
  /// (fabric_save over a VirtualFabric of `cluster`), then schedule_save
  /// emits the time plane of `shards` inside a ScheduleScope.
  ckpt::SaveReport timed_save(cluster::VirtualCluster& cluster,
                              std::span<const dnn::StateDict> shards,
                              const std::function<void()>& move_bytes) const;

  /// One simulator load on both planes: `move_bytes` runs the byte plane
  /// into `out` and returns its report, then schedule_load emits the time
  /// plane inside a ScheduleScope.
  ckpt::LoadReport timed_load(
      cluster::VirtualCluster& cluster, const std::vector<dnn::StateDict>& out,
      const std::function<ckpt::LoadReport()>& move_bytes) const;

  /// The time plane of a save of `shards` onto the nodes of `window`, whose
  /// bytes fabric_save moved: emits the tasks onto the shared timeline and
  /// reports their finish times, the modeled traffic and its counters.
  ckpt::SaveReport schedule_save(cluster::ClusterSlice window,
                                 std::span<const dnn::StateDict> shards) const;

  /// The time plane of a load that fabric_load carried out on `window`:
  /// `moved` is its report (row outcomes, metadata refreshes, detail) and
  /// `out` the shards it returned. A failed load schedules nothing.
  ckpt::LoadReport schedule_load(cluster::ClusterSlice window,
                                 const ckpt::LoadReport& moved,
                                 const std::vector<dnn::StateDict>& out) const;

 private:
  ECCheckConfig cfg_;
};

/// Opened between the byte plane and the schedules of one operation: drops
/// the virtual time and counters the byte plane charged to the cluster
/// (back to `counters`, taken before it ran) and holds the fault hook off
/// until closed — faults land where bytes move, not on the cost model.
class ScheduleScope {
 public:
  ScheduleScope(cluster::VirtualCluster& cluster,
                obs::StatsRegistry::CounterMap counters);
  ~ScheduleScope();
  ScheduleScope(const ScheduleScope&) = delete;
  ScheduleScope& operator=(const ScheduleScope&) = delete;

 private:
  cluster::VirtualCluster& cluster_;
  cluster::FaultHook* hook_;
};

}  // namespace eccheck::core
