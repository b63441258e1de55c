// Checkpoint engine interface shared by the three baselines (§V-B) and
// ECCheck itself.
//
// An engine's save() takes the live sharded checkpoint (one state_dict per
// worker; worker w runs on node w / gpus_per_node) and makes it durable in
// the engine's own way — remote storage, replicated host memory, or
// erasure-coded host memory. load() must reconstruct every worker's
// state_dict *from stored bytes alone* after arbitrary failure injection;
// tests verify bit-exactness against digests of the originals.
//
// All timing is virtual (cluster.timeline()); each save/load resets the
// timeline so reports are measured from t = 0.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "dnn/state_dict.hpp"

namespace eccheck::ckpt {

struct SaveReport {
  /// Time training is blocked (synchronous part of checkpointing).
  Seconds stall_time = 0;
  /// Time until the checkpoint is fully durable (next save may begin).
  Seconds total_time = 0;
  /// Named step finish times (virtual seconds from save start).
  std::map<std::string, Seconds> breakdown;
  std::size_t network_bytes = 0;  ///< inter-node traffic (virtual bytes)
  std::size_t remote_bytes = 0;   ///< remote-storage traffic (virtual bytes)
  /// Per-edge-kind counters for this save alone (delta of the cluster's
  /// StatsRegistry): "net.<kind>.bytes" entries sum to network_bytes,
  /// "remote.write.bytes" to remote_bytes.
  std::map<std::string, std::uint64_t> stats;
  /// Where a Chrome trace of this operation was written, if anywhere.
  std::string trace_path;
};

/// How a load found one chunk row of an erasure-coded checkpoint.
enum class RowOutcome {
  kIntact,     ///< committed, complete and CRC-clean on its node
  kMissing,    ///< lost: decoded (data) or re-encoded (parity) by the load
  kRefetched,  ///< lost beyond m, read back from the remote flush
};

struct LoadReport {
  bool success = false;
  /// Time from load start until every worker can resume training.
  Seconds resume_time = 0;
  /// Time until full fault-tolerance is restored (>= resume_time).
  Seconds total_time = 0;
  std::string detail;
  /// Per-edge-kind counters for this load alone (see SaveReport::stats).
  std::map<std::string, std::uint64_t> stats;
  std::string trace_path;
  /// Chunk-row engines: the outcome of each row, by generator row, as the
  /// load's first round agreed on it. Empty for other engines and for a
  /// load that failed before that agreement.
  std::vector<RowOutcome> rows;
  /// Chunk-row engines, per node: the node lacked some worker's metadata
  /// before the load, which refreshed it. Empty like `rows`.
  std::vector<bool> metadata_refreshed;
};

class CheckpointEngine {
 public:
  virtual ~CheckpointEngine() = default;

  virtual std::string name() const = 0;

  virtual SaveReport save(cluster::VirtualCluster& cluster,
                          const std::vector<dnn::StateDict>& shards,
                          std::int64_t version) = 0;

  /// Reconstruct all worker shards of `version` into `out` (resized by the
  /// engine). Dead nodes must have been replace()d by the caller (a failed
  /// recovery returns success=false and leaves `out` unspecified).
  virtual LoadReport load(cluster::VirtualCluster& cluster,
                          std::int64_t version,
                          std::vector<dnn::StateDict>& out) = 0;
};

/// Worker placement helpers shared by all engines.
inline int node_of_worker(const cluster::VirtualCluster& c, int worker) {
  return worker / c.gpus_per_node();
}
inline int gpu_of_worker(const cluster::VirtualCluster& c, int worker) {
  return worker % c.gpus_per_node();
}

/// Key naming shared across engines: ckpt/<version>/<kind>/<index>.
std::string shard_key(std::int64_t version, int worker);

}  // namespace eccheck::ckpt
