// Group-based ECCheck (paper §VI / §V-F): partition a large cluster into
// fixed-size groups and run the full ECCheck protocol independently inside
// each group.
//
// Rationale: with a single cluster-wide code, raising fault tolerance means
// raising m and with it per-device communication (m·s). Groups cap the
// communication at (group/2)·s while still tolerating group/2 concurrent
// failures *per group* — the sweet spot the paper leaves as future work is
// computed by analysis::optimal_group_size.
//
// Implementation: group g runs the protocol under key namespace "grp<g>/"
// — its bytes through fabric_save / fabric_load over a VirtualFabric window
// of its nodes, its virtual time through ECCheckEngine's schedule on a
// ClusterSlice of the same nodes. All groups' schedules share one timeline,
// so their timing overlaps naturally: groups touch disjoint nodes.
#pragma once

#include "core/eccheck_engine.hpp"

namespace eccheck::core {

struct GroupedConfig {
  int group_size = 4;        ///< nodes per group; must divide the node count
  ECCheckConfig per_group;   ///< k + m must equal group_size
};

class GroupedECCheckEngine final : public ckpt::CheckpointEngine {
 public:
  explicit GroupedECCheckEngine(GroupedConfig cfg);

  std::string name() const override { return "eccheck-grouped"; }
  const GroupedConfig& config() const { return cfg_; }

  int num_groups(const cluster::VirtualCluster& cluster) const;

  /// Nodes of group `g` (consecutive ids).
  std::vector<int> group_nodes(const cluster::VirtualCluster& cluster,
                               int g) const;

  ckpt::SaveReport save(cluster::VirtualCluster& cluster,
                        const std::vector<dnn::StateDict>& shards,
                        std::int64_t version) override;
  ckpt::LoadReport load(cluster::VirtualCluster& cluster, std::int64_t version,
                        std::vector<dnn::StateDict>& out) override;

 private:
  ECCheckConfig group_config(int g) const;

  GroupedConfig cfg_;
};

}  // namespace eccheck::core
