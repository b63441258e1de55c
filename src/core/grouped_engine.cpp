#include "core/grouped_engine.hpp"

#include <algorithm>

#include "cluster/fabric.hpp"
#include "core/fabric_engine.hpp"

namespace eccheck::core {

GroupedECCheckEngine::GroupedECCheckEngine(GroupedConfig cfg) : cfg_(cfg) {
  ECC_CHECK(cfg_.group_size >= 2);
  ECC_CHECK_MSG(cfg_.per_group.k + cfg_.per_group.m == cfg_.group_size,
                "per-group k + m must equal group_size");
}

int GroupedECCheckEngine::num_groups(
    const cluster::VirtualCluster& cluster) const {
  ECC_CHECK_MSG(cluster.num_nodes() % cfg_.group_size == 0,
                "node count " << cluster.num_nodes()
                              << " not divisible by group size "
                              << cfg_.group_size);
  return cluster.num_nodes() / cfg_.group_size;
}

std::vector<int> GroupedECCheckEngine::group_nodes(
    const cluster::VirtualCluster& cluster, int g) const {
  ECC_CHECK(g >= 0 && g < num_groups(cluster));
  std::vector<int> out;
  for (int n = g * cfg_.group_size; n < (g + 1) * cfg_.group_size; ++n)
    out.push_back(n);
  return out;
}

ECCheckConfig GroupedECCheckEngine::group_config(int g) const {
  ECCheckConfig ec = cfg_.per_group;
  ec.key_namespace = "grp" + std::to_string(g) + "/";
  return ec;
}

// Both operations move every group's bytes first, each over a VirtualFabric
// window of its nodes, then emit every group's schedule onto one fresh
// timeline: a group's byte plane must not occupy the resources its
// siblings' schedules are measured on.

ckpt::SaveReport GroupedECCheckEngine::save(
    cluster::VirtualCluster& cluster, const std::vector<dnn::StateDict>& shards,
    std::int64_t version) {
  ECC_CHECK(static_cast<int>(shards.size()) == cluster.world_size());
  const int groups = num_groups(cluster);
  const std::size_t workers_per_group =
      static_cast<std::size_t>(cfg_.group_size * cluster.gpus_per_node());
  auto group_shards = [&](int g) {
    return std::span<const dnn::StateDict>(
        shards.data() + static_cast<std::size_t>(g) * workers_per_group,
        workers_per_group);
  };

  auto counters = cluster.stats().counters();
  for (int g = 0; g < groups; ++g) {
    cluster::VirtualFabric fabric(cluster, g * cfg_.group_size,
                                  cfg_.group_size);
    std::vector<const dnn::StateDict*> ptrs;
    for (const auto& sd : group_shards(g)) ptrs.push_back(&sd);
    fabric_save(fabric, group_config(g), ptrs, version);
  }
  ScheduleScope scope(cluster, std::move(counters));
  ckpt::SaveReport merged;
  for (int g = 0; g < groups; ++g) {
    cluster::ClusterSlice slice(cluster, g * cfg_.group_size, cfg_.group_size);
    ckpt::SaveReport rep =
        ECCheckEngine(group_config(g)).schedule_save(slice, group_shards(g));

    merged.stall_time = std::max(merged.stall_time, rep.stall_time);
    merged.total_time = std::max(merged.total_time, rep.total_time);
    merged.network_bytes += rep.network_bytes;
    merged.remote_bytes += rep.remote_bytes;
    for (const auto& [k, v] : rep.breakdown)
      merged.breakdown[k] = std::max(merged.breakdown[k], v);
    for (const auto& [k, v] : rep.stats) merged.stats[k] += v;
  }
  return merged;
}

ckpt::LoadReport GroupedECCheckEngine::load(cluster::VirtualCluster& cluster,
                                            std::int64_t version,
                                            std::vector<dnn::StateDict>& out) {
  const int groups = num_groups(cluster);
  const int workers_per_group = cfg_.group_size * cluster.gpus_per_node();

  auto counters = cluster.stats().counters();
  std::vector<ckpt::LoadReport> moved(static_cast<std::size_t>(groups));
  std::vector<std::vector<dnn::StateDict>> group_out(
      static_cast<std::size_t>(groups));
  ckpt::LoadReport merged;
  for (int g = 0; g < groups; ++g) {
    cluster::VirtualFabric fabric(cluster, g * cfg_.group_size,
                                  cfg_.group_size);
    ckpt::LoadReport& rep = moved[static_cast<std::size_t>(g)];
    rep = fabric_load(fabric, group_config(g), version,
                      group_out[static_cast<std::size_t>(g)]);
    if (!rep.success) {
      merged.detail = "group " + std::to_string(g) + ": " + rep.detail;
      return merged;
    }
  }
  ScheduleScope scope(cluster, std::move(counters));
  out.clear();
  out.resize(static_cast<std::size_t>(cluster.world_size()));
  merged.success = true;
  for (int g = 0; g < groups; ++g) {
    cluster::ClusterSlice slice(cluster, g * cfg_.group_size, cfg_.group_size);
    const auto gi = static_cast<std::size_t>(g);
    std::vector<dnn::StateDict>& from = group_out[gi];
    ckpt::LoadReport rep =
        ECCheckEngine(group_config(g)).schedule_load(slice, moved[gi], from);
    for (int w = 0; w < workers_per_group; ++w)
      out[static_cast<std::size_t>(g * workers_per_group + w)] =
          std::move(from[static_cast<std::size_t>(w)]);
    merged.resume_time = std::max(merged.resume_time, rep.resume_time);
    merged.total_time = std::max(merged.total_time, rep.total_time);
    for (const auto& [k, v] : rep.stats) merged.stats[k] += v;
  }
  merged.detail = "recovered across " + std::to_string(groups) + " groups";
  return merged;
}

}  // namespace eccheck::core
