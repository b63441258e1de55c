#include "ckpt/base_gemini.hpp"

#include "cluster/collectives.hpp"
#include "dnn/serializer.hpp"
#include "obs/stats.hpp"

namespace eccheck::ckpt {

std::string shard_key(std::int64_t version, int worker) {
  return "ckpt/" + std::to_string(version) + "/worker/" +
         std::to_string(worker);
}

std::vector<int> GeminiReplicationEngine::group_of(
    const cluster::VirtualCluster& cluster, int node) const {
  const int first = (node / group_size_) * group_size_;
  std::vector<int> out;
  for (int n = first; n < std::min(first + group_size_, cluster.num_nodes());
       ++n)
    out.push_back(n);
  return out;
}

SaveReport GeminiReplicationEngine::save(
    cluster::VirtualCluster& cluster, const std::vector<dnn::StateDict>& shards,
    std::int64_t version) {
  ECC_CHECK(static_cast<int>(shards.size()) == cluster.world_size());
  cluster.reset_timeline();
  SaveReport rep;
  const auto stats_base = cluster.stats().counters();

  const int g = cluster.gpus_per_node();
  std::vector<cluster::TaskId> snapshot(
      static_cast<std::size_t>(cluster.world_size()));
  Seconds snap_finish = 0;

  // Phase 1 (blocking): GPU→host snapshot; the in-memory representation is
  // the raw shard image (GEMINI stores checkpoints without pickling).
  for (int w = 0; w < cluster.world_size(); ++w) {
    const int node = node_of_worker(cluster, w);
    const auto& sd = shards[static_cast<std::size_t>(w)];
    snapshot[static_cast<std::size_t>(w)] =
        cluster.dtoh(node, gpu_of_worker(cluster, w), sd.tensor_bytes(), {});
    snap_finish = std::max(
        snap_finish,
        cluster.timeline().finish_time(snapshot[static_cast<std::size_t>(w)]));
    cluster.host(node).put(shard_key(version, w),
                           dnn::serialize_state_dict(sd));
  }

  // Phase 2 (async): broadcast every worker's shard to all group peers via
  // the collective layer (GEMINI broadcasts within its replication group).
  Seconds bcast_finish = snap_finish;
  for (int w = 0; w < cluster.world_size(); ++w) {
    const int node = node_of_worker(cluster, w);
    cluster::CollectiveOptions opts;
    opts.deps = {snapshot[static_cast<std::size_t>(w)]};
    opts.label = "gemini";
    auto group = group_of(cluster, node);
    auto finish =
        cluster::broadcast(cluster, group, node, shard_key(version, w), opts);
    const std::size_t blob =
        cluster.host(node).get(shard_key(version, w)).size();
    // broadcast() leaves kNoTask in the root's slot — filter before use.
    for (cluster::TaskId t : cluster::valid_tasks(finish)) {
      rep.network_bytes += static_cast<std::size_t>(
          static_cast<double>(blob) * cluster.config().size_scale);
      bcast_finish = std::max(bcast_finish, cluster.timeline().finish_time(t));
    }
  }
  (void)g;

  rep.breakdown["snapshot"] = snap_finish;
  rep.breakdown["broadcast"] = bcast_finish;
  rep.stall_time = snap_finish;
  rep.total_time = bcast_finish;
  rep.stats =
      obs::StatsRegistry::delta(cluster.stats().counters(), stats_base);
  return rep;
}

LoadReport GeminiReplicationEngine::load(cluster::VirtualCluster& cluster,
                                         std::int64_t version,
                                         std::vector<dnn::StateDict>& out) {
  cluster.reset_timeline();
  LoadReport rep;
  const auto stats_base = cluster.stats().counters();
  auto finalize_stats = [&]() {
    rep.stats =
        obs::StatsRegistry::delta(cluster.stats().counters(), stats_base);
  };
  out.clear();
  out.resize(static_cast<std::size_t>(cluster.world_size()));

  Seconds resume_finish = 0;
  std::vector<cluster::TaskId> refill_tasks;

  for (int w = 0; w < cluster.world_size(); ++w) {
    const int node = node_of_worker(cluster, w);
    const std::string key = shard_key(version, w);
    ECC_CHECK_MSG(cluster.alive(node),
                  "dead node " << node << " must be replace()d before load");
    if (!cluster.host(node).contains(key)) {
      // Node was replaced: pull the replica from a surviving group peer.
      int donor = -1;
      for (int peer : group_of(cluster, node)) {
        if (peer != node && cluster.alive(peer) &&
            cluster.host(peer).contains(key)) {
          donor = peer;
          break;
        }
      }
      if (donor < 0) {
        rep.success = false;
        rep.detail = "replication group of node " + std::to_string(node) +
                     " lost all copies of worker " + std::to_string(w);
        finalize_stats();
        return rep;
      }
      cluster::TaskId t =
          cluster.send_buffer(donor, node, key, key, {});
      refill_tasks.push_back(t);
      resume_finish =
          std::max(resume_finish, cluster.timeline().finish_time(t));
    }
    out[static_cast<std::size_t>(w)] = dnn::deserialize_state_dict(
        cluster.host(node).get(key).span());
  }

  // Restore redundancy: re-replicate refilled shards to group peers.
  Seconds total_finish = resume_finish;
  for (int w = 0; w < cluster.world_size(); ++w) {
    const int node = node_of_worker(cluster, w);
    const std::string key = shard_key(version, w);
    for (int peer : group_of(cluster, node)) {
      if (peer == node || !cluster.alive(peer)) continue;
      if (cluster.host(peer).contains(key)) continue;
      cluster::TaskId t = cluster.send_buffer(node, peer, key, key, {});
      total_finish = std::max(total_finish, cluster.timeline().finish_time(t));
    }
  }

  rep.success = true;
  rep.detail = "refilled " + std::to_string(refill_tasks.size()) + " of " +
               std::to_string(cluster.world_size()) +
               " shards from group replicas";
  rep.resume_time = resume_finish;
  rep.total_time = total_finish;
  finalize_stats();
  return rep;
}

}  // namespace eccheck::ckpt
