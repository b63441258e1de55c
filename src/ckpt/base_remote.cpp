#include "ckpt/base_remote.hpp"

#include "dnn/serializer.hpp"
#include "obs/stats.hpp"

namespace eccheck::ckpt {
namespace {

std::string remote_key(std::int64_t version, int worker) {
  return "remote/" + std::to_string(version) + "/worker/" +
         std::to_string(worker);
}

/// Shared save body: snapshot → serialize → persist, with either the whole
/// chain blocking training (sync) or only the snapshot (two-phase).
SaveReport remote_save(cluster::VirtualCluster& cluster,
                       const std::vector<dnn::StateDict>& shards,
                       std::int64_t version, bool synchronous) {
  ECC_CHECK(static_cast<int>(shards.size()) == cluster.world_size());
  cluster.reset_timeline();
  SaveReport rep;
  const auto stats_base = cluster.stats().counters();

  std::vector<cluster::TaskId> snapshot_done, persist_done;
  Seconds serialize_finish = 0;
  for (int w = 0; w < cluster.world_size(); ++w) {
    const int node = node_of_worker(cluster, w);
    const int gpu = gpu_of_worker(cluster, w);
    const auto& sd = shards[static_cast<std::size_t>(w)];
    const std::size_t gpu_bytes = sd.tensor_bytes();

    cluster::TaskId snap = cluster.dtoh(node, gpu, gpu_bytes, {});
    snapshot_done.push_back(snap);

    Buffer blob = dnn::serialize_state_dict(sd);
    cluster::TaskId ser = cluster.cpu_serialize(node, blob.size(), {snap});
    serialize_finish =
        std::max(serialize_finish, cluster.timeline().finish_time(ser));

    rep.remote_bytes += static_cast<std::size_t>(
        static_cast<double>(blob.size()) * cluster.config().size_scale);
    cluster.remote().put(remote_key(version, w), std::move(blob));
    cluster::TaskId wr = cluster.remote_write(
        node,
        cluster.remote().get(remote_key(version, w)).size(), {ser});
    persist_done.push_back(wr);
  }

  Seconds snap_finish = 0;
  for (auto t : snapshot_done)
    snap_finish = std::max(snap_finish, cluster.timeline().finish_time(t));
  Seconds persist_finish = 0;
  for (auto t : persist_done)
    persist_finish = std::max(persist_finish, cluster.timeline().finish_time(t));

  rep.breakdown["snapshot"] = snap_finish;
  rep.breakdown["serialize"] = serialize_finish;
  rep.breakdown["persist"] = persist_finish;
  rep.total_time = persist_finish;
  rep.stall_time = synchronous ? persist_finish : snap_finish;
  rep.stats =
      obs::StatsRegistry::delta(cluster.stats().counters(), stats_base);
  return rep;
}

LoadReport remote_load(cluster::VirtualCluster& cluster, std::int64_t version,
                       std::vector<dnn::StateDict>& out) {
  cluster.reset_timeline();
  LoadReport rep;
  const auto stats_base = cluster.stats().counters();
  out.clear();
  out.resize(static_cast<std::size_t>(cluster.world_size()));

  Seconds finish = 0;
  for (int w = 0; w < cluster.world_size(); ++w) {
    const std::string key = remote_key(version, w);
    if (!cluster.remote().contains(key)) {
      rep.success = false;
      rep.detail = "missing remote shard for worker " + std::to_string(w);
      rep.stats =
          obs::StatsRegistry::delta(cluster.stats().counters(), stats_base);
      return rep;
    }
    const int node = node_of_worker(cluster, w);
    const Buffer& blob = cluster.remote().get(key);
    cluster::TaskId rd = cluster.remote_read(node, blob.size(), {});
    cluster::TaskId de = cluster.cpu_serialize(node, blob.size(), {rd});
    finish = std::max(finish, cluster.timeline().finish_time(de));
    out[static_cast<std::size_t>(w)] = dnn::deserialize_state_dict(blob.span());
  }
  rep.success = true;
  rep.detail = "read " + std::to_string(cluster.world_size()) +
               " shards from remote storage";
  rep.resume_time = finish;
  rep.total_time = finish;
  rep.stats =
      obs::StatsRegistry::delta(cluster.stats().counters(), stats_base);
  return rep;
}

}  // namespace

SaveReport RemoteSyncEngine::save(cluster::VirtualCluster& cluster,
                                  const std::vector<dnn::StateDict>& shards,
                                  std::int64_t version) {
  return remote_save(cluster, shards, version, /*synchronous=*/true);
}

LoadReport RemoteSyncEngine::load(cluster::VirtualCluster& cluster,
                                  std::int64_t version,
                                  std::vector<dnn::StateDict>& out) {
  return remote_load(cluster, version, out);
}

SaveReport RemoteTwoPhaseEngine::save(cluster::VirtualCluster& cluster,
                                      const std::vector<dnn::StateDict>& shards,
                                      std::int64_t version) {
  return remote_save(cluster, shards, version, /*synchronous=*/false);
}

LoadReport RemoteTwoPhaseEngine::load(cluster::VirtualCluster& cluster,
                                      std::int64_t version,
                                      std::vector<dnn::StateDict>& out) {
  return remote_load(cluster, version, out);
}

}  // namespace eccheck::ckpt
