#include "core/session.hpp"

#include "cluster/fabric.hpp"
#include "core/fabric_engine.hpp"
#include "obs/tracer.hpp"

namespace eccheck::core {

Session Session::initialize(cluster::VirtualCluster& cluster,
                            const dnn::ModelSpec& model,
                            const dnn::ParallelismSpec& parallelism,
                            SessionConfig cfg) {
  ECCheckEngine engine(cfg.ec);
  Placement placement = engine.plan_for(cluster);

  trainsim::TrainProfile profile;
  if (cfg.profile_iterations > 0) {
    auto workload = trainsim::estimate_workload(model, parallelism);
    profile = trainsim::simulate_iteration(workload,
                                           parallelism.pipeline_parallel,
                                           cluster.config().nic_bandwidth,
                                           parallelism.data_parallel);
    for (int n = 0; n < cluster.num_nodes(); ++n) {
      int stage = std::min(n, parallelism.pipeline_parallel - 1);
      cluster.set_nic_calendar(n, profile.tiled(stage,
                                                cfg.profile_iterations));
    }
  }
  return Session(cluster, std::move(engine), std::move(placement),
                 std::move(profile), cfg);
}

Session::Session(cluster::VirtualCluster& cluster, ECCheckEngine engine,
                 Placement placement, trainsim::TrainProfile profile,
                 SessionConfig cfg)
    : cluster_(&cluster), engine_(std::move(engine)),
      placement_(std::move(placement)), profile_(std::move(profile)),
      cfg_(cfg), fabric_(std::make_unique<cluster::VirtualFabric>(cluster)),
      fabric_session_(*fabric_, cfg.ec, cluster.gpus_per_node(),
                      cfg.retain_versions) {}

ckpt::SaveReport Session::save(const std::vector<dnn::StateDict>& shards) {
  std::vector<const dnn::StateDict*> pointers;
  for (const dnn::StateDict& sd : shards) pointers.push_back(&sd);
  return engine_.timed_save(*cluster_, shards,
                            [&] { fabric_session_.save(pointers); });
}

Session::RecoverResult Session::load(std::vector<dnn::StateDict>& out) {
  RecoverResult result;
  result.report = engine_.timed_load(*cluster_, out, [&] {
    RecoverResult moved = fabric_session_.load(out);
    result.version = moved.version;
    return std::move(moved.report);
  });
  return result;
}

// ---------------------------------------------------------------------------
// FabricSession
// ---------------------------------------------------------------------------

FabricSession::FabricSession(cluster::Fabric& fabric, ECCheckConfig cfg,
                             int gpus_per_node, int retain_versions)
    : fabric_(&fabric), cfg_(std::move(cfg)), gpus_per_node_(gpus_per_node),
      retain_versions_(retain_versions) {
  ECC_CHECK(gpus_per_node_ >= 1);
  ECC_CHECK_MSG(cfg_.k + cfg_.m == fabric.world_size(),
                "k+m must equal the fabric world size");
}

std::vector<int> FabricSession::driven_workers() const {
  return fabric_sited_workers(*fabric_, gpus_per_node_, members_);
}

ckpt::SaveReport FabricSession::save(
    const std::vector<const dnn::StateDict*>& shards) {
  obs::ScopedSpan span("session.save[" + fabric_->fabric_name() + "]");
  // Collective version agreement: a rank that just rejoined has no local
  // version history, so the next version is derived from the fabric-wide
  // newest commit marker, which every rank sees identically. A torn
  // (rolled-back) version number gets reused by the retry — harmless, since
  // the rollback scrubbed it everywhere it existed.
  const std::int64_t version = fabric_newest_version(*fabric_, cfg_, members_) + 1;
  next_version_ = version + 1;
  ckpt::SaveReport rep;
  try {
    rep = fabric_save(*fabric_, cfg_, shards, version, members_);
  } catch (const CheckFailure&) {
    // Torn save: a peer died (or an invariant broke) mid-protocol. Scrub
    // every key of the attempted version from the surviving stores this
    // process drives — partial per-rank state must never look committed —
    // then let the caller run failure handling.
    fabric_rollback(*fabric_, cfg_.key_namespace, version, members_);
    next_version_ = version;
    throw;
  }
  if (retain_versions_ > 0)
    fabric_prune(*fabric_, cfg_.key_namespace, version - retain_versions_ + 1,
                 members_);
  return rep;
}

FabricSession::RecoverResult FabricSession::load(
    std::vector<dnn::StateDict>& out) {
  obs::ScopedSpan span("session.load[" + fabric_->fabric_name() + "]");
  FabricRecoverResult r =
      fabric_recover(*fabric_, cfg_, retain_versions_, out, members_);
  RecoverResult result;
  result.report = std::move(r.report);
  result.version = r.version;
  // Rejoining ranks discover the version history from the fabric, not from
  // local state — keep saving above whatever was recovered.
  next_version_ = std::max(next_version_, result.version + 1);
  return result;
}

}  // namespace eccheck::core
