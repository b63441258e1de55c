// Session facade — the paper's three-call API (§V-A):
//   eccheck.initialize  → core::Session::initialize(...)
//   eccheck.save        → session.save(shards)
//   eccheck.load        → session.load(out)
//
// initialize() fixes the encoding matrix and communication strategy
// (placement plan), profiles the training communication pattern over the
// first iterations to find network-idle windows, and installs the resulting
// NIC calendars on the cluster. save() checkpoints the next version and
// prunes old versions beyond the retention window; load() recovers the
// newest version that is still recoverable.
//
// Two facades share one implementation. FabricSession runs the API over any
// cluster::Fabric (real sockets included): version agreement, retention,
// recovery fallback and torn-save rollback. Session is the simulator's
// adapter: a FabricSession over a VirtualFabric of the cluster moves the
// bytes, then the engine's schedule supplies the virtual time.
#pragma once

#include <memory>

#include "core/eccheck_engine.hpp"
#include "core/fabric_engine.hpp"
#include "trainsim/train_profile.hpp"

namespace eccheck::core {

struct SessionConfig {
  ECCheckConfig ec;

  /// Online idle-slot profiling (§IV-B3): number of iterations profiled and
  /// tiled into the NIC calendars. 0 disables profiling.
  int profile_iterations = 50;

  /// Checkpoint versions kept in host memory (older keys are pruned).
  int retain_versions = 2;
};

/// The session facade over a cluster::Fabric: the one implementation of
/// versioning, retention and recovery, for real multi-process deployments
/// and — under Session — for the simulator's VirtualFabric. Every method is
/// a collective: all ranks call it with equivalent arguments. No idle-window
/// profiling here — real transports measure real wire time, so the
/// virtual-time calendar machinery does not apply.
///
/// Torn-save handling: when a peer dies mid-save the fabric throws
/// CheckFailure; save() then rolls the attempted version back from the
/// surviving driven stores (durable and staging keys, fabric_rollback)
/// before rethrowing, so a later load() never mistakes the torn version for
/// a committed one, and the retry reuses its number.
class FabricSession {
 public:
  FabricSession(cluster::Fabric& fabric, ECCheckConfig cfg,
                int gpus_per_node = 1, int retain_versions = 2);

  const ECCheckConfig& config() const { return cfg_; }
  int gpus_per_node() const { return gpus_per_node_; }
  /// The newest version this session saved or loaded; 0 before either. A
  /// rolled-back save gives its number back for the retry.
  std::int64_t latest_version() const { return next_version_ - 1; }

  /// Degraded-mode membership applied to every subsequent collective (see
  /// core::Membership). All ranks participating in a collective must hold
  /// the same membership. Default: full.
  void set_membership(Membership members) { members_ = std::move(members); }
  const Membership& membership() const { return members_; }

  /// Global worker indices of this process's shards, in `shards` order —
  /// under a degraded membership this includes the dead ranks' workers
  /// adopted by this process (fabric_sited_workers).
  std::vector<int> driven_workers() const;

  /// Save the driven workers' shards as the next version; prunes versions
  /// beyond the retention window on success.
  ckpt::SaveReport save(const std::vector<const dnn::StateDict*>& shards);

  /// Recover the newest committed version (falling back through retained
  /// older versions); resyncs the session's version counter so the next
  /// save continues above what was recovered — also on a freshly replaced
  /// rank that never saved.
  struct RecoverResult {
    ckpt::LoadReport report;
    std::int64_t version = 0;
  };
  RecoverResult load(std::vector<dnn::StateDict>& out);

 private:
  cluster::Fabric* fabric_;
  ECCheckConfig cfg_;
  int gpus_per_node_;
  int retain_versions_;
  Membership members_;
  std::int64_t next_version_ = 1;
};

/// The simulator adapter: versions, retention, recovery fallback and
/// torn-save rollback are FabricSession's, over a VirtualFabric of the
/// cluster; each save/load then runs the engine's schedule on the result
/// for the reports' virtual times and traffic counters.
class Session {
 public:
  /// Plan placement, profile training communication, install calendars.
  static Session initialize(cluster::VirtualCluster& cluster,
                            const dnn::ModelSpec& model,
                            const dnn::ParallelismSpec& parallelism,
                            SessionConfig cfg = SessionConfig());

  const Placement& placement() const { return placement_; }
  const trainsim::TrainProfile& train_profile() const { return profile_; }
  const SessionConfig& config() const { return cfg_; }
  std::int64_t latest_version() const {
    return fabric_session_.latest_version();
  }

  /// Checkpoint the sharded state as the next version; returns the engine
  /// report. A save torn by a node failure throws CheckFailure after
  /// rolling the version back, and the retry reuses its number.
  ckpt::SaveReport save(const std::vector<dnn::StateDict>& shards);

  /// Recover the newest committed version, falling back to older retained
  /// versions if it is unrecoverable. Version 0 means nothing could be
  /// recovered; the report detail says why.
  using RecoverResult = FabricSession::RecoverResult;
  RecoverResult load(std::vector<dnn::StateDict>& out);

  ECCheckEngine& engine() { return engine_; }

 private:
  Session(cluster::VirtualCluster& cluster, ECCheckEngine engine,
          Placement placement, trainsim::TrainProfile profile,
          SessionConfig cfg);

  cluster::VirtualCluster* cluster_;
  ECCheckEngine engine_;
  Placement placement_;
  trainsim::TrainProfile profile_;
  SessionConfig cfg_;
  /// On the heap: fabric_session_ points at it across Session moves.
  std::unique_ptr<cluster::VirtualFabric> fabric_;
  FabricSession fabric_session_;
};

}  // namespace eccheck::core
