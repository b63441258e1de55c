// Chaos schedule generation: a randomized failure plan, deterministic from
// a single uint64 seed.
//
// A schedule is a flat list of events the ChaosRunner executes in order:
// training intervals, checkpoint saves, independent kills, correlated
// rack-burst kills (sometimes deliberately catastrophic, > m concurrent),
// kills armed *inside* save/load windows, silent chunk corruption (which
// the load's CRC scrub must decode around), and explicit recovery passes.
// Every event also carries a swept failure-detector configuration
// (heartbeat/timeout/quorum) and a replacement-provisioning delay, so
// detection latency is exercised across its parameter space rather than at
// one default.
//
// Determinism contract: generate_schedule(cfg) depends only on cfg — two
// calls with the same config produce identical schedules, which is what
// makes a failing campaign replayable from the seed its report prints.
#pragma once

#include <cstdint>
#include <vector>

#include "common/units.hpp"

namespace eccheck::chaos {

enum class EventKind {
  kTrain,        ///< advance the campaign clock (training progresses)
  kSave,         ///< checkpoint the current iteration
  kKill,         ///< fail node(s) cleanly between operations
  kMidSaveKill,  ///< arm a kill inside the next save's fabric-op window
  kMidLoadKill,  ///< kill a node, then arm another kill inside the load
  kCorrupt,      ///< flip one byte of a stored chunk (silent bit-rot)
  kRecover,      ///< detect → replace → load, asserting invariants
};

const char* event_kind_name(EventKind kind);

struct ChaosEvent {
  EventKind kind = EventKind::kTrain;

  /// Raw uniform draws; the runner maps them onto the currently-alive node
  /// set at execution time (the schedule cannot know which nodes are alive).
  std::vector<std::uint64_t> picks;

  /// Where inside the operation's fabric-op window a mid-op kill arms, as
  /// a fraction of the probed protocol ops (those past the version
  /// agreement).
  double op_frac = 0.5;

  // Failure-detector sweep for any detection this event causes.
  Seconds detect_heartbeat = 0.5;
  Seconds detect_timeout = 2.0;
  int detect_quorum = 1;

  /// Provisioning delay between detection and the replacement node.
  Seconds replace_delay = 1.0;

  /// Clock advance for kTrain events.
  Seconds train_seconds = 1.0;
};

struct ChaosConfig {
  int num_nodes = 4;
  int gpus_per_node = 2;
  int k = 2;  ///< data nodes (k + m must equal num_nodes)
  int m = 2;  ///< parity nodes
  int events = 64;
  std::uint64_t seed = 1;

  bool flush_to_remote = false;
  int retain_versions = 2;
  std::size_t packet_size = kib(8);

  // Event-mix weights (relative; zero removes the kind from the draw).
  double w_train = 3;
  double w_save = 4;
  double w_kill = 2;
  double w_burst = 1;
  double w_mid_save = 2;
  double w_mid_load = 1;
  double w_corrupt = 1;
  double w_recover = 2;
};

/// Deterministic schedule: first event is always a save (so there is state
/// to lose), last is always a recovery pass (so every campaign ends with a
/// verified load).
std::vector<ChaosEvent> generate_schedule(const ChaosConfig& cfg);

}  // namespace eccheck::chaos
