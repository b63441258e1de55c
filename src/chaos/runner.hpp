// ChaosRunner: drives a Session through randomized
// train → save → fail → detect → replace → load cycles and checks recovery
// invariants after every event.
//
// The runner owns the whole stack — a VirtualCluster with a FaultPlan installed
// as its fault hook, and a Session over a small synthetic model — plus an
// *independent oracle* of what must be recoverable: golden shard digests for
// every completed save (a chaos::Oracle; a torn save is rolled back and never
// loads), and per-version intact-node counts scanned directly from the stores
// (commit marker + full row-key count, minus known-corrupted chunks). The
// scan is deliberately conservative (it treats a whole chunk as lost when one
// packet was corrupted), so the engine may do better than it predicts but
// never worse.
//
// Invariant catalogue (each violation carries the campaign seed):
//   bitexact            a successful load returns the exact digests recorded
//                       when that version was saved — no silent corruption;
//   version_range       the loaded version lies in [floor, latest_version],
//                       floor being the newest version the scan proves
//                       recoverable (1 when none is);
//   availability        if the oracle proves any retained version
//                       recoverable, load must not fail;
//   redundancy          after a fully-clean successful load, every node
//                       again holds a committed, complete chunk (workflow B
//                       restored parity redundancy);
//   detection_bounds    quorum-confirmed detection happens strictly after
//                       the failure and within max_latency();
//   recovery_stuck      the detect/replace/load loop converges in a bounded
//                       number of attempts even with mid-load kills.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "chaos/fault_plan.hpp"
#include "chaos/oracle.hpp"
#include "chaos/schedule.hpp"
#include "core/session.hpp"
#include "obs/stats.hpp"

namespace eccheck::chaos {

struct CampaignSummary {
  std::uint64_t seed = 0;
  std::size_t events = 0;
  std::size_t saves = 0;
  std::size_t torn_saves = 0;  ///< saves aborted by a mid-operation kill
  std::size_t loads = 0;
  std::size_t aborted_loads = 0;  ///< loads aborted by a mid-operation kill
  std::size_t kills = 0;          ///< clean (between-operation) kills
  std::size_t mid_op_kills = 0;   ///< kills fired inside a fabric-op window
  std::size_t corruptions = 0;
  std::size_t recoveries = 0;     ///< recovery passes that had dead nodes
  std::size_t fallbacks = 0;      ///< loads that returned an older version
  std::size_t remote_rescues = 0; ///< loads only possible via the remote copy
  std::size_t unrecoverable = 0;  ///< loads where nothing was loadable
  std::size_t violations = 0;
  std::vector<std::string> violation_messages;
  obs::HistSummary detect_latency;  ///< failure → quorum confirmation (s)
  obs::HistSummary resume_latency;  ///< load start → training resumable (s)

  /// One-line JSON object (seed, counters, latency summaries, messages).
  std::string to_json() const;
};

class ChaosRunner {
 public:
  /// `jsonl`, when non-null, receives one JSON line per executed event and
  /// per violation (replayable: every line carries the seed).
  explicit ChaosRunner(const ChaosConfig& cfg, std::ostream* jsonl = nullptr);
  ~ChaosRunner();
  ChaosRunner(const ChaosRunner&) = delete;
  ChaosRunner& operator=(const ChaosRunner&) = delete;

  /// Generate the schedule from cfg.seed and execute every event.
  const CampaignSummary& run();

  /// Execute one event (exposed so tests can drive hand-built schedules).
  void run_event(const ChaosEvent& ev, std::size_t index);

  // ---- introspection / test hooks ---------------------------------------
  cluster::VirtualCluster& cluster() { return cluster_; }
  core::Session& session() { return *session_; }
  const CampaignSummary& summary() const { return summary_; }

  /// Clean save of the next iteration's shards; returns the version, or -1
  /// if the save was torn by an armed trigger.
  std::int64_t force_save();

  /// One detect → replace → load pass with default detector parameters.
  void force_recovery();

 private:
  std::vector<dnn::StateDict> make_shards();
  /// Map raw picks onto distinct currently-alive nodes, never selecting the
  /// last alive node (detection needs one observer).
  std::vector<int> resolve_kills(const std::vector<std::uint64_t>& picks);
  std::size_t collect_fired();
  void ensure_healthy(const ChaosEvent& ev);
  std::int64_t attempt_save(const ChaosEvent* mid_save);
  void recover(const ChaosEvent& ev, const ChaosEvent* mid_load);
  void corrupt_event(const ChaosEvent& ev);
  /// Ops past the start of a Session save or load at which a mid-operation
  /// kill at `frac` lands: after the version agreement, spread over the
  /// protocol steps of a clean run that took `probed` ops in all (a default
  /// window before the first clean run).
  std::uint64_t kill_offset(double frac, std::uint64_t probed) const;

  /// [max(1, newest − retain + 1), newest] around the session's latest
  /// version (all versions from 1 when retention is off); empty before the
  /// first save.
  struct VersionWindow {
    std::int64_t oldest = 1;
    std::int64_t newest = 0;
  };
  VersionWindow retained_window();
  bool node_intact(int node, std::int64_t version);
  int intact_count(std::int64_t version);
  bool remote_committed(std::int64_t version);
  std::int64_t oracle_first_recoverable();

  void emit_event_line(const ChaosEvent& ev, std::size_t index);

  ChaosConfig cfg_;
  std::ostream* jsonl_ = nullptr;
  cluster::VirtualCluster cluster_;
  dnn::ModelSpec model_;
  dnn::ParallelismSpec par_;
  std::optional<core::Session> session_;
  FaultPlan plan_;
  CampaignSummary summary_;
  Oracle oracle_;   ///< golden digests, load checks, violation sink
  std::string ns_;  ///< engine key namespace

  Seconds clock_ = 0;  ///< campaign virtual time
  std::int64_t iteration_ = 0;
  std::map<int, Seconds> pending_fail_time_;  ///< dead node → failure clock
  std::set<std::pair<std::int64_t, int>> corrupted_;  ///< (version, node)
  std::size_t expected_row_keys_ = 0;  ///< per-node row keys of a clean save
  std::uint64_t probe_save_ops_ = 0;   ///< fabric ops of one clean save
  std::uint64_t probe_load_ops_ = 0;   ///< fabric ops of one clean load
  /// Fabric ops of the version agreement that opens every Session save and
  /// load (fabric_newest_version's flag all_gather).
  std::uint64_t agreement_ops_ = 0;
};

}  // namespace eccheck::chaos
