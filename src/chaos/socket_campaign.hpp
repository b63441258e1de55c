// SocketCampaign: process-level chaos against the live checkpoint service.
//
// Where ChaosRunner drives a VirtualCluster in one process, this campaign
// forks a real coordinator and k+m real worker daemons talking UDS sockets,
// then executes a seeded chaos::generate_schedule against them with actual
// signals:
//
//   kKill        → SIGKILL (hard death: probes see connection refused) or
//                  SIGSTOP (gray: the process accepts via its backlog but
//                  never beats), alternating so every campaign exercises
//                  both; capped so dead ranks never exceed m;
//   kMidSaveKill → the kill lands inside a save's fabric-op window;
//   kCorrupt     → `inject corrupt` arms a one-byte payload flip on a live
//                  worker's next fabric frame (genuine wire CRC mismatch);
//   kSave/kTrain → client save / wall-clock delay;
//   kRecover     → SIGCONT any stopped corpse (it must fence-exit), fork
//                  replacements onto the dead ranks' endpoints, and wait
//                  for the repair controller to restore full m-redundancy
//                  without restarting survivors.
//
// UDS only: a SIGSTOP'd process keeps its TCP port alive, so a TCP
// replacement could never rebind it — the unlink-and-rebind semantics of
// UDS paths are what make gray-failure replacement possible at all.
//
// The driver is its own oracle: shard content is a pure function of
// (job, iteration), so each committed save records its closed-form digests
// with a chaos::Oracle, and every save/load reply (a svc::ShardReply) is
// checked against them. Invariants, each violation carrying the seed:
//
//   bitexact       save/load digests equal the closed-form digests and
//                  cover every worker (dead ranks' shards included — the
//                  adopter serves them during degraded windows); a save
//                  that committed without some ranks' replies is checked
//                  on the workers it names, its load on all of them;
//   version_range  a committed save's version exceeds the previous one,
//                  and a load returns exactly the newest committed save;
//   availability   once deaths are declared and dead ≤ m, load succeeds;
//   fencing        a resurrected (SIGCONT'd) corpse exits on its first
//                  fenced beat and never commits anything;
//   repair         every recovery converges within its deadline to all
//                  ranks alive at full effective redundancy;
//   protocol       every save/load reply and `health` body parses.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include <sys/types.h>

#include "chaos/oracle.hpp"
#include "net/socket.hpp"
#include "svc/checkpoint_service.hpp"

namespace eccheck::chaos {

struct SocketCampaignConfig {
  int k = 2;
  int m = 2;  ///< world = k + m worker processes
  int events = 16;
  std::uint64_t seed = 1;
  std::string dir;  ///< scratch directory for the UDS sockets (required)
  std::string job = "chaos";

  // Liveness cadence, deliberately fast so campaigns stay short.
  net::Millis heartbeat_period{100};
  net::Millis heartbeat_timeout{600};
  int suspect_probes = 2;

  net::Millis worker_io_timeout{2000};   ///< bounds a torn collective
  net::Millis client_io_timeout{20000};  ///< bounds one client request
  /// Ack window for the workers' fabric data plane. Wide windows put the
  /// injected corrupt frame *inside* an open window, exercising deferred
  /// (flush/barrier-time) failure surfacing under chaos; 1 = stop-and-wait.
  int ack_window = 8;
  double train_scale = 0.02;  ///< kTrain virtual seconds → real seconds
  bool verbose = false;       ///< narrate events to stderr
  /// Kill kinds alternate; this picks the first one (true = SIGSTOP, the
  /// gray-failure-first bias of `chaos_cli --mode gray`).
  bool first_kill_gray = false;
};

struct SocketCampaignSummary {
  std::uint64_t seed = 0;
  std::size_t events = 0;
  std::size_t saves_ok = 0;
  std::size_t saves_failed = 0;    ///< torn/refused saves (expected noise)
  std::size_t degraded_saves = 0;  ///< committed with dead ranks
  std::size_t degraded_loads = 0;  ///< served while under-replicated
  std::size_t loads_ok = 0;
  std::size_t sigkills = 0;
  std::size_t sigstops = 0;
  std::size_t corrupts = 0;
  std::size_t repairs = 0;        ///< recovery passes that had dead ranks
  std::size_t fenced_exits = 0;   ///< corpses that exited on a fenced beat
  std::size_t busy_retries = 0;   ///< kStatusBusy responses retried
  std::size_t violations = 0;
  std::vector<std::string> violation_messages;

  /// One-line JSON object (seed, counters, messages).
  std::string to_json() const;
};

class SocketCampaign {
 public:
  explicit SocketCampaign(SocketCampaignConfig cfg);
  ~SocketCampaign();
  SocketCampaign(const SocketCampaign&) = delete;
  SocketCampaign& operator=(const SocketCampaign&) = delete;

  /// Fork the service, execute the seeded schedule (plus a forced tail
  /// guaranteeing ≥1 SIGKILL, ≥1 SIGSTOP and ≥1 corrupt frame), verify a
  /// final full-redundancy save/load, and shut everything down.
  const SocketCampaignSummary& run();

 private:
  /// The fields of the coordinator's `health` JSON the campaign reads.
  struct Health {
    std::int64_t repairs = 0;
    std::int64_t fenced_beats = 0;
    std::int64_t effective_m = 0;
    std::vector<std::string> states;  ///< per-rank liveness, rank order
  };

  net::Endpoint client_ep() const;
  net::Endpoint liveness_ep() const;
  net::Endpoint worker_ctl_ep(int rank) const;
  void spawn_coordinator();
  void spawn_worker(int rank);
  /// Client request with bounded busy-retry; connect/io failures after the
  /// deadline become a violation.
  svc::ControlReply request(const std::string& command,
                            const std::string& args);
  /// Parse a `health` body or a save/load reply; a malformed one is a
  /// `protocol` violation.
  std::optional<Health> read_health(const std::string& body);
  std::optional<svc::ShardReply> read_reply(const svc::ControlReply& r);
  /// Poll `health` until `pred` holds; a `repair` violation past the
  /// deadline. False on timeout or a malformed body.
  bool wait_health(const std::string& what, double deadline_s,
                   const std::function<bool(const Health&)>& pred);
  /// wait_health until every rank in dead_ is declared dead.
  bool await_declared(const std::string& what);
  /// Check a committed save and record its golden digests.
  void record_save(const svc::ShardReply& s);
  /// Load and check the reply; `what` names the load in violations.
  std::optional<svc::ShardReply> load_and_check(const std::string& what);

  void do_save();
  /// Wait for the deaths' `declaration`, then load and check.
  void do_degraded_load(const std::string& declaration);
  void do_kill(int victim, bool gray);
  void do_corrupt();
  void do_recover();
  int pick_victim(std::uint64_t pick);
  void shutdown_service();

  SocketCampaignConfig cfg_;
  SocketCampaignSummary summary_;
  Oracle oracle_;  ///< golden digests, load checks, violation sink
  int world_ = 0;
  std::map<int, pid_t> worker_pids_;
  pid_t coordinator_pid_ = -1;
  std::set<int> dead_;     ///< ranks killed/stopped, not yet repaired
  std::set<int> stopped_;  ///< subset of dead_: SIGSTOP (gray) victims
  bool declared_waited_ = false;  ///< deaths already declared by coordinator
  std::int64_t last_version_ = 0;  ///< newest save the client saw commit
  bool next_kill_gray_ = false;  ///< alternate SIGKILL / SIGSTOP
};

}  // namespace eccheck::chaos
