// Checkpoint service: a coordinator daemon fronting k+m worker daemons.
//
// This is the deployment shape of the engine-over-Fabric port: every worker
// process owns one SocketTransport rank and runs the collective
// save/load protocol (core/fabric_engine) when told to; the coordinator
// owns the client-facing endpoint, admits requests through a FIFO queue,
// and fans each job command out to all workers — a collective only makes
// progress once every rank has joined it, so the fan-out doubles as the
// barrier that starts it.
//
// Control channel: one kRequest/kResponse exchange per connection, using
// the same 40-byte CRC64 frame header and CRC-echo ack as the data fabric
// (net/frame.hpp). The key carries the command, the payload the arguments;
// the response's aux is a status code (0 = ok) and the payload the body.
//
// Failure model: a worker SIGKILLed mid-save makes the surviving workers'
// collective fail fast (CheckFailure inside their io_timeout);
// FabricSession rolls the torn version back on each survivor, the worker
// daemon survives and reports the error, and the coordinator resets every
// fabric connection before the next collective so survivors drop
// half-delivered frames. A replacement worker started on the dead rank's
// endpoints recovers the job state from the erasure-coded remainder on the
// next `load`.
//
// Shard payloads are synthesized deterministically from (job, iteration)
// on the worker side, so any client — including the multi-process demo and
// the differential tests — can recompute the expected digests without
// shipping tensor bytes over the control channel.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "cluster/failure_detector.hpp"
#include "core/session.hpp"
#include "dnn/checkpoint_gen.hpp"
#include "net/frame.hpp"
#include "net/socket.hpp"
#include "net/transport.hpp"
#include "obs/stats.hpp"

namespace eccheck::svc {

// ---------------------------------------------------------------------------
// Control-channel framing (shared by client, coordinator, and workers).
// ---------------------------------------------------------------------------

struct ControlFrame {
  net::FrameHeader header;
  Buffer payload;
};

/// Send one acknowledged control frame: header+key+payload out, CRC-echo
/// ack back. Unlike the fabric's pooled data path this works on any
/// connected socket. While the global tracer is enabled and the calling
/// thread carries a trace context, the frame is stamped with it
/// (net::WireTraceContext), so a request's causal chain crosses the
/// control channel exactly like the data fabric.
void send_control(const net::Socket& s, net::FrameType type,
                  const std::string& key, std::uint32_t aux, ByteSpan payload,
                  net::Millis io_timeout, const std::string& ctx);

/// Receive one control frame of the expected type, verify its CRC and ack
/// it. A stamped trace context lands in the returned header's `trace`
/// field (the server adopts it around handling). Throws CheckFailure on
/// timeout, EOF, or protocol desync.
ControlFrame recv_control(const net::Socket& s, net::FrameType expect,
                          net::Millis io_timeout, const std::string& ctx);

/// Response status codes carried in the control frame's aux field.
enum ControlStatus : std::uint32_t {
  kStatusOk = 0,
  kStatusError = 1,        ///< command failed; body holds the error text
  kStatusBusy = 2,         ///< admission queue full — back off and retry
  kStatusUnavailable = 3,  ///< more than m ranks dead; cannot serve
  kStatusBadRequest = 4,   ///< malformed wire argument (garbage/overflow int)
};

/// Malformed wire-supplied argument. Derives from CheckFailure so every
/// existing daemon-survival catch still contains it, but handlers that can
/// still reply catch it first and answer kStatusBadRequest.
class BadRequest : public CheckFailure {
 public:
  using CheckFailure::CheckFailure;
};

/// The body of a save or load reply, from a worker or from the coordinator:
///
///   version=V iteration=I w0:<16 hex> w1:<16 hex> ... [lost=r,s] [; detail]
///
/// `wN:` is StateDict::digest() of worker N's shard (saved, or loaded).
/// `iteration` is the one the shards were synthesized from: the save's
/// argument, or the `iteration` metadata of the loaded shards. `lost` names
/// the member ranks a committed save got no reply from. `detail` is free
/// text (the load's report, a degraded save's redundancy).
struct ShardReply {
  std::int64_t version = 0;
  std::int64_t iteration = 0;
  std::map<int, std::uint64_t> digests;  ///< worker → shard digest
  std::vector<int> lost;
  std::string detail;

  std::string body() const;
  /// Strict inverse of body(): accepts exactly the strings body() writes,
  /// with version and iteration ≥ 1. Throws BadRequest otherwise.
  static ShardReply parse(const std::string& body);
};

struct ControlReply {
  bool ok = false;            ///< response status was kStatusOk
  std::string body;           ///< response payload (error text when !ok)
  double rtt_ms = 0;          ///< request→response wall time (client side)
  std::uint32_t status = 0;   ///< raw ControlStatus from the response aux
  bool skipped = false;       ///< fan-out skipped this worker (not a member)
};

/// One request/response exchange over a fresh connection to `server`.
/// Connect-level failures (server dead, never came up) surface as
/// CheckFailure; an error *response* comes back as {ok=false, body}.
ControlReply client_request(const net::Endpoint& server,
                            const std::string& command,
                            const std::string& args,
                            const net::TransportOptions& opts);

// ---------------------------------------------------------------------------
// Deterministic job content.
// ---------------------------------------------------------------------------

/// The synthetic model snapshot for (job, iteration) across `world`
/// workers: seeded by crc64(job) ^ iteration, so every process — worker,
/// demo parent, test — derives identical tensor bytes independently.
dnn::CheckpointGenConfig job_gen_config(const std::string& job,
                                        std::int64_t iteration, int world);

// ---------------------------------------------------------------------------
// Worker daemon: one process, one fabric rank.
// ---------------------------------------------------------------------------

struct WorkerDaemonConfig {
  int rank = 0;
  std::vector<net::Endpoint> fabric_eps;  ///< data-plane endpoints, all ranks
  net::Endpoint control_ep;               ///< this worker's command socket
  net::TransportOptions fabric_opts;
  core::ECCheckConfig ec;                 ///< k+m must equal fabric_eps.size()
  int gpus_per_node = 1;                  ///< shards driven per worker
  int retain_versions = 2;
  /// Coordinator's liveness endpoint. When set, the daemon announces
  /// itself with `join <rank>` at startup and then heartbeats
  /// `beat <rank> <epoch>` every fabric_opts.heartbeat_period from a
  /// background thread; a `fenced` reply (this rank was declared dead and
  /// superseded) makes the daemon exit. Unset = legacy standalone mode,
  /// no liveness traffic at all.
  std::optional<net::Endpoint> coordinator_ep;
};

/// Single-threaded command server wrapping a SocketTransport rank and a
/// FabricSession per job (namespace `<job>/` keeps jobs collision-free in
/// every store, including the shared remote directory).
///
/// Commands: `ping`, `save <job> <iteration> [epoch=E] [alive=i,j,..]`,
/// `load <job> [epoch=E] [alive=..]`, `reset [epoch=E]`, `status`,
/// `clock` (tracer nanoseconds, for ping-pong offset estimation),
/// `obs [stats]` (obs::serialize_snapshot of this process — tracer
/// buffers + fabric stats; `obs stats` returns the stats object alone),
/// `freeze <ms>` (stop serving AND heartbeating for ms — a deterministic
/// gray failure), `inject corrupt` (flip one payload byte of the next
/// outgoing data frame after its CRC is computed), `exit`. A failed
/// collective save leaves the daemon alive: FabricSession already rolled
/// back the torn version, the error travels back in the response, and the
/// next `reset` re-arms the fabric.
///
/// Epoch fencing: `epoch=E` on save/load must match the worker's current
/// epoch (adopted monotonically from join replies and `reset epoch=`),
/// otherwise the command is refused with a `fenced:` error — a stale
/// resurrected worker can never participate in a collective again. The
/// same epoch rides in the fabric's connection hellos, so even raw data
/// frames from a fenced process are rejected at accept time.
///
/// Degraded mode: `alive=i,j,..` installs a core::Membership before the
/// collective; this worker then also synthesizes and carries the shards
/// of any dead ranks it adopts (FabricSession::driven_workers).
class WorkerDaemon {
 public:
  explicit WorkerDaemon(WorkerDaemonConfig cfg);
  ~WorkerDaemon();

  /// Serve commands until `exit` arrives or this rank is fenced. Accept
  /// waits are bounded so a wedged client cannot hang the daemon forever.
  void run();

 private:
  std::string handle(const std::string& command, const std::string& args,
                     std::uint32_t& status);
  std::string do_save(const std::string& job, std::int64_t iteration,
                      const core::Membership& members);
  std::string do_load(const std::string& job,
                      const core::Membership& members);
  core::FabricSession& session_for(const std::string& job);
  /// Refuses commands carrying a stale epoch (throws CheckFailure) and
  /// adopts a newer one; also installs the command's membership view.
  core::Membership apply_epoch_and_members(
      const std::map<std::string, std::string>& kv);
  void join_cluster();
  void beat_loop();
  void stop_beats();

  WorkerDaemonConfig cfg_;
  net::SocketTransport fabric_;  ///< every session runs on this directly
  net::Socket control_listener_;
  std::map<std::string, core::FabricSession> sessions_;
  std::uint64_t saves_ok_ = 0;
  std::uint64_t saves_failed_ = 0;
  std::uint64_t loads_ok_ = 0;
  std::atomic<std::uint64_t> epoch_{0};
  std::atomic<bool> fenced_{false};
  std::atomic<bool> beat_stop_{false};
  std::atomic<std::int64_t> frozen_until_ns_{0};  ///< steady_clock deadline
  int freeze_pending_ms_ = 0;  ///< applied after the freeze reply is sent
  std::thread beat_thread_;
};

// ---------------------------------------------------------------------------
// Coordinator daemon: client endpoint + admission queue + worker fan-out.
// ---------------------------------------------------------------------------

struct CoordinatorConfig {
  net::Endpoint client_ep;                 ///< where clients connect
  std::vector<net::Endpoint> worker_eps;   ///< workers' control endpoints
  net::TransportOptions opts;              ///< io_timeout must exceed the
                                           ///< workers' fabric io_timeout —
                                           ///< a save response only arrives
                                           ///< after the collective resolves
  /// Heartbeat/join listener. When set, the coordinator runs the full
  /// self-healing loop: wall-clock failure detection over worker beats,
  /// dead-vs-gray probing, epoch-fenced repair on join, and degraded-mode
  /// serving while ≤ m ranks are dead. Unset = legacy fixed-membership
  /// behavior (every fan-out targets all workers).
  std::optional<net::Endpoint> liveness_ep;
  /// Admission bound: connections beyond this many queued requests are
  /// answered kStatusBusy immediately instead of waiting unbounded.
  std::size_t max_queue = 64;
  /// ec.m — how many dead ranks degraded serving can tolerate. Only used
  /// when liveness_ep is set (must then match the workers' config).
  int parity_m = 0;
  /// ec.k, required: a save commits once k member ranks committed it, and
  /// `health` reports redundancy against it.
  int data_k = 0;
};

/// Serializes client requests through a FIFO admission queue (connections
/// accepted while a job is running wait their turn; depth is tracked for
/// `status`) and fans each job command out to every worker concurrently.
///
/// Client commands: `save <job>`, `load <job>`, `status`, `reset`,
/// `health [job]` (JSON: queue/served/in-flight state, per-worker
/// liveness with ping RTTs, per-job versions + save/load latency
/// histograms), `stats` (aggregated fleet StatsRegistry JSON: per-worker
/// snapshots plus their merged sum), `trace` (merged, clock-aligned
/// Chrome trace of the coordinator + every reachable worker; offsets
/// estimated by ping-pong midpoint against each worker's `clock` verb),
/// `shutdown`. The coordinator assigns iteration numbers per job, so
/// concurrent clients saving the same job get distinct, ordered snapshots.
/// Save and load replies are ShardReply bodies. A save is committed when at
/// least data_k member replies are ok and name the same version; a load
/// needs every member's reply. After any fan-out with a failed reply — and
/// before every `load` — it resets all fabric connections on every
/// reachable worker, the synchronized point that lets survivors of an
/// aborted collective reconnect cleanly.
///
/// Each `save`/`load` opens a fresh distributed trace (when the global
/// tracer is enabled) whose root span covers the whole fan-out, so one
/// client request shows up as one causally-linked tree across the
/// coordinator, the workers, and the fabric collectives between them.
///
/// Self-healing (liveness_ep set): a background thread answers worker
/// heartbeats and join requests; the main loop's tick() advances the
/// failure detector between requests. A worker whose beats stop is
/// suspected after heartbeat_timeout, then probed — connection refused is
/// hard death (process gone), probe timeouts accumulate until
/// suspect_probes consecutive failures declare a gray worker dead. Every
/// death bumps the cluster epoch and resets the survivors onto it, so
/// the corpse — should it resurrect — is fenced at both the control and
/// data planes. While dead ≤ m, save/load serve degraded (alive-only
/// membership, reduced redundancy); beyond m they fail fast with
/// kStatusUnavailable. A `join` for a dead rank runs the repair
/// controller: bump epoch, reset survivors + joiner, recover every known
/// job via the erasure-coded remainder (which rebuilds the replacement's
/// rows in place — full m-redundancy without restarting survivors), then
/// mark the rank alive.
class Coordinator {
 public:
  explicit Coordinator(CoordinatorConfig cfg);
  ~Coordinator();

  /// Serve until `shutdown` (which also sends `exit` to every worker).
  void run();

 private:
  /// Health-endpoint state per job, fed by every save/load fan-out.
  struct JobStats {
    std::int64_t last_version = -1;
    std::int64_t iterations = 0;
    std::uint64_t saves_ok = 0;
    std::uint64_t saves_failed = 0;
    std::uint64_t loads_ok = 0;
    std::uint64_t loads_failed = 0;
    obs::HistSummary save_latency_s;
    obs::HistSummary load_latency_s;
    std::string last_error;
  };

  /// Accept every connection currently waiting (bounded, non-blocking-ish)
  /// into the admission queue, answering kStatusBusy past max_queue;
  /// returns true if the queue is non-empty.
  bool admit(net::Millis wait);
  std::string handle(const std::string& command, const std::string& args,
                     std::uint32_t& status);
  /// Run `command args` on every worker in `targets` concurrently
  /// (empty = all); the returned vector always has one entry per worker,
  /// with non-targets marked `skipped`. Connect failures become
  /// {ok=false, body=<error>}. The caller's trace context propagates into
  /// every fan-out thread.
  std::vector<ControlReply> fan_out(const std::string& command,
                                    const std::string& args,
                                    const std::vector<int>& targets = {});
  void reset_workers(const std::vector<int>& targets = {});
  std::string health_json(const std::string& job_filter);
  std::string merged_trace_json();
  std::string aggregated_stats_json();
  /// Ping-pong offset of worker i's tracer clock vs ours (see
  /// obs::estimate_clock_offset_ns); ok=false when the worker is dead.
  bool clock_offset_ns(std::size_t i, std::int64_t* offset);

  // ---- self-healing (all no-ops when liveness_ep is unset) ---------------
  /// Answers beats inline (under live_mu_) and queues join/rejoin for the
  /// main loop; runs on liveness_thread_.
  void liveness_loop();
  /// Advance failure detection + the repair controller; called from the
  /// main loop between requests.
  void tick();
  /// Declare `rank` dead: count it, bump the epoch, re-fence survivors.
  void declare_dead(const std::vector<int>& ranks);
  /// Repair controller for pending joins (replacement or rejoin).
  void process_joins();
  /// Ranks currently kAlive, ascending. Empty tracker = everyone.
  std::vector<int> alive_targets();
  /// "epoch=E alive=i,j,.." suffix for degraded fan-outs ("" when full
  /// membership and liveness is off).
  std::string membership_args(const std::vector<int>& targets);

  CoordinatorConfig cfg_;
  net::Socket listener_;
  std::vector<net::Socket> queue_;  ///< admitted client connections
  std::map<std::string, std::int64_t> iterations_;
  std::map<std::string, JobStats> job_stats_;
  std::uint64_t served_ = 0;
  std::size_t max_depth_ = 0;
  int in_flight_ = 0;  ///< fan-outs currently executing
  bool stop_ = false;

  // Guarded by live_mu_: tracker_, epoch_, pending_joins_, liveness
  // counters. The liveness thread only ever takes this mutex briefly (one
  // beat or join enqueue), so the main loop never stalls on it.
  mutable std::mutex live_mu_;
  std::optional<cluster::LivenessTracker> tracker_;
  std::uint64_t epoch_ = 0;  ///< cluster epoch; starts at 1 with liveness
  std::vector<int> pending_joins_;
  /// Ranks with a join accepted but not yet admitted (queued or mid-repair).
  /// Their beats are exempt from corpse fencing: the beat is the new
  /// incarnation announcing itself, not a resurrected corpse. Erased only
  /// when the rank is marked alive.
  std::set<int> admitting_;
  std::uint64_t rejected_ = 0;   ///< admissions answered kStatusBusy
  std::uint64_t deaths_ = 0;     ///< ranks declared dead
  std::uint64_t repairs_ = 0;    ///< successful replacement/rejoin repairs
  std::uint64_t fenced_beats_ = 0;
  std::uint64_t degraded_ops_ = 0;  ///< save/load served with dead ranks
  net::Socket liveness_listener_;
  std::thread liveness_thread_;
  std::atomic<bool> liveness_stop_{false};
  /// Idempotency cache: "<job>\n<verb>\n<token>" → {status, body}. A
  /// retried request (client timed out, command committed anyway) replays
  /// the recorded outcome instead of committing a second version.
  std::map<std::string, std::pair<std::uint32_t, std::string>> idem_;
  std::deque<std::string> idem_order_;  ///< FIFO eviction, bounded
};

}  // namespace eccheck::svc
