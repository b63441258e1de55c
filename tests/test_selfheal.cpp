// Self-healing checkpoint service: liveness tracking, epoch fencing,
// degraded-mode serving, bounded admission, idempotent retries, and the
// full death → declaration → replacement → repair cycle over real (UDS)
// sockets. Daemons run as threads here (the multi-process version lives in
// chaos::SocketCampaign); the socket fabric between them is the real one.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cluster/failure_detector.hpp"
#include "common/check.hpp"
#include "core/fabric_engine.hpp"
#include "dnn/checkpoint_gen.hpp"
#include "obs/json.hpp"
#include "svc/checkpoint_service.hpp"

namespace eccheck {
namespace {

namespace fs = std::filesystem;
using ms = std::chrono::milliseconds;

struct TempDir {
  std::string path;
  TempDir() {
    char tmpl[] = "/tmp/eccheck-selfheal-XXXXXX";
    EXPECT_NE(::mkdtemp(tmpl), nullptr);
    path = tmpl;
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
};

constexpr int kK = 2;
constexpr int kM = 2;
constexpr int kNodes = kK + kM;
constexpr int kGpn = 2;
constexpr int kWorld = kNodes * kGpn;

net::TransportOptions fast_opts(const TempDir& dir) {
  net::TransportOptions o;
  o.connect_timeout = net::Millis(500);
  o.connect_retries = 20;
  o.backoff_base = net::Millis(2);
  o.backoff_max = net::Millis(50);
  o.io_timeout = net::Millis(5000);
  o.remote_dir = dir.path + "/remote";
  return o;
}

/// Fast liveness cadence so declaration happens in test time, not ops time.
net::TransportOptions live_opts(const TempDir& dir) {
  net::TransportOptions o = fast_opts(dir);
  o.heartbeat_period = net::Millis(100);
  o.heartbeat_timeout = net::Millis(400);
  o.suspect_probes = 2;
  return o;
}

core::ECCheckConfig ec_config() {
  core::ECCheckConfig cfg;
  cfg.k = kK;
  cfg.m = kM;
  cfg.packet_size = 16 * 1024;
  return cfg;
}

svc::WorkerDaemonConfig worker_config(const TempDir& dir, int rank,
                                      bool with_coordinator) {
  svc::WorkerDaemonConfig cfg;
  cfg.rank = rank;
  for (int r = 0; r < kNodes; ++r)
    cfg.fabric_eps.push_back(net::Endpoint::uds(
        dir.path + "/rank" + std::to_string(r) + ".sock"));
  cfg.control_ep =
      net::Endpoint::uds(dir.path + "/ctl" + std::to_string(rank) + ".sock");
  cfg.fabric_opts = with_coordinator ? live_opts(dir) : fast_opts(dir);
  cfg.ec = ec_config();
  cfg.gpus_per_node = kGpn;
  if (with_coordinator)
    cfg.coordinator_ep = net::Endpoint::uds(dir.path + "/live.sock");
  return cfg;
}

struct DaemonThread {
  std::unique_ptr<svc::WorkerDaemon> daemon;
  std::thread thread;

  explicit DaemonThread(svc::WorkerDaemonConfig cfg)
      : daemon(std::make_unique<svc::WorkerDaemon>(std::move(cfg))) {
    thread = std::thread([this] { daemon->run(); });
  }
  ~DaemonThread() {
    if (thread.joinable()) thread.join();
  }
};

std::map<int, std::uint64_t> want_digests(const std::string& job,
                                          std::int64_t iteration) {
  const dnn::CheckpointGenConfig gen =
      svc::job_gen_config(job, iteration, kWorld);
  std::map<int, std::uint64_t> out;
  for (int w = 0; w < kWorld; ++w)
    out[w] = dnn::make_worker_state_dict(gen, w).digest();
  return out;
}

struct ParsedBody {
  std::int64_t version = 0;
  std::int64_t iteration = 0;
  std::map<int, std::uint64_t> digests;
};

ParsedBody parse_body(const std::string& body) {
  ParsedBody p;
  std::istringstream is(body);
  std::string tok;
  while (is >> tok) {
    if (tok == ";") break;
    if (tok.rfind("version=", 0) == 0)
      p.version = std::stoll(tok.substr(8));
    else if (tok.rfind("iteration=", 0) == 0)
      p.iteration = std::stoll(tok.substr(10));
    else if (tok[0] == 'w' && tok.find(':') != std::string::npos)
      p.digests[std::stoi(tok.substr(1, tok.find(':') - 1))] =
          std::stoull(tok.substr(tok.find(':') + 1), nullptr, 16);
  }
  return p;
}

bool poll_until(const std::function<bool()>& pred, double secs) {
  const auto deadline =
      std::chrono::steady_clock::now() + ms(static_cast<int>(secs * 1000));
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(ms(100));
  }
  return false;
}

double health_number(const std::string& body, const char* field) {
  std::string perr;
  const std::unique_ptr<obs::JsonValue> doc =
      obs::JsonValue::parse(body, &perr);
  if (doc == nullptr) return -1;
  const obs::JsonValue* v = doc->find(field);
  return v != nullptr ? v->as_number() : -1;
}

// ---------------------------------------------------------------------------
// LivenessTracker: deterministic wall-clock state machine, no sleeping.
// ---------------------------------------------------------------------------

using Clock = cluster::LivenessTracker::Clock;
using cluster::Liveness;

cluster::LivenessTracker::Config tracker_config() {
  cluster::LivenessTracker::Config cfg;
  cfg.heartbeat_timeout = ms(500);
  cfg.suspect_probes = 2;
  return cfg;
}

TEST(LivenessTracker, SilenceMakesSuspectsAndProbesConfirmDeath) {
  const Clock::time_point t0 = Clock::now();
  cluster::LivenessTracker t(tracker_config(), 4, t0);
  EXPECT_EQ(t.alive_count(), 4);

  // Startup grace: nobody has beaten yet, but nobody is suspect either.
  EXPECT_TRUE(t.evaluate(t0 + ms(400)).empty());

  // Ranks 0..2 beat; rank 3 stays silent past the timeout.
  for (int r = 0; r < 3; ++r)
    EXPECT_EQ(t.beat(r, 1, t0 + ms(400)), Liveness::kAlive);
  const std::vector<int> fresh = t.evaluate(t0 + ms(600));
  ASSERT_EQ(fresh, std::vector<int>{3});
  EXPECT_EQ(t.state(3), Liveness::kSuspect);
  EXPECT_EQ(t.suspects(), std::vector<int>{3});
  EXPECT_EQ(t.alive_count(), 3);

  // A suspect is gray, not gone: no repair yet, and two silent probe rounds
  // are needed before death.
  EXPECT_EQ(t.probe_result(3, false, false, t0 + ms(700)),
            Liveness::kSuspect);
  EXPECT_EQ(t.probe_result(3, false, false, t0 + ms(800)), Liveness::kDead);
  EXPECT_EQ(t.dead(), std::vector<int>{3});

  // Death is a one-way door: a beat from the corpse reports kDead so the
  // caller can fence it, and never revives the rank.
  EXPECT_EQ(t.beat(3, 1, t0 + ms(900)), Liveness::kDead);
  EXPECT_EQ(t.state(3), Liveness::kDead);

  // Only an explicit repair admission revives it, with the new epoch.
  t.mark_alive(3, 7, t0 + ms(1000));
  EXPECT_EQ(t.state(3), Liveness::kAlive);
  EXPECT_EQ(t.peer(3).epoch, 7u);
  EXPECT_EQ(t.alive_count(), 4);
}

TEST(LivenessTracker, BeatsAndAliveEvidenceReviveSuspects) {
  const Clock::time_point t0 = Clock::now();
  cluster::LivenessTracker t(tracker_config(), 2, t0);

  // A beat arriving while suspect revives directly.
  ASSERT_EQ(t.evaluate(t0 + ms(600)), (std::vector<int>{0, 1}));
  EXPECT_EQ(t.beat(0, 1, t0 + ms(650)), Liveness::kAlive);

  // Probe-observed alive evidence (a beat arrived between probe rounds)
  // also revives; the failed-probe counter resets.
  EXPECT_EQ(t.probe_result(1, false, true, t0 + ms(650)), Liveness::kAlive);
  EXPECT_EQ(t.peer(1).failed_probes, 0);
}

TEST(LivenessTracker, HardEvidenceSkipsTheProbeQuorum) {
  const Clock::time_point t0 = Clock::now();
  cluster::LivenessTracker t(tracker_config(), 2, t0);
  ASSERT_FALSE(t.evaluate(t0 + ms(600)).empty());
  // Connection refused = the process is gone; one probe is enough.
  EXPECT_EQ(t.probe_result(0, true, false, t0 + ms(700)), Liveness::kDead);
  // mark_dead: immediate external evidence (EOF mid-request).
  t.mark_dead(1);
  EXPECT_EQ(t.dead(), (std::vector<int>{0, 1}));
}

// ---------------------------------------------------------------------------
// Membership: the alive-set algebra degraded collectives run on.
// ---------------------------------------------------------------------------

TEST(Membership, SitesDeadRanksOnTheAdopter) {
  const core::Membership full;
  EXPECT_TRUE(full.full());
  EXPECT_TRUE(full.is_alive(3));
  EXPECT_EQ(full.site(3), 3);
  EXPECT_EQ(full.alive_count(4), 4);

  const core::Membership m = core::Membership::of({3, 1, 3});
  EXPECT_EQ(m.alive, (std::vector<int>{1, 3}));  // sorted, deduped
  EXPECT_FALSE(m.full());
  EXPECT_TRUE(m.is_alive(1));
  EXPECT_FALSE(m.is_alive(0));
  EXPECT_EQ(m.adopter(), 1);
  EXPECT_EQ(m.site(0), 1);  // dead rank's work lands on the adopter
  EXPECT_EQ(m.site(3), 3);
  EXPECT_EQ(m.alive_count(4), 2);
  EXPECT_NO_THROW(m.check(4));
  EXPECT_THROW(m.check(2), CheckFailure);  // rank 3 outside world 2
  EXPECT_THROW(core::Membership::of({}).adopter(), CheckFailure);
}

// ---------------------------------------------------------------------------
// Epoch fencing at the worker: stale commands are refused, newer epochs
// adopted monotonically.
// ---------------------------------------------------------------------------

TEST(SelfHealService, WorkerFencesStaleEpochs) {
  TempDir dir;
  std::vector<std::unique_ptr<DaemonThread>> daemons;
  for (int r = 0; r < kNodes; ++r)
    daemons.push_back(
        std::make_unique<DaemonThread>(worker_config(dir, r, false)));
  const net::Endpoint ctl0 = net::Endpoint::uds(dir.path + "/ctl0.sock");
  const net::TransportOptions opts = fast_opts(dir);

  // Adopt epoch 5 via reset; a stale reset is ignored, not an error.
  svc::ControlReply r = svc::client_request(ctl0, "reset", "epoch=5", opts);
  ASSERT_TRUE(r.ok) << r.body;
  EXPECT_EQ(r.body, "ok epoch=5");
  r = svc::client_request(ctl0, "reset", "epoch=3", opts);
  ASSERT_TRUE(r.ok) << r.body;
  EXPECT_EQ(r.body, "ok epoch=5") << "stale reset must not regress the epoch";

  // A data command carrying a stale epoch is refused before any collective
  // work starts — this is what stops a resurrected corpse's backlog.
  r = svc::client_request(ctl0, "load", "job epoch=3", opts);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.body.find("fenced"), std::string::npos) << r.body;

  r = svc::client_request(ctl0, "status", "", opts);
  ASSERT_TRUE(r.ok);
  EXPECT_NE(r.body.find("epoch=5"), std::string::npos) << r.body;

  for (int rk = 0; rk < kNodes; ++rk)
    svc::client_request(net::Endpoint::uds(dir.path + "/ctl" +
                                           std::to_string(rk) + ".sock"),
                        "exit", "", opts);
}

// ---------------------------------------------------------------------------
// Bounded admission + idempotent retries, against a live coordinator.
// ---------------------------------------------------------------------------

TEST(SelfHealService, AdmissionQueueBoundsAndIdempotencyTokens) {
  TempDir dir;
  std::vector<std::unique_ptr<DaemonThread>> daemons;
  for (int r = 0; r < kNodes; ++r)
    daemons.push_back(
        std::make_unique<DaemonThread>(worker_config(dir, r, false)));

  svc::CoordinatorConfig ccfg;
  ccfg.client_ep = net::Endpoint::uds(dir.path + "/client.sock");
  for (int r = 0; r < kNodes; ++r)
    ccfg.worker_eps.push_back(net::Endpoint::uds(
        dir.path + "/ctl" + std::to_string(r) + ".sock"));
  ccfg.opts = fast_opts(dir);
  ccfg.opts.io_timeout = net::Millis(15000);
  ccfg.opts.connect_retries = 4;
  ccfg.max_queue = 1;
  svc::Coordinator coordinator(ccfg);
  std::thread coord_thread([&coordinator] { coordinator.run(); });

  const net::TransportOptions copts = ccfg.opts;
  auto request = [&](const std::string& cmd, const std::string& args) {
    return svc::client_request(ccfg.client_ep, cmd, args, copts);
  };

  // Freeze one worker so the next save's fan-out holds the single-threaded
  // main loop long enough for a flood to hit the admission queue.
  svc::ControlReply r =
      svc::client_request(ccfg.worker_eps[0], "freeze", "1200", copts);
  ASSERT_TRUE(r.ok) << r.body;

  std::thread saver([&] {
    const svc::ControlReply sr = request("save", "job");
    EXPECT_TRUE(sr.ok) << sr.body;
  });
  std::this_thread::sleep_for(ms(250));  // save is now in flight

  // Six concurrent requests against max_queue=1: every one is answered —
  // either served or typed kStatusBusy, never dropped or stalled.
  constexpr int kFlood = 6;
  std::atomic<int> ok{0}, busy{0};
  std::vector<std::thread> flood;
  for (int i = 0; i < kFlood; ++i)
    flood.emplace_back([&] {
      const svc::ControlReply fr = request("status", "");
      if (fr.ok)
        ++ok;
      else if (fr.status == svc::kStatusBusy)
        ++busy;
    });
  for (std::thread& t : flood) t.join();
  saver.join();
  EXPECT_EQ(ok.load() + busy.load(), kFlood);
  EXPECT_GE(busy.load(), 1) << "flood never hit the admission bound";
  EXPECT_GE(ok.load(), 1);
  for (int i = 0; i < busy.load(); ++i) {
    // Busy replies carry the queue bound so clients can back off sensibly.
    const svc::ControlReply br = request("status", "");
    if (!br.ok) {
      EXPECT_NE(br.body.find("busy"), std::string::npos);
    }
  }

  // The rejected counter made it into status.
  r = request("status", "");
  ASSERT_TRUE(r.ok) << r.body;

  // Idempotency: a retried save under the same token replays the recorded
  // outcome — exactly one version is committed.
  const svc::ControlReply first = request("save", "job token=alpha");
  ASSERT_TRUE(first.ok) << first.body;
  const std::int64_t v = parse_body(first.body).version;
  const svc::ControlReply replay = request("save", "job token=alpha");
  ASSERT_TRUE(replay.ok) << replay.body;
  EXPECT_EQ(replay.body, first.body)
      << "same token must replay, not re-commit";
  const svc::ControlReply fresh = request("save", "job token=beta");
  ASSERT_TRUE(fresh.ok) << fresh.body;
  EXPECT_EQ(parse_body(fresh.body).version, v + 1)
      << "a new token commits the next version";

  r = request("shutdown", "");
  EXPECT_TRUE(r.ok);
  coord_thread.join();
}

// ---------------------------------------------------------------------------
// The full self-healing cycle: heartbeats, death declaration, degraded
// serving, replacement join, automatic repair back to full redundancy.
// ---------------------------------------------------------------------------

struct LiveCluster {
  TempDir dir;
  std::vector<std::unique_ptr<DaemonThread>> daemons;
  svc::CoordinatorConfig ccfg;
  std::unique_ptr<svc::Coordinator> coordinator;
  std::thread coord_thread;
  net::TransportOptions copts;

  LiveCluster() {
    ccfg.client_ep = net::Endpoint::uds(dir.path + "/client.sock");
    ccfg.liveness_ep = net::Endpoint::uds(dir.path + "/live.sock");
    for (int r = 0; r < kNodes; ++r)
      ccfg.worker_eps.push_back(net::Endpoint::uds(
          dir.path + "/ctl" + std::to_string(r) + ".sock"));
    ccfg.opts = live_opts(dir);
    ccfg.opts.io_timeout = net::Millis(10000);
    ccfg.opts.connect_retries = 4;
    ccfg.data_k = kK;
    ccfg.parity_m = kM;
    coordinator = std::make_unique<svc::Coordinator>(ccfg);
    coord_thread = std::thread([this] { coordinator->run(); });
    for (int r = 0; r < kNodes; ++r)
      daemons.push_back(
          std::make_unique<DaemonThread>(worker_config(dir, r, true)));
    copts = ccfg.opts;
    copts.io_timeout = net::Millis(30000);
  }

  svc::ControlReply request(const std::string& cmd, const std::string& args) {
    return svc::client_request(ccfg.client_ep, cmd, args, copts);
  }
  /// Poll `status` (each request also drives the coordinator's detection
  /// tick) until the body contains `needle`.
  bool status_until(const std::string& needle, double secs) {
    return poll_until(
        [&] {
          const svc::ControlReply r = request("status", "");
          return r.ok && r.body.find(needle) != std::string::npos;
        },
        secs);
  }
  void shutdown() {
    const svc::ControlReply r = request("shutdown", "");
    EXPECT_TRUE(r.ok);
    coord_thread.join();
  }
};

TEST(SelfHealService, DeathDeclarationDegradedServingAndRepair) {
  LiveCluster c;

  svc::ControlReply r = c.request("save", "job");
  ASSERT_TRUE(r.ok) << r.body;
  EXPECT_EQ(parse_body(r.body).version, 1);
  EXPECT_EQ(parse_body(r.body).digests, want_digests("job", 1));

  // Hard death: the daemon exits, its listener closes, probes see refused.
  const int victim = 1;
  svc::client_request(c.ccfg.worker_eps[victim], "exit", "", c.copts);
  c.daemons[victim].reset();
  ASSERT_TRUE(c.status_until("deaths=1", 20))
      << "coordinator never declared the death";

  // Degraded load: dead ≤ m, so the full checkpoint is served — including
  // the dead rank's shards, re-sited on the adopter — bit-exactly.
  r = c.request("load", "job");
  ASSERT_TRUE(r.ok) << r.body;
  {
    const ParsedBody p = parse_body(r.body);
    EXPECT_EQ(p.version, 1);
    EXPECT_EQ(p.digests, want_digests("job", 1));
    EXPECT_NE(r.body.find("degraded"), std::string::npos) << r.body;
  }

  // Degraded save: commits a new version at reduced redundancy.
  r = c.request("save", "job");
  ASSERT_TRUE(r.ok) << r.body;
  {
    const ParsedBody p = parse_body(r.body);
    EXPECT_EQ(p.version, 2);
    EXPECT_EQ(p.digests, want_digests("job", p.iteration));
    EXPECT_NE(r.body.find("degraded"), std::string::npos) << r.body;
  }

  // Health during the under-replicated window.
  r = c.request("health", "");
  ASSERT_TRUE(r.ok) << r.body;
  EXPECT_EQ(health_number(r.body, "deaths"), 1);
  EXPECT_GE(health_number(r.body, "degraded_ops"), 2);
  EXPECT_NE(r.body.find("\"degraded\":true"), std::string::npos) << r.body;

  // Replacement on the same endpoints: it joins, the repair controller
  // rebuilds its rows (workflow B) and restores full m-redundancy — the
  // survivors are never restarted.
  c.daemons[victim] =
      std::make_unique<DaemonThread>(worker_config(c.dir, victim, true));
  ASSERT_TRUE(c.status_until("repairs=1", 30))
      << "repair never completed";

  // Full-strength again: save/load round-trips bit-exactly, not degraded.
  r = c.request("save", "job");
  ASSERT_TRUE(r.ok) << r.body;
  {
    const ParsedBody p = parse_body(r.body);
    EXPECT_EQ(p.version, 3);
    EXPECT_EQ(p.digests, want_digests("job", p.iteration));
    EXPECT_EQ(r.body.find("degraded"), std::string::npos) << r.body;
  }
  r = c.request("health", "");
  ASSERT_TRUE(r.ok) << r.body;
  EXPECT_EQ(health_number(r.body, "repairs"), 1);
  EXPECT_NE(r.body.find("\"degraded\":false"), std::string::npos) << r.body;
  EXPECT_NE(r.body.find("\"effective_m\":" + std::to_string(kM)),
            std::string::npos)
      << r.body;

  c.shutdown();
}

TEST(SelfHealService, GrayFreezeIsDeclaredDeadAndFencedOnWake) {
  LiveCluster c;

  svc::ControlReply r = c.request("save", "job");
  ASSERT_TRUE(r.ok) << r.body;

  // Gray failure: the worker stops serving AND heartbeating but its accept
  // backlog stays open — probes succeed, so only the missing beats (via
  // suspect_probes silent rounds) can kill it. Freeze outlasts detection.
  const int victim = 2;
  r = svc::client_request(c.ccfg.worker_eps[victim], "freeze", "8000",
                          c.copts);
  ASSERT_TRUE(r.ok) << r.body;
  // Let the coordinator's idle ticks (every 250ms) run detection before we
  // send anything that fans out: a status request landing while the frozen
  // rank still counts as alive would ping it and block the single-threaded
  // main loop — and its ticks — for a whole io_timeout.
  std::this_thread::sleep_for(ms(1800));
  ASSERT_TRUE(c.status_until("deaths=1", 20))
      << "gray worker never declared dead";

  // Served while the corpse is still technically accepting connections.
  r = c.request("load", "job");
  ASSERT_TRUE(r.ok) << r.body;
  EXPECT_EQ(parse_body(r.body).digests, want_digests("job", 1));
  EXPECT_NE(r.body.find("degraded"), std::string::npos) << r.body;

  // On wake the corpse's first beat is answered `fenced`: it must exit
  // rather than rejoin with stale state. The join below then repairs.
  ASSERT_TRUE(poll_until(
      [&] {
        const svc::ControlReply h = c.request("health", "");
        return h.ok && health_number(h.body, "fenced_beats") >= 1;
      },
      20))
      << "woken corpse was never fenced";
  c.daemons[victim].reset();  // joins: the daemon exited on the fenced beat

  c.daemons[victim] =
      std::make_unique<DaemonThread>(worker_config(c.dir, victim, true));
  ASSERT_TRUE(c.status_until("repairs=1", 30)) << "repair never completed";

  r = c.request("save", "job");
  ASSERT_TRUE(r.ok) << r.body;
  const ParsedBody p = parse_body(r.body);
  EXPECT_EQ(p.digests, want_digests("job", p.iteration));
  EXPECT_EQ(r.body.find("degraded"), std::string::npos) << r.body;

  c.shutdown();
}

}  // namespace
}  // namespace eccheck
