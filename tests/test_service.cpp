// The checkpoint service (src/svc): control-protocol framing, the
// coordinator's admission/fan-out behaviour, and the daemon lifecycle —
// multi-job sessions, a worker death that tears a save, replacement, and
// bit-exact recovery of every job. Daemons mostly run as threads here; the
// socket fabric between them is exactly the multi-process one. The merged
// `trace` test forks one process per worker daemon, because in-process
// daemons share one tracer and so cannot show links between processes.
#include <gtest/gtest.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "dnn/checkpoint_gen.hpp"
#include "obs/distributed.hpp"
#include "obs/json.hpp"
#include "obs/tracer.hpp"
#include "svc/checkpoint_service.hpp"

namespace eccheck {
namespace {

namespace fs = std::filesystem;

struct TempDir {
  std::string path;
  TempDir() {
    char tmpl[] = "/tmp/eccheck-svctest-XXXXXX";
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

core::ECCheckConfig ec_config() {
  core::ECCheckConfig cfg;
  cfg.k = kK;
  cfg.m = kM;
  cfg.packet_size = 16 * 1024;
  return cfg;
}

svc::WorkerDaemonConfig worker_config(const TempDir& dir, int rank) {
  svc::WorkerDaemonConfig cfg;
  cfg.rank = rank;
  for (int r = 0; r < kNodes; ++r)
    cfg.fabric_eps.push_back(net::Endpoint::uds(
        dir.path + "/rank" + std::to_string(r) + ".sock"));
  cfg.control_ep =
      net::Endpoint::uds(dir.path + "/ctl" + std::to_string(rank) + ".sock");
  cfg.fabric_opts = fast_opts(dir);
  cfg.ec = ec_config();
  cfg.gpus_per_node = kGpn;
  return cfg;
}

/// A daemon on its own thread; join() after the daemon got `exit`.
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

/// The closed-form digests of (job, iteration) by worker: the
/// bit-exactness oracle.
std::map<int, std::uint64_t> want_digests(const std::string& job,
                                          std::int64_t iteration) {
  std::map<int, std::uint64_t> out;
  for (const std::uint64_t d :
       dnn::shard_digests(svc::job_gen_config(job, iteration, kWorld)))
    out.emplace(static_cast<int>(out.size()), d);
  return out;
}

// ---------------------------------------------------------------------------

TEST(ServiceProtocol, ClientRequestRoundTripsAndRejectsUnknownCommands) {
  TempDir dir;
  std::vector<std::unique_ptr<DaemonThread>> daemons;
  for (int r = 0; r < kNodes; ++r)
    daemons.push_back(std::make_unique<DaemonThread>(worker_config(dir, r)));
  const net::Endpoint ctl0 = net::Endpoint::uds(dir.path + "/ctl0.sock");
  const net::TransportOptions opts = fast_opts(dir);

  const svc::ControlReply pong = svc::client_request(ctl0, "ping", "", opts);
  EXPECT_TRUE(pong.ok);
  EXPECT_EQ(pong.body, "pong rank=0");

  const svc::ControlReply bad =
      svc::client_request(ctl0, "frobnicate", "", opts);
  EXPECT_FALSE(bad.ok);
  EXPECT_NE(bad.body.find("unknown command"), std::string::npos);

  const svc::ControlReply malformed =
      svc::client_request(ctl0, "save", "onlyjob", opts);
  EXPECT_FALSE(malformed.ok);

  for (int r = 0; r < kNodes; ++r)
    svc::client_request(net::Endpoint::uds(dir.path + "/ctl" +
                                           std::to_string(r) + ".sock"),
                        "exit", "", opts);
}

// Control frames come off the open network: a garbage or overflowing
// integer argument must produce a typed kStatusBadRequest reply — never an
// uncaught std::invalid_argument/std::out_of_range that kills the daemon.
// Each refusal is followed by a ping proving the worker still serves.
TEST(ServiceProtocol, MalformedWireIntegersGetTypedRefusalsNotCrashes) {
  TempDir dir;
  std::vector<std::unique_ptr<DaemonThread>> daemons;
  for (int r = 0; r < kNodes; ++r)
    daemons.push_back(std::make_unique<DaemonThread>(worker_config(dir, r)));
  const net::Endpoint ctl0 = net::Endpoint::uds(dir.path + "/ctl0.sock");
  const net::TransportOptions opts = fast_opts(dir);
  auto expect_bad = [&](const std::string& cmd, const std::string& args,
                        const std::string& needle) {
    const svc::ControlReply r = svc::client_request(ctl0, cmd, args, opts);
    EXPECT_FALSE(r.ok) << cmd << " " << args;
    EXPECT_EQ(r.status, svc::kStatusBadRequest) << cmd << " " << args << " → "
                                                << r.body;
    EXPECT_NE(r.body.find(needle), std::string::npos)
        << cmd << " " << args << " → " << r.body;
    const svc::ControlReply pong = svc::client_request(ctl0, "ping", "", opts);
    EXPECT_TRUE(pong.ok) << "daemon died after: " << cmd << " " << args;
  };

  expect_bad("save", "jobX abc", "save iteration");
  // 2^80 overflows int64 — range refusal, not std::out_of_range.
  expect_bad("save", "jobX 1208925819614629174706176", "save iteration");
  expect_bad("save", "jobX 0", "save iteration");     // below minimum
  expect_bad("save", "jobX 12garbage", "save iteration");  // trailing junk
  expect_bad("save", "jobX 1 epoch=banana", "epoch");
  expect_bad("save", "jobX 1 epoch=1 alive=1,x,3", "alive rank");
  expect_bad("load", "jobX alive=0,zz,2", "alive rank");
  expect_bad("freeze", "12garbage", "freeze ms");  // not a 12 ms freeze
  // 2^80 is a range refusal, not a freeze clamped to INT_MAX ms.
  expect_bad("freeze", "1208925819614629174706176", "freeze ms");
  // `corrupt` is the only fault a worker injects.
  expect_bad("inject", "drop 0.5", "inject expects 'corrupt'");

  for (int r = 0; r < kNodes; ++r)
    svc::client_request(net::Endpoint::uds(dir.path + "/ctl" +
                                           std::to_string(r) + ".sock"),
                        "exit", "", opts);
}

// Same contract for the coordinator's liveness listener: beats with a
// garbage rank, a 2^80 epoch, or an empty token get kStatusBadRequest and
// the liveness thread keeps serving (a well-formed beat still lands).
TEST(ServiceProtocol, LivenessBeatsValidateRankAndEpoch) {
  TempDir dir;
  std::vector<std::unique_ptr<DaemonThread>> daemons;
  for (int r = 0; r < kNodes; ++r)
    daemons.push_back(std::make_unique<DaemonThread>(worker_config(dir, r)));
  svc::CoordinatorConfig ccfg;
  ccfg.client_ep = net::Endpoint::uds(dir.path + "/client.sock");
  for (int r = 0; r < kNodes; ++r)
    ccfg.worker_eps.push_back(net::Endpoint::uds(
        dir.path + "/ctl" + std::to_string(r) + ".sock"));
  ccfg.liveness_ep = net::Endpoint::uds(dir.path + "/live.sock");
  ccfg.parity_m = kM;
  ccfg.data_k = kK;
  ccfg.opts = fast_opts(dir);
  svc::Coordinator coordinator(ccfg);
  std::thread coord_thread([&coordinator] { coordinator.run(); });

  const net::TransportOptions opts = ccfg.opts;
  auto beat = [&](const std::string& args) {
    return svc::client_request(*ccfg.liveness_ep, "beat", args, opts);
  };

  for (const std::string& args :
       {std::string("x epoch=1"),                             // garbage rank
        std::string("0 epoch=1208925819614629174706176"),     // 2^80
        std::string("0 epoch="),                              // empty token
        std::string("99 epoch=1"),                            // out of world
        std::string("-3 epoch=1"), std::string("1z epoch=1")}) {
    const svc::ControlReply r = beat(args);
    EXPECT_FALSE(r.ok) << args;
    EXPECT_EQ(r.status, svc::kStatusBadRequest) << args << " → " << r.body;
  }

  // The thread survived every refusal: a legitimate beat still lands.
  const svc::ControlReply good = beat("0 epoch=0");
  EXPECT_TRUE(good.ok) << good.body;
  EXPECT_NE(good.body.find("ok epoch="), std::string::npos) << good.body;

  const svc::ControlReply bye =
      svc::client_request(ccfg.client_ep, "shutdown", "", opts);
  EXPECT_TRUE(bye.ok) << bye.body;
  coord_thread.join();
}

/// A stand-in worker control endpoint. It answers `save` with `save_body`,
/// or closes the connection unanswered when that is empty, and answers
/// anything else `ok` until `exit`.
struct FakeWorker {
  net::Socket listener;
  std::thread thread;

  FakeWorker(net::Endpoint ep, std::string save_body)
      : listener(net::listen_on(ep)) {
    thread = std::thread([this, body = std::move(save_body)] {
      const net::Millis io(5000);
      try {
        for (;;) {
          net::Socket conn =
              net::accept_with_timeout(listener, net::Millis(30000), "fake");
          const svc::ControlFrame req =
              svc::recv_control(conn, net::FrameType::kRequest, io, "fake");
          const std::string& cmd = req.header.key;
          if (cmd == "save" && body.empty()) continue;  // close unanswered
          const std::string reply = cmd == "save" ? body : "ok";
          svc::send_control(
              conn, net::FrameType::kResponse, "", svc::kStatusOk,
              {reinterpret_cast<const std::byte*>(reply.data()), reply.size()},
              io, "fake");
          if (cmd == "exit") return;
        }
      } catch (const CheckFailure&) {
        // The test gave up on this worker; nothing left to serve.
      }
    });
  }
  ~FakeWorker() { thread.join(); }
};

/// The coordinator's reply to one `save` against kNodes fake workers, where
/// `answers[r]` says whether rank r replies ok at version 5.
svc::ControlReply save_against_fakes(const std::vector<bool>& answers) {
  TempDir dir;
  svc::CoordinatorConfig ccfg;
  ccfg.client_ep = net::Endpoint::uds(dir.path + "/client.sock");
  ccfg.opts = fast_opts(dir);
  ccfg.opts.connect_retries = 2;
  ccfg.data_k = kK;
  std::vector<std::unique_ptr<FakeWorker>> fakes;
  for (int r = 0; r < kNodes; ++r) {
    ccfg.worker_eps.push_back(net::Endpoint::uds(
        dir.path + "/ctl" + std::to_string(r) + ".sock"));
    svc::ShardReply reply;
    reply.version = 5;
    reply.iteration = 1;
    reply.digests[r] = 0x1000 + static_cast<std::uint64_t>(r);
    fakes.push_back(std::make_unique<FakeWorker>(
        ccfg.worker_eps.back(),
        answers[static_cast<std::size_t>(r)] ? reply.body() : ""));
  }
  svc::Coordinator coordinator(ccfg);
  std::thread coord_thread([&coordinator] { coordinator.run(); });
  const svc::ControlReply r =
      svc::client_request(ccfg.client_ep, "save", "job", ccfg.opts);
  svc::client_request(ccfg.client_ep, "shutdown", "", ccfg.opts);
  coord_thread.join();
  return r;
}

// §III-B: a version is recoverable once any k of its chunk rows are
// committed. A save whose reply from one rank is lost after k ranks
// committed is committed, and the reply names the rank it did not hear
// from; with only k−1 ok replies it failed.
TEST(ServiceProtocol, SaveCommitsOnceKRanksReplyOk) {
  {
    const svc::ControlReply r = save_against_fakes({true, true, false, true});
    ASSERT_TRUE(r.ok) << r.body;
    const svc::ShardReply s = svc::ShardReply::parse(r.body);
    EXPECT_EQ(s.version, 5);
    EXPECT_EQ(s.iteration, 1);
    EXPECT_EQ(s.lost, std::vector<int>{2});
    EXPECT_EQ(s.digests.size(), 3u);
    EXPECT_EQ(s.digests.count(2), 0u);
  }
  std::vector<bool> answers(kNodes, false);
  for (int r = 0; r < kK - 1; ++r) answers[static_cast<std::size_t>(r)] = true;
  const svc::ControlReply r = save_against_fakes(answers);
  EXPECT_FALSE(r.ok) << r.body;
  EXPECT_NE(r.body.find("save failed"), std::string::npos) << r.body;
}

TEST(ServiceDaemon, MultiJobSaveLoadKillRecoverBitExact) {
  TempDir dir;
  std::vector<std::unique_ptr<DaemonThread>> daemons;
  for (int r = 0; r < kNodes; ++r)
    daemons.push_back(std::make_unique<DaemonThread>(worker_config(dir, r)));

  svc::CoordinatorConfig ccfg;
  ccfg.client_ep = net::Endpoint::uds(dir.path + "/client.sock");
  for (int r = 0; r < kNodes; ++r)
    ccfg.worker_eps.push_back(net::Endpoint::uds(
        dir.path + "/ctl" + std::to_string(r) + ".sock"));
  ccfg.opts = fast_opts(dir);
  ccfg.opts.io_timeout = net::Millis(60000);
  ccfg.data_k = kK;
  ccfg.opts.connect_retries = 3;
  svc::Coordinator coordinator(ccfg);
  std::thread coord_thread([&coordinator] { coordinator.run(); });

  const net::TransportOptions copts = ccfg.opts;
  auto request = [&](const std::string& cmd, const std::string& args) {
    return svc::client_request(ccfg.client_ep, cmd, args, copts);
  };

  // Two jobs interleaved: versions advance independently per namespace.
  svc::ControlReply r = request("save", "jobA");
  ASSERT_TRUE(r.ok) << r.body;
  EXPECT_EQ(svc::ShardReply::parse(r.body).version, 1);
  EXPECT_EQ(svc::ShardReply::parse(r.body).digests, want_digests("jobA", 1));

  r = request("save", "jobB");
  ASSERT_TRUE(r.ok) << r.body;
  EXPECT_EQ(svc::ShardReply::parse(r.body).version, 1);

  r = request("save", "jobA");
  ASSERT_TRUE(r.ok) << r.body;
  EXPECT_EQ(svc::ShardReply::parse(r.body).version, 2);
  EXPECT_EQ(svc::ShardReply::parse(r.body).digests, want_digests("jobA", 2));

  // Orderly worker death (daemon exits, fabric listener closes): the next
  // save's collective tears; survivors roll it back and report the error.
  // Node 2 holds a data row in this placement, so recovery must decode
  // (workflow B) rather than just re-encode parity.
  const int victim = 2;
  svc::client_request(ccfg.worker_eps[victim], "exit", "", copts);
  daemons[victim].reset();  // joins the dead daemon's thread

  r = request("save", "jobA");
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.body.find("save failed"), std::string::npos) << r.body;

  r = request("status", "");
  ASSERT_TRUE(r.ok);
  EXPECT_NE(r.body.find("workers=3/4"), std::string::npos) << r.body;

  // The health endpoint in the torn-save aftermath: the dead worker shows
  // up as not alive, the failed save is counted against jobA with its
  // error preserved, and the last *committed* version is still 2 — the
  // torn version must not leak into health.
  r = request("health", "jobA");
  ASSERT_TRUE(r.ok) << r.body;
  {
    std::string perr;
    const std::unique_ptr<obs::JsonValue> doc =
        obs::JsonValue::parse(r.body, &perr);
    ASSERT_NE(doc, nullptr) << perr << ": " << r.body;
    const obs::JsonValue* workers = doc->find("workers");
    ASSERT_TRUE(workers != nullptr && workers->is_array()) << r.body;
    int alive = 0;
    for (const obs::JsonValue& w : workers->as_array()) {
      const obs::JsonValue* a = w.find("alive");
      ASSERT_NE(a, nullptr);
      if (a->as_bool()) ++alive;
    }
    EXPECT_EQ(alive, kNodes - 1) << r.body;
    const obs::JsonValue* jobs = doc->find("jobs");
    const obs::JsonValue* jobA = jobs != nullptr ? jobs->find("jobA") : nullptr;
    ASSERT_NE(jobA, nullptr) << r.body;
    EXPECT_EQ(jobA->find("last_version")->as_number(), 2);
    EXPECT_EQ(jobA->find("saves_ok")->as_number(), 2);
    EXPECT_EQ(jobA->find("saves_failed")->as_number(), 1);
    EXPECT_FALSE(jobA->find("last_error")->as_string().empty());
    EXPECT_EQ(jobs->find("jobB"), nullptr)
        << "the job filter must hide other jobs";
  }

  // Replacement on the same endpoints; both jobs recover bit-exactly.
  daemons[victim] = std::make_unique<DaemonThread>(worker_config(dir, victim));

  r = request("load", "jobA");
  ASSERT_TRUE(r.ok) << r.body;
  {
    const svc::ShardReply p = svc::ShardReply::parse(r.body);
    EXPECT_EQ(p.version, 2);
    EXPECT_EQ(p.iteration, 2);
    EXPECT_EQ(p.digests, want_digests("jobA", 2));
    EXPECT_NE(p.detail.find("workflow B"), std::string::npos)
        << "replacement rank lost its chunks, expected a decode: "
        << p.detail;
  }

  r = request("load", "jobB");
  ASSERT_TRUE(r.ok) << r.body;
  EXPECT_EQ(svc::ShardReply::parse(r.body).version, 1);
  EXPECT_EQ(svc::ShardReply::parse(r.body).digests, want_digests("jobB", 1));

  // Training resumes: the next save agrees on version 3 (the torn version
  // was rolled back everywhere) with a fresh iteration number.
  r = request("save", "jobA");
  ASSERT_TRUE(r.ok) << r.body;
  {
    const svc::ShardReply p = svc::ShardReply::parse(r.body);
    EXPECT_EQ(p.version, 3);
    EXPECT_EQ(p.iteration, 4);
    EXPECT_EQ(p.digests, want_digests("jobA", 4));
  }

  r = request("status", "");
  ASSERT_TRUE(r.ok);
  EXPECT_NE(r.body.find("workers=4/4"), std::string::npos) << r.body;

  // Health after recovery: everyone alive again, latency histograms have
  // one sample per completed operation.
  r = request("health", "");
  ASSERT_TRUE(r.ok) << r.body;
  {
    std::string perr;
    const std::unique_ptr<obs::JsonValue> doc =
        obs::JsonValue::parse(r.body, &perr);
    ASSERT_NE(doc, nullptr) << perr;
    int alive = 0;
    for (const obs::JsonValue& w : doc->find("workers")->as_array())
      if (w.find("alive")->as_bool()) ++alive;
    EXPECT_EQ(alive, kNodes);
    const obs::JsonValue* jobA = doc->find("jobs")->find("jobA");
    ASSERT_NE(jobA, nullptr);
    EXPECT_EQ(jobA->find("last_version")->as_number(), 3);
    EXPECT_EQ(jobA->find("saves_ok")->as_number(), 3);
    EXPECT_EQ(jobA->find("loads_ok")->as_number(), 1);
    EXPECT_EQ(jobA->find("save_latency_s")->find("count")->as_number(), 3);
    EXPECT_EQ(jobA->find("load_latency_s")->find("count")->as_number(), 1);
    ASSERT_NE(doc->find("jobs")->find("jobB"), nullptr)
        << "unfiltered health must list every job";
    EXPECT_GE(doc->find("queue_depth")->as_number(), 0);
  }

  // Aggregated fleet stats: per-worker sections plus a merged view that
  // actually sums the workers' fabric counters.
  r = request("stats", "");
  ASSERT_TRUE(r.ok) << r.body;
  {
    std::string perr;
    const std::unique_ptr<obs::JsonValue> doc =
        obs::JsonValue::parse(r.body, &perr);
    ASSERT_NE(doc, nullptr) << perr;
    const obs::JsonValue* workers = doc->find("workers");
    ASSERT_TRUE(workers != nullptr && workers->is_object());
    EXPECT_EQ(workers->as_object().size(), static_cast<std::size_t>(kNodes));
    const obs::JsonValue* agg = doc->find("aggregate");
    ASSERT_NE(agg, nullptr);
    double sum = 0;
    for (const auto& [name, snap] : workers->as_object()) {
      (void)name;
      const obs::JsonValue* c = snap.find("counters");
      const obs::JsonValue* v =
          c != nullptr ? c->find("net.send.count") : nullptr;
      if (v != nullptr) sum += v->as_number();
    }
    EXPECT_GT(sum, 0);
    EXPECT_EQ(agg->find("counters")->find("net.send.count")->as_number(), sum);
  }

  r = request("shutdown", "");
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.body, "bye");
  coord_thread.join();
}

/// Forked worker daemons; SIGKILLs and reaps any child still unreaped when
/// the test leaves early, so a failed assertion never strands a daemon.
struct ForkedDaemons {
  std::vector<pid_t> pids;

  ForkedDaemons() = default;
  ForkedDaemons(const ForkedDaemons&) = delete;
  ForkedDaemons& operator=(const ForkedDaemons&) = delete;
  ~ForkedDaemons() {
    for (pid_t pid : pids) {
      ::kill(pid, SIGKILL);
      ::waitpid(pid, nullptr, 0);
    }
  }

  /// Reap every child; true when each left through exit code 0.
  bool reap_all_clean() {
    bool clean = true;
    for (pid_t pid : pids) {
      int status = 0;
      clean &= ::waitpid(pid, &status, 0) == pid && WIFEXITED(status) &&
               WEXITSTATUS(status) == 0;
    }
    pids.clear();
    return clean;
  }
};

// The coordinator's `trace` and `stats` verbs across real processes: each
// worker daemon runs in its own forked process with its own tracer, and the
// coordinator in this one. The merged trace must hold every process and
// link spans across them (control frames from the coordinator, fabric
// frames between workers), aligned through the coordinator's `clock`
// ping-pong.
TEST(ServiceDaemon, ForkedWorkersMergeTraceAndStatsAcrossProcesses) {
  TempDir dir;
  obs::Tracer& tracer = obs::Tracer::global();
  // A child inherits the parent's span buffer; start every process empty.
  tracer.clear();
  ForkedDaemons workers;
  for (int r = 0; r < kNodes; ++r) {
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0) << "fork failed for worker " << r;
    if (pid == 0) {
      int rc = 0;
      try {
        tracer.enable();
        svc::WorkerDaemon daemon(worker_config(dir, r));
        daemon.run();
      } catch (...) {
        rc = 1;
      }
      ::_exit(rc);
    }
    workers.pids.push_back(pid);
  }

  tracer.enable();
  svc::CoordinatorConfig ccfg;
  ccfg.client_ep = net::Endpoint::uds(dir.path + "/client.sock");
  for (int r = 0; r < kNodes; ++r)
    ccfg.worker_eps.push_back(net::Endpoint::uds(
        dir.path + "/ctl" + std::to_string(r) + ".sock"));
  ccfg.opts = fast_opts(dir);
  ccfg.opts.io_timeout = net::Millis(60000);
  ccfg.data_k = kK;
  svc::Coordinator coordinator(ccfg);
  // No ASSERT until the coordinator thread is joined: leaving early would
  // destroy it joinable.
  std::thread coord_thread([&coordinator] { coordinator.run(); });
  auto request = [&](const std::string& cmd, const std::string& args) {
    return svc::client_request(ccfg.client_ep, cmd, args, ccfg.opts);
  };

  svc::ControlReply r = request("save", "jobT");
  EXPECT_TRUE(r.ok) << r.body;
  EXPECT_EQ(svc::ShardReply::parse(r.body).digests, want_digests("jobT", 1));
  r = request("load", "jobT");
  EXPECT_TRUE(r.ok) << r.body;
  EXPECT_EQ(svc::ShardReply::parse(r.body).digests, want_digests("jobT", 1));

  r = request("trace", "");
  EXPECT_TRUE(r.ok);
  const obs::MergedTraceCheck chk = obs::check_merged_trace(
      r.body, 1 + kNodes, /*require_all_resolved=*/false);
  EXPECT_TRUE(chk.ok) << chk.error;
  EXPECT_GE(chk.cross_process_links, 3u)
      << chk.spans << " spans from " << chk.processes << " processes";
  // The daemon hands its sessions the transport itself, so a service save
  // reaches SocketTransport::send_buffers' batched, flush-once path.
  EXPECT_NE(r.body.find("net.batch["), std::string::npos)
      << "no service save ran a batched send";

  r = request("stats", "");
  EXPECT_TRUE(r.ok) << r.body;
  {
    std::string perr;
    const std::unique_ptr<obs::JsonValue> doc =
        obs::JsonValue::parse(r.body, &perr);
    const obs::JsonValue* agg = doc ? doc->find("aggregate") : nullptr;
    const obs::JsonValue* counters = agg ? agg->find("counters") : nullptr;
    const obs::JsonValue* sends =
        counters ? counters->find("net.send.count") : nullptr;
    EXPECT_TRUE(sends != nullptr && sends->as_number() > 0)
        << "aggregate stats carry no fabric traffic: " << perr << r.body;
  }

  r = request("shutdown", "");
  EXPECT_EQ(r.body, "bye");
  coord_thread.join();
  tracer.disable();
  tracer.clear();
  EXPECT_TRUE(workers.reap_all_clean());
}

}  // namespace
}  // namespace eccheck
