// transport_cli — the real-socket transport demo: k+m worker *processes*
// connected by TCP or Unix-domain sockets run the ECCheck checkpoint
// protocol, the parent SIGKILLs live workers, spawns replacements on the
// same endpoints, and verifies recovery bit-exactly against a
// single-process VirtualFabric reference run of the very same protocol.
//
//   --mode engine     (default) the full ECCheck checkpoint engine SPMD
//                     across k+m processes: save a version, SIGKILL ranks
//                     so the next save tears mid-collective (survivors roll
//                     it back and reset their connections), fork
//                     replacements, recover, and save again — every digest
//                     and version verified against a single-process
//                     VirtualFabric reference run and the closed-form
//                     digests.
//   --mode peerdeath  a 3-rank broadcast where rank 1 dies before joining:
//                     ranks 0 and 2 must abort with CheckFailure inside the
//                     configured timeout budget (no hang) — the transport's
//                     graceful peer-death contract.
//   --mode daemon     the checkpoint *service*: a coordinator daemon plus
//                     k+m worker daemons; the parent acts as a client
//                     saving/loading two concurrent jobs over the CRC-acked
//                     control protocol, kills a worker, watches a save fail
//                     cleanly, replaces the worker, and recovers both jobs.
//
// Options: --k, --m, --gpn (workers per process, engine/daemon modes),
// --transport uds|tcp, --dir, --kill "a,b", --flush (remote flush during
// save), --keep (leave the work dir).
//
// Observability (engine/daemon modes): --trace-out F writes one merged,
// clock-aligned Chrome trace of every process — in daemon mode pulled
// through the coordinator's `trace` verb (ping-pong offset corrected), in
// engine mode merged from per-rank snapshot dumps aligned on the shared
// CLOCK_MONOTONIC epoch. --stats-json F writes the aggregated fleet stats
// (per-process + merged). Either flag enables the tracer in every forked
// process; the parent validates the merged trace with
// obs::check_merged_trace before declaring PASS.
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iomanip>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/fabric.hpp"
#include "core/session.hpp"
#include "dnn/checkpoint_gen.hpp"
#include "net/transport.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/distributed.hpp"
#include "obs/json.hpp"
#include "obs/stats.hpp"
#include "obs/tracer.hpp"
#include "svc/checkpoint_service.hpp"

namespace fs = std::filesystem;
using namespace eccheck;

namespace {

struct Args {
  std::string mode = "engine";
  int k = 4;
  int m = 2;
  int gpn = 2;  // workers (shards) per process in engine/daemon modes
  std::string transport = "uds";
  std::string dir;
  std::string kill_spec;  // default: "2,1"
  bool flush = false;
  bool keep = false;
  int io_timeout_ms = 5000;
  int connect_timeout_ms = 1000;
  std::string trace_out;  // merged Chrome trace path (engine/daemon modes)
  std::string stats_out;  // aggregated stats JSON path (engine/daemon modes)

  bool observed() const { return !trace_out.empty() || !stats_out.empty(); }
};

[[noreturn]] void usage_and_exit() {
  std::cerr
      << "usage: transport_cli [--mode engine|peerdeath|daemon]\n"
         "         [--k N] [--m N] [--gpn N]\n"
         "         [--transport uds|tcp] [--dir D] [--kill a,b] [--flush]\n"
         "         [--keep] [--io-timeout-ms N] [--connect-timeout-ms N]\n"
         "         [--trace-out F] [--stats-json F]   (engine/daemon modes)\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  auto need = [&](int& i) -> std::string {
    if (i + 1 >= argc) usage_and_exit();
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--mode") a.mode = need(i);
    else if (arg == "--k") a.k = std::stoi(need(i));
    else if (arg == "--m") a.m = std::stoi(need(i));
    else if (arg == "--gpn") a.gpn = std::stoi(need(i));
    else if (arg == "--transport") a.transport = need(i);
    else if (arg == "--dir") a.dir = need(i);
    else if (arg == "--kill") a.kill_spec = need(i);
    else if (arg == "--flush") a.flush = true;
    else if (arg == "--keep") a.keep = true;
    else if (arg == "--io-timeout-ms") a.io_timeout_ms = std::stoi(need(i));
    else if (arg == "--connect-timeout-ms")
      a.connect_timeout_ms = std::stoi(need(i));
    else if (arg == "--trace-out") a.trace_out = need(i);
    else if (arg == "--stats-json") a.stats_out = need(i);
    else usage_and_exit();
  }
  if (a.mode != "peerdeath" && a.mode != "engine" && a.mode != "daemon")
    usage_and_exit();
  if (a.transport != "uds" && a.transport != "tcp") usage_and_exit();
  if (a.k < 1 || a.m < 0 || a.gpn < 1) usage_and_exit();
  if (a.observed() && a.mode != "engine" && a.mode != "daemon") {
    std::cerr << "--trace-out/--stats-json need --mode engine or daemon\n";
    usage_and_exit();
  }
  return a;
}

// ---- tiny pipe helpers ----------------------------------------------------

/// Line-oriented read with a deadline, so a wedged worker can never hang
/// the parent (workers' own I/O is already time-bounded; this is backstop).
struct LineReader {
  int fd = -1;
  std::string buf;

  std::string read_line(int timeout_ms) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_ms);
    for (;;) {
      auto nl = buf.find('\n');
      if (nl != std::string::npos) {
        std::string line = buf.substr(0, nl);
        buf.erase(0, nl + 1);
        return line;
      }
      auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - std::chrono::steady_clock::now());
      if (left.count() <= 0)
        throw CheckFailure("parent: timed out waiting for worker status");
      struct pollfd p{fd, POLLIN, 0};
      int rc = ::poll(&p, 1, static_cast<int>(left.count()));
      if (rc < 0 && errno == EINTR) continue;
      if (rc <= 0)
        throw CheckFailure("parent: timed out waiting for worker status");
      char chunk[256];
      ssize_t n = ::read(fd, chunk, sizeof(chunk));
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0)
        throw CheckFailure("parent: worker closed its status pipe "
                           "(crashed before reporting)");
      buf.append(chunk, static_cast<std::size_t>(n));
    }
  }
};

void write_line(int fd, const std::string& line) {
  const std::string out = line + "\n";
  std::size_t off = 0;
  while (off < out.size()) {
    ssize_t n = ::write(fd, out.data() + off, out.size() - off);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return;  // dead child: caller notices via its status pipe
    off += static_cast<std::size_t>(n);
  }
}

struct WorkerHandle {
  pid_t pid = -1;
  int ctl_w = -1;     // parent → worker
  LineReader status;  // worker → parent
  bool killed = false;
};

// fds of every pipe ever created, so each child can close the ends that
// belong to its siblings (keeps EOF semantics and fd budgets clean).
std::vector<int> g_all_pipe_fds;

// ---- worker setup ---------------------------------------------------------

std::vector<net::Endpoint> make_endpoints(const Args& a) {
  std::vector<net::Endpoint> eps;
  for (int r = 0; r < a.k + a.m; ++r) {
    if (a.transport == "uds") {
      eps.push_back(
          net::Endpoint::uds(a.dir + "/rank" + std::to_string(r) + ".sock"));
    } else {
      // Pre-pick a free port per rank: bind :0, read the port back, close.
      // (The tiny reuse race is acceptable for a demo CLI; tests use UDS.)
      net::Endpoint probe = net::Endpoint::tcp("127.0.0.1", 0);
      net::Socket s = net::listen_on(probe);
      eps.push_back(probe);
    }
  }
  return eps;
}

net::TransportOptions transport_options(const Args& a) {
  net::TransportOptions o;
  o.io_timeout = net::Millis(a.io_timeout_ms);
  o.connect_timeout = net::Millis(a.connect_timeout_ms);
  o.remote_dir = a.dir + "/remote";
  return o;
}

/// Worker body for --mode peerdeath: rank 1 dies silently; 0 and 2 must
/// fail their broadcast with CheckFailure within the timeout budget.
[[noreturn]] void worker_peerdeath(const Args& a,
                                   const std::vector<net::Endpoint>& eps,
                                   int rank, int status_w) {
  auto status = [&](const std::string& s) { write_line(status_w, s); };
  if (rank == 1) ::_exit(0);  // never even binds its endpoint
  try {
    net::TransportOptions o = transport_options(a);
    o.connect_timeout = net::Millis(200);
    o.connect_retries = 4;
    o.backoff_max = net::Millis(100);
    o.io_timeout = net::Millis(1500);
    net::SocketTransport fabric(rank, eps, o);
    if (rank == 0) {
      Buffer blob(4096, Buffer::Init::kZeroed);
      fabric.store(0).put("blob", std::move(blob));
    }
    const auto t0 = std::chrono::steady_clock::now();
    try {
      fabric.broadcast({0, 1, 2}, 0, "blob");
      status("ERROR broadcast with a dead peer unexpectedly succeeded");
      ::_exit(1);
    } catch (const CheckFailure&) {
      const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
      status("PEERDEATH " + std::to_string(ms));
      ::_exit(0);
    }
  } catch (const std::exception& e) {
    status(std::string("ERROR ") + e.what());
    ::_exit(1);
  }
}

/// Fork a process running `body(ctl_read_fd, status_write_fd)`.
WorkerHandle spawn_proc(const std::function<void(int, int)>& body) {
  int ctl[2], st[2];
  ECC_CHECK(::pipe(ctl) == 0 && ::pipe(st) == 0);
  for (int fd : {ctl[0], ctl[1], st[0], st[1]}) g_all_pipe_fds.push_back(fd);
  pid_t pid = ::fork();
  ECC_CHECK_MSG(pid >= 0, "fork failed");
  if (pid == 0) {
    for (int fd : g_all_pipe_fds)
      if (fd != ctl[0] && fd != st[1]) ::close(fd);
    body(ctl[0], st[1]);
    ::_exit(0);
  }
  WorkerHandle h;
  h.pid = pid;
  h.ctl_w = ctl[1];
  h.status.fd = st[0];
  return h;
}

std::vector<int> parse_kill_list(const Args& a) {
  // Defaults kill one data + one parity holder: the engine placement
  // interleaves (node 2 data, node 1 parity), so recovery must also
  // exercise the decode path.
  const std::string spec = a.kill_spec.empty() ? "2,1" : a.kill_spec;
  std::vector<int> out;
  std::istringstream is(spec);
  for (std::string tok; std::getline(is, tok, ',');)
    out.push_back(std::stoi(tok));
  for (int r : out)
    ECC_CHECK_MSG(r >= 0 && r < a.k + a.m, "--kill rank out of range: " << r);
  ECC_CHECK_MSG(static_cast<int>(out.size()) <= a.m,
                "--kill names more ranks than parity can recover");
  return out;
}

std::string slurp(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  ECC_CHECK_MSG(f.good(), "missing file " << path);
  std::ostringstream os;
  os << f.rdbuf();
  return os.str();
}

void write_text_file(const std::string& path, const std::string& body) {
  std::ofstream f(path, std::ios::binary);
  f << body;
  ECC_CHECK_MSG(f.good(), "cannot write " << path);
}

void print_net_counters(const obs::StatsRegistry& agg) {
  std::cout << "  net: accepted=" << agg.counter("net.accept.count")
            << " connects=" << agg.counter("net.connect.count")
            << " retries=" << agg.counter("net.retry.count")
            << " resets=" << agg.counter("net.reset.connections")
            << " io_errors=" << agg.counter("net.io_error.count")
            << " trace_dropped=" << agg.counter("obs.tracer.dropped") << "\n";
}

int run_peerdeath(const Args& a) {
  Args a3 = a;
  a3.k = 2;
  a3.m = 1;  // 3 endpoints
  std::vector<net::Endpoint> eps = make_endpoints(a3);
  std::vector<WorkerHandle> w;
  for (int r = 0; r < 3; ++r)
    w.push_back(spawn_proc([&](int, int status_w) {
      worker_peerdeath(a3, eps, r, status_w);
    }));
  ::waitpid(w[1].pid, nullptr, 0);  // rank 1 exits immediately
  bool ok = true;
  for (int r : {0, 2}) {
    const std::string line = w[static_cast<std::size_t>(r)].status.read_line(30000);
    std::cout << "  rank " << r << " " << line << "\n";
    if (line.rfind("PEERDEATH ", 0) != 0) {
      ok = false;
    } else {
      const long ms = std::stol(line.substr(10));
      if (ms > 15000) {
        std::cerr << "rank " << r << " took " << ms
                  << " ms to detect the dead peer (budget 15000)\n";
        ok = false;
      }
    }
    ::waitpid(w[static_cast<std::size_t>(r)].pid, nullptr, 0);
  }
  if (ok)
    std::cout << "PASS: both survivors reported CheckFailure within the "
                 "timeout budget\n";
  return ok ? 0 : 1;
}

// ---- --mode engine: the checkpoint engine SPMD across processes -----------

std::string hex64(std::uint64_t v) {
  std::ostringstream os;
  os << std::hex << v;
  return os.str();
}

core::ECCheckConfig engine_ec_config(const Args& a) {
  core::ECCheckConfig ec;
  ec.k = a.k;
  ec.m = a.m;
  ec.packet_size = 16 * 1024;
  ec.flush_to_remote = a.flush;
  return ec;
}

/// Endpoints that are not the fabric's own (control sockets, the client
/// socket): UDS paths under the work dir, or pre-picked free TCP ports.
std::vector<net::Endpoint> named_endpoints(const Args& a, int count,
                                           const std::string& stem) {
  std::vector<net::Endpoint> eps;
  for (int r = 0; r < count; ++r) {
    if (a.transport == "uds") {
      eps.push_back(net::Endpoint::uds(a.dir + "/" + stem +
                                       std::to_string(r) + ".sock"));
    } else {
      net::Endpoint probe = net::Endpoint::tcp("127.0.0.1", 0);
      net::Socket s = net::listen_on(probe);
      eps.push_back(probe);
    }
  }
  return eps;
}

/// Serialize the driven shards' digests as " w<worker>:<hex>" tokens.
std::string digest_tokens(const std::vector<int>& workers,
                          const std::vector<dnn::StateDict>& shards) {
  std::ostringstream os;
  for (std::size_t i = 0; i < workers.size(); ++i)
    os << " w" << workers[i] << ":" << hex64(shards[i].digest());
  return os.str();
}

/// Parse "<PREFIX> <version> w0:hex w2:hex ..." worker reports.
struct ShardReport {
  std::int64_t version = 0;
  std::map<int, std::string> digests;  // worker → hex digest
};

ShardReport parse_shard_report(const std::string& line,
                               const std::string& prefix) {
  ECC_CHECK_MSG(line.rfind(prefix, 0) == 0, "expected '" << prefix
                                                         << "...', got '"
                                                         << line << "'");
  std::istringstream is(line.substr(prefix.size()));
  ShardReport rep;
  is >> rep.version;
  for (std::string tok; is >> tok;) {
    const auto colon = tok.find(':');
    ECC_CHECK_MSG(tok[0] == 'w' && colon != std::string::npos,
                  "bad shard token '" << tok << "'");
    rep.digests[std::stoi(tok.substr(1, colon - 1))] = tok.substr(colon + 1);
  }
  return rep;
}

/// The closed-form expectation: digests every process can derive from
/// (job, iteration) alone — what recovery must reproduce bit-exactly.
std::map<int, std::string> expected_digests(const std::string& job,
                                            std::int64_t iteration,
                                            int world) {
  const dnn::CheckpointGenConfig gen =
      svc::job_gen_config(job, iteration, world);
  std::map<int, std::string> out;
  for (int w = 0; w < world; ++w)
    out[w] = hex64(dnn::make_worker_state_dict(gen, w).digest());
  return out;
}

std::string snapshot_dump_path(const Args& a, int rank) {
  return a.dir + "/out/obs-rank" + std::to_string(rank) + ".json";
}

/// Worker body for --mode engine: a FabricSession over real sockets, driven
/// by SAVE/RESET/LOAD/EXIT lines from the parent.
[[noreturn]] void worker_engine(const Args& a,
                                const std::vector<net::Endpoint>& eps,
                                int rank, int ctl_r, int status_w) {
  LineReader ctl{ctl_r, {}};
  auto status = [&](const std::string& s) { write_line(status_w, s); };
  if (a.observed()) obs::Tracer::global().enable();
  try {
    net::SocketTransport fabric(rank, eps, transport_options(a));
    core::FabricSession session(fabric, engine_ec_config(a), a.gpn,
                                /*retain_versions=*/2);
    const int world = fabric.world_size() * a.gpn;
    const std::vector<int> workers = session.driven_workers();
    status("READY");
    for (;;) {
      const std::string line = ctl.read_line(600000);
      if (line.rfind("SAVE ", 0) == 0) {
        const std::int64_t iter = std::stoll(line.substr(5));
        std::string reply;
        {
          // Each command roots a fresh distributed trace at this rank; the
          // collective's frames carry the context to every peer, so the
          // merged file shows one tree per command per rank.
          obs::ScopedTraceContext tctx(
              a.observed() ? obs::Tracer::new_trace_id() : 0, 0);
          obs::ScopedSpan root("engine.save:" + std::to_string(iter));
          try {
            const dnn::CheckpointGenConfig gen =
                svc::job_gen_config("engine", iter, world);
            std::vector<dnn::StateDict> mine;
            for (int w : workers)
              mine.push_back(dnn::make_worker_state_dict(gen, w));
            std::vector<const dnn::StateDict*> ptrs;
            for (const dnn::StateDict& sd : mine) ptrs.push_back(&sd);
            session.save(ptrs);
            std::ostringstream os;
            os << "SAVED " << session.latest_version()
               << digest_tokens(workers, mine);
            reply = os.str();
          } catch (const CheckFailure&) {
            // Torn collective: FabricSession already rolled the version back.
            reply = "SAVEFAIL";
          }
        }
        status(reply);
      } else if (line == "RESET") {
        fabric.reset_all_peers();
        status("RESETOK");
      } else if (line == "LOAD") {
        std::string reply;
        {
          obs::ScopedTraceContext tctx(
              a.observed() ? obs::Tracer::new_trace_id() : 0, 0);
          obs::ScopedSpan root("engine.load");
          std::vector<dnn::StateDict> out;
          const core::FabricSession::RecoverResult res = session.load(out);
          std::ostringstream os;
          os << "LOADED " << res.version << digest_tokens(workers, out);
          reply = os.str();
        }
        status(reply);
      } else if (line == "EXIT") {
        if (a.observed()) {
          // All spans are closed here (commands scope theirs), so the
          // snapshot is complete; _exit below skips destructors by design.
          std::ofstream f(snapshot_dump_path(a, rank));
          f << obs::serialize_snapshot(obs::Tracer::global(), &fabric.stats(),
                                       "rank" + std::to_string(rank));
        }
        ::_exit(0);
      } else {
        throw CheckFailure("worker: unexpected control '" + line + "'");
      }
    }
  } catch (const std::exception& e) {
    status(std::string("ERROR ") + e.what());
    ::_exit(1);
  }
}

/// Merge the per-rank snapshot dumps written at EXIT into one Chrome trace
/// and one aggregated stats document. Engine mode has no coordinator to
/// ping-pong against, but every rank runs on this host: each snapshot's
/// (clock_ns, abs_ns) pair anchors its tracer epoch on the shared
/// CLOCK_MONOTONIC timeline, so alignment is exact, not estimated.
void merge_engine_observability(const Args& a, int total) {
  std::vector<std::string> snaps;
  std::vector<std::int64_t> epoch_abs;
  for (int r = 0; r < total; ++r) {
    snaps.push_back(slurp(snapshot_dump_path(a, r)));
    std::string perr;
    const std::unique_ptr<obs::JsonValue> doc =
        obs::JsonValue::parse(snaps.back(), &perr);
    ECC_CHECK_MSG(doc != nullptr, "rank " << r << " snapshot: " << perr);
    const obs::JsonValue* clock = doc->find("clock_ns");
    const obs::JsonValue* abs = doc->find("abs_ns");
    ECC_CHECK_MSG(clock != nullptr && abs != nullptr,
                  "rank " << r << " snapshot has no clock anchor");
    epoch_abs.push_back(static_cast<std::int64_t>(abs->as_number()) -
                        static_cast<std::int64_t>(clock->as_number()));
  }
  const std::int64_t base =
      *std::min_element(epoch_abs.begin(), epoch_abs.end());

  obs::ChromeTraceWriter w;
  obs::StatsRegistry agg;
  std::ostringstream per_rank;
  for (int r = 0; r < total; ++r) {
    std::string err;
    ECC_CHECK_MSG(obs::append_snapshot_to_trace(
                      w, snaps[static_cast<std::size_t>(r)], "",
                      epoch_abs[static_cast<std::size_t>(r)] - base, &err),
                  "rank " << r << ": " << err);
    ECC_CHECK_MSG(obs::accumulate_snapshot_stats(
                      snaps[static_cast<std::size_t>(r)], agg, &err),
                  "rank " << r << ": " << err);
    obs::StatsRegistry one;
    obs::accumulate_snapshot_stats(snaps[static_cast<std::size_t>(r)], one,
                                   &err);
    per_rank << (r ? "," : "") << "\"rank" << r << "\":" << one.to_json();
  }

  if (!a.trace_out.empty()) {
    std::ostringstream os;
    w.write(os);
    const std::string trace = os.str();
    // The ranks the demo SIGKILLed took their buffers with them, so their
    // send spans are legitimately unresolvable by survivors' recv spans.
    const obs::MergedTraceCheck chk = obs::check_merged_trace(
        trace, static_cast<std::size_t>(total), /*require_all_resolved=*/false);
    ECC_CHECK_MSG(chk.ok, "merged trace check: " << chk.error);
    ECC_CHECK_MSG(chk.cross_process_links >= 3,
                  "only " << chk.cross_process_links
                          << " cross-process links in the merged trace");
    write_text_file(a.trace_out, trace);
    std::cout << "  trace: " << chk.spans << " spans across " << chk.processes
              << " processes, " << chk.cross_process_links
              << " cross-process links (" << chk.unresolved_parents
              << " parents lost with killed ranks) -> " << a.trace_out << "\n";
  }
  if (!a.stats_out.empty()) {
    write_text_file(a.stats_out, "{\"ranks\":{" + per_rank.str() +
                                     "},\"aggregate\":" + agg.to_json() + "}");
    std::cout << "  stats -> " << a.stats_out << "\n";
  }
  print_net_counters(agg);
}

int run_engine(const Args& a) {
  const int total = a.k + a.m;
  const int world = total * a.gpn;
  ECC_CHECK_MSG(world % a.k == 0,
                "(k+m)*gpn must be divisible by k; got world "
                    << world << ", k " << a.k);
  const std::vector<int> to_kill = parse_kill_list(a);
  const std::vector<net::Endpoint> eps = make_endpoints(a);

  std::cout << "transport_cli engine: " << a.k << "+" << a.m << " ranks x "
            << a.gpn << " workers over " << a.transport << ", dir " << a.dir
            << "\n";

  auto spawn_rank = [&](int r) {
    return spawn_proc([&a, &eps, r](int ctl_r, int status_w) {
      worker_engine(a, eps, r, ctl_r, status_w);
    });
  };
  auto broadcast = [&](std::vector<WorkerHandle>& w, const std::string& cmd,
                       const std::vector<int>& ranks) {
    for (int r : ranks) write_line(w[static_cast<std::size_t>(r)].ctl_w, cmd);
  };
  auto collect = [&](std::vector<WorkerHandle>& w,
                     const std::vector<int>& ranks, int timeout_ms) {
    std::vector<std::string> lines(w.size());
    for (int r : ranks)
      lines[static_cast<std::size_t>(r)] =
          w[static_cast<std::size_t>(r)].status.read_line(timeout_ms);
    return lines;
  };
  std::vector<int> all_ranks(static_cast<std::size_t>(total));
  for (int r = 0; r < total; ++r) all_ranks[static_cast<std::size_t>(r)] = r;
  std::vector<int> survivors;
  for (int r = 0; r < total; ++r)
    if (std::find(to_kill.begin(), to_kill.end(), r) == to_kill.end())
      survivors.push_back(r);

  // ---- save v1, then SIGKILL so the next save tears ----------------------
  std::vector<WorkerHandle> w;
  for (int r = 0; r < total; ++r) w.push_back(spawn_rank(r));
  for (const std::string& l : collect(w, all_ranks, 60000))
    ECC_CHECK_MSG(l == "READY", "worker: " << l);
  broadcast(w, "SAVE 1", all_ranks);
  for (const std::string& l : collect(w, all_ranks, 120000)) {
    const ShardReport rep = parse_shard_report(l, "SAVED ");
    ECC_CHECK_MSG(rep.version == 1, "first save landed on version "
                                        << rep.version);
  }
  std::cout << "  saved version 1 across " << total << " processes\n";

  for (int r : to_kill) {
    auto& h = w[static_cast<std::size_t>(r)];
    std::cout << "  SIGKILL rank " << r << " (pid " << h.pid << ")\n";
    ::kill(h.pid, SIGKILL);
    ::waitpid(h.pid, nullptr, 0);
    h.killed = true;
  }
  broadcast(w, "SAVE 2", survivors);
  for (int r : survivors) {
    const std::string l =
        w[static_cast<std::size_t>(r)].status.read_line(120000);
    ECC_CHECK_MSG(l == "SAVEFAIL",
                  "rank " << r << ": torn save did not fail cleanly: " << l);
  }
  std::cout << "  torn save rolled back on " << survivors.size()
            << " survivors\n";
  broadcast(w, "RESET", survivors);
  for (int r : survivors)
    ECC_CHECK(w[static_cast<std::size_t>(r)].status.read_line(30000) ==
              "RESETOK");

  // ---- replacements join, everyone recovers v1, then saves v2 ------------
  for (int r : to_kill) w[static_cast<std::size_t>(r)] = spawn_rank(r);
  for (int r : to_kill)
    ECC_CHECK(w[static_cast<std::size_t>(r)].status.read_line(60000) ==
              "READY");
  broadcast(w, "LOAD", all_ranks);
  std::map<int, std::string> loaded;
  for (const std::string& l : collect(w, all_ranks, 120000)) {
    const ShardReport rep = parse_shard_report(l, "LOADED ");
    ECC_CHECK_MSG(rep.version == 1, "recovered version " << rep.version);
    loaded.insert(rep.digests.begin(), rep.digests.end());
  }
  broadcast(w, "SAVE 3", all_ranks);
  std::map<int, std::string> resaved;
  for (const std::string& l : collect(w, all_ranks, 120000)) {
    const ShardReport rep = parse_shard_report(l, "SAVED ");
    ECC_CHECK_MSG(rep.version == 2, "post-recovery save landed on version "
                                        << rep.version
                                        << " (torn v2 not rolled back?)");
    resaved.insert(rep.digests.begin(), rep.digests.end());
  }
  broadcast(w, "EXIT", all_ranks);
  for (int r = 0; r < total; ++r)
    ::waitpid(w[static_cast<std::size_t>(r)].pid, nullptr, 0);

  if (a.observed()) merge_engine_observability(a, total);

  // ---- single-process VirtualFabric reference of the same history --------
  cluster::ClusterConfig ccfg;
  ccfg.num_nodes = total;
  ccfg.gpus_per_node = a.gpn;
  cluster::VirtualCluster vc(ccfg);
  cluster::VirtualFabric ref(vc);
  std::map<int, std::string> ref_loaded;
  {
    core::FabricSession session(ref, engine_ec_config(a), a.gpn, 2);
    const dnn::CheckpointGenConfig gen =
        svc::job_gen_config("engine", 1, world);
    std::vector<dnn::StateDict> shards;
    for (int wk : session.driven_workers())
      shards.push_back(dnn::make_worker_state_dict(gen, wk));
    std::vector<const dnn::StateDict*> ptrs;
    for (const dnn::StateDict& sd : shards) ptrs.push_back(&sd);
    session.save(ptrs);
  }
  for (int r : to_kill) vc.kill(r);
  for (int r : to_kill) vc.replace(r);
  {
    core::FabricSession session(ref, engine_ec_config(a), a.gpn, 2);
    std::vector<dnn::StateDict> out;
    const core::FabricSession::RecoverResult res = session.load(out);
    ECC_CHECK(res.version == 1);
    const std::vector<int> workers = session.driven_workers();
    for (std::size_t i = 0; i < workers.size(); ++i)
      ref_loaded[workers[i]] = hex64(out[i].digest());
  }

  bool ok = true;
  const std::map<int, std::string> want1 = expected_digests("engine", 1, world);
  const std::map<int, std::string> want3 = expected_digests("engine", 3, world);
  if (loaded != ref_loaded || loaded != want1) {
    std::cerr << "MISMATCH: recovered digests disagree with "
              << (loaded == ref_loaded ? "closed form" : "reference") << "\n";
    ok = false;
  }
  if (resaved != want3) {
    std::cerr << "MISMATCH: post-recovery save digests\n";
    ok = false;
  }
  if (ok)
    std::cout << "PASS: engine over sockets — torn save rolled back, "
              << world << " shards recovered bit-exact vs VirtualFabric "
                          "reference, training resumed at version 2\n";
  return ok ? 0 : 1;
}

// ---- --mode daemon: coordinator + worker daemons + client ------------------

int run_daemon(const Args& a) {
  const int total = a.k + a.m;
  const int world = total * a.gpn;
  ECC_CHECK_MSG(world % a.k == 0,
                "(k+m)*gpn must be divisible by k; got world "
                    << world << ", k " << a.k);
  const std::vector<net::Endpoint> fabric_eps = make_endpoints(a);
  const std::vector<net::Endpoint> ctl_eps = named_endpoints(a, total, "ctl");
  const net::Endpoint client_ep = named_endpoints(a, 1, "client")[0];

  std::cout << "transport_cli daemon: coordinator + " << total
            << " workers x " << a.gpn << " shards over " << a.transport
            << ", dir " << a.dir << "\n";

  net::TransportOptions co_opts = transport_options(a);
  // A save response only arrives after the whole collective resolves (or
  // times out), so the control channel's budget must dominate the fabric's.
  co_opts.io_timeout = net::Millis(std::max(60000, a.io_timeout_ms * 8));
  co_opts.connect_retries = 3;
  co_opts.backoff_max = net::Millis(200);

  auto spawn_worker_daemon = [&](int rank) {
    return spawn_proc([&, rank](int, int status_w) {
      try {
        if (a.observed()) obs::Tracer::global().enable();
        svc::WorkerDaemonConfig cfg;
        cfg.rank = rank;
        cfg.fabric_eps = fabric_eps;
        cfg.control_ep = ctl_eps[static_cast<std::size_t>(rank)];
        cfg.fabric_opts = transport_options(a);
        cfg.ec = engine_ec_config(a);
        cfg.gpus_per_node = a.gpn;
        svc::WorkerDaemon daemon(std::move(cfg));
        write_line(status_w, "READY");
        daemon.run();
        ::_exit(0);
      } catch (const std::exception& e) {
        write_line(status_w, std::string("ERROR ") + e.what());
        ::_exit(1);
      }
    });
  };
  std::vector<WorkerHandle> workers;
  for (int r = 0; r < total; ++r) workers.push_back(spawn_worker_daemon(r));
  for (int r = 0; r < total; ++r)
    ECC_CHECK_MSG(workers[static_cast<std::size_t>(r)].status.read_line(
                      60000) == "READY",
                  "worker daemon " << r << " failed to start");

  WorkerHandle coord = spawn_proc([&](int, int status_w) {
    try {
      if (a.observed()) obs::Tracer::global().enable();
      svc::CoordinatorConfig cfg;
      cfg.client_ep = client_ep;
      cfg.worker_eps = ctl_eps;
      cfg.opts = co_opts;
      svc::Coordinator c(std::move(cfg));
      write_line(status_w, "READY");
      c.run();
      ::_exit(0);
    } catch (const std::exception& e) {
      write_line(status_w, std::string("ERROR ") + e.what());
      ::_exit(1);
    }
  });
  ECC_CHECK_MSG(coord.status.read_line(60000) == "READY",
                "coordinator failed to start");

  // ---- the parent is now a client of the service -------------------------
  auto request = [&](const std::string& command, const std::string& args) {
    return svc::client_request(client_ep, command, args, co_opts);
  };
  auto check_shards = [&](const std::string& body, const std::string& job) {
    // body: "version=V iteration=I wN:hex ... [; detail]"
    std::istringstream is(body);
    std::string tok;
    std::int64_t version = 0, iteration = 0;
    std::map<int, std::string> got;
    while (is >> tok) {
      if (tok == ";") break;
      if (tok.rfind("version=", 0) == 0) version = std::stoll(tok.substr(8));
      else if (tok.rfind("iteration=", 0) == 0)
        iteration = std::stoll(tok.substr(10));
      else if (tok[0] == 'w' && tok.find(':') != std::string::npos) {
        const auto colon = tok.find(':');
        got[std::stoi(tok.substr(1, colon - 1))] = tok.substr(colon + 1);
      }
    }
    ECC_CHECK_MSG(iteration > 0, "no iteration in reply '" << body << "'");
    std::map<int, std::string> want;
    const dnn::CheckpointGenConfig gen =
        svc::job_gen_config(job, iteration, world);
    for (int wk = 0; wk < world; ++wk) {
      std::ostringstream hx;
      hx << std::hex << std::setw(16) << std::setfill('0')
         << dnn::make_worker_state_dict(gen, wk).digest();
      want[wk] = hx.str();
    }
    ECC_CHECK_MSG(got == want, "digests disagree with closed form for job "
                                   << job << ": '" << body << "'");
    return version;
  };
  auto expect_ok = [&](const svc::ControlReply& r, const std::string& what) {
    ECC_CHECK_MSG(r.ok, what << " failed: " << r.body);
    return r.body;
  };

  bool ok = true;
  try {
    std::cout << "  status: " << expect_ok(request("status", ""), "status")
              << "\n";
    ECC_CHECK(check_shards(expect_ok(request("save", "jobA"), "save jobA"),
                           "jobA") == 1);
    ECC_CHECK(check_shards(expect_ok(request("save", "jobB"), "save jobB"),
                           "jobB") == 1);
    ECC_CHECK(check_shards(expect_ok(request("save", "jobA"), "save jobA"),
                           "jobA") == 2);
    std::cout << "  saved jobA v1,v2 and jobB v1 through the service\n";

    const int victim = parse_kill_list(a).front();
    auto& vh = workers[static_cast<std::size_t>(victim)];
    std::cout << "  SIGKILL worker " << victim << " (pid " << vh.pid
              << ")\n";
    ::kill(vh.pid, SIGKILL);
    ::waitpid(vh.pid, nullptr, 0);

    const svc::ControlReply torn = request("save", "jobA");
    ECC_CHECK_MSG(!torn.ok,
                  "save with a dead worker unexpectedly ok: " << torn.body);
    std::cout << "  torn save reported: " << torn.body << "\n";
    const std::string st = expect_ok(request("status", ""), "status");
    ECC_CHECK_MSG(st.find("workers=" + std::to_string(total - 1) + "/" +
                          std::to_string(total)) != std::string::npos,
                  "status does not show the dead worker: " << st);

    workers[static_cast<std::size_t>(victim)] = spawn_worker_daemon(victim);
    ECC_CHECK(workers[static_cast<std::size_t>(victim)].status.read_line(
                  60000) == "READY");
    std::cout << "  replacement worker " << victim << " joined\n";

    const std::string loadA =
        expect_ok(request("load", "jobA"), "load jobA");
    ECC_CHECK_MSG(check_shards(loadA, "jobA") == 2,
                  "jobA recovered wrong version: " << loadA);
    std::cout << "  load jobA: " << loadA << "\n";
    const std::string loadB =
        expect_ok(request("load", "jobB"), "load jobB");
    ECC_CHECK_MSG(check_shards(loadB, "jobB") == 1,
                  "jobB recovered wrong version: " << loadB);
    std::cout << "  load jobB: " << loadB << "\n";

    ECC_CHECK(check_shards(expect_ok(request("save", "jobA"), "save jobA"),
                           "jobA") == 3);
    std::cout << "  post-recovery save jobA landed on version 3\n";

    // ---- live job-health endpoint -----------------------------------------
    const std::string health = expect_ok(request("health", ""), "health");
    {
      std::string perr;
      const std::unique_ptr<obs::JsonValue> doc =
          obs::JsonValue::parse(health, &perr);
      ECC_CHECK_MSG(doc != nullptr, "health is not JSON: " << perr);
      const obs::JsonValue* jobs = doc->find("jobs");
      const obs::JsonValue* jobA =
          jobs != nullptr ? jobs->find("jobA") : nullptr;
      const obs::JsonValue* ver =
          jobA != nullptr ? jobA->find("last_version") : nullptr;
      ECC_CHECK_MSG(ver != nullptr && ver->as_number() == 3,
                    "health does not show jobA at version 3: " << health);
      const obs::JsonValue* ws = doc->find("workers");
      std::size_t alive = 0;
      if (ws != nullptr && ws->is_array())
        for (const obs::JsonValue& wj : ws->as_array()) {
          const obs::JsonValue* a_ = wj.find("alive");
          if (a_ != nullptr && a_->is_bool() && a_->as_bool()) ++alive;
        }
      ECC_CHECK_MSG(alive == static_cast<std::size_t>(total),
                    "health shows " << alive << "/" << total
                                    << " workers alive: " << health);
      std::cout << "  health: jobA v3, " << alive << "/" << total
                << " workers alive, saves_failed="
                << (jobA->find("saves_failed") != nullptr
                        ? jobA->find("saves_failed")->as_number()
                        : -1)
                << "\n";
    }

    // ---- merged trace + aggregated stats through the coordinator ----------
    if (!a.trace_out.empty()) {
      const std::string trace = expect_ok(request("trace", ""), "trace");
      // One worker was SIGKILLed mid-save: its buffers died with it, so
      // survivors' recv spans may carry unresolvable parents — expected.
      const obs::MergedTraceCheck chk = obs::check_merged_trace(
          trace, std::min<std::size_t>(4, 1 + static_cast<std::size_t>(total)),
          /*require_all_resolved=*/false);
      ECC_CHECK_MSG(chk.ok, "merged trace check: " << chk.error);
      ECC_CHECK_MSG(chk.cross_process_links >= 3,
                    "only " << chk.cross_process_links
                            << " cross-process links in the merged trace");
      write_text_file(a.trace_out, trace);
      std::cout << "  trace: " << chk.spans << " spans across "
                << chk.processes << " processes, " << chk.cross_process_links
                << " cross-process links (" << chk.unresolved_parents
                << " parents lost with the killed worker) -> " << a.trace_out
                << "\n";
    }
    if (a.observed()) {
      const std::string stats = expect_ok(request("stats", ""), "stats");
      if (!a.stats_out.empty()) {
        write_text_file(a.stats_out, stats);
        std::cout << "  stats -> " << a.stats_out << "\n";
      }
      std::string perr;
      const std::unique_ptr<obs::JsonValue> doc =
          obs::JsonValue::parse(stats, &perr);
      ECC_CHECK_MSG(doc != nullptr, "stats is not JSON: " << perr);
      const obs::JsonValue* aggregate = doc->find("aggregate");
      ECC_CHECK_MSG(aggregate != nullptr && aggregate->is_object(),
                    "stats has no aggregate object");
      const obs::JsonValue* counters = aggregate->find("counters");
      auto c = [&](const std::string& name) -> std::uint64_t {
        const obs::JsonValue* v =
            counters != nullptr ? counters->find(name) : nullptr;
        return v != nullptr && v->is_number()
                   ? static_cast<std::uint64_t>(v->as_number())
                   : 0;
      };
      ECC_CHECK_MSG(c("net.send.count") > 0,
                    "aggregate stats carry no fabric traffic");
      std::cout << "  net: accepted=" << c("net.accept.count")
                << " connects=" << c("net.connect.count")
                << " retries=" << c("net.retry.count")
                << " resets=" << c("net.reset.connections")
                << " io_errors=" << c("net.io_error.count")
                << " trace_dropped=" << c("obs.tracer.dropped") << "\n";
    }
  } catch (const std::exception& e) {
    std::cerr << "daemon cycle failed: " << e.what() << "\n";
    ok = false;
  }

  const svc::ControlReply bye = request("shutdown", "");
  ECC_CHECK_MSG(bye.ok && bye.body == "bye", "shutdown: " << bye.body);
  ::waitpid(coord.pid, nullptr, 0);
  for (int r = 0; r < total; ++r)
    ::waitpid(workers[static_cast<std::size_t>(r)].pid, nullptr, 0);

  if (ok)
    std::cout << "PASS: daemon service — 2 jobs saved/recovered bit-exact "
                 "through coordinator, worker death handled: torn save "
                 "failed fast, replacement rejoined, training resumed\n";
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  ::signal(SIGPIPE, SIG_IGN);
  Args a = parse_args(argc, argv);
  if (a.dir.empty()) {
    char tmpl[] = "/tmp/eccheck-net-XXXXXX";
    ECC_CHECK(::mkdtemp(tmpl) != nullptr);
    a.dir = tmpl;
  } else {
    fs::create_directories(a.dir);
  }
  fs::create_directories(a.dir + "/remote");
  fs::create_directories(a.dir + "/out");

  int rc = 1;
  try {
    if (a.mode == "peerdeath") rc = run_peerdeath(a);
    else if (a.mode == "engine") rc = run_engine(a);
    else rc = run_daemon(a);
  } catch (const std::exception& e) {
    std::cerr << "transport_cli: " << e.what() << "\n";
    rc = 1;
  }
  if (!a.keep) {
    std::error_code ec;
    fs::remove_all(a.dir, ec);
  } else {
    std::cout << "work dir kept: " << a.dir << "\n";
  }
  return rc;
}
