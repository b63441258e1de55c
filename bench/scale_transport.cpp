// Many-rank transport scaling bench: fork one real process per rank (UDS
// loopback, 32 by default — the shape of a rack-local training job) and
// drive whole checkpoint save cycles through core::fabric_save, A/B over
// the transport's ack window:
//
//   blocking   ack_window=1 — stop-and-wait, one CRC-echo RTT per frame;
//   pipelined  ack_window=W — up to W frames in flight per connection,
//              acks reconciled at flush/barrier points; a fan-out root
//              sends to every peer through the window, then flushes.
//
// Both legs use writev framing. Workloads (--workload) differ only in the
// shards each rank saves:
//   stripe   one raw-buffer shard per rank (a single u8 tensor of
//            --chunk-kib bytes, one packet) on a k = m = ranks/2 stripe —
//            the paper's encode protocol at its frame-rate-bound extreme:
//            slice exchange, GF partials shipped to parity nodes, commit.
//   engine   a tiny sharded DNN checkpoint, saved whole by every rank —
//            the full engine save cycle over model-shaped tensors.
//
// Each leg runs one warm-up save (connect storm + caches) plus --rounds
// timed saves. Per leg the parent aggregates the ranks' wall time (max),
// wire bytes and ack-stall time (sum), prints a table, and appends BENCH
// JSON-lines when ECCHECK_BENCH_JSON is set
// (bench/baselines/scale_transport.json holds the checked-in reference).
// The final "speedup" record is the headline: pipelined over blocking
// save throughput at scale.
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench/harness.hpp"
#include "common/rng.hpp"
#include "core/fabric_engine.hpp"
#include "dnn/checkpoint_gen.hpp"
#include "net/transport.hpp"
#include "obs/json.hpp"

namespace {

using namespace eccheck;
using Clock = std::chrono::steady_clock;

struct Options {
  int ranks = 32;      // 32–128 forked processes
  int rounds = 3;      // timed save cycles per leg
  int chunk_kib = 1;   // stripe shard size: small shards make the save
                       // frame-rate-bound, which is what the pipelined
                       // plane improves (large shards are memcpy-bound on
                       // loopback and flatten both legs equally)
  int window = 16;     // pipelined leg's ack window
  std::string workload = "stripe";  // stripe | engine
};

struct LegResult {
  double wall_s = 0;               // max over ranks (the collective's span)
  std::uint64_t send_bytes = 0;    // Σ net.send.bytes
  std::uint64_t frames = 0;        // Σ net.send.count
  std::uint64_t ack_wait_us = 0;   // Σ net.ack.wait_us (sender stall)
};

net::TransportOptions leg_opts(const Options& o, bool pipelined) {
  net::TransportOptions t;
  t.connect_timeout = net::Millis(2000);
  t.connect_retries = 40;  // absorb the 32-process start-up storm
  t.backoff_base = net::Millis(2);
  t.backoff_max = net::Millis(50);
  t.io_timeout = net::Millis(30000);  // stop-and-wait at scale is slow
  t.ack_window = pipelined ? o.window : 1;
  return t;
}

/// One forked rank: run the workload, write this rank's numbers as
/// key=value lines for the parent to aggregate.
void run_rank(int rank, const Options& o,
              const std::vector<net::Endpoint>& eps,
              const std::string& out_dir, bool pipelined) {
  net::SocketTransport fabric(rank, eps, leg_opts(o, pipelined));
  core::ECCheckConfig ecfg;
  ecfg.k = o.ranks / 2;
  ecfg.m = o.ranks - ecfg.k;
  std::vector<dnn::StateDict> shards;
  if (o.workload == "stripe") {
    const std::size_t bytes = static_cast<std::size_t>(o.chunk_kib) * 1024;
    dnn::Tensor t(dnn::DType::kU8, {static_cast<std::int64_t>(bytes)});
    fill_random(t.bytes(), 42 + static_cast<std::uint64_t>(rank));
    shards.emplace_back().add_tensor("chunk", std::move(t));
    ecfg.packet_size = bytes;
  } else {
    // Every rank generates the same (deterministic) sharded checkpoint and
    // saves all of it as its own workers. Deliberately tiny model: the
    // bench measures the transport plane, not GEMM-sized tensors, and 32+
    // single-CPU forked ranks each hold a full shard set.
    dnn::CheckpointGenConfig gen;
    gen.model = dnn::make_model(dnn::ModelFamily::kGPT2, 48, 2, 6, "scale");
    gen.model.vocab = 256;
    gen.parallelism = {2, o.ranks / 2, 1};
    gen.seed = 42;
    shards = dnn::make_sharded_checkpoint(gen);
    ecfg.packet_size = 8192;
  }
  std::vector<const dnn::StateDict*> ptrs;
  for (const auto& sd : shards) ptrs.push_back(&sd);

  core::fabric_save(fabric, ecfg, ptrs, 1);  // warm-up
  const auto t0 = Clock::now();
  for (int r = 0; r < o.rounds; ++r)
    core::fabric_save(fabric, ecfg, ptrs, 2 + r);
  const double wall_s =
      std::chrono::duration<double>(Clock::now() - t0).count();

  std::ofstream f(out_dir + "/rank" + std::to_string(rank) + ".txt");
  f << "wall_s=" << wall_s << "\n"
    << "send_bytes=" << fabric.stats().counter("net.send.bytes") << "\n"
    << "frames=" << fabric.stats().counter("net.send.count") << "\n"
    << "ack_wait_us=" << fabric.stats().counter("net.ack.wait_us") << "\n";
}

LegResult run_leg(const Options& o, bool pipelined) {
  char tmpl[] = "/tmp/eccheck-scalebench-XXXXXX";
  const char* made = ::mkdtemp(tmpl);
  if (!made) {
    std::perror("mkdtemp");
    std::exit(1);
  }
  const std::string dir = made;
  std::vector<net::Endpoint> eps;
  for (int r = 0; r < o.ranks; ++r)
    eps.push_back(net::Endpoint::uds(dir + "/rank" + std::to_string(r) +
                                     ".sock"));

  std::vector<pid_t> pids;
  for (int r = 0; r < o.ranks; ++r) {
    const pid_t pid = ::fork();
    if (pid < 0) {
      std::perror("fork");
      std::exit(1);
    }
    if (pid == 0) {
      try {
        run_rank(r, o, eps, dir, pipelined);
        std::_Exit(0);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "scale_transport rank %d: %s\n", r, e.what());
        std::_Exit(1);
      }
    }
    pids.push_back(pid);
  }
  bool failed = false;
  for (const pid_t pid : pids) {
    int status = 0;
    ::waitpid(pid, &status, 0);
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) failed = true;
  }
  if (failed) {
    std::fprintf(stderr, "scale_transport: a rank failed (%s leg)\n",
                 pipelined ? "pipelined" : "blocking");
    std::exit(1);
  }

  LegResult res;
  for (int r = 0; r < o.ranks; ++r) {
    std::ifstream f(dir + "/rank" + std::to_string(r) + ".txt");
    std::string line;
    while (std::getline(f, line)) {
      const auto eq = line.find('=');
      if (eq == std::string::npos) continue;
      const std::string key = line.substr(0, eq);
      const std::string val = line.substr(eq + 1);
      if (key == "wall_s")
        res.wall_s = std::max(res.wall_s, std::stod(val));
      else if (key == "send_bytes")
        res.send_bytes += std::stoull(val);
      else if (key == "frames")
        res.frames += std::stoull(val);
      else if (key == "ack_wait_us")
        res.ack_wait_us += std::stoull(val);
    }
  }
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  return res;
}

double mib_per_s(const LegResult& r) {
  return r.wall_s > 0
             ? static_cast<double>(r.send_bytes) / (1024.0 * 1024.0) / r.wall_s
             : 0;
}

std::string leg_json(const Options& o, const LegResult& r) {
  std::ostringstream os;
  os << "{\"wall_s\":" << obs::json_number(r.wall_s / o.rounds)
     << ",\"throughput_mib_s\":" << obs::json_number(mib_per_s(r))
     << ",\"wire_mib\":"
     << obs::json_number(static_cast<double>(r.send_bytes) / (1024.0 * 1024.0))
     << ",\"stall_ack_s\":"
     << obs::json_number(static_cast<double>(r.ack_wait_us) / 1e6)
     << ",\"frames_count\":" << r.frames << "}";
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--ranks") {
      o.ranks = std::stoi(next());
    } else if (arg == "--rounds") {
      o.rounds = std::stoi(next());
    } else if (arg == "--chunk-kib") {
      o.chunk_kib = std::stoi(next());
    } else if (arg == "--window") {
      o.window = std::stoi(next());
    } else if (arg == "--workload") {
      o.workload = next();
    } else {
      std::fprintf(stderr,
                   "usage: scale_transport [--ranks N] [--rounds R] "
                   "[--chunk-kib K] [--window W] [--workload stripe|engine]\n");
      return 2;
    }
  }
  if (o.ranks < 4 || o.ranks % 2 != 0) {
    std::fprintf(stderr, "--ranks must be even and >= 4\n");
    return 2;
  }
  if (o.workload != "stripe" && o.workload != "engine") {
    std::fprintf(stderr, "--workload must be stripe or engine\n");
    return 2;
  }

  const std::string shape = o.workload + "/ranks=" + std::to_string(o.ranks) +
                            "/chunk=" + std::to_string(o.chunk_kib) + "KiB";
  std::printf("scale_transport: %s, %d rounds per leg\n", shape.c_str(),
              o.rounds);

  const LegResult blocking = run_leg(o, /*pipelined=*/false);
  const LegResult pipelined = run_leg(o, /*pipelined=*/true);
  const double speedup =
      mib_per_s(blocking) > 0 ? mib_per_s(pipelined) / mib_per_s(blocking) : 0;

  std::printf("%-22s %10s %14s %12s %10s\n", "leg", "wall/rnd", "MiB/s",
              "ack-stall s", "frames");
  std::printf("%-22s %9.3fs %14.1f %12.2f %10llu\n", "blocking (W=1,writev)",
              blocking.wall_s / o.rounds, mib_per_s(blocking),
              static_cast<double>(blocking.ack_wait_us) / 1e6,
              static_cast<unsigned long long>(blocking.frames));
  std::printf("%-22s %9.3fs %14.1f %12.2f %10llu\n",
              ("pipelined (W=" + std::to_string(o.window) + ",writev)").c_str(),
              pipelined.wall_s / o.rounds, mib_per_s(pipelined),
              static_cast<double>(pipelined.ack_wait_us) / 1e6,
              static_cast<unsigned long long>(pipelined.frames));
  std::printf("speedup: %.2fx %s-save throughput\n", speedup,
              o.workload.c_str());

  bench::maybe_append_bench_json("scale_transport", shape + "/blocking",
                                 leg_json(o, blocking));
  bench::maybe_append_bench_json(
      "scale_transport",
      shape + "/pipelined(W=" + std::to_string(o.window) + ")",
      leg_json(o, pipelined));
  bench::maybe_append_bench_json(
      "scale_transport", shape + "/speedup",
      "{\"pipelined_over_blocking\":" + obs::json_number(speedup) + "}");
  return 0;
}
