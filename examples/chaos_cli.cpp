// chaos_cli: run randomized fault-injection campaigns and report invariant
// verdicts as JSON lines.
//
//   chaos_cli                                   # default: 4 seeds x 64 events
//   chaos_cli --seed 42 --events 200            # one long campaign
//   chaos_cli --seed 7 --campaigns 8 --flush    # seeds 7..14 with remote flush
//   chaos_cli --jsonl events.jsonl              # per-event log for debugging
//   chaos_cli --mode sockets --seed 3           # real processes, real signals
//   chaos_cli --mode gray --events 12           # socket campaign, SIGSTOP-first
//
// Modes: `sim` (default) drives a VirtualCluster in-process through
// chaos::ChaosRunner; `sockets` forks a live coordinator + worker daemons
// over UDS and throws SIGKILL/SIGSTOP/corrupt frames at them through
// chaos::SocketCampaign; `gray` is `sockets` starting with SIGSTOP kills,
// biasing toward gray-failure windows.
//
// One summary line per campaign goes to stdout. On any invariant violation
// the process exits 1 and prints the exact command line that replays the
// failing campaign — determinism is the whole point: same seed, same schedule,
// same failure.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>

#include "chaos/runner.hpp"
#include "chaos/socket_campaign.hpp"
#include "examples/cli_number.hpp"
#include "common/units.hpp"

namespace {

using namespace eccheck;
using examples::number;

struct Options {
  chaos::ChaosConfig chaos;
  int campaigns = 4;
  std::size_t packet_kib = 8;
  std::string jsonl;
  std::string mode = "sim";  // sim | sockets | gray
  std::string dir;           // sockets scratch dir (default: mkdtemp)
  bool verbose = false;
};

[[noreturn]] void usage(const char* argv0) {
  std::printf(
      "usage: %s [options]\n"
      "  --mode M          sim (default) | sockets | gray\n"
      "  --seed N          first campaign seed (default 1)\n"
      "  --campaigns N     number of campaigns, seeds seed..seed+N-1 "
      "(default 4)\n"
      "  --events N        events per campaign, >= 2 (default 64)\n"
      "  --nodes N         cluster nodes (default 4; sim only)\n"
      "  --gpus N          GPUs per node (default 2; sim only)\n"
      "  --k N --m N       data/parity split (default 2+2; sim needs "
      "k+m == nodes)\n"
      "  --retain N        versions kept in host memory (default 2; sim "
      "only)\n"
      "  --packet-kib N    coding packet size (default 8; sim only)\n"
      "  --flush           enable step-4 remote flush (sim only)\n"
      "  --dir PATH        scratch dir (default: mkdtemp; socket modes "
      "only)\n"
      "  --verbose         narrate campaign events to stderr (socket modes "
      "only)\n"
      "  --jsonl FILE      append one JSON line per event/violation "
      "(sim only)\n",
      argv0);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  auto need = [&](int& i) {
    if (++i >= argc) usage(argv[0]);
    return argv[i];
  };
  // A flag the chosen mode would ignore is refused, not silently dropped.
  const char* sim_flag = nullptr;
  const char* socket_flag = nullptr;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (!std::strcmp(a, "--seed")) {
      o.chaos.seed = number<std::uint64_t>(usage, argv[0], a, need(i), 0);
    } else if (!std::strcmp(a, "--campaigns")) {
      o.campaigns = number(usage, argv[0], a, need(i), 1);
    } else if (!std::strcmp(a, "--events")) {
      // The schedule's minimum: a leading save and a trailing recover.
      o.chaos.events = number(usage, argv[0], a, need(i), 2);
    } else if (!std::strcmp(a, "--k")) {
      o.chaos.k = number(usage, argv[0], a, need(i), 1);
    } else if (!std::strcmp(a, "--m")) {
      o.chaos.m = number(usage, argv[0], a, need(i), 1);
    } else if (!std::strcmp(a, "--mode")) {
      o.mode = need(i);
    } else if (!std::strcmp(a, "--nodes")) {
      o.chaos.num_nodes = number(usage, argv[0], a, need(i), 2);
      sim_flag = a;
    } else if (!std::strcmp(a, "--gpus")) {
      o.chaos.gpus_per_node = number(usage, argv[0], a, need(i), 1);
      sim_flag = a;
    } else if (!std::strcmp(a, "--retain")) {
      o.chaos.retain_versions = number(usage, argv[0], a, need(i), 1);
      sim_flag = a;
    } else if (!std::strcmp(a, "--packet-kib")) {
      // Bounded so that kib() cannot overflow.
      o.packet_kib = number<std::size_t>(
          usage, argv[0], a, need(i), 1,
          std::numeric_limits<std::size_t>::max() >> 10);
      sim_flag = a;
    } else if (!std::strcmp(a, "--flush")) {
      o.chaos.flush_to_remote = true;
      sim_flag = a;
    } else if (!std::strcmp(a, "--jsonl")) {
      o.jsonl = need(i);
      sim_flag = a;
    } else if (!std::strcmp(a, "--dir")) {
      o.dir = need(i);
      socket_flag = a;
    } else if (!std::strcmp(a, "--verbose")) {
      o.verbose = true;
      socket_flag = a;
    } else {
      usage(argv[0]);
    }
  }
  o.chaos.packet_size = kib(o.packet_kib);
  if (o.mode != "sim" && o.mode != "sockets" && o.mode != "gray")
    usage(argv[0]);
  const char* ignored = o.mode == "sim" ? socket_flag : sim_flag;
  if (ignored != nullptr) {
    std::fprintf(stderr, "%s has no effect in --mode %s\n", ignored,
                 o.mode.c_str());
    usage(argv[0]);
  }
  return o;
}

/// Socket modes: live processes, real signals, UDS fabric.
int run_socket_campaigns(const Options& o) {
  namespace fs = std::filesystem;
  int rc = 0;
  for (int c = 0; c < o.campaigns; ++c) {
    std::string dir = o.dir;
    if (dir.empty()) {
      char tmpl[] = "/tmp/eccheck-chaos-XXXXXX";
      if (::mkdtemp(tmpl) == nullptr) {
        std::fprintf(stderr, "mkdtemp failed\n");
        return 2;
      }
      dir = tmpl;
    } else {
      dir += "/campaign" + std::to_string(c);
      fs::create_directories(dir);
    }
    chaos::SocketCampaignConfig cfg;
    cfg.k = o.chaos.k;
    cfg.m = o.chaos.m;
    cfg.events = std::min(o.chaos.events, 24);  // real seconds per event
    cfg.seed = o.chaos.seed + static_cast<std::uint64_t>(c);
    cfg.dir = dir;
    cfg.verbose = o.verbose;
    if (o.mode == "gray") {
      // Gray-first: SIGSTOP leads the kill alternation, biasing the
      // campaign toward gray-failure windows; the forced tail still
      // guarantees at least one kill of each kind.
      cfg.events = std::min(cfg.events, 12);
      cfg.first_kill_gray = true;
    }
    chaos::SocketCampaign campaign(cfg);
    const chaos::SocketCampaignSummary& s = campaign.run();
    std::printf("%s\n", s.to_json().c_str());
    if (o.dir.empty()) {
      std::error_code ec;
      fs::remove_all(dir, ec);
    }
    if (s.violations > 0) {
      rc = 1;
      for (const std::string& msg : s.violation_messages)
        std::fprintf(stderr, "VIOLATION %s\n", msg.c_str());
      std::fprintf(stderr,
                   "replay: chaos_cli --mode %s --seed %llu --campaigns 1 "
                   "--events %d --k %d --m %d\n",
                   o.mode.c_str(),
                   static_cast<unsigned long long>(cfg.seed), cfg.events,
                   cfg.k, cfg.m);
    }
  }
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  Options o = parse(argc, argv);
  if (o.mode != "sim") return run_socket_campaigns(o);

  std::ofstream jsonl_file;
  std::ostream* jsonl = nullptr;
  if (!o.jsonl.empty()) {
    jsonl_file.open(o.jsonl, std::ios::app);
    if (!jsonl_file) {
      std::fprintf(stderr, "cannot open %s for append\n", o.jsonl.c_str());
      return 2;
    }
    jsonl = &jsonl_file;
  }

  int rc = 0;
  const std::uint64_t base_seed = o.chaos.seed;
  for (int c = 0; c < o.campaigns; ++c) {
    chaos::ChaosConfig cfg = o.chaos;
    cfg.seed = base_seed + static_cast<std::uint64_t>(c);
    chaos::ChaosRunner runner(cfg, jsonl);
    const chaos::CampaignSummary& s = runner.run();
    std::printf("%s\n", s.to_json().c_str());
    if (s.violations > 0) {
      rc = 1;
      for (const std::string& msg : s.violation_messages)
        std::fprintf(stderr, "VIOLATION %s\n", msg.c_str());
      std::fprintf(stderr,
                   "replay: %s --seed %llu --campaigns 1 --events %d "
                   "--nodes %d --gpus %d --k %d --m %d --retain %d "
                   "--packet-kib %zu%s\n",
                   argv[0],
                   static_cast<unsigned long long>(cfg.seed), cfg.events,
                   cfg.num_nodes, cfg.gpus_per_node, cfg.k, cfg.m,
                   cfg.retain_versions, o.packet_kib,
                   cfg.flush_to_remote ? " --flush" : "");
    }
  }
  return rc;
}
