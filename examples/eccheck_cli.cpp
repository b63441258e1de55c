// eccheck_cli — scenario driver: pick a cluster, model, engine and failure
// pattern from the command line; runs save → failures → load and prints the
// reports plus bit-exactness verification.
//
// Examples:
//   eccheck_cli                                   # defaults: paper testbed
//   eccheck_cli --engine base3 --fail 2,3         # GEMINI loses a group
//   eccheck_cli --nodes 8 --gpus 2 --k 4 --m 4 --fail 0,3,5,6
//   eccheck_cli --engine grouped --nodes 8 --group-size 4 --fail 0,1,4,5
//   eccheck_cli --model 20b --flush --fail 0,1,2  # remote rescue
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>

#include "bench/harness.hpp"
#include "core/grouped_engine.hpp"
#include "examples/cli_number.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/tracer.hpp"

using namespace eccheck;
using examples::number;

namespace {

struct Options {
  int nodes = 4;
  int gpus = 4;
  int k = 2;
  int m = 2;
  int group_size = 4;
  std::string engine = "eccheck";
  std::string model = "5.3b";
  int tp = 0;  // 0 = gpus
  bool fsdp = false;
  bool flush = false;
  std::vector<int> failures;
  std::uint64_t seed = 42;
  std::size_t packet_kib = 128;
  std::string trace_out;   // Chrome-trace JSON of the save/load timelines
  std::string stats_json;  // per-stage counters/gauges/histograms JSON
  std::string profile_out;  // Chrome-trace JSON of real wall-clock spans
};

[[noreturn]] void usage(const char* argv0) {
  std::printf(
      "usage: %s [options]\n"
      "  --nodes N --gpus G        cluster shape (default 4x4)\n"
      "  --k K --m M               data/parity nodes (default 2/2)\n"
      "  --engine E                base1|base2|base3|eccheck|grouped\n"
      "  --group-size S            grouped mode group size (default 4)\n"
      "  --model M                 345m|1.6b|5.3b|20b (default 5.3b)\n"
      "  --tp T                    tensor-parallel degree (default = gpus)\n"
      "  --fsdp                    fully sharded data parallelism\n"
      "  --flush                   ECCheck step 4: flush chunks to remote\n"
      "  --fail a,b,c              nodes to kill after save\n"
      "  --packet-kib P            coding buffer size (default 128)\n"
      "  --seed S                  payload seed\n"
      "  --trace-out FILE          write Chrome-trace JSON (chrome://tracing,\n"
      "                            Perfetto) of the save + load timelines\n"
      "  --stats-json FILE         write per-stage stats (byte counters per\n"
      "                            edge kind, resource busy time) as JSON\n"
      "  --profile-out FILE        write wall-clock Chrome-trace JSON of the\n"
      "                            real data plane (engine.*, session.*,\n"
      "                            net.*, fabric.* spans and codec\n"
      "                            encode/decode); same FILE as\n"
      "                            --trace-out merges both into one trace\n",
      argv0);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  auto need = [&](int& i) -> const char* {
    if (i + 1 >= argc) usage(argv[0]);
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    auto num = [&](int lo) { return number(usage, argv[0], a, need(i), lo); };
    if (!std::strcmp(a, "--nodes")) o.nodes = num(1);
    else if (!std::strcmp(a, "--gpus")) o.gpus = num(1);
    else if (!std::strcmp(a, "--k")) o.k = num(1);
    else if (!std::strcmp(a, "--m")) o.m = num(0);
    else if (!std::strcmp(a, "--group-size")) o.group_size = num(1);
    else if (!std::strcmp(a, "--engine")) o.engine = need(i);
    else if (!std::strcmp(a, "--model")) o.model = need(i);
    else if (!std::strcmp(a, "--tp")) o.tp = num(0);
    else if (!std::strcmp(a, "--fsdp")) o.fsdp = true;
    else if (!std::strcmp(a, "--flush")) o.flush = true;
    else if (!std::strcmp(a, "--seed"))
      o.seed = number<std::uint64_t>(usage, argv[0], a, need(i), 0);
    else if (!std::strcmp(a, "--packet-kib"))
      // Bounded so that kib() cannot overflow.
      o.packet_kib = number<std::size_t>(
          usage, argv[0], a, need(i), 1,
          std::numeric_limits<std::size_t>::max() >> 10);
    else if (!std::strcmp(a, "--trace-out")) o.trace_out = need(i);
    else if (!std::strcmp(a, "--stats-json")) o.stats_json = need(i);
    else if (!std::strcmp(a, "--profile-out")) o.profile_out = need(i);
    else if (!std::strcmp(a, "--fail")) {
      std::stringstream ss(need(i));
      std::string part;
      while (std::getline(ss, part, ',')) {
        const int node = number(usage, argv[0], a, part.c_str(), 0);
        // Deduplicate: kill() rejects already-dead nodes, and a user typing
        // --fail 1,1 means one failure of node 1, not two.
        if (std::find(o.failures.begin(), o.failures.end(), node) ==
            o.failures.end())
          o.failures.push_back(node);
      }
    } else {
      usage(argv[0]);
    }
  }
  // Shapes the engines refuse with a CheckFailure: refused here instead,
  // like a malformed number. ECCheck puts one chunk on each node and k
  // equal chunks of workers; grouped mode does so in each group of
  // group_size nodes, with k = group_size / 2.
  auto refuse = [&](const char* why) {
    std::fprintf(stderr, "%s\n", why);
    usage(argv[0]);
  };
  const long long world = static_cast<long long>(o.nodes) * o.gpus;
  if (o.engine == "eccheck") {
    if (static_cast<long long>(o.k) + o.m != o.nodes)
      refuse("--k + --m must equal --nodes");
    if (world % o.k != 0) refuse("--k must divide nodes x gpus");
  } else if (o.engine == "grouped") {
    if (o.group_size < 2 || o.nodes % o.group_size != 0)
      refuse("--group-size must be at least 2 and divide --nodes");
    else if (static_cast<long long>(o.group_size) * o.gpus %
             (o.group_size / 2))
      refuse("--group-size / 2 must divide group-size x gpus");
  }
  return o;
}

dnn::ModelSpec pick_model(const std::string& name) {
  if (name == "345m") return dnn::gpt2_345m();
  auto t1 = dnn::table1_models();
  if (name == "1.6b") return t1[0];
  if (name == "5.3b") return t1[1];
  if (name == "20b") return t1[2];
  std::printf("unknown model '%s'\n", name.c_str());
  std::exit(2);
}

std::unique_ptr<ckpt::CheckpointEngine> pick_engine(const Options& o) {
  if (o.engine == "base1") return std::make_unique<ckpt::RemoteSyncEngine>();
  if (o.engine == "base2")
    return std::make_unique<ckpt::RemoteTwoPhaseEngine>();
  if (o.engine == "base3")
    return std::make_unique<ckpt::GeminiReplicationEngine>(2);
  if (o.engine == "eccheck") {
    core::ECCheckConfig cfg;
    cfg.k = o.k;
    cfg.m = o.m;
    cfg.packet_size = kib(o.packet_kib);
    cfg.flush_to_remote = o.flush;
    return std::make_unique<core::ECCheckEngine>(cfg);
  }
  if (o.engine == "grouped") {
    core::GroupedConfig cfg;
    cfg.group_size = o.group_size;
    cfg.per_group.k = o.group_size / 2;
    cfg.per_group.m = o.group_size - o.group_size / 2;
    cfg.per_group.packet_size = kib(o.packet_kib);
    cfg.per_group.flush_to_remote = o.flush;
    return std::make_unique<core::GroupedECCheckEngine>(cfg);
  }
  std::printf("unknown engine '%s'\n", o.engine.c_str());
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  Options o = parse(argc, argv);

  const auto model = pick_model(o.model);
  dnn::ParallelismSpec par;
  par.tensor_parallel = o.tp > 0 ? o.tp : o.gpus;
  const int world = o.nodes * o.gpus;
  if (world % par.tensor_parallel != 0) {
    std::printf("world %d not divisible by tp %d\n", world,
                par.tensor_parallel);
    return 2;
  }
  if (o.fsdp) {
    par.pipeline_parallel = std::max(1, world / par.tensor_parallel / 2);
    par.data_parallel =
        world / par.tensor_parallel / par.pipeline_parallel;
  } else {
    par.pipeline_parallel = world / par.tensor_parallel;
    par.data_parallel = 1;
  }

  std::printf("cluster : %d nodes x %d GPUs (100 Gbps NIC, 5 Gbps remote)\n",
              o.nodes, o.gpus);
  std::printf("model   : %s (%s checkpoint), tp=%d pp=%d dp=%d%s\n",
              model.label.c_str(),
              human_bytes(static_cast<double>(model.checkpoint_bytes()))
                  .c_str(),
              par.tensor_parallel, par.pipeline_parallel, par.data_parallel,
              o.fsdp ? " (FSDP)" : "");

  auto workload = bench::make_scaled_workload(model, par);
  if (o.fsdp) {
    dnn::CheckpointGenConfig gen;
    gen.model = workload.shards.empty() ? model : model;  // rebuild below
    gen.model = model.scaled_down(
        std::max(1.0, static_cast<double>(model.hidden) / 128));
    if (gen.model.hidden % par.tensor_parallel != 0)
      gen.model.hidden +=
          par.tensor_parallel - gen.model.hidden % par.tensor_parallel;
    gen.parallelism = par;
    gen.fsdp = true;
    gen.seed = o.seed;
    workload.shards = dnn::make_sharded_checkpoint(gen);
  }

  auto cfg = bench::testbed_config(o.nodes, o.gpus);
  cfg.size_scale = workload.size_scale;
  cluster::VirtualCluster cluster(cfg);
  bench::attach_training_calendar(cluster, model, par);

  std::vector<std::uint64_t> digests;
  for (const auto& sd : workload.shards) digests.push_back(sd.digest());

  auto engine = pick_engine(o);
  std::printf("engine  : %s\n\n", engine->name().c_str());

  obs::ChromeTraceWriter tracer;
  ckpt::SaveReport save;
  ckpt::LoadReport load;
  bool loaded = false;
  if (!o.profile_out.empty()) {
    obs::Tracer::set_thread_name("main");
    obs::Tracer::global().enable();
  }

  // Flush observability outputs on every exit path. The trace writer
  // serializes each timeline when added, so save is captured before load
  // resets the cluster's timeline.
  auto finish = [&](int rc) {
    if (!o.profile_out.empty()) {
      auto& prof = obs::Tracer::global();
      prof.disable();
      if (o.profile_out == o.trace_out) {
        // Merged view: virtual timelines and real threads side by side.
        prof.export_to(tracer, "real threads");
        std::printf("profile : %zu spans merged into %s\n", prof.span_count(),
                    o.trace_out.c_str());
      } else {
        obs::ChromeTraceWriter w;
        prof.export_to(w, "real threads");
        if (w.write_file(o.profile_out))
          std::printf("profile : %zu spans -> %s\n", prof.span_count(),
                      o.profile_out.c_str());
        else
          std::printf("profile : FAILED to write %s\n", o.profile_out.c_str());
      }
    }
    if (!o.trace_out.empty()) {
      if (tracer.write_file(o.trace_out))
        std::printf("trace   : %zu events -> %s\n", tracer.event_count(),
                    o.trace_out.c_str());
      else
        std::printf("trace   : FAILED to write %s\n", o.trace_out.c_str());
    }
    if (!o.stats_json.empty()) {
      std::ofstream f(o.stats_json);
      if (f) {
        f << "{\"save\":" << bench::save_report_json(save) << ",\"load\":";
        if (loaded)
          f << bench::load_report_json(load);
        else
          f << "null";
        f << ",\"cluster\":" << cluster.stats().to_json() << "}\n";
        std::printf("stats   : %s\n", o.stats_json.c_str());
      } else {
        std::printf("stats   : FAILED to write %s\n", o.stats_json.c_str());
      }
    }
    return rc;
  };

  save = engine->save(cluster, workload.shards, 1);
  if (!o.trace_out.empty()) {
    tracer.add_timeline(cluster.timeline(), "save");
    save.trace_path = o.trace_out;
  }
  if (!o.stats_json.empty())
    obs::collect_timeline_stats(cluster.timeline(), cluster.stats(), "save.");
  std::printf("save    : stall %s, durable after %s, network %s%s\n",
              human_seconds(save.stall_time).c_str(),
              human_seconds(save.total_time).c_str(),
              human_bytes(static_cast<double>(save.network_bytes)).c_str(),
              o.flush ? " (+ remote flush)" : "");

  if (o.failures.empty()) {
    std::printf("no failures requested; done.\n");
    return finish(0);
  }

  for (int f : o.failures) {
    if (f < 0 || f >= o.nodes) {
      std::printf("--fail node %d out of range [0, %d)\n", f, o.nodes);
      return finish(2);
    }
  }
  std::printf("failing : nodes");
  for (int f : o.failures) {
    std::printf(" %d", f);
    cluster.kill(f);
  }
  std::printf("\n");
  for (int f : o.failures) cluster.replace(f);

  std::vector<dnn::StateDict> out;
  load = engine->load(cluster, 1, out);
  loaded = true;
  if (!o.trace_out.empty()) {
    tracer.add_timeline(cluster.timeline(), "load");
    load.trace_path = o.trace_out;
  }
  if (!o.stats_json.empty())
    obs::collect_timeline_stats(cluster.timeline(), cluster.stats(), "load.");
  if (!load.success) {
    std::printf("recover : FAILED — %s\n", load.detail.c_str());
    return finish(1);
  }
  std::printf("recover : %s; resume after %s, redundancy restored by %s\n",
              load.detail.c_str(), human_seconds(load.resume_time).c_str(),
              human_seconds(load.total_time).c_str());

  for (std::size_t w = 0; w < out.size(); ++w) {
    if (out[w].digest() != digests[w]) {
      std::printf("verify  : worker %zu MISMATCH\n", w);
      return finish(1);
    }
  }
  std::printf("verify  : all %zu worker state_dicts bit-exact\n", out.size());
  return finish(0);
}
