// Ablation (§IV-C) — pipelined encode → XOR-reduce → P2P vs stage barriers:
// the virtual-cluster engine's save with cfg.pipelined toggled. The pipeline
// is a property of the simulator's schedule; the real byte plane runs the
// stages on one thread per rank.
#include <cstdio>

#include "bench/harness.hpp"

namespace {

using namespace eccheck;

/// Virtual-cluster ablation: the engine's pipelined flag.
void engine_pipeline() {
  dnn::ParallelismSpec par{4, 4, 1};
  const auto model = dnn::table1_models()[1];  // GPT-2 5.3B
  auto workload = bench::make_scaled_workload(model, par);

  std::printf("virtual cluster, GPT-2 5.3B save:\n");
  for (bool pipelined : {true, false}) {
    auto cfg = bench::testbed_config();
    cfg.size_scale = workload.size_scale;
    cluster::VirtualCluster cluster(cfg);
    core::ECCheckConfig ec;
    ec.k = 2;
    ec.m = 2;
    ec.packet_size = kib(128);
    ec.pipelined = pipelined;
    core::ECCheckEngine engine(ec);
    auto rep = engine.save(cluster, workload.shards, 1);
    std::printf("  %-22s total=%s stall=%s\n",
                pipelined ? "pipelined (paper)" : "encode barrier (ablated)",
                human_seconds(rep.total_time).c_str(),
                human_seconds(rep.stall_time).c_str());
  }
}

}  // namespace

int main() {
  bench::print_header("Ablation: pipelined execution (encode/reduce/P2P)");
  engine_pipeline();
  return 0;
}
