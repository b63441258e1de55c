// Ablation: the k/m design space on an 8-node cluster — checkpoint time,
// communication volume, host-memory redundancy, and fault tolerance as the
// parity count m grows (k = n − m).
#include <cstdio>

#include "analysis/recovery_rate.hpp"
#include "bench/harness.hpp"

int main() {
  using namespace eccheck;
  bench::print_header(
      "Ablation: choosing k and m (n = 8 nodes x 3 GPUs, GPT-2 1.6B)",
      "more parity -> more failures tolerated, more communication, bigger "
      "chunks per node");

  const int n = 8;
  const int g = 3;  // W = 24: admits k ∈ {2, 3, 4, 6} with k + m = 8
  dnn::ParallelismSpec par{1, n * g, 1};
  const auto model = dnn::table1_models()[0];
  auto workload = bench::make_scaled_workload(model, par);

  std::printf("%-10s %-12s %-14s %-16s %-18s %-20s\n", "(k,m)", "save",
              "resume(1 dn)", "net volume", "chunk/node (xs)",
              "P(recover), p=0.05");
  for (int m = 1; m <= 6; ++m) {
    const int k = n - m;
    if ((n * g) % k != 0) continue;  // W divisible by k
    core::ECCheckConfig ec;
    ec.k = k;
    ec.m = m;
    ec.packet_size = kib(128);
    core::ECCheckEngine engine(ec);

    auto cfg = bench::testbed_config(n, g);
    cfg.size_scale = workload.size_scale;
    cluster::VirtualCluster cluster(cfg);
    auto save = engine.save(cluster, workload.shards, 1);

    auto plan = engine.plan_for(cluster);
    cluster.kill(plan.data_nodes[0]);
    cluster.replace(plan.data_nodes[0]);
    std::vector<dnn::StateDict> out;
    auto load = engine.load(cluster, 1, out);

    char code[64];
    std::snprintf(code, sizeof code, "(%d,%d)", k, m);
    std::printf("%-10s %-12s %-14s %-16s %-18.2f %-20.6f\n", code,
                human_seconds(save.total_time).c_str(),
                load.success ? human_seconds(load.resume_time).c_str() : "-",
                human_bytes(static_cast<double>(save.network_bytes)).c_str(),
                static_cast<double>(n * g) / k / g,
                analysis::erasure_group_rate(n, m, 0.05));
  }
  std::printf(
      "\nShape: m is the fault-tolerance dial — communication volume (m*s*W)"
      " and per-node chunk size (W/k packets) both grow with it; recovery "
      "rate approaches 1 quickly.\n");
  return 0;
}
