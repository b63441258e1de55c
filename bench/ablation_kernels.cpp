// Ablation (§IV-A): end-to-end data-plane cost of the kernel choices —
// GF width and table vs XOR-bitmatrix kernels.
//
// Virtual checkpoint time is kernel-independent (the cost model charges a
// calibrated encode bandwidth); what this measures is the *real wall-clock*
// time the engine's byte plane (fabric_save over a VirtualFabric) spends
// producing the coded bytes, i.e. which kernel you would calibrate the cost
// model with.
#include <chrono>
#include <cstdio>

#include "bench/harness.hpp"

using namespace eccheck;

namespace {

double wall_save_seconds(const core::ECCheckConfig& ec,
                         const std::vector<dnn::StateDict>& shards) {
  auto cfg = bench::testbed_config(4, 2);
  cluster::VirtualCluster cluster(cfg);
  core::ECCheckEngine engine(ec);
  using Clock = std::chrono::steady_clock;
  auto t0 = Clock::now();
  engine.save(cluster, shards, 1);
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

}  // namespace

int main() {
  bench::print_header(
      "Ablation: coding kernels (data-plane wall time of one save)",
      "4 nodes x 2 GPUs, ~4 MiB shards, k=m=2; virtual timing unaffected");

  dnn::CheckpointGenConfig gen;
  gen.model = dnn::make_model(dnn::ModelFamily::kGPT2, 256, 4, 8, "kern");
  gen.model.vocab = 2048;
  gen.parallelism = {2, 4, 1};
  auto shards = dnn::make_sharded_checkpoint(gen);
  std::printf("shard size ~%s\n\n",
              human_bytes(static_cast<double>(shards[0].tensor_bytes()))
                  .c_str());

  std::printf("%-28s %-12s\n", "variant", "wall time");
  struct Variant {
    const char* name;
    int w;
    ec::KernelMode mode;
  };
  for (Variant v : {Variant{"gf-table w=8", 8, ec::KernelMode::kGfTable},
                    Variant{"gf-table w=4", 4, ec::KernelMode::kGfTable},
                    Variant{"gf-table w=16", 16, ec::KernelMode::kGfTable},
                    Variant{"xor-bitmatrix w=8", 8,
                            ec::KernelMode::kXorBitmatrix}}) {
    core::ECCheckConfig ec;
    ec.k = 2;
    ec.m = 2;
    ec.packet_size = kib(64);
    ec.gf_width = v.w;
    ec.kernel = v.mode;
    std::printf("%-28s %-12s\n", v.name,
                human_seconds(wall_save_seconds(ec, shards)).c_str());
  }
  std::printf(
      "\nUse this table to calibrate ClusterConfig::encode_bandwidth_per_"
      "thread for your host: the XOR-bitmatrix kernel avoids table lookups "
      "entirely (it often wins for small k where many coefficients are 1), "
      "table kernels win as k grows.\n");
  return 0;
}
