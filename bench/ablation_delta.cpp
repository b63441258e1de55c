// Ablation — incremental checkpoints with sparse parity updates
// (ECCheckConfig::delta), swept over update density.
//
// An ECRM-style recommendation workload touches a density-d subset of its
// embedding rows per iteration. A full ECCheck save re-encodes the whole
// stripe; a delta save ships only the dirty extents' XOR-deltas and folds
// them into data and parity rows in place (P' = P ⊕ G·Δ). Both leave
// byte-identical stores — this bench verifies that while charting the
// traffic and wall-time gap per density, including the fallback crossover
// at core::kMaxDirtyRatio.
#include <chrono>
#include <cstdio>
#include <vector>

#include "bench/harness.hpp"
#include "cluster/fabric.hpp"
#include "core/delta.hpp"
#include "core/fabric_engine.hpp"
#include "core/session.hpp"
#include "dnn/sparse_update.hpp"

namespace {

using namespace eccheck;

constexpr int kK = 2;
constexpr int kM = 2;
constexpr int kNodes = kK + kM;
constexpr int kWorld = kNodes;  // one worker per node

core::ECCheckConfig ec_config(bool delta_on) {
  core::ECCheckConfig cfg;
  cfg.k = kK;
  cfg.m = kM;
  cfg.packet_size = kib(64);
  cfg.delta.enabled = delta_on;
  return cfg;
}

dnn::SparseUpdateSpec spec_for(double density) {
  dnn::SparseUpdateSpec spec;
  spec.embedding_rows = 8192;
  spec.embedding_dim = 64;   // 2 MiB embedding shard per worker
  spec.dense_tensors = 2;
  spec.dense_elems = 1024;
  spec.row_density = density;
  return spec;
}

struct ModeResult {
  std::size_t network_bytes = 0;  ///< fabric traffic of the measured save
  double virtual_s = 0;           ///< cost-model save time
  double wall_s = 0;              ///< real time of the measured save
  std::uint64_t dirty_bytes = 0;
  std::uint64_t extents = 0;
  std::uint64_t delta_saves = 0;
  std::uint64_t fallbacks = 0;
  std::vector<std::uint64_t> digests;  ///< recovered bytes after the save
  std::string report_json;
};

std::uint64_t stat_of(const ckpt::SaveReport& rep, const std::string& key) {
  const auto it = rep.stats.find(key);
  return it == rep.stats.end() ? 0 : it->second;
}

/// One fresh cluster: save iteration 0 (always a full encode — it seeds the
/// base cache), apply one density-d update, measure the second save, then
/// recover and digest what comes back.
ModeResult run_mode(double density, bool delta_on) {
  const dnn::SparseUpdateSpec spec = spec_for(density);
  cluster::ClusterConfig cc;
  cc.num_nodes = kNodes;
  cc.gpus_per_node = 1;
  cluster::VirtualCluster vc(cc);
  cluster::VirtualFabric fabric(vc);
  core::FabricSession session(fabric, ec_config(delta_on), 1, 2);

  std::vector<dnn::StateDict> shards;
  for (int w = 0; w < kWorld; ++w)
    shards.push_back(dnn::make_sparse_model_shard(spec, w));
  std::vector<const dnn::StateDict*> ptrs;
  for (const auto& sd : shards) ptrs.push_back(&sd);

  session.save(ptrs);  // v1: warm-up, populates the base cache
  for (int w = 0; w < kWorld; ++w)
    dnn::apply_sparse_update(shards[static_cast<std::size_t>(w)], spec, w, 1);

  const auto t0 = std::chrono::steady_clock::now();
  const ckpt::SaveReport rep = session.save(ptrs);
  const auto t1 = std::chrono::steady_clock::now();

  ModeResult r;
  r.network_bytes = rep.network_bytes;
  r.virtual_s = rep.total_time;
  r.wall_s = std::chrono::duration<double>(t1 - t0).count();
  r.dirty_bytes = stat_of(rep, "delta.dirty.bytes");
  r.extents = stat_of(rep, "delta.extents.count");
  r.delta_saves = stat_of(rep, "delta.save.count");
  r.fallbacks = stat_of(rep, "delta.fallback.count");
  r.report_json = bench::save_report_json(rep);

  std::vector<dnn::StateDict> out;
  auto l = session.load(out);
  if (l.report.success)
    for (const auto& sd : out) r.digests.push_back(sd.digest());
  return r;
}

}  // namespace

int main() {
  bench::print_header(
      "Ablation: incremental checkpoints (sparse parity updates)");
  std::printf(
      "n=%d (k=%d m=%d), %d workers x 2 MiB embedding + dense tower,\n"
      "dirty tracking at %zu B blocks (embedding rows are 256 B), fallback\n"
      "at dirty_ratio > 0.35.\n"
      "Measured save: second version, one density-d update after v1.\n\n",
      kNodes, kK, kM, kWorld, core::kDirtyBlock);
  std::printf(
      "  density   full net     delta net    ratio   dirty bytes  extents"
      "   path        bitexact   full/delta wall\n");

  for (double density : {0.01, 0.05, 0.20, 0.50, 1.00}) {
    const ModeResult full = run_mode(density, /*delta_on=*/false);
    const ModeResult delta = run_mode(density, /*delta_on=*/true);
    const bool bitexact =
        !full.digests.empty() && full.digests == delta.digests;
    const double ratio =
        delta.network_bytes == 0
            ? 0.0
            : static_cast<double>(full.network_bytes) /
                  static_cast<double>(delta.network_bytes);
    const char* path = delta.delta_saves > 0 ? "delta" : "full(fb)";
    std::printf(
        "  %5.0f%%   %-11s  %-11s  %5.1fx  %-11s  %-7llu  %-9s  %-8s  "
        "%s / %s\n",
        density * 100, human_bytes(full.network_bytes).c_str(),
        human_bytes(delta.network_bytes).c_str(), ratio,
        human_bytes(delta.dirty_bytes).c_str(),
        static_cast<unsigned long long>(delta.extents), path,
        bitexact ? "yes" : "NO", human_seconds(full.wall_s).c_str(),
        human_seconds(delta.wall_s).c_str());

    char label[64];
    std::snprintf(label, sizeof label, "density=%.0f%%", density * 100);
    bench::maybe_append_bench_json("ablation_delta",
                                   std::string(label) + "/full",
                                   full.report_json);
    bench::maybe_append_bench_json("ablation_delta",
                                   std::string(label) + "/delta",
                                   delta.report_json);
    if (!bitexact) {
      std::fprintf(stderr,
                   "ablation_delta: recovered digests diverge at density "
                   "%.0f%%\n",
                   density * 100);
      return 1;
    }
  }
  std::printf(
      "\nDensities above the 35%% dirty-ratio threshold fall back to the "
      "full\nencode (path column), so the delta config never loses to full "
      "re-encode\nby more than the diff cost.\n");
  return 0;
}
