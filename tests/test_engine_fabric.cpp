// Differential suite for the fabric-generic ECCheck engine
// (core/fabric_engine.cpp), the one implementation of the save/load/prune
// protocol. It must produce the closed-form stores and bit-exact recovered
// shards whether it runs
//  * over cluster::VirtualFabric (one process drives all ranks), checked
//    against the codec: data rows are the packed workers, parity rows
//    CrsCodec::encode of their stripes, sums the per-packet CRC-64s; or
//  * over net::SocketTransport (one OS thread per rank; test_service and
//    test_chaos_sockets run it in forked daemons), compared against
//    VirtualFabric.
// Also covers the torn-save contract (peer death mid-save fails fast and
// rolls the attempted version back, with one or m dead ranks and with
// remote flush), a torn metadata refresh, the load report's row outcomes,
// FabricSession version retention, and the step-3 schedule: exact wire
// volume, degraded reductions, and rollback at every step-3 batch; that
// padding slots never cross the wire on save or load; and that every save
// and repair leaves sums matching the stored rows without rereading them.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <barrier>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <functional>
#include <latch>
#include <map>
#include <memory>
#include <numeric>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cluster/fabric.hpp"
#include "common/crc64.hpp"
#include "core/eccheck_engine.hpp"
#include "core/engine_keys.hpp"
#include "core/fabric_engine.hpp"
#include "core/placement.hpp"
#include "core/protocol.hpp"
#include "core/session.hpp"
#include "dnn/checkpoint_gen.hpp"
#include "dnn/sparse_update.hpp"
#include "ec/crs_codec.hpp"
#include "net/transport.hpp"
#include "tests/send_buffers_tap.hpp"

namespace eccheck {
namespace {

namespace fs = std::filesystem;

struct TempDir {
  std::string path;
  TempDir() {
    char tmpl[] = "/tmp/eccheck-fabtest-XXXXXX";
    EXPECT_NE(::mkdtemp(tmpl), nullptr);
    path = tmpl;
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
};

std::vector<net::Endpoint> uds_endpoints(const TempDir& dir, int n) {
  std::vector<net::Endpoint> eps;
  for (int r = 0; r < n; ++r)
    eps.push_back(
        net::Endpoint::uds(dir.path + "/rank" + std::to_string(r) + ".sock"));
  return eps;
}

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

using RankBody = std::function<void(int rank)>;

void run_ranks(int n, const RankBody& body) {
  std::vector<std::thread> threads;
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(n));
  for (int r = 0; r < n; ++r)
    threads.emplace_back([&, r] {
      try {
        body(r);
      } catch (...) {
        errors[static_cast<std::size_t>(r)] = std::current_exception();
      }
    });
  for (auto& t : threads) t.join();
  for (auto& e : errors)
    if (e) std::rethrow_exception(e);
}

using StoreImage = std::map<std::string, Buffer>;

StoreImage snapshot(cluster::Store& s, const std::string& prefix = "") {
  StoreImage img;
  for (const std::string& key : s.keys_with_prefix(prefix))
    img.emplace(key, s.get(key).clone());
  return img;
}

void expect_identical(const StoreImage& got, const StoreImage& want,
                      const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  auto a = got.begin();
  auto b = want.begin();
  for (; a != got.end(); ++a, ++b) {
    ASSERT_EQ(a->first, b->first) << what;
    EXPECT_TRUE(a->second == b->second)
        << what << ": key '" << a->first << "' differs";
  }
}

// Shared shapes: n = k + m nodes, g workers per node, W = n·g workers.
constexpr int kK = 2;
constexpr int kM = 2;
constexpr int kNodes = kK + kM;

dnn::CheckpointGenConfig gen_config(int world, std::uint64_t seed) {
  dnn::CheckpointGenConfig cfg;
  cfg.model = dnn::make_model(dnn::ModelFamily::kGPT2, 96, 2, 6, "fabtest");
  cfg.model.vocab = 384;
  cfg.parallelism = {2, world / 2, 1};
  cfg.seed = seed;
  return cfg;
}

core::ECCheckConfig engine_config(bool flush = false) {
  core::ECCheckConfig cfg;
  cfg.k = kK;
  cfg.m = kM;
  cfg.packet_size = kib(16);
  cfg.flush_to_remote = flush;
  return cfg;
}

std::vector<const dnn::StateDict*> pointers(
    const std::vector<dnn::StateDict>& shards) {
  std::vector<const dnn::StateDict*> p;
  for (const auto& sd : shards) p.push_back(&sd);
  return p;
}

std::vector<std::uint64_t> digests_of(const std::vector<dnn::StateDict>& v) {
  std::vector<std::uint64_t> out;
  for (const auto& sd : v) out.push_back(sd.digest());
  return out;
}

cluster::ClusterConfig vc_config(int gpus) {
  cluster::ClusterConfig cfg;
  cfg.num_nodes = kNodes;
  cfg.gpus_per_node = gpus;
  return cfg;
}

// ---------------------------------------------------------------------------
// VirtualFabric against the closed form: the anchor of the whole
// bit-exactness chain. A committed save of `shards` leaves each data row
// equal to pack_packets of its workers, each parity packet equal to
// CrsCodec::encode of its stripe, each node's sums equal to the per-packet
// CRC-64s of its row, every worker's metadata and tensor-keys blobs on every
// node, and — with the remote flush — all of it in the remote store too.
// ---------------------------------------------------------------------------

/// `store` holds row `row` of version `v` committed, and its sums blob is the
/// CRC-64 of each stored packet, slot j·B + b.
void expect_sums_match_row(const cluster::Store& store, const std::string& ns,
                           std::int64_t v, int row, int per_chunk,
                           std::size_t B) {
  using core::keys::row_key;
  EXPECT_TRUE(store.contains(core::keys::commit_key(ns, v)));
  ASSERT_TRUE(store.contains(core::keys::sums_key(ns, v)));
  const Buffer& sums = store.get(core::keys::sums_key(ns, v));
  ASSERT_EQ(sums.size(), static_cast<std::size_t>(per_chunk) * B * 8);
  for (int j = 0; j < per_chunk; ++j)
    for (std::size_t b = 0; b < B; ++b) {
      std::uint64_t got;
      std::memcpy(&got,
                  sums.data() + (static_cast<std::size_t>(j) * B + b) * 8, 8);
      EXPECT_EQ(got,
                crc64(store.get(row_key(ns, v, row, j, static_cast<int>(b)))
                          .span()))
          << "row " << row << " stripe " << j << " slot " << b;
    }
}

void expect_closed_form(cluster::Fabric& fabric, const cluster::Store& remote,
                        const core::ECCheckConfig& cfg,
                        const std::vector<dnn::StateDict>& shards,
                        std::int64_t v) {
  using core::keys::commit_key;
  using core::keys::keys_key;
  using core::keys::meta_key;
  using core::keys::row_key;
  const std::string& ns = cfg.key_namespace;
  const int n = fabric.world_size(), W = static_cast<int>(shards.size());
  const core::Placement plan = core::plan_for(n, W / n, cfg.k, cfg.m);
  const int per_chunk = plan.workers_per_chunk();
  const std::size_t P = cfg.packet_size;
  std::size_t B = 1;
  for (const auto& sd : shards)
    B = std::max(B, core::packets_needed(sd.tensor_bytes(), P));
  std::vector<core::Decomposition> decs;
  std::vector<std::vector<Buffer>> packets;
  for (const auto& sd : shards) {
    decs.push_back(core::decompose(sd));
    packets.push_back(core::pack_packets(decs.back().tensor_data, P, B));
  }

  const ec::CrsCodec codec(cfg.k, cfg.m, cfg.gf_width, cfg.kernel);
  for (int j = 0; j < per_chunk; ++j)
    for (int b = 0; b < static_cast<int>(B); ++b) {
      std::vector<ByteSpan> data;
      for (int c = 0; c < cfg.k; ++c) {
        const Buffer& want = packets[static_cast<std::size_t>(
            c * per_chunk + j)][static_cast<std::size_t>(b)];
        data.push_back(want.span());
        EXPECT_TRUE(fabric.store(plan.data_nodes[static_cast<std::size_t>(c)])
                        .get(row_key(ns, v, c, j, b)) == want)
            << "data row " << c << " stripe " << j << " slot " << b;
      }
      std::vector<Buffer> parity;
      std::vector<MutableByteSpan> out;
      for (int r = 0; r < cfg.m; ++r) {
        parity.emplace_back(P, Buffer::Init::kZeroed);
        out.push_back(parity.back().span());
      }
      codec.encode(data, out);
      for (int r = 0; r < cfg.m; ++r)
        EXPECT_TRUE(fabric.store(plan.parity_nodes[static_cast<std::size_t>(r)])
                        .get(row_key(ns, v, cfg.k + r, j, b)) ==
                    parity[static_cast<std::size_t>(r)])
            << "parity row " << r << " stripe " << j << " slot " << b;
    }

  for (int node = 0; node < n; ++node) {
    SCOPED_TRACE("node " + std::to_string(node));
    cluster::Store& store = fabric.store(node);
    const int row = plan.generator_row_of_node(node);
    EXPECT_EQ(store.keys_with_prefix(core::keys::version_prefix(ns, v) + "row/")
                  .size(),
              static_cast<std::size_t>(per_chunk) * B);
    expect_sums_match_row(store, ns, v, row, per_chunk, B);
    for (int w = 0; w < W; ++w) {
      EXPECT_TRUE(store.get(meta_key(ns, v, w)) ==
                  decs[static_cast<std::size_t>(w)].metadata_blob)
          << "worker " << w;
      EXPECT_TRUE(store.get(keys_key(ns, v, w)) ==
                  decs[static_cast<std::size_t>(w)].keys_blob)
          << "worker " << w;
    }
    if (!cfg.flush_to_remote) continue;
    for (const std::string& key :
         store.keys_with_prefix(core::keys::version_prefix(ns, v) + "row/"))
      EXPECT_TRUE(remote.get(key) == store.get(key)) << key;
  }
  if (!cfg.flush_to_remote) return;
  EXPECT_TRUE(remote.contains(commit_key(ns, v)));
  for (int w = 0; w < W; ++w) {
    EXPECT_TRUE(remote.get(meta_key(ns, v, w)) ==
                decs[static_cast<std::size_t>(w)].metadata_blob);
    EXPECT_TRUE(remote.get(keys_key(ns, v, w)) ==
                decs[static_cast<std::size_t>(w)].keys_blob);
  }
}

TEST(FabricEngine, VirtualFabricSaveMatchesClosedForm) {
  const int g = 2, W = kNodes * g;
  auto shards = dnn::make_sharded_checkpoint(gen_config(W, 7));
  const auto want = digests_of(shards);
  const core::ECCheckConfig cfg = engine_config(/*flush=*/true);

  cluster::VirtualCluster vc(vc_config(g));
  cluster::VirtualFabric fabric(vc);
  core::fabric_save(fabric, cfg, pointers(shards), 1);
  expect_closed_form(fabric, vc.remote(), cfg, shards, 1);
  std::vector<StoreImage> saved;
  for (int node = 0; node < kNodes; ++node)
    saved.push_back(snapshot(vc.host(node)));

  // Lose both parity nodes, then load: workflow A, bit-exact, and every
  // rebuilt store equal to its pre-loss image.
  vc.kill(1);
  vc.kill(3);
  vc.replace(1);
  vc.replace(3);
  std::vector<dnn::StateDict> out;
  auto rep = core::fabric_load(fabric, cfg, 1, out);
  ASSERT_TRUE(rep.success) << rep.detail;
  EXPECT_EQ(rep.detail, "workflow A (all data nodes survived)");
  ASSERT_EQ(out.size(), static_cast<std::size_t>(W));
  for (int w = 0; w < W; ++w)
    EXPECT_EQ(out[static_cast<std::size_t>(w)].digest(),
              want[static_cast<std::size_t>(w)])
        << "worker " << w;
  for (int node = 0; node < kNodes; ++node)
    expect_identical(snapshot(vc.host(node)),
                     saved[static_cast<std::size_t>(node)],
                     "node " + std::to_string(node) + " after load");
}

// A VirtualFabric window drives its nodes as ranks 0..count-1, the way the
// grouped engine runs each group: a save over nodes 4..7 of an 8-node
// cluster lands there in closed form and leaves nodes 0..3 empty, and a
// load after losing one of the window's nodes recovers bit-exact.
TEST(FabricEngine, VirtualFabricWindowSavesOnItsNodesOnly) {
  const int g = 2, W = kNodes * g;
  const auto shards = dnn::make_sharded_checkpoint(gen_config(W, 37));
  core::ECCheckConfig cfg = engine_config(/*flush=*/true);
  cfg.key_namespace = "grp1/";
  cluster::ClusterConfig cc = vc_config(g);
  cc.num_nodes = 2 * kNodes;
  cluster::VirtualCluster vc(cc);
  cluster::VirtualFabric window(vc, kNodes, kNodes);
  EXPECT_EQ(window.world_size(), kNodes);
  EXPECT_FALSE(window.drives(kNodes));
  EXPECT_THROW(window.store(kNodes), CheckFailure);

  core::fabric_save(window, cfg, pointers(shards), 1);
  expect_closed_form(window, vc.remote(), cfg, shards, 1);
  for (int node = 0; node < kNodes; ++node)
    EXPECT_EQ(vc.host(node).size(), 0u) << "node " << node;

  vc.kill(kNodes + 1);
  vc.replace(kNodes + 1);
  std::vector<dnn::StateDict> out;
  const auto rep = core::fabric_load(window, cfg, 1, out);
  ASSERT_TRUE(rep.success) << rep.detail;
  EXPECT_EQ(digests_of(out), digests_of(shards));
}

// The load report names each chunk row's outcome, as round 1 agreed on it,
// and the nodes whose metadata the load refreshed — the two facts the
// simulator's load schedule takes from the byte plane. Data rows 0, 1 live
// on nodes 0, 2; parity rows 2, 3 on nodes 1, 3.
TEST(FabricEngine, LoadReportRecordsRowOutcomes) {
  using ckpt::RowOutcome;
  const int g = 2, W = kNodes * g;
  const auto shards = dnn::make_sharded_checkpoint(gen_config(W, 29));
  const core::ECCheckConfig cfg = engine_config(/*flush=*/true);
  constexpr RowOutcome I = RowOutcome::kIntact, M = RowOutcome::kMissing,
                       R = RowOutcome::kRefetched;
  struct Case {
    std::vector<int> lost;
    std::string detail;
    std::vector<RowOutcome> rows;
  };
  for (const Case& tc :
       {Case{{1, 3}, "workflow A (all data nodes survived)", {I, I, M, M}},
        Case{{0, 1}, "workflow B (decoded 2 rows)", {M, I, M, I}},
        Case{{0, 1, 2},
             "remote fallback (refetched 3 rows from remote storage)",
             {R, R, R, I}}}) {
    SCOPED_TRACE(tc.detail);
    std::vector<bool> refreshed(kNodes, false);
    for (int node : tc.lost) refreshed[static_cast<std::size_t>(node)] = true;

    cluster::VirtualCluster vc(vc_config(g));
    cluster::VirtualFabric fabric(vc);
    core::fabric_save(fabric, cfg, pointers(shards), 1);
    for (int node : tc.lost) {
      vc.kill(node);
      vc.replace(node);
    }
    std::vector<dnn::StateDict> out;
    const auto rep = core::fabric_load(fabric, cfg, 1, out);
    ASSERT_TRUE(rep.success) << rep.detail;
    EXPECT_EQ(rep.detail, tc.detail);
    EXPECT_EQ(rep.rows, tc.rows);
    EXPECT_EQ(rep.metadata_refreshed, refreshed);
    EXPECT_EQ(digests_of(out), digests_of(shards));

    // The simulator engine's report carries the same facts.
    cluster::VirtualCluster sim(vc_config(g));
    core::ECCheckEngine engine(cfg);
    engine.save(sim, shards, 1);
    for (int node : tc.lost) {
      sim.kill(node);
      sim.replace(node);
    }
    const auto sim_rep = engine.load(sim, 1, out);
    ASSERT_TRUE(sim_rep.success) << sim_rep.detail;
    EXPECT_EQ(sim_rep.detail, tc.detail);
    EXPECT_EQ(sim_rep.rows, tc.rows);
    EXPECT_EQ(sim_rep.metadata_refreshed, refreshed);
    EXPECT_EQ(digests_of(out), digests_of(shards));
  }
}

// A load torn between a worker's meta and keys broadcasts leaves the
// replaced node 0 with every metadata blob but the last tensor-keys one.
// Round 1 must not count that node as a full metadata holder — it would
// become the broadcast root and every later load would throw on the
// missing blob — so the next loads recover bit-exact from the two intact
// rows on nodes 2 and 3.
TEST(FabricEngine, TornMetadataRefreshDoesNotWedgeLaterLoads) {
  const int g = 2, W = kNodes * g;
  const auto shards = dnn::make_sharded_checkpoint(gen_config(W, 23));
  const core::ECCheckConfig cfg = engine_config();
  cluster::VirtualCluster vc(vc_config(g));
  cluster::VirtualFabric fabric(vc);
  core::fabric_save(fabric, cfg, pointers(shards), 1);
  vc.kill(0);
  vc.replace(0);

  // The refresh broadcasts meta/w then keys/w from node 1 for w = 0..W-1;
  // the 2W-th send from 1 to 0 is keys/(W-1). Kill node 1 right there.
  struct KillOnSend final : cluster::FaultHook {
    int sends = 0;
    int fire_at = 0;
    void on_fabric_op(cluster::VirtualCluster& c,
                      const cluster::FabricOp& op) override {
      if (op.kind == cluster::FabricOp::Kind::kNetSend && op.src == 1 &&
          op.dst == 0 && ++sends == fire_at)
        c.kill(1);
    }
  } hook;
  hook.fire_at = 2 * W;
  vc.set_fault_hook(&hook);
  std::vector<dnn::StateDict> out;
  EXPECT_THROW(core::fabric_load(fabric, cfg, 1, out), CheckFailure);
  vc.set_fault_hook(nullptr);
  ASSERT_FALSE(vc.alive(1));
  ASSERT_TRUE(vc.host(0).contains(core::keys::meta_key("", 1, W - 1)));
  ASSERT_FALSE(vc.host(0).contains(core::keys::keys_key("", 1, W - 1)));
  vc.replace(1);

  for (int attempt = 0; attempt < 2; ++attempt) {
    SCOPED_TRACE("load " + std::to_string(attempt));
    const auto rep = core::fabric_load(fabric, cfg, 1, out);
    ASSERT_TRUE(rep.success) << rep.detail;
    EXPECT_EQ(digests_of(out), digests_of(shards));
  }
}

// ---------------------------------------------------------------------------
// Step 3 schedule: data packets relocate in one batch per (src, dst) edge,
// GF partials travel straight to their parity node in one batch per edge
// and packet slot. SendBuffersTap observes (or, by throwing, kills) every
// batch.
// ---------------------------------------------------------------------------

using testutil::KeyPairs;
using testutil::SendBuffersTap;

/// Packets holding each worker's tensor bytes; the rest of its B packets
/// is zero padding.
std::vector<std::size_t> live_counts(const std::vector<dnn::StateDict>& shards,
                                     std::size_t packet_size) {
  std::vector<std::size_t> live;
  for (const auto& sd : shards)
    live.push_back(core::packets_needed(sd.tensor_bytes(), packet_size));
  return live;
}

/// W small uniform shards (~41 KiB each: three 16 KiB packets), distinct per
/// seed — keeps the per-batch loops below fast. `padded` shrinks worker w to
/// 3 − w mod 3 packets instead, so the slots behind it are padding.
std::vector<dnn::StateDict> small_shards(int W, std::uint64_t seed,
                                         bool padded = false) {
  dnn::SparseUpdateSpec spec;
  spec.embedding_dim = 64;
  spec.dense_tensors = 1;
  spec.dense_elems = 100;
  spec.seed = seed;
  std::vector<dnn::StateDict> shards;
  for (int w = 0; w < W; ++w) {
    spec.embedding_rows = padded ? 160 - 60 * (w % 3) : 160;
    shards.push_back(dnn::make_sparse_model_shard(spec, w));
  }
  return shards;
}

// A full save of equal-size shards (no slot is padding) puts exactly the
// paper's volume on the wire (§IV-B2, core::actual_comm_volume): each data
// packet away from its data node
// crosses once, each parity packet once per remote participant — and no
// collective runs in step 3. Stores match the closed form and load back
// bit-exact.
TEST(FabricEngine, FullSaveMovesExactlyThePlannedVolume) {
  struct Shape {
    int n, g, k, m;
  };
  // {8, 1, 4, 4}: one shard per node with k = m = n/2, the layout of
  // bench/scale_transport's stripe workload.
  for (const Shape s : {Shape{4, 4, 2, 2}, Shape{4, 3, 3, 1},
                        Shape{5, 2, 2, 3}, Shape{8, 1, 4, 4}}) {
    SCOPED_TRACE("n=" + std::to_string(s.n) + " g=" + std::to_string(s.g) +
                 " k=" + std::to_string(s.k) + " m=" + std::to_string(s.m));
    const auto shards = small_shards(s.n * s.g, 5);
    core::ECCheckConfig cfg;
    cfg.k = s.k;
    cfg.m = s.m;
    cfg.packet_size = kib(16);
    cluster::ClusterConfig cc;
    cc.num_nodes = s.n;
    cc.gpus_per_node = s.g;
    cluster::VirtualCluster vc(cc);
    cluster::VirtualFabric inner(vc);
    SendBuffersTap fabric(inner);
    const ckpt::SaveReport rep =
        core::fabric_save(fabric, cfg, pointers(shards), 1);

    std::size_t B = 0;
    for (const auto& sd : shards)
      B = std::max(B, core::packets_needed(sd.tensor_bytes(), cfg.packet_size));
    const double want =
        core::actual_comm_volume(core::plan_for(s.n, s.g, s.k, s.m),
                                 static_cast<double>(B * cfg.packet_size))
            .total();
    EXPECT_EQ(rep.stats.at("net.send.bytes"), static_cast<std::uint64_t>(want));
    EXPECT_EQ(fabric.ring_calls, 0);

    expect_closed_form(fabric, vc.remote(), cfg, shards, 1);

    std::vector<dnn::StateDict> out;
    const auto l = core::fabric_load(fabric, cfg, 1, out);
    ASSERT_TRUE(l.success) << l.detail;
    EXPECT_EQ(digests_of(out), digests_of(shards));
  }
}

// Degraded save with ranks 2 (data node of chunk 1) and 3 (parity row 1)
// dead: rank 0 adopts both, so in groups j = 0, 1 it holds two
// participants and folds them into one partial. Step 3 must address no
// bytes to a dead rank and stage no partial for the dead parity row; the
// surviving parity row must equal a full save's, and after replacement the
// two surviving rows decode bit-exact. The shards are padded (141/69/35
// packets), so the traffic pins count live packets only.
TEST(FabricEngine, DegradedSaveSkipsDeadParityRowAndFoldsAdoptedPartials) {
  const int g = 2, W = kNodes * g;
  const auto shards = dnn::make_sharded_checkpoint(gen_config(W, 13));
  const core::ECCheckConfig cfg = engine_config();
  const std::vector<std::size_t> live = live_counts(shards, cfg.packet_size);
  // Group j's partial leaves rank 0 while one of its participants sited
  // there is live: workers j and 4 + j folded for j = 0, 1; worker 4 + j
  // alone for j = 2, 3, whose worker j is on rank 1, the parity node.
  const std::vector<std::size_t> partial_live = {
      std::max(live[0], live[4]), std::max(live[1], live[5]), live[6],
      live[7]};
  const std::size_t slots =
      *std::max_element(partial_live.begin(), partial_live.end());

  cluster::VirtualCluster vc(vc_config(g));
  vc.kill(2);
  vc.kill(3);
  cluster::VirtualFabric inner(vc);
  SendBuffersTap fabric(inner);
  std::vector<std::pair<int, int>> edges;
  std::set<std::string> staged;  // partial keys held at any batch
  std::size_t slot = 0;          // partial batches run one per live slot
  fabric.before_send_buffers = [&](int src, int dst, const KeyPairs& pairs) {
    edges.emplace_back(src, dst);
    for (int node : {0, 1})
      for (const auto& key : vc.host(node).keys_with_prefix("tmp/1/partial/"))
        staged.insert(key);
    if (pairs.front().first.find("/partial/") != std::string::npos) {
      // The live groups' single (folded) partials, one key per group.
      EXPECT_EQ(src, 0);
      EXPECT_EQ(dst, 1);
      EXPECT_EQ(pairs.size(),
                static_cast<std::size_t>(std::count_if(
                    partial_live.begin(), partial_live.end(),
                    [&](std::size_t n) { return n > slot; })))
          << "slot " << slot;
      ++slot;
    }
  };
  const ckpt::SaveReport rep = core::fabric_save(
      fabric, cfg, pointers(shards), 1, core::Membership::of({0, 1}));

  for (const auto& [src, dst] : edges) {
    EXPECT_TRUE(src == 0 || src == 1) << src << "->" << dst;
    EXPECT_TRUE(dst == 0 || dst == 1) << src << "->" << dst;
  }
  // "tmp/1/partial/<j>/<r>/<site>": parity row r = 0 only.
  ASSERT_FALSE(staged.empty());
  for (const auto& key : staged)
    EXPECT_EQ(key.substr(key.find('/', 14) + 1, 2), "0/") << key;
  const std::size_t B =
      vc.host(0).keys_with_prefix(core::keys::version_prefix("", 1) +
                                  "row/0/0/")
          .size();
  EXPECT_EQ(B, *std::max_element(live.begin(), live.end()));
  EXPECT_EQ(slot, slots);
  // The live packets of the two relocated workers (2, 3) plus every live
  // partial.
  const std::size_t live_packets =
      live[2] + live[3] +
      std::accumulate(partial_live.begin(), partial_live.end(),
                      std::size_t{0});
  EXPECT_EQ(rep.stats.at("net.send.bytes"), live_packets * cfg.packet_size);
  for (int node : {0, 1}) {
    EXPECT_TRUE(vc.host(node).keys_with_prefix("tmp/").empty());
    EXPECT_TRUE(vc.host(node).keys_with_prefix("ec/1/row/3/").empty());
  }

  // The surviving parity row equals the one a full-membership save builds.
  cluster::VirtualCluster full(vc_config(g));
  cluster::VirtualFabric full_fabric(full);
  core::fabric_save(full_fabric, cfg, pointers(shards), 1);
  expect_identical(snapshot(vc.host(1), "ec/1/row/2/"),
                   snapshot(full.host(1), "ec/1/row/2/"), "parity row 2");

  vc.replace(2);
  vc.replace(3);
  std::vector<dnn::StateDict> out;
  const auto l = core::fabric_load(fabric, cfg, 1, out);
  ASSERT_TRUE(l.success) << l.detail;
  EXPECT_NE(l.detail.find("workflow B"), std::string::npos) << l.detail;
  EXPECT_EQ(digests_of(out), digests_of(shards));
}

// ---------------------------------------------------------------------------
// Padding off the wire: a worker's packets past its own count are zero
// padding, and a slot that is padding for every worker it covers (a data
// packet, or a parity slot of a group whose members all ended) is never
// shipped, encoded or decoded — yet stored, so the stripe is unchanged.
// ---------------------------------------------------------------------------

/// Live slots [0, row_live) of stripe j of chunk row `row`: its worker's
/// count for a data row, the group maximum for a parity row.
std::size_t row_live(const core::Placement& plan,
                     const std::vector<std::size_t>& live, int row, int j) {
  const int k = plan.config.k, pc = plan.workers_per_chunk();
  if (row < k) return live[static_cast<std::size_t>(row * pc + j)];
  std::size_t n = 0;
  for (int c = 0; c < k; ++c)
    n = std::max(n, live[static_cast<std::size_t>(c * pc + j)]);
  return n;
}

/// Packets a full-membership save ships: each live data packet away from
/// its data node once, plus each participant's live partials when it is
/// not on the parity node (a reduction's k participants sit on k distinct
/// nodes under full membership, so no site folds two).
std::size_t live_save_packets(const core::Placement& plan,
                              const std::vector<std::size_t>& live) {
  const int g = plan.config.gpus_per_node;
  std::size_t packets = 0;
  for (int w = 0; w < plan.world_size(); ++w)
    if (w / g != plan.data_nodes[static_cast<std::size_t>(
                     plan.chunk_of_worker(w))])
      packets += live[static_cast<std::size_t>(w)];
  for (const core::ReductionOp& op : plan.reductions)
    for (int p : op.participants)
      if (p / g != op.dest_node) packets += live[static_cast<std::size_t>(p)];
  return packets;
}

/// Packets a full-membership load ships after the nodes in `lost` were
/// replaced empty: each lost data row decodes from the first k surviving
/// rows (a source packet crosses for the slots live on both ends), every
/// worker refills its live packets from a remote data node, and each lost
/// parity row re-encodes from the k data rows.
std::size_t live_load_packets(const core::Placement& plan,
                              const std::vector<std::size_t>& live,
                              const std::vector<int>& lost) {
  const int k = plan.config.k, g = plan.config.gpus_per_node;
  const int n = plan.config.num_nodes;
  std::vector<int> missing, survivors;
  for (int node = 0; node < n; ++node)
    (std::find(lost.begin(), lost.end(), node) != lost.end() ? missing
                                                             : survivors)
        .push_back(plan.generator_row_of_node(node));
  std::sort(missing.begin(), missing.end());
  std::sort(survivors.begin(), survivors.end());
  std::size_t packets = 0;
  for (int t : missing)
    for (int j = 0; j < plan.workers_per_chunk(); ++j)
      for (int s = 0; s < k; ++s) {
        const int src = t < k ? survivors[static_cast<std::size_t>(s)] : s;
        packets += std::min(row_live(plan, live, t, j),
                            row_live(plan, live, src, j));
      }
  for (int w = 0; w < plan.world_size(); ++w)
    if (w / g != plan.data_nodes[static_cast<std::size_t>(
                     plan.chunk_of_worker(w))])
      packets += live[static_cast<std::size_t>(w)];
  return packets;
}

/// The last three '/'-separated fields of a row or partial key as numbers:
/// "…/row/<row>/<j>/<b>" → {row, j, b}, "…/partial/<j>/<r>/<site>" →
/// {j, r, site}.
std::array<int, 3> last_fields(const std::string& key) {
  std::array<int, 3> f{};
  std::size_t end = key.size();
  for (int i = 2; i >= 0; --i) {
    const std::size_t slash = key.rfind('/', end - 1);
    f[static_cast<std::size_t>(i)] =
        std::stoi(key.substr(slash + 1, end - slash - 1));
    end = slash;
  }
  return f;
}

TEST(FabricEngine, PaddingSlotsNeverCrossTheWire) {
  // gen_config's TP=2 x PP=4 GPT-2, and the testbed layout of
  // bench/e2e's dense_full (16 GPT-2 workers, TP=4 inside a rank, PP=4
  // across ranks), both at 16 KiB packets.
  dnn::CheckpointGenConfig testbed;
  testbed.model = dnn::make_model(dnn::ModelFamily::kGPT2, 96, 8, 8, "gpt2");
  testbed.model.vocab = 512;
  testbed.parallelism = {4, kNodes, 1};
  testbed.seed = 17;
  struct Case {
    const char* name;
    int g;
    dnn::CheckpointGenConfig gen;
  };
  for (const Case& tc : {Case{"gen_config", 2, gen_config(kNodes * 2, 17)},
                         Case{"gpt2 tp4 x pp4", 4, testbed}}) {
    SCOPED_TRACE(tc.name);
    const auto shards = dnn::make_sharded_checkpoint(tc.gen);
    const core::ECCheckConfig cfg = engine_config();
    const std::size_t P = cfg.packet_size;
    const std::vector<std::size_t> live = live_counts(shards, P);
    ASSERT_NE(*std::min_element(live.begin(), live.end()),
              *std::max_element(live.begin(), live.end()))
        << "shape must be padded";
    const core::Placement plan = core::plan_for(kNodes, tc.g, kK, kM);

    // Save: exactly the live volume; no relocated packet is padding, and
    // each partial key ships once per slot its participant is live.
    cluster::VirtualCluster vc(vc_config(tc.g));
    cluster::VirtualFabric inner(vc);
    SendBuffersTap fabric(inner);
    std::map<std::string, std::size_t> partial_ships;
    fabric.before_send_buffers = [&](int, int, const KeyPairs& pairs) {
      for (const auto& [src_key, dst_key] : pairs) {
        if (src_key.find("/partial/") != std::string::npos) {
          ++partial_ships[src_key];
          continue;
        }
        // "tmp/1/local/<w>/<b>" relocating to "ec/1/row/<c>/<j>/<b>".
        const auto [c, j, b] = last_fields(dst_key);
        EXPECT_LT(static_cast<std::size_t>(b), row_live(plan, live, c, j))
            << src_key;
      }
    };
    fabric.before_send_buffer = [&](int, int, const std::string& key,
                                    const std::string&) {
      ADD_FAILURE() << "save sent a single packet: " << key;
    };
    const ckpt::SaveReport rep =
        core::fabric_save(fabric, cfg, pointers(shards), 1);
    EXPECT_EQ(rep.stats.at("net.send.bytes"),
              live_save_packets(plan, live) * P);
    ASSERT_FALSE(partial_ships.empty());
    for (const auto& [key, ships] : partial_ships) {
      // "tmp/1/partial/<j>/<r>/<site>": the participant of group j on site.
      const auto [j, r, site] = last_fields(key);
      (void)r;
      std::size_t want = 0;
      for (int c = 0; c < kK; ++c) {
        const int w = c * plan.workers_per_chunk() + j;
        if (w / tc.g == site) want = live[static_cast<std::size_t>(w)];
      }
      EXPECT_EQ(ships, want) << key;
    }

    // Every store matches the closed form: the padding is stored.
    expect_closed_form(fabric, vc.remote(), cfg, shards, 1);
    std::vector<StoreImage> saved;
    for (int node = 0; node < kNodes; ++node)
      saved.push_back(snapshot(vc.host(node)));

    // Load after every loss set of size ≤ m: bit-exact, exactly the live
    // volume, and every rebuilt store equal to its pre-loss image.
    fabric.before_send_buffers = [&](int, int, const KeyPairs& pairs) {
      for (const auto& [src_key, dst_key] : pairs) {
        const auto [row, j, b] = last_fields(src_key);
        EXPECT_LT(static_cast<std::size_t>(b), row_live(plan, live, row, j))
            << src_key;
      }
    };
    fabric.before_send_buffer = [&](int, int, const std::string& src_key,
                                    const std::string&) {
      const auto [row, j, b] = last_fields(src_key);
      EXPECT_LT(static_cast<std::size_t>(b), row_live(plan, live, row, j))
          << src_key;
    };
    std::vector<std::vector<int>> losses = {{}};
    for (int a = 0; a < kNodes; ++a) {
      losses.push_back({a});
      for (int b = a + 1; b < kNodes; ++b) losses.push_back({a, b});
    }
    for (const std::vector<int>& lost : losses) {
      std::string name = "lost {";
      for (int node : lost) name += std::to_string(node) + ",";
      SCOPED_TRACE(name + "}");
      for (int node : lost) {
        vc.kill(node);
        vc.replace(node);
      }
      std::vector<dnn::StateDict> out;
      const ckpt::LoadReport l = core::fabric_load(fabric, cfg, 1, out);
      ASSERT_TRUE(l.success) << l.detail;
      EXPECT_EQ(digests_of(out), digests_of(shards));
      EXPECT_EQ(l.stats.at("net.send.bytes"),
                live_load_packets(plan, live, lost) * P);
      for (int node = 0; node < kNodes; ++node)
        expect_identical(snapshot(vc.host(node)),
                         saved[static_cast<std::size_t>(node)],
                         "node " + std::to_string(node) + " after load");
    }
  }
}

// Degraded load with both data nodes (0, 2) dead: rank 1, the adopter,
// rebuilds both data rows from parity rows 2 (its own) and 3 (rank 3's).
// Each of rank 3's live packets must cross once, not once per data row;
// refill then ships rank 3's workers their live packets.
TEST(FabricEngine, DegradedLoadShipsEachBasisPacketOncePerSite) {
  const int g = 2, W = kNodes * g;
  const auto shards = dnn::make_sharded_checkpoint(gen_config(W, 19));
  const core::ECCheckConfig cfg = engine_config();
  const std::vector<std::size_t> live = live_counts(shards, cfg.packet_size);

  cluster::VirtualCluster vc(vc_config(g));
  cluster::VirtualFabric inner(vc);
  SendBuffersTap fabric(inner);
  core::fabric_save(fabric, cfg, pointers(shards), 1);
  const core::Placement plan = core::plan_for(kNodes, g, kK, kM);
  ASSERT_EQ(plan.data_nodes, (std::vector<int>{0, 2}));
  ASSERT_EQ(plan.parity_nodes, (std::vector<int>{1, 3}));
  vc.kill(0);
  vc.kill(2);

  std::map<std::string, int> sent;  // basis packet → sends to rank 1
  fabric.before_send_buffer = [&](int src, int dst, const std::string& key,
                                  const std::string&) {
    EXPECT_EQ(src, 3) << key;
    EXPECT_EQ(dst, 1) << key;
    ++sent[key];
  };
  std::vector<dnn::StateDict> out;
  const ckpt::LoadReport l = core::fabric_load(fabric, cfg, 1, out,
                                               core::Membership::of({1, 3}));
  ASSERT_TRUE(l.success) << l.detail;
  EXPECT_NE(l.detail.find("workflow B (decoded 2 rows)"), std::string::npos)
      << l.detail;
  EXPECT_EQ(digests_of(out), digests_of(shards));
  for (const auto& [key, n] : sent) EXPECT_EQ(n, 1) << key;
  // Parity row 3's stripe j is live while either of its workers j, 4 + j
  // is; rank 3's workers 6, 7 then refill from data row 1, adopted by
  // rank 1.
  std::size_t decoded = 0;
  for (int j = 0; j < W / kK; ++j)
    decoded += std::max(live[static_cast<std::size_t>(j)],
                        live[static_cast<std::size_t>(4 + j)]);
  EXPECT_EQ(sent.size(), decoded);
  EXPECT_EQ(l.stats.at("net.send.bytes"),
            (decoded + live[6] + live[7]) * cfg.packet_size);
}

// Refill streams a worker shipped from another rank through windows of
// max(1, kRefillBatchBytes / P) packets: each batch holds at most one
// window, and the worker's site unpacks and erases a window before the next
// lands, so it never stages more than one, however large the shard. Ten
// 256 KiB packets per worker make three windows of four.
TEST(FabricEngine, RefillStagesAtMostOneWindow) {
  const int g = 1, W = kNodes * g;
  dnn::SparseUpdateSpec spec;
  spec.embedding_rows = 10000;  // 2.44 MiB of embedding per worker
  spec.dense_tensors = 1;
  spec.dense_elems = 100;
  spec.seed = 23;
  std::vector<dnn::StateDict> shards;
  for (int w = 0; w < W; ++w)
    shards.push_back(dnn::make_sparse_model_shard(spec, w));
  core::ECCheckConfig cfg = engine_config();
  cfg.packet_size = kib(256);
  const std::size_t window =
      std::max<std::size_t>(1, core::kRefillBatchBytes / cfg.packet_size);
  const std::vector<std::size_t> live = live_counts(shards, cfg.packet_size);
  const core::Placement plan = core::plan_for(kNodes, g, kK, kM);
  auto data_node_of = [&](int w) {
    return plan.data_nodes[static_cast<std::size_t>(plan.chunk_of_worker(w))];
  };
  int worker = 0;
  while (worker < W && data_node_of(worker) == worker / g) ++worker;
  ASSERT_LT(worker, W) << "some worker must refill from another rank";
  ASSERT_GT(live[static_cast<std::size_t>(worker)], 2 * window);

  cluster::VirtualCluster vc(vc_config(g));
  cluster::VirtualFabric inner(vc);
  SendBuffersTap fabric(inner);
  core::fabric_save(fabric, cfg, pointers(shards), 1);
  vc.kill(data_node_of(worker));
  vc.replace(data_node_of(worker));

  const std::string refill = core::keys::tmp_prefix("", 1) + "load/refill/";
  const std::string mine = refill + std::to_string(worker) + "/";
  std::size_t worker_batches = 0;
  fabric.before_send_buffers = [&](int, int, const KeyPairs& pairs) {
    if (pairs.empty() || pairs.front().second.rfind(refill, 0) != 0) return;
    EXPECT_LE(pairs.size(), window) << pairs.front().second;
    if (pairs.front().second.rfind(mine, 0) == 0) ++worker_batches;
  };
  fabric.after_send_buffers = [&](int, int dst, const KeyPairs&) {
    EXPECT_LE(fabric.store(dst).keys_with_prefix(refill).size(), window);
  };
  std::vector<dnn::StateDict> out;
  const ckpt::LoadReport l = core::fabric_load(fabric, cfg, 1, out);
  ASSERT_TRUE(l.success) << l.detail;
  EXPECT_NE(l.detail.find("workflow B"), std::string::npos) << l.detail;
  EXPECT_EQ(digests_of(out), digests_of(shards));
  EXPECT_EQ(worker_batches,
            (live[static_cast<std::size_t>(worker)] + window - 1) / window);
  for (int node = 0; node < kNodes; ++node)
    EXPECT_TRUE(fabric.store(node).keys_with_prefix(refill).empty()) << node;
}

// ---------------------------------------------------------------------------
// Row sums taken where each packet is produced: after every save and every
// repair, each alive node's sums blob is the CRC-64 of each stored row
// packet, and no row was reread for its sums (`integrity.sums.rescan.count`
// stays 0). Covered on uniform and padded shards, on full and degraded
// saves, and on every loss set of size ≤ m on load (workflow A, workflow B,
// degraded), in both kernel modes, over VirtualFabric and over sockets.
// ---------------------------------------------------------------------------

std::uint64_t rescans(const std::map<std::string, std::uint64_t>& stats) {
  const auto it = stats.find("integrity.sums.rescan.count");
  return it == stats.end() ? 0 : it->second;
}

/// A loss of at most m nodes before a load: the `dead` stay dead through it
/// (a degraded load), the `replaced` come back empty.
struct LossCase {
  std::vector<int> dead, replaced;

  bool is_dead(int node) const {
    return std::find(dead.begin(), dead.end(), node) != dead.end();
  }
  bool is_replaced(int node) const {
    return std::find(replaced.begin(), replaced.end(), node) != replaced.end();
  }
  std::vector<int> alive() const {
    std::vector<int> nodes;
    for (int node = 0; node < kNodes; ++node)
      if (!is_dead(node)) nodes.push_back(node);
    return nodes;
  }
  core::Membership members() const {
    return dead.empty() ? core::Membership{} : core::Membership::of(alive());
  }
  std::string name() const {
    std::string s = "dead {";
    for (int node : dead) s += std::to_string(node) + ",";
    s += "} replaced {";
    for (int node : replaced) s += std::to_string(node) + ",";
    return s + "}";
  }
};

/// Every loss set of size ≤ m (the empty one too), split every way into
/// dead and replaced nodes.
std::vector<LossCase> loss_cases() {
  std::vector<std::vector<int>> sets = {{}};
  for (int a = 0; a < kNodes; ++a) {
    sets.push_back({a});
    for (int b = a + 1; b < kNodes; ++b) sets.push_back({a, b});
  }
  std::vector<LossCase> cases;
  for (const std::vector<int>& set : sets)
    for (unsigned mask = 0; mask < (1u << set.size()); ++mask) {
      LossCase lc;
      for (std::size_t i = 0; i < set.size(); ++i)
        ((mask >> i) & 1u ? lc.dead : lc.replaced).push_back(set[i]);
      cases.push_back(lc);
    }
  return cases;
}

core::Placement test_plan(int g) { return core::plan_for(kNodes, g, kK, kM); }

const char* kernel_name(ec::KernelMode kernel) {
  return kernel == ec::KernelMode::kGfTable ? "gftable" : "bitmatrix";
}

/// Each of `nodes` holds version 1 committed with sums matching its row.
void expect_sums_on(cluster::VirtualCluster& vc, const core::Placement& plan,
                    std::size_t B, const std::vector<int>& nodes) {
  for (int node : nodes) {
    SCOPED_TRACE("node " + std::to_string(node));
    expect_sums_match_row(vc.host(node), "", 1,
                          plan.generator_row_of_node(node),
                          plan.workers_per_chunk(), B);
  }
}

TEST(FabricEngine, RowSumsMatchStoredPacketsAfterEverySaveAndRepair) {
  const int g = 2, W = kNodes * g;
  const core::Placement plan = test_plan(g);
  const std::vector<int> everyone = {0, 1, 2, 3};
  for (const ec::KernelMode kernel :
       {ec::KernelMode::kGfTable, ec::KernelMode::kXorBitmatrix})
    for (const bool padded : {false, true}) {
      SCOPED_TRACE(std::string(kernel_name(kernel)) +
                   (padded ? ", padded shards" : ", uniform shards"));
      const auto shards = small_shards(W, 43, padded);
      core::ECCheckConfig cfg = engine_config();
      cfg.kernel = kernel;
      const std::vector<std::size_t> live = live_counts(shards, cfg.packet_size);
      const std::size_t B = *std::max_element(live.begin(), live.end());

      // Degraded saves: a dead data node (2), a dead parity node (3), and
      // both, where the adopter folds two participants into one partial.
      // Replacing the dead then rebuilds their rows.
      for (const std::vector<int>& dead :
           {std::vector<int>{2}, std::vector<int>{3}, std::vector<int>{2, 3}}) {
        const LossCase lc{dead, {}};
        SCOPED_TRACE("degraded save, " + lc.name());
        cluster::VirtualCluster vc(vc_config(g));
        cluster::VirtualFabric fabric(vc);
        for (int node : dead) vc.kill(node);
        const ckpt::SaveReport rep =
            core::fabric_save(fabric, cfg, pointers(shards), 1, lc.members());
        EXPECT_EQ(rescans(rep.stats), 0u);
        expect_sums_on(vc, plan, B, lc.alive());
        for (int node : dead) vc.replace(node);
        std::vector<dnn::StateDict> out;
        const ckpt::LoadReport l = core::fabric_load(fabric, cfg, 1, out);
        ASSERT_TRUE(l.success) << l.detail;
        EXPECT_EQ(digests_of(out), digests_of(shards));
        EXPECT_EQ(rescans(l.stats), 0u);
        expect_sums_on(vc, plan, B, everyone);
      }

      // A full save, then every loss case. A degraded load is followed by
      // the full load that rebuilds the dead nodes once replaced, and each
      // repair leaves every store as the save left it.
      cluster::VirtualCluster vc(vc_config(g));
      cluster::VirtualFabric fabric(vc);
      const ckpt::SaveReport rep =
          core::fabric_save(fabric, cfg, pointers(shards), 1);
      EXPECT_EQ(rescans(rep.stats), 0u);
      expect_closed_form(fabric, vc.remote(), cfg, shards, 1);
      std::vector<StoreImage> saved;
      for (int node = 0; node < kNodes; ++node)
        saved.push_back(snapshot(vc.host(node)));
      for (const LossCase& lc : loss_cases()) {
        SCOPED_TRACE(lc.name());
        for (int node : lc.dead) vc.kill(node);
        for (int node : lc.replaced) {
          vc.kill(node);
          vc.replace(node);
        }
        std::vector<dnn::StateDict> out;
        const ckpt::LoadReport l =
            core::fabric_load(fabric, cfg, 1, out, lc.members());
        ASSERT_TRUE(l.success) << l.detail;
        EXPECT_EQ(l.detail.find("degraded") != std::string::npos,
                  !lc.dead.empty())
            << l.detail;
        EXPECT_EQ(digests_of(out), digests_of(shards));
        EXPECT_EQ(rescans(l.stats), 0u);
        expect_sums_on(vc, plan, B, lc.alive());
        if (!lc.dead.empty()) {
          for (int node : lc.dead) vc.replace(node);
          const ckpt::LoadReport heal = core::fabric_load(fabric, cfg, 1, out);
          ASSERT_TRUE(heal.success) << heal.detail;
          EXPECT_EQ(digests_of(out), digests_of(shards));
          EXPECT_EQ(rescans(heal.stats), 0u);
        }
        for (int node = 0; node < kNodes; ++node)
          expect_identical(snapshot(vc.host(node)),
                           saved[static_cast<std::size_t>(node)],
                           "node " + std::to_string(node) + " after repair");
      }
    }
}

// The one repair that still rereads rows for their sums: rows refetched
// from the remote flush after more than m nodes lost their stores, one
// rescan per refetched row.
TEST(FabricEngine, RemoteRefetchIsTheOnlyRowSumsRescan) {
  const int g = 2, W = kNodes * g;
  const auto shards = small_shards(W, 47, /*padded=*/true);
  const core::ECCheckConfig cfg = engine_config(/*flush=*/true);
  const std::vector<std::size_t> live = live_counts(shards, cfg.packet_size);
  cluster::VirtualCluster vc(vc_config(g));
  cluster::VirtualFabric fabric(vc);
  const ckpt::SaveReport rep =
      core::fabric_save(fabric, cfg, pointers(shards), 1);
  EXPECT_EQ(rescans(rep.stats), 0u);
  for (int node : {0, 1, 2}) {
    vc.kill(node);
    vc.replace(node);
  }
  std::vector<dnn::StateDict> out;
  const ckpt::LoadReport l = core::fabric_load(fabric, cfg, 1, out);
  ASSERT_TRUE(l.success) << l.detail;
  EXPECT_NE(l.detail.find("remote fallback"), std::string::npos) << l.detail;
  EXPECT_EQ(digests_of(out), digests_of(shards));
  EXPECT_EQ(rescans(l.stats), 3u);
  expect_sums_on(vc, test_plan(g),
                 *std::max_element(live.begin(), live.end()), {0, 1, 2, 3});
}

// A peer dying at any step-3 batch — data relocation or any slot's partials
// — must leave no staging key behind after FabricSession's rollback, keep
// the previous version loadable bit-exact, and let the retried save commit
// exactly once — on uniform shards and on padded ones, whose partial
// batches shrink as workers run out of live slots.
void torn_step3_at_every_batch(const std::vector<dnn::StateDict>& v1,
                               const std::vector<dnn::StateDict>& v2) {
  const int g = 2;
  const core::ECCheckConfig cfg = engine_config();

  int batches = 0;
  {
    cluster::VirtualCluster vc(vc_config(g));
    cluster::VirtualFabric inner(vc);
    SendBuffersTap fabric(inner);
    fabric.before_send_buffers = [&](int, int, const KeyPairs&) { ++batches; };
    core::fabric_save(fabric, cfg, pointers(v2), 1);
  }
  ASSERT_GT(batches, 2);

  for (int fuse = 0; fuse < batches; ++fuse) {
    SCOPED_TRACE("batch " + std::to_string(fuse) + " of " +
                 std::to_string(batches));
    cluster::VirtualCluster vc(vc_config(g));
    cluster::VirtualFabric inner(vc);
    SendBuffersTap fabric(inner);
    core::FabricSession session(fabric, cfg, g, 2);
    session.save(pointers(v1));
    std::vector<std::vector<std::string>> committed;
    for (int node = 0; node < kNodes; ++node)
      committed.push_back(vc.host(node).keys_with_prefix(""));

    int seen = 0;
    fabric.before_send_buffers = [&](int, int, const KeyPairs&) {
      if (seen++ == fuse)
        throw CheckFailure("injected peer death mid step 3");
    };
    EXPECT_THROW(session.save(pointers(v2)), CheckFailure);
    fabric.before_send_buffers = nullptr;
    // Rollback restores exactly the key set version 1 committed.
    for (int node = 0; node < kNodes; ++node) {
      EXPECT_TRUE(vc.host(node).keys_with_prefix("tmp/").empty())
          << "node " << node;
      EXPECT_EQ(vc.host(node).keys_with_prefix(""),
                committed[static_cast<std::size_t>(node)])
          << "node " << node;
    }

    core::FabricSession fresh(fabric, cfg, g, 2);
    std::vector<dnn::StateDict> out;
    const auto l1 = fresh.load(out);
    ASSERT_TRUE(l1.report.success) << l1.report.detail;
    EXPECT_EQ(l1.version, 1);
    EXPECT_EQ(digests_of(out), digests_of(v1));

    fresh.save(pointers(v2));
    EXPECT_EQ(fresh.latest_version(), 2);
    for (int node = 0; node < kNodes; ++node) {
      EXPECT_TRUE(vc.host(node).contains(core::keys::commit_key("", 2)))
          << "node " << node;
      EXPECT_TRUE(vc.host(node).keys_with_prefix("ec/3/").empty())
          << "node " << node;
      EXPECT_TRUE(vc.host(node).keys_with_prefix("tmp/").empty())
          << "node " << node;
    }
    const auto l2 = fresh.load(out);
    ASSERT_TRUE(l2.report.success) << l2.report.detail;
    EXPECT_EQ(l2.version, 2);
    EXPECT_EQ(digests_of(out), digests_of(v2));
  }
}

TEST(FabricEngine, TornStep3SaveRollsBackAtEveryBatch) {
  for (const bool padded : {false, true}) {
    SCOPED_TRACE(padded ? "padded shards" : "uniform shards");
    torn_step3_at_every_batch(small_shards(kNodes * 2, 31, padded),
                              small_shards(kNodes * 2, 32, padded));
  }
}

// ---------------------------------------------------------------------------
// Socket transport vs VirtualFabric: the same FabricSession sequence —
// three saves under a retention window of two (so version 1 is pruned),
// SIGKILL-equivalent peer replacement, recovery — over UDS threads and over
// the simulator, compared store-for-store.
// ---------------------------------------------------------------------------

void session_sequence(core::FabricSession& session, cluster::Fabric& fabric,
                      int g, const std::function<void()>& fail_and_replace) {
  const int W = fabric.world_size() * g;
  for (std::uint64_t seed : {21u, 22u, 23u}) {
    std::vector<dnn::StateDict> mine;
    for (int w : session.driven_workers())
      mine.push_back(dnn::make_worker_state_dict(gen_config(W, seed), w));
    session.save(pointers(mine));
  }
  fail_and_replace();
}

std::vector<std::uint64_t> expected_digests(int W, std::uint64_t seed) {
  std::vector<std::uint64_t> d;
  for (int w = 0; w < W; ++w)
    d.push_back(dnn::make_worker_state_dict(gen_config(W, seed), w).digest());
  return d;
}

TEST(FabricEngine, SocketSessionCycleMatchesVirtualFabricByteExact) {
  const int g = 2, W = kNodes * g;
  const std::vector<int> replaced = {1, 3};
  const auto want = expected_digests(W, 23);  // newest surviving version

  TempDir dir;
  auto eps = uds_endpoints(dir, kNodes);
  std::vector<StoreImage> socket_imgs(kNodes);
  std::vector<std::vector<std::uint64_t>> socket_digests(kNodes);
  std::vector<std::int64_t> socket_versions(kNodes, -1);
  std::latch saved(kNodes), rebuilt(kNodes);

  run_ranks(kNodes, [&](int rank) {
    auto fabric =
        std::make_unique<net::SocketTransport>(rank, eps, fast_opts(dir));
    const bool is_replaced =
        std::find(replaced.begin(), replaced.end(), rank) != replaced.end();
    {
      core::FabricSession session(*fabric, engine_config(), g,
                                  /*retain_versions=*/2);
      session_sequence(session, *fabric, g, [&] {
        saved.arrive_and_wait();
        if (is_replaced) {
          fabric.reset();  // the process dies; volatile store is gone
          fabric = std::make_unique<net::SocketTransport>(rank, eps,
                                                          fast_opts(dir));
        } else {
          for (int dead : replaced) fabric->reset_peer(dead);
        }
        rebuilt.arrive_and_wait();
      });
    }
    // Recovery runs in a fresh session (a restarted job would not carry the
    // old one), including on the surviving ranks.
    core::FabricSession session(*fabric, engine_config(), g, 2);
    std::vector<dnn::StateDict> out;
    auto r = session.load(out);
    ASSERT_TRUE(r.report.success) << "rank " << rank << ": "
                                  << r.report.detail;
    socket_versions[static_cast<std::size_t>(rank)] = r.version;
    socket_digests[static_cast<std::size_t>(rank)] = digests_of(out);
    socket_imgs[static_cast<std::size_t>(rank)] =
        snapshot(fabric->store(rank));
  });

  // Reference: byte-identical sequence over the simulator.
  cluster::VirtualCluster vc(vc_config(g));
  cluster::VirtualFabric fabric(vc);
  std::vector<std::uint64_t> ref_digests;
  std::int64_t ref_version = -1;
  {
    core::FabricSession session(fabric, engine_config(), g, 2);
    session_sequence(session, fabric, g, [&] {
      for (int dead : replaced) vc.kill(dead);
      for (int dead : replaced) vc.replace(dead);
    });
  }
  {
    core::FabricSession session(fabric, engine_config(), g, 2);
    std::vector<dnn::StateDict> out;
    auto r = session.load(out);
    ASSERT_TRUE(r.report.success) << r.report.detail;
    ref_version = r.version;
    ref_digests = digests_of(out);
  }
  EXPECT_EQ(ref_version, 3);  // version 1 pruned, 2 retained, 3 newest
  EXPECT_EQ(ref_digests, want);

  for (int rank = 0; rank < kNodes; ++rank) {
    EXPECT_EQ(socket_versions[static_cast<std::size_t>(rank)], ref_version)
        << "rank " << rank;
    // Each socket rank recovered its own g shards; the reference holds all.
    const auto& got = socket_digests[static_cast<std::size_t>(rank)];
    ASSERT_EQ(got.size(), static_cast<std::size_t>(g)) << "rank " << rank;
    for (int l = 0; l < g; ++l)
      EXPECT_EQ(got[static_cast<std::size_t>(l)],
                want[static_cast<std::size_t>(rank * g + l)])
          << "rank " << rank << " shard " << l;
    expect_identical(socket_imgs[static_cast<std::size_t>(rank)],
                     snapshot(vc.host(rank)),
                     "rank " + std::to_string(rank) + " store");
  }
}

TEST(FabricEngine, TcpSessionRecoversByteExact) {
  const int g = 1, W = kNodes * g;
  const auto want = expected_digests(W, 55);

  TempDir dir;
  // TCP with ephemeral ports: bind all listeners on port 0 up front, then
  // exchange the real ports via set_peers() — the documented handshake.
  std::vector<net::Endpoint> placeholder(
      kNodes, net::Endpoint::tcp("127.0.0.1", 0));
  std::vector<std::unique_ptr<net::SocketTransport>> transports;
  std::vector<net::Endpoint> real;
  for (int r = 0; r < kNodes; ++r) {
    transports.push_back(std::make_unique<net::SocketTransport>(
        r, placeholder, fast_opts(dir)));
    real.push_back(transports.back()->listen_endpoint());
  }
  for (auto& t : transports) t->set_peers(real);

  std::vector<std::vector<std::uint64_t>> got(kNodes);
  run_ranks(kNodes, [&](int rank) {
    net::SocketTransport& fabric = *transports[static_cast<std::size_t>(rank)];
    core::FabricSession session(fabric, engine_config(), g, 2);
    std::vector<dnn::StateDict> mine;
    mine.push_back(dnn::make_worker_state_dict(gen_config(W, 55), rank));
    session.save(pointers(mine));
    std::vector<dnn::StateDict> out;
    auto r = session.load(out);
    ASSERT_TRUE(r.report.success) << r.report.detail;
    got[static_cast<std::size_t>(rank)] = digests_of(out);
  });
  for (int rank = 0; rank < kNodes; ++rank) {
    ASSERT_EQ(got[static_cast<std::size_t>(rank)].size(), 1u);
    EXPECT_EQ(got[static_cast<std::size_t>(rank)][0],
              want[static_cast<std::size_t>(rank)]);
  }
}

// The row-sums checks of RowSumsMatchStoredPacketsAfterEverySaveAndRepair
// over UDS, one thread per rank: a dead rank's transport is torn down and
// sits out the degraded load, a replaced one comes back empty, and each
// rank checks its own store.
TEST(FabricEngine, SocketRowSumsMatchStoredPacketsAfterEveryRepair) {
  const int g = 2, W = kNodes * g;
  const core::Placement plan = test_plan(g);
  const auto shards = small_shards(W, 53, /*padded=*/true);
  const std::vector<LossCase> cases = loss_cases();
  for (const ec::KernelMode kernel :
       {ec::KernelMode::kGfTable, ec::KernelMode::kXorBitmatrix}) {
    SCOPED_TRACE(kernel_name(kernel));
    core::ECCheckConfig cfg = engine_config();
    cfg.kernel = kernel;
    const std::vector<std::size_t> live = live_counts(shards, cfg.packet_size);
    const std::size_t B = *std::max_element(live.begin(), live.end());
    TempDir dir;
    const auto eps = uds_endpoints(dir, kNodes);
    std::barrier sync(kNodes);
    run_ranks(kNodes, [&](int rank) {
      SCOPED_TRACE(std::string(kernel_name(kernel)) + ", rank " +
                   std::to_string(rank));
      auto fabric =
          std::make_unique<net::SocketTransport>(rank, eps, fast_opts(dir));
      const int row = plan.generator_row_of_node(rank);
      // A load that throws is a failure, not an exit: this rank must still
      // meet the others at every barrier.
      auto check_load = [&](const core::Membership& members) {
        std::vector<dnn::StateDict> out;
        ckpt::LoadReport l;
        try {
          l = core::fabric_load(*fabric, cfg, 1, out, members);
        } catch (const std::exception& e) {
          ADD_FAILURE() << "load threw: " << e.what();
          return;
        }
        EXPECT_TRUE(l.success) << l.detail;
        std::vector<std::uint64_t> want;
        for (int w : core::fabric_sited_workers(*fabric, g, members))
          want.push_back(shards[static_cast<std::size_t>(w)].digest());
        EXPECT_EQ(digests_of(out), want);
        EXPECT_EQ(rescans(l.stats), 0u);
        expect_sums_match_row(fabric->store(rank), "", 1, row,
                              plan.workers_per_chunk(), B);
      };
      const ckpt::SaveReport rep = core::fabric_save(
          *fabric, cfg,
          {&shards[static_cast<std::size_t>(rank * g)],
           &shards[static_cast<std::size_t>(rank * g + 1)]},
          1);
      EXPECT_EQ(rescans(rep.stats), 0u);
      expect_sums_match_row(fabric->store(rank), "", 1, row,
                            plan.workers_per_chunk(), B);
      const StoreImage saved = snapshot(fabric->store(rank));

      for (const LossCase& lc : cases) {
        SCOPED_TRACE(lc.name());
        sync.arrive_and_wait();  // every rank is done with the last case
        if (lc.is_dead(rank) || lc.is_replaced(rank)) {
          fabric.reset();
        } else {
          for (int node : lc.dead) fabric->reset_peer(node);
          for (int node : lc.replaced) fabric->reset_peer(node);
        }
        if (lc.is_replaced(rank))
          fabric =
              std::make_unique<net::SocketTransport>(rank, eps, fast_opts(dir));
        sync.arrive_and_wait();
        if (!lc.is_dead(rank)) check_load(lc.members());
        if (!lc.dead.empty()) {
          // The dead come back empty, and a full load rebuilds them.
          sync.arrive_and_wait();
          if (lc.is_dead(rank))
            fabric = std::make_unique<net::SocketTransport>(rank, eps,
                                                            fast_opts(dir));
          else
            for (int node : lc.dead) fabric->reset_peer(node);
          sync.arrive_and_wait();
          check_load(core::Membership{});
        }
        expect_identical(snapshot(fabric->store(rank)), saved,
                         "rank " + std::to_string(rank) + " after repair");
      }
    });
  }
}

// ---------------------------------------------------------------------------
// Torn save: peers that die before participating in a save must surface
// as CheckFailure on every survivor within the io-timeout budget (never a
// hang), the torn version must be rolled back, and recovery must land on
// the previous committed version. Run with one victim, and with m victims
// at once while every save also flushes to the remote store.
// ---------------------------------------------------------------------------

TEST(FabricEngine, TornSaveFailsFastRollsBackAndRecoversOlderVersion) {
  const int g = 1, W = kNodes * g;
  const auto want = expected_digests(W, 77);
  struct Case {
    std::vector<int> victims;
    bool flush;
  };
  for (const Case& c : {Case{{1}, false}, Case{{1, 2}, true}}) {
    // gtest traces are per thread: the rank threads repeat this one.
    const std::string label = std::to_string(c.victims.size()) +
                              " victim(s), flush " + std::to_string(c.flush);
    SCOPED_TRACE(label);
    const auto is_victim = [&](int rank) {
      return std::find(c.victims.begin(), c.victims.end(), rank) !=
             c.victims.end();
    };
    TempDir dir;
    auto eps = uds_endpoints(dir, kNodes);
    const std::ptrdiff_t survivors =
        kNodes - static_cast<std::ptrdiff_t>(c.victims.size());
    std::latch ready(kNodes), torn(survivors), replaced(kNodes);
    std::vector<std::int64_t> versions(kNodes, -1);
    std::vector<std::vector<std::uint64_t>> got(kNodes);

    run_ranks(kNodes, [&](int rank) {
      SCOPED_TRACE(label);
      auto fabric =
          std::make_unique<net::SocketTransport>(rank, eps, fast_opts(dir));
      core::FabricSession session(*fabric, engine_config(c.flush), g, 2);
      auto my_shard = [&](std::uint64_t seed) {
        std::vector<dnn::StateDict> mine;
        mine.push_back(
            dnn::make_worker_state_dict(gen_config(W, seed), rank));
        return mine;
      };
      {
        auto mine = my_shard(77);
        session.save(pointers(mine));
      }
      ready.arrive_and_wait();

      if (is_victim(rank)) {
        // Dies before save(v2) and never enters the collective; waits
        // until the survivors observed the failure.
        fabric.reset();
        torn.wait();
        fabric = std::make_unique<net::SocketTransport>(rank, eps,
                                                        fast_opts(dir));
      } else {
        const auto t0 = std::chrono::steady_clock::now();
        auto mine = my_shard(78);
        EXPECT_THROW(session.save(pointers(mine)), CheckFailure)
            << "rank " << rank;
        const auto waited = std::chrono::steady_clock::now() - t0;
        EXPECT_LT(waited, std::chrono::seconds(30))
            << "rank " << rank << " did not fail fast";
        // The torn version left nothing behind on this rank.
        EXPECT_TRUE(fabric->store(rank).keys_with_prefix("ec/2/").empty())
            << "rank " << rank;
        EXPECT_TRUE(fabric->store(rank).keys_with_prefix("tmp/").empty())
            << "rank " << rank;
        // The aborted collective may have left half-delivered frames
        // between the survivors too — every survivor re-pools all
        // connections.
        fabric->reset_all_peers();
        torn.count_down();
      }
      replaced.arrive_and_wait();

      // Fresh session on every rank (as after a job restart): recovery must
      // agree on version 1 and reproduce its bytes.
      core::FabricSession fresh(*fabric, engine_config(c.flush), g, 2);
      std::vector<dnn::StateDict> out;
      auto r = fresh.load(out);
      ASSERT_TRUE(r.report.success) << "rank " << rank << ": "
                                    << r.report.detail;
      versions[static_cast<std::size_t>(rank)] = r.version;
      got[static_cast<std::size_t>(rank)] = digests_of(out);

      // And the next save must work again, agreeing on version 2.
      auto mine = my_shard(79);
      fresh.save(pointers(mine));
      EXPECT_EQ(fresh.latest_version(), 2) << "rank " << rank;
    });

    for (int rank = 0; rank < kNodes; ++rank) {
      EXPECT_EQ(versions[static_cast<std::size_t>(rank)], 1)
          << "rank " << rank;
      ASSERT_EQ(got[static_cast<std::size_t>(rank)].size(), 1u);
      EXPECT_EQ(got[static_cast<std::size_t>(rank)][0],
                want[static_cast<std::size_t>(rank)])
          << "rank " << rank;
    }
  }
}

// ---------------------------------------------------------------------------
// Remote fallback over the fabric: flush-to-remote on save, then more than
// m nodes lose their volatile stores — recovery must refetch from the
// file-backed remote store, byte-exact.
// ---------------------------------------------------------------------------

TEST(FabricEngine, RemoteFallbackRecoversAfterCatastrophicLoss) {
  const int g = 1, W = kNodes * g;
  const std::vector<int> dead = {0, 1, 2};  // > m = 2 failures
  const auto want = expected_digests(W, 91);

  TempDir dir;
  auto eps = uds_endpoints(dir, kNodes);
  std::latch saved(kNodes), rebuilt(kNodes);
  std::vector<std::vector<std::uint64_t>> got(kNodes);

  run_ranks(kNodes, [&](int rank) {
    auto fabric =
        std::make_unique<net::SocketTransport>(rank, eps, fast_opts(dir));
    const bool is_dead =
        std::find(dead.begin(), dead.end(), rank) != dead.end();
    {
      core::FabricSession session(*fabric, engine_config(/*flush=*/true), g,
                                  2);
      std::vector<dnn::StateDict> mine;
      mine.push_back(dnn::make_worker_state_dict(gen_config(W, 91), rank));
      session.save(pointers(mine));
    }
    saved.arrive_and_wait();
    if (is_dead) {
      fabric.reset();
      fabric = std::make_unique<net::SocketTransport>(rank, eps,
                                                      fast_opts(dir));
    } else {
      for (int d : dead) fabric->reset_peer(d);
    }
    rebuilt.arrive_and_wait();

    core::FabricSession session(*fabric, engine_config(true), g, 2);
    std::vector<dnn::StateDict> out;
    auto r = session.load(out);
    ASSERT_TRUE(r.report.success) << "rank " << rank << ": "
                                  << r.report.detail;
    EXPECT_NE(r.report.detail.find("remote fallback"), std::string::npos)
        << "rank " << rank << ": " << r.report.detail;
    got[static_cast<std::size_t>(rank)] = digests_of(out);
  });
  for (int rank = 0; rank < kNodes; ++rank) {
    ASSERT_EQ(got[static_cast<std::size_t>(rank)].size(), 1u);
    EXPECT_EQ(got[static_cast<std::size_t>(rank)][0],
              want[static_cast<std::size_t>(rank)])
        << "rank " << rank;
  }
}

}  // namespace
}  // namespace eccheck
