// Incremental checkpoints with sparse parity updates (ECCheckConfig::delta).
//
// The contract under test is bit-exactness: a delta save — diff against the
// cached base version, ship only dirty extents' XOR-deltas, patch the data
// row with XOR and each parity row with P' = P ⊕ G·Δ — must leave every
// durable store byte-identical to a full re-encode of the same shards, on
// VirtualFabric and over real sockets alike. Randomized differential tests
// pin the codec layer (update_row vs full encode across (k, m, w), both
// kernel modes, misaligned regions); engine A/B runs pin the protocol and
// its exact framing (one Δ frame per dirty worker and destination); a
// peer death at every Δ transfer, and a truncated Δ payload, pin the
// torn-save rollback and the base-cache validity check that forces the
// safe full-encode fallback. The CRC sums a delta save carries through its
// patches must keep a corrupted committed row detectable, and a node
// without usable base sums must recompute them. A delta save moves the
// base row and leaves an undo overlay: older versions must materialize
// bit-exact, and a delta save torn ahead of any of its fabric ops must put
// the base version back byte for byte. The base cache, which a delta save
// patches in place after its commit, must equal the packing of the last
// committed shards, also after a torn save and after a fallback.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <functional>
#include <latch>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cluster/fabric.hpp"
#include "common/check.hpp"
#include "common/crc64.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "core/delta.hpp"
#include "core/engine_keys.hpp"
#include "core/fabric_engine.hpp"
#include "core/placement.hpp"
#include "core/protocol.hpp"
#include "core/session.hpp"
#include "dnn/sparse_update.hpp"
#include "ec/crs_codec.hpp"
#include "gf/simd.hpp"
#include "net/transport.hpp"
#include "obs/tracer.hpp"
#include "tests/send_buffers_tap.hpp"

namespace eccheck {
namespace {

namespace fs = std::filesystem;
using ec::CrsCodec;
using ec::KernelMode;

// ---------------------------------------------------------------------------
// Codec layer: update_row / update_parity vs full re-encode.
// ---------------------------------------------------------------------------

struct DeltaCase {
  int k, m, w;
  KernelMode mode;
};

std::string delta_case_name(const ::testing::TestParamInfo<DeltaCase>& info) {
  const DeltaCase& c = info.param;
  return "k" + std::to_string(c.k) + "m" + std::to_string(c.m) + "w" +
         std::to_string(c.w) +
         (c.mode == KernelMode::kGfTable ? "gftable" : "bitmatrix");
}

class DeltaCodecTest : public ::testing::TestWithParam<DeltaCase> {};

std::vector<Buffer> random_chunks(int k, std::size_t bytes,
                                  std::uint64_t seed) {
  std::vector<Buffer> data;
  for (int c = 0; c < k; ++c) {
    data.emplace_back(bytes, Buffer::Init::kUninitialized);
    fill_random(data.back().span(), seed + static_cast<std::uint64_t>(c));
  }
  return data;
}

std::vector<Buffer> full_encode(const CrsCodec& codec,
                                const std::vector<Buffer>& data,
                                std::size_t bytes) {
  std::vector<ByteSpan> in;
  for (const Buffer& d : data) in.push_back(d.span());
  std::vector<Buffer> parity;
  for (int r = 0; r < codec.m(); ++r)
    parity.emplace_back(bytes, Buffer::Init::kUninitialized);
  std::vector<MutableByteSpan> out;
  for (Buffer& p : parity) out.push_back(p.span());
  codec.encode(in, out);
  return parity;
}

// Randomized differential: mutate random (often misaligned) regions of
// random chunks, fold each mutation into the parity with update_parity, and
// demand byte-equality with a from-scratch re-encode after every step, and
// that the patch stayed inside update_footprint.
TEST_P(DeltaCodecTest, UpdateParityMatchesFullReencode) {
  const DeltaCase c = GetParam();
  const CrsCodec codec(c.k, c.m, c.w, c.mode);
  const std::size_t P = 1536;  // multiple of every granularity in the suite
  ASSERT_EQ(P % codec.packet_granularity(), 0u);
  // gftable w=16 works on 2-byte symbols; everything else is byte-granular.
  const std::size_t sym =
      (c.mode == KernelMode::kGfTable && c.w == 16) ? 2 : 1;

  std::vector<Buffer> data = random_chunks(c.k, P, 0xD17A);
  std::vector<Buffer> parity = full_encode(codec, data, P);

  SplitMix64 rng(0xC0FFEE ^ static_cast<std::uint64_t>(c.k * 100 + c.m * 10 +
                                                       c.w) ^
                 static_cast<std::uint64_t>(c.mode));
  for (int step = 0; step < 24; ++step) {
    const int chunk = static_cast<int>(rng.next_below(
        static_cast<std::uint64_t>(c.k)));
    std::size_t off = rng.next_below(P - sym) / sym * sym;
    std::size_t len =
        (1 + rng.next_below(std::min<std::uint64_t>(P - off, 700))) / sym *
        sym;
    if (len == 0) len = sym;

    Buffer mutated(len, Buffer::Init::kUninitialized);
    fill_random(mutated.span(), 0xAB5E ^ static_cast<std::uint64_t>(step));
    Buffer delta(len, Buffer::Init::kUninitialized);
    std::memcpy(delta.data(), mutated.data(), len);
    xor_into(delta.span(), data[static_cast<std::size_t>(chunk)]
                               .span()
                               .subspan(off, len));
    std::memcpy(data[static_cast<std::size_t>(chunk)].data() + off,
                mutated.data(), len);

    std::vector<Buffer> old_parity;
    for (const Buffer& p : parity) old_parity.push_back(p.clone());
    std::vector<MutableByteSpan> pspans;
    for (Buffer& p : parity) pspans.push_back(p.span());
    codec.update_parity(chunk, off, delta.span(), pspans);

    // Every byte the patch changed lies in the codec's footprint of the
    // window — disjoint ascending ranges — so the raw-CRC change of those
    // ranges, each shifted to the packet's end, carries the packet's CRC.
    const auto footprint = codec.update_footprint(off, len, P);
    for (int r = 0; r < c.m; ++r) {
      const Buffer& was = old_parity[static_cast<std::size_t>(r)];
      const Buffer& now = parity[static_cast<std::size_t>(r)];
      const auto raw_crc = gf::simd::active().crc64;
      std::vector<bool> covered(P, false);
      std::size_t end = 0;
      std::uint64_t change = 0;
      for (const auto& [at, n] : footprint) {
        ASSERT_GE(at, end) << "step " << step << ": ranges overlap";
        ASSERT_GT(n, 0u);
        ASSERT_LE(at + n, P);
        std::fill_n(covered.begin() + static_cast<std::ptrdiff_t>(at), n, true);
        change ^= crc64_shift(raw_crc(0, was.data() + at, n) ^
                                  raw_crc(0, now.data() + at, n),
                              P - at - n);
        end = at + n;
      }
      for (std::size_t x = 0; x < P; ++x) {
        if (!covered[x]) {
          ASSERT_EQ(was.data()[x], now.data()[x])
              << "step " << step << " row " << r << ": byte " << x
              << " changed outside the footprint";
        }
      }
      ASSERT_EQ(crc64(now.span()), crc64(was.span()) ^ change)
          << "step " << step << " parity row " << r;
    }

    const std::vector<Buffer> want = full_encode(codec, data, P);
    for (int r = 0; r < c.m; ++r)
      ASSERT_EQ(parity[static_cast<std::size_t>(r)],
                want[static_cast<std::size_t>(r)])
          << "step " << step << " parity row " << r << " (chunk " << chunk
          << ", off " << off << ", len " << len << ")";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, DeltaCodecTest,
    ::testing::Values(DeltaCase{2, 2, 8, KernelMode::kGfTable},
                      DeltaCase{2, 2, 8, KernelMode::kXorBitmatrix},
                      DeltaCase{4, 2, 8, KernelMode::kGfTable},
                      DeltaCase{4, 2, 8, KernelMode::kXorBitmatrix},
                      DeltaCase{3, 3, 4, KernelMode::kGfTable},
                      DeltaCase{4, 3, 16, KernelMode::kGfTable},
                      DeltaCase{3, 2, 16, KernelMode::kXorBitmatrix}),
    delta_case_name);

// ---------------------------------------------------------------------------
// Dirty tracking: diff_packet merging and the manifest wire format.
// ---------------------------------------------------------------------------

TEST(DeltaExtents, DiffMergesAdjacentChunksAndHandlesTail) {
  Buffer base(100, Buffer::Init::kZeroed);
  Buffer next(100, Buffer::Init::kZeroed);
  next.data()[3] = std::byte{1};   // chunk 0
  next.data()[17] = std::byte{1};  // chunk 1 — adjacent, merges with chunk 0
  next.data()[49] = std::byte{1};  // chunk 3
  next.data()[99] = std::byte{1};  // short tail chunk [96, 100)
  const auto ext = core::diff_packet(7, base.span(), next.span(), 16);
  const std::vector<core::DirtyExtent> want = {
      {7, 0, 32}, {7, 48, 16}, {7, 96, 4}};
  EXPECT_EQ(ext, want);
  EXPECT_EQ(core::dirty_bytes(ext), 52u);
  EXPECT_TRUE(core::diff_packet(0, base.span(), base.span(), 16).empty());
}

/// The single-level diff: every block compared on its own.
std::vector<core::DirtyExtent> reference_diff(int packet, ByteSpan base,
                                              ByteSpan next,
                                              std::size_t granularity) {
  std::vector<core::DirtyExtent> extents;
  for (std::size_t lo = 0; lo < base.size(); lo += granularity) {
    const std::size_t len = std::min(granularity, base.size() - lo);
    if (std::memcmp(base.data() + lo, next.data() + lo, len) == 0) continue;
    if (!extents.empty() &&
        extents.back().offset + extents.back().length == lo)
      extents.back().length += len;
    else
      extents.push_back({static_cast<std::uint32_t>(packet), lo, len});
  }
  return extents;
}

// The clean-span skip is an optimisation only: at every granularity,
// including ones that do not divide the skip span or the packet, and for
// sparse, clustered and boundary-straddling changes, the two-level diff
// returns exactly the single-level diff's extents.
TEST(DeltaExtents, TwoLevelDiffMatchesSingleLevelReference) {
  SplitMix64 rng(0xD1FF);
  for (const std::size_t size : {1u, 63u, 64u, 4096u, 4097u, 12345u, 65536u})
    for (const std::size_t gran :
         {1u, 7u, 8u, 64u, 100u, 512u, 4095u, 4096u, 5000u, 70000u}) {
      Buffer base(size, Buffer::Init::kUninitialized);
      fill_random(base.span(), size * 31 + gran);
      for (int trial = 0; trial < 8; ++trial) {
        Buffer next = base.clone();
        const std::uint64_t flips = rng.next_below(2 + size / 256);
        for (std::uint64_t f = 0; f < flips; ++f) {
          // Half the flips land just around a 4 KiB or block boundary.
          std::size_t at = rng.next_below(size);
          if (rng.next_below(2) == 0) {
            const std::size_t edge = rng.next_below(2) == 0 ? 4096 : gran;
            at = (at / edge * edge + size - rng.next_below(2)) % size;
          }
          next.data()[at] ^= std::byte{1};
        }
        EXPECT_EQ(core::diff_packet(3, base.span(), next.span(), gran),
                  reference_diff(3, base.span(), next.span(), gran))
            << "size " << size << " granularity " << gran << " trial "
            << trial;
      }
    }
}

// The in-place diff reads the tensor bytes where they sit instead of a
// packed copy. Over random layouts — tensors straddling packets,
// zero-length tensors, a payload that is an exact multiple of the packet
// size or leaves a short last packet, a base packet with garbage in its
// zero tail — it must return exactly pack_packet followed by diff_packet:
// the same extents and, per extent, the Δ packed ⊕ base.
TEST(DeltaExtents, InPlaceDiffMatchesPackThenDiff) {
  SplitMix64 rng(0x1D1FF);
  for (const std::size_t P : {64u, 192u, 4096u, 12288u})
    for (int layout = 0; layout < 12; ++layout) {
      std::vector<Buffer> store;
      std::vector<ByteSpan> tensors;
      std::size_t total = 0;
      const std::uint64_t count = 1 + rng.next_below(10);
      for (std::uint64_t t = 0; t < count; ++t) {
        std::size_t bytes = 0;
        switch (rng.next_below(4)) {
          case 0: break;  // zero-length
          case 1: bytes = 1 + rng.next_below(P / 2); break;
          default: bytes = 1 + rng.next_below(3 * P); break;
        }
        store.emplace_back(bytes, Buffer::Init::kUninitialized);
        fill_random(store.back().span(), rng.next());
        tensors.push_back(store.back().span());
        total += bytes;
      }
      if (layout % 3 == 0) {  // an exact multiple of P
        const std::size_t pad = (P - total % P) % P;
        store.emplace_back(pad, Buffer::Init::kUninitialized);
        fill_random(store.back().span(), rng.next());
        tensors.push_back(store.back().span());
        total += pad;
      }
      const std::size_t live = core::packets_needed(total, P);
      for (const std::size_t gran : {std::size_t{1}, std::size_t{64},
                                     std::size_t{4096}, core::kDirtyBlock}) {
        std::vector<core::DirtyExtent> want_ext, got_ext;
        std::vector<std::byte> want_delta, got_delta;
        for (std::size_t b = 0; b < live; ++b) {
          Buffer next(P, Buffer::Init::kUninitialized);
          core::pack_packet(tensors, b, next.span());
          Buffer base = next.clone();
          const std::uint64_t flips =
              layout % 4 == 1 ? P / 8 : rng.next_below(2 + P / 256);
          for (std::uint64_t f = 0; f < flips; ++f)
            base.data()[rng.next_below(P)] ^= std::byte{0x5A};
          const std::size_t payload = std::min(P, total - b * P);
          if (payload < P && rng.next_below(2) == 0)  // garbage in the tail
            base.data()[payload + rng.next_below(P - payload)] ^= std::byte{1};
          for (const core::DirtyExtent& e :
               core::diff_packet(static_cast<int>(b), base.span(),
                                 next.span(), gran)) {
            want_ext.push_back(e);
            for (std::size_t i = 0; i < e.length; ++i)
              want_delta.push_back(next.data()[e.offset + i] ^
                                   base.data()[e.offset + i]);
          }
          const std::size_t from = got_ext.size();
          const std::uint64_t dirty = core::diff_tensors(
              tensors, b, base.span(), gran, got_ext, got_delta);
          EXPECT_EQ(dirty, core::dirty_bytes(std::vector<core::DirtyExtent>(
                               got_ext.begin() + from, got_ext.end())));
        }
        const std::string where = "P " + std::to_string(P) + " layout " +
                                  std::to_string(layout) + " granularity " +
                                  std::to_string(gran);
        EXPECT_EQ(got_ext, want_ext) << where;
        EXPECT_TRUE(got_delta == want_delta) << where;
      }
    }
}

TEST(DeltaExtents, ManifestRoundTripsAndRejectsTruncation) {
  const std::vector<core::DirtyExtent> ext = {
      {0, 0, 8}, {2, 4096, 512}, {31, 65528, 8}};
  Buffer blob = core::serialize_extents(ext);
  EXPECT_EQ(core::deserialize_extents(blob.span()), ext);
  EXPECT_THROW(core::deserialize_extents(blob.span().subspan(
                   0, blob.size() - 1)),
               CheckFailure);
}

// A peer's manifest is untrusted: a count whose `8 + count * 20` wraps to
// the blob's size must be refused as a CheckFailure (which the save rolls
// back on), not reach the allocation.
TEST(DeltaExtents, ManifestWithWrappingCountIsRejected) {
  Buffer blob(8, Buffer::Init::kZeroed);
  const std::uint64_t count = std::uint64_t{1} << 62;  // 20 · 2^62 ≡ 0
  for (int i = 0; i < 8; ++i)
    blob.data()[i] = static_cast<std::byte>(count >> (8 * i));
  EXPECT_THROW(core::deserialize_extents(blob.span()), CheckFailure);
}

// ---------------------------------------------------------------------------
// Engine A/B: delta-on vs delta-off over VirtualFabric.
// ---------------------------------------------------------------------------

constexpr int kK = 2;
constexpr int kM = 2;
constexpr int kNodes = kK + kM;

cluster::ClusterConfig vc_config(int gpus) {
  cluster::ClusterConfig cfg;
  cfg.num_nodes = kNodes;
  cfg.gpus_per_node = gpus;
  return cfg;
}

core::ECCheckConfig delta_config(bool delta_on, bool flush = false,
                                 KernelMode kernel = KernelMode::kGfTable) {
  core::ECCheckConfig cfg;
  cfg.k = kK;
  cfg.m = kM;
  cfg.kernel = kernel;
  cfg.packet_size = kib(16);
  cfg.flush_to_remote = flush;
  cfg.delta.enabled = delta_on;
  return cfg;
}

dnn::SparseUpdateSpec sparse_spec(double density) {
  dnn::SparseUpdateSpec spec;
  spec.embedding_rows = 2048;
  spec.embedding_dim = 64;
  spec.dense_tensors = 1;
  spec.dense_elems = 256;
  spec.row_density = density;
  return spec;
}

std::vector<dnn::StateDict> sparse_shards(const dnn::SparseUpdateSpec& spec,
                                          int world) {
  std::vector<dnn::StateDict> shards;
  for (int w = 0; w < world; ++w)
    shards.push_back(dnn::make_sparse_model_shard(spec, w));
  return shards;
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

using StoreImage = std::map<std::string, Buffer>;

/// The keys of `s` under `prefix`, imaged from a copy on which every
/// version a delta save moved its row out of was materialized first — so
/// the image of a delta-saving store is comparable with a full-saving one's.
StoreImage snapshot(cluster::Store& s, const std::string& prefix = "") {
  cluster::Store copy;
  for (const std::string& key : s.keys_with_prefix(""))
    copy.put(key, s.get(key).clone());
  const std::string moved = "/moved";
  for (const std::string& key : s.keys_with_prefix("ec/"))
    if (key.size() > moved.size() &&
        key.compare(key.size() - moved.size(), moved.size(), moved) == 0)
      core::materialize_version(
          copy, "", std::stoll(key.substr(3, key.find('/', 3) - 3)));
  StoreImage img;
  for (const std::string& key : copy.keys_with_prefix(prefix))
    img.emplace(key, copy.take(key));
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

std::uint64_t stat_of(const ckpt::SaveReport& rep, const std::string& key) {
  auto it = rep.stats.find(key);
  return it == rep.stats.end() ? 0 : it->second;
}

// ---------------------------------------------------------------------------
// Exact Δ traffic. A delta save ships each dirty worker's whole Δ payload —
// its dirty extents' XOR-deltas concatenated — as one frame to each of {its
// chunk's data node, the parity nodes} other than the worker's own node.
// ---------------------------------------------------------------------------

core::Placement placement(int g) { return core::plan_for(kNodes, g, kK, kM); }

/// Nodes other than worker w's own that receive its Δ frame.
std::uint64_t delta_fanout(int w, int g) {
  const core::Placement plan = placement(g);
  std::vector<int> dests = plan.parity_nodes;
  dests.push_back(plan.data_nodes[static_cast<std::size_t>(
      plan.chunk_of_worker(w))]);
  return static_cast<std::uint64_t>(std::count_if(
      dests.begin(), dests.end(), [&](int node) { return node != w / g; }));
}

/// Worker w's dirty bytes in one delta save, from its node's base cache
/// before and after the save (the save brings the cache to the new
/// packets), diffed in the save's dirty-tracking blocks.
std::uint64_t worker_dirty_bytes(const StoreImage& before,
                                 const StoreImage& after, int w) {
  const std::string prefix = "base/local/" + std::to_string(w) + "/";
  std::uint64_t dirty = 0;
  for (const auto& [key, buf] : before)
    if (key.rfind(prefix, 0) == 0)
      dirty += core::dirty_bytes(core::diff_packet(
          0, buf.span(), after.at(key).span(), core::kDirtyBlock));
  return dirty;
}

struct DeltaTraffic {
  std::uint64_t frames = 0;
  std::uint64_t bytes = 0;
  std::uint64_t dirty = 0;  ///< Σ dirty bytes over all workers
};

/// The exact Δ traffic of the workers of `nodes`, from each node's base
/// cache image before and after the save.
DeltaTraffic expected_delta_traffic(const std::vector<int>& nodes,
                                    const std::vector<StoreImage>& before,
                                    const std::vector<StoreImage>& after,
                                    int g) {
  DeltaTraffic t;
  for (int node : nodes)
    for (int w = node * g; w < (node + 1) * g; ++w) {
      const std::uint64_t dirty =
          worker_dirty_bytes(before[static_cast<std::size_t>(node)],
                             after[static_cast<std::size_t>(node)], w);
      if (dirty == 0) continue;
      t.frames += delta_fanout(w, g);
      t.bytes += dirty * delta_fanout(w, g);
      t.dirty += dirty;
    }
  return t;
}

std::vector<int> all_nodes() {
  std::vector<int> nodes(kNodes);
  std::iota(nodes.begin(), nodes.end(), 0);
  return nodes;
}

std::vector<StoreImage> base_caches(cluster::VirtualCluster& vc) {
  std::vector<StoreImage> imgs;
  for (int node = 0; node < kNodes; ++node)
    imgs.push_back(snapshot(vc.host(node), "base/local/"));
  return imgs;
}

/// Both save paths stamp the end of step 3 at the same point — after the
/// parity encode or the Δ patch, before the base-cache update, CRC sums
/// and commit markers — so the stamps are ordered on either path.
void expect_stage_order(const ckpt::SaveReport& rep, const std::string& what) {
  const bool delta = stat_of(rep, "delta.save.count") == 1;
  const std::string step3 =
      delta ? "step3_delta_patch" : "step3_encode_pipeline";
  EXPECT_EQ(rep.breakdown.count(delta ? "step3_encode_pipeline"
                                      : "step3_delta_patch"),
            0u)
      << what;
  ASSERT_TRUE(rep.breakdown.count("step1_snapshot")) << what;
  ASSERT_TRUE(rep.breakdown.count(step3)) << what;
  EXPECT_LE(rep.breakdown.at("step1_snapshot"), rep.breakdown.at(step3))
      << what;
  EXPECT_LE(rep.breakdown.at(step3), rep.total_time) << what;
}

/// True for a send_buffers batch carrying a worker's Δ payload.
bool is_delta_transfer(const testutil::KeyPairs& pairs) {
  return !pairs.empty() &&
         pairs.front().first.find("/delta/patch/") != std::string::npos;
}

// Three saves of a 1%-density sparse workload, delta-on vs delta-off in
// lockstep: every node's durable footprint (rows and their CRC sums) and
// the remote store must stay byte-identical after each save; the delta
// saves must move an order of magnitude fewer bytes; and after a double
// fault both clusters must recover the same bits. Node replacement wipes
// the base cache, so the save after recovery must fall back to a full
// encode — and still match.
void expect_delta_saves_match_full_encode(KernelMode kernel) {
  const int g = 1, W = kNodes * g;
  const dnn::SparseUpdateSpec spec = sparse_spec(0.01);
  std::vector<dnn::StateDict> shards = sparse_shards(spec, W);

  cluster::VirtualCluster vc_delta(vc_config(g)), vc_full(vc_config(g));
  cluster::VirtualFabric fab_delta(vc_delta), fab_full(vc_full);
  core::FabricSession on(fab_delta, delta_config(true, /*flush=*/true, kernel),
                         g, 2);
  core::FabricSession off(fab_full,
                          delta_config(false, /*flush=*/true, kernel), g, 2);

  for (std::int64_t it = 1; it <= 3; ++it) {
    if (it > 1)
      for (int w = 0; w < W; ++w)
        dnn::apply_sparse_update(shards[static_cast<std::size_t>(w)], spec, w,
                                 it - 1);
    const std::vector<StoreImage> cache_before = base_caches(vc_delta);
    const ckpt::SaveReport rd = on.save(pointers(shards));
    const ckpt::SaveReport rf = off.save(pointers(shards));
    expect_stage_order(rd, "delta-on save " + std::to_string(it));
    expect_stage_order(rf, "delta-off save " + std::to_string(it));

    if (it == 1) {
      // No base yet: the first save must take the full path and say so.
      EXPECT_EQ(stat_of(rd, "delta.save.count"), 0u) << "save " << it;
      EXPECT_EQ(stat_of(rd, "delta.fallback.count"), 1u) << "save " << it;
    } else {
      EXPECT_EQ(stat_of(rd, "delta.save.count"), 1u) << "save " << it;
      EXPECT_EQ(stat_of(rd, "delta.fallback.count"), 0u) << "save " << it;
      EXPECT_EQ(stat_of(rd, "delta.sums.fallback.count"), 0u)
          << "save " << it;
      EXPECT_GT(stat_of(rd, "delta.extents.count"), 0u) << "save " << it;
      // The acceptance bar: ≤ 5% dirty must move ≥ 10× fewer fabric bytes.
      // (The low-frequency remote flush still writes whole rows — the
      // remote store is a dumb key-value tier with no patch primitive.)
      EXPECT_GE(rf.network_bytes, 10 * rd.network_bytes) << "save " << it;
      // Exactly one frame per (dirty worker, destination), each carrying
      // the worker's whole Δ payload; nothing else goes point to point.
      const DeltaTraffic want = expected_delta_traffic(
          all_nodes(), cache_before, base_caches(vc_delta), g);
      EXPECT_EQ(want.dirty, stat_of(rd, "delta.dirty.bytes")) << "save " << it;
      EXPECT_EQ(stat_of(rd, "net.send.count"), want.frames) << "save " << it;
      EXPECT_EQ(stat_of(rd, "net.send.bytes"), want.bytes) << "save " << it;
      // The base row was moved, not copied: the base version keeps only
      // its undo overlay.
      for (int node = 0; node < kNodes; ++node)
        EXPECT_TRUE(
            vc_delta.host(node)
                .keys_with_prefix(core::keys::version_prefix("", it - 1) +
                                  "row/")
                .empty())
            << "node " << node << " save " << it;
    }
    // Durable keys ("ec/...") byte-identical; the delta cluster additionally
    // carries its unversioned base cache, which is not part of the contract.
    for (int node = 0; node < kNodes; ++node)
      expect_identical(snapshot(vc_delta.host(node), "ec/"),
                       snapshot(vc_full.host(node), "ec/"),
                       "node " + std::to_string(node) + " after save " +
                           std::to_string(it));
    expect_identical(snapshot(vc_delta.remote()), snapshot(vc_full.remote()),
                     "remote store after save " + std::to_string(it));
  }

  const auto want = digests_of(shards);
  for (cluster::VirtualCluster* c : {&vc_delta, &vc_full}) {
    c->kill(1);
    c->kill(3);
    c->replace(1);
    c->replace(3);
  }
  std::vector<dnn::StateDict> out_d, out_f;
  const auto ld = on.load(out_d);
  const auto lf = off.load(out_f);
  ASSERT_TRUE(ld.report.success) << ld.report.detail;
  ASSERT_TRUE(lf.report.success) << lf.report.detail;
  EXPECT_EQ(ld.version, 3);
  EXPECT_EQ(digests_of(out_d), want);
  EXPECT_EQ(digests_of(out_f), want);

  // The replaced nodes lost their base caches: the next save must detect
  // the disagreement, fall back, and still match the full-encode cluster.
  for (int w = 0; w < W; ++w)
    dnn::apply_sparse_update(shards[static_cast<std::size_t>(w)], spec, w, 3);
  const ckpt::SaveReport rd4 = on.save(pointers(shards));
  off.save(pointers(shards));
  expect_stage_order(rd4, "post-repair save");
  EXPECT_EQ(stat_of(rd4, "delta.save.count"), 0u);
  EXPECT_EQ(stat_of(rd4, "delta.fallback.count"), 1u);
  for (int node = 0; node < kNodes; ++node)
    expect_identical(snapshot(vc_delta.host(node), "ec/"),
                     snapshot(vc_full.host(node), "ec/"),
                     "node " + std::to_string(node) + " after post-repair save");
}

TEST(DeltaEngine, VirtualFabricSavesByteIdenticalToFullEncode) {
  expect_delta_saves_match_full_encode(KernelMode::kGfTable);
}

// In bitmatrix mode a parity fold writes each dirty window into every
// strip, far outside the window; the carried CRC sums must follow it.
TEST(DeltaEngine, VirtualFabricBitmatrixSavesByteIdenticalToFullEncode) {
  expect_delta_saves_match_full_encode(KernelMode::kXorBitmatrix);
}

// Fallback triggers: dirty ratio above the threshold, and a missing or
// stale base marker. Every fallback must still commit a loadable,
// bit-exact version.
TEST(DeltaEngine, FallsBackOnHighDensityAndInvalidatedCache) {
  const int g = 2, W = kNodes * g;
  const dnn::SparseUpdateSpec spec = sparse_spec(0.01);
  std::vector<dnn::StateDict> shards = sparse_shards(spec, W);

  cluster::VirtualCluster vc(vc_config(g));
  cluster::VirtualFabric fabric(vc);
  core::ECCheckConfig cfg = delta_config(true);
  core::FabricSession session(fabric, cfg, g, 2);

  session.save(pointers(shards));  // v1: full (no base yet)

  // Rewrite every embedding row: dirty ratio ≈ 1 > 0.35 → full encode.
  const dnn::SparseUpdateSpec dense_spec = sparse_spec(1.0);
  for (int w = 0; w < W; ++w)
    dnn::apply_sparse_update(shards[static_cast<std::size_t>(w)], dense_spec,
                             w, 1);
  const ckpt::SaveReport r2 = session.save(pointers(shards));
  EXPECT_EQ(stat_of(r2, "delta.save.count"), 0u);
  EXPECT_EQ(stat_of(r2, "delta.fallback.count"), 1u);

  // Sparse again → the delta path re-arms off the refreshed base cache.
  for (int w = 0; w < W; ++w)
    dnn::apply_sparse_update(shards[static_cast<std::size_t>(w)], spec, w, 2);
  const ckpt::SaveReport r3 = session.save(pointers(shards));
  EXPECT_EQ(stat_of(r3, "delta.save.count"), 1u);
  EXPECT_GT(stat_of(r3, "delta.dirty.bytes"), 0u);

  // A vanished base marker on one node must veto the delta everywhere.
  vc.host(2).erase(core::keys::base_mark_key(""));
  for (int w = 0; w < W; ++w)
    dnn::apply_sparse_update(shards[static_cast<std::size_t>(w)], spec, w, 3);
  const ckpt::SaveReport r4 = session.save(pointers(shards));
  EXPECT_EQ(stat_of(r4, "delta.save.count"), 0u);
  EXPECT_EQ(stat_of(r4, "delta.fallback.count"), 1u);

  std::vector<dnn::StateDict> out;
  const auto l = session.load(out);
  ASSERT_TRUE(l.report.success) << l.report.detail;
  EXPECT_EQ(l.version, 4);
  EXPECT_EQ(digests_of(out), digests_of(shards));
}

// ---------------------------------------------------------------------------
// Socket leg: the same delta session over real UDS sockets, compared
// store-for-store against VirtualFabric (delta-on, full image including the
// base cache) and against a full-encode reference (durable keys).
// ---------------------------------------------------------------------------

struct TempDir {
  std::string path;
  TempDir() {
    char tmpl[] = "/tmp/eccheck-deltatest-XXXXXX";
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

TEST(DeltaEngine, SocketDeltaSessionMatchesVirtualFabricByteExact) {
  const int g = 1, W = kNodes * g;
  const dnn::SparseUpdateSpec spec = sparse_spec(0.01);

  // References: one delta-on and one delta-off VirtualFabric run of the
  // exact same three-save sequence.
  cluster::VirtualCluster vc_delta(vc_config(g)), vc_full(vc_config(g));
  cluster::VirtualFabric fab_delta(vc_delta), fab_full(vc_full);
  {
    std::vector<dnn::StateDict> shards = sparse_shards(spec, W);
    core::FabricSession on(fab_delta, delta_config(true), g, 2);
    core::FabricSession off(fab_full, delta_config(false), g, 2);
    for (std::int64_t it = 1; it <= 3; ++it) {
      if (it > 1)
        for (int w = 0; w < W; ++w)
          dnn::apply_sparse_update(shards[static_cast<std::size_t>(w)], spec,
                                   w, it - 1);
      on.save(pointers(shards));
      off.save(pointers(shards));
    }
  }

  TempDir dir;
  auto eps = uds_endpoints(dir, kNodes);
  std::vector<StoreImage> socket_imgs(kNodes);
  std::vector<std::uint64_t> socket_delta_saves(kNodes, 0);
  std::vector<std::vector<std::uint64_t>> socket_digests(kNodes);
  std::vector<DeltaTraffic> sent(kNodes), want_sent(kNodes);
  run_ranks(kNodes, [&](int rank) {
    net::SocketTransport transport(rank, eps, fast_opts(dir));
    // The transport's own frame counters, read around each Δ transfer.
    testutil::SendBuffersTap fabric(transport);
    auto counter = [&](const std::string& key) {
      const auto c = transport.stats().counters();
      auto it = c.find(key);
      return it == c.end() ? std::uint64_t{0} : it->second;
    };
    DeltaTraffic& mine_sent = sent[static_cast<std::size_t>(rank)];
    fabric.before_send_buffers = [&](int, int,
                                     const testutil::KeyPairs& pairs) {
      if (!is_delta_transfer(pairs)) return;
      mine_sent.frames -= counter("net.send.count");
      mine_sent.bytes -= counter("net.send.bytes");
    };
    fabric.after_send_buffers = [&](int, int,
                                    const testutil::KeyPairs& pairs) {
      if (!is_delta_transfer(pairs)) return;
      mine_sent.frames += counter("net.send.count");
      mine_sent.bytes += counter("net.send.bytes");
    };
    core::FabricSession session(fabric, delta_config(true), g, 2);
    dnn::StateDict mine = dnn::make_sparse_model_shard(spec, rank);
    for (std::int64_t it = 1; it <= 3; ++it) {
      if (it > 1) dnn::apply_sparse_update(mine, spec, rank, it - 1);
      std::vector<const dnn::StateDict*> shards{&mine};
      std::vector<StoreImage> before(kNodes), after(kNodes);
      before[static_cast<std::size_t>(rank)] =
          snapshot(fabric.store(rank), "base/local/");
      const ckpt::SaveReport rep = session.save(shards);
      after[static_cast<std::size_t>(rank)] =
          snapshot(fabric.store(rank), "base/local/");
      socket_delta_saves[static_cast<std::size_t>(rank)] +=
          stat_of(rep, "delta.save.count");
      if (stat_of(rep, "delta.save.count") == 0) continue;
      const DeltaTraffic w = expected_delta_traffic({rank}, before, after, g);
      want_sent[static_cast<std::size_t>(rank)].frames += w.frames;
      want_sent[static_cast<std::size_t>(rank)].bytes += w.bytes;
    }
    socket_imgs[static_cast<std::size_t>(rank)] = snapshot(fabric.store(rank));
    std::vector<dnn::StateDict> out;
    const auto l = session.load(out);
    ASSERT_TRUE(l.report.success) << "rank " << rank << ": "
                                  << l.report.detail;
    EXPECT_EQ(l.version, 3) << "rank " << rank;
    socket_digests[static_cast<std::size_t>(rank)] = digests_of(out);
  });

  for (int rank = 0; rank < kNodes; ++rank) {
    // Saves 2 and 3 took the incremental path on every rank.
    EXPECT_EQ(socket_delta_saves[static_cast<std::size_t>(rank)], 2u)
        << "rank " << rank;
    // Each rank put exactly one frame per (own dirty worker, destination)
    // on the wire for the Δ transfers, each the worker's whole Δ payload.
    EXPECT_GT(want_sent[static_cast<std::size_t>(rank)].frames, 0u);
    EXPECT_EQ(sent[static_cast<std::size_t>(rank)].frames,
              want_sent[static_cast<std::size_t>(rank)].frames)
        << "rank " << rank;
    EXPECT_EQ(sent[static_cast<std::size_t>(rank)].bytes,
              want_sent[static_cast<std::size_t>(rank)].bytes)
        << "rank " << rank;
    // Whole image (durable keys + base cache) matches the simulator…
    expect_identical(socket_imgs[static_cast<std::size_t>(rank)],
                     snapshot(vc_delta.host(rank)),
                     "rank " + std::to_string(rank) + " vs VirtualFabric");
    // …and the durable keys match the full-encode reference.
    StoreImage durable;
    for (const auto& [key, buf] : socket_imgs[static_cast<std::size_t>(rank)])
      if (key.rfind("ec/", 0) == 0) durable.emplace(key, buf.clone());
    expect_identical(durable, snapshot(vc_full.host(rank), "ec/"),
                     "rank " + std::to_string(rank) + " vs full encode");
    // Recovered bytes equal the independently regenerated iteration-2 state.
    dnn::StateDict want = dnn::make_sparse_model_shard(spec, rank);
    dnn::apply_sparse_update(want, spec, rank, 1);
    dnn::apply_sparse_update(want, spec, rank, 2);
    ASSERT_EQ(socket_digests[static_cast<std::size_t>(rank)].size(), 1u);
    EXPECT_EQ(socket_digests[static_cast<std::size_t>(rank)][0], want.digest())
        << "rank " << rank;
  }
}

// ---------------------------------------------------------------------------
// Torn delta save: a peer dying mid-Δ-transfer, or a malformed Δ payload,
// must roll the attempted version back, leave the previous version loadable
// bit-exact, and never poison the base cache.
// ---------------------------------------------------------------------------

/// Runs ahead of each Δ transfer of the sabotaged save, with the transfer's
/// index, its source node and the staged payload's key.
using Sabotage = std::function<void(cluster::Fabric& fabric, int index,
                                    int src, const std::string& key)>;

/// Saves v1 (full) and v2 (delta) of the 1%-density workload on a fresh
/// cluster, then attempts v3 with `sabotage` hooked ahead of its Δ
/// transfers, which must make v3 fail with CheckFailure. Checks that the
/// attempt rolled back, that a fresh session recovers v2 bit-exact, and
/// that the retried v3 is again a delta save that loads bit-exact. Returns
/// the failure's message — empty when `sabotage` let v3 commit, and then
/// nothing else is checked. `*transfers` gets the number of Δ transfers
/// v3 started.
std::string torn_delta_save(const Sabotage& sabotage, int* transfers) {
  const int g = 1, W = kNodes * g;
  const dnn::SparseUpdateSpec spec = sparse_spec(0.01);
  std::vector<dnn::StateDict> shards = sparse_shards(spec, W);

  cluster::VirtualCluster vc(vc_config(g));
  cluster::VirtualFabric inner(vc);
  testutil::SendBuffersTap fabric(inner);
  bool armed = false;
  int index = 0;
  fabric.before_send_buffers = [&](int src, int,
                                   const testutil::KeyPairs& pairs) {
    if (armed && is_delta_transfer(pairs))
      sabotage(inner, index++, src, pairs.front().first);
  };
  core::FabricSession session(fabric, delta_config(true), g, 2);

  session.save(pointers(shards));  // v1: full
  for (int w = 0; w < W; ++w)
    dnn::apply_sparse_update(shards[static_cast<std::size_t>(w)], spec, w, 1);
  const ckpt::SaveReport r2 = session.save(pointers(shards));  // v2: delta
  EXPECT_EQ(stat_of(r2, "delta.save.count"), 1u);
  const auto want_v2 = digests_of(shards);

  // v3 runs after the manifests were exchanged and the base rows moved,
  // i.e. genuinely mid-delta.
  for (int w = 0; w < W; ++w)
    dnn::apply_sparse_update(shards[static_cast<std::size_t>(w)], spec, w, 2);
  armed = true;
  std::string error;
  try {
    session.save(pointers(shards));
  } catch (const CheckFailure& e) {
    error = e.what();
  }
  armed = false;
  *transfers = index;
  if (error.empty()) return error;

  // Rollback scrubbed the torn version and all transient delta keys; the
  // base cache (still marked at v2, whose commit survives) is intact.
  for (int node = 0; node < kNodes; ++node) {
    EXPECT_TRUE(vc.host(node).keys_with_prefix("ec/3/").empty())
        << "node " << node;
    EXPECT_TRUE(vc.host(node).keys_with_prefix("tmp/").empty())
        << "node " << node;
    EXPECT_TRUE(vc.host(node).contains(core::keys::base_mark_key("")))
        << "node " << node;
  }

  // A fresh session (job restart) recovers v2 bit-exact…
  core::FabricSession fresh(fabric, delta_config(true), g, 2);
  std::vector<dnn::StateDict> out;
  const auto l = fresh.load(out);
  EXPECT_TRUE(l.report.success) << l.report.detail;
  EXPECT_EQ(l.version, 2);
  EXPECT_EQ(digests_of(out), want_v2);

  // …and the retried save commits (the surviving v2 base cache makes it a
  // delta save again), after which the new state loads bit-exact.
  const ckpt::SaveReport r3 = fresh.save(pointers(shards));
  EXPECT_EQ(stat_of(r3, "delta.save.count"), 1u);
  std::vector<dnn::StateDict> out3;
  const auto l3 = fresh.load(out3);
  EXPECT_TRUE(l3.report.success) << l3.report.detail;
  EXPECT_EQ(l3.version, 3);
  EXPECT_EQ(digests_of(out3), digests_of(shards));
  return error;
}

// A peer death at every Δ transfer in turn. The dense tower is rewritten
// every iteration, so every worker is dirty: one transfer per (worker,
// destination other than its own node).
TEST(DeltaEngine, TornDeltaSaveRollsBackAndRecoversBitExact) {
  int transfers = 0;
  const std::string committed = torn_delta_save(
      [](cluster::Fabric&, int, int, const std::string&) {}, &transfers);
  ASSERT_TRUE(committed.empty()) << committed;
  std::uint64_t want = 0;
  for (int w = 0; w < kNodes; ++w) want += delta_fanout(w, 1);
  ASSERT_EQ(static_cast<std::uint64_t>(transfers), want);

  for (int kill = 0; kill < transfers; ++kill) {
    SCOPED_TRACE("peer death at Δ transfer " + std::to_string(kill));
    int started = 0;
    const std::string error = torn_delta_save(
        [&](cluster::Fabric&, int index, int, const std::string&) {
          if (index == kill)
            throw CheckFailure("injected peer death mid-delta transfer");
        },
        &started);
    EXPECT_NE(error.find("injected peer death"), std::string::npos) << error;
    EXPECT_EQ(started, kill + 1);
  }
}

// A Δ payload cut short before it ships: the receiver checks its length
// against the all-gathered manifest before slicing it, so the save fails
// with a typed error instead of reading past the payload, and rolls back.
TEST(DeltaEngine, TruncatedDeltaPayloadIsRejectedAndRollsBack) {
  int transfers = 0;
  const std::string error = torn_delta_save(
      [](cluster::Fabric& fabric, int index, int src, const std::string& key) {
        if (index != 0) return;
        const Buffer& full = fabric.store(src).get(key);
        fabric.store(src).put(
            key, Buffer::copy_of(full.span().first(full.size() / 2)));
      },
      &transfers);
  EXPECT_NE(error.find("delta payload"), std::string::npos) << error;
}

// The fallback ratio is the dirty share of the *live* bytes: a full save
// never ships dead padding slots, so counting them would let an uneven
// world delta a save that dirties most of what a full save moves.
TEST(DeltaEngine, FallbackRatioCountsOnlyLiveBytes) {
  const int g = 1, W = kNodes * g;
  // Worker 0 holds 33 live 16 KiB packets, workers 1..3 two each: 39 live
  // of W·B = 132 slots. Half the rows rewritten dirty ≈ 284 KiB, which is
  // ≈ 46% of the 624 live KiB but only ≈ 13% of W·B·P.
  std::vector<dnn::SparseUpdateSpec> specs(W, sparse_spec(0.5));
  for (int w = 1; w < W; ++w)
    specs[static_cast<std::size_t>(w)].embedding_rows = 64;
  std::vector<dnn::StateDict> shards;
  for (int w = 0; w < W; ++w)
    shards.push_back(
        dnn::make_sparse_model_shard(specs[static_cast<std::size_t>(w)], w));

  cluster::VirtualCluster vc(vc_config(g));
  cluster::VirtualFabric fabric(vc);
  core::FabricSession session(fabric, delta_config(true), g, 2);
  session.save(pointers(shards));  // v1: full, seeds the base cache
  for (int w = 0; w < W; ++w)
    dnn::apply_sparse_update(shards[static_cast<std::size_t>(w)],
                             specs[static_cast<std::size_t>(w)], w, 1);
  const ckpt::SaveReport r2 = session.save(pointers(shards));
  EXPECT_EQ(stat_of(r2, "delta.save.count"), 0u);
  EXPECT_EQ(stat_of(r2, "delta.fallback.count"), 1u);

  std::vector<dnn::StateDict> out;
  const auto l = session.load(out);
  ASSERT_TRUE(l.report.success) << l.report.detail;
  EXPECT_EQ(digests_of(out), digests_of(shards));
}

// ---------------------------------------------------------------------------
// Padded shapes: a worker smaller than the largest is padded with zero
// packets (dead slots). They are zero in every version, so the eligibility
// diff skips them — even when the cached copy of one holds garbage.
// ---------------------------------------------------------------------------

TEST(DeltaEngine, DiffSkipsDeadPaddingSlots) {
  const int g = 1, W = kNodes * g;
  // Worker 0's embedding is four times the others', so workers 1..3 end in
  // dead slots.
  std::vector<dnn::SparseUpdateSpec> specs(W, sparse_spec(0.01));
  for (int w = 1; w < W; ++w)
    specs[static_cast<std::size_t>(w)].embedding_rows = 512;
  std::vector<dnn::StateDict> shards;
  for (int w = 0; w < W; ++w)
    shards.push_back(
        dnn::make_sparse_model_shard(specs[static_cast<std::size_t>(w)], w));
  const std::size_t P = delta_config(true).packet_size;
  std::vector<std::size_t> live;
  for (const auto& sd : shards)
    live.push_back(core::packets_needed(core::decompose(sd).tensor_bytes, P));
  const std::size_t B = *std::max_element(live.begin(), live.end());
  ASSERT_LT(live[1], B) << "the shape must be padded";

  cluster::VirtualCluster vc_delta(vc_config(g)), vc_full(vc_config(g));
  cluster::VirtualFabric inner(vc_delta), fab_full(vc_full);
  testutil::SendBuffersTap fab_delta(inner);
  std::int64_t version = 0;
  std::vector<std::vector<core::DirtyExtent>> manifests;
  fab_delta.before_send_buffers = [&](int src, int,
                                      const testutil::KeyPairs& pairs) {
    if (!is_delta_transfer(pairs) || !manifests.empty()) return;
    for (int w = 0; w < W; ++w)
      manifests.push_back(core::deserialize_extents(
          inner.store(src)
              .get(core::keys::delta_manifest_key("", version, w))
              .span()));
  };
  core::FabricSession on(fab_delta, delta_config(true), g, 2);
  core::FabricSession off(fab_full, delta_config(false), g, 2);

  for (version = 1; version <= 3; ++version) {
    if (version > 1) {
      for (int w = 0; w < W; ++w) {
        dnn::apply_sparse_update(shards[static_cast<std::size_t>(w)],
                                 specs[static_cast<std::size_t>(w)], w,
                                 version - 1);
        // Garbage in the cached dead slots: a diff that read them would
        // patch padding and leave the stores unlike a full re-encode.
        for (std::size_t b = live[static_cast<std::size_t>(w)]; b < B; ++b) {
          Buffer junk(P, Buffer::Init::kUninitialized);
          fill_random(junk.span(), 0xDEAD + b);
          vc_delta.host(w).put(
              core::keys::base_local_key("", w, static_cast<int>(b)),
              std::move(junk));
        }
      }
    }
    manifests.clear();
    const ckpt::SaveReport rd = on.save(pointers(shards));
    off.save(pointers(shards));
    if (version > 1) {
      EXPECT_EQ(stat_of(rd, "delta.save.count"), 1u) << "save " << version;
      ASSERT_EQ(manifests.size(), static_cast<std::size_t>(W));
      for (int w = 0; w < W; ++w) {
        const auto& ext = manifests[static_cast<std::size_t>(w)];
        EXPECT_FALSE(ext.empty());
        for (const core::DirtyExtent& e : ext)
          EXPECT_LT(e.packet, live[static_cast<std::size_t>(w)])
              << "worker " << w << " save " << version;
      }
    }
    for (int node = 0; node < kNodes; ++node)
      expect_identical(snapshot(vc_delta.host(node), "ec/"),
                       snapshot(vc_full.host(node), "ec/"),
                       "node " + std::to_string(node) + " after save " +
                           std::to_string(version));
  }

  std::vector<dnn::StateDict> out;
  const auto l = on.load(out);
  ASSERT_TRUE(l.report.success) << l.report.detail;
  EXPECT_EQ(digests_of(out), digests_of(shards));
}

// ---------------------------------------------------------------------------
// Integrity across delta saves. A delta save carries each row's CRC sums
// forward from the base version through its patches instead of
// recomputing them over the cloned row, so a bit flip in a committed row
// stays detectable in every later version, and the load decodes around it.
// ---------------------------------------------------------------------------

/// Worker w's dirty extents in the next delta save of `sd`, diffed against
/// its node's base cache exactly as the save will.
std::vector<core::DirtyExtent> next_extents(cluster::Store& node_store,
                                            const dnn::StateDict& sd, int w) {
  const core::ECCheckConfig cfg = delta_config(true);
  const core::Decomposition dec = core::decompose(sd);
  const std::size_t live =
      core::packets_needed(dec.tensor_bytes, cfg.packet_size);
  const std::vector<Buffer> packets =
      core::pack_packets(dec.tensor_data, cfg.packet_size, live);
  std::vector<core::DirtyExtent> ext;
  for (std::size_t b = 0; b < live; ++b) {
    const int pb = static_cast<int>(b);
    const std::vector<core::DirtyExtent> pext = core::diff_packet(
        pb, node_store.get(core::keys::base_local_key("", w, pb)).span(),
        packets[b].span(), core::kDirtyBlock);
    ext.insert(ext.end(), pext.begin(), pext.end());
  }
  return ext;
}

/// Saves v1 (full) and v2 (delta), flips one byte of chunk 0's v2 data
/// row — in a packet v3's Δ leaves alone, or inside one of v3's dirty
/// extents — then saves v3 as a delta. The flip must surface at load: v3
/// decodes the row (workflow B) and comes back bit-exact.
void expect_flip_in_committed_row_detected(bool flip_inside_patch) {
  const int g = 1, W = kNodes * g;
  const dnn::SparseUpdateSpec spec = sparse_spec(0.01);
  std::vector<dnn::StateDict> shards = sparse_shards(spec, W);
  cluster::VirtualCluster vc(vc_config(g));
  cluster::VirtualFabric fabric(vc);
  core::FabricSession session(fabric, delta_config(true), g, 2);

  auto update = [&](std::int64_t it) {
    for (int w = 0; w < W; ++w)
      dnn::apply_sparse_update(shards[static_cast<std::size_t>(w)], spec, w,
                               it);
  };
  session.save(pointers(shards));  // v1: full
  update(1);
  ASSERT_EQ(stat_of(session.save(pointers(shards)), "delta.save.count"), 1u)
      << "v2 must be a delta save";
  update(2);

  // Worker 0 is chunk 0's slot j = 0; pick the byte to flip in its row
  // from the extents v3 will patch.
  const core::Placement plan = placement(g);
  ASSERT_EQ(plan.chunk_of_worker(0), 0);
  const std::vector<core::DirtyExtent> ext =
      next_extents(vc.host(0), shards[0], 0);
  ASSERT_FALSE(ext.empty());
  int packet = -1;
  std::size_t offset = 0;
  if (flip_inside_patch) {
    packet = static_cast<int>(ext.front().packet);
    offset = ext.front().offset + ext.front().length / 2;
  } else {
    const std::size_t B =
        vc.host(0).keys_with_prefix("base/local/0/").size();
    for (std::size_t b = 0; b < B && packet < 0; ++b)
      if (std::none_of(ext.begin(), ext.end(), [&](const core::DirtyExtent& e) {
            return e.packet == b;
          }))
        packet = static_cast<int>(b);
    ASSERT_GE(packet, 0) << "v3 must leave some packet of worker 0 clean";
  }
  cluster::Store& data_node = vc.host(plan.data_nodes[0]);
  const std::string rk = core::keys::row_key("", 2, 0, 0, packet);
  Buffer row = data_node.take(rk);
  row.data()[offset] ^= std::byte{0x01};
  data_node.put(rk, std::move(row));

  const ckpt::SaveReport r3 = session.save(pointers(shards));
  ASSERT_EQ(stat_of(r3, "delta.save.count"), 1u) << "v3 must be a delta save";
  EXPECT_EQ(stat_of(r3, "delta.sums.fallback.count"), 0u);

  std::vector<dnn::StateDict> out;
  const auto l = session.load(out);
  ASSERT_TRUE(l.report.success) << l.report.detail;
  EXPECT_EQ(l.version, 3);
  EXPECT_EQ(l.report.detail.rfind("workflow B (decoded 1 rows)", 0), 0u)
      << l.report.detail;
  EXPECT_EQ(digests_of(out), digests_of(shards));
}

TEST(DeltaIntegrity, FlipInCommittedRowStaysDetectableAcrossDeltaSave) {
  expect_flip_in_committed_row_detected(/*flip_inside_patch=*/false);
}

TEST(DeltaIntegrity, FlipInsidePatchedExtentStaysDetectable) {
  expect_flip_in_committed_row_detected(/*flip_inside_patch=*/true);
}

// A node whose base sums are missing, or not one sum per packet slot,
// recomputes its sums over the patched row; the others carry theirs. Either
// way every durable key matches the full-encode cluster byte for byte.
TEST(DeltaIntegrity, NodeWithoutUsableBaseSumsRecomputesInFull) {
  const int g = 1, W = kNodes * g;
  const dnn::SparseUpdateSpec spec = sparse_spec(0.01);
  std::vector<dnn::StateDict> shards = sparse_shards(spec, W);
  cluster::VirtualCluster vc_delta(vc_config(g)), vc_full(vc_config(g));
  cluster::VirtualFabric fab_delta(vc_delta), fab_full(vc_full);
  core::FabricSession on(fab_delta, delta_config(true), g, 2);
  core::FabricSession off(fab_full, delta_config(false), g, 2);

  for (std::int64_t v = 1; v <= 4; ++v) {
    if (v > 1)
      for (int w = 0; w < W; ++w)
        dnn::apply_sparse_update(shards[static_cast<std::size_t>(w)], spec, w,
                                 v - 1);
    // Damage the base version's sums on one node, the same in both
    // clusters so their images stay comparable: erased before v3,
    // truncated by one slot before v4.
    for (cluster::VirtualCluster* vc : {&vc_delta, &vc_full}) {
      const std::string sk = core::keys::sums_key("", v - 1);
      if (v == 3) vc->host(1).erase(sk);
      if (v == 4) {
        const Buffer& sums = vc->host(2).get(sk);
        vc->host(2).put(sk,
                        Buffer::copy_of(sums.span().first(sums.size() - 8)));
      }
    }
    const ckpt::SaveReport rd = on.save(pointers(shards));
    off.save(pointers(shards));
    if (v > 1) {
      ASSERT_EQ(stat_of(rd, "delta.save.count"), 1u) << "save " << v;
      EXPECT_EQ(stat_of(rd, "delta.sums.fallback.count"), v >= 3 ? 1u : 0u)
          << "save " << v;
    }
    for (int node = 0; node < kNodes; ++node)
      expect_identical(snapshot(vc_delta.host(node), "ec/"),
                       snapshot(vc_full.host(node), "ec/"),
                       "node " + std::to_string(node) + " after save " +
                           std::to_string(v));
  }

  std::vector<dnn::StateDict> out;
  const auto l = on.load(out);
  ASSERT_TRUE(l.report.success) << l.report.detail;
  EXPECT_EQ(l.version, 4);
  EXPECT_EQ(l.report.detail.rfind("workflow A", 0), 0u) << l.report.detail;
  EXPECT_EQ(digests_of(out), digests_of(shards));
}


// ---------------------------------------------------------------------------
// Row move + undo overlay. A delta save moves the base version's row under
// the new version and keeps, under the base version, the pre-images of the
// bytes its patches changed. Older versions still load bit-exact however
// deep the chain of overlays, and a delta save torn at any fabric op — by a
// thrown error or by a dead node — puts the base row back exactly.
// ---------------------------------------------------------------------------

/// The keys of `s` under `prefix` exactly as stored, overlays and all.
StoreImage raw_image(const cluster::Store& s, const std::string& prefix) {
  StoreImage img;
  for (const std::string& key : s.keys_with_prefix(prefix))
    img.emplace(key, s.get(key).clone());
  return img;
}

/// v1 (full), v2 and v3 (delta) at retain 3: v1's overlay leads to v2's,
/// which leads to v3's row. Loading v1 — through both overlays — then v2
/// must give their committed bytes, every row passing its CRC scrub, and
/// leave v3 as it was.
void expect_older_versions_load_bit_exact(KernelMode kernel) {
  const int g = 1, W = kNodes * g;
  const dnn::SparseUpdateSpec spec = sparse_spec(0.01);
  std::vector<dnn::StateDict> shards = sparse_shards(spec, W);
  cluster::VirtualCluster vc(vc_config(g));
  cluster::VirtualFabric fabric(vc);
  const core::ECCheckConfig cfg = delta_config(true, false, kernel);
  core::FabricSession session(fabric, cfg, g, /*retain_versions=*/3);
  std::vector<std::vector<std::uint64_t>> want;  // version v at [v - 1]
  for (std::int64_t v = 1; v <= 3; ++v) {
    if (v > 1)
      for (int w = 0; w < W; ++w)
        dnn::apply_sparse_update(shards[static_cast<std::size_t>(w)], spec, w,
                                 v - 1);
    const ckpt::SaveReport rep = session.save(pointers(shards));
    EXPECT_EQ(stat_of(rep, "delta.save.count"), v > 1 ? 1u : 0u)
        << "save " << v;
    want.push_back(digests_of(shards));
  }

  std::vector<StoreImage> newest;
  for (int node = 0; node < kNodes; ++node) {
    const cluster::Store& store = vc.host(node);
    for (std::int64_t v = 1; v <= 2; ++v) {
      EXPECT_TRUE(store.keys_with_prefix(core::keys::version_prefix("", v) +
                                         "row/")
                      .empty())
          << "node " << node << " v" << v;
      EXPECT_TRUE(store.contains(core::keys::moved_key("", v)))
          << "node " << node << " v" << v;
    }
    newest.push_back(raw_image(store, "ec/3/"));
  }

  for (std::int64_t v = 1; v <= 2; ++v) {
    std::vector<dnn::StateDict> out;
    const ckpt::LoadReport l = core::fabric_load(fabric, cfg, v, out);
    ASSERT_TRUE(l.success) << "v" << v << ": " << l.detail;
    for (const ckpt::RowOutcome row : l.rows)
      EXPECT_EQ(row, ckpt::RowOutcome::kIntact) << "v" << v;
    EXPECT_EQ(digests_of(out), want[static_cast<std::size_t>(v - 1)])
        << "v" << v;
  }

  for (int node = 0; node < kNodes; ++node) {
    cluster::Store& store = vc.host(node);
    expect_identical(raw_image(store, "ec/3/"),
                     newest[static_cast<std::size_t>(node)],
                     "v3 on node " + std::to_string(node));
    const StoreImage before = raw_image(store, "");
    core::materialize_version(store, "", 1);
    core::materialize_version(store, "", 2);
    expect_identical(raw_image(store, ""), before,
                     "second materialize on node " + std::to_string(node));
  }
  std::vector<dnn::StateDict> out;
  const auto l = session.load(out);
  ASSERT_TRUE(l.report.success) << l.report.detail;
  EXPECT_EQ(l.version, 3);
  EXPECT_EQ(digests_of(out), want[2]);
}

TEST(DeltaOverlay, OlderVersionsLoadBitExact) {
  expect_older_versions_load_bit_exact(KernelMode::kGfTable);
}

TEST(DeltaOverlay, BitmatrixOlderVersionsLoadBitExact) {
  expect_older_versions_load_bit_exact(KernelMode::kXorBitmatrix);
}

/// How a test breaks an undo log: cut it short, or push its last record's
/// range past the end of its packet.
enum class LogBreak { kCutShort, kOutOfRange };

/// v1 (full) and v2 (delta) at retain 2, then one node's `ec/1/undo/<j>`
/// log (j > 0) broken as `how`, and v1 given back either by loading it
/// (which materializes it from v2's row) or by rolling v2 back. Either way
/// the broken slot is dropped with the rest of its row, never restored
/// wrong: every other node gets its v1 row back byte for byte, the load
/// decodes the node's row, and v1 and then v2 load bit-exact.
void expect_broken_log_drops_the_slot(LogBreak how, bool rollback) {
  const int g = 1, W = kNodes * g;
  const dnn::SparseUpdateSpec spec = sparse_spec(0.01);
  std::vector<dnn::StateDict> shards = sparse_shards(spec, W);
  cluster::VirtualCluster vc(vc_config(g));
  cluster::VirtualFabric fabric(vc);
  const core::ECCheckConfig cfg = delta_config(true);
  core::FabricSession session(fabric, cfg, g, /*retain_versions=*/2);
  session.save(pointers(shards));
  const auto want_v1 = digests_of(shards);
  std::vector<StoreImage> v1_rows;
  for (int node = 0; node < kNodes; ++node)
    v1_rows.push_back(raw_image(vc.host(node), "ec/1/row/"));
  for (int w = 0; w < W; ++w)
    dnn::apply_sparse_update(shards[static_cast<std::size_t>(w)], spec, w, 1);
  ASSERT_EQ(stat_of(session.save(pointers(shards)), "delta.save.count"), 1u);
  const auto want_v2 = digests_of(shards);

  // A parity node: every worker's Δ patched its row, so it holds logs.
  const int node = placement(g).parity_nodes[0];
  cluster::Store& store = vc.host(node);
  const std::vector<std::string> logs =
      store.keys_with_prefix(core::keys::undo_prefix("", 1));
  ASSERT_EQ(logs.size(), 2u);  // per_chunk = W / k slots
  const std::string log_key = logs.back();
  Buffer log = store.take(log_key);
  ASSERT_GT(log.size(), 24u);
  if (how == LogBreak::kCutShort) {
    store.put(log_key, Buffer::copy_of(log.span().subspan(0, log.size() - 1)));
  } else {
    // Walk to the last record; its offset becomes one past what fits.
    std::size_t pos = 0, last = 0;
    auto u64_at = [&](std::size_t at) {
      std::uint64_t v;
      std::memcpy(&v, log.data() + at, 8);
      return v;
    };
    while (pos < log.size()) {
      last = pos;
      pos += 24 + u64_at(pos + 16);
    }
    const std::uint64_t bad = cfg.packet_size - u64_at(last + 16) + 1;
    std::memcpy(log.data() + last + 8, &bad, 8);
    store.put(log_key, std::move(log));
  }

  if (rollback) {
    core::fabric_rollback(fabric, "", 2);
    for (int n = 0; n < kNodes; ++n) {
      const StoreImage got = raw_image(vc.host(n), "ec/1/row/");
      if (n == node)
        EXPECT_TRUE(got.empty()) << "the broken row must be dropped";
      else
        expect_identical(got, v1_rows[static_cast<std::size_t>(n)],
                         "v1 row on node " + std::to_string(n));
      EXPECT_TRUE(vc.host(n).keys_with_prefix("ec/1/undo/").empty());
      EXPECT_TRUE(vc.host(n).keys_with_prefix("ec/2/").empty());
    }
  }

  std::vector<dnn::StateDict> out;
  const ckpt::LoadReport l1 = core::fabric_load(fabric, cfg, 1, out);
  ASSERT_TRUE(l1.success) << l1.detail;
  EXPECT_EQ(digests_of(out), want_v1);
  for (int n = 0; n < kNodes; ++n)
    EXPECT_EQ(l1.rows[static_cast<std::size_t>(
                  placement(g).generator_row_of_node(n))],
              n == node ? ckpt::RowOutcome::kMissing
                        : ckpt::RowOutcome::kIntact)
        << "node " << n;
  if (rollback) return;
  const ckpt::LoadReport l2 = core::fabric_load(fabric, cfg, 2, out);
  ASSERT_TRUE(l2.success) << l2.detail;
  EXPECT_EQ(digests_of(out), want_v2);
}

TEST(DeltaOverlay, BrokenUndoLogDropsTheSlotAndLoadStaysBitExact) {
  for (const LogBreak how : {LogBreak::kCutShort, LogBreak::kOutOfRange})
    for (const bool rollback : {false, true}) {
      SCOPED_TRACE(std::string(how == LogBreak::kCutShort ? "cut short"
                                                          : "out of range") +
                   (rollback ? ", rolled back" : ", loaded"));
      expect_broken_log_drops_the_slot(how, rollback);
    }
}

struct KillCase {
  int k, m, g;  // g so that k divides W = (k + m)·g
  KernelMode kernel;
};

std::string kill_case_name(const ::testing::TestParamInfo<KillCase>& info) {
  const KillCase& c = info.param;
  return "k" + std::to_string(c.k) + "m" + std::to_string(c.m) + "g" +
         std::to_string(c.g) +
         (c.kernel == KernelMode::kGfTable ? "gftable" : "bitmatrix");
}

/// Saves v1 (full) and v2 (delta) of the 1%-density workload on a fresh
/// (k+m)-node cluster, then attempts v3, a delta save, with fabric op
/// `kill_at` of it sabotaged: a CheckFailure thrown ahead of the op, or,
/// with `kill_node`, node `kill_at` mod (k+m) killed ahead of it. With
/// kill_at < 0 nothing is sabotaged and v3 must commit as a delta save.
/// Returns the number of fabric ops v3 started.
int delta_save_killed_at(const KillCase& c, int kill_at, bool kill_node) {
  const int n = c.k + c.m, W = n * c.g;
  dnn::SparseUpdateSpec spec = sparse_spec(0.01);
  spec.embedding_rows = 512;
  std::vector<dnn::StateDict> shards = sparse_shards(spec, W);
  auto update = [&](std::int64_t it) {
    for (int w = 0; w < W; ++w)
      dnn::apply_sparse_update(shards[static_cast<std::size_t>(w)], spec, w,
                               it);
  };
  cluster::ClusterConfig cc;
  cc.num_nodes = n;
  cc.gpus_per_node = c.g;
  cluster::VirtualCluster vc(cc);
  cluster::VirtualFabric inner(vc);
  testutil::SendBuffersTap fabric(inner);
  core::ECCheckConfig cfg = delta_config(true, false, c.kernel);
  cfg.k = c.k;
  cfg.m = c.m;
  core::FabricSession session(fabric, cfg, c.g, 2);

  session.save(pointers(shards));  // v1: full
  update(1);
  EXPECT_EQ(stat_of(session.save(pointers(shards)), "delta.save.count"), 1u)
      << "v2 must be a delta save";
  const auto want_v2 = digests_of(shards);
  update(2);
  std::vector<StoreImage> v2_before, base_before;
  for (int node = 0; node < n; ++node) {
    v2_before.push_back(raw_image(vc.host(node), "ec/2/"));
    base_before.push_back(raw_image(vc.host(node), "base/"));
  }

  int ops = 0;
  const int victim = kill_at < 0 ? -1 : kill_at % n;
  fabric.before_op = [&](const char*) {
    if (ops++ != kill_at) return;
    if (!kill_node) throw CheckFailure("injected failure ahead of a fabric op");
    vc.kill(victim);
  };
  std::string error;
  ckpt::SaveReport r3;
  try {
    r3 = session.save(pointers(shards));
  } catch (const CheckFailure& e) {
    error = e.what();
  }
  fabric.before_op = nullptr;
  if (kill_at < 0) {
    EXPECT_TRUE(error.empty()) << error;
    EXPECT_EQ(stat_of(r3, "delta.save.count"), 1u) << "v3 must be a delta save";
    return ops;
  }
  EXPECT_FALSE(error.empty()) << "a sabotaged v3 must not commit";

  // Every survivor's v2 is back byte for byte, and nothing of v3 is left.
  for (int node = 0; node < n; ++node) {
    if (node == victim && kill_node) continue;
    const cluster::Store& store = vc.host(node);
    const std::string where = "node " + std::to_string(node);
    expect_identical(raw_image(store, "ec/2/"),
                     v2_before[static_cast<std::size_t>(node)], where + " v2");
    // A killed peer may have let earlier nodes patch their base cache
    // after v3's commit markers; only a thrown error leaves it untouched.
    if (!kill_node)
      expect_identical(raw_image(store, "base/"),
                       base_before[static_cast<std::size_t>(node)],
                       where + " base cache");
    EXPECT_TRUE(store.keys_with_prefix("ec/3/").empty()) << where;
    EXPECT_TRUE(store.keys_with_prefix("tmp/").empty()) << where;
  }
  if (kill_node) vc.replace(victim);

  // A fresh session (job restart) recovers v2 bit-exact…
  core::FabricSession fresh(fabric, cfg, c.g, 2);
  std::vector<dnn::StateDict> out;
  const auto l = fresh.load(out);
  EXPECT_TRUE(l.report.success) << l.report.detail;
  EXPECT_EQ(l.version, 2);
  EXPECT_EQ(digests_of(out), want_v2);
  if (kill_node) return ops;

  // …and the retried v3 is a delta save again that loads bit-exact.
  const ckpt::SaveReport retry = fresh.save(pointers(shards));
  EXPECT_EQ(stat_of(retry, "delta.save.count"), 1u);
  std::vector<dnn::StateDict> out3;
  const auto l3 = fresh.load(out3);
  EXPECT_TRUE(l3.report.success) << l3.report.detail;
  EXPECT_EQ(l3.version, 3);
  EXPECT_EQ(digests_of(out3), digests_of(shards));
  return ops;
}

class TornDeltaKillPoints : public ::testing::TestWithParam<KillCase> {};

TEST_P(TornDeltaKillPoints, EveryFabricOpRollsBackToTheBaseVersion) {
  const int ops = delta_save_killed_at(GetParam(), -1, false);
  ASSERT_GT(ops, 0);
  for (int at = 0; at < ops; ++at) {
    SCOPED_TRACE("error ahead of fabric op " + std::to_string(at));
    EXPECT_EQ(delta_save_killed_at(GetParam(), at, false), at + 1);
  }
}

TEST_P(TornDeltaKillPoints, EveryFabricOpSurvivesOneDeadNode) {
  const int ops = delta_save_killed_at(GetParam(), -1, false);
  ASSERT_GT(ops, 0);
  for (int at = 0; at < ops; ++at) {
    SCOPED_TRACE("node " + std::to_string(at % (GetParam().k + GetParam().m)) +
                 " dead ahead of fabric op " + std::to_string(at));
    delta_save_killed_at(GetParam(), at, true);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, TornDeltaKillPoints,
    ::testing::Values(KillCase{2, 1, 2, KernelMode::kGfTable},
                      KillCase{2, 1, 2, KernelMode::kXorBitmatrix},
                      KillCase{2, 2, 1, KernelMode::kGfTable},
                      KillCase{2, 2, 1, KernelMode::kXorBitmatrix},
                      KillCase{3, 2, 3, KernelMode::kGfTable},
                      KillCase{3, 2, 3, KernelMode::kXorBitmatrix}),
    kill_case_name);

/// Runs `save` with the global tracer on and returns its span counts and
/// the bytes recorded per span name.
struct SpanTally {
  std::map<std::string, std::uint64_t> count, bytes;
};

SpanTally traced(const std::function<void()>& save) {
  obs::Tracer& tracer = obs::Tracer::global();
  tracer.clear();
  tracer.enable();
  save();
  tracer.disable();
  SpanTally t;
  for (const obs::Tracer::ThreadTrack& track : tracer.snapshot())
    for (const obs::Tracer::SpanRec& rec : track.spans) {
      ++t.count[rec.name];
      t.bytes[rec.name] += rec.bytes;
    }
  tracer.clear();
  return t;
}

// A traced delta save shows its layers: the fused pack-and-diff eligibility
// pass and each patch, with the Δ bytes it folded in. It never packs the
// shard; a fallback save packs it once.
TEST(DeltaEngine, DeltaSaveRecordsItsStageSpans) {
  const int g = 1, W = kNodes * g;
  const dnn::SparseUpdateSpec spec = sparse_spec(0.01);
  std::vector<dnn::StateDict> shards = sparse_shards(spec, W);
  cluster::VirtualCluster vc(vc_config(g));
  cluster::VirtualFabric fabric(vc);
  core::FabricSession session(fabric, delta_config(true), g, 2);
  session.save(pointers(shards));  // v1: full
  for (int w = 0; w < W; ++w)
    dnn::apply_sparse_update(shards[static_cast<std::size_t>(w)], spec, w, 1);

  ckpt::SaveReport rep;
  SpanTally t = traced([&] { rep = session.save(pointers(shards)); });
  auto& [spans, bytes] = t;

  ASSERT_EQ(stat_of(rep, "delta.save.count"), 1u);
  EXPECT_EQ(spans["engine.save.pack"], 0u);
  EXPECT_EQ(spans["engine.save.diff"], static_cast<std::uint64_t>(kNodes));
  EXPECT_GT(spans["engine.save.delta.patch"], 0u);
  // Each patch carries its worker's Δ bytes: every dirty worker's Δ is
  // folded into its data row and the m parity rows.
  EXPECT_EQ(bytes["engine.save.delta.patch"],
            (1 + kM) * stat_of(rep, "delta.dirty.bytes"));

  // A vanished base marker forces the fallback, which packs exactly once.
  vc.host(1).erase(core::keys::base_mark_key(""));
  for (int w = 0; w < W; ++w)
    dnn::apply_sparse_update(shards[static_cast<std::size_t>(w)], spec, w, 2);
  ckpt::SaveReport fallback;
  SpanTally f = traced([&] { fallback = session.save(pointers(shards)); });
  ASSERT_EQ(stat_of(fallback, "delta.fallback.count"), 1u);
  EXPECT_EQ(f.count["engine.save.pack"], 1u);
}

// ---------------------------------------------------------------------------
// The base cache. A delta save never packs the shard: it patches each
// site's cache in place with the Δ it built during the diff, once the
// commit barrier has passed. The cache must still equal pack_packets of
// the saved shards, and a torn save must leave it at the last commit.
// ---------------------------------------------------------------------------

/// Every sited worker's cached packets equal `packets[w]`.
void expect_base_cache(cluster::VirtualCluster& vc, int g,
                       const std::vector<std::vector<Buffer>>& packets,
                       const std::string& what) {
  for (int w = 0; w < static_cast<int>(packets.size()); ++w) {
    const cluster::Store& store = vc.host(w / g);
    const std::vector<Buffer>& want = packets[static_cast<std::size_t>(w)];
    for (int b = 0; b < static_cast<int>(want.size()); ++b) {
      const std::string key = core::keys::base_local_key("", w, b);
      ASSERT_TRUE(store.contains(key)) << what << ": " << key;
      EXPECT_TRUE(store.get(key) == want[static_cast<std::size_t>(b)])
          << what << ": " << key << " differs from the packed shard";
    }
  }
}

/// pack_packets of each shard, padded to the common packet count.
std::vector<std::vector<Buffer>> packings(
    const std::vector<dnn::StateDict>& shards, std::size_t P) {
  std::size_t B = 1;
  for (const auto& sd : shards)
    B = std::max(B, core::packets_needed(sd.tensor_bytes(), P));
  std::vector<std::vector<Buffer>> out;
  for (const auto& sd : shards)
    out.push_back(core::pack_packets(core::decompose(sd).tensor_data, P, B));
  return out;
}

void expect_patched_cache_tracks_the_packing(KernelMode kernel, int g) {
  const int W = kNodes * g;
  const dnn::SparseUpdateSpec spec = sparse_spec(0.01);
  std::vector<dnn::StateDict> shards = sparse_shards(spec, W);
  const core::ECCheckConfig cfg = delta_config(true, false, kernel);

  cluster::VirtualCluster vc(vc_config(g));
  cluster::VirtualFabric inner(vc);
  testutil::SendBuffersTap fabric(inner);
  core::FabricSession session(fabric, cfg, g, 2);
  session.save(pointers(shards));  // v1: full, seeds the cache
  expect_base_cache(vc, g, packings(shards, cfg.packet_size), "after v1");

  for (std::int64_t v = 2; v <= 4; ++v) {
    for (int w = 0; w < W; ++w)
      dnn::apply_sparse_update(shards[static_cast<std::size_t>(w)], spec, w,
                               v - 1);
    const ckpt::SaveReport rep = session.save(pointers(shards));
    ASSERT_EQ(stat_of(rep, "delta.save.count"), 1u) << "v" << v;
    expect_base_cache(vc, g, packings(shards, cfg.packet_size),
                      "after delta save v" + std::to_string(v));
  }

  // A save torn at its first Δ transfer rolls back; the cache still holds
  // v4's packing.
  const std::vector<std::vector<Buffer>> v4 =
      packings(shards, cfg.packet_size);
  for (int w = 0; w < W; ++w)
    dnn::apply_sparse_update(shards[static_cast<std::size_t>(w)], spec, w, 4);
  fabric.before_send_buffers = [](int, int, const testutil::KeyPairs& pairs) {
    if (is_delta_transfer(pairs))
      throw CheckFailure("injected peer death mid-delta transfer");
  };
  EXPECT_THROW(session.save(pointers(shards)), CheckFailure);
  fabric.before_send_buffers = nullptr;
  for (int node = 0; node < kNodes; ++node)
    EXPECT_TRUE(vc.host(node).keys_with_prefix("tmp/").empty())
        << "node " << node;
  expect_base_cache(vc, g, v4, "after the torn save");

  // The retry is a delta save off that cache and loads bit-exact.
  const ckpt::SaveReport retry = session.save(pointers(shards));
  EXPECT_EQ(stat_of(retry, "delta.save.count"), 1u);
  expect_base_cache(vc, g, packings(shards, cfg.packet_size), "after retry");
  std::vector<dnn::StateDict> out;
  const auto l = session.load(out);
  ASSERT_TRUE(l.report.success) << l.report.detail;
  EXPECT_EQ(digests_of(out), digests_of(shards));
}

TEST(DeltaBaseCache, PatchedInPlaceEqualsThePacking) {
  for (KernelMode kernel : {KernelMode::kGfTable, KernelMode::kXorBitmatrix})
    for (int g : {1, 2}) {
      SCOPED_TRACE(std::string(kernel == KernelMode::kGfTable ? "gftable"
                                                              : "bitmatrix") +
                   " g=" + std::to_string(g));
      expect_patched_cache_tracks_the_packing(kernel, g);
    }
}

// A global fallback after some nodes passed the eligibility step locally —
// they diffed and staged a Δ — must pack, save exactly as a delta-off
// session would, leave no delta staging behind, and re-arm the delta path.
TEST(DeltaBaseCache, MixedFallbackMatchesFullSaveAndReArms) {
  enum class Veto { kHeavyWorker, kEvictedCache, kEvictedPacket };
  for (Veto veto :
       {Veto::kHeavyWorker, Veto::kEvictedCache, Veto::kEvictedPacket}) {
    const char* name = veto == Veto::kHeavyWorker    ? "heavy worker"
                       : veto == Veto::kEvictedCache ? "evicted base cache"
                                                     : "evicted base packet";
    SCOPED_TRACE(name);
    const int g = 1, W = kNodes * g;
    // Worker 0 holds 33 live packets, the others two each: rewriting all
    // of worker 0's rows dirties far more than kMaxDirtyRatio of the live
    // bytes, while every node's own eligibility check passes.
    std::vector<dnn::SparseUpdateSpec> specs(W, sparse_spec(0.01));
    for (int w = 1; w < W; ++w)
      specs[static_cast<std::size_t>(w)].embedding_rows = 64;
    std::vector<dnn::StateDict> shards;
    for (int w = 0; w < W; ++w)
      shards.push_back(dnn::make_sparse_model_shard(
          specs[static_cast<std::size_t>(w)], w));
    auto update = [&](std::int64_t it, bool heavy) {
      for (int w = 0; w < W; ++w) {
        dnn::SparseUpdateSpec s = specs[static_cast<std::size_t>(w)];
        if (heavy && w == 0) s.row_density = 1.0;
        dnn::apply_sparse_update(shards[static_cast<std::size_t>(w)], s, w,
                                 it);
      }
    };

    cluster::VirtualCluster vc_delta(vc_config(g)), vc_full(vc_config(g));
    cluster::VirtualFabric fab_delta(vc_delta), fab_full(vc_full);
    core::FabricSession on(fab_delta, delta_config(true), g, 2);
    core::FabricSession off(fab_full, delta_config(false), g, 2);
    auto save_both = [&](std::int64_t v) {
      const ckpt::SaveReport rep = on.save(pointers(shards));
      off.save(pointers(shards));
      for (int node = 0; node < kNodes; ++node) {
        const std::string where =
            "node " + std::to_string(node) + " after v" + std::to_string(v);
        expect_identical(snapshot(vc_delta.host(node), "ec/"),
                         snapshot(vc_full.host(node), "ec/"), where);
        EXPECT_TRUE(vc_delta.host(node)
                        .keys_with_prefix(core::keys::tmp_prefix("", v) +
                                          "delta/")
                        .empty())
            << where;
        EXPECT_TRUE(vc_delta.host(node).keys_with_prefix("tmp/").empty())
            << where;
      }
      return rep;
    };

    save_both(1);  // full, seeds the cache
    update(1, false);
    ASSERT_EQ(stat_of(save_both(2), "delta.save.count"), 1u);

    update(2, veto == Veto::kHeavyWorker);
    if (veto == Veto::kEvictedCache)
      for (const std::string& key : vc_delta.host(2).keys_with_prefix("base/"))
        vc_delta.host(2).erase(key);
    if (veto == Veto::kEvictedPacket)  // worker 3's last live packet
      vc_delta.host(3).erase(core::keys::base_local_key("", 3, 1));
    const ckpt::SaveReport fallback = save_both(3);
    EXPECT_EQ(stat_of(fallback, "delta.save.count"), 0u);
    EXPECT_EQ(stat_of(fallback, "delta.fallback.count"), 1u);
    expect_base_cache(vc_delta, g, packings(shards, kib(16)),
                      "after the fallback");

    update(3, false);
    const ckpt::SaveReport light = save_both(4);
    EXPECT_EQ(stat_of(light, "delta.save.count"), 1u);
    EXPECT_EQ(stat_of(light, "delta.fallback.count"), 0u);
    expect_base_cache(vc_delta, g, packings(shards, kib(16)),
                      "after the next light save");

    std::vector<dnn::StateDict> out;
    const auto l = on.load(out);
    ASSERT_TRUE(l.report.success) << l.report.detail;
    EXPECT_EQ(l.version, 4);
    EXPECT_EQ(digests_of(out), digests_of(shards));
  }
}
}  // namespace
}  // namespace eccheck
