#include "core/fabric_engine.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <map>
#include <numeric>
#include <span>

#include "common/bytes.hpp"
#include "common/crc64.hpp"
#include "core/delta.hpp"
#include "core/engine_keys.hpp"
#include "core/placement.hpp"
#include "core/protocol.hpp"
#include "ec/crs_codec.hpp"
#include "gf/simd.hpp"
#include "obs/stats.hpp"
#include "obs/tracer.hpp"

namespace eccheck::core {
namespace {

using keys::base_keys_key;
using keys::base_local_key;
using keys::base_mark_key;
using keys::commit_key;
using keys::delta_manifest_key;
using keys::delta_patch_key;
using keys::keys_key;
using keys::local_key;
using keys::meta_key;
using keys::moved_key;
using keys::row_key;
using keys::row_prefix;
using keys::sums_key;
using keys::tmp_prefix;
using keys::undo_key;
using keys::undo_prefix;
using keys::version_prefix;

using Clock = std::chrono::steady_clock;

Seconds since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::vector<int> driven_nodes(cluster::Fabric& fabric) {
  std::vector<int> nodes;
  for (int node = 0; node < fabric.world_size(); ++node)
    if (fabric.drives(node)) nodes.push_back(node);
  ECC_CHECK_MSG(!nodes.empty(), "fabric drives no rank");
  return nodes;
}

std::vector<int> all_nodes(int n) {
  std::vector<int> nodes(static_cast<std::size_t>(n));
  std::iota(nodes.begin(), nodes.end(), 0);
  return nodes;
}

/// The ranks participating in collectives under `members`: the alive list,
/// or everyone under full membership.
std::vector<int> active_nodes(int n, const Membership& members) {
  return members.full() ? all_nodes(n) : members.alive;
}

/// Nodes whose per-node protocol state this process is responsible for:
/// every node whose site (itself when alive, the adopter when dead) is
/// driven here. Ascending.
std::vector<int> sited_nodes(cluster::Fabric& fabric,
                             const Membership& members) {
  std::vector<int> nodes;
  for (int node = 0; node < fabric.world_size(); ++node)
    if (fabric.drives(members.site(node))) nodes.push_back(node);
  return nodes;
}

/// First alive node this process drives — the rank whose store "home"
/// reads (B derivation, gathered flags) come from.
int home_node(cluster::Fabric& fabric, const std::vector<int>& act) {
  for (int node : act)
    if (fabric.drives(node)) return node;
  throw CheckFailure("fabric drives no alive rank");
}

/// store(node), or nullptr when the node died under the operation in
/// flight — a VirtualFabric's store() throws for a node its fault hook
/// killed. Clean-up paths skip such nodes and still scrub every survivor.
cluster::Store* surviving_store(cluster::Fabric& fabric, int node) {
  try {
    return &fabric.store(node);
  } catch (const CheckFailure&) {
    return nullptr;
  }
}

/// Sum of the stats-delta counters matching "net.*.bytes" / the remote
/// write counter — fills the report's traffic fields identically for the
/// VirtualFabric registry and the transport registry.
void fill_traffic(const std::map<std::string, std::uint64_t>& delta,
                  std::size_t* network_bytes, std::size_t* remote_bytes) {
  for (const auto& [key, value] : delta) {
    if (key.rfind("net.", 0) == 0 &&
        key.size() > 6 && key.compare(key.size() - 6, 6, ".bytes") == 0)
      *network_bytes += value;
  }
  auto it = delta.find("remote.write.bytes");
  if (remote_bytes != nullptr && it != delta.end()) *remote_bytes += it->second;
}

/// "<ns>ec/<v><marker>" → v, or 0 when the key is not that marker of a
/// version ("/commit", "/moved").
std::int64_t marker_version_of(const std::string& key, const std::string& ns,
                               const char* marker) {
  const std::string head = ns + "ec/";
  if (key.rfind(head, 0) != 0) return 0;
  const std::size_t digits = head.size();
  std::size_t end = digits;
  while (end < key.size() && std::isdigit(static_cast<unsigned char>(key[end])))
    ++end;
  if (end == digits || key.compare(end, std::string::npos, marker) != 0)
    return 0;
  std::int64_t v = 0;
  for (std::size_t i = digits; i < end; ++i) {
    if (v > (INT64_MAX - 9) / 10) return 0;
    v = v * 10 + (key[i] - '0');
  }
  return v;
}

void put_u64_le(std::byte* p, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<std::byte>(v >> (8 * i));
}

std::uint64_t get_u64_le(const std::byte* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i)
    v |= static_cast<std::uint64_t>(std::to_integer<std::uint8_t>(p[i]))
         << (8 * i);
  return v;
}

/// One SPMD flag round: every driven node contributes 16 bytes
/// (flag, worker-count) under a per-node tmp key, all_gather makes all n
/// contributions visible everywhere, and the tmp keys are erased again.
/// Returns, per node, the (flag, W) pair — identical on every rank.
struct NodeFlag {
  std::uint64_t flag = 0;
  std::uint64_t workers = 0;
};

/// `act` is the participating (alive) node list; excluded ranks' entries in
/// the returned vector stay zeroed, so dead ranks read as "nothing usable".
std::vector<NodeFlag> exchange_flags(
    cluster::Fabric& fabric, const std::string& tag,
    const std::function<NodeFlag(int node)>& local,
    const std::vector<int>& act) {
  const int n = fabric.world_size();
  auto fkey = [&](int node) { return tag + std::to_string(node); };
  auto erase_all = [&] {
    for (int node : act)
      if (fabric.drives(node))
        if (cluster::Store* store = surviving_store(fabric, node))
          for (int other : act) store->erase(fkey(other));
  };
  for (int node : act) {
    if (!fabric.drives(node)) continue;
    const NodeFlag f = local(node);
    Buffer buf(16, Buffer::Init::kZeroed);
    put_u64_le(buf.data(), f.flag);
    put_u64_le(buf.data() + 8, f.workers);
    fabric.store(node).put(fkey(node), std::move(buf));
  }
  try {
    fabric.all_gather(act, fkey);
  } catch (...) {
    // A dead peer aborts the gather — the transient exchange keys must not
    // outlive the failed collective (they are not version-scoped, so the
    // caller's torn-version rollback would miss them).
    erase_all();
    throw;
  }
  std::vector<NodeFlag> flags(static_cast<std::size_t>(n));
  const int home = home_node(fabric, act);
  for (int node : act) {
    const Buffer& buf = fabric.store(home).get(fkey(node));
    ECC_CHECK(buf.size() == 16);
    flags[static_cast<std::size_t>(node)].flag = get_u64_le(buf.data());
    flags[static_cast<std::size_t>(node)].workers =
        get_u64_le(buf.data() + 8);
  }
  erase_all();
  return flags;
}

/// Per-worker packet counts of one version (§III-C). pack_packets pads every
/// worker to B packets with zeros, so a packet slot past the count of every
/// worker it covers is *dead*: zero on every rank by construction. Dead
/// slots are stored (the CRC sums and the remote flush cover the whole
/// stripe) but never shipped, encoded or decoded.
struct PacketCounts {
  std::vector<std::size_t> live;   ///< worker → packets holding its bytes
  std::vector<std::size_t> group;  ///< reduction group j → max live over it
  std::size_t B = 1;               ///< uniform packets per worker
  int k = 0;
  int per_chunk = 0;

  /// Slots [0, row_live(row, j)) of stripe j of chunk row `row` are live:
  /// its worker's for a data row, any group member's for a parity row.
  std::size_t row_live(int row, int j) const {
    return row < k ? live[static_cast<std::size_t>(row * per_chunk + j)]
                   : group[static_cast<std::size_t>(j)];
  }
};

/// Derives the counts from the tensor-keys blobs every rank holds after the
/// step-2 broadcast (or the load's metadata refresh), so all ranks agree
/// without another collective. `tkeys`, when given, receives the decoded
/// blobs.
PacketCounts packet_counts(
    cluster::Store& home, const std::string& ns, std::int64_t version, int W,
    int k, std::size_t P,
    std::vector<std::vector<dnn::TensorMeta>>* tkeys = nullptr) {
  PacketCounts pc;
  pc.k = k;
  pc.per_chunk = W / k;
  pc.live.resize(static_cast<std::size_t>(W));
  pc.group.assign(static_cast<std::size_t>(pc.per_chunk), 0);
  if (tkeys != nullptr) tkeys->resize(static_cast<std::size_t>(W));
  for (int w = 0; w < W; ++w) {
    auto tk = dnn::deserialize_tensor_keys(
        home.get(keys_key(ns, version, w)).span());
    std::size_t bytes = 0;
    for (const auto& tm : tk) bytes += tm.nbytes();
    const std::size_t live = packets_needed(bytes, P);
    pc.live[static_cast<std::size_t>(w)] = live;
    std::size_t& g = pc.group[static_cast<std::size_t>(w % pc.per_chunk)];
    g = std::max(g, live);
    pc.B = std::max(pc.B, live);
    if (tkeys != nullptr) (*tkeys)[static_cast<std::size_t>(w)] = std::move(tk);
  }
  return pc;
}

/// Walks a worker's Δ manifest one packet at a time: `visit(b, run, at)`
/// gets a run of consecutive extents inside packet b and the offset of the
/// run's first byte in the worker's concatenated Δ payload. Manifests are
/// in (packet, offset) order, so each packet's store key is looked up once.
/// Every extent must lie inside a packet of `P` bytes.
template <typename Visit>
void for_each_packet_run(const std::vector<DirtyExtent>& ext, std::size_t P,
                         Visit&& visit) {
  std::uint64_t at = 0;
  for (std::size_t first = 0; first < ext.size();) {
    std::size_t last = first;
    std::uint64_t run_bytes = 0;
    for (; last < ext.size() && ext[last].packet == ext[first].packet; ++last) {
      const DirtyExtent& e = ext[last];
      ECC_CHECK_MSG(e.length <= P && e.offset <= P - e.length,
                    "dirty extent [" << e.offset << ", +" << e.length
                                     << ") outside a " << P << "-byte packet");
      run_bytes += e.length;
    }
    visit(static_cast<int>(ext[first].packet),
          std::span<const DirtyExtent>(ext.data() + first, last - first), at);
    at += run_bytes;
    first = last;
  }
}

/// crc64 of a P-byte packet of zeros, without a buffer: the sum of every
/// zero slot (a dead data tail, an unfolded parity slot, a dead target).
std::uint64_t zero_sum(std::size_t P) { return ~crc64_shift(~0ULL, P); }

/// Per-packet CRC-64s of one chunk row, slot j·B + b, taken where each
/// packet is produced (DESIGN.md §7). Keyed by node.
using RowSums = std::map<int, std::vector<std::uint64_t>>;

/// The `sums_key` blob holding `sums`.
Buffer sums_blob(const std::vector<std::uint64_t>& sums) {
  return Buffer::copy_of(std::as_bytes(std::span(sums)));
}

/// The fallback for a row whose sums were not taken as it was produced:
/// rereads every packet of chunk row `row` of `version` on `node` and
/// counts `integrity.sums.rescan.count`.
Buffer row_sums(cluster::Fabric& fabric, int node, const std::string& ns,
                std::int64_t version, int row, int per_chunk, std::size_t B) {
  fabric.stats().add("integrity.sums.rescan.count");
  const cluster::Store& store = fabric.store(node);
  std::vector<std::uint64_t> sums;
  sums.reserve(static_cast<std::size_t>(per_chunk) * B);
  for (int j = 0; j < per_chunk; ++j)
    for (std::size_t b = 0; b < B; ++b)
      sums.push_back(crc64(
          store.get(row_key(ns, version, row, j, static_cast<int>(b))).span()));
  return sums_blob(sums);
}

/// (start, length) byte ranges of one packet, ascending and disjoint.
using Ranges = std::vector<std::pair<std::size_t, std::size_t>>;

/// An undo record: offset and length (u64 LE each), then the pre-image.
constexpr std::size_t kUndoHeader = 16;

/// Writes `pkt`'s bytes at `ranges` as undo records from `out` on; returns
/// the end of what it wrote.
std::byte* capture_undo(const Buffer& pkt, const Ranges& ranges,
                        std::byte* out) {
  for (const auto& [at, len] : ranges) {
    put_u64_le(out, at);
    put_u64_le(out + 8, len);
    std::memcpy(out + kUndoHeader, pkt.data() + at, len);
    out += kUndoHeader + len;
  }
  return out;
}

/// Writes the pre-images of an undo entry back into `pkt`, newest record
/// first. False, with `pkt` untouched, when a record is cut short or falls
/// outside the packet.
bool apply_undo(ByteSpan undo, MutableByteSpan pkt) {
  std::vector<std::size_t> records;  // offsets into `undo`
  for (std::size_t pos = 0; pos < undo.size();) {
    if (undo.size() - pos < kUndoHeader) return false;
    const std::uint64_t at = get_u64_le(undo.data() + pos);
    const std::uint64_t len = get_u64_le(undo.data() + pos + 8);
    if (len > undo.size() - pos - kUndoHeader || at > pkt.size() ||
        len > pkt.size() - at)
      return false;
    records.push_back(pos);
    pos += kUndoHeader + len;
  }
  for (auto r = records.rbegin(); r != records.rend(); ++r) {
    const std::byte* rec = undo.data() + *r;
    std::memcpy(pkt.data() + get_u64_le(rec), rec + kUndoHeader,
                get_u64_le(rec + 8));
  }
  return true;
}

/// A version's moved marker: the newer version whose keys hold its chunk
/// row `row`. `to` is 0 when the version holds its own row.
struct Moved {
  std::int64_t to = 0;
  int row = 0;
};

Moved moved_of(const cluster::Store& store, const std::string& ns,
               std::int64_t version) {
  Moved m;
  if (!store.contains(moved_key(ns, version))) return m;
  const Buffer& buf = store.get(moved_key(ns, version));
  if (buf.size() != 16) return m;
  const auto to = static_cast<std::int64_t>(get_u64_le(buf.data()));
  const std::uint64_t row = get_u64_le(buf.data() + 8);
  if (to <= version || row > static_cast<std::uint64_t>(INT32_MAX)) return m;
  m.to = to;
  m.row = static_cast<int>(row);
  return m;
}

/// Undoes the move of `version`'s row into `m.to`: writes each undo entry
/// back into its packet, renames the packets home and drops the overlay.
/// A packet whose entry does not fit it is dropped rather than restored
/// wrong, so the row reads as lost and the load decodes it.
void restore_moved(cluster::Store& store, const std::string& ns,
                   std::int64_t version, const Moved& m) {
  const std::string from = row_prefix(ns, m.to, m.row);
  const std::string up = undo_prefix(ns, version);
  for (const std::string& uk : store.keys_with_prefix(up)) {
    const std::string rk = from + uk.substr(up.size());
    if (store.contains(rk)) {
      Buffer pkt = store.take(rk);
      if (apply_undo(store.get(uk).span(), pkt.span()))
        store.put(rk, std::move(pkt));
    }
    store.erase(uk);
  }
  const std::string home = row_prefix(ns, version, m.row);
  for (const std::string& rk : store.keys_with_prefix(from))
    store.rename(rk, home + rk.substr(from.size()));
  store.erase(moved_key(ns, version));
}

}  // namespace

void materialize_version(cluster::Store& store, const std::string& ns,
                         std::int64_t version) {
  const Moved first = moved_of(store, ns, version);
  if (first.to == 0) return;
  // Follow the markers to the version holding the row. Each hop goes to a
  // newer version, so the walk ends.
  std::vector<std::int64_t> overlays = {version};  // oldest first
  std::int64_t holder = first.to;
  for (Moved next = moved_of(store, ns, holder); next.to != 0;
       next = moved_of(store, ns, holder)) {
    if (next.row != first.row) return;
    overlays.push_back(holder);
    holder = next.to;
  }
  const std::string from = row_prefix(ns, holder, first.row);
  std::map<std::string, Buffer> row;  // "<j>/<b>" → packet
  for (const std::string& rk : store.keys_with_prefix(from))
    row.emplace(rk.substr(from.size()), store.get(rk).clone());
  if (row.empty()) return;
  for (auto v = overlays.rbegin(); v != overlays.rend(); ++v) {
    const std::string up = undo_prefix(ns, *v);
    for (const std::string& uk : store.keys_with_prefix(up)) {
      const auto pkt = row.find(uk.substr(up.size()));
      if (pkt == row.end() ||
          !apply_undo(store.get(uk).span(), pkt->second.span()))
        return;  // a broken overlay: the row reads as lost on this node
    }
  }
  const std::string home = row_prefix(ns, version, first.row);
  for (auto& [suffix, pkt] : row) store.put(home + suffix, std::move(pkt));
  for (const std::string& uk : store.keys_with_prefix(undo_prefix(ns, version)))
    store.erase(uk);
  store.erase(moved_key(ns, version));
}

std::vector<int> fabric_sited_workers(cluster::Fabric& fabric,
                                      int gpus_per_node,
                                      const Membership& members) {
  std::vector<int> workers;
  for (int node : sited_nodes(fabric, members))
    for (int l = 0; l < gpus_per_node; ++l)
      workers.push_back(node * gpus_per_node + l);
  return workers;
}

// ---------------------------------------------------------------------------
// save
// ---------------------------------------------------------------------------

ckpt::SaveReport fabric_save(cluster::Fabric& fabric, const ECCheckConfig& cfg,
                             const std::vector<const dnn::StateDict*>& shards,
                             std::int64_t version,
                             const Membership& members) {
  const auto t0 = Clock::now();
  const int n = fabric.world_size();
  ECC_CHECK_MSG(cfg.k + cfg.m == n, "k+m must equal the fabric world size");
  members.check(n);
  const int n_alive = members.alive_count(n);
  ECC_CHECK_MSG(n_alive >= cfg.k, "degraded save impossible: only "
                                      << n_alive << " of " << n
                                      << " ranks alive, need at least k="
                                      << cfg.k);
  const std::vector<int> act = active_nodes(n, members);
  const std::vector<int> driven = driven_nodes(fabric);
  const std::vector<int> handled = sited_nodes(fabric, members);
  ECC_CHECK_MSG(!handled.empty(),
                "this process sites no rank under the given membership");
  ECC_CHECK_MSG(!shards.empty() && shards.size() % handled.size() == 0,
                "need the same number of shards per sited rank");
  const int g = static_cast<int>(shards.size() / handled.size());
  const int W = n * g;
  ECC_CHECK_MSG(W % cfg.k == 0, "k must divide the worker count");

  PlacementConfig pc;
  pc.num_nodes = n;
  pc.gpus_per_node = g;
  pc.k = cfg.k;
  pc.m = cfg.m;
  const Placement plan = plan_placement(pc);
  const ec::CrsCodec codec(cfg.k, cfg.m, cfg.gf_width, cfg.kernel);
  const int per_chunk = plan.workers_per_chunk();
  const std::size_t P = cfg.packet_size;
  ECC_CHECK_MSG(P % codec.packet_granularity() == 0,
                "packet_size must be a multiple of the codec granularity");
  const std::string& ns = cfg.key_namespace;

  ckpt::SaveReport rep;
  const auto stats_base = fabric.stats().counters();
  obs::ScopedSpan span("engine.save[" + fabric.fabric_name() + "]");

  std::map<int, int> shard_index;  // worker → index into `shards`
  {
    int idx = 0;
    for (int node : handled)  // ascending, matching fabric_sited_workers
      for (int l = 0; l < g; ++l) {
        const int w = node * g + l;
        shard_index[w] = idx++;
        ECC_CHECK_MSG(
            shards[static_cast<std::size_t>(shard_index[w])] != nullptr,
            "null shard for worker " << w);
      }
  }

  // ---- Step 1: decompose + serialize the tiny components -----------------
  std::map<int, Decomposition> decs;  // sited worker → decomposition
  for (const auto& [w, si] : shard_index) {
    const int site = members.site(w / g);
    Decomposition dec = decompose(*shards[static_cast<std::size_t>(si)]);
    fabric.store(site).put(meta_key(ns, version, w),
                           std::move(dec.metadata_blob));
    fabric.store(site).put(keys_key(ns, version, w),
                           std::move(dec.keys_blob));
    decs.emplace(w, std::move(dec));
  }

  // ---- Step 2: metadata + tensor keys to every node ----------------------
  for (int l = 0; l < g; ++l) {
    fabric.all_gather(
        act, [&](int node) { return meta_key(ns, version, node * g + l); });
    fabric.all_gather(
        act, [&](int node) { return keys_key(ns, version, node * g + l); });
  }
  // The gather only moved alive nodes' own workers; dead nodes' adopted
  // metadata goes out from the adopter explicitly.
  if (!members.full()) {
    for (int node = 0; node < n; ++node) {
      if (members.is_alive(node)) continue;
      for (int l = 0; l < g; ++l) {
        fabric.broadcast(act, members.site(node),
                         meta_key(ns, version, node * g + l));
        fabric.broadcast(act, members.site(node),
                         keys_key(ns, version, node * g + l));
      }
    }
  }
  rep.breakdown["step2_metadata_broadcast"] = since(t0);

  // Uniform packets-per-worker so reduction groups align (§III-C).
  const int home = home_node(fabric, act);
  const PacketCounts counts =
      packet_counts(fabric.store(home), ns, version, W, cfg.k, P);
  const std::size_t B = counts.B;

  // ---- Incremental path (cfg.delta): patch the last version in place -----
  // When every site still holds a valid base cache of one common committed
  // version and the global dirty ratio is small enough, the stripe is not
  // re-encoded: each node moves its own chunk row of the base version under
  // the new version locally, only the dirty regions' XOR-deltas travel
  // (one payload per worker to the data node and to each of the m parity
  // nodes; DESIGN.md §7), the data row is XOR-patched
  // and each parity row folded with P' = P ⊕ G·Δ — bit-identical to the
  // full four-step protocol by code linearity. Any prerequisite failure on
  // any rank (first save, rolled-back base, shape change, pruned base,
  // degraded membership) falls through to the full path below, which only
  // then packs the shards.
  bool delta_used = false;
  const bool delta_wanted = cfg.delta.enabled && members.full();
  std::map<int, Buffer> carried_sums;  // node → its row's patched CRC sums
  // Sited worker → its dirty extents and its Δ payload (new ⊕ base of each
  // extent, concatenated in manifest order), kept by the source until the
  // base cache is patched after the commit barrier.
  std::map<int, std::vector<DirtyExtent>> local_extents;
  std::map<int, Buffer> staged;
  if (delta_wanted) {
    // The eligibility step is the delta path's snapshot: each live packet
    // is packed into one reused scratch packet, diffed against the base
    // cache, and each dirty extent's Δ appended while the scratch is still
    // cache-hot. No pack of the shard is kept, and after this pass the
    // delta path reads no live tensor byte.
    Buffer scratch(P, Buffer::Init::kUninitialized);
    std::vector<std::byte> delta_bytes;  // the current worker's Δ
    auto delta_state = [&](int node) {
      NodeFlag f;  // flag = usable common base version, 0 = no delta here
      cluster::Store& store = fabric.store(node);
      if (!store.contains(base_mark_key(ns))) return f;
      const Buffer& mark = store.get(base_mark_key(ns));
      if (mark.size() != 32) return f;
      const auto mv = static_cast<std::int64_t>(get_u64_le(mark.data()));
      if (mv <= 0 || mv >= version) return f;
      if (get_u64_le(mark.data() + 8) != B ||
          get_u64_le(mark.data() + 16) != P ||
          get_u64_le(mark.data() + 24) != static_cast<std::uint64_t>(g))
        return f;
      // The base rows being patched must still be committed on this node —
      // a torn delta save rolls its version keys back, which breaks exactly
      // this check and forces the safe full re-encode.
      const int row = plan.generator_row_of_node(node);
      if (!store.contains(commit_key(ns, mv)) ||
          !store.contains(row_key(ns, mv, row, 0, 0)))
        return f;
      obs::ScopedSpan diff_span("engine.save.diff");
      std::uint64_t dirty = 0;
      for (int l = 0; l < g; ++l) {
        const int w = node * g + l;
        // Tensor shapes must be stable or the packet layout shifted.
        if (!store.contains(base_keys_key(ns, w))) return f;
        const Buffer& cached = store.get(base_keys_key(ns, w));
        const Buffer& fresh = store.get(keys_key(ns, version, w));
        if (cached.size() != fresh.size() ||
            std::memcmp(cached.data(), fresh.data(), fresh.size()) != 0)
          return f;
        // Identical tensor keys mean identical live counts: the dead
        // padding slots are zero in both versions and cannot be dirty.
        const std::vector<ByteSpan>& tensors = decs.at(w).tensor_data;
        std::vector<DirtyExtent> wext;
        delta_bytes.clear();
        const auto live =
            static_cast<int>(counts.live[static_cast<std::size_t>(w)]);
        for (int b = 0; b < live; ++b) {
          if (!store.contains(base_local_key(ns, w, b))) return f;
          const Buffer& base = store.get(base_local_key(ns, w, b));
          if (base.size() != P) return f;
          pack_packet(tensors, static_cast<std::size_t>(b), scratch.span());
          for (const DirtyExtent& e :
               diff_packet(b, base.span(), scratch.span(), kDirtyBlock)) {
            const std::size_t at = delta_bytes.size();
            delta_bytes.insert(delta_bytes.end(), scratch.data() + e.offset,
                               scratch.data() + e.offset + e.length);
            xor_into(MutableByteSpan(delta_bytes.data() + at, e.length),
                     base.span().subspan(e.offset, e.length));
            wext.push_back(e);
          }
        }
        dirty += dirty_bytes(wext);
        local_extents[w] = std::move(wext);
        staged[w] = Buffer::copy_of(delta_bytes);
      }
      f.flag = static_cast<std::uint64_t>(mv);
      f.workers = dirty;
      return f;
    };
    std::map<int, NodeFlag> local_flags;
    for (int node : driven) local_flags[node] = delta_state(node);
    rep.stall_time = since(t0);
    rep.breakdown["step1_snapshot"] = rep.stall_time;

    const std::vector<NodeFlag> dflags = exchange_flags(
        fabric, tmp_prefix(ns, version) + "delta/flag/",
        [&](int node) { return local_flags.at(node); }, act);
    std::uint64_t base_version = dflags[0].flag;
    std::uint64_t total_dirty = 0;
    for (int node = 0; node < n; ++node) {
      if (dflags[static_cast<std::size_t>(node)].flag != base_version)
        base_version = 0;  // disagreeing or missing base on some rank
      total_dirty += dflags[static_cast<std::size_t>(node)].workers;
    }
    // Dirty share of the live bytes: a full save never ships dead slots.
    std::uint64_t live_bytes = 0;
    for (const std::size_t live : counts.live) live_bytes += live * P;
    const double dirty_ratio =
        live_bytes == 0 ? 0.0
                        : static_cast<double>(total_dirty) /
                              static_cast<double>(live_bytes);
    if (base_version != 0 && dirty_ratio <= kMaxDirtyRatio) {
      obs::ScopedSpan dspan("engine.save.delta", total_dirty);
      const auto bv = static_cast<std::int64_t>(base_version);
      fabric.stats().add("delta.save.count");
      fabric.stats().add("delta.dirty.bytes", total_dirty);

      // Every rank must walk the identical extent list: publish each sited
      // worker's manifest and all-gather them like the step-2 metadata.
      for (int node : act) {
        if (!fabric.drives(node)) continue;
        for (int l = 0; l < g; ++l) {
          const int w = node * g + l;
          fabric.store(node).put(delta_manifest_key(ns, version, w),
                                 serialize_extents(local_extents[w]));
        }
      }
      for (int l = 0; l < g; ++l) {
        fabric.all_gather(act, [&](int node) {
          return delta_manifest_key(ns, version, node * g + l);
        });
      }
      std::vector<std::vector<DirtyExtent>> all_extents(
          static_cast<std::size_t>(W));
      for (int w = 0; w < W; ++w)
        all_extents[static_cast<std::size_t>(w)] = deserialize_extents(
            fabric.store(home).get(delta_manifest_key(ns, version, w)).span());

      // Move the base version's rows under the new version — a local
      // re-keying on every node that copies no byte; only deltas cross the
      // wire. The base version keeps a moved marker, written before the
      // first move so a rollback finds every moved packet, and gains an
      // undo overlay of the bytes the patches below change (DESIGN.md §7).
      for (int node : driven) {
        const int row = plan.generator_row_of_node(node);
        cluster::Store& store = fabric.store(node);
        Buffer moved(16, Buffer::Init::kZeroed);
        put_u64_le(moved.data(), static_cast<std::uint64_t>(version));
        put_u64_le(moved.data() + 8, static_cast<std::uint64_t>(row));
        store.put(moved_key(ns, bv), std::move(moved));
        for (int j = 0; j < per_chunk; ++j)
          for (int b = 0; b < static_cast<int>(B); ++b)
            store.rename(row_key(ns, bv, row, j, b),
                         row_key(ns, version, row, j, b));
        // The CRC sums are carried too (DESIGN.md §7): the patches below
        // fold their changes into the base version's sums, so the commit
        // never rereads the row. Without usable base sums the node
        // recomputes them in full at commit.
        if (cfg.verify_integrity && store.contains(sums_key(ns, bv)) &&
            store.get(sums_key(ns, bv)).size() ==
                static_cast<std::size_t>(per_chunk) * B * 8)
          carried_sums.emplace(node, store.get(sums_key(ns, bv)).clone());
      }

      // One worker at a time: its source puts the staged Δ under the patch
      // key, ships it and takes it back once every destination has folded
      // it in, and the destinations drop their copies before the next
      // worker's. Each source keeps its own workers' Δ until the base cache
      // is patched after the commit barrier.
      std::uint64_t extent_count = 0;
      for (int w = 0; w < W; ++w) {
        const std::vector<DirtyExtent>& wext =
            all_extents[static_cast<std::size_t>(w)];
        if (wext.empty()) continue;
        extent_count += wext.size();
        const int c = plan.chunk_of_worker(w);
        const int j = w - c * per_chunk;
        const int src = w / g;  // full membership: the worker's own node
        const std::string dk = delta_patch_key(ns, version, w);
        const std::uint64_t wbytes = dirty_bytes(wext);

        if (fabric.drives(src))
          fabric.store(src).put(dk, std::move(staged.at(w)));

        // One frame per destination: the data node plus each parity node
        // (k+m distinct nodes, so no destination repeats).
        std::vector<int> dests;
        dests.push_back(plan.data_nodes[static_cast<std::size_t>(c)]);
        for (int r = 0; r < cfg.m; ++r)
          dests.push_back(plan.parity_nodes[static_cast<std::size_t>(r)]);
        for (int dst : dests)
          if (dst != src) fabric.send_buffers(src, dst, {{dk, dk}});

        // Patch in place, slicing the payload by the all-gathered manifest:
        // XOR on the data row, G·Δ fold on each parity row. The length
        // check comes first, so a short payload never reads out of bounds.
        // Each extent's footprint is every byte its patch may touch: the
        // extent on the data row, the codec's footprint of it on a parity
        // row (in bitmatrix mode that reaches into every strip). The
        // footprints' pre-images join the base version's undo overlay
        // before any byte changes. A carried sum takes each extent's
        // raw-CRC change over its footprint while the bytes are cache-hot,
        // shifted past the rest of the packet.
        const auto raw_crc = gf::simd::active().crc64;
        // The raw CRC register over the ranges, the gaps read as zeros.
        auto ranges_crc = [&](const Buffer& pkt, const Ranges& ranges) {
          std::uint64_t reg = 0;
          std::size_t end = ranges.front().first;
          for (const auto& [at, len] : ranges) {
            reg = raw_crc(crc64_shift(reg, at - end), pkt.data() + at, len);
            end = at + len;
          }
          return reg;
        };
        std::vector<Ranges> footprints;  // per extent of the current run
        auto patch = [&](int dst, int row, auto&& apply) {
          if (!fabric.drives(dst)) return;
          obs::ScopedSpan pspan("engine.save.delta.patch", wbytes);
          cluster::Store& store = fabric.store(dst);
          const Buffer& delta = store.get(dk);
          ECC_CHECK_MSG(delta.size() == wbytes,
                        "delta payload of worker " << w << " has "
                                                   << delta.size()
                                                   << " bytes, manifest says "
                                                   << wbytes);
          const auto sums = carried_sums.find(dst);
          const bool carry = sums != carried_sums.end();
          for_each_packet_run(wext, P, [&](int b, auto run, std::uint64_t at) {
            const std::string rk = row_key(ns, version, row, j, b);
            Buffer pkt = store.take(rk);
            std::uint64_t change = 0;
            try {
              ECC_CHECK(pkt.size() == P);
              footprints.clear();
              std::size_t undo_bytes = 0;
              for (const DirtyExtent& e : run) {
                footprints.push_back(
                    e.length == 0 ? Ranges{}
                    : row < cfg.k
                        ? Ranges{{e.offset, e.length}}
                        : codec.update_footprint(e.offset, e.length, P));
                for (const auto& range : footprints.back())
                  undo_bytes += kUndoHeader + range.second;
              }
              const std::string uk = undo_key(ns, bv, j, b);
              const std::size_t held =
                  store.contains(uk) ? store.get(uk).size() : 0;
              Buffer undo(held + undo_bytes, Buffer::Init::kUninitialized);
              if (held > 0)
                std::memcpy(undo.data(), store.get(uk).data(), held);
              std::byte* out = undo.data() + held;
              for (const Ranges& ranges : footprints)
                out = capture_undo(pkt, ranges, out);
              store.put(uk, std::move(undo));

              for (std::size_t x = 0; x < run.size(); ++x) {
                const DirtyExtent& e = run[x];
                const Ranges& ranges = footprints[x];
                const ByteSpan d = delta.span().subspan(at, e.length);
                at += e.length;
                if (ranges.empty()) continue;
                if (!carry) {
                  apply(e, d, pkt.span());
                  continue;
                }
                const std::uint64_t before = ranges_crc(pkt, ranges);
                apply(e, d, pkt.span());
                change ^= crc64_shift(before ^ ranges_crc(pkt, ranges),
                                      P - ranges.back().first -
                                          ranges.back().second);
              }
            } catch (...) {
              // Back into the row: the overlay undoes any partial patch.
              store.put(rk, std::move(pkt));
              throw;
            }
            store.put(rk, std::move(pkt));
            if (carry)
              xor_into(sums->second.subspan(
                           (static_cast<std::size_t>(j) * B +
                            static_cast<std::size_t>(b)) * 8,
                           8),
                       as_bytes_of(change));
          });
        };
        patch(dests[0], c, [](const DirtyExtent& e, ByteSpan d,
                              MutableByteSpan pkt) {
          xor_into(pkt.subspan(e.offset, e.length), d);
        });
        for (int r = 0; r < cfg.m; ++r)
          patch(dests[static_cast<std::size_t>(1 + r)], cfg.k + r,
                [&](const DirtyExtent& e, ByteSpan d, MutableByteSpan pkt) {
                  codec.update_row(cfg.k + r, c, e.offset, d, pkt);
                });

        // Drop the copies where the Δ landed; the source takes its own back.
        for (int node : dests)
          if (node != src && fabric.drives(node)) fabric.store(node).erase(dk);
        if (fabric.drives(src)) staged.at(w) = fabric.store(src).take(dk);
      }
      fabric.stats().add("delta.extents.count", extent_count);
      for (int node : act) {
        if (!fabric.drives(node)) continue;
        for (int w = 0; w < W; ++w)
          fabric.store(node).erase(delta_manifest_key(ns, version, w));
      }
      rep.breakdown["delta_dirty_ratio"] = dirty_ratio;
      rep.breakdown["step3_delta_patch"] = since(t0);
      delta_used = true;
    }
  }
  // The full path's row sums, for each driven, alive node (DESIGN.md §7):
  // every slot starts as a zero slot, and each live packet's sum is taken
  // where the packet is produced, so the commit never rereads the row.
  RowSums taken_sums;
  auto taken_sum = [&](int node, int j, std::size_t b) -> std::uint64_t* {
    const auto it = taken_sums.find(node);
    return it == taken_sums.end()
               ? nullptr
               : &it->second[static_cast<std::size_t>(j) * B + b];
  };
  if (!delta_used) {
    if (cfg.delta.enabled) fabric.stats().add("delta.fallback.count");
    local_extents.clear();  // a fallback's staged Δ goes unused
    staged.clear();
    if (cfg.verify_integrity)
      for (int node : driven)
        if (members.is_alive(node))
          taken_sums[node].assign(static_cast<std::size_t>(per_chunk) * B,
                                  zero_sum(P));
    // Pack each sited worker's tensor bytes into B fixed-size packets (the
    // padding behind its live packets is zero): the full path's snapshot,
    // whose end is the stall. A worker sited on its data node is home, and
    // its live packets' sums are taken while each packet is cache-hot.
    {
      obs::ScopedSpan pspan("engine.save.pack", decs.size() * B * P);
      for (const auto& [w, dec] : decs) {
        const int site = members.site(w / g);
        const int c = plan.chunk_of_worker(w);
        const bool home = site == plan.data_nodes[static_cast<std::size_t>(c)];
        const std::size_t live = counts.live[static_cast<std::size_t>(w)];
        for (std::size_t b = 0; b < B; ++b) {
          Buffer pkt(P, b < live ? Buffer::Init::kUninitialized
                                 : Buffer::Init::kZeroed);
          if (b < live) {
            pack_packet(dec.tensor_data, b, pkt.span());
            if (std::uint64_t* sum =
                    home ? taken_sum(site, w - c * per_chunk, b) : nullptr)
              *sum = crc64(pkt.span());
          }
          fabric.store(site).put(local_key(ns, version, w, static_cast<int>(b)),
                                 std::move(pkt));
        }
      }
    }
    rep.stall_time = since(t0);
    rep.breakdown["step1_snapshot"] = rep.stall_time;
  }

  // ---- Step 3: data packets to their data nodes, parity to parity nodes --
  // A row homed on a dead rank is skipped entirely: the degraded stripe
  // keeps the n_alive ≥ k rows hosted by survivors (reduced redundancy —
  // any k of them still decode), rather than blocking the save.
  if (!delta_used) {
    using KeyPairs = std::vector<std::pair<std::string, std::string>>;

    // 3a: every live data packet not yet on its data node, one batch per
    // (src, dst) edge; the data node zero-fills the dead rest of the row.
    // Packets already home move into their rows after 3b, which still
    // encodes from them. The data node takes each arrived packet's sum as
    // its edge returns.
    struct Relocation {
      KeyPairs keys;
      std::vector<std::pair<int, std::size_t>> slots;  // per key: (j, b)
    };
    std::map<std::pair<int, int>, Relocation> relocate;
    for (int c = 0; c < cfg.k; ++c) {
      const int dst = plan.data_nodes[static_cast<std::size_t>(c)];
      if (!members.is_alive(dst)) continue;
      for (int j = 0; j < per_chunk; ++j) {
        const int wsrc = c * per_chunk + j;
        const int src = members.site(wsrc / g);
        if (src == dst) continue;
        const std::size_t live = counts.live[static_cast<std::size_t>(wsrc)];
        if (live > 0) {
          Relocation& batch = relocate[{src, dst}];
          for (int b = 0; b < static_cast<int>(live); ++b) {
            batch.keys.emplace_back(local_key(ns, version, wsrc, b),
                                    row_key(ns, version, c, j, b));
            batch.slots.emplace_back(j, b);
          }
        }
        if (fabric.drives(dst))
          for (int b = static_cast<int>(live); b < static_cast<int>(B); ++b)
            fabric.store(dst).put(row_key(ns, version, c, j, b),
                                  Buffer(P, Buffer::Init::kZeroed));
      }
    }
    for (const auto& [edge, batch] : relocate) {
      const auto [src, dst] = edge;
      fabric.send_buffers(src, dst, batch.keys);
      for (std::size_t i = 0; i < batch.keys.size(); ++i)
        if (std::uint64_t* sum =
                taken_sum(dst, batch.slots[i].first, batch.slots[i].second))
          *sum = crc64(fabric.store(dst).get(batch.keys[i].second).span());
    }

    // 3b: parity, one packet slot b at a time. Every participant site
    // computes its GF partial and ships it straight to the parity node,
    // which takes the first partial as the row and XOR-folds the rest in.
    // GF addition is XOR, so the row is bit-identical to CrsCodec::encode
    // of the stripe, and each reduction moves one packet per remote
    // participant site — actual_comm_volume less the dead slots, exactly
    // actual_comm_volume for equal shards. Participants sited together
    // (adoption can fold several dead participants onto one survivor)
    // pre-accumulate locally. A reduction whose parity node is dead has
    // nowhere to land and is skipped. A site whose participants are all
    // padding at slot b has a zero partial there: it neither computes nor
    // ships it, and a parity slot with no live partial is stored as zeros.
    struct Reduction {
      const ReductionOp* op;
      std::vector<int> sites;                 // first-appearance order
      std::vector<std::vector<int>> chunks;   // per site: its chunks c
      std::vector<std::string> keys;          // per site: staging key
      std::vector<std::size_t> live;          // per site: live slots [0, n)
    };
    // Staging keys name (j, r, site) but not b, so each slot's partials
    // overwrite the previous slot's buffers instead of allocating afresh.
    std::vector<Reduction> reductions;
    std::vector<std::size_t> bounds = {0, B};  // where the live set changes
    for (const ReductionOp& op : plan.reductions) {
      if (!members.is_alive(op.dest_node)) continue;
      Reduction red{&op, {}, {}, {}, {}};
      for (int c = 0; c < cfg.k; ++c) {
        const int pw = op.participants[static_cast<std::size_t>(c)];
        const int ps = members.site(pw / g);
        auto it = std::find(red.sites.begin(), red.sites.end(), ps);
        if (it == red.sites.end()) {
          red.sites.push_back(ps);
          red.chunks.emplace_back();
          red.keys.push_back(tmp_prefix(ns, version) + "partial/" +
                             std::to_string(op.group) + "/" +
                             std::to_string(op.parity_row) + "/" +
                             std::to_string(ps));
          red.live.push_back(0);
          it = red.sites.end() - 1;
        }
        const auto s = static_cast<std::size_t>(it - red.sites.begin());
        red.chunks[s].push_back(c);
        red.live[s] =
            std::max(red.live[s], counts.live[static_cast<std::size_t>(pw)]);
      }
      bounds.insert(bounds.end(), red.live.begin(), red.live.end());
      reductions.push_back(std::move(red));
    }
    std::sort(bounds.begin(), bounds.end());
    bounds.erase(std::unique(bounds.begin(), bounds.end()), bounds.end());

    // The live partials, hence the ship batches, change only at `bounds`:
    // build the batches once per run of slots between two bounds.
    for (std::size_t run = 0; run + 1 < bounds.size(); ++run) {
      const std::size_t lo = bounds[run];
      std::map<std::pair<int, int>, KeyPairs> ship;
      for (const Reduction& red : reductions)
        for (std::size_t s = 0; s < red.sites.size(); ++s)
          if (red.live[s] > lo && red.sites[s] != red.op->dest_node)
            ship[{red.sites[s], red.op->dest_node}].emplace_back(red.keys[s],
                                                                 red.keys[s]);
      for (std::size_t b = lo; b < bounds[run + 1]; ++b) {
        for (const Reduction& red : reductions) {
          const ReductionOp& op = *red.op;
          for (std::size_t s = 0; s < red.sites.size(); ++s) {
            if (red.live[s] <= b || !fabric.drives(red.sites[s])) continue;
            cluster::Store& store = fabric.store(red.sites[s]);
            Buffer part = store.contains(red.keys[s])
                              ? store.take(red.keys[s])
                              : Buffer(P, Buffer::Init::kUninitialized);
            bool accumulate = false;
            for (int c : red.chunks[s]) {
              const int pw = op.participants[static_cast<std::size_t>(c)];
              if (counts.live[static_cast<std::size_t>(pw)] <= b) continue;
              codec.encode_partial(
                  cfg.k + op.parity_row, c,
                  store.get(local_key(ns, version, pw, static_cast<int>(b)))
                      .span(),
                  part.span(), accumulate);
              accumulate = true;
            }
            store.put(red.keys[s], std::move(part));
          }
        }
        for (const auto& [edge, batch] : ship)
          fabric.send_buffers(edge.first, edge.second, batch);
        for (const Reduction& red : reductions) {
          const ReductionOp& op = *red.op;
          if (!fabric.drives(op.dest_node)) continue;
          cluster::Store& store = fabric.store(op.dest_node);
          // Fold by liveness, not key presence: a dead site's staging key
          // may still hold an earlier slot's partial.
          Buffer row;
          bool folded = false;
          for (std::size_t s = 0; s < red.keys.size(); ++s) {
            if (red.live[s] <= b) continue;
            if (folded)
              xor_into(row.span(), store.get(red.keys[s]).span());
            else
              row = store.take(red.keys[s]);
            folded = true;
          }
          if (std::uint64_t* sum = folded ? taken_sum(op.dest_node, op.group, b)
                                          : nullptr)
            *sum = crc64(row.span());
          store.put(row_key(ns, version, cfg.k + op.parity_row, op.group,
                            static_cast<int>(b)),
                    folded ? std::move(row) : Buffer(P, Buffer::Init::kZeroed));
        }
      }
    }
    for (int node : act)
      if (fabric.drives(node))
        for (const std::string& key : fabric.store(node).keys_with_prefix(
                 tmp_prefix(ns, version) + "partial/"))
          fabric.store(node).erase(key);

    // 3a's home packets: moved into their rows, or copied when the base
    // cache below still needs them.
    for (int c = 0; c < cfg.k; ++c) {
      const int dst = plan.data_nodes[static_cast<std::size_t>(c)];
      if (!members.is_alive(dst) || !fabric.drives(dst)) continue;
      cluster::Store& store = fabric.store(dst);
      for (int j = 0; j < per_chunk; ++j) {
        const int wsrc = c * per_chunk + j;
        if (members.site(wsrc / g) != dst) continue;
        for (int b = 0; b < static_cast<int>(B); ++b) {
          const std::string lk = local_key(ns, version, wsrc, b);
          store.put(row_key(ns, version, c, j, b),
                    delta_wanted ? store.get(lk).clone() : store.take(lk));
        }
      }
    }
    // Step 3 ends here on both paths, before the base-cache update, CRC
    // sums and commit markers below.
    rep.breakdown["step3_encode_pipeline"] = since(t0);
  }  // if (!delta_used)

  // Publish checksums and the commit marker. Without incremental saves the
  // staging copies are dropped first; with them a full save retires them
  // into the base cache, and a delta save patches the cache with its Δ,
  // once the commit barrier has passed (below).
  if (!delta_wanted) {
    for (const auto& [w, dec] : decs) {
      (void)dec;
      const int site = members.site(w / g);
      for (int b = 0; b < static_cast<int>(B); ++b)
        fabric.store(site).erase(local_key(ns, version, w, b));
    }
  }
  for (int node : driven) {
    if (!members.is_alive(node)) continue;
    if (cfg.verify_integrity) {
      const auto carried = carried_sums.find(node);
      Buffer sums;
      if (!delta_used) {
        sums = sums_blob(taken_sums.at(node));
      } else if (carried != carried_sums.end()) {
        sums = std::move(carried->second);
      } else {
        fabric.stats().add("delta.sums.fallback.count");
        sums = row_sums(fabric, node, ns, version,
                        plan.generator_row_of_node(node), per_chunk, B);
      }
      fabric.store(node).put(sums_key(ns, version), std::move(sums));
    }
    fabric.store(node).put(commit_key(ns, version),
                           Buffer::copy_of(as_bytes_of(version)));
  }

  // ---- Step 4: low-frequency remote flush --------------------------------
  if (cfg.flush_to_remote) {
    for (int row = 0; row < cfg.k + cfg.m; ++row) {
      const int node =
          row < cfg.k
              ? plan.data_nodes[static_cast<std::size_t>(row)]
              : plan.parity_nodes[static_cast<std::size_t>(row - cfg.k)];
      if (!members.is_alive(node)) continue;  // row was not produced
      for (int j = 0; j < per_chunk; ++j)
        for (int b = 0; b < static_cast<int>(B); ++b) {
          const std::string rk = row_key(ns, version, row, j, b);
          fabric.remote_write(node, rk, rk);
        }
    }
    for (int w = 0; w < W; ++w) {
      const int site = members.site(w / g);
      fabric.remote_write(site, meta_key(ns, version, w),
                          meta_key(ns, version, w));
      fabric.remote_write(site, keys_key(ns, version, w),
                          keys_key(ns, version, w));
    }
    // Every chunk must be durable before the commit marker appears: a crash
    // between barrier and commit leaves an uncommitted (invisible) flush,
    // never a committed torn one.
    fabric.barrier(act);
    fabric.remote_write(members.site(0), commit_key(ns, version),
                        commit_key(ns, version));
    rep.breakdown["step4_remote_flush"] = since(t0);
  }

  fabric.barrier(act);
  // The base cache follows the commit, so it is never ahead of a committed
  // version: a save torn anywhere before this point leaves it as it was.
  if (delta_wanted) {
    for (int node : handled) {
      cluster::Store& store = fabric.store(node);
      // Crash-safe order: erase the marker first, re-put it only after
      // every cached byte belongs to the new version. A store observed
      // between the two reads as "no base" and re-encodes in full.
      store.erase(base_mark_key(ns));
      for (int l = 0; l < g; ++l) {
        const int w = node * g + l;
        if (delta_used) {
          // The eligibility diff proved the cache and the tensor keys equal
          // to the new version outside the dirty extents: patch it in place,
          // base ⊕ Δ = new.
          const Buffer& delta = staged.at(w);
          for_each_packet_run(
              local_extents.at(w), P, [&](int b, auto run, std::uint64_t at) {
                const std::string bk = base_local_key(ns, w, b);
                Buffer pkt = store.take(bk);
                for (const DirtyExtent& e : run) {
                  xor_into(pkt.subspan(e.offset, e.length),
                           delta.subspan(at, e.length));
                  at += e.length;
                }
                store.put(bk, std::move(pkt));
              });
          continue;
        }
        for (int b = 0; b < static_cast<int>(B); ++b)
          store.put(base_local_key(ns, w, b),
                    store.take(local_key(ns, version, w, b)));
        store.put(base_keys_key(ns, w),
                  store.get(keys_key(ns, version, w)).clone());
      }
      Buffer mark(32, Buffer::Init::kZeroed);
      put_u64_le(mark.data(), static_cast<std::uint64_t>(version));
      put_u64_le(mark.data() + 8, B);
      put_u64_le(mark.data() + 16, P);
      put_u64_le(mark.data() + 24, static_cast<std::uint64_t>(g));
      store.put(base_mark_key(ns), std::move(mark));
    }
  }
  rep.total_time = since(t0);
  rep.stats = obs::StatsRegistry::delta(fabric.stats().counters(), stats_base);
  fill_traffic(rep.stats, &rep.network_bytes, &rep.remote_bytes);
  return rep;
}

// ---------------------------------------------------------------------------
// load
// ---------------------------------------------------------------------------

ckpt::LoadReport fabric_load(cluster::Fabric& fabric, const ECCheckConfig& cfg,
                             std::int64_t version,
                             std::vector<dnn::StateDict>& out,
                             const Membership& members) {
  const auto t0 = Clock::now();
  const int n = fabric.world_size();
  ECC_CHECK_MSG(cfg.k + cfg.m == n, "k+m must equal the fabric world size");
  members.check(n);
  const std::vector<int> driven = driven_nodes(fabric);
  const std::string& ns = cfg.key_namespace;
  const std::vector<int> act = active_nodes(n, members);

  ckpt::LoadReport rep;
  const auto stats_base = fabric.stats().counters();
  obs::ScopedSpan span("engine.load[" + fabric.fabric_name() + "]");
  auto finalize = [&]() {
    rep.total_time = since(t0);
    rep.stats =
        obs::StatsRegistry::delta(fabric.stats().counters(), stats_base);
  };

  // The placement (and with it each node's chunk row) depends on the worker
  // count W, which a freshly replaced rank does not know — so roles are
  // derived lazily: first from each node's own stored metadata extent, then
  // from the fabric-wide agreed W.
  auto role_plan = [&](int gpus) {
    PlacementConfig pc;
    pc.num_nodes = n;
    pc.gpus_per_node = gpus;
    pc.k = cfg.k;
    pc.m = cfg.m;
    return plan_placement(pc);
  };
  const ec::CrsCodec codec(cfg.k, cfg.m, cfg.gf_width, cfg.kernel);
  const std::size_t P = cfg.packet_size;

  // A version whose row a later delta save moved on gets it back first.
  for (int node : driven)
    if (members.is_alive(node))
      materialize_version(fabric.store(node), ns, version);

  // ---- round 1: every rank reports chunk intactness + metadata extent ----
  // flag 0 = nothing usable, 1 = chunk row intact (commit + packets + CRC
  // scrub), each paired with the number of workers whose metadata and
  // tensor-keys blobs are both held (the step-2 broadcast makes that W on
  // any honest survivor). A refresh torn between a worker's two blobs must
  // not let a node pass for a full metadata holder.
  auto local_state = [&](int node) {
    NodeFlag f;
    cluster::Store& store = fabric.store(node);
    const std::string meta_prefix = version_prefix(ns, version) + "meta/";
    for (const std::string& key : store.keys_with_prefix(meta_prefix))
      if (store.contains(version_prefix(ns, version) + "keys/" +
                         key.substr(meta_prefix.size())))
        ++f.workers;
    // A node whose metadata extent is not a valid world shape cannot even
    // name its own chunk row — treat it as lost.
    if (f.workers == 0 ||
        f.workers % static_cast<std::uint64_t>(n) != 0 ||
        f.workers % static_cast<std::uint64_t>(cfg.k) != 0) {
      f.flag = 0;
      return f;
    }
    const int row = role_plan(static_cast<int>(f.workers) / n)
                        .generator_row_of_node(node);
    bool intact = store.contains(commit_key(ns, version)) &&
                  store.contains(row_key(ns, version, row, 0, 0));
    if (intact && cfg.verify_integrity) {
      intact = store.contains(sums_key(ns, version));
      if (intact) {
        const int pch = static_cast<int>(f.workers) / cfg.k;
        const Buffer& sums = store.get(sums_key(ns, version));
        const std::size_t B_row =
            sums.size() / 8 / static_cast<std::size_t>(pch);
        // The sums must cover the whole row: a blob cut short would leave
        // its last packets unscrubbed.
        intact = B_row > 0 &&
                 sums.size() == B_row * 8 * static_cast<std::size_t>(pch) &&
                 !store.contains(
                     row_key(ns, version, row, 0, static_cast<int>(B_row)));
        for (int j = 0; intact && j < pch; ++j) {
          for (std::size_t b = 0; intact && b < B_row; ++b) {
            const std::string rk =
                row_key(ns, version, row, j, static_cast<int>(b));
            if (!store.contains(rk)) {
              intact = false;
              break;
            }
            std::uint64_t want;
            std::memcpy(&want,
                        sums.data() +
                            (static_cast<std::size_t>(j) * B_row + b) * 8,
                        8);
            intact = crc64(store.get(rk).span()) == want;
          }
        }
      }
    }
    f.flag = intact ? 1 : 0;
    return f;
  };
  std::vector<NodeFlag> flags = exchange_flags(
      fabric, tmp_prefix(ns, version) + "load/flag1/", local_state, act);
  // Round 1's metadata extents, before a remote rescue overwrites them.
  std::vector<std::uint64_t> held;
  for (const NodeFlag& f : flags) held.push_back(f.workers);

  std::uint64_t W64 = 0;
  for (const NodeFlag& f : flags) W64 = std::max(W64, f.workers);
  int survivors = 0;
  for (const NodeFlag& f : flags) survivors += f.flag >= 1 ? 1 : 0;

  // ---- catastrophic path: fewer than k chunks left -----------------------
  int remote_rescued_rows = 0;
  if (survivors < cfg.k && !members.full()) {
    // Degraded membership: the dead ranks cannot be asked to rescue
    // anything, and the remote-rescue round below assumes full
    // participation — fail precisely instead.
    rep.success = false;
    rep.detail = "only " + std::to_string(survivors) + " chunks survive on " +
                 std::to_string(members.alive_count(n)) +
                 " alive ranks, need k=" + std::to_string(cfg.k);
    finalize();
    return rep;
  }
  if (survivors < cfg.k) {
    const int self = driven.front();
    const bool remote_ok =
        fabric.remote_contains(self, commit_key(ns, version)) &&
        fabric.remote_contains(self, row_key(ns, version, 0, 0, 0));
    if (!remote_ok) {
      rep.success = false;
      rep.detail = "only " + std::to_string(survivors) +
                   " chunks survive, need k=" + std::to_string(cfg.k) +
                   " and no remote copy exists";
      finalize();
      return rep;
    }
    if (W64 == 0) {
      // Even the metadata is gone from every host — count workers from the
      // remote flush (each rank sees the same shared store).
      W64 = fabric
                .remote_list(self, ns + "ec/" + std::to_string(version) +
                                       "/meta/")
                .size();
      if (W64 == 0 || W64 % static_cast<std::uint64_t>(n) != 0 ||
          W64 % static_cast<std::uint64_t>(cfg.k) != 0) {
        rep.success = false;
        rep.detail = "no usable metadata for version " +
                     std::to_string(version) + " on hosts or remote";
        finalize();
        return rep;
      }
    }
    const int pch = static_cast<int>(W64) / cfg.k;
    const Placement rplan = role_plan(static_cast<int>(W64) / n);
    std::size_t B_remote = 0;
    while (fabric.remote_contains(
        self, row_key(ns, version, 0, 0, static_cast<int>(B_remote))))
      ++B_remote;
    for (int node = 0; node < n; ++node) {
      if (!fabric.drives(node)) continue;
      if (flags[static_cast<std::size_t>(node)].flag >= 1) continue;
      const int row = rplan.generator_row_of_node(node);
      for (int j = 0; j < pch; ++j)
        for (int b = 0; b < static_cast<int>(B_remote); ++b) {
          const std::string rk = row_key(ns, version, row, j, b);
          fabric.remote_read(node, rk, rk);
        }
      // The step-2 invariant (every node holds every worker's metadata)
      // comes back from the remote flush too.
      for (int w = 0; w < static_cast<int>(W64); ++w)
        for (const std::string& key :
             {meta_key(ns, version, w), keys_key(ns, version, w)})
          if (!fabric.store(node).contains(key))
            fabric.remote_read(node, key, key);
    }
    flags = exchange_flags(fabric, tmp_prefix(ns, version) + "load/flag2/",
                           [&](int node) {
                             NodeFlag f = flags[static_cast<std::size_t>(node)];
                             if (f.flag == 0) f.flag = 2;
                             f.workers = W64;
                             return f;
                           },
                           act);
    // Count rescued rows from the agreed flags so every rank reports the
    // same detail, including survivors that rescued nothing themselves.
    for (const NodeFlag& f : flags) remote_rescued_rows += f.flag == 2;
    survivors = n;
  }

  ECC_CHECK_MSG(W64 > 0 && W64 % static_cast<std::uint64_t>(n) == 0 &&
                    W64 % static_cast<std::uint64_t>(cfg.k) == 0,
                "stored worker count " << W64
                                       << " inconsistent with fabric shape");
  const int W = static_cast<int>(W64);
  const int g = W / n;
  const Placement plan = role_plan(g);
  const int per_chunk = plan.workers_per_chunk();
  auto node_of_row = [&](int row) {
    return row < cfg.k
               ? plan.data_nodes[static_cast<std::size_t>(row)]
               : plan.parity_nodes[static_cast<std::size_t>(row - cfg.k)];
  };

  // ---- metadata refresh: every node ends up with every worker's blobs ----
  int meta_holder = -1;
  for (int node : act) {
    if (flags[static_cast<std::size_t>(node)].workers ==
        static_cast<std::uint64_t>(W)) {
      meta_holder = node;
      break;
    }
  }
  if (meta_holder < 0) {
    rep.success = false;
    rep.detail = "no surviving metadata copy for version " +
                 std::to_string(version) + " (pruned or never saved)";
    finalize();
    return rep;
  }
  for (int node = 0; node < n; ++node)
    rep.metadata_refreshed.push_back(
        held[static_cast<std::size_t>(node)] != static_cast<std::uint64_t>(W));
  for (int w = 0; w < W; ++w) {
    fabric.broadcast(act, meta_holder, meta_key(ns, version, w));
    fabric.broadcast(act, meta_holder, keys_key(ns, version, w));
  }

  // Uniform B and the dead slots, re-derived from the tensor-keys blobs
  // like the save.
  std::vector<std::vector<dnn::TensorMeta>> tkeys;
  const PacketCounts counts = packet_counts(
      fabric.store(home_node(fabric, act)), ns, version, W, cfg.k, P, &tkeys);
  const std::size_t B = counts.B;

  // ---- reconstruct lost rows from any k survivors ------------------------
  // A dead rank's row counts as missing even if its store still held it at
  // death: nobody can read it. Rows homed on dead ranks are reconstructed
  // *onto the adopter's store* for the duration of the load (workflow B),
  // then dropped again at the end.
  std::vector<int> survivor_rows, missing_rows;
  rep.rows.resize(static_cast<std::size_t>(n));
  for (int node = 0; node < n; ++node) {
    const int row = plan.generator_row_of_node(node);
    const std::uint64_t flag = flags[static_cast<std::size_t>(node)].flag;
    const bool ok = members.is_alive(node) && flag >= 1;
    (ok ? survivor_rows : missing_rows).push_back(row);
    rep.rows[static_cast<std::size_t>(row)] =
        !ok ? ckpt::RowOutcome::kMissing
            : flag == 2 ? ckpt::RowOutcome::kRefetched
                        : ckpt::RowOutcome::kIntact;
  }
  std::sort(survivor_rows.begin(), survivor_rows.end());
  std::sort(missing_rows.begin(), missing_rows.end());
  std::vector<int> missing_data, missing_parity;
  for (int r : missing_rows)
    (r < cfg.k ? missing_data : missing_parity).push_back(r);
  const bool data_lost = !missing_data.empty();

  // Distributed SPMD reconstruction: survivors stream their row packets to
  // each target site, which applies the reconstruction matrix rows in basis
  // order, so the reconstructed bytes are those the save stored.
  // A site hosting several targets (an adopter standing in for several dead
  // ranks) receives each basis packet once and decodes all its rows from
  // it. Dead slots are zero on both sides: a dead source packet is neither
  // sent nor multiplied, and a dead target slot is stored as zeros.
  // A row rebuilt for an alive node driven here gets its sums as each
  // packet is decoded (DESIGN.md §7).
  RowSums rebuilt_sums;
  auto reconstruct = [&](const std::vector<int>& basis,
                         const std::vector<int>& targets) {
    if (targets.empty()) return;
    const ec::GfMatrix T = codec.reconstruction_matrix(basis, targets);
    auto rec_key = [&](int s, int j, int b) {
      return tmp_prefix(ns, version) + "load/rec/" + std::to_string(s) + "/" +
             std::to_string(j) + "/" + std::to_string(b);
    };
    // Rows homed on a dead rank materialize on the adopter instead. So a
    // basis row is read on its node's site: re-encoding the lost parity
    // rows reads a dead node's data row, just rebuilt, on the adopter.
    auto source_site = [&](int s) {
      return members.site(node_of_row(basis[static_cast<std::size_t>(s)]));
    };
    std::map<int, std::vector<int>> on_site;  // target site → indices ti
    std::vector<std::vector<std::uint64_t>*> sums(targets.size(), nullptr);
    for (int ti = 0; ti < static_cast<int>(targets.size()); ++ti) {
      const int node = node_of_row(targets[static_cast<std::size_t>(ti)]);
      on_site[members.site(node)].push_back(ti);
      if (cfg.verify_integrity && members.is_alive(node) &&
          fabric.drives(node)) {
        sums[static_cast<std::size_t>(ti)] = &rebuilt_sums[node];
        sums[static_cast<std::size_t>(ti)]->assign(
            static_cast<std::size_t>(per_chunk) * B, zero_sum(P));
      }
    }
    for (int j = 0; j < per_chunk; ++j) {
      for (int b = 0; b < static_cast<int>(B); ++b) {
        auto live = [&](int row) {
          return static_cast<std::size_t>(b) < counts.row_live(row, j);
        };
        // A live basis packet away from the target site crosses to it.
        auto fetched = [&](int s, int tsite) {
          return source_site(s) != tsite &&
                 live(basis[static_cast<std::size_t>(s)]);
        };
        const bool any_source = std::any_of(basis.begin(), basis.end(), live);
        for (const auto& [tsite, tis] : on_site) {
          const bool any_target =
              std::any_of(tis.begin(), tis.end(), [&](int ti) {
                return live(targets[static_cast<std::size_t>(ti)]);
              });
          ECC_CHECK_MSG(!any_target || any_source,
                        "live slot " << b << " of stripe " << j
                                     << " has no live basis packet");
          if (any_target)
            for (int s = 0; s < cfg.k; ++s) {
              const int srow = basis[static_cast<std::size_t>(s)];
              if (fetched(s, tsite))
                fabric.send_buffer(source_site(s), tsite,
                                   row_key(ns, version, srow, j, b),
                                   rec_key(s, j, b));
            }
          if (!fabric.drives(tsite)) continue;
          cluster::Store& store = fabric.store(tsite);
          for (int ti : tis) {
            const int target_row = targets[static_cast<std::size_t>(ti)];
            // A dead target slot is zero: no source is multiplied into it.
            Buffer acc(P, live(target_row) ? Buffer::Init::kUninitialized
                                           : Buffer::Init::kZeroed);
            bool accumulate = false;
            for (int s = 0; live(target_row) && s < cfg.k; ++s) {
              const int srow = basis[static_cast<std::size_t>(s)];
              if (!live(srow)) continue;
              const Buffer& pkt =
                  fetched(s, tsite)
                      ? store.get(rec_key(s, j, b))
                      : store.get(row_key(ns, version, srow, j, b));
              codec.mul_packet(T.at(ti, s), pkt.span(), acc.span(), accumulate);
              accumulate = true;
            }
            if (std::vector<std::uint64_t>* rebuilt =
                    live(target_row) ? sums[static_cast<std::size_t>(ti)]
                                     : nullptr)
              (*rebuilt)[static_cast<std::size_t>(j) * B +
                          static_cast<std::size_t>(b)] = crc64(acc.span());
            store.put(row_key(ns, version, target_row, j, b), std::move(acc));
          }
          if (any_target)
            for (int s = 0; s < cfg.k; ++s)
              if (fetched(s, tsite)) store.erase(rec_key(s, j, b));
        }
      }
    }
  };

  std::vector<int> basis(survivor_rows.begin(),
                         survivor_rows.begin() + cfg.k);
  reconstruct(basis, missing_data);

  // ---- refill every worker's own packets and rebuild state_dicts ---------
  // Sited, not driven: during a degraded window the adopter also refills
  // the dead ranks' workers (their packets exist — data rows are complete
  // after reconstruction), so `load` keeps serving every worker's bytes.
  std::map<int, int> out_index;  // sited worker → index into `out`
  {
    int idx = 0;
    for (int w = 0; w < W; ++w)
      if (fabric.drives(members.site(w / g))) out_index[w] = idx++;
  }
  out.clear();
  out.resize(out_index.size());
  auto refill_key = [&](int w, int b) {
    return tmp_prefix(ns, version) + "load/refill/" + std::to_string(w) +
           "/" + std::to_string(b);
  };
  for (int w = 0; w < W; ++w) {
    const int wsite = members.site(w / g);
    const int c = plan.chunk_of_worker(w);
    const int src = plan.data_nodes[static_cast<std::size_t>(c)];
    const int ssite = members.site(src);
    const int j = w - c * per_chunk;
    // Only the worker's live packets: the padding behind them is not
    // unpacked.
    const int live = static_cast<int>(counts.live[static_cast<std::size_t>(w)]);
    if (ssite != wsite && live > 0) {
      // One (src, dst) batch per worker: a pipelining transport keeps all
      // its packet frames in flight and reconciles their acks once, instead
      // of paying a round trip per packet.
      std::vector<std::pair<std::string, std::string>> batch;
      batch.reserve(static_cast<std::size_t>(live));
      for (int b = 0; b < live; ++b)
        batch.emplace_back(row_key(ns, version, c, j, b), refill_key(w, b));
      fabric.send_buffers(ssite, wsite, batch);
    }
    if (!fabric.drives(wsite)) continue;
    cluster::Store& store = fabric.store(wsite);
    std::vector<ByteSpan> packet_views;
    for (int b = 0; b < live; ++b)
      packet_views.push_back(
          ssite == wsite ? store.get(row_key(ns, version, c, j, b)).span()
                         : store.get(refill_key(w, b)).span());
    dnn::StateDict skel = dnn::make_skeleton(
        dnn::deserialize_metadata(store.get(meta_key(ns, version, w)).span()),
        tkeys[static_cast<std::size_t>(w)]);
    unpack_packets(packet_views, skel);
    out[static_cast<std::size_t>(out_index.at(w))] = std::move(skel);
    if (ssite != wsite)
      for (int b = 0; b < live; ++b) store.erase(refill_key(w, b));
  }
  rep.resume_time = since(t0);

  // Restore redundancy: lost parity rows are re-encoded from the
  // now-complete set of data rows — but only onto alive hosts; a dead
  // rank's parity row has nowhere to live until the rank is replaced.
  {
    std::vector<int> data_basis;
    for (int c = 0; c < cfg.k; ++c) data_basis.push_back(c);
    std::vector<int> parity_targets;
    for (int row : missing_parity)
      if (members.is_alive(node_of_row(row))) parity_targets.push_back(row);
    reconstruct(data_basis, parity_targets);
  }

  // Every alive node whose row this load rebuilt or refetched now holds its
  // chunk and metadata: refresh its checksums and commit marker so future
  // recoveries see it as a survivor — also where a stale marker outlived
  // corrupt or missing sums. A rebuilt row's sums were taken as it was
  // decoded; only a refetched row is reread.
  for (int node : driven) {
    if (!members.is_alive(node)) continue;
    const std::uint64_t flag = flags[static_cast<std::size_t>(node)].flag;
    if (flag == 1) continue;  // intact: its sums and marker stand
    cluster::Store& store = fabric.store(node);
    if (cfg.verify_integrity)
      store.put(sums_key(ns, version),
                flag == 0 ? sums_blob(rebuilt_sums.at(node))
                          : row_sums(fabric, node, ns, version,
                                     plan.generator_row_of_node(node),
                                     per_chunk, B));
    store.put(commit_key(ns, version), Buffer::copy_of(as_bytes_of(version)));
  }

  // Drop the adopted rows again: while the rank is dead its row has no
  // committed host, and leaving a copy on the adopter would let a later
  // intactness scan double-count it.
  if (!members.full()) {
    for (int node = 0; node < n; ++node) {
      if (members.is_alive(node)) continue;
      const int site = members.site(node);
      if (!fabric.drives(site)) continue;
      const int row = plan.generator_row_of_node(node);
      for (int j = 0; j < per_chunk; ++j)
        for (int b = 0; b < static_cast<int>(B); ++b)
          fabric.store(site).erase(row_key(ns, version, row, j, b));
    }
  }

  fabric.barrier(act);
  rep.success = true;
  if (remote_rescued_rows > 0)
    rep.detail = "remote fallback (refetched " +
                 std::to_string(remote_rescued_rows) +
                 " rows from remote storage)";
  else if (data_lost)
    rep.detail = "workflow B (decoded " + std::to_string(missing_rows.size()) +
                 " rows)";
  else
    rep.detail = "workflow A (all data nodes survived)";
  if (!members.full())
    rep.detail += "; degraded (" +
                  std::to_string(n - members.alive_count(n)) + " dead)";
  finalize();
  return rep;
}

// ---------------------------------------------------------------------------
// prune / rollback / version discovery / recover
// ---------------------------------------------------------------------------

void fabric_prune(cluster::Fabric& fabric, const std::string& key_namespace,
                  std::int64_t oldest_to_keep, const Membership& members) {
  const std::vector<int> driven = driven_nodes(fabric);
  int first_alive = -1;
  for (int node : driven)
    if (members.is_alive(node)) {
      first_alive = node;
      break;
    }
  for (int node : driven) {
    if (!members.is_alive(node)) continue;
    cluster::Store* store = surviving_store(fabric, node);
    if (store == nullptr) continue;
    // Exactly one global rank prunes the shared remote store: the site of
    // rank 0 (rank 0 itself under full membership).
    const bool prunes_remote = node == first_alive && node == members.site(0);
    for (std::int64_t v = oldest_to_keep - 1; v >= 1; --v) {
      const std::string prefix = version_prefix(key_namespace, v);
      bool any = false;
      for (const auto& key : store->keys_with_prefix(prefix)) {
        store->erase(key);
        any = true;
      }
      if (prunes_remote) {
        for (const auto& key : fabric.remote_list(node, prefix)) {
          fabric.remote_erase(node, key);
          any = true;
        }
      }
      if (!any) break;  // older versions were already pruned
    }
  }
}

void fabric_rollback(cluster::Fabric& fabric, const std::string& key_namespace,
                     std::int64_t version, const Membership& members) {
  for (int node : driven_nodes(fabric)) {
    if (!members.is_alive(node)) continue;
    cluster::Store* store = surviving_store(fabric, node);
    if (store == nullptr) continue;
    // A delta save of `version` moved its base version's row: put it back.
    for (const std::string& key :
         store->keys_with_prefix(key_namespace + "ec/")) {
      const std::int64_t base =
          marker_version_of(key, key_namespace, "/moved");
      if (base == 0) continue;
      const Moved m = moved_of(*store, key_namespace, base);
      if (m.to == version) restore_moved(*store, key_namespace, base, m);
    }
    for (const auto& prefix : {version_prefix(key_namespace, version),
                               tmp_prefix(key_namespace, version)})
      for (const auto& key : store->keys_with_prefix(prefix))
        store->erase(key);
  }
}

std::int64_t fabric_newest_version(cluster::Fabric& fabric,
                                   const ECCheckConfig& cfg,
                                   const Membership& members) {
  const std::string& ns = cfg.key_namespace;
  members.check(fabric.world_size());
  std::vector<NodeFlag> flags = exchange_flags(
      fabric, ns + "tmp/vers/",
      [&](int node) {
        NodeFlag f;
        std::int64_t best = 0;
        for (const auto& key :
             fabric.store(node).keys_with_prefix(ns + "ec/"))
          best = std::max(best, marker_version_of(key, ns, "/commit"));
        for (const auto& key : fabric.remote_list(node, ns + "ec/"))
          best = std::max(best, marker_version_of(key, ns, "/commit"));
        f.flag = static_cast<std::uint64_t>(best);
        return f;
      },
      active_nodes(fabric.world_size(), members));
  std::uint64_t newest = 0;
  for (const NodeFlag& f : flags) newest = std::max(newest, f.flag);
  return static_cast<std::int64_t>(newest);
}

FabricRecoverResult fabric_recover(cluster::Fabric& fabric,
                                   const ECCheckConfig& cfg,
                                   int retain_versions,
                                   std::vector<dnn::StateDict>& out,
                                   const Membership& members) {
  FabricRecoverResult result;
  const std::int64_t newest = fabric_newest_version(fabric, cfg, members);
  if (newest < 1) {
    result.version = 0;
    result.report.detail = "no committed checkpoint version exists";
    return result;
  }
  const std::int64_t oldest =
      retain_versions > 0
          ? std::max<std::int64_t>(1, newest - retain_versions + 1)
          : 1;
  for (std::int64_t v = newest; v >= oldest; --v) {
    result.report = fabric_load(fabric, cfg, v, out, members);
    if (result.report.success) {
      result.version = v;
      return result;
    }
  }
  result.version = 0;
  result.report.detail = "no retained version (" + std::to_string(oldest) +
                         ".." + std::to_string(newest) +
                         ") is recoverable; last error: " +
                         result.report.detail;
  return result;
}

}  // namespace eccheck::core
