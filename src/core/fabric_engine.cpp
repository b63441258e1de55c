#include "core/fabric_engine.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <map>
#include <numeric>
#include <optional>
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

/// The ranks participating in collectives under `members`: the alive list,
/// or everyone under full membership.
std::vector<int> active_nodes(int n, const Membership& members) {
  if (!members.full()) return members.alive;
  std::vector<int> nodes(static_cast<std::size_t>(n));
  std::iota(nodes.begin(), nodes.end(), 0);
  return nodes;
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

/// The nodes of `act` that this process drives, ascending.
std::vector<int> alive_driven(cluster::Fabric& fabric,
                              const std::vector<int>& act) {
  std::vector<int> nodes;
  for (int node : act)
    if (fabric.drives(node)) nodes.push_back(node);
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

/// `fields` as consecutive u64 LE: the layout of every fixed-size record
/// here (a node flag, a moved marker, the base-cache marker).
Buffer u64_record(std::initializer_list<std::uint64_t> fields) {
  Buffer buf(fields.size() * 8, Buffer::Init::kUninitialized);
  std::byte* p = buf.data();
  for (const std::uint64_t v : fields) {
    put_u64_le(p, v);
    p += 8;
  }
  return buf;
}

/// Reads the u64_record under `key` into `fields`; false, with `fields`
/// untouched, when the store holds no record of that many fields there.
bool read_record(const cluster::Store& store, const std::string& key,
                 std::initializer_list<std::uint64_t*> fields) {
  if (!store.contains(key) || store.get(key).size() != fields.size() * 8)
    return false;
  const std::byte* p = store.get(key).data();
  for (std::uint64_t* field : fields) {
    *field = get_u64_le(p);
    p += 8;
  }
  return true;
}

/// Whether W workers fill a world of n nodes evenly and split into k data
/// chunks: the only worker counts a stored metadata extent may name.
bool valid_worker_count(std::uint64_t W, int n, int k) {
  return W > 0 && W % static_cast<std::uint64_t>(n) == 0 &&
         W % static_cast<std::uint64_t>(k) == 0;
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
    fabric.store(node).put(fkey(node), u64_record({f.flag, f.workers}));
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
    NodeFlag& f = flags[static_cast<std::size_t>(node)];
    ECC_CHECK_MSG(read_record(fabric.store(home), fkey(node),
                              {&f.flag, &f.workers}),
                  "no well-formed flag of rank " << node);
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

/// Publishes a node's chunk row of `version`: its CRC sums, then the
/// commit marker that makes the row a survivor to later loads.
void commit_row(cluster::Store& store, const std::string& ns,
                std::int64_t version, Buffer sums) {
  store.put(sums_key(ns, version), std::move(sums));
  store.put(commit_key(ns, version), Buffer::copy_of(as_bytes_of(version)));
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

/// Every byte one extent's patch may touch in packet b of a row, `pkt`.
struct Footprint {
  int b;
  Buffer* pkt;
  Ranges ranges;
};

/// An undo record: packet b, offset and length (u64 LE each), then the
/// pre-image.
constexpr std::size_t kUndoHeader = 24;

/// Writes the bytes of packet b, `pkt`, at `ranges` as undo records from
/// `out` on; returns the end of what it wrote.
std::byte* capture_undo(int b, const Buffer& pkt, const Ranges& ranges,
                        std::byte* out) {
  for (const auto& [at, len] : ranges) {
    put_u64_le(out, static_cast<std::uint64_t>(b));
    put_u64_le(out + 8, at);
    put_u64_le(out + 16, len);
    std::memcpy(out + kUndoHeader, pkt.data() + at, len);
    out += kUndoHeader + len;
  }
  return out;
}

/// Writes the pre-images of a slot's undo log back into its packets, newest
/// record first; `packet_of(b)` is packet b of the slot, or nullptr when the
/// slot has none. False, with no packet touched, when the log does not
/// parse: a record cut short, naming a missing packet or falling outside
/// its packet.
template <typename PacketOf>
bool apply_undo(ByteSpan log, PacketOf&& packet_of) {
  std::vector<std::pair<const std::byte*, Buffer*>> records;
  std::uint64_t last_b = 0;
  Buffer* pkt = nullptr;
  for (std::size_t pos = 0; pos < log.size();) {
    if (log.size() - pos < kUndoHeader) return false;
    const std::byte* rec = log.data() + pos;
    const std::uint64_t b = get_u64_le(rec);
    const std::uint64_t at = get_u64_le(rec + 8);
    const std::uint64_t len = get_u64_le(rec + 16);
    if (len > log.size() - pos - kUndoHeader || b > INT32_MAX) return false;
    if (pkt == nullptr || b != last_b) {
      pkt = packet_of(static_cast<int>(b));
      last_b = b;
    }
    if (pkt == nullptr || at > pkt->size() || len > pkt->size() - at)
      return false;
    records.emplace_back(rec, pkt);
    pos += kUndoHeader + len;
  }
  for (auto r = records.rbegin(); r != records.rend(); ++r)
    std::memcpy(r->second->data() + get_u64_le(r->first + 8),
                r->first + kUndoHeader, get_u64_le(r->first + 16));
  return true;
}

/// A version's moved marker: the newer version whose keys hold its chunk
/// row `row`. `to` is 0 when the version holds its own row.
struct Moved {
  std::int64_t to = 0;
  int row = 0;

  Buffer blob() const {
    return u64_record(
        {static_cast<std::uint64_t>(to), static_cast<std::uint64_t>(row)});
  }
};

Moved moved_of(const cluster::Store& store, const std::string& ns,
               std::int64_t version) {
  std::uint64_t to = 0;
  std::uint64_t row = 0;
  if (!read_record(store, moved_key(ns, version), {&to, &row}) ||
      static_cast<std::int64_t>(to) <= version ||
      row > static_cast<std::uint64_t>(INT32_MAX))
    return {};
  return {static_cast<std::int64_t>(to), static_cast<int>(row)};
}

/// The base cache's marker: the committed version its packets hold and the
/// shape they were packed at (packets per worker, packet size, GPUs per
/// node).
struct BaseMark {
  std::uint64_t version = 0;
  std::uint64_t B = 0;
  std::uint64_t P = 0;
  std::uint64_t g = 0;

  Buffer blob() const { return u64_record({version, B, P, g}); }
};

/// `store`'s base-cache marker; all zeros when it holds none.
BaseMark base_mark_of(const cluster::Store& store, const std::string& ns) {
  BaseMark m;
  read_record(store, base_mark_key(ns), {&m.version, &m.B, &m.P, &m.g});
  return m;
}

/// Undoes the move of `version`'s row into `m.to`: writes each slot's undo
/// log back into its packets, renames the packets home and drops the
/// overlay. When a slot's log does not parse, the row is dropped instead of
/// restored wrong, so it reads as lost and the load decodes it.
void restore_moved(cluster::Store& store, const std::string& ns,
                   std::int64_t version, const Moved& m) {
  const std::string from = row_prefix(ns, m.to, m.row);
  const std::string up = undo_prefix(ns, version);
  bool restored = true;
  for (const std::string& uk : store.keys_with_prefix(up)) {
    const std::string slot = from + uk.substr(up.size()) + "/";
    restored = restored && apply_undo(store.get(uk).span(), [&](int b) {
                 const std::string rk = slot + std::to_string(b);
                 return store.contains(rk) ? &store.get_mutable(rk) : nullptr;
               });
    store.erase(uk);
  }
  const std::string home = row_prefix(ns, version, m.row);
  for (const std::string& rk : store.keys_with_prefix(from)) {
    if (restored)
      store.rename(rk, home + rk.substr(from.size()));
    else
      store.erase(rk);
  }
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
      const std::string slot = uk.substr(up.size()) + "/";
      if (!apply_undo(store.get(uk).span(), [&](int b) -> Buffer* {
            const auto pkt = row.find(slot + std::to_string(b));
            return pkt == row.end() ? nullptr : &pkt->second;
          }))
        row.clear();  // a broken log: the row reads as lost on this node
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
// save and load: the protocol's steps over one per-operation context
// ---------------------------------------------------------------------------

namespace {

using KeyPairs = std::vector<std::pair<std::string, std::string>>;

/// What every step of one fabric_save or fabric_load reads.
struct Op {
  Op(cluster::Fabric& fabric, const ECCheckConfig& cfg, std::int64_t version,
     const Membership& members)
      : fabric(fabric), cfg(cfg), members(members), version(version),
        ns(cfg.key_namespace), n(fabric.world_size()),
        act(active_nodes(n, members)), driven(driven_nodes(fabric)),
        mine(alive_driven(fabric, act)),
        codec(cfg.k, cfg.m, cfg.gf_width, cfg.kernel), P(cfg.packet_size) {
    ECC_CHECK_MSG(cfg.k + cfg.m == n, "k+m must equal the fabric world size");
    members.check(n);
  }

  /// Fixes every rank's chunk role for `gpus` workers per node.
  void set_shape(int gpus) {
    g = gpus;
    W = n * g;
    plan = plan_for(n, g, cfg.k, cfg.m);
    per_chunk = plan.workers_per_chunk();
  }
  /// Uniform B and the dead slots, from the tensor-keys blobs every rank
  /// holds after step 2 (or the load's metadata refresh).
  void count_packets(std::vector<std::vector<dnn::TensorMeta>>* tkeys) {
    counts = packet_counts(fabric.store(home_node(fabric, act)), ns, version,
                           W, cfg.k, P, tkeys);
    B = counts.B;
  }

  const Clock::time_point t0 = Clock::now();
  cluster::Fabric& fabric;
  const ECCheckConfig& cfg;
  const Membership& members;
  const std::int64_t version;
  const std::string& ns;
  const int n;
  const std::vector<int> act;     ///< the participating (alive) ranks
  const std::vector<int> driven;  ///< the ranks this process drives
  const std::vector<int> mine;    ///< the alive ranks it drives
  const ec::CrsCodec codec;
  const std::size_t P;
  int g = 0;  ///< workers per node
  int W = 0;
  Placement plan;
  int per_chunk = 0;
  PacketCounts counts;
  std::size_t B = 1;
};

/// What the delta flag exchange agreed on: the base version every rank
/// patches (0 = the full path) and the dirty bytes.
struct DeltaVote {
  std::int64_t base = 0;
  std::uint64_t dirty = 0;
  double ratio = 0;  ///< dirty share of the live bytes
};

/// One fabric_save. Its steps, in protocol order, are the member functions.
struct SaveOp : Op {
  SaveOp(cluster::Fabric& fabric, const ECCheckConfig& cfg,
         const std::vector<const dnn::StateDict*>& shards,
         std::int64_t version, const Membership& members);

  void share_metadata(const std::vector<const dnn::StateDict*>& shards);
  DeltaVote delta_snapshot();
  NodeFlag delta_state(int node, std::uint64_t live_bytes,
                       std::uint64_t& dirty_here,
                       std::vector<std::byte>& delta_bytes);
  void delta_patch(const DeltaVote& vote);
  template <typename Apply>
  void patch_row(int dst, int row, int w, int j,
                 const std::vector<DirtyExtent>& wext, std::int64_t bv,
                 Apply&& apply);
  void pack();
  void relocate_data();
  void encode_parity();
  void commit(bool delta_used);
  void flush_to_remote();
  void update_base_cache(bool delta_used);

  void stamp(Stage stage) { rep.breakdown[stage_key(stage)] = since(t0); }
  void stamp_stall() {
    rep.stall_time = since(t0);
    rep.breakdown[stage_key(Stage::kSnapshot)] = rep.stall_time;
  }
  /// Where the full path keeps the sum of slot (j, b) of `node`'s row, or
  /// nullptr when it takes none there.
  std::uint64_t* taken_sum(int node, int j, std::size_t b) {
    const auto it = taken_sums.find(node);
    return it == taken_sums.end()
               ? nullptr
               : &it->second[static_cast<std::size_t>(j) * B + b];
  }

  const std::vector<int> handled;  ///< the ranks this process sites
  const bool delta_wanted;         ///< a base cache is kept
  ckpt::SaveReport rep;
  std::map<int, Decomposition> decs;  ///< sited worker → decomposition
  // A delta save's sited worker → its dirty extents and its Δ payload (new
  // ⊕ base of each extent, concatenated in manifest order), kept by the
  // source until the base cache is patched after the commit barrier.
  std::map<int, std::vector<DirtyExtent>> local_extents;
  std::map<int, Buffer> staged;
  std::map<int, Buffer> carried_sums;  ///< node → its row's patched sums
  std::vector<Footprint> footprints;  ///< patch_row's, one per extent
  /// The full path's sums per driven alive node (DESIGN.md §7): every slot
  /// starts as a zero slot, and each live packet's sum is taken where the
  /// packet is produced, so the commit never rereads the row.
  RowSums taken_sums;
};

SaveOp::SaveOp(cluster::Fabric& fabric, const ECCheckConfig& cfg,
               const std::vector<const dnn::StateDict*>& shards,
               std::int64_t version, const Membership& members)
    : Op(fabric, cfg, version, members),
      handled(sited_nodes(fabric, members)),
      delta_wanted(cfg.delta.enabled && members.full()) {
  const int n_alive = members.alive_count(n);
  ECC_CHECK_MSG(n_alive >= cfg.k, "degraded save impossible: only "
                                      << n_alive << " of " << n
                                      << " ranks alive, need at least k="
                                      << cfg.k);
  ECC_CHECK_MSG(!handled.empty(),
                "this process sites no rank under the given membership");
  ECC_CHECK_MSG(!shards.empty() && shards.size() % handled.size() == 0,
                "need the same number of shards per sited rank");
  const int gpus = static_cast<int>(shards.size() / handled.size());
  ECC_CHECK_MSG(n * gpus % cfg.k == 0, "k must divide the worker count");
  set_shape(gpus);
  ECC_CHECK_MSG(P % codec.packet_granularity() == 0,
                "packet_size must be a multiple of the codec granularity");
}

/// Steps 1–2: decompose each sited worker's shard, keep its metadata and
/// tensor-keys blobs at its site and give every node every worker's blobs.
void SaveOp::share_metadata(const std::vector<const dnn::StateDict*>& shards) {
  std::map<int, int> shard_index;  // worker → index into `shards`
  for (int node : handled)  // ascending, matching fabric_sited_workers
    for (int l = 0; l < g; ++l) {
      const int w = node * g + l;
      const int idx = static_cast<int>(shard_index.size());
      shard_index[w] = idx;
      ECC_CHECK_MSG(shards[static_cast<std::size_t>(idx)] != nullptr,
                    "null shard for worker " << w);
    }

  // ---- Step 1: decompose + serialize the tiny components -----------------
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
  stamp(Stage::kMetadataBroadcast);
  count_packets(nullptr);  // uniform so reduction groups align (§III-C)
}

/// Dirty share of the live bytes: a full save never ships dead slots.
double dirty_ratio(std::uint64_t dirty, std::uint64_t live_bytes) {
  return live_bytes == 0 ? 0.0
                         : static_cast<double>(dirty) /
                               static_cast<double>(live_bytes);
}

/// The delta path's snapshot, fused with its eligibility check: each live
/// packet is diffed against the base cache in place, straight from the
/// tensor bytes, and each dirty extent's Δ appended while those bytes are
/// cache-hot. Nothing is packed, and after this pass the delta path reads
/// no live tensor byte. Then one flag exchange carries each rank's base
/// version and dirty bytes: the save takes the delta path only if every
/// rank names the same base version and the dirty bytes are at most
/// kMaxDirtyRatio of the live bytes.
DeltaVote SaveOp::delta_snapshot() {
  std::uint64_t live_bytes = 0;
  for (const std::size_t live : counts.live) live_bytes += live * P;
  std::vector<std::byte> delta_bytes;  // the current worker's Δ
  std::uint64_t dirty_here = 0;        // over the nodes driven here
  std::map<int, NodeFlag> local_flags;
  for (int node : driven)
    local_flags[node] = delta_state(node, live_bytes, dirty_here, delta_bytes);
  stamp_stall();

  const std::vector<NodeFlag> dflags = exchange_flags(
      fabric, keys::delta_flag_prefix(ns, version),
      [&](int node) { return local_flags.at(node); }, act);
  DeltaVote vote;
  std::uint64_t base_version = dflags[0].flag;
  for (const NodeFlag& f : dflags) {
    if (f.flag != base_version)
      base_version = 0;  // disagreeing or missing base on some rank
    vote.dirty += f.workers;
  }
  vote.ratio = dirty_ratio(vote.dirty, live_bytes);
  if (vote.ratio <= kMaxDirtyRatio)
    vote.base = static_cast<std::int64_t>(base_version);
  return vote;
}

/// One node's part of delta_snapshot. Its flag is the usable common base
/// version (0 = no delta here), paired with its workers' dirty bytes.
/// `dirty_here` sums the dirty bytes of every node this process has diffed.
/// They are a lower bound of the vote's, so once they exceed kMaxDirtyRatio
/// of the live bytes the vote cannot pass: the node stops, builds no more
/// Δ and votes "no base", which leaves the outcome as it was.
NodeFlag SaveOp::delta_state(int node, std::uint64_t live_bytes,
                             std::uint64_t& dirty_here,
                             std::vector<std::byte>& delta_bytes) {
  NodeFlag f;
  auto over = [&] {
    return dirty_ratio(dirty_here, live_bytes) > kMaxDirtyRatio;
  };
  if (over()) return f;
  cluster::Store& store = fabric.store(node);
  const BaseMark mark = base_mark_of(store, ns);
  const auto mv = static_cast<std::int64_t>(mark.version);
  if (mv <= 0 || mv >= version || mark.B != B || mark.P != P ||
      mark.g != static_cast<std::uint64_t>(g))
    return f;
  // The base rows being patched must still be committed on this node — a
  // torn delta save rolls its version keys back, which breaks exactly this
  // check and forces the safe full re-encode.
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
    // Identical tensor keys mean identical live counts: the dead padding
    // slots are zero in both versions and cannot be dirty.
    const std::vector<ByteSpan>& tensors = decs.at(w).tensor_data;
    std::vector<DirtyExtent> wext;
    delta_bytes.clear();
    const std::size_t live = counts.live[static_cast<std::size_t>(w)];
    for (std::size_t b = 0; b < live; ++b) {
      const std::string bk = base_local_key(ns, w, static_cast<int>(b));
      if (!store.contains(bk)) return f;
      const Buffer& base = store.get(bk);
      if (base.size() != P) return f;
      const std::uint64_t d =
          diff_tensors(tensors, b, base.span(), kDirtyBlock, wext, delta_bytes);
      dirty += d;
      dirty_here += d;
      if (over()) return f;
    }
    local_extents[w] = std::move(wext);
    staged[w] = Buffer::copy_of(delta_bytes);
  }
  f.flag = static_cast<std::uint64_t>(mv);
  f.workers = dirty;
  return f;
}

/// Step 3 of a delta save: the stripe is not re-encoded. Each node moves
/// its own chunk row of the base version under the new version locally,
/// only the dirty regions' XOR-deltas travel (one payload per worker to the
/// data node and to each of the m parity nodes; DESIGN.md §7), the data row
/// is XOR-patched and each parity row folded with P' = P ⊕ G·Δ —
/// bit-identical to the full four-step protocol by code linearity.
void SaveOp::delta_patch(const DeltaVote& vote) {
  obs::ScopedSpan dspan("engine.save.delta", vote.dirty);
  fabric.stats().add("delta.save.count");
  fabric.stats().add("delta.dirty.bytes", vote.dirty);
  const std::int64_t bv = vote.base;

  // Every rank must walk the identical extent list: publish each sited
  // worker's manifest and all-gather them like the step-2 metadata.
  for (int node : mine) {
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
  const cluster::Store& home = fabric.store(home_node(fabric, act));
  std::vector<std::vector<DirtyExtent>> all_extents(
      static_cast<std::size_t>(W));
  for (int w = 0; w < W; ++w)
    all_extents[static_cast<std::size_t>(w)] = deserialize_extents(
        home.get(delta_manifest_key(ns, version, w)).span());

  // Move the base version's rows under the new version — a local re-keying
  // on every node that copies no byte; only deltas cross the wire. The base
  // version keeps a moved marker, written before the first move so a
  // rollback finds every moved packet, and gains an undo overlay of the
  // bytes the patches below change (DESIGN.md §7).
  for (int node : driven) {
    const int row = plan.generator_row_of_node(node);
    cluster::Store& store = fabric.store(node);
    store.put(moved_key(ns, bv), Moved{version, row}.blob());
    for (int j = 0; j < per_chunk; ++j)
      for (int b = 0; b < static_cast<int>(B); ++b)
        store.rename(row_key(ns, bv, row, j, b),
                     row_key(ns, version, row, j, b));
    // The CRC sums are carried too (DESIGN.md §7): the patches below fold
    // their changes into the base version's sums, so the commit never
    // rereads the row. Without usable base sums the node recomputes them in
    // full at commit.
    if (store.contains(sums_key(ns, bv)) &&
        store.get(sums_key(ns, bv)).size() ==
            static_cast<std::size_t>(per_chunk) * B * 8)
      carried_sums.emplace(node, store.get(sums_key(ns, bv)).clone());
  }

  // One worker at a time: its source puts the staged Δ under the patch
  // key, ships it and takes it back once every destination has folded it
  // in, and the destinations drop their copies before the next worker's.
  // Each source keeps its own workers' Δ until the base cache is patched
  // after the commit barrier.
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
    if (fabric.drives(src)) fabric.store(src).put(dk, std::move(staged.at(w)));

    // One frame per destination: the data node plus each parity node (k+m
    // distinct nodes, so no destination repeats).
    std::vector<int> dests;
    dests.push_back(plan.data_nodes[static_cast<std::size_t>(c)]);
    for (int r = 0; r < cfg.m; ++r)
      dests.push_back(plan.parity_nodes[static_cast<std::size_t>(r)]);
    for (int dst : dests)
      if (dst != src) fabric.send_buffers(src, dst, {{dk, dk}});

    patch_row(dests[0], c, w, j, wext, bv,
              [](const DirtyExtent& e, ByteSpan d, MutableByteSpan pkt) {
                xor_into(pkt.subspan(e.offset, e.length), d);
              });
    for (int r = 0; r < cfg.m; ++r)
      patch_row(dests[static_cast<std::size_t>(1 + r)], cfg.k + r, w, j, wext,
                bv, [&](const DirtyExtent& e, ByteSpan d, MutableByteSpan pkt) {
                  codec.update_row(cfg.k + r, c, e.offset, d, pkt);
                });

    // Drop the copies where the Δ landed; the source takes its own back.
    for (int node : dests)
      if (node != src && fabric.drives(node)) fabric.store(node).erase(dk);
    if (fabric.drives(src)) staged.at(w) = fabric.store(src).take(dk);
  }
  fabric.stats().add("delta.extents.count", extent_count);
  for (int node : mine)
    for (int w = 0; w < W; ++w)
      fabric.store(node).erase(delta_manifest_key(ns, version, w));
  rep.breakdown["delta_dirty_ratio"] = vote.ratio;
  stamp(Stage::kDeltaPatch);
}

/// Patches worker w's Δ into slot j of chunk row `row` on `dst` where its
/// packets sit, slicing the payload by the all-gathered manifest `wext`:
/// `apply` is the XOR on the data row or the G·Δ fold on a parity row. The
/// length check comes first, so a short payload never reads out of bounds.
/// Each extent's footprint is every byte its patch may touch: the extent on
/// the data row, the codec's footprint of it on a parity row (in bitmatrix
/// mode that reaches into every strip). Every footprint of the run is
/// computed first, and all their pre-images join the slot's undo log in bv's
/// overlay with one put before any byte changes. A carried sum takes each
/// extent's raw-CRC change over its footprint while the bytes are
/// cache-hot, shifted past the rest of the packet.
template <typename Apply>
void SaveOp::patch_row(int dst, int row, int w, int j,
                       const std::vector<DirtyExtent>& wext, std::int64_t bv,
                       Apply&& apply) {
  if (!fabric.drives(dst)) return;
  const std::uint64_t wbytes = dirty_bytes(wext);
  obs::ScopedSpan pspan("engine.save.delta.patch", wbytes);
  cluster::Store& store = fabric.store(dst);
  const Buffer& delta = store.get(delta_patch_key(ns, version, w));
  ECC_CHECK_MSG(delta.size() == wbytes,
                "delta payload of worker " << w << " has " << delta.size()
                                           << " bytes, manifest says "
                                           << wbytes);
  footprints.clear();
  {
    static const std::string kUndoSpan = "engine.save.delta.undo";
    obs::ScopedSpan uspan(kUndoSpan);
    const std::string slot =
        row_prefix(ns, version, row) + std::to_string(j) + "/";
    std::size_t undo_bytes = 0;
    for_each_packet_run(wext, P, [&](int b, auto run, std::uint64_t) {
      Buffer& pkt = store.get_mutable(slot + std::to_string(b));
      ECC_CHECK(pkt.size() == P);
      for (const DirtyExtent& e : run) {
        footprints.push_back(
            {b, &pkt,
             e.length == 0 ? Ranges{}
             : row < cfg.k ? Ranges{{e.offset, e.length}}
                           : codec.update_footprint(e.offset, e.length, P)});
        for (const auto& range : footprints.back().ranges)
          undo_bytes += kUndoHeader + range.second;
      }
    });
    const std::string uk = undo_key(ns, bv, j);
    const std::size_t held = store.contains(uk) ? store.get(uk).size() : 0;
    Buffer undo(held + undo_bytes, Buffer::Init::kUninitialized);
    if (held > 0) std::memcpy(undo.data(), store.get(uk).data(), held);
    std::byte* out = undo.data() + held;
    for (const Footprint& fp : footprints)
      out = capture_undo(fp.b, *fp.pkt, fp.ranges, out);
    store.put(uk, std::move(undo));
    uspan.set_bytes(undo_bytes);
  }

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
  const auto sums = carried_sums.find(dst);
  const bool carry = sums != carried_sums.end();
  auto fp = footprints.begin();
  for_each_packet_run(wext, P, [&](int b, auto run, std::uint64_t at) {
    Buffer& pkt = *fp->pkt;
    std::uint64_t change = 0;
    for (const DirtyExtent& e : run) {
      const Ranges& ranges = (fp++)->ranges;
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
                            P - ranges.back().first - ranges.back().second);
    }
    if (carry)
      xor_into(sums->second.subspan((static_cast<std::size_t>(j) * B +
                                     static_cast<std::size_t>(b)) * 8,
                                    8),
               as_bytes_of(change));
  });
}

/// The full path's snapshot, whose end is the stall: pack each sited
/// worker's tensor bytes into B fixed-size packets (the padding behind its
/// live packets is zero). A worker sited on its data node is home, and its
/// live packets' sums are taken while each packet is cache-hot.
void SaveOp::pack() {
  if (cfg.delta.enabled) fabric.stats().add("delta.fallback.count");
  local_extents.clear();  // a fallback's staged Δ goes unused
  staged.clear();
  for (int node : mine)
    taken_sums[node].assign(static_cast<std::size_t>(per_chunk) * B,
                            zero_sum(P));
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
  stamp_stall();
}

/// 3a: every live data packet not yet on its data node, one batch per (src,
/// dst) edge; the data node zero-fills the dead rest of the row. Packets
/// already home move into their rows at the end of encode_parity, which
/// still encodes from them. The data node takes each arrived packet's sum
/// as its edge returns.
void SaveOp::relocate_data() {
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
}

/// 3b: parity, one packet slot b at a time. Every participant site computes
/// its GF partial and ships it straight to the parity node, which takes the
/// first partial as the row and XOR-folds the rest in. GF addition is XOR,
/// so the row is bit-identical to CrsCodec::encode of the stripe, and each
/// reduction moves one packet per remote participant site —
/// actual_comm_volume less the dead slots, exactly actual_comm_volume for
/// equal shards. Participants sited together (adoption can fold several
/// dead participants onto one survivor) pre-accumulate locally. A reduction
/// whose parity node is dead has nowhere to land and is skipped. A site
/// whose participants are all padding at slot b has a zero partial there:
/// it neither computes nor ships it, and a parity slot with no live partial
/// is stored as zeros.
void SaveOp::encode_parity() {
  struct Reduction {
    const ReductionOp* op;
    std::vector<int> sites;                // first-appearance order
    std::vector<std::vector<int>> chunks;  // per site: its chunks c
    std::vector<std::string> keys;         // per site: staging key
    std::vector<std::size_t> live;         // per site: live slots [0, n)
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
        red.keys.push_back(
            keys::partial_key(ns, version, op.group, op.parity_row, ps));
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
        // Fold by liveness, not key presence: a dead site's staging key may
        // still hold an earlier slot's partial.
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
        if (std::uint64_t* sum =
                folded ? taken_sum(op.dest_node, op.group, b) : nullptr)
          *sum = crc64(row.span());
        store.put(row_key(ns, version, cfg.k + op.parity_row, op.group,
                          static_cast<int>(b)),
                  folded ? std::move(row) : Buffer(P, Buffer::Init::kZeroed));
      }
    }
  }
  for (int node : mine)
    for (const std::string& key : fabric.store(node).keys_with_prefix(
             keys::partial_prefix(ns, version)))
      fabric.store(node).erase(key);

  // 3a's home packets: moved into their rows, or copied when the base cache
  // still needs them.
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
}

/// Publishes checksums and the commit marker. Without incremental saves the
/// staging copies are dropped first; with them a full save retires them
/// into the base cache, and a delta save patches the cache with its Δ, once
/// the commit barrier has passed (update_base_cache).
void SaveOp::commit(bool delta_used) {
  if (!delta_wanted) {
    for (const auto& [w, dec] : decs) {
      (void)dec;
      const int site = members.site(w / g);
      for (int b = 0; b < static_cast<int>(B); ++b)
        fabric.store(site).erase(local_key(ns, version, w, b));
    }
  }
  for (int node : mine) {
    Buffer sums;
    const auto carried = carried_sums.find(node);
    if (!delta_used) {
      sums = sums_blob(taken_sums.at(node));
    } else if (carried != carried_sums.end()) {
      sums = std::move(carried->second);
    } else {
      fabric.stats().add("delta.sums.fallback.count");
      sums = row_sums(fabric, node, ns, version,
                      plan.generator_row_of_node(node), per_chunk, B);
    }
    commit_row(fabric.store(node), ns, version, std::move(sums));
  }
}

/// Step 4: the low-frequency remote flush.
void SaveOp::flush_to_remote() {
  for (int row = 0; row < cfg.k + cfg.m; ++row) {
    const int node = plan.node_of_row(row);
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
  stamp(Stage::kRemoteFlush);
}

/// Runs after the commit barrier, so the base cache is never ahead of a
/// committed version: a save torn anywhere before leaves it as it was.
void SaveOp::update_base_cache(bool delta_used) {
  for (int node : handled) {
    cluster::Store& store = fabric.store(node);
    // Crash-safe order: erase the marker first, re-put it only after every
    // cached byte belongs to the new version. A store observed between the
    // two reads as "no base" and re-encodes in full.
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
              Buffer& pkt = store.get_mutable(base_local_key(ns, w, b));
              for (const DirtyExtent& e : run) {
                xor_into(pkt.subspan(e.offset, e.length),
                         delta.subspan(at, e.length));
                at += e.length;
              }
            });
        continue;
      }
      for (int b = 0; b < static_cast<int>(B); ++b)
        store.put(base_local_key(ns, w, b),
                  store.take(local_key(ns, version, w, b)));
      store.put(base_keys_key(ns, w),
                store.get(keys_key(ns, version, w)).clone());
    }
    store.put(base_mark_key(ns),
              BaseMark{static_cast<std::uint64_t>(version), B, P,
                       static_cast<std::uint64_t>(g)}
                  .blob());
  }
}

/// One fabric_load. Its steps, in protocol order, are the member functions.
struct LoadOp : Op {
  LoadOp(cluster::Fabric& fabric, const ECCheckConfig& cfg,
         std::int64_t version, const Membership& members)
      : Op(fabric, cfg, version, members),
        stats_base(fabric.stats().counters()) {}

  NodeFlag scrub_row(int node);
  void scrub_and_agree();
  std::optional<std::string> rescue_from_remote();
  std::optional<std::string> refresh_metadata();
  void decode_rows(const std::vector<int>& basis,
                   const std::vector<int>& targets);
  void reconstruct();
  void refill(std::vector<dnn::StateDict>& out);
  void restore_parity();
  void recommit();
  void drop_adopted_rows();
  std::string detail() const;

  ckpt::LoadReport finish() {
    rep.total_time = since(t0);
    rep.stats =
        obs::StatsRegistry::delta(fabric.stats().counters(), stats_base);
    return std::move(rep);
  }
  /// The one failure exit: every rank takes it with the same detail.
  ckpt::LoadReport fail(std::string why) {
    rep.success = false;
    rep.detail = std::move(why);
    return finish();
  }

  const obs::StatsRegistry::CounterMap stats_base;
  ckpt::LoadReport rep;
  // Per node, from the flag rounds: 0 = nothing usable, 1 = chunk row
  // intact, 2 = row refetched from the remote flush; and the number of
  // workers whose blobs it holds.
  std::vector<NodeFlag> flags;
  std::vector<NodeFlag> round1;  ///< before a remote rescue rewrites them
  std::uint64_t W64 = 0;         ///< the agreed worker count
  int survivors = 0;
  int remote_rescued_rows = 0;
  std::vector<std::vector<dnn::TensorMeta>> tkeys;
  std::vector<int> missing_rows;
  std::vector<int> missing_parity;
  bool data_lost = false;
  /// Each rebuilt row's sums, per alive node driven here (DESIGN.md §7).
  RowSums rebuilt_sums;
};

/// Round 1 for one node: flag 1 = chunk row intact (commit + packets + CRC
/// scrub), paired with the number of workers whose metadata and
/// tensor-keys blobs are both held (the step-2 broadcast makes that W on
/// any honest survivor). A refresh torn between a worker's two blobs must
/// not let a node pass for a full metadata holder.
NodeFlag LoadOp::scrub_row(int node) {
  NodeFlag f;
  cluster::Store& store = fabric.store(node);
  const std::string meta_prefix = keys::meta_prefix(ns, version);
  for (const std::string& key : store.keys_with_prefix(meta_prefix))
    if (store.contains(keys::keys_prefix(ns, version) +
                       key.substr(meta_prefix.size())))
      ++f.workers;
  // A node whose metadata extent is not a valid world shape cannot even
  // name its own chunk row — treat it as lost.
  if (!valid_worker_count(f.workers, n, cfg.k)) return f;
  const int row = plan_for(n, static_cast<int>(f.workers) / n, cfg.k, cfg.m)
                      .generator_row_of_node(node);
  if (!store.contains(commit_key(ns, version)) ||
      !store.contains(row_key(ns, version, row, 0, 0)))
    return f;
  if (!store.contains(sums_key(ns, version))) return f;
  const std::size_t pch = f.workers / static_cast<std::uint64_t>(cfg.k);
  const Buffer& sums = store.get(sums_key(ns, version));
  const std::size_t B_row = sums.size() / 8 / pch;
  // The sums must cover the whole row: a blob cut short would leave its
  // last packets unscrubbed.
  if (B_row == 0 || sums.size() != B_row * 8 * pch ||
      store.contains(row_key(ns, version, row, 0, static_cast<int>(B_row))))
    return f;
  for (std::size_t j = 0; j < pch; ++j)
    for (std::size_t b = 0; b < B_row; ++b) {
      const std::string rk = row_key(ns, version, row, static_cast<int>(j),
                                     static_cast<int>(b));
      std::uint64_t want;
      std::memcpy(&want, sums.data() + (j * B_row + b) * 8, 8);
      if (!store.contains(rk) || crc64(store.get(rk).span()) != want)
        return f;
    }
  f.flag = 1;
  return f;
}

/// Round 1: every rank reports its chunk's intactness and metadata extent.
void LoadOp::scrub_and_agree() {
  flags = exchange_flags(fabric, keys::load_flag_prefix(ns, version, 1),
                         [&](int node) { return scrub_row(node); }, act);
  round1 = flags;
  for (const NodeFlag& f : flags) {
    W64 = std::max(W64, f.workers);
    survivors += f.flag >= 1 ? 1 : 0;
  }
}

/// The catastrophic path, fewer than k chunks left: the lost rows and any
/// missing metadata come back from the remote flush, and round 2 agrees on
/// the result. Returns why it cannot when the remote store holds no copy.
std::optional<std::string> LoadOp::rescue_from_remote() {
  const int self = driven.front();
  if (!fabric.remote_contains(self, commit_key(ns, version)) ||
      !fabric.remote_contains(self, row_key(ns, version, 0, 0, 0)))
    return "only " + std::to_string(survivors) + " chunks survive, need k=" +
           std::to_string(cfg.k) + " and no remote copy exists";
  if (W64 == 0) {
    // Even the metadata is gone from every host — count workers from the
    // remote flush (each rank sees the same shared store).
    W64 = fabric.remote_list(self, keys::meta_prefix(ns, version)).size();
    if (!valid_worker_count(W64, n, cfg.k))
      return "no usable metadata for version " + std::to_string(version) +
             " on hosts or remote";
  }
  const int pch = static_cast<int>(W64) / cfg.k;
  const Placement rplan =
      plan_for(n, static_cast<int>(W64) / n, cfg.k, cfg.m);
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
    // The step-2 invariant (every node holds every worker's metadata) comes
    // back from the remote flush too.
    for (int w = 0; w < static_cast<int>(W64); ++w)
      for (const std::string& key :
           {meta_key(ns, version, w), keys_key(ns, version, w)})
        if (!fabric.store(node).contains(key))
          fabric.remote_read(node, key, key);
  }
  flags = exchange_flags(fabric, keys::load_flag_prefix(ns, version, 2),
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
  return std::nullopt;
}

/// Fixes the roles from the agreed worker count — a freshly replaced rank
/// knows it only now — and gives every node every worker's blobs from one
/// full holder. Returns why it cannot when no node holds them all.
std::optional<std::string> LoadOp::refresh_metadata() {
  ECC_CHECK_MSG(valid_worker_count(W64, n, cfg.k),
                "stored worker count " << W64
                                       << " inconsistent with fabric shape");
  set_shape(static_cast<int>(W64) / n);
  int meta_holder = -1;
  for (int node : act) {
    if (flags[static_cast<std::size_t>(node)].workers == W64) {
      meta_holder = node;
      break;
    }
  }
  if (meta_holder < 0)
    return "no surviving metadata copy for version " +
           std::to_string(version) + " (pruned or never saved)";
  for (const NodeFlag& f : round1)
    rep.metadata_refreshed.push_back(f.workers != W64);
  for (int w = 0; w < W; ++w) {
    fabric.broadcast(act, meta_holder, meta_key(ns, version, w));
    fabric.broadcast(act, meta_holder, keys_key(ns, version, w));
  }
  count_packets(&tkeys);
  return std::nullopt;
}

/// Rebuilds rows `targets` from the k rows `basis`, SPMD: survivors stream
/// their row packets to each target site, which applies the reconstruction
/// matrix rows in basis order, so the reconstructed bytes are those the
/// save stored. A site hosting several targets (an adopter standing in for
/// several dead ranks) receives each basis packet once and decodes all its
/// rows from it. Dead slots are zero on both sides: a dead source packet is
/// neither sent nor multiplied, and a dead target slot is stored as zeros.
/// A row rebuilt for an alive node driven here gets its sums as each packet
/// is decoded (DESIGN.md §7).
void LoadOp::decode_rows(const std::vector<int>& basis,
                         const std::vector<int>& targets) {
  if (targets.empty()) return;
  const ec::GfMatrix T = codec.reconstruction_matrix(basis, targets);
  // Rows homed on a dead rank materialize on the adopter instead. So a
  // basis row is read on its node's site: re-encoding the lost parity rows
  // reads a dead node's data row, just rebuilt, on the adopter.
  auto source_site = [&](int s) {
    return members.site(plan.node_of_row(basis[static_cast<std::size_t>(s)]));
  };
  std::map<int, std::vector<int>> on_site;  // target site → indices ti
  std::vector<std::vector<std::uint64_t>*> sums(targets.size(), nullptr);
  for (int ti = 0; ti < static_cast<int>(targets.size()); ++ti) {
    const int node = plan.node_of_row(targets[static_cast<std::size_t>(ti)]);
    on_site[members.site(node)].push_back(ti);
    if (members.is_alive(node) && fabric.drives(node)) {
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
                                 keys::load_rec_key(ns, version, s, j, b));
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
                    ? store.get(keys::load_rec_key(ns, version, s, j, b))
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
            if (fetched(s, tsite))
              store.erase(keys::load_rec_key(ns, version, s, j, b));
      }
    }
  }
}

/// Decodes the lost data rows from any k survivors (workflow B). A dead
/// rank's row counts as missing even if its store still held it at death:
/// nobody can read it. Rows homed on dead ranks are reconstructed onto the
/// adopter's store for the duration of the load (drop_adopted_rows).
void LoadOp::reconstruct() {
  std::vector<int> survivor_rows;
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
  std::vector<int> missing_data;
  for (int r : missing_rows)
    (r < cfg.k ? missing_data : missing_parity).push_back(r);
  data_lost = !missing_data.empty();
  decode_rows({survivor_rows.begin(), survivor_rows.begin() + cfg.k},
              missing_data);
}

/// Refills every worker's own packets and rebuilds its state_dict. Sited,
/// not driven: during a degraded window the adopter also refills the dead
/// ranks' workers (their packets exist — data rows are complete after
/// reconstruction), so `load` keeps serving every worker's bytes.
void LoadOp::refill(std::vector<dnn::StateDict>& out) {
  out.clear();
  out.resize(fabric_sited_workers(fabric, g, members).size());
  auto next = out.begin();  // the sited workers fill `out` in order
  const int window =
      static_cast<int>(std::max<std::size_t>(1, kRefillBatchBytes / P));
  for (int w = 0; w < W; ++w) {
    const int wsite = members.site(w / g);
    const int c = plan.chunk_of_worker(w);
    const int ssite = members.site(plan.node_of_row(c));
    const int j = w - c * per_chunk;
    const bool shipped = ssite != wsite;
    const bool here = fabric.drives(wsite);
    // The skeleton comes first, so each packet is unpacked straight into
    // it as it lands. Only the worker's live packets are unpacked: the
    // padding behind them is not.
    dnn::StateDict skel;
    std::vector<MutableByteSpan> tensors;
    if (here) {
      skel = dnn::make_skeleton(
          dnn::deserialize_metadata(
              fabric.store(wsite).get(meta_key(ns, version, w)).span()),
          tkeys[static_cast<std::size_t>(w)]);
      tensors = tensor_views(skel);
    }
    const int live = static_cast<int>(counts.live[static_cast<std::size_t>(w)]);
    for (int lo = 0; lo < live; lo += window) {
      const int hi = std::min(live, lo + window);
      if (shipped) {
        // One (src, dst) batch per window: a pipelining transport keeps
        // the window's frames in flight and reconciles their acks once,
        // and the site unpacks and erases the window before the next
        // ships, so it never stages more than one.
        KeyPairs batch;
        batch.reserve(static_cast<std::size_t>(hi - lo));
        for (int b = lo; b < hi; ++b)
          batch.emplace_back(row_key(ns, version, c, j, b),
                             keys::load_refill_key(ns, version, w, b));
        fabric.send_buffers(ssite, wsite, batch);
      }
      if (!here) continue;
      cluster::Store& store = fabric.store(wsite);
      for (int b = lo; b < hi; ++b) {
        const std::string key = shipped
                                    ? keys::load_refill_key(ns, version, w, b)
                                    : row_key(ns, version, c, j, b);
        unpack_packet(store.get(key).span(), static_cast<std::size_t>(b), P,
                      tensors);
        if (shipped) store.erase(key);
      }
    }
    if (here) *next++ = std::move(skel);
  }
}

/// Restores redundancy: lost parity rows are re-encoded from the
/// now-complete set of data rows — but only onto alive hosts; a dead rank's
/// parity row has nowhere to live until the rank is replaced.
void LoadOp::restore_parity() {
  std::vector<int> data_basis;
  for (int c = 0; c < cfg.k; ++c) data_basis.push_back(c);
  std::vector<int> parity_targets;
  for (int row : missing_parity)
    if (members.is_alive(plan.node_of_row(row))) parity_targets.push_back(row);
  decode_rows(data_basis, parity_targets);
}

/// Every alive node whose row this load rebuilt or refetched now holds its
/// chunk and metadata: refresh its checksums and commit marker so future
/// recoveries see it as a survivor — also where a stale marker outlived
/// corrupt or missing sums. A rebuilt row's sums were taken as it was
/// decoded; only a refetched row is reread.
void LoadOp::recommit() {
  for (int node : mine) {
    const std::uint64_t flag = flags[static_cast<std::size_t>(node)].flag;
    if (flag == 1) continue;  // intact: its sums and marker stand
    commit_row(fabric.store(node), ns, version,
               flag == 0 ? sums_blob(rebuilt_sums.at(node))
                         : row_sums(fabric, node, ns, version,
                                    plan.generator_row_of_node(node),
                                    per_chunk, B));
  }
}

/// Drops the adopted rows again: while the rank is dead its row has no
/// committed host, and leaving a copy on the adopter would let a later
/// intactness scan double-count it.
void LoadOp::drop_adopted_rows() {
  for (int node = 0; node < n; ++node) {
    if (members.is_alive(node) || !fabric.drives(members.site(node))) continue;
    const int row = plan.generator_row_of_node(node);
    for (int j = 0; j < per_chunk; ++j)
      for (int b = 0; b < static_cast<int>(B); ++b)
        fabric.store(members.site(node))
            .erase(row_key(ns, version, row, j, b));
  }
}

/// What the load did, the same on every rank.
std::string LoadOp::detail() const {
  std::string what;
  if (remote_rescued_rows > 0)
    what = "remote fallback (refetched " + std::to_string(remote_rescued_rows) +
           " rows from remote storage)";
  else if (data_lost)
    what = "workflow B (decoded " + std::to_string(missing_rows.size()) +
           " rows)";
  else
    what = "workflow A (all data nodes survived)";
  if (!members.full())
    what += "; degraded (" + std::to_string(n - members.alive_count(n)) +
            " dead)";
  return what;
}

}  // namespace

ckpt::SaveReport fabric_save(cluster::Fabric& fabric, const ECCheckConfig& cfg,
                             const std::vector<const dnn::StateDict*>& shards,
                             std::int64_t version,
                             const Membership& members) {
  SaveOp op(fabric, cfg, shards, version, members);
  const auto stats_base = fabric.stats().counters();
  obs::ScopedSpan span("engine.save[" + fabric.fabric_name() + "]");

  op.share_metadata(shards);  // steps 1–2
  // Incremental path (cfg.delta): when every site still holds a valid base
  // cache of one common committed version and the global dirty ratio is
  // small enough, the stripe is patched in place, not re-encoded. Any
  // prerequisite failure on any rank (first save, rolled-back base, shape
  // change, pruned base, degraded membership) falls through to the full
  // path, which only then packs the shards.
  bool delta_used = false;
  if (op.delta_wanted) {
    const DeltaVote vote = op.delta_snapshot();
    delta_used = vote.base != 0;
    if (delta_used) op.delta_patch(vote);
  }
  // Step 3 of a full save. A row homed on a dead rank is skipped entirely:
  // the degraded stripe keeps the n_alive ≥ k rows hosted by survivors
  // (reduced redundancy — any k of them still decode), rather than
  // blocking the save.
  if (!delta_used) {
    op.pack();
    op.relocate_data();  // 3a
    op.encode_parity();  // 3b
    // Step 3 ends here on both paths, before the CRC sums, commit markers
    // and base-cache update.
    op.stamp(Stage::kEncodePipeline);
  }
  op.commit(delta_used);
  if (cfg.flush_to_remote) op.flush_to_remote();
  fabric.barrier(op.act);
  if (op.delta_wanted) op.update_base_cache(delta_used);

  op.rep.total_time = since(op.t0);
  op.rep.stats =
      obs::StatsRegistry::delta(fabric.stats().counters(), stats_base);
  fill_traffic(op.rep.stats, &op.rep.network_bytes, &op.rep.remote_bytes);
  return std::move(op.rep);
}

ckpt::LoadReport fabric_load(cluster::Fabric& fabric, const ECCheckConfig& cfg,
                             std::int64_t version,
                             std::vector<dnn::StateDict>& out,
                             const Membership& members) {
  LoadOp op(fabric, cfg, version, members);
  obs::ScopedSpan span("engine.load[" + fabric.fabric_name() + "]");
  // A version whose row a later delta save moved on gets it back first.
  for (int node : op.mine)
    materialize_version(fabric.store(node), op.ns, version);

  op.scrub_and_agree();  // round 1
  if (op.survivors < cfg.k) {
    // Degraded membership: the dead ranks cannot be asked to rescue
    // anything, and the remote-rescue round assumes full participation —
    // fail precisely instead.
    if (!members.full())
      return op.fail("only " + std::to_string(op.survivors) +
                     " chunks survive on " +
                     std::to_string(members.alive_count(op.n)) +
                     " alive ranks, need k=" + std::to_string(cfg.k));
    if (auto why = op.rescue_from_remote()) return op.fail(*why);
  }
  if (auto why = op.refresh_metadata()) return op.fail(*why);
  op.reconstruct();
  op.refill(out);
  op.rep.resume_time = since(op.t0);
  op.restore_parity();
  op.recommit();
  op.drop_adopted_rows();
  fabric.barrier(op.act);
  op.rep.success = true;
  op.rep.detail = op.detail();
  return op.finish();
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
      fabric, keys::newest_flag_prefix(ns),
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
