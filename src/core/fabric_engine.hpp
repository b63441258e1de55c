// The ECCheck save/load/prune/rollback protocol expressed against
// cluster::Fabric: the one implementation of its byte movement, which runs
// unchanged over the in-memory VirtualFabric (also the byte plane of the
// simulator's core::ECCheckEngine and GroupedECCheckEngine) and over real
// sockets (net::SocketTransport), one process per rank.
//
// Every function here is a *collective*: all ranks of the fabric call it
// with the same arguments, each executes the sides of the data movement it
// drives, and all return consistent results. On VirtualFabric (one process
// drives all ranks) a single call performs the whole protocol.
//
// Bit-exactness contract: after fabric_save, each data row holds
// pack_packets of its workers, each parity packet equals CrsCodec::encode
// of its stripe (GF addition is XOR, so XOR-reducing per-participant
// partials gives the encoder's bytes), each node's sums are the per-packet
// CRC-64s of its row, and every node (and, with the flush, the remote
// store) holds every worker's metadata and tensor-keys blobs. fabric_load
// (workflow A / workflow B / remote fallback) returns the saved shards
// bit-exact and rebuilds those same stores. A delta save leaves the newest
// version's stores exactly as a full save would; its base version keeps an
// undo overlay instead of a row, which fabric_load of that version first
// turns back into the row it committed (materialize_version). Every fabric
// produces the same stores. The differential suite
// (tests/test_engine_fabric.cpp) checks the closed form on VirtualFabric
// and compares sockets against VirtualFabric.
//
// Failure model: a dead / unreachable peer surfaces as CheckFailure from
// the fabric mid-call. fabric_save makes no durability claim for the
// attempted version in that case — the caller (FabricSession) rolls the
// torn version back locally and recovery falls back to an older committed
// version, the in-memory analogue of the paper's torn-save handling.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "ckpt/engine.hpp"
#include "cluster/fabric.hpp"
#include "core/eccheck_engine.hpp"

namespace eccheck::core {

/// The protocol's stages as a save reports them. A save stamps
/// SaveReport::breakdown[stage_key(s)] with the time from its start to the
/// end of stage s, on the byte plane (fabric_save) and in the simulator's
/// schedule (ECCheckEngine::schedule_save) alike; DESIGN.md §8 maps each
/// stage to its step function, span and benchmark metric.
enum class Stage {
  kSnapshot,           ///< step 1: the snapshot, whose end is the stall
  kMetadataBroadcast,  ///< step 2: every worker's blobs on every node
  kDeltaPatch,         ///< step 3 of a delta save: Δ shipped and folded in
  kEncodePipeline,     ///< step 3 of a full save: encode → reduce → P2P
  kRemoteFlush,        ///< step 4: rows and metadata in remote storage
};

constexpr const char* stage_key(Stage stage) {
  switch (stage) {
    case Stage::kSnapshot: return "step1_snapshot";
    case Stage::kMetadataBroadcast: return "step2_metadata_broadcast";
    case Stage::kDeltaPatch: return "step3_delta_patch";
    case Stage::kEncodePipeline: return "step3_encode_pipeline";
    case Stage::kRemoteFlush: return "step4_remote_flush";
  }
  return "";
}

/// Degraded-mode membership: which fabric ranks are currently alive.
///
/// An empty `alive` list is full membership — every rank participates and
/// the protocol below is bit-identical to its historical behaviour. With a
/// non-empty list, dead ranks are excluded from every collective and their
/// protocol roles (staging the shards of their workers, contributing parity
/// partials, hosting reconstructed rows during load) are *adopted* by the
/// lowest alive rank. Chunk rows whose home node is dead are simply not
/// stored on save — the stripe keeps n_alive ≥ k rows, which is exactly the
/// paper's reduced-redundancy degraded window: any k of them still decode.
///
/// The adopted workers' shard *content* must be supplied by the caller (the
/// checkpoint service regenerates it deterministically); the engine only
/// defines where it is staged and who moves it.
struct Membership {
  std::vector<int> alive;  ///< sorted ascending, unique; empty = all alive

  static Membership of(std::vector<int> alive_nodes) {
    std::sort(alive_nodes.begin(), alive_nodes.end());
    alive_nodes.erase(std::unique(alive_nodes.begin(), alive_nodes.end()),
                      alive_nodes.end());
    return Membership{std::move(alive_nodes)};
  }

  bool full() const { return alive.empty(); }
  bool is_alive(int node) const {
    return full() || std::binary_search(alive.begin(), alive.end(), node);
  }
  /// The rank that stands in for dead ranks' local work.
  int adopter() const {
    ECC_CHECK_MSG(!alive.empty(), "membership with no alive rank");
    return alive.front();
  }
  /// Where node's per-node protocol state lives: itself when alive, the
  /// adopter when dead.
  int site(int node) const { return is_alive(node) ? node : adopter(); }
  int alive_count(int world) const {
    return full() ? world : static_cast<int>(alive.size());
  }
  /// Validate against a world size; throws on out-of-range entries.
  void check(int world) const {
    for (int node : alive)
      ECC_CHECK_MSG(node >= 0 && node < world,
                    "membership names rank " << node << " outside world "
                                             << world);
  }
};

/// Save one checkpoint version. `shards` holds the shards of the workers
/// this process *sites* (drives directly, plus — on the adopter — the
/// workers of dead ranks), ascending by global worker index; see
/// fabric_sited_workers. With full membership that is exactly the driven
/// workers: a VirtualFabric caller passes all W = n·g shards; a socket rank
/// passes its own g. All entries non-null and alive for the duration of the
/// call. cfg.k + cfg.m must equal the fabric world size, and k must divide
/// W. With a degraded membership (alive ≥ k required), chunk rows homed on
/// dead ranks are skipped — the saved stripe carries reduced redundancy of
/// alive − k spare rows.
ckpt::SaveReport fabric_save(cluster::Fabric& fabric, const ECCheckConfig& cfg,
                             const std::vector<const dnn::StateDict*>& shards,
                             std::int64_t version,
                             const Membership& members = Membership());

/// The refill step's staging budget. fabric_load ships a worker's live
/// packets from its data node in windows of max(1, kRefillBatchBytes / P)
/// packets, one send_buffers batch each, and the worker's site unpacks and
/// erases a window before the next ships: a load stages at most one window,
/// whatever the shard size, at the cost of one ack round trip per window.
inline constexpr std::size_t kRefillBatchBytes = std::size_t{1} << 20;

/// Load `version` into `out` (resized to the sited workers, same ordering
/// as fabric_save's `shards` — so during a degraded window the adopter
/// also reconstructs and returns the dead ranks' workers, via workflow-B
/// decode). The worker count is rediscovered from stored metadata, so a
/// freshly replaced rank needs no prior state. Returns success=false
/// consistently on every rank when fewer than k chunks survive and the
/// remote store cannot make up the difference. A dead rank must either be
/// excluded via `members` or have been replaced (fresh process / store).
ckpt::LoadReport fabric_load(cluster::Fabric& fabric, const ECCheckConfig& cfg,
                             std::int64_t version,
                             std::vector<dnn::StateDict>& out,
                             const Membership& members = Membership());

/// Erase every version older than `oldest_to_keep` from the driven (alive)
/// ranks' stores, and (from the site of rank 0) from the remote store.
/// Purely local per rank — no collectives, safe to call with divergent
/// views.
void fabric_prune(cluster::Fabric& fabric, const std::string& key_namespace,
                  std::int64_t oldest_to_keep,
                  const Membership& members = Membership());

/// Erase every key of `version` — durable and staging — from the driven
/// alive ranks' stores: the torn-save rollback (FabricSession::save). A
/// base version whose row a delta save of `version` moved is first restored
/// from its undo overlay, or dropped when a slot's log does not parse. Local per rank like fabric_prune. A rank the
/// fabric lost mid-save is skipped; every surviving one is still scrubbed.
/// The remote store is left alone: its commit marker is the flush's last
/// write, so a flush torn before it stays invisible there.
void fabric_rollback(cluster::Fabric& fabric, const std::string& key_namespace,
                     std::int64_t version,
                     const Membership& members = Membership());

/// Give `version` its own chunk row on `store` again when a later delta
/// save moved it on: follow the moved markers to the version holding the
/// row, copy that row and apply the undo overlays newest to oldest, which
/// yields the bytes `version` committed. Then drop `version`'s overlay. A
/// no-op for a version that holds its row. When a slot's undo log does not
/// parse, no row is stored, so the row reads as lost and the load decodes
/// it. Local, not a collective; fabric_load runs it on every driven alive
/// rank.
void materialize_version(cluster::Store& store, const std::string& ns,
                         std::int64_t version);

/// Collective: the newest version for which any alive rank holds a commit
/// marker, in its local or its remote store. 0 when nothing was ever
/// committed.
std::int64_t fabric_newest_version(cluster::Fabric& fabric,
                                   const ECCheckConfig& cfg,
                                   const Membership& members = Membership());

struct FabricRecoverResult {
  ckpt::LoadReport report;
  std::int64_t version = 0;  ///< 0 = nothing recoverable
};

/// Collective: discover the newest committed version and load it, falling
/// back through at most `retain_versions` older versions (0 = unbounded)
/// when the newest is unrecoverable (FabricSession::load, and so also
/// Session::load).
FabricRecoverResult fabric_recover(cluster::Fabric& fabric,
                                   const ECCheckConfig& cfg,
                                   int retain_versions,
                                   std::vector<dnn::StateDict>& out,
                                   const Membership& members = Membership());

/// The workers this process *sites* under `members`, ascending: every
/// worker whose node's site (itself when alive, the adopter when dead) is
/// driven by this process. This is the index set of fabric_save's `shards`
/// and fabric_load's `out`: under full membership, the workers of the
/// ranks this process drives.
std::vector<int> fabric_sited_workers(cluster::Fabric& fabric,
                                      int gpus_per_node,
                                      const Membership& members);

}  // namespace eccheck::core
