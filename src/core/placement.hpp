// Data/parity node selection and XOR-reduction planning (paper §IV-B).
//
// Terminology (paper §III-B): W = n·g workers each own one checkpoint data
// packet per buffer slot. The W packets are split into k equal *data chunks*
// (chunk c ↔ workers [c·W/k, (c+1)·W/k)); m parity chunks are derived via
// CRS. Each node stores exactly one chunk, so the choice of which physical
// nodes act as data nodes decides how many packets must move in the final
// P2P step. ECCheck picks, for every logical data chunk, the physical node
// whose worker interval overlaps it the most — the "maximum overlap interval
// pairing" solved with a sweep line over sorted interval endpoints.
//
// Reduction groups: the workers with equal relative index j inside their
// data chunks form reduction group j (W/k groups of k workers); each group
// XOR-reduces its k encoded packets into m parity packets. The reduction
// *target* of each parity row is chosen so results land on parity nodes
// whenever possible (§IV-B2: direct assignment / ⌊k/m⌋ spacing / round
// robin, by the relation of k and m). The target only orders the
// simulator engine's chain reduce; the fabric engine (core/fabric_engine)
// ships every partial straight to the parity node. Both move
// actual_comm_volume, less the all-padding slots the fabric engine never
// ships (see actual_comm_volume).
#pragma once

#include <vector>

#include "common/check.hpp"

namespace eccheck::core {

/// Half-open worker-index interval [begin, end).
struct IndexInterval {
  int begin = 0;
  int end = 0;
  int length() const { return end - begin; }
  friend bool operator==(const IndexInterval&, const IndexInterval&) = default;
};

inline int overlap(const IndexInterval& a, const IndexInterval& b) {
  return std::max(0, std::min(a.end, b.end) - std::max(a.begin, b.begin));
}

/// For each interval in `data`, the index of the `origin` interval with the
/// largest overlap, with each origin interval used at most once (conflicts
/// resolved by overlap size, then lower indices). Both inputs must be
/// disjoint and sorted. O((|origin|+|data|) log(|origin|+|data|)).
std::vector<int> max_overlap_pairing(const std::vector<IndexInterval>& origin,
                                     const std::vector<IndexInterval>& data);

struct PlacementConfig {
  int num_nodes = 4;
  int gpus_per_node = 1;
  int k = 2;  ///< data nodes
  int m = 2;  ///< parity nodes (k + m == num_nodes)
};

struct ReductionOp {
  int group = 0;                  ///< reduction group j ∈ [0, W/k)
  int parity_row = 0;             ///< r ∈ [0, m)
  std::vector<int> participants;  ///< the k workers holding encoded packets
  int target_worker = 0;          ///< where the XOR result accumulates
  int dest_node = 0;              ///< parity node that must end up storing it
};

struct P2PTransfer {
  enum class Kind { kDataPacket, kParityPacket };
  Kind kind;
  int chunk = 0;         ///< data chunk c or parity row r
  int packet_owner = 0;  ///< worker whose packet slot this is
  int src_node = 0;
  int dst_node = 0;
};

struct Placement {
  PlacementConfig config;
  std::vector<int> data_nodes;    ///< data chunk c → physical node
  std::vector<int> parity_nodes;  ///< parity row r → physical node
  std::vector<ReductionOp> reductions;   ///< all W/k · m reduction ops
  std::vector<P2PTransfer> transfers;    ///< inter-node moves only

  int world_size() const { return config.num_nodes * config.gpus_per_node; }
  int workers_per_chunk() const { return world_size() / config.k; }

  /// Data chunk that worker w's packet belongs to.
  int chunk_of_worker(int w) const { return w / workers_per_chunk(); }

  bool is_data_node(int node) const;
  bool is_parity_node(int node) const;

  /// Generator row stored by `node`: chunk index c for data nodes, k + r for
  /// parity nodes.
  int generator_row_of_node(int node) const;
  /// The node storing generator row `row`: the inverse of
  /// generator_row_of_node.
  int node_of_row(int row) const {
    return row < config.k
               ? data_nodes[static_cast<std::size_t>(row)]
               : parity_nodes[static_cast<std::size_t>(row - config.k)];
  }
};

/// Worker w's hosting node.
inline int node_of(const PlacementConfig& cfg, int worker) {
  return worker / cfg.gpus_per_node;
}

/// Compute the full plan: node roles via sweep-line pairing, reduction
/// targets via the §IV-B2 rules, and the resulting inter-node P2P transfers.
Placement plan_placement(const PlacementConfig& cfg);

/// plan_placement of n nodes with g GPUs each, k data and m parity rows.
inline Placement plan_for(int n, int g, int k, int m) {
  return plan_placement({n, g, k, m});
}

/// Communication volume (bytes) for one checkpoint, with per-worker shard
/// size `s`. `nominal` uses the paper's accounting (every reduction hop and
/// every packet relocation counted, = m·s·W with optimal placement);
/// `actual` drops hops between co-located workers. A reduction's actual
/// hops are k − [dest_node hosts a participant], whether they run as the
/// simulator's chain or as the fabric engine's direct sends to dest_node.
/// Both count every one of a worker's B packets, padding included; the
/// simulator engine moves exactly that. A full fabric_save ships no packet
/// slot that is padding for every worker it covers, so it moves
/// actual.total() minus those dead slots — exactly actual.total() when
/// all workers need the same packet count (tests/test_engine_fabric pins
/// both).
struct CommVolume {
  double xor_reduction_bytes = 0;
  double p2p_bytes = 0;
  double total() const { return xor_reduction_bytes + p2p_bytes; }
};
CommVolume nominal_comm_volume(const Placement& p, double shard_bytes);
CommVolume actual_comm_volume(const Placement& p, double shard_bytes);

}  // namespace eccheck::core
