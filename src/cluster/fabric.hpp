// Fabric: the shared helper surface the checkpoint protocol moves bytes
// through, abstracted away from *how* the bytes move.
//
// Two implementations exist:
//  * VirtualFabric (here) — wraps a VirtualCluster (or a window of its
//    nodes): one process drives every rank and bytes move in-memory. This
//    is the reference implementation, deterministic, instrumentable and
//    fault-injectable, and the byte plane of the simulator's engines.
//  * net::SocketTransport (src/net/) — a real TCP / Unix-domain-socket
//    transport: each process drives exactly one rank and the same calls are
//    made SPMD-style by every participant, like an MPI program.
//
// The split is expressed by drives(): a helper call names global ranks, and
// each fabric executes the side(s) of the operation belonging to ranks it
// drives. Code written against Fabric (core/fabric_engine.cpp, the
// differential tests) runs unchanged on both and must produce byte-identical
// stores — that is the contract the differential suite enforces.
//
// Error model: every implementation reports unreachable peers, mid-operation
// deaths, timeouts and integrity mismatches by throwing the repo-wide
// CheckFailure, so Session / FailureDetector / chaos-style supervision works
// the same over a simulated or a real wire.
#pragma once

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/collectives.hpp"

namespace eccheck::cluster {

class Fabric {
 public:
  virtual ~Fabric() = default;

  /// Implementation tag for traces/log lines: "virtual", "socket[uds]", …
  virtual std::string fabric_name() const = 0;

  virtual int world_size() const = 0;

  /// True when the calling process holds rank `node`'s store and executes
  /// its side of collective calls. VirtualFabric drives every rank; a
  /// SocketTransport drives exactly one.
  virtual bool drives(int node) const = 0;

  /// The single driven rank, or -1 when this fabric drives all of them.
  virtual int self_rank() const = 0;

  /// Volatile store of a driven rank (throws for ranks not driven here and
  /// for dead nodes, mirroring VirtualCluster::host()).
  virtual Store& store(int node) = 0;

  // ---- fabric helpers ----------------------------------------------------
  // Collective SPMD semantics: every participant whose rank this fabric
  // drives executes its side; ranks not named are no-ops. All calls block
  // until the driven side of the transfer completed (or throw CheckFailure).

  /// Move `bytes` from src to dst without touching any store (pure traffic:
  /// interference probes, cost-model calibration).
  virtual void net_send(int src, int dst, std::size_t bytes,
                        const std::string& label = "send") = 0;

  /// Copy store(src)[src_key] into store(dst)[dst_key]. The receiver may
  /// overwrite a same-size buffer already stored under dst_key in place, so
  /// after a failed transfer dst_key may be absent.
  virtual void send_buffer(int src, int dst, const std::string& src_key,
                           const std::string& dst_key) = 0;

  /// Batched send_buffer over one (src, dst) pair: copy every
  /// store(src)[pair.first] into store(dst)[pair.second], in order.
  /// Semantically equivalent to calling send_buffer per pair, but a
  /// pipelining transport keeps several frames in flight and reconciles
  /// their acks once at the end, which is why batch-shaped protocol loops
  /// (step 3's relocation, or the load's refill, which ships each worker's
  /// packets one constant-size window per batch) declare the batch instead
  /// of looping themselves. No default body: a decorator that forgot to
  /// forward the batch would silently de-batch every save.
  virtual void send_buffers(
      int src, int dst,
      const std::vector<std::pair<std::string, std::string>>& pairs) = 0;

  /// Copy store(root)[key] to every other node in `nodes` under `key`.
  virtual void broadcast(const std::vector<int>& nodes, int root,
                         const std::string& key) = 0;

  /// Every node contributes store(node)[key_of(node)]; afterwards every
  /// node holds all contributions.
  virtual void all_gather(const std::vector<int>& nodes,
                          const std::function<std::string(int)>& key_of) = 0;

  /// XOR all-reduce of equal-size buffers store(node)[key]. No checkpoint
  /// path calls it (fabric_save sends parity partials point to point); the
  /// collective tests and the benchmark's timed fabric wrapper still do.
  virtual void ring_all_reduce_xor(const std::vector<int>& nodes,
                                   const std::string& key) = 0;

  /// Persist store(node)[key] to remote storage under `remote_key`.
  virtual void remote_write(int node, const std::string& key,
                            const std::string& remote_key) = 0;

  /// Fetch remote storage `remote_key` into store(node)[key].
  virtual void remote_read(int node, const std::string& remote_key,
                           const std::string& key) = 0;

  // ---- remote-store metadata ---------------------------------------------
  // Local (non-collective) queries against the persistent remote store, as
  // seen by a driven rank. The engine uses them for versioned-namespace
  // discovery, pruning, and the torn-save fallback probe. A fabric whose
  // remote store is disabled answers as if it were empty.

  /// True when the remote store holds `remote_key`. `node` must be driven.
  virtual bool remote_contains(int node, const std::string& remote_key) = 0;

  /// All remote keys starting with `prefix`, sorted. `node` must be driven.
  virtual std::vector<std::string> remote_list(int node,
                                               const std::string& prefix) = 0;

  /// Delete `remote_key` from the remote store (no-op when absent).
  virtual void remote_erase(int node, const std::string& remote_key) = 0;

  /// Byte/operation counters recorded by this fabric (shared with the
  /// simulator's registry for VirtualFabric) — lets engine reports attribute
  /// traffic the same way on both fabrics.
  virtual obs::StatsRegistry& stats() = 0;

  /// All driven ranks in `nodes` rendezvous; returns when every participant
  /// reached the barrier.
  virtual void barrier(const std::vector<int>& nodes) = 0;
};

/// The simulated implementation: one process drives all ranks of a
/// VirtualCluster, or of a window of its nodes; data moves through the
/// in-memory helpers and collectives, so the fault hook fires on every
/// transfer. The helpers also charge the cluster's timeline, which the
/// simulator's engines discard: their virtual time comes from their own
/// schedule (core/eccheck_engine.hpp).
class VirtualFabric final : public Fabric {
 public:
  explicit VirtualFabric(VirtualCluster& cluster)
      : VirtualFabric(cluster, 0, cluster.num_nodes()) {}

  /// The `count` nodes from `first` on, as ranks 0..count-1 (one group of
  /// the grouped engine).
  VirtualFabric(VirtualCluster& cluster, int first, int count)
      : c_(cluster), first_(first), count_(count) {
    ECC_CHECK(first >= 0 && count >= 1 && first + count <= c_.num_nodes());
  }

  std::string fabric_name() const override { return "virtual"; }
  int world_size() const override { return count_; }
  bool drives(int node) const override { return node >= 0 && node < count_; }
  int self_rank() const override { return -1; }
  Store& store(int node) override { return c_.host(at(node)); }

  void net_send(int src, int dst, std::size_t bytes,
                const std::string& label) override {
    c_.net_send(at(src), at(dst), bytes, {}, false, label);
  }
  void send_buffer(int src, int dst, const std::string& src_key,
                   const std::string& dst_key) override {
    c_.send_buffer(at(src), at(dst), src_key, dst_key, {});
  }
  /// The plain per-pair loop: exactly send_buffer's virtual timeline.
  void send_buffers(
      int src, int dst,
      const std::vector<std::pair<std::string, std::string>>& pairs) override {
    for (const auto& [src_key, dst_key] : pairs)
      send_buffer(src, dst, src_key, dst_key);
  }
  void broadcast(const std::vector<int>& nodes, int root,
                 const std::string& key) override {
    cluster::broadcast(c_, at(nodes), at(root), key);
  }
  void all_gather(const std::vector<int>& nodes,
                  const std::function<std::string(int)>& key_of) override {
    cluster::all_gather(c_, at(nodes),
                        [&](int node) { return key_of(node - first_); });
  }
  void ring_all_reduce_xor(const std::vector<int>& nodes,
                           const std::string& key) override {
    cluster::ring_all_reduce_xor(c_, at(nodes), key);
  }
  void remote_write(int node, const std::string& key,
                    const std::string& remote_key) override {
    c_.flush_to_remote(at(node), key, remote_key, {});
  }
  void remote_read(int node, const std::string& remote_key,
                   const std::string& key) override {
    c_.fetch_from_remote(at(node), remote_key, key, {});
  }
  bool remote_contains(int node, const std::string& remote_key) override {
    ECC_CHECK(drives(node));
    return c_.remote().contains(remote_key);
  }
  std::vector<std::string> remote_list(int node,
                                       const std::string& prefix) override {
    ECC_CHECK(drives(node));
    return c_.remote().keys_with_prefix(prefix);
  }
  void remote_erase(int node, const std::string& remote_key) override {
    ECC_CHECK(drives(node));
    c_.remote().erase(remote_key);
  }
  obs::StatsRegistry& stats() override { return c_.stats(); }
  void barrier(const std::vector<int>&) override {
    // Single process, single thread: every driven rank already reached this
    // point; emit the zero-duration join.
    c_.barrier({});
  }

 private:
  /// Rank → cluster node.
  int at(int node) const {
    ECC_CHECK_MSG(drives(node), "rank " << node << " outside a " << count_
                                        << "-node virtual fabric");
    return first_ + node;
  }
  std::vector<int> at(const std::vector<int>& nodes) const {
    std::vector<int> out;
    for (int node : nodes) out.push_back(at(node));
    return out;
  }

  VirtualCluster& c_;
  int first_;
  int count_;
};

}  // namespace eccheck::cluster
