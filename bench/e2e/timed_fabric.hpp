// TimedFabric: a transparent cluster::Fabric decorator that times every
// fabric operation, modelled on cluster::FaultyFabric.
//
// The e2e benchmark wraps each rank's SocketTransport in one of these so
// the time a save or load spends inside the fabric can be split by
// operation kind without instrumenting the engine. Every call forwards to
// the wrapped fabric unchanged (same arguments, same order, same
// exceptions), fabric_name() reports the inner name so engine span names do
// not change, and store access is not timed — the decorator must leave
// stores, digests and stats byte-identical (test_timed_fabric checks this
// over VirtualFabric). Each timed call also opens a bench-owned
// obs::ScopedSpan ("e2e.fabric.<op>"), which costs one relaxed atomic load
// while the tracer is disabled.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "cluster/fabric.hpp"
#include "obs/tracer.hpp"

namespace eccheck::bench {

/// Timed operation kinds. kOther covers net_send and the remote-store
/// calls, which the benchmark counts in the fabric total but does not
/// report separately.
enum class FabricOp : int {
  kSendBuffer,
  kSendBuffers,
  kBroadcast,
  kAllGather,
  kRingAllReduceXor,
  kBarrier,
  kOther,
};
inline constexpr int kFabricOps = 7;

inline const char* fabric_op_name(FabricOp op) {
  static constexpr const char* kNames[kFabricOps] = {
      "send_buffer", "send_buffers",        "broadcast", "all_gather",
      "ring_all_reduce_xor", "barrier", "other"};
  return kNames[static_cast<int>(op)];
}

/// "e2e.fabric.<op>", the bench-owned span around each timed call.
inline const std::string& fabric_span_name(FabricOp op) {
  static const std::array<std::string, kFabricOps> kNames = [] {
    std::array<std::string, kFabricOps> names;
    for (int k = 0; k < kFabricOps; ++k)
      names[static_cast<std::size_t>(k)] =
          std::string("e2e.fabric.") + fabric_op_name(static_cast<FabricOp>(k));
    return names;
  }();
  return kNames[static_cast<std::size_t>(op)];
}

/// Seconds spent inside, and calls made to, each operation kind.
struct FabricTimes {
  std::array<double, kFabricOps> seconds{};
  std::array<std::uint64_t, kFabricOps> calls{};

  double total_s() const {
    double s = 0;
    for (double v : seconds) s += v;
    return s;
  }
  FabricTimes& operator+=(const FabricTimes& o) {
    for (std::size_t i = 0; i < kFabricOps; ++i) {
      seconds[i] += o.seconds[i];
      calls[i] += o.calls[i];
    }
    return *this;
  }
  friend FabricTimes operator-(FabricTimes a, const FabricTimes& b) {
    for (std::size_t i = 0; i < kFabricOps; ++i) {
      a.seconds[i] -= b.seconds[i];
      a.calls[i] -= b.calls[i];
    }
    return a;
  }
};

class TimedFabric final : public cluster::Fabric {
 public:
  explicit TimedFabric(cluster::Fabric& inner) : inner_(&inner) {}

  /// Cumulative since construction; callers difference two snapshots.
  const FabricTimes& times() const { return times_; }

  // ---- cluster::Fabric ---------------------------------------------------
  std::string fabric_name() const override { return inner_->fabric_name(); }
  int world_size() const override { return inner_->world_size(); }
  bool drives(int node) const override { return inner_->drives(node); }
  int self_rank() const override { return inner_->self_rank(); }
  cluster::Store& store(int node) override { return inner_->store(node); }

  void net_send(int src, int dst, std::size_t bytes,
                const std::string& label) override {
    timed(FabricOp::kOther, [&] { inner_->net_send(src, dst, bytes, label); });
  }
  void send_buffer(int src, int dst, const std::string& src_key,
                   const std::string& dst_key) override {
    timed(FabricOp::kSendBuffer,
          [&] { inner_->send_buffer(src, dst, src_key, dst_key); });
  }
  void send_buffers(
      int src, int dst,
      const std::vector<std::pair<std::string, std::string>>& pairs) override {
    timed(FabricOp::kSendBuffers,
          [&] { inner_->send_buffers(src, dst, pairs); });
  }
  void broadcast(const std::vector<int>& nodes, int root,
                 const std::string& key) override {
    timed(FabricOp::kBroadcast, [&] { inner_->broadcast(nodes, root, key); });
  }
  void all_gather(const std::vector<int>& nodes,
                  const std::function<std::string(int)>& key_of) override {
    timed(FabricOp::kAllGather, [&] { inner_->all_gather(nodes, key_of); });
  }
  void ring_all_reduce_xor(const std::vector<int>& nodes,
                           const std::string& key) override {
    timed(FabricOp::kRingAllReduceXor,
          [&] { inner_->ring_all_reduce_xor(nodes, key); });
  }
  void remote_write(int node, const std::string& key,
                    const std::string& remote_key) override {
    timed(FabricOp::kOther,
          [&] { inner_->remote_write(node, key, remote_key); });
  }
  void remote_read(int node, const std::string& remote_key,
                   const std::string& key) override {
    timed(FabricOp::kOther,
          [&] { inner_->remote_read(node, remote_key, key); });
  }
  bool remote_contains(int node, const std::string& remote_key) override {
    bool found = false;
    timed(FabricOp::kOther,
          [&] { found = inner_->remote_contains(node, remote_key); });
    return found;
  }
  std::vector<std::string> remote_list(int node,
                                       const std::string& prefix) override {
    std::vector<std::string> keys;
    timed(FabricOp::kOther, [&] { keys = inner_->remote_list(node, prefix); });
    return keys;
  }
  void remote_erase(int node, const std::string& remote_key) override {
    timed(FabricOp::kOther, [&] { inner_->remote_erase(node, remote_key); });
  }
  obs::StatsRegistry& stats() override { return inner_->stats(); }
  void barrier(const std::vector<int>& nodes) override {
    timed(FabricOp::kBarrier, [&] { inner_->barrier(nodes); });
  }

 private:
  /// Run `body` and charge its wall time to `op` — also when it throws, so
  /// a failed collective still shows where the time went.
  template <typename Body>
  void timed(FabricOp op, Body&& body) {
    obs::ScopedSpan span(fabric_span_name(op));
    struct Charge {
      FabricTimes& t;
      std::size_t i;
      std::chrono::steady_clock::time_point t0;
      ~Charge() {
        t.seconds[i] += std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
        t.calls[i] += 1;
      }
    } charge{times_, static_cast<std::size_t>(op),
             std::chrono::steady_clock::now()};
    body();
  }

  cluster::Fabric* inner_;
  FabricTimes times_;
};

}  // namespace eccheck::bench
