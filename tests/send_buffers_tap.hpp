// Test-only Fabric decorator shared by the engine and delta suites.
//
// SendBuffersTap passes every call through to the wrapped fabric, runs a
// hook ahead of each send_buffers call — to record the batch, or to throw
// CheckFailure, the signal a peer dying mid-batch produces — and of each
// single send_buffer call, a hook after each send_buffers call that
// returned, a hook ahead of every transfer and collective call (to kill at
// an exact op index), and counts ring all-reduce calls.
#pragma once

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "cluster/fabric.hpp"

namespace eccheck::testutil {

using KeyPairs = std::vector<std::pair<std::string, std::string>>;

class SendBuffersTap final : public cluster::Fabric {
 public:
  explicit SendBuffersTap(cluster::Fabric& inner) : inner_(&inner) {}

  std::function<void(int src, int dst, const KeyPairs& pairs)>
      before_send_buffers;
  std::function<void(int src, int dst, const KeyPairs& pairs)>
      after_send_buffers;
  std::function<void(int src, int dst, const std::string& src_key,
                     const std::string& dst_key)>
      before_send_buffer;
  /// Runs ahead of every call that moves bytes or synchronizes ranks,
  /// named by its Fabric method, before the more specific hooks above.
  std::function<void(const char* op)> before_op;
  int ring_calls = 0;

  std::string fabric_name() const override { return inner_->fabric_name(); }
  int world_size() const override { return inner_->world_size(); }
  bool drives(int node) const override { return inner_->drives(node); }
  int self_rank() const override { return inner_->self_rank(); }
  cluster::Store& store(int node) override { return inner_->store(node); }
  void net_send(int src, int dst, std::size_t bytes,
                const std::string& label) override {
    inner_->net_send(src, dst, bytes, label);
  }
  void send_buffer(int src, int dst, const std::string& src_key,
                   const std::string& dst_key) override {
    op("send_buffer");
    if (before_send_buffer) before_send_buffer(src, dst, src_key, dst_key);
    inner_->send_buffer(src, dst, src_key, dst_key);
  }
  void send_buffers(int src, int dst, const KeyPairs& pairs) override {
    op("send_buffers");
    if (before_send_buffers) before_send_buffers(src, dst, pairs);
    inner_->send_buffers(src, dst, pairs);
    if (after_send_buffers) after_send_buffers(src, dst, pairs);
  }
  void broadcast(const std::vector<int>& nodes, int root,
                 const std::string& key) override {
    op("broadcast");
    inner_->broadcast(nodes, root, key);
  }
  void all_gather(const std::vector<int>& nodes,
                  const std::function<std::string(int)>& key_of) override {
    op("all_gather");
    inner_->all_gather(nodes, key_of);
  }
  void ring_all_reduce_xor(const std::vector<int>& nodes,
                           const std::string& key) override {
    op("ring_all_reduce_xor");
    ++ring_calls;
    inner_->ring_all_reduce_xor(nodes, key);
  }
  void remote_write(int node, const std::string& key,
                    const std::string& remote_key) override {
    op("remote_write");
    inner_->remote_write(node, key, remote_key);
  }
  void remote_read(int node, const std::string& remote_key,
                   const std::string& key) override {
    op("remote_read");
    inner_->remote_read(node, remote_key, key);
  }
  bool remote_contains(int node, const std::string& remote_key) override {
    return inner_->remote_contains(node, remote_key);
  }
  std::vector<std::string> remote_list(int node,
                                       const std::string& prefix) override {
    return inner_->remote_list(node, prefix);
  }
  void remote_erase(int node, const std::string& remote_key) override {
    inner_->remote_erase(node, remote_key);
  }
  obs::StatsRegistry& stats() override { return inner_->stats(); }
  void barrier(const std::vector<int>& nodes) override {
    op("barrier");
    inner_->barrier(nodes);
  }

 private:
  void op(const char* name) {
    if (before_op) before_op(name);
  }

  cluster::Fabric* inner_;
};

}  // namespace eccheck::testutil
