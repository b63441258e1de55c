// Microbenchmark: point-to-point RTT over the real-socket transport, A/B
// on TransportOptions::tcp_nodelay. Every eccheck frame exchange ends in a
// tiny CRC-echo ack, so with Nagle enabled (tcp_nodelay=false) the ack can
// sit in the kernel until a delayed-ACK timer fires — on loopback the
// effect is small, but the A/B legs document that the option reaches the
// wire and give a reference point for cross-host deployments. A net_send
// is one full round trip (frame out, ack echoed back), so RTT == one
// iteration. The UDS leg is the no-Nagle baseline.
#include <benchmark/benchmark.h>

#include <atomic>
#include <memory>
#include <semaphore>
#include <string>
#include <thread>
#include <vector>

#include "bench/gbench_json.hpp"
#include "net/transport.hpp"

namespace {

using namespace eccheck;

net::TransportOptions bench_opts(bool nodelay) {
  net::TransportOptions o;
  o.connect_timeout = net::Millis(1000);
  o.connect_retries = 20;
  o.backoff_base = net::Millis(2);
  o.backoff_max = net::Millis(50);
  o.io_timeout = net::Millis(10000);
  o.tcp_nodelay = nodelay;
  return o;
}

/// A 2-rank transport pair plus a responder thread that answers one
/// net_send per release(); the sender's call blocks on the CRC-echo ack,
/// so the pair is naturally lock-stepped.
class PingPongRig {
 public:
  PingPongRig(bool tcp, bool nodelay) {
    const net::TransportOptions opts = bench_opts(nodelay);
    std::vector<net::Endpoint> eps;
    if (tcp) {
      eps.assign(2, net::Endpoint::tcp("127.0.0.1", 0));
    } else {
      char tmpl[] = "/tmp/eccheck-netbench-XXXXXX";
      dir_ = ::mkdtemp(tmpl) ? tmpl : "/tmp";
      for (int r = 0; r < 2; ++r)
        eps.push_back(net::Endpoint::uds(dir_ + "/r" + std::to_string(r) +
                                         ".sock"));
    }
    for (int r = 0; r < 2; ++r)
      ranks_.push_back(std::make_unique<net::SocketTransport>(r, eps, opts));
    if (tcp) {
      std::vector<net::Endpoint> real;
      for (auto& t : ranks_) real.push_back(t->listen_endpoint());
      for (auto& t : ranks_) t->set_peers(real);
    }
    responder_ = std::thread([this] {
      while (true) {
        rounds_.acquire();
        if (stop_.load(std::memory_order_acquire)) return;
        ranks_[1]->net_send(0, 1, bytes_, "rtt");
      }
    });
  }

  ~PingPongRig() {
    stop_.store(true, std::memory_order_release);
    rounds_.release();
    responder_.join();
    ranks_.clear();
    if (!dir_.empty()) (void)!std::system(("rm -rf " + dir_).c_str());
  }

  void round(std::size_t bytes) {
    bytes_ = bytes;
    rounds_.release();
    ranks_[0]->net_send(0, 1, bytes, "rtt");
  }

 private:
  std::string dir_;
  std::vector<std::unique_ptr<net::SocketTransport>> ranks_;
  std::thread responder_;
  std::counting_semaphore<> rounds_{0};
  std::atomic<bool> stop_{false};
  std::size_t bytes_ = 0;
};

void BM_TcpRoundTrip(benchmark::State& state) {
  const bool nodelay = state.range(0) != 0;
  const std::size_t bytes = static_cast<std::size_t>(state.range(1));
  PingPongRig rig(/*tcp=*/true, nodelay);
  for (auto _ : state) rig.round(bytes);
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes));
  state.SetLabel(nodelay ? "nodelay" : "nagle");
}
BENCHMARK(BM_TcpRoundTrip)
    ->Args({1, 64})
    ->Args({0, 64})
    ->Args({1, 4096})
    ->Args({0, 4096})
    ->Args({1, 1 << 16})
    ->Args({0, 1 << 16})
    ->UseRealTime();

void BM_UdsRoundTrip(benchmark::State& state) {
  const std::size_t bytes = static_cast<std::size_t>(state.range(0));
  PingPongRig rig(/*tcp=*/false, /*nodelay=*/true);
  for (auto _ : state) rig.round(bytes);
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_UdsRoundTrip)->Arg(64)->Arg(4096)->Arg(1 << 16)->UseRealTime();

/// A 2-rank pair moving one batch of back-to-back 64 KiB frames per round
/// (send_buffers), A/B over the ack window: W=1 is stop-and-wait (one RTT
/// per frame), wider windows keep W frames in flight so the acks overlap
/// the next frames' writes.
class BatchRig {
 public:
  static constexpr int kFrames = 16;
  static constexpr std::size_t kFrameBytes = 64 * 1024;

  explicit BatchRig(int window) {
    net::TransportOptions opts = bench_opts(/*nodelay=*/true);
    opts.ack_window = window;
    char tmpl[] = "/tmp/eccheck-netbench-XXXXXX";
    dir_ = ::mkdtemp(tmpl) ? tmpl : "/tmp";
    std::vector<net::Endpoint> eps;
    for (int r = 0; r < 2; ++r)
      eps.push_back(net::Endpoint::uds(dir_ + "/r" + std::to_string(r) +
                                       ".sock"));
    for (int r = 0; r < 2; ++r)
      ranks_.push_back(std::make_unique<net::SocketTransport>(r, eps, opts));
    for (int i = 0; i < kFrames; ++i) {
      const std::string key = "frame/" + std::to_string(i);
      ranks_[0]->store(0).put(key,
                              Buffer(kFrameBytes, Buffer::Init::kZeroed));
      pairs_.emplace_back(key, key);
    }
    responder_ = std::thread([this] {
      while (true) {
        rounds_.acquire();
        if (stop_.load(std::memory_order_acquire)) return;
        ranks_[1]->send_buffers(0, 1, pairs_);
      }
    });
  }

  ~BatchRig() {
    stop_.store(true, std::memory_order_release);
    rounds_.release();
    responder_.join();
    ranks_.clear();
    if (!dir_.empty()) (void)!std::system(("rm -rf " + dir_).c_str());
  }

  void batch() {
    rounds_.release();
    ranks_[0]->send_buffers(0, 1, pairs_);  // flushes the window
  }

 private:
  std::string dir_;
  std::vector<std::unique_ptr<net::SocketTransport>> ranks_;
  std::vector<std::pair<std::string, std::string>> pairs_;
  std::thread responder_;
  std::counting_semaphore<> rounds_{0};
  std::atomic<bool> stop_{false};
};

void BM_UdsBatchedFrames(benchmark::State& state) {
  const int window = static_cast<int>(state.range(0));
  BatchRig rig(window);
  for (auto _ : state) rig.batch();
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(BatchRig::kFrames * BatchRig::kFrameBytes));
  state.SetLabel("W=" + std::to_string(window));
}
BENCHMARK(BM_UdsBatchedFrames)->Arg(1)->Arg(4)->Arg(16)->UseRealTime();

}  // namespace

int main(int argc, char** argv) {
  return eccheck::bench::gbench_main("micro_transport", argc, argv);
}
