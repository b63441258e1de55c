// Differential suite for the real-socket transport: every fabric helper is
// exercised over net::SocketTransport (thread-per-rank, Unix-domain
// loopback) and over cluster::VirtualFabric, and the resulting per-rank
// stores must be byte-identical — the central contract of cluster::Fabric.
// Also covers the peer-death contract (CheckFailure within the timeout
// budget, never a hang), the ephemeral-port TCP handshake, and the
// CRC-trailered persistent remote store. Peer replacement via reset_peer
// is covered end to end by test_engine_fabric's socket session cycle.
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <memory>
#include <filesystem>
#include <fstream>
#include <functional>
#include <latch>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "cluster/fabric.hpp"
#include "common/crc64.hpp"
#include "common/rng.hpp"
#include "net/transport.hpp"

namespace eccheck {
namespace {

namespace fs = std::filesystem;

/// Scratch dir for sockets + remote files, removed on destruction.
struct TempDir {
  std::string path;
  TempDir() {
    char tmpl[] = "/tmp/eccheck-nettest-XXXXXX";
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
  o.connect_retries = 20;  // absorb thread start-up skew
  o.backoff_base = net::Millis(2);
  o.backoff_max = net::Millis(50);
  o.io_timeout = net::Millis(5000);
  o.remote_dir = dir.path + "/remote";
  return o;
}

using RankBody = std::function<void(int rank)>;

/// Run `body(rank)` on one thread per rank; rethrow the first failure.
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

StoreImage snapshot(cluster::Store& s) {
  StoreImage img;
  for (const std::string& key : s.keys_with_prefix(""))
    img.emplace(key, s.get(key).clone());
  return img;
}

void expect_identical(const StoreImage& socket_img, const StoreImage& ref_img,
                      int rank) {
  ASSERT_EQ(socket_img.size(), ref_img.size()) << "rank " << rank;
  auto a = socket_img.begin();
  auto b = ref_img.begin();
  for (; a != socket_img.end(); ++a, ++b) {
    EXPECT_EQ(a->first, b->first) << "rank " << rank;
    EXPECT_TRUE(a->second == b->second)
        << "rank " << rank << " key '" << a->first << "' differs";
  }
}

/// The fabric workout used for the differential comparison: every helper,
/// odd sizes included, expressed purely SPMD against cluster::Fabric.
void exercise_fabric(cluster::Fabric& f, int world) {
  std::vector<int> all;
  for (int i = 0; i < world; ++i) all.push_back(i);

  // Seed every rank with deterministic blobs (odd ring size on purpose).
  for (int n : all) {
    if (!f.drives(n)) continue;
    Buffer mine(1021, Buffer::Init::kUninitialized);
    fill_random(mine.span(), 0xABC0 + static_cast<std::uint64_t>(n));
    f.store(n).put("mine/" + std::to_string(n), std::move(mine));
    Buffer ring(397, Buffer::Init::kUninitialized);
    fill_random(ring.span(), 0x5176 + static_cast<std::uint64_t>(n));
    f.store(n).put("ring", std::move(ring));
  }
  if (f.drives(0)) {
    Buffer root(777, Buffer::Init::kUninitialized);
    fill_random(root.span(), 0xB0CA57);
    f.store(0).put("root", std::move(root));
  }

  f.broadcast(all, 0, "root");
  f.all_gather(all, [](int n) { return "mine/" + std::to_string(n); });
  f.ring_all_reduce_xor(all, "ring");
  f.send_buffer(1, 2, "mine/1", "copied");
  f.net_send(2, 3, 4096, "probe");  // pure traffic, no store effect
  f.barrier(all);
}

TEST(SocketTransport, DifferentialCollectivesMatchVirtualCluster) {
  constexpr int kWorld = 4;
  TempDir dir;
  auto eps = uds_endpoints(dir, kWorld);
  std::vector<StoreImage> socket_imgs(kWorld);

  run_ranks(kWorld, [&](int rank) {
    net::SocketTransport fabric(rank, eps, fast_opts(dir));
    exercise_fabric(fabric, kWorld);
    socket_imgs[static_cast<std::size_t>(rank)] = snapshot(fabric.store(rank));
  });

  cluster::ClusterConfig cfg;
  cfg.num_nodes = kWorld;
  cfg.gpus_per_node = 1;
  cluster::VirtualCluster vc(cfg);
  cluster::VirtualFabric ref(vc);
  exercise_fabric(ref, kWorld);

  for (int r = 0; r < kWorld; ++r)
    expect_identical(socket_imgs[static_cast<std::size_t>(r)],
                     snapshot(vc.host(r)), r);
}

TEST(SocketTransport, AbsentPeerFailsWithinRetryBudgetNotHang) {
  TempDir dir;
  auto eps = uds_endpoints(dir, 2);
  net::TransportOptions o = fast_opts(dir);
  o.connect_timeout = net::Millis(100);
  o.connect_retries = 2;
  o.backoff_base = net::Millis(5);
  o.backoff_max = net::Millis(20);
  o.io_timeout = net::Millis(300);
  net::SocketTransport fabric(0, eps, o);
  fabric.store(0).put("blob", Buffer(64, Buffer::Init::kZeroed));

  // Sender side: rank 1 never bound its endpoint → connect retries exhaust.
  auto t0 = std::chrono::steady_clock::now();
  EXPECT_THROW(fabric.send_buffer(0, 1, "blob", "blob"), CheckFailure);
  auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_LT(elapsed, std::chrono::seconds(3))
      << "connect retry budget did not bound the failure";

  // Receiver side: nobody ever connects → accept deadline.
  t0 = std::chrono::steady_clock::now();
  EXPECT_THROW(fabric.send_buffer(1, 0, "blob", "blob"), CheckFailure);
  elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_LT(elapsed, std::chrono::seconds(3))
      << "accept deadline did not bound the failure";

  // Broadcast fan-out (not send_buffer): rank 1 of 3 never binds. The
  // root's connect to the dead peer fails before it reaches rank 2, and
  // rank 2 hits its accept deadline waiting for the root.
  TempDir dir3;
  const auto eps3 = uds_endpoints(dir3, 3);
  run_ranks(3, [&](int rank) {
    if (rank == 1) return;
    net::TransportOptions o3 = o;
    o3.remote_dir = dir3.path + "/remote";
    net::SocketTransport t(rank, eps3, o3);
    if (rank == 0)
      t.store(0).put("blob", Buffer(4096, Buffer::Init::kZeroed));
    const auto start = std::chrono::steady_clock::now();
    EXPECT_THROW(t.broadcast({0, 1, 2}, 0, "blob"), CheckFailure)
        << "rank " << rank;
    EXPECT_LT(std::chrono::steady_clock::now() - start,
              std::chrono::seconds(3))
        << "rank " << rank << ": broadcast did not fail within its budget";
  });
}

TEST(SocketTransport, ShutdownPeerSurfacesCheckFailureMidSequence) {
  TempDir dir;
  auto eps = uds_endpoints(dir, 2);
  std::latch first_done(2);

  run_ranks(2, [&](int rank) {
    net::TransportOptions o = fast_opts(dir);
    o.io_timeout = net::Millis(2000);
    o.connect_timeout = net::Millis(200);
    o.connect_retries = 4;
    net::SocketTransport fabric(rank, eps, o);
    if (fabric.drives(0))
      fabric.store(0).put("blob", Buffer(4096, Buffer::Init::kZeroed));
    fabric.send_buffer(0, 1, "blob", "blob");  // first transfer succeeds
    first_done.arrive_and_wait();
    if (rank == 1) {
      fabric.shutdown();  // orderly peer death between collectives
      return;
    }
    auto t0 = std::chrono::steady_clock::now();
    // With windowed acks a small frame can leave the sender before the dead
    // peer is noticed; the deferred failure is guaranteed to surface as a
    // typed CheckFailure by the next reconciliation point (flush_acks /
    // barrier), still bounded by the io timeout.
    EXPECT_THROW(
        {
          fabric.send_buffer(0, 1, "blob", "blob2");
          fabric.flush_acks(1);
        },
        CheckFailure);
    EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(5))
        << "dead peer stalled past the io timeout";
  });
}

TEST(SocketTransport, TcpEphemeralPortsRoundTrip) {
  TempDir dir;
  // Bind both listeners on port 0, then exchange the real ports "out of
  // band" (here: shared memory) before any traffic — the documented
  // set_peers() handshake.
  std::vector<net::Endpoint> placeholder = {
      net::Endpoint::tcp("127.0.0.1", 0), net::Endpoint::tcp("127.0.0.1", 0)};
  net::SocketTransport t0(0, placeholder, fast_opts(dir));
  net::SocketTransport t1(1, placeholder, fast_opts(dir));
  std::vector<net::Endpoint> real = {t0.listen_endpoint(),
                                     t1.listen_endpoint()};
  EXPECT_NE(real[0].port, 0);
  EXPECT_NE(real[1].port, 0);
  t0.set_peers(real);
  t1.set_peers(real);

  Buffer blob(12345, Buffer::Init::kUninitialized);
  fill_random(blob.span(), 7);
  t0.store(0).put("blob", blob.clone());

  std::thread sender([&] { t0.send_buffer(0, 1, "blob", "landed"); });
  t1.send_buffer(0, 1, "blob", "landed");
  sender.join();
  EXPECT_TRUE(t1.store(1).get("landed") == blob);
  EXPECT_EQ(t0.fabric_name(), "socket[tcp]");
}

TEST(SocketTransport, RemoteStoreSurvivesTransportAndDetectsCorruption) {
  TempDir dir;
  auto eps = uds_endpoints(dir, 1);
  Buffer blob(3000, Buffer::Init::kUninitialized);
  fill_random(blob.span(), 99);

  {
    net::SocketTransport fabric(0, eps, fast_opts(dir));
    fabric.store(0).put("blob", blob.clone());
    fabric.remote_write(0, "blob", "saved/blob");
  }  // the worker process "dies" — remote files must survive it

  {
    net::SocketTransport fabric(0, eps, fast_opts(dir));
    fabric.remote_read(0, "saved/blob", "restored");
    EXPECT_TRUE(fabric.store(0).get("restored") == blob);
  }

  // Flip one payload byte on disk: the CRC trailer must reject the read.
  std::string path;
  for (const auto& entry : fs::directory_iterator(dir.path + "/remote"))
    path = entry.path().string();
  ASSERT_FALSE(path.empty());
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(24 + 100);  // past the [magic,len,crc] header
    char byte = 0;
    f.seekg(24 + 100);
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x1);
    f.seekp(24 + 100);
    f.write(&byte, 1);
  }
  {
    net::SocketTransport fabric(0, eps, fast_opts(dir));
    EXPECT_THROW(fabric.remote_read(0, "saved/blob", "restored2"),
                 CheckFailure);
  }
}

// ---- satellite regressions -------------------------------------------------

// Malformed endpoint specs used to escape as std::invalid_argument /
// std::out_of_range from the unguarded std::stoul (or wrap silently for
// huge ports); they must all surface as the repo-wide CheckFailure.
TEST(SocketTransport, EndpointParseValidatesSpecsStrictly) {
  const net::Endpoint u = net::Endpoint::parse("unix:/tmp/x.sock");
  EXPECT_EQ(u.kind, net::Endpoint::Kind::kUds);
  EXPECT_EQ(u.path, "/tmp/x.sock");
  const net::Endpoint t = net::Endpoint::parse("tcp:127.0.0.1:8080");
  EXPECT_EQ(t.kind, net::Endpoint::Kind::kTcp);
  EXPECT_EQ(t.host, "127.0.0.1");
  EXPECT_EQ(t.port, 8080);
  EXPECT_EQ(net::Endpoint::parse(t.to_string()).to_string(), t.to_string());
  EXPECT_EQ(net::Endpoint::parse("tcp:localhost:0").port, 0);  // ephemeral

  for (const char* bad : {
           "",                   // no scheme
           "http://x:1",         // unknown scheme
           "unix:",              // empty UDS path
           "tcp:host",           // no port
           "tcp::123",           // empty host
           "tcp:h:",             // empty port
           "tcp:h:abc",          // was std::invalid_argument
           "tcp:h:1e4",          // stoul would stop at 'e' and accept 1
           "tcp:h:-1",           // sign must not sneak through
           "tcp:h: 80",          // embedded whitespace
           "tcp:h:70000",        // > 65535
           "tcp:h:4294967377",   // was a silent uint16 wrap to port 81
           "tcp:h:999999999999999999999999",  // was std::out_of_range
       }) {
    EXPECT_THROW(net::Endpoint::parse(bad), CheckFailure) << bad;
  }
}

// TCP_NODELAY must be applied on *accepted* connections too (the CRC-echo
// ack a receiver sends back must not sit behind Nagle), and the
// tcp_nodelay=false A/B-benchmark option must reach both directions.
TEST(SocketTransport, TcpNodelayAppliedOnBothConnectedAndAcceptedSockets) {
  for (const bool nodelay : {true, false}) {
    TempDir dir;
    net::TransportOptions opts = fast_opts(dir);
    opts.tcp_nodelay = nodelay;
    std::vector<net::Endpoint> placeholders(
        2, net::Endpoint::tcp("127.0.0.1", 0));
    std::vector<std::unique_ptr<net::SocketTransport>> t;
    for (int r = 0; r < 2; ++r)
      t.push_back(std::make_unique<net::SocketTransport>(r, placeholders,
                                                         opts));
    std::vector<net::Endpoint> real;
    for (int r = 0; r < 2; ++r) real.push_back(t[r]->listen_endpoint());
    for (int r = 0; r < 2; ++r) t[r]->set_peers(real);

    // A barrier opens a connection in each direction on every rank.
    run_ranks(2, [&](int rank) { t[rank]->barrier({0, 1}); });

    for (int rank = 0; rank < 2; ++rank) {
      const int peer = 1 - rank;
      const int out_fd = t[rank]->debug_outbound_fd(peer);
      const int in_fd = t[rank]->debug_inbound_fd(peer);
      ASSERT_GE(out_fd, 0) << "rank " << rank;
      ASSERT_GE(in_fd, 0) << "rank " << rank;
      EXPECT_EQ(net::tcp_nodelay_on(net::Socket(::dup(out_fd))), nodelay)
          << "connected socket, rank " << rank;
      EXPECT_EQ(net::tcp_nodelay_on(net::Socket(::dup(in_fd))), nodelay)
          << "accepted socket, rank " << rank;
    }
  }
}

// EINTR from a non-blocking connect(2) means the connection proceeds in the
// background (POSIX) — it must take the EINPROGRESS poll path, not abort a
// healthy startup just because a signal landed.
TEST(SocketTransport, ConnectPendingTreatsEintrLikeInProgress) {
  EXPECT_TRUE(net::detail::connect_pending(EINPROGRESS));
  EXPECT_TRUE(net::detail::connect_pending(EINTR));
  EXPECT_FALSE(net::detail::connect_pending(ECONNREFUSED));
  EXPECT_FALSE(net::detail::connect_pending(ETIMEDOUT));
  EXPECT_FALSE(net::detail::connect_pending(0));
}

// A writer SIGKILLed while streaming chunks into the remote store must
// never publish a torn chunk: fsync-before-rename means every *listed*
// chunk is readable with a valid CRC, and in-flight ".tmp.<rank>" files are
// invisible to remote_list.
TEST(SocketTransport, TornRemoteWriterLeavesOnlyValidChunks) {
  TempDir dir;
  int ready[2];
  ASSERT_EQ(::pipe(ready), 0);
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    ::close(ready[0]);
    try {
      net::SocketTransport writer(
          0, uds_endpoints(dir, 1), fast_opts(dir));
      for (int i = 0;; ++i) {
        Buffer b(4096 + static_cast<std::size_t>(i % 7) * 512,
                 Buffer::Init::kUninitialized);
        fill_random(b.span(), 0xFEED + static_cast<std::uint64_t>(i));
        writer.store(0).put("blob", std::move(b));
        writer.remote_write(0, "blob", "t/" + std::to_string(i));
        if (i == 8) {
          const char c = 'r';
          (void)!::write(ready[1], &c, 1);
        }
      }
    } catch (...) {
    }
    ::_exit(1);
  }
  ::close(ready[1]);
  char c = 0;
  ASSERT_EQ(::read(ready[0], &c, 1), 1);  // ≥ 9 chunks are published
  ::close(ready[0]);
  ::kill(pid, SIGKILL);  // likely mid-write or mid-rename of a later chunk
  ::waitpid(pid, nullptr, 0);

  net::SocketTransport reader(
      0, {net::Endpoint::uds(dir.path + "/verify.sock")}, fast_opts(dir));
  const std::vector<std::string> listed = reader.remote_list(0, "");
  EXPECT_GE(listed.size(), 9u);
  for (const std::string& key : listed) {
    EXPECT_EQ(key.rfind("t/", 0), 0u) << "unexpected remote key: " << key;
    EXPECT_EQ(key.find(".tmp"), std::string::npos)
        << "in-flight temp file leaked into the listing: " << key;
    // remote_read CRC-verifies the payload; a torn published chunk throws.
    reader.remote_read(0, key, "check");
    EXPECT_FALSE(reader.store(0).get("check").empty()) << key;
  }
}

// ---------------------------------------------------------------------------
// Windowed / pipelined data plane (PR: async pipelined transport).
// ---------------------------------------------------------------------------

/// Every ack window must produce byte-identical stores: the pipelining is a
/// pure performance change. Covers ack_window ∈ {4, 16} and the
/// stop-and-wait plane (ack_window=1) the benches A/B against.
TEST(SocketTransport, DifferentialWindowedPlanesMatchVirtualCluster) {
  constexpr int kWorld = 4;
  for (const int window : {4, 16, 1}) {
    SCOPED_TRACE("ack_window=" + std::to_string(window));
    TempDir dir;
    auto eps = uds_endpoints(dir, kWorld);
    std::vector<StoreImage> socket_imgs(kWorld);
    run_ranks(kWorld, [&](int rank) {
      net::TransportOptions o = fast_opts(dir);
      o.ack_window = window;
      net::SocketTransport fabric(rank, eps, o);
      exercise_fabric(fabric, kWorld);
      // Batched pairs ride the window; odd sizes on purpose.
      if (rank == 0 || rank == 3) {
        if (fabric.drives(0)) {
          for (int i = 0; i < 5; ++i) {
            Buffer b(333 + static_cast<std::size_t>(i) * 101,
                     Buffer::Init::kUninitialized);
            fill_random(b.span(), 0xBA7C + static_cast<std::uint64_t>(i));
            fabric.store(0).put("batch/" + std::to_string(i), std::move(b));
          }
        }
        std::vector<std::pair<std::string, std::string>> pairs;
        for (int i = 0; i < 5; ++i)
          pairs.emplace_back("batch/" + std::to_string(i),
                             "landed/" + std::to_string(i));
        fabric.send_buffers(0, 3, pairs);
      }
      fabric.barrier({0, 1, 2, 3});
      socket_imgs[static_cast<std::size_t>(rank)] =
          snapshot(fabric.store(rank));
    });

    cluster::ClusterConfig cfg;
    cfg.num_nodes = kWorld;
    cfg.gpus_per_node = 1;
    cluster::VirtualCluster vc(cfg);
    cluster::VirtualFabric ref(vc);
    exercise_fabric(ref, kWorld);
    for (int i = 0; i < 5; ++i) {
      Buffer b(333 + static_cast<std::size_t>(i) * 101,
               Buffer::Init::kUninitialized);
      fill_random(b.span(), 0xBA7C + static_cast<std::uint64_t>(i));
      vc.host(0).put("batch/" + std::to_string(i), std::move(b));
    }
    std::vector<std::pair<std::string, std::string>> pairs;
    for (int i = 0; i < 5; ++i)
      pairs.emplace_back("batch/" + std::to_string(i),
                         "landed/" + std::to_string(i));
    ref.send_buffers(0, 3, pairs);
    ref.barrier({0, 1, 2, 3});
    for (int r = 0; r < kWorld; ++r)
      expect_identical(socket_imgs[static_cast<std::size_t>(r)],
                       snapshot(vc.host(r)), r);
  }
}

/// Acks are matched by sequence number, not arrival order: a peer that
/// reconciles its acks newest-first must still be accepted frame by frame.
/// The peer here is hand-rolled wire code, not a SocketTransport — the
/// production receiver always acks in order, so misordering needs a raw
/// actor.
TEST(SocketTransport, MisorderedAcksWithinWindowReconcile) {
  TempDir dir;
  auto eps = uds_endpoints(dir, 2);
  constexpr int kFrames = 3;

  std::thread raw_peer([&] {
    net::Endpoint ep = eps[1];
    net::Socket listener = net::listen_on(ep);
    net::Socket s =
        net::accept_with_timeout(listener, net::Millis(5000), "raw accept");
    const net::Millis t(5000);
    std::uint8_t hdr[net::kFrameHeaderBytes];
    net::read_full(s, hdr, sizeof(hdr), t, "raw hello");  // sender's hello

    struct ToAck {
      std::uint32_t seq;
      std::uint64_t crc;
    };
    std::vector<ToAck> acks;
    for (int i = 0; i < kFrames; ++i) {
      net::read_full(s, hdr, sizeof(hdr), t, "raw frame header");
      std::uint32_t key_len = 0;
      bool has_trace = false;
      net::FrameHeader h = net::decode_frame_header(hdr, &key_len, &has_trace);
      if (has_trace) {
        std::uint8_t tbuf[net::kTraceContextBytes];
        net::read_full(s, tbuf, sizeof(tbuf), t, "raw trace");
      }
      std::string key(key_len, '\0');
      if (key_len) net::read_full(s, key.data(), key_len, t, "raw key");
      Buffer payload(h.payload_len, Buffer::Init::kUninitialized);
      if (!payload.empty())
        net::read_full(s, payload.data(), payload.size(), t, "raw payload");
      EXPECT_EQ(crc64(payload.span()), h.payload_crc);
      acks.push_back({static_cast<std::uint32_t>(i), h.payload_crc});
    }
    // Reconcile newest-first: seq 2, 1, 0.
    for (auto it = acks.rbegin(); it != acks.rend(); ++it) {
      net::FrameHeader ack;
      ack.type = net::FrameType::kAck;
      ack.src_rank = 1;
      ack.aux = it->seq;
      ack.payload_crc = it->crc;
      std::uint8_t abuf[net::kFrameHeaderBytes];
      net::encode_frame_header(ack, abuf);
      net::write_full(s, abuf, sizeof(abuf), t, "raw ack");
    }
    // Hold the connection open until the sender hangs up.
    char c;
    (void)!::recv(s.fd(), &c, 1, 0);
  });

  net::TransportOptions o = fast_opts(dir);
  o.ack_window = kFrames + 1;  // all frames stay in flight until the flush
  net::SocketTransport fabric(0, eps, o);
  std::vector<std::pair<std::string, std::string>> pairs;
  for (int i = 0; i < kFrames; ++i) {
    Buffer b(511 + static_cast<std::size_t>(i) * 64,
             Buffer::Init::kUninitialized);
    fill_random(b.span(), 0xACE + static_cast<std::uint64_t>(i));
    const std::string key = "blob/" + std::to_string(i);
    fabric.store(0).put(key, std::move(b));
    pairs.emplace_back(key, key);
  }
  fabric.send_buffers(0, 1, pairs);  // flushes acks before returning
  EXPECT_GE(fabric.stats().counter("net.ack.count"),
            static_cast<std::uint64_t>(kFrames));
  fabric.shutdown();
  raw_peer.join();
}

/// A peer that dies with frames in flight must fail the sender with a
/// typed CheckFailure at the next reconciliation point, within the io
/// timeout — never a hang, never a silent success.
TEST(SocketTransport, PeerDeathMidWindowFailsFastWithTypedError) {
  TempDir dir;
  auto eps = uds_endpoints(dir, 2);

  std::thread raw_peer([&] {
    net::Endpoint ep = eps[1];
    net::Socket listener = net::listen_on(ep);
    net::Socket s =
        net::accept_with_timeout(listener, net::Millis(5000), "raw accept");
    const net::Millis t(5000);
    std::uint8_t hdr[net::kFrameHeaderBytes];
    net::read_full(s, hdr, sizeof(hdr), t, "raw hello");
    // Read exactly one frame header, then die without acking anything.
    net::read_full(s, hdr, sizeof(hdr), t, "raw frame header");
    s.close();
  });

  net::TransportOptions o = fast_opts(dir);
  o.ack_window = 8;
  o.io_timeout = net::Millis(2000);
  net::SocketTransport fabric(0, eps, o);
  std::vector<std::pair<std::string, std::string>> pairs;
  for (int i = 0; i < 4; ++i) {
    const std::string key = "blob/" + std::to_string(i);
    fabric.store(0).put(key, Buffer(4096, Buffer::Init::kZeroed));
    pairs.emplace_back(key, key);
  }
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_THROW(fabric.send_buffers(0, 1, pairs), CheckFailure);
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(5))
      << "mid-window peer death stalled past the io timeout";
  raw_peer.join();
}

/// The fan-out twin of PeerDeathMidWindow: a peer that connects, reads
/// the hello and one frame header, then dies must fail the root of a
/// windowed broadcast and of a barrier release with a typed CheckFailure
/// inside the io timeout — never a hang, never a silent success.
TEST(SocketTransport, FanOutPeerDeathAfterHelloFailsTyped) {
  for (const bool barrier : {false, true}) {
    SCOPED_TRACE(barrier ? "barrier release" : "broadcast");
    TempDir dir;
    const auto eps = uds_endpoints(dir, 3);
    net::TransportOptions o = fast_opts(dir);
    o.ack_window = 8;
    o.io_timeout = net::Millis(2000);
    const net::Millis t(5000);

    std::thread raw_peer([&] {
      net::Endpoint ep = eps[1];
      net::Socket listener = net::listen_on(ep);
      if (barrier) {
        // Check in like a real rank 1 so the root reaches its release.
        net::Socket up = net::connect_with_retry(
            eps[0], o.connect_timeout, o.connect_retries, o.backoff_base,
            o.backoff_max, "raw connect");
        std::uint8_t out[2 * net::kFrameHeaderBytes];
        net::FrameHeader h;
        h.type = net::FrameType::kHello;
        h.src_rank = 1;
        net::encode_frame_header(h, out);
        h.type = net::FrameType::kBarrier;
        h.payload_crc = crc64(ByteSpan{});
        net::encode_frame_header(h, out + net::kFrameHeaderBytes);
        net::write_full(up, out, sizeof(out), t, "raw check-in");
        net::read_full(up, out, net::kFrameHeaderBytes, t, "raw check-in ack");
      }
      net::Socket s = net::accept_with_timeout(listener, t, "raw accept");
      std::uint8_t hdr[net::kFrameHeaderBytes];
      net::read_full(s, hdr, sizeof(hdr), t, "raw hello");
      // Read exactly one frame header, then die without acking it.
      net::read_full(s, hdr, sizeof(hdr), t, "raw frame header");
      s.close();
    });
    // Rank 2 is healthy; whether its side completes depends on how soon
    // the failed root tears its connections down, so only the root's
    // outcome is asserted.
    std::thread healthy([&] {
      try {
        net::SocketTransport fabric(2, eps, o);
        if (barrier)
          fabric.barrier({0, 1, 2});
        else
          fabric.broadcast({0, 1, 2}, 0, "blob");
      } catch (const CheckFailure&) {
      }
    });

    {
      net::SocketTransport root(0, eps, o);
      root.store(0).put("blob", Buffer(4096, Buffer::Init::kZeroed));
      const auto t0 = std::chrono::steady_clock::now();
      if (barrier)
        EXPECT_THROW(root.barrier({0, 1, 2}), CheckFailure);
      else
        EXPECT_THROW(root.broadcast({0, 1, 2}, 0, "blob"), CheckFailure);
      EXPECT_LT(std::chrono::steady_clock::now() - t0,
                o.io_timeout + std::chrono::seconds(1))
          << "fan-out peer death stalled past the io timeout";
    }
    raw_peer.join();
    healthy.join();
  }
}

/// Wire corruption inside an open window: the receiver detects the CRC
/// mismatch before acking (typed failure), and the sender's deferred
/// reconciliation surfaces a typed failure too — the corrupted frame can
/// never be silently absorbed by the pipeline.
TEST(SocketTransport, CorruptFrameInsideOpenWindowFailsBothSides) {
  TempDir dir;
  auto eps = uds_endpoints(dir, 2);
  std::vector<std::pair<std::string, std::string>> pairs;
  for (int i = 0; i < 3; ++i)
    pairs.emplace_back("blob/" + std::to_string(i),
                       "landed/" + std::to_string(i));

  run_ranks(2, [&](int rank) {
    net::TransportOptions o = fast_opts(dir);
    o.ack_window = 4;
    o.io_timeout = net::Millis(2000);
    net::SocketTransport fabric(rank, eps, o);
    if (fabric.drives(0)) {
      for (const auto& [src_key, dst_key] : pairs)
        fabric.store(0).put(src_key, Buffer(8192, Buffer::Init::kZeroed));
      fabric.corrupt_next_frame();  // first frame of the open window
    }
    EXPECT_THROW(fabric.send_buffers(0, 1, pairs), CheckFailure);
  });
}

/// The pipelined plane is observable: windowed sends must leave the
/// scatter-gather byte counter and the ack-window histogram in the
/// registry (the same registry a worker daemon serves to the
/// coordinator's `stats` verb).
TEST(SocketTransport, WindowedDataPlaneExposesPipelineStats) {
  constexpr int kWorld = 3;
  TempDir dir;
  auto eps = uds_endpoints(dir, kWorld);
  std::vector<int> all = {0, 1, 2};

  run_ranks(kWorld, [&](int rank) {
    net::TransportOptions o = fast_opts(dir);
    o.ack_window = 8;
    net::SocketTransport fabric(rank, eps, o);
    if (fabric.drives(0)) {
      Buffer root(64 * 1024, Buffer::Init::kUninitialized);
      fill_random(root.span(), 0x57A75);
      fabric.store(0).put("root", std::move(root));
    }
    fabric.broadcast(all, 0, "root");  // multi-peer fan-out
    if (rank == 0) {
      // One window observation per peer: both fan-out frames went through
      // send_frame's window. (No ASSERT here: the other ranks still wait
      // in the barrier below.)
      const auto hists = fabric.stats().histograms();
      const auto it = hists.find("net.ack.window");
      EXPECT_GE(it == hists.end() ? 0u : it->second.count, 2u);
    }
    fabric.barrier(all);
    if (rank == 0) {
      const auto hists = fabric.stats().histograms();
      EXPECT_GT(fabric.stats().counter("net.send.writev_bytes"), 0u)
          << "scatter-gather path did not run";
      EXPECT_GT(fabric.stats().counter("net.ack.count"), 0u);
      ASSERT_TRUE(hists.count("net.ack.window"));
      EXPECT_GT(hists.at("net.ack.window").count, 0u);
    }
  });
}

}  // namespace
}  // namespace eccheck
