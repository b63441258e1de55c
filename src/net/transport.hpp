// SocketTransport: the real-socket implementation of cluster::Fabric.
//
// Each process drives exactly one global rank: it listens on its own
// endpoint (TCP or Unix-domain) and lazily opens pooled connections to
// peers the first time it sends to / receives from them. The fabric
// helpers are collective SPMD calls — every participating rank makes the
// same call with the same arguments, like an MPI program — and the
// transport executes this rank's side with fully time-bounded I/O
// (see net/socket.hpp) plus CRC64-verified, acknowledged frames
// (see net/frame.hpp).
//
// Ring collectives (all_gather, ring_all_reduce_xor) alternate
// send-before-receive by ring-position parity, so the classic cyclic-wait
// deadlock cannot form even with acknowledged transfers; the segment
// geometry is shared with the simulated collectives
// (cluster::ring_segment), which is what makes the differential suite's
// byte-identical comparison possible.
//
// Data plane: frames go out via scatter-gather writev directly from the
// source buffers (no copy into a frame buffer), and each connection keeps a
// sliding window of up to TransportOptions::ack_window data frames in
// flight — the receiver stamps every CRC-echo ack with the per-connection
// sequence of the frame it acknowledges, and the sender reconciles acks
// (possibly out of order) whenever the window is full, at explicit flush
// points, and always before a barrier returns. The hello, the barrier
// check-in and pure net_send traffic stay stop-and-wait. ack_window=1
// makes data frames stop-and-wait too (one ack RTT per frame). A batch
// (send_buffers) sends every frame through the window and reconciles its
// peer's acks once, at its end. A fan-out root (broadcast, barrier
// release) sends to each peer in turn through the same window, then
// flushes every peer's acks, so the call returns fully reconciled; the
// first peer that fails ends it. Deferred acks weaken per-call completion
// only on the SENDER side: the receiving rank's matching SPMD call still
// blocks until the bytes landed and verified, and every deferred failure
// (dead peer, CRC mismatch) surfaces as typed CheckFailure at the next
// reconciliation point, which the checkpoint protocols place before any
// commit (their saves end with a barrier).
//
// Peer death — a connect that exhausts its retry budget, an EOF, a reset,
// or a timeout — surfaces as the repo-wide CheckFailure, exactly like a
// mid-operation kill() in the simulator, so supervision logic
// (Session / FailureDetector / chaos invariants) works unchanged. After a
// failed rank is replaced by a fresh process on the same endpoint, call
// reset_peer(rank) to drop the stale pooled connections.
//
// The persistent remote store is a directory: remote_write/remote_read move
// chunks as CRC-trailered files with atomic rename, so they survive any
// worker process dying — the real-world analogue of the simulator's
// kill-proof remote Store.
#pragma once

#include <array>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cluster/fabric.hpp"
#include "net/frame.hpp"
#include "net/socket.hpp"
#include "obs/stats.hpp"

namespace eccheck::net {

/// One frame sent but not yet CRC-echo-acknowledged: the sequence number it
/// was sent as on its connection and the payload CRC the ack must echo.
struct PendingAck {
  std::uint32_t seq = 0;
  std::uint64_t crc = 0;
};

/// Pooled outbound connection with its sliding ack window. next_seq counts
/// acknowledged frame types sent since the hello; the receiver counts the
/// same stream on its side and stamps each ack's aux with the sequence it
/// acknowledges, which is what lets a sender reconcile acks out of order
/// within the window.
struct OutConn {
  Socket sock;
  std::deque<PendingAck> window;
  std::uint32_t next_seq = 0;
};

/// Every knob of the socket stack — connect budget, backoff, I/O deadline,
/// heartbeat cadence, ack window, socket options — in one struct that the
/// caller fills in code; the transport runs exactly what it is handed.
/// Anything that opens a socket (fabric ranks, control-channel clients,
/// the service daemons' heartbeats) derives its timing from one of these.
struct TransportOptions {
  /// Per-attempt connect timeout; total connect budget is
  /// connect_retries+1 attempts with exponential backoff between them
  /// (backoff_base, doubling per attempt, capped at backoff_max).
  Millis connect_timeout{1000};
  int connect_retries = 10;
  Millis backoff_base{10};
  Millis backoff_max{500};

  /// Deadline for each read/write/accept — the bound on how long a dead
  /// peer can stall a collective before CheckFailure.
  Millis io_timeout{5000};

  /// Liveness layer (svc): workers beat the coordinator every
  /// heartbeat_period; heartbeat_timeout of silence makes a worker
  /// suspect; suspect_probes consecutive failed probes confirm death
  /// (the wall-clock analogue of FailureDetectorConfig's quorum).
  Millis heartbeat_period{250};
  Millis heartbeat_timeout{1500};
  int suspect_probes = 2;

  /// Sliding ack window: data frames a connection may have in flight before
  /// the sender must reconcile a CRC-echo ack; broadcast and barrier-release
  /// roots send through it too. 1 = stop-and-wait (the pre-pipelining
  /// behavior, and always used for the remaining control frames); larger
  /// windows let collectives overlap transfers with ack latency. Must be
  /// ≥ 1 — a window of 0 could never send anything, so the constructor
  /// rejects it.
  int ack_window = 8;

  /// TCP_NODELAY on both connected and accepted sockets (default on: the
  /// frame protocol is ack-per-frame, so Nagle/delayed-ack interplay adds a
  /// full RTT of latency per frame). Off exists for A/B benchmarking.
  bool tcp_nodelay = true;

  /// Directory backing the persistent remote store; empty disables
  /// remote_write/remote_read.
  std::string remote_dir;

  /// External registry for byte counters; nullptr = transport-owned.
  obs::StatsRegistry* stats = nullptr;
};

class SocketTransport final : public cluster::Fabric {
 public:
  /// Bind rank `rank`'s listener on peers[rank] (a TCP port of 0 binds an
  /// ephemeral port, readable back via listen_endpoint()). Connections to
  /// peers open lazily on first use.
  SocketTransport(int rank, std::vector<Endpoint> peers,
                  TransportOptions opts = {});
  ~SocketTransport() override;

  /// The endpoint actually bound (differs from the ctor argument only for
  /// TCP port 0).
  const Endpoint& listen_endpoint() const { return peers_[self_idx()]; }

  /// Replace the peer table (e.g. after ephemeral TCP ports were exchanged
  /// out of band). Must be called before any communication happens.
  void set_peers(std::vector<Endpoint> peers);

  /// Drop pooled connections to `peer` — required after the peer process
  /// was replaced by a fresh one listening on the same endpoint.
  void reset_peer(int peer);

  /// Drop every pooled connection (the listener stays up). After a
  /// collective aborted mid-flight (peer death), connections between the
  /// *surviving* ranks can hold half-delivered frames; every survivor calls
  /// this at a synchronized point before the next collective so all sides
  /// reconnect with a clean protocol state.
  void reset_all_peers();

  /// Close the listener and every pooled connection. Further fabric calls
  /// on any rank that talks to this one fail with CheckFailure — used by
  /// tests to simulate an orderly peer death.
  void shutdown();

  const TransportOptions& options() const { return opts_; }

  /// Membership-generation fencing. The hello handshake carries this
  /// epoch; an incoming connection whose hello names a *different* nonzero
  /// epoch while ours is nonzero is rejected (closed, `net.fenced.count`),
  /// so a stale resurrected rank — SIGSTOP'd through a membership change —
  /// can never join a collective and commit with survivors. Epoch 0 (the
  /// default) is permissive on either side: standalone fabrics without a
  /// membership controller keep working unchanged.
  void set_epoch(std::uint64_t epoch) { epoch_ = epoch; }
  std::uint64_t epoch() const { return epoch_; }

  /// Reconcile every outstanding CRC-echo ack on the connection to `peer`
  /// (or on every pooled connection when peer == -1). This is where a
  /// deferred failure — a peer that died or detected corruption after the
  /// windowed send returned — surfaces as typed CheckFailure, bounded by
  /// io_timeout per ack. barrier() calls it for all peers before the
  /// rendezvous, so collectives are fully reconciled at every barrier.
  void flush_acks(int peer = -1);

  /// Chaos hook: corrupt the next outgoing data frame — one payload byte
  /// is flipped *after* the CRC is computed, so the receiver sees a real
  /// wire-level CRC mismatch and both sides abort the collective through
  /// the production error path.
  void corrupt_next_frame() { corrupt_next_ = true; }

  /// Raw fds of pooled connections, -1 when none exists — test/bench hooks
  /// for asserting socket options on live connections.
  int debug_inbound_fd(int peer) const;
  int debug_outbound_fd(int peer) const;

  // ---- cluster::Fabric ---------------------------------------------------
  std::string fabric_name() const override;
  int world_size() const override { return static_cast<int>(peers_.size()); }
  bool drives(int node) const override { return node == rank_; }
  int self_rank() const override { return rank_; }
  cluster::Store& store(int node) override;

  void net_send(int src, int dst, std::size_t bytes,
                const std::string& label) override;
  void send_buffer(int src, int dst, const std::string& src_key,
                   const std::string& dst_key) override;
  void send_buffers(
      int src, int dst,
      const std::vector<std::pair<std::string, std::string>>& pairs) override;
  void broadcast(const std::vector<int>& nodes, int root,
                 const std::string& key) override;
  void all_gather(const std::vector<int>& nodes,
                  const std::function<std::string(int)>& key_of) override;
  void ring_all_reduce_xor(const std::vector<int>& nodes,
                           const std::string& key) override;
  void remote_write(int node, const std::string& key,
                    const std::string& remote_key) override;
  void remote_read(int node, const std::string& remote_key,
                   const std::string& key) override;
  bool remote_contains(int node, const std::string& remote_key) override;
  std::vector<std::string> remote_list(int node,
                                       const std::string& prefix) override;
  void remote_erase(int node, const std::string& remote_key) override;
  obs::StatsRegistry& stats() override { return *stats_; }
  void barrier(const std::vector<int>& nodes) override;

 private:
  std::size_t self_idx() const { return static_cast<std::size_t>(rank_); }
  std::string who(const std::string& what, int peer) const;
  const char* tag() const { return peers_[self_idx()].tag(); }

  /// Inbound connection with the receive-side ack sequence counter: every
  /// acknowledged frame read on this connection bumps ack_seq, and the ack
  /// echoes the value — the mirror of OutConn::next_seq on the sender.
  /// The read buffer turns the header/key/payload reads of a burst of
  /// small frames into ~one recv(2) per burst; reads larger than the
  /// buffer bypass it (big payloads land directly in their Buffer).
  struct InConn {
    Socket sock;
    std::uint32_t ack_seq = 0;
    std::array<std::byte, 4096> rbuf;
    std::size_t rpos = 0;  ///< next unread byte in rbuf
    std::size_t rlen = 0;  ///< valid bytes in rbuf
  };

  /// Pooled outbound connection (connect + kHello handshake on first use).
  OutConn& conn_to(int peer);
  /// Pooled inbound connection: accepts (bounded by io_timeout) until the
  /// wanted peer has introduced itself; other peers' connections are pooled
  /// for later.
  InConn& conn_from(int peer);

  /// One data frame to `dst`: header+key+payload out (scatter-gather when
  /// enabled), then reconcile CRC-echo acks until fewer than `window`
  /// remain outstanding on the connection. window=1 is stop-and-wait —
  /// identical to the pre-pipelining transport — and is what control
  /// frames use; data-plane callers and fan-out roots pass
  /// opts_.ack_window.
  void send_frame(int dst, FrameType type, const std::string& key,
                  std::uint32_t aux, ByteSpan payload, int window = 1);

  /// Buffered read on an inbound connection: serve from InConn::rbuf,
  /// refill with one read_some per burst; reads ≥ the buffer size go
  /// straight to `dst`.
  void buffered_read(InConn& c, void* dst, std::size_t len,
                     const std::string& ctx);

  /// Reconcile CRC-echo acks on `c` until at most `target` remain
  /// outstanding. Acks are matched by sequence number anywhere in the open
  /// window (they may arrive out of order) and reaped in batches — one
  /// blocking read, then whatever burst already landed — so a full window
  /// flush costs ~one syscall, not one per frame.
  void reap_acks(OutConn& c, std::size_t target, const std::string& ctx);

  struct Received {
    FrameHeader header;
    Buffer payload;
  };
  /// One data frame from `src`: CRC-verify, ack, return. `expect` guards
  /// protocol desynchronisation. With `reuse`, a buffer already stored
  /// there under the frame's key with the payload's size is taken and
  /// overwritten instead of allocating a new one.
  Received recv_frame(int src, FrameType expect,
                      cluster::Store* reuse = nullptr);

  std::string remote_path(const std::string& remote_key) const;

  int rank_;
  std::vector<Endpoint> peers_;
  TransportOptions opts_;
  std::uint64_t epoch_ = 0;
  bool corrupt_next_ = false;
  Socket listener_;
  bool shut_down_ = false;
  std::map<int, OutConn> out_;  ///< rank → connection we opened
  std::map<int, InConn> in_;    ///< rank → connection the peer opened
  cluster::Store store_;
  obs::StatsRegistry own_stats_;
  obs::StatsRegistry* stats_;
};

}  // namespace eccheck::net
