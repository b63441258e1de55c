#include "net/transport.hpp"

#include <fcntl.h>
#include <stdio.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "common/crc64.hpp"
#include "gf/simd.hpp"
#include "obs/tracer.hpp"

namespace eccheck::net {
namespace {

using Clock = std::chrono::steady_clock;

bool contains(const std::vector<int>& nodes, int rank) {
  return std::find(nodes.begin(), nodes.end(), rank) != nodes.end();
}

Millis remaining(Clock::time_point deadline) {
  auto left = std::chrono::duration_cast<Millis>(deadline - Clock::now());
  return left.count() > 0 ? left : Millis{0};
}

void put_u64_le(std::uint8_t* p, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

std::uint64_t get_u64_le(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}

constexpr std::uint64_t kRemoteChunkMagic = 0x314b'4843'454e'4345ULL;

/// Filesystem-safe encoding of a store key ('/' and friends percent-encoded,
/// bijective so distinct keys never collide on disk).
std::string escape_key(const std::string& key) {
  static const char* hex = "0123456789abcdef";
  std::string out;
  out.reserve(key.size());
  for (unsigned char c : key) {
    if (std::isalnum(c) || c == '-' || c == '_' || c == '.') {
      out.push_back(static_cast<char>(c));
    } else {
      out.push_back('%');
      out.push_back(hex[c >> 4]);
      out.push_back(hex[c & 0xf]);
    }
  }
  return out;
}

int hex_nibble(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  return -1;
}

/// Inverse of escape_key; empty optional-style failure is reported by the
/// bool. Used to map directory listings back to store keys.
bool unescape_key(const std::string& escaped, std::string* out) {
  out->clear();
  out->reserve(escaped.size());
  for (std::size_t i = 0; i < escaped.size(); ++i) {
    if (escaped[i] != '%') {
      out->push_back(escaped[i]);
      continue;
    }
    if (i + 2 >= escaped.size()) return false;
    const int hi = hex_nibble(escaped[i + 1]);
    const int lo = hex_nibble(escaped[i + 2]);
    if (hi < 0 || lo < 0) return false;
    out->push_back(static_cast<char>((hi << 4) | lo));
    i += 2;
  }
  return true;
}

constexpr const char* kChunkSuffix = ".chunk";

/// fsync a directory so a just-renamed entry survives a crash.
void fsync_dir(const std::string& dir, const std::string& who) {
  int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  ECC_CHECK_MSG(fd >= 0, who << ": cannot open dir " << dir << " for fsync");
  const int rc = ::fsync(fd);
  ::close(fd);
  ECC_CHECK_MSG(rc == 0, who << ": fsync of dir " << dir << " failed");
}

}  // namespace

SocketTransport::SocketTransport(int rank, std::vector<Endpoint> peers,
                                 TransportOptions opts)
    : rank_(rank),
      peers_(std::move(peers)),
      opts_(std::move(opts)),
      stats_(opts_.stats != nullptr ? opts_.stats : &own_stats_) {
  ECC_CHECK_MSG(rank_ >= 0 && rank_ < static_cast<int>(peers_.size()),
                "transport rank " << rank_ << " outside peer table of "
                                  << peers_.size());
  // One override surface for every timing/window knob: the environment spec
  // (ECCHECK_NET_RETRY) applies over whatever the caller configured, so
  // multi-process harnesses can retune forked ranks without plumbing flags.
  static_cast<RetryPolicy&>(opts_) = RetryPolicy::from_env(opts_);
  // parse() rejects it, but the field is also settable directly — validate
  // at construction, not when the first window stalls forever.
  ECC_CHECK_MSG(opts_.ack_window >= 1,
                "transport: ack_window must be >= 1, got "
                    << opts_.ack_window);
  listener_ = listen_on(peers_[self_idx()]);
}

SocketTransport::~SocketTransport() { shutdown(); }

void SocketTransport::set_peers(std::vector<Endpoint> peers) {
  ECC_CHECK_MSG(peers.size() == peers_.size(),
                "set_peers must keep the world size");
  ECC_CHECK_MSG(out_.empty() && in_.empty(),
                "set_peers after connections were opened");
  // Keep the endpoint this rank actually bound (ephemeral TCP port).
  Endpoint self = peers_[self_idx()];
  peers_ = std::move(peers);
  peers_[self_idx()] = self;
}

void SocketTransport::reset_peer(int peer) {
  const std::size_t dropped = out_.erase(peer) + in_.erase(peer);
  if (dropped > 0) {
    stats_->add("net.reset.connections", dropped);
    stats_->add("net.reset.count");
  }
}

void SocketTransport::reset_all_peers() {
  const std::size_t dropped = out_.size() + in_.size();
  out_.clear();
  in_.clear();
  if (dropped > 0) {
    stats_->add("net.reset.connections", dropped);
    stats_->add("net.reset.count");
  }
}

int SocketTransport::debug_inbound_fd(int peer) const {
  auto it = in_.find(peer);
  return it == in_.end() ? -1 : it->second.sock.fd();
}

int SocketTransport::debug_outbound_fd(int peer) const {
  auto it = out_.find(peer);
  return it == out_.end() ? -1 : it->second.sock.fd();
}

void SocketTransport::shutdown() {
  if (shut_down_) return;
  shut_down_ = true;
  out_.clear();
  in_.clear();
  if (listener_.valid() && peers_[self_idx()].kind == Endpoint::Kind::kUds)
    ::unlink(peers_[self_idx()].path.c_str());
  listener_.close();
}

std::string SocketTransport::fabric_name() const {
  return std::string("socket[") + tag() + "]";
}

cluster::Store& SocketTransport::store(int node) {
  ECC_CHECK_MSG(node == rank_, "rank " << rank_
                                       << " cannot access the store of rank "
                                       << node << " over a socket fabric");
  return store_;
}

std::string SocketTransport::who(const std::string& what, int peer) const {
  return "rank " + std::to_string(rank_) + " " + what + " peer " +
         std::to_string(peer) + " (" +
         peers_[static_cast<std::size_t>(peer)].to_string() + ")";
}

OutConn& SocketTransport::conn_to(int peer) {
  ECC_CHECK_MSG(!shut_down_, "transport already shut down");
  ECC_CHECK(peer >= 0 && peer < world_size() && peer != rank_);
  auto it = out_.find(peer);
  if (it != out_.end()) return it->second;

  obs::ScopedSpan span(std::string("net.connect[") + tag() + "]");
  int retries = 0;
  Socket s = connect_with_retry(peers_[static_cast<std::size_t>(peer)],
                                opts_.connect_timeout, opts_.connect_retries,
                                opts_.backoff_base, opts_.backoff_max,
                                who("connect to", peer), &retries);
  stats_->add("net.connect.count");
  if (retries > 0) stats_->add("net.retry.count",
                               static_cast<std::uint64_t>(retries));
  if (!opts_.tcp_nodelay) set_tcp_nodelay(s, false);
  // Introduce ourselves so the peer can pool this connection by rank. The
  // aux field carries our membership epoch: a fenced (stale) rank's hello
  // is rejected on the receiving side.
  FrameHeader hello;
  hello.type = FrameType::kHello;
  hello.src_rank = static_cast<std::uint32_t>(rank_);
  hello.aux = static_cast<std::uint32_t>(epoch_);
  std::uint8_t hdr[kFrameHeaderBytes];
  encode_frame_header(hello, hdr);
  write_full(s, hdr, sizeof(hdr), opts_.io_timeout, who("hello to", peer));
  OutConn conn;
  conn.sock = std::move(s);
  return out_.emplace(peer, std::move(conn)).first->second;
}

SocketTransport::InConn& SocketTransport::conn_from(int peer) {
  ECC_CHECK_MSG(!shut_down_, "transport already shut down");
  ECC_CHECK(peer >= 0 && peer < world_size() && peer != rank_);
  auto it = in_.find(peer);
  if (it != in_.end()) return it->second;

  const auto deadline = Clock::now() + opts_.io_timeout;
  for (;;) {
    const std::string ctx = who("await connection from", peer);
    Socket s = accept_with_timeout(listener_, remaining(deadline), ctx);
    stats_->add("net.accept.count");
    if (!opts_.tcp_nodelay) set_tcp_nodelay(s, false);
    std::uint8_t hdr[kFrameHeaderBytes];
    read_full(s, hdr, sizeof(hdr), remaining(deadline), ctx);
    std::uint32_t key_len = 0;
    bool has_trace = false;
    FrameHeader h = decode_frame_header(hdr, &key_len, &has_trace);
    ECC_CHECK_MSG(!has_trace, ctx << ": hello frames carry no trace context");
    ECC_CHECK_MSG(h.type == FrameType::kHello && key_len == 0 &&
                      h.payload_len == 0,
                  ctx << ": first frame was " << frame_type_name(h.type)
                      << ", expected hello");
    const int from = static_cast<int>(h.src_rank);
    ECC_CHECK_MSG(from >= 0 && from < world_size() && from != rank_,
                  ctx << ": hello names bogus rank " << from);
    // Membership fencing: both sides carrying a nonzero epoch must agree.
    // A resurrected rank that slept through a membership change still
    // holds the old epoch — its connection is dropped here, before any
    // data frame of a live collective could come from it. Epoch 0 on
    // either side means "no membership controller", the permissive
    // legacy mode.
    const std::uint64_t peer_epoch = h.aux;
    if (epoch_ != 0 && peer_epoch != 0 && peer_epoch != epoch_) {
      stats_->add("net.fenced.count");
      continue;  // closing s; the stale sender sees EOF/reset on next use
    }
    InConn conn;
    conn.sock = std::move(s);
    auto [pos, inserted] = in_.insert_or_assign(from, std::move(conn));
    (void)inserted;
    if (from == peer) return pos->second;
    // Someone else connected first (collectives overlap); keep them pooled
    // and continue waiting for the peer we need.
  }
}

void SocketTransport::reap_acks(OutConn& c, std::size_t target,
                                const std::string& ctx) {
  while (c.window.size() > target) {
    const auto t0 = Clock::now();
    // One blocking read bounds the wait on the slowest ack; the rest of the
    // burst — the receiver acks back-to-back once it catches up — drains
    // with a single opportunistic recv instead of one syscall per ack.
    std::uint8_t buf[kFrameHeaderBytes * 32];
    read_full(c.sock, buf, kFrameHeaderBytes, opts_.io_timeout, ctx);
    std::size_t have = kFrameHeaderBytes;
    const std::size_t cap =
        std::min(c.window.size(), sizeof(buf) / kFrameHeaderBytes) *
        kFrameHeaderBytes;
    if (cap > have) {
      const ssize_t n =
          ::recv(c.sock.fd(), buf + have, cap - have, MSG_DONTWAIT);
      // n <= 0: nothing extra buffered yet (or a failure the next blocking
      // read will surface with full context) — not an error here.
      if (n > 0) have += static_cast<std::size_t>(n);
    }
    // Only whole acks are processed; finish a trailing partial one.
    if (const std::size_t rem = have % kFrameHeaderBytes; rem != 0) {
      read_full(c.sock, buf + have, kFrameHeaderBytes - rem,
                opts_.io_timeout, ctx);
      have += kFrameHeaderBytes - rem;
    }
    stats_->add("net.ack.wait_us",
                static_cast<std::uint64_t>(
                    std::chrono::duration_cast<std::chrono::microseconds>(
                        Clock::now() - t0)
                        .count()));
    for (std::size_t off = 0; off < have; off += kFrameHeaderBytes) {
      const FrameHeader ack = check_ack(buf + off, ctx);
      // Acks are matched by the sequence the receiver stamped into aux, not
      // by queue position: within the open window they may be reconciled in
      // any order (a misordering peer is still verified frame by frame).
      auto it = std::find_if(
          c.window.begin(), c.window.end(),
          [&](const PendingAck& w) { return w.seq == ack.aux; });
      ECC_CHECK_MSG(it != c.window.end(),
                    ctx << ": ack names sequence " << ack.aux
                        << " outside the open window of "
                        << c.window.size());
      ECC_CHECK_MSG(it->crc == ack.payload_crc,
                    ctx << ": ack CRC mismatch — payload corrupted in "
                           "flight");
      c.window.erase(it);
      stats_->add("net.ack.count");
    }
  }
}

void SocketTransport::flush_acks(int peer) {
  std::size_t outstanding = 0;
  for (auto& [rank, c] : out_)
    if (peer < 0 || rank == peer) outstanding += c.window.size();
  if (outstanding == 0) return;
  obs::ScopedSpan span(std::string("net.flush[") + tag() + "]");
  for (auto& [rank, c] : out_) {
    if (peer >= 0 && rank != peer) continue;
    const std::string ctx = who("flush acks from", rank);
    try {
      reap_acks(c, 0, ctx);
    } catch (...) {
      stats_->add("net.io_error.count");
      throw;
    }
  }
}

void SocketTransport::buffered_read(InConn& c, void* dst, std::size_t len,
                                    const std::string& ctx) {
  std::byte* out = static_cast<std::byte*>(dst);
  while (len > 0) {
    if (c.rpos < c.rlen) {
      const std::size_t take = std::min(len, c.rlen - c.rpos);
      std::memcpy(out, c.rbuf.data() + c.rpos, take);
      c.rpos += take;
      out += take;
      len -= take;
      continue;
    }
    if (len >= c.rbuf.size()) {
      // Big read (chunk payloads): land directly in the destination buffer,
      // no intermediate copy.
      read_full(c.sock, out, len, opts_.io_timeout, ctx);
      return;
    }
    c.rpos = 0;
    c.rlen = read_some(c.sock, c.rbuf.data(), c.rbuf.size(),
                       opts_.io_timeout, ctx);
  }
}

void SocketTransport::send_frame(int dst, FrameType type,
                                 const std::string& key, std::uint32_t aux,
                                 ByteSpan payload, int window) {
  obs::ScopedSpan span(std::string("net.send[") + tag() + "]",
                       payload.size());
  const std::string ctx = who(std::string("send ") + frame_type_name(type) +
                                  " to",
                              dst);
  try {
    OutConn& c = conn_to(dst);
    FrameHeader h;
    h.type = type;
    h.src_rank = static_cast<std::uint32_t>(rank_);
    h.aux = aux;
    h.key = key;
    h.payload_len = payload.size();
    h.payload_crc = crc64(payload);
    // Propagate the distributed trace: parent the receiver's recv span
    // under THIS send span (not the surrounding context), so the merged
    // trace shows the hop itself. Only stamped while tracing is on — an
    // untraced run ships byte-identical frames.
    if (span.active() && span.span_id() != 0) {
      const obs::TraceContext tc = obs::current_trace_context();
      h.trace.trace_id = tc.trace_id;
      h.trace.parent_span = span.span_id();
      h.trace.op = static_cast<std::uint32_t>(type);
    }
    const Buffer head = encode_frame_head(h);

    Buffer mangled;  // must outlive the write below
    ByteSpan wire_payload = payload;
    if (corrupt_next_ && !payload.empty()) {
      // Chaos injection: the header already carries the CRC of the clean
      // payload, so flipping one byte now is indistinguishable from wire
      // corruption — the receiver's CRC check fails and both ends abort
      // the collective through the normal error path.
      corrupt_next_ = false;
      mangled = Buffer::copy_of(payload);
      mangled.data()[0] ^= std::byte{0x5a};
      stats_->add("net.corrupt.injected");
      wire_payload = mangled.span();
    }
    // Zero-copy framing: header [+trace] [+key] and the payload leave in one
    // gather write straight from their source buffers.
    const IoSlice slices[2] = {{head.data(), head.size()},
                               {wire_payload.data(), wire_payload.size()}};
    writev_full(c.sock, slices, 2, opts_.io_timeout, ctx);
    stats_->add("net.send.writev_bytes", head.size() + wire_payload.size());
    stats_->add("net.send.bytes", payload.size());
    stats_->add("net.send.count");

    // Sliding ack window: record the frame, then reconcile CRC-echo acks
    // until fewer than `window` remain outstanding. window=1 degenerates to
    // stop-and-wait — send, then block for this frame's ack — exactly the
    // pre-pipelining behavior, which control frames keep. A dead or
    // corrupting peer fails here (or at the next flush), inside io_timeout.
    c.window.push_back({c.next_seq++, h.payload_crc});
    stats_->observe("net.ack.window", static_cast<double>(c.window.size()));
    const int w = std::max(1, window);
    if (static_cast<int>(c.window.size()) >= w)
      reap_acks(c, static_cast<std::size_t>(w - 1), ctx);
  } catch (...) {
    stats_->add("net.io_error.count");
    throw;
  }
}

SocketTransport::Received SocketTransport::recv_frame(int src,
                                                      FrameType expect,
                                                      cluster::Store* reuse) {
  obs::ScopedSpan span(std::string("net.recv[") + tag() + "]");
  const std::string ctx = who(std::string("recv ") + frame_type_name(expect) +
                                  " from",
                              src);
  try {
    InConn& c = conn_from(src);
    std::uint8_t hdr[kFrameHeaderBytes];
    buffered_read(c, hdr, sizeof(hdr), ctx);
    std::uint32_t key_len = 0;
    bool has_trace = false;
    Received r;
    r.header = decode_frame_header(hdr, &key_len, &has_trace);
    if (has_trace) {
      std::uint8_t tbuf[kTraceContextBytes];
      buffered_read(c, tbuf, sizeof(tbuf), ctx);
      r.header.trace = decode_trace_context(tbuf);
      // Link this recv under the sender's send span — the cross-process
      // edge of the merged trace.
      span.adopt(r.header.trace.trace_id, r.header.trace.parent_span);
    }
    ECC_CHECK_MSG(r.header.type == expect,
                  ctx << ": got " << frame_type_name(r.header.type));
    ECC_CHECK_MSG(static_cast<int>(r.header.src_rank) == src,
                  ctx << ": frame claims rank " << r.header.src_rank);
    if (key_len > 0) {
      r.header.key.resize(key_len);
      buffered_read(c, r.header.key.data(), key_len, ctx);
    }
    if (reuse != nullptr && reuse->contains(r.header.key) &&
        reuse->get(r.header.key).size() == r.header.payload_len)
      r.payload = reuse->take(r.header.key);
    else
      r.payload = Buffer(r.header.payload_len, Buffer::Init::kUninitialized);
    if (!r.payload.empty())
      buffered_read(c, r.payload.data(), r.payload.size(), ctx);
    ECC_CHECK_MSG(crc64(r.payload.span()) == r.header.payload_crc,
                  ctx << ": payload CRC mismatch — wire corruption");
    stats_->add("net.recv.bytes", r.payload.size());
    stats_->add("net.recv.count");
    span.set_bytes(r.payload.size());

    // Stamp the per-connection sequence of the frame being acknowledged:
    // both sides count acknowledged frames on this stream since the hello,
    // so the sender can reconcile windowed acks even out of order.
    std::uint8_t ack_hdr[kFrameHeaderBytes];
    encode_ack(static_cast<std::uint32_t>(rank_), c.ack_seq++,
               r.header.payload_crc, ack_hdr);
    write_full(c.sock, ack_hdr, sizeof(ack_hdr), opts_.io_timeout, ctx);
    return r;
  } catch (...) {
    stats_->add("net.io_error.count");
    throw;
  }
}

void SocketTransport::net_send(int src, int dst, std::size_t bytes,
                               const std::string&) {
  ECC_CHECK_MSG(src != dst, "net_send to self");
  if (rank_ == src) {
    Buffer zeros(bytes, Buffer::Init::kZeroed);
    send_frame(dst, FrameType::kBytes, "", 0, zeros.span());
  } else if (rank_ == dst) {
    recv_frame(src, FrameType::kBytes);  // pure traffic: discard
  }
}

void SocketTransport::send_buffer(int src, int dst, const std::string& src_key,
                                  const std::string& dst_key) {
  ECC_CHECK_MSG(src != dst, "send_buffer to self");
  if (rank_ == src) {
    // Windowed: the ack may be deferred (reconciled on a later send to the
    // same peer, at flush_acks, or at the next barrier) so back-to-back
    // ships to one peer pipeline instead of paying an RTT each.
    send_frame(dst, FrameType::kPut, dst_key, 0, store_.get(src_key).span(),
               opts_.ack_window);
  } else if (rank_ == dst) {
    Received r = recv_frame(src, FrameType::kPut, &store_);
    ECC_CHECK(r.header.key == dst_key);
    store_.put(r.header.key, std::move(r.payload));
  }
}

void SocketTransport::send_buffers(
    int src, int dst,
    const std::vector<std::pair<std::string, std::string>>& pairs) {
  ECC_CHECK_MSG(src != dst, "send_buffers to self");
  if (pairs.empty()) return;
  if (rank_ == src) {
    obs::ScopedSpan span(std::string("net.batch[") + tag() + "]");
    for (const auto& [src_key, dst_key] : pairs)
      send_frame(dst, FrameType::kPut, dst_key, 0,
                 store_.get(src_key).span(), opts_.ack_window);
    // Unlike single send_buffer calls, the batch declares its own end —
    // reconcile it fully so a deferred failure is attributed to this batch
    // rather than to whatever touches the peer next.
    flush_acks(dst);
  } else if (rank_ == dst) {
    // A key received again (a staging key reused per packet slot) lands
    // in its existing buffer: the receiver allocates nothing in steady
    // state, instead of freeing a buffer between live rows per frame.
    for (const auto& [src_key, dst_key] : pairs) {
      Received r = recv_frame(src, FrameType::kPut, &store_);
      ECC_CHECK(r.header.key == dst_key);
      store_.put(r.header.key, std::move(r.payload));
    }
  }
}

void SocketTransport::broadcast(const std::vector<int>& nodes, int root,
                                const std::string& key) {
  if (!contains(nodes, rank_)) return;
  obs::ScopedSpan span("fabric.broadcast");
  if (rank_ == root) {
    // Every peer's frame rides the window, so the sends overlap the acks;
    // flushing afterwards makes the call return fully reconciled. Re-resolve
    // per fan-out send, mirroring the simulated collective.
    for (int dst : nodes)
      if (dst != root)
        send_frame(dst, FrameType::kPut, key, 0, store_.get(key).span(),
                   opts_.ack_window);
    for (int dst : nodes)
      if (dst != root) flush_acks(dst);
  } else {
    Received r = recv_frame(root, FrameType::kPut);
    ECC_CHECK(r.header.key == key);
    store_.put(key, std::move(r.payload));
  }
}

void SocketTransport::all_gather(
    const std::vector<int>& nodes,
    const std::function<std::string(int)>& key_of) {
  const int p = static_cast<int>(nodes.size());
  if (!contains(nodes, rank_) || p <= 1) return;
  obs::ScopedSpan span("fabric.all_gather");
  const int pos = static_cast<int>(
      std::find(nodes.begin(), nodes.end(), rank_) - nodes.begin());
  const int right = nodes[static_cast<std::size_t>((pos + 1) % p)];
  const int left = nodes[static_cast<std::size_t>((pos - 1 + p) % p)];

  // Ring: at step t, forward the chunk that originated (pos - t) positions
  // back; receive the one originating (pos - 1 - t) back. Even positions
  // send before receiving, odd positions the reverse — with at least one
  // odd position in any p ≥ 2 ring, the cyclic wait cannot close.
  for (int t = 0; t < p - 1; ++t) {
    const std::string send_key =
        key_of(nodes[static_cast<std::size_t>(((pos - t) % p + p) % p)]);
    const std::string recv_key =
        key_of(nodes[static_cast<std::size_t>(((pos - 1 - t) % p + p) % p)]);
    auto do_send = [&] {
      // Windowed: the ring's next step can start before this segment's ack
      // returned; misdelivery is still caught by the receiver's key check
      // and the deferred CRC-echo reconciliation.
      send_frame(right, FrameType::kPut, send_key, 0,
                 store_.get(send_key).span(), opts_.ack_window);
    };
    auto do_recv = [&] {
      Received r = recv_frame(left, FrameType::kPut);
      ECC_CHECK_MSG(r.header.key == recv_key,
                    "all_gather step " << t << ": expected '" << recv_key
                                       << "', got '" << r.header.key << "'");
      store_.put(recv_key, std::move(r.payload));
    };
    if (pos % 2 == 0) {
      do_send();
      do_recv();
    } else {
      do_recv();
      do_send();
    }
  }
}

void SocketTransport::ring_all_reduce_xor(const std::vector<int>& nodes,
                                          const std::string& key) {
  const int p = static_cast<int>(nodes.size());
  if (!contains(nodes, rank_) || p <= 1) return;
  obs::ScopedSpan span("fabric.ring_all_reduce_xor");
  const int pos = static_cast<int>(
      std::find(nodes.begin(), nodes.end(), rank_) - nodes.begin());
  const int right = nodes[static_cast<std::size_t>((pos + 1) % p)];
  const int left = nodes[static_cast<std::size_t>((pos - 1 + p) % p)];

  Buffer work = store_.get(key).clone();
  const std::size_t total = work.size();
  const gf::simd::Kernels& kernels = gf::simd::active();

  // Reduce-scatter then all-gather over the shared segment geometry
  // (cluster::ring_segment) — the same true per-step sizes the simulated
  // collective charges, so both fabrics move identical bytes.
  for (int phase = 0; phase < 2; ++phase) {
    for (int t = 0; t < p - 1; ++t) {
      const int send_idx = cluster::ring_send_segment(p, phase, t, pos);
      const int recv_idx =
          cluster::ring_send_segment(p, phase, t, (pos - 1 + p) % p);
      const cluster::RingSegment send_seg =
          cluster::ring_segment(total, p, send_idx);
      const cluster::RingSegment recv_seg =
          cluster::ring_segment(total, p, recv_idx);
      auto do_send = [&] {
        // Windowed; safe to keep mutating `work` afterwards — the gather
        // write completed into the kernel before send_frame returned, only
        // the ack is deferred.
        send_frame(right, FrameType::kSegment, key,
                   static_cast<std::uint32_t>(send_idx),
                   work.subspan(send_seg.offset, send_seg.size),
                   opts_.ack_window);
      };
      auto do_recv = [&] {
        Received r = recv_frame(left, FrameType::kSegment);
        ECC_CHECK_MSG(r.header.aux == static_cast<std::uint32_t>(recv_idx) &&
                          r.payload.size() == recv_seg.size,
                      "ring step " << phase << "/" << t << ": got segment "
                                   << r.header.aux << " of "
                                   << r.payload.size() << "B, expected "
                                   << recv_idx << " of " << recv_seg.size
                                   << "B — peers disagree on the buffer");
        if (phase == 0) {
          kernels.xor_into(work.data() + recv_seg.offset, r.payload.data(),
                           recv_seg.size);
        } else if (recv_seg.size > 0) {
          std::memcpy(work.data() + recv_seg.offset, r.payload.data(),
                      recv_seg.size);
        }
      };
      if (pos % 2 == 0) {
        do_send();
        do_recv();
      } else {
        do_recv();
        do_send();
      }
    }
  }
  store_.put(key, std::move(work));
}

std::string SocketTransport::remote_path(const std::string& remote_key) const {
  ECC_CHECK_MSG(!opts_.remote_dir.empty(),
                "remote store disabled (TransportOptions::remote_dir empty)");
  return opts_.remote_dir + "/" + escape_key(remote_key) + ".chunk";
}

void SocketTransport::remote_write(int node, const std::string& key,
                                   const std::string& remote_key) {
  if (rank_ != node) return;
  const Buffer& payload = store_.get(key);
  obs::ScopedSpan span("remote.write[file]", payload.size());
  {
    std::error_code ec;
    std::filesystem::create_directories(opts_.remote_dir, ec);
  }
  const std::string path = remote_path(remote_key);
  const std::string tmp = path + ".tmp." + std::to_string(rank_);
  {
    int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    ECC_CHECK_MSG(fd >= 0, "remote store: cannot open " << tmp);
    Socket holder(fd);  // RAII close on any throw below
    std::uint8_t hdr[24];
    put_u64_le(hdr, kRemoteChunkMagic);
    put_u64_le(hdr + 8, payload.size());
    put_u64_le(hdr + 16, crc64(payload.span()));
    auto write_all = [&](const void* p, std::size_t n) {
      const char* c = static_cast<const char*>(p);
      while (n > 0) {
        ssize_t w = ::write(fd, c, n);
        if (w < 0 && errno == EINTR) continue;
        ECC_CHECK_MSG(w > 0, "remote store: short write to " << tmp);
        c += w;
        n -= static_cast<std::size_t>(w);
      }
    };
    write_all(hdr, sizeof(hdr));
    write_all(payload.data(), payload.size());
    // Durability before visibility: the data must be on stable storage
    // before the rename publishes it, and the rename itself must be synced
    // via the directory — otherwise a host crash can publish a torn chunk
    // under the final name, which remote_read would then reject forever.
    ECC_CHECK_MSG(::fsync(fd) == 0, "remote store: fsync of " << tmp
                                                              << " failed");
  }
  // Atomic publish: a reader (or a crash) never observes a torn chunk.
  ECC_CHECK_MSG(::rename(tmp.c_str(), path.c_str()) == 0,
                "remote store: rename to " << path << " failed");
  fsync_dir(opts_.remote_dir, "remote store");
  stats_->add("remote.write.bytes", payload.size());
  stats_->add("remote.write.count");
}

void SocketTransport::remote_read(int node, const std::string& remote_key,
                                  const std::string& key) {
  if (rank_ != node) return;
  const std::string path = remote_path(remote_key);
  std::ifstream f(path, std::ios::binary);
  ECC_CHECK_MSG(f.good(), "remote store: missing chunk " << path);
  std::uint8_t hdr[24];
  f.read(reinterpret_cast<char*>(hdr), sizeof(hdr));
  ECC_CHECK_MSG(f.gcount() == sizeof(hdr) &&
                    get_u64_le(hdr) == kRemoteChunkMagic,
                "remote store: " << path << " is not a chunk file");
  const std::uint64_t len = get_u64_le(hdr + 8);
  const std::uint64_t crc = get_u64_le(hdr + 16);
  ECC_CHECK_MSG(len <= kMaxPayloadLen, "remote store: bogus length in "
                                           << path);
  Buffer payload(len, Buffer::Init::kUninitialized);
  f.read(reinterpret_cast<char*>(payload.data()),
         static_cast<std::streamsize>(len));
  ECC_CHECK_MSG(static_cast<std::uint64_t>(f.gcount()) == len,
                "remote store: truncated chunk " << path);
  obs::ScopedSpan span("remote.read[file]", len);
  ECC_CHECK_MSG(crc64(payload.span()) == crc,
                "remote store: CRC mismatch in " << path
                                                 << " — chunk corrupted");
  stats_->add("remote.read.bytes", len);
  stats_->add("remote.read.count");
  store_.put(key, std::move(payload));
}

bool SocketTransport::remote_contains(int node,
                                      const std::string& remote_key) {
  ECC_CHECK_MSG(node == rank_, "remote_contains for a rank not driven here");
  if (opts_.remote_dir.empty()) return false;
  std::error_code ec;
  return std::filesystem::exists(remote_path(remote_key), ec);
}

std::vector<std::string> SocketTransport::remote_list(
    int node, const std::string& prefix) {
  ECC_CHECK_MSG(node == rank_, "remote_list for a rank not driven here");
  std::vector<std::string> keys;
  if (opts_.remote_dir.empty()) return keys;
  std::error_code ec;
  std::filesystem::directory_iterator it(opts_.remote_dir, ec);
  if (ec) return keys;  // directory not created yet = empty store
  for (const auto& entry : it) {
    const std::string name = entry.path().filename().string();
    // Published chunks end in ".chunk"; in-flight ".chunk.tmp.<rank>" files
    // are not part of the store.
    if (name.size() <= std::strlen(kChunkSuffix) ||
        name.compare(name.size() - std::strlen(kChunkSuffix),
                     std::string::npos, kChunkSuffix) != 0)
      continue;
    std::string key;
    if (!unescape_key(name.substr(0, name.size() - std::strlen(kChunkSuffix)),
                      &key))
      continue;
    if (key.rfind(prefix, 0) == 0) keys.push_back(std::move(key));
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

void SocketTransport::remote_erase(int node, const std::string& remote_key) {
  ECC_CHECK_MSG(node == rank_, "remote_erase for a rank not driven here");
  if (opts_.remote_dir.empty()) return;
  std::error_code ec;
  std::filesystem::remove(remote_path(remote_key), ec);
}

void SocketTransport::barrier(const std::vector<int>& nodes) {
  if (!contains(nodes, rank_) || nodes.size() <= 1) return;
  // Reconcile every deferred ack first: a barrier promises "everything
  // before it completed", so a peer that died or saw corruption after a
  // windowed send must fail HERE, before the rendezvous — the checkpoint
  // protocols barrier before committing, which is what keeps the
  // torn-save/commit contract intact under pipelining.
  flush_acks();
  obs::ScopedSpan span("fabric.barrier");
  const int root = nodes[0];
  if (rank_ == root) {
    // Gather then release: every participant checked in before anyone
    // proceeds.
    for (int n : nodes)
      if (n != root) recv_frame(n, FrameType::kBarrier);
    for (int n : nodes)
      if (n != root)
        send_frame(n, FrameType::kBarrier, "", 0, {}, opts_.ack_window);
    for (int n : nodes)
      if (n != root) flush_acks(n);
  } else {
    send_frame(root, FrameType::kBarrier, "", 0, {});
    recv_frame(root, FrameType::kBarrier);
  }
}

}  // namespace eccheck::net
