#include "svc/checkpoint_service.hpp"

#include <poll.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <iomanip>
#include <limits>
#include <sstream>
#include <thread>
#include <variant>

#include "common/check.hpp"
#include "common/crc64.hpp"
#include "core/fabric_engine.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/distributed.hpp"
#include "obs/json.hpp"
#include "obs/tracer.hpp"

namespace eccheck::svc {
namespace {

ByteSpan span_of(const std::string& s) {
  return {reinterpret_cast<const std::byte*>(s.data()), s.size()};
}

std::string string_of(const Buffer& b) {
  return {reinterpret_cast<const char*>(b.data()), b.size()};
}

std::string hex16(std::uint64_t v) {
  std::ostringstream os;
  os << std::hex << std::setw(16) << std::setfill('0') << v;
  return os.str();
}

/// True when the listener has a connection waiting within `wait`.
bool listener_readable(const net::Socket& listener, net::Millis wait) {
  pollfd p{listener.fd(), POLLIN, 0};
  return ::poll(&p, 1, static_cast<int>(wait.count())) > 0 &&
         (p.revents & POLLIN) != 0;
}

/// Command arguments: positional tokens followed by (or interleaved with)
/// key=value pairs — "job 3 epoch=2 alive=0,1,3".
struct ParsedArgs {
  std::vector<std::string> pos;
  std::map<std::string, std::string> kv;
};

ParsedArgs parse_args(const std::string& args) {
  ParsedArgs p;
  std::istringstream is(args);
  std::string tok;
  while (is >> tok) {
    const std::size_t eq = tok.find('=');
    if (eq != std::string::npos && eq > 0)
      p.kv[tok.substr(0, eq)] = tok.substr(eq + 1);
    else
      p.pos.push_back(tok);
  }
  return p;
}

/// The whole wire token (a control-frame argument, a reply field) as a
/// decimal integer in [min, max]. Throws BadRequest naming `what` and the
/// token on garbage, trailing junk, overflow or empty input — never the
/// foreign std::invalid_argument / std::out_of_range of std::stoi.
std::int64_t parse_wire_int(const std::string& tok, const char* what,
                            std::int64_t min, std::int64_t max) {
  std::int64_t v = 0;
  const auto [ptr, ec] =
      std::from_chars(tok.data(), tok.data() + tok.size(), v);
  const bool whole = ptr == tok.data() + tok.size();
  if (ec == std::errc::result_out_of_range ||
      (ec == std::errc() && whole && (v < min || v > max)))
    throw BadRequest("bad " + std::string(what) + " '" + tok +
                     "' (out of range)");
  if (ec != std::errc() || !whole)
    throw BadRequest("bad " + std::string(what) + " '" + tok + "'");
  return v;
}

/// Comma-separated ranks ("0,1,3"); empty parts are skipped.
std::vector<int> ranks_of_csv(const std::string& csv, const char* what) {
  std::vector<int> ranks;
  std::istringstream is(csv);
  std::string part;
  while (std::getline(is, part, ','))
    if (!part.empty())
      ranks.push_back(static_cast<int>(
          parse_wire_int(part, what, 0, std::numeric_limits<int>::max())));
  return ranks;
}

std::string csv_of(const std::vector<int>& ranks) {
  std::string out;
  for (int r : ranks) {
    if (!out.empty()) out += ',';
    out += std::to_string(r);
  }
  return out;
}

std::uint64_t parse_u64(const std::map<std::string, std::string>& kv,
                        const std::string& key) {
  const auto it = kv.find(key);
  return it == kv.end()
             ? 0
             : static_cast<std::uint64_t>(parse_wire_int(
                   it->second, key.c_str(), 0,
                   std::numeric_limits<std::int64_t>::max()));
}

}  // namespace

// ---------------------------------------------------------------------------
// Save/load reply bodies.
// ---------------------------------------------------------------------------

std::string ShardReply::body() const {
  std::ostringstream os;
  os << "version=" << version << " iteration=" << iteration;
  for (const auto& [w, d] : digests) os << " w" << w << ":" << hex16(d);
  if (!lost.empty()) os << " lost=" << csv_of(lost);
  if (!detail.empty()) os << " ; " << detail;
  return os.str();
}

ShardReply ShardReply::parse(const std::string& body) {
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  ShardReply r;
  const std::size_t semi = body.find(" ; ");
  if (semi != std::string::npos) r.detail = body.substr(semi + 3);
  std::istringstream is(body.substr(0, semi));
  std::string tok;
  while (is >> tok) {
    const std::size_t sep = tok.find_first_of("=:");
    const std::string key = tok.substr(0, sep);
    const std::string val = sep == std::string::npos ? "" : tok.substr(sep + 1);
    if (key == "version") {
      r.version = parse_wire_int(val, "reply version", 1, kMax);
    } else if (key == "iteration") {
      r.iteration = parse_wire_int(val, "reply iteration", 1, kMax);
    } else if (key == "lost") {
      r.lost = ranks_of_csv(val, "lost rank");
    } else if (key.size() > 1 && key[0] == 'w') {
      std::uint64_t& d = r.digests[static_cast<int>(parse_wire_int(
          key.substr(1), "reply worker", 0, std::numeric_limits<int>::max()))];
      // A bad digest reads back differently; the check below rejects it.
      (void)std::from_chars(val.data(), val.data() + val.size(), d, 16);
    } else {
      throw BadRequest("bad reply token '" + tok + "'");
    }
  }
  // Whatever the loop let through — a missing field, a repeated key, a
  // short or upper-case digest, stray spaces — body() writes differently.
  if (r.body() != body)
    throw BadRequest("reply is not in canonical form: '" + body + "'");
  return r;
}

// ---------------------------------------------------------------------------
// Control framing.
// ---------------------------------------------------------------------------

void send_control(const net::Socket& s, net::FrameType type,
                  const std::string& key, std::uint32_t aux, ByteSpan payload,
                  net::Millis io_timeout, const std::string& ctx) {
  net::FrameHeader h;
  h.type = type;
  h.src_rank = 0;
  h.aux = aux;
  h.key = key;
  h.payload_len = payload.size();
  h.payload_crc = crc64(payload);
  if (obs::Tracer::global().enabled()) {
    const obs::TraceContext tc = obs::current_trace_context();
    if (tc.trace_id != 0) {
      h.trace.trace_id = tc.trace_id;
      h.trace.parent_span = tc.span_id;
      h.trace.op = static_cast<std::uint32_t>(type);
    }
  }
  const Buffer head = net::encode_frame_head(h);
  const net::IoSlice slices[2] = {{head.data(), head.size()},
                                  {payload.data(), payload.size()}};
  net::writev_full(s, slices, 2, io_timeout, ctx);

  // Same end-to-end contract as the data fabric: the receiver acks with the
  // payload CRC after verifying it.
  std::uint8_t ack_hdr[net::kFrameHeaderBytes];
  net::read_full(s, ack_hdr, sizeof(ack_hdr), io_timeout, ctx);
  const net::FrameHeader ack = net::check_ack(ack_hdr, ctx);
  ECC_CHECK_MSG(ack.payload_crc == h.payload_crc,
                ctx << ": ack CRC mismatch — payload corrupted in flight");
}

ControlFrame recv_control(const net::Socket& s, net::FrameType expect,
                          net::Millis io_timeout, const std::string& ctx) {
  std::uint8_t hdr[net::kFrameHeaderBytes];
  net::read_full(s, hdr, sizeof(hdr), io_timeout, ctx);
  std::uint32_t key_len = 0;
  bool has_trace = false;
  ControlFrame r;
  r.header = net::decode_frame_header(hdr, &key_len, &has_trace);
  if (has_trace) {
    std::uint8_t tbuf[net::kTraceContextBytes];
    net::read_full(s, tbuf, sizeof(tbuf), io_timeout, ctx);
    r.header.trace = net::decode_trace_context(tbuf);
  }
  ECC_CHECK_MSG(r.header.type == expect,
                ctx << ": got " << net::frame_type_name(r.header.type)
                    << ", expected " << net::frame_type_name(expect));
  if (key_len > 0) {
    r.header.key.resize(key_len);
    net::read_full(s, r.header.key.data(), key_len, io_timeout, ctx);
  }
  r.payload = Buffer(r.header.payload_len, Buffer::Init::kUninitialized);
  if (!r.payload.empty())
    net::read_full(s, r.payload.data(), r.payload.size(), io_timeout, ctx);
  ECC_CHECK_MSG(crc64(r.payload.span()) == r.header.payload_crc,
                ctx << ": payload CRC mismatch — wire corruption");

  std::uint8_t ack_hdr[net::kFrameHeaderBytes];
  net::encode_ack(0, 0, r.header.payload_crc, ack_hdr);
  net::write_full(s, ack_hdr, sizeof(ack_hdr), io_timeout, ctx);
  return r;
}

ControlReply client_request(const net::Endpoint& server,
                            const std::string& command,
                            const std::string& args,
                            const net::TransportOptions& opts) {
  const std::string ctx = "client request '" + command + "' to " +
                          server.to_string();
  obs::ScopedSpan span("svc.request:" + command);
  const auto t0 = std::chrono::steady_clock::now();
  net::Socket s = net::connect_with_retry(server, opts.connect_timeout,
                                          opts.connect_retries,
                                          opts.backoff_base, opts.backoff_max,
                                          ctx);
  net::set_tcp_nodelay(s, opts.tcp_nodelay);
  send_control(s, net::FrameType::kRequest, command, 0, span_of(args),
               opts.io_timeout, ctx);
  ControlFrame resp = recv_control(s, net::FrameType::kResponse,
                                   opts.io_timeout, ctx);
  const double rtt_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                t0)
          .count();
  return {resp.header.aux == 0, string_of(resp.payload), rtt_ms,
          resp.header.aux, false};
}

// ---------------------------------------------------------------------------
// Deterministic job content.
// ---------------------------------------------------------------------------

dnn::CheckpointGenConfig job_gen_config(const std::string& job,
                                        std::int64_t iteration, int world) {
  dnn::CheckpointGenConfig cfg;
  cfg.model = dnn::make_model(dnn::ModelFamily::kGPT2, 96, 2, 6, "svc");
  cfg.model.vocab = 384;
  cfg.parallelism = world % 2 == 0
                        ? dnn::ParallelismSpec{2, world / 2, 1}
                        : dnn::ParallelismSpec{1, world, 1};
  cfg.seed = crc64(span_of(job)) ^ static_cast<std::uint64_t>(iteration);
  cfg.iteration = iteration;
  return cfg;
}

// ---------------------------------------------------------------------------
// WorkerDaemon.
// ---------------------------------------------------------------------------

WorkerDaemon::WorkerDaemon(WorkerDaemonConfig cfg)
    : cfg_(std::move(cfg)),
      fabric_(cfg_.rank, cfg_.fabric_eps, cfg_.fabric_opts),
      control_listener_(net::listen_on(cfg_.control_ep)) {
  ECC_CHECK_MSG(cfg_.ec.k + cfg_.ec.m == fabric_.world_size(),
                "worker daemon: k+m=" << cfg_.ec.k + cfg_.ec.m
                                      << " != world size "
                                      << fabric_.world_size());
}

WorkerDaemon::~WorkerDaemon() { stop_beats(); }

void WorkerDaemon::stop_beats() {
  beat_stop_.store(true);
  if (beat_thread_.joinable()) beat_thread_.join();
}

void WorkerDaemon::join_cluster() {
  if (!cfg_.coordinator_ep) return;
  // Generous connect retry: at startup the coordinator may not be up yet.
  const ControlReply r =
      client_request(*cfg_.coordinator_ep, "join", std::to_string(cfg_.rank),
                     cfg_.fabric_opts);
  ECC_CHECK_MSG(r.ok, "join rejected: " << r.body);
  const ParsedArgs pa = parse_args(r.body);
  const std::uint64_t epoch = parse_u64(pa.kv, "epoch");
  epoch_.store(epoch);
  fabric_.set_epoch(epoch);
  beat_thread_ = std::thread([this] { beat_loop(); });
}

void WorkerDaemon::beat_loop() {
  // Tight per-beat budgets: a beat that cannot land within roughly one
  // period is dropped — the next one carries the same information.
  net::TransportOptions opts = cfg_.fabric_opts;
  opts.connect_timeout = opts.heartbeat_period;
  opts.connect_retries = 0;
  opts.io_timeout = net::Millis(opts.heartbeat_period.count() * 4);
  while (!beat_stop_.load()) {
    std::this_thread::sleep_for(cfg_.fabric_opts.heartbeat_period);
    if (beat_stop_.load()) return;
    const auto now_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                            std::chrono::steady_clock::now().time_since_epoch())
                            .count();
    if (now_ns < frozen_until_ns_.load()) continue;  // gray: silent
    try {
      const ControlReply r = client_request(
          *cfg_.coordinator_ep, "beat",
          std::to_string(cfg_.rank) + " epoch=" + std::to_string(epoch_.load()),
          opts);
      if (!r.ok && r.body.rfind("fenced", 0) == 0) {
        // This rank was declared dead and superseded; stop competing.
        fenced_.store(true);
        return;
      }
    } catch (const CheckFailure&) {
      // Coordinator briefly unreachable — keep beating; it judges us by
      // wall-clock silence, not individual failures.
    }
  }
}

core::FabricSession& WorkerDaemon::session_for(const std::string& job) {
  auto it = sessions_.find(job);
  if (it != sessions_.end()) return it->second;
  core::ECCheckConfig jcfg = cfg_.ec;
  jcfg.key_namespace = job + "/";
  return sessions_
      .try_emplace(job, fabric_, jcfg, cfg_.gpus_per_node,
                   cfg_.retain_versions)
      .first->second;
}

core::Membership WorkerDaemon::apply_epoch_and_members(
    const std::map<std::string, std::string>& kv) {
  const std::uint64_t cmd_epoch = parse_u64(kv, "epoch");
  const std::uint64_t mine = epoch_.load();
  if (cmd_epoch != 0 && mine != 0) {
    ECC_CHECK_MSG(cmd_epoch >= mine,
                  "fenced: command epoch " << cmd_epoch
                                           << " is stale (rank at " << mine
                                           << ")");
    if (cmd_epoch > mine) {
      epoch_.store(cmd_epoch);
      fabric_.set_epoch(cmd_epoch);
    }
  }
  const auto it = kv.find("alive");
  return it == kv.end()
             ? core::Membership()
             : core::Membership::of(ranks_of_csv(it->second, "alive rank"));
}

std::string WorkerDaemon::do_save(const std::string& job,
                                  std::int64_t iteration,
                                  const core::Membership& members) {
  core::FabricSession& session = session_for(job);
  session.set_membership(members);
  const int world = fabric_.world_size() * cfg_.gpus_per_node;
  const dnn::CheckpointGenConfig gen = job_gen_config(job, iteration, world);
  // Sited workers: under a degraded membership the adopter also carries the
  // dead ranks' shards, re-synthesized here — content is a pure function of
  // (job, iteration, worker), so adoption needs no data from the corpse.
  const std::vector<int> workers = session.driven_workers();

  std::vector<dnn::StateDict> mine;
  mine.reserve(workers.size());
  for (int w : workers) mine.push_back(dnn::make_worker_state_dict(gen, w));
  std::vector<const dnn::StateDict*> ptrs;
  ptrs.reserve(mine.size());
  for (const dnn::StateDict& sd : mine) ptrs.push_back(&sd);

  session.save(ptrs);
  ++saves_ok_;
  ShardReply reply;
  reply.version = session.latest_version();
  reply.iteration = iteration;
  for (std::size_t i = 0; i < workers.size(); ++i)
    reply.digests[workers[i]] = mine[i].digest();
  return reply.body();
}

std::string WorkerDaemon::do_load(const std::string& job,
                                  const core::Membership& members) {
  core::FabricSession& session = session_for(job);
  session.set_membership(members);
  std::vector<dnn::StateDict> out;
  const core::FabricSession::RecoverResult res = session.load(out);
  ECC_CHECK_MSG(res.report.success, "load failed: " << res.report.detail);
  const std::vector<int> workers = session.driven_workers();
  ECC_CHECK_MSG(!out.empty() && out.size() == workers.size(),
                "load returned " << out.size() << " shards for "
                                 << workers.size() << " driven workers");
  // The shards name the iteration they were synthesized from
  // (job_gen_config), so a client can recompute their digests.
  const auto it = out.front().metadata().find("iteration");
  ECC_CHECK_MSG(it != out.front().metadata().end() &&
                    std::holds_alternative<std::int64_t>(it->second),
                "loaded shards carry no integer iteration");
  ++loads_ok_;
  ShardReply reply;
  reply.version = res.version;
  reply.iteration = std::get<std::int64_t>(it->second);
  for (std::size_t i = 0; i < workers.size(); ++i)
    reply.digests[workers[i]] = out[i].digest();
  reply.detail = res.report.detail;
  return reply.body();
}

std::string WorkerDaemon::handle(const std::string& command,
                                 const std::string& args,
                                 std::uint32_t& status) {
  status = 0;
  try {
    if (command == "ping") {
      return "pong rank=" + std::to_string(cfg_.rank);
    }
    if (command == "save") {
      const ParsedArgs pa = parse_args(args);
      ECC_CHECK_MSG(pa.pos.size() == 2,
                    "save expects '<job> <iteration>', got '" << args << "'");
      const std::int64_t iteration =
          parse_wire_int(pa.pos[1], "save iteration", 1,
                         std::numeric_limits<std::int64_t>::max());
      const core::Membership members = apply_epoch_and_members(pa.kv);
      return do_save(pa.pos[0], iteration, members);
    }
    if (command == "load") {
      const ParsedArgs pa = parse_args(args);
      ECC_CHECK_MSG(pa.pos.size() == 1,
                    "load expects '<job>', got '" << args << "'");
      const core::Membership members = apply_epoch_and_members(pa.kv);
      return do_load(pa.pos[0], members);
    }
    if (command == "reset") {
      const ParsedArgs pa = parse_args(args);
      const std::uint64_t epoch = parse_u64(pa.kv, "epoch");
      if (epoch > epoch_.load()) {
        // Monotonic adoption: the coordinator re-fences survivors onto a
        // new epoch after every death or repair. Stale (lower) epochs are
        // ignored, never adopted.
        epoch_.store(epoch);
        fabric_.set_epoch(epoch);
      }
      fabric_.reset_all_peers();
      return "ok epoch=" + std::to_string(epoch_.load());
    }
    if (command == "freeze") {
      // Deterministic gray failure: stop serving AND heartbeating for the
      // given time, but keep the listener's accept backlog — exactly what a
      // SIGSTOP'd process looks like from the outside. The reply goes out
      // first (see run()); the stall starts after.
      const int ms = static_cast<int>(parse_wire_int(
          args, "freeze ms", 1, std::numeric_limits<int>::max()));
      const auto until = std::chrono::steady_clock::now() +
                         std::chrono::milliseconds(ms);
      frozen_until_ns_.store(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              until.time_since_epoch())
              .count());
      freeze_pending_ms_ = ms;
      return "ok frozen_ms=" + std::to_string(ms);
    }
    if (command == "inject") {
      if (args != "corrupt")
        throw BadRequest("inject expects 'corrupt', got '" + args + "'");
      // One-shot: the next fabric frame goes out with a flipped payload
      // byte, driving the receiver's wire-CRC-mismatch path.
      fabric_.corrupt_next_frame();
      return "ok armed=corrupt";
    }
    if (command == "status") {
      std::ostringstream os;
      os << "rank=" << cfg_.rank << " jobs=" << sessions_.size()
         << " saves_ok=" << saves_ok_ << " saves_failed=" << saves_failed_
         << " loads_ok=" << loads_ok_ << " epoch=" << epoch_.load();
      return os.str();
    }
    if (command == "clock") {
      // The coordinator's ping-pong clock probe: our tracer clock, read as
      // close to the wire as a single-threaded server gets.
      return std::to_string(obs::Tracer::global().now_ns());
    }
    if (command == "obs") {
      // Snapshot request for trace/stats aggregation. Service-level state
      // rides along as gauges so one pull carries everything.
      obs::StatsRegistry& stats = fabric_.stats();
      stats.set_gauge("svc.jobs", static_cast<double>(sessions_.size()));
      stats.set_gauge("svc.saves_ok", static_cast<double>(saves_ok_));
      stats.set_gauge("svc.saves_failed", static_cast<double>(saves_failed_));
      stats.set_gauge("svc.loads_ok", static_cast<double>(loads_ok_));
      stats.set_gauge(
          "obs.tracer.dropped",
          static_cast<double>(obs::Tracer::global().dropped_count()));
      if (args == "stats") return stats.to_json();
      return obs::serialize_snapshot(obs::Tracer::global(), &stats,
                                     "worker" + std::to_string(cfg_.rank));
    }
    if (command == "exit") {
      return "bye";
    }
    status = 1;
    return "unknown command '" + command + "'";
  } catch (const BadRequest& e) {
    // Malformed wire argument (garbage rank list, 2^80 epoch, junk
    // iteration): a typed protocol error, not a failed operation — and
    // never a foreign exception escaping the daemon loop.
    status = kStatusBadRequest;
    return std::string("bad request: ") + e.what();
  } catch (const CheckFailure& e) {
    // A torn collective (peer died mid-save) lands here: FabricSession
    // already rolled the version back; the daemon stays up and reports.
    if (command == "save") ++saves_failed_;
    status = 1;
    return std::string("error: ") + e.what();
  }
}

void WorkerDaemon::run() {
  const std::string ctx = "worker " + std::to_string(cfg_.rank) + " control";
  join_cluster();
  for (;;) {
    if (fenced_.load()) return;  // superseded — a replacement owns this rank
    if (!listener_readable(control_listener_, net::Millis(250))) continue;
    net::Socket conn;
    try {
      conn = net::accept_with_timeout(control_listener_,
                                      cfg_.fabric_opts.io_timeout, ctx);
    } catch (const CheckFailure&) {
      continue;  // raced client gave up between poll and accept
    }
    std::string command;
    try {
      ControlFrame req = recv_control(conn, net::FrameType::kRequest,
                                      cfg_.fabric_opts.io_timeout, ctx);
      command = req.header.key;
      std::uint32_t status = 0;
      std::string body;
      {
        // Adopt the request's trace context (if any): every span recorded
        // while handling — fabric sends, engine stages, the handler span
        // itself — chains back to the coordinator's root span.
        obs::ScopedTraceContext tctx(req.header.trace.trace_id,
                                     req.header.trace.parent_span);
        obs::ScopedSpan span("worker.handle:" + command);
        body = handle(command, string_of(req.payload), status);
      }
      send_control(conn, net::FrameType::kResponse, "", status,
                   span_of(body), cfg_.fabric_opts.io_timeout, ctx);
    } catch (const CheckFailure&) {
      continue;  // client died mid-exchange; daemon survives
    }
    if (command == "exit") {
      stop_beats();
      return;
    }
    if (freeze_pending_ms_ > 0) {
      // The freeze reply went out; now go dark. The beat thread is already
      // silent (frozen_until_ns_); this stalls serving too.
      std::this_thread::sleep_for(
          std::chrono::milliseconds(freeze_pending_ms_));
      freeze_pending_ms_ = 0;
    }
  }
}

// ---------------------------------------------------------------------------
// Coordinator.
// ---------------------------------------------------------------------------

Coordinator::Coordinator(CoordinatorConfig cfg)
    : cfg_(std::move(cfg)), listener_(net::listen_on(cfg_.client_ep)) {
  ECC_CHECK_MSG(!cfg_.worker_eps.empty(), "coordinator needs workers");
  ECC_CHECK_MSG(cfg_.max_queue >= 1, "max_queue must be at least 1");
  ECC_CHECK_MSG(cfg_.data_k >= 1 &&
                    cfg_.data_k <= static_cast<int>(cfg_.worker_eps.size()),
                "coordinator needs 1 <= data_k <= worker count (data_k="
                    << cfg_.data_k << ")");
  if (cfg_.liveness_ep) {
    ECC_CHECK_MSG(cfg_.parity_m >= 0 &&
                      cfg_.data_k + cfg_.parity_m ==
                          static_cast<int>(cfg_.worker_eps.size()),
                  "self-healing coordinator needs data_k + parity_m == "
                  "worker count");
    liveness_listener_ = net::listen_on(*cfg_.liveness_ep);
    cluster::LivenessTracker::Config tcfg;
    tcfg.heartbeat_timeout = cfg_.opts.heartbeat_timeout;
    tcfg.suspect_probes = cfg_.opts.suspect_probes;
    tracker_.emplace(tcfg, static_cast<int>(cfg_.worker_eps.size()),
                     cluster::LivenessTracker::Clock::now());
    epoch_ = 1;  // nonzero: fabric-level fencing is active from the start
    liveness_thread_ = std::thread([this] { liveness_loop(); });
  }
}

Coordinator::~Coordinator() {
  liveness_stop_.store(true);
  if (liveness_thread_.joinable()) liveness_thread_.join();
}

bool Coordinator::admit(net::Millis wait) {
  // Drain everything already waiting, then (if the queue is still empty)
  // block up to `wait` for the first arrival. Connections admitted while a
  // previous request was being served keep their arrival order; arrivals
  // past max_queue are told to back off (kStatusBusy) instead of waiting
  // unbounded behind a slow collective.
  for (;;) {
    const net::Millis budget = queue_.empty() ? wait : net::Millis(0);
    if (!listener_readable(listener_, budget)) break;
    net::Socket conn;
    try {
      conn = net::accept_with_timeout(listener_, net::Millis(100),
                                      "coordinator");
    } catch (const CheckFailure&) {
      break;
    }
    if (queue_.size() >= cfg_.max_queue) {
      ++rejected_;
      try {
        recv_control(conn, net::FrameType::kRequest, net::Millis(250),
                     "coordinator busy");
        const std::string body = "busy: admission queue full (" +
                                 std::to_string(queue_.size()) + ")";
        send_control(conn, net::FrameType::kResponse, "", kStatusBusy,
                     span_of(body), net::Millis(250), "coordinator busy");
      } catch (const CheckFailure&) {
        // Rejected client raced away; nothing to tell it.
      }
      continue;
    }
    queue_.push_back(std::move(conn));
  }
  max_depth_ = std::max(max_depth_, queue_.size());
  return !queue_.empty();
}

std::vector<ControlReply> Coordinator::fan_out(const std::string& command,
                                               const std::string& args,
                                               const std::vector<int>& targets) {
  std::vector<ControlReply> replies(cfg_.worker_eps.size());
  std::vector<bool> wanted(cfg_.worker_eps.size(), targets.empty());
  for (int t : targets) wanted.at(static_cast<std::size_t>(t)) = true;
  std::vector<std::thread> threads;
  threads.reserve(cfg_.worker_eps.size());
  // Trace context is thread-local; carry the serving thread's context into
  // each fan-out thread so every per-worker request chains to the root.
  const obs::TraceContext tc = obs::current_trace_context();
  for (std::size_t i = 0; i < cfg_.worker_eps.size(); ++i) {
    if (!wanted[i]) {
      replies[i].skipped = true;
      continue;
    }
    threads.emplace_back([this, &replies, &command, &args, i, tc] {
      obs::ScopedTraceContext tctx(tc.trace_id, tc.span_id);
      try {
        replies[i] =
            client_request(cfg_.worker_eps[i], command, args, cfg_.opts);
      } catch (const CheckFailure& e) {
        replies[i] = {false, std::string("unreachable: ") + e.what(),
                      0.0, kStatusError, false};
      }
    });
  }
  for (std::thread& t : threads) t.join();
  return replies;
}

void Coordinator::reset_workers(const std::vector<int>& targets) {
  // Best effort: dead workers are simply unreachable. With liveness on,
  // the reset also re-announces the current epoch to its targets.
  std::string args;
  {
    std::lock_guard<std::mutex> lock(live_mu_);
    if (epoch_ > 0) args = "epoch=" + std::to_string(epoch_);
  }
  fan_out("reset", args, targets);
}

bool Coordinator::clock_offset_ns(std::size_t i, std::int64_t* offset) {
  // A few ping-pong exchanges against the worker's `clock` verb; the
  // minimum-RTT midpoint estimate bounds the error by rtt/2 — far below
  // the millisecond-scale spans the merged trace is read for.
  constexpr int kProbes = 5;
  std::vector<obs::ClockSample> samples;
  samples.reserve(kProbes);
  const obs::Tracer& tracer = obs::Tracer::global();
  try {
    for (int p = 0; p < kProbes; ++p) {
      obs::ClockSample s;
      s.local_send_ns = static_cast<std::int64_t>(tracer.now_ns());
      const ControlReply r =
          client_request(cfg_.worker_eps[i], "clock", "", cfg_.opts);
      s.local_recv_ns = static_cast<std::int64_t>(tracer.now_ns());
      if (!r.ok) return false;
      s.remote_ns = std::stoll(r.body);
      samples.push_back(s);
    }
  } catch (const CheckFailure&) {
    return false;
  } catch (const std::exception&) {
    return false;  // unparsable clock body
  }
  *offset = obs::estimate_clock_offset_ns(samples);
  return true;
}

std::string Coordinator::merged_trace_json() {
  // One Chrome trace for the whole job: our own spans in our clock domain,
  // every reachable worker's snapshot shifted by its estimated offset.
  // Dead workers are skipped — their buffers died with them, which is why
  // check_merged_trace lets callers tolerate unresolved parent ids.
  obs::ChromeTraceWriter w;
  obs::Tracer::global().export_to(w, "coordinator");
  for (std::size_t i = 0; i < cfg_.worker_eps.size(); ++i) {
    std::int64_t offset = 0;
    if (!clock_offset_ns(i, &offset)) continue;
    ControlReply snap;
    try {
      snap = client_request(cfg_.worker_eps[i], "obs", "", cfg_.opts);
    } catch (const CheckFailure&) {
      continue;
    }
    if (!snap.ok) continue;
    std::string err;
    if (!obs::append_snapshot_to_trace(w, snap.body, "", -offset, &err))
      std::fprintf(stderr, "coordinator: worker %zu snapshot rejected: %s\n",
                   i, err.c_str());
  }
  std::ostringstream os;
  w.write(os);
  return os.str();
}

std::string Coordinator::aggregated_stats_json() {
  std::ostringstream os;
  obs::StatsRegistry agg;
  os << "{\"workers\":{";
  bool first = true;
  for (std::size_t i = 0; i < cfg_.worker_eps.size(); ++i) {
    ControlReply r;
    try {
      r = client_request(cfg_.worker_eps[i], "obs", "stats", cfg_.opts);
    } catch (const CheckFailure&) {
      continue;
    }
    if (!r.ok) continue;
    if (!first) os << ",";
    first = false;
    os << "\"worker" << i << "\":" << r.body;
    std::string err;
    if (!obs::accumulate_snapshot_stats(r.body, agg, &err))
      std::fprintf(stderr, "coordinator: worker %zu stats rejected: %s\n", i,
                   err.c_str());
  }
  os << "}";
  if (cfg_.opts.stats != nullptr)
    os << ",\"coordinator\":" << cfg_.opts.stats->to_json();
  // Counters sum across workers, histograms merge losslessly; gauges are
  // last-write-wins and only meaningful per worker.
  os << ",\"aggregate\":" << agg.to_json() << "}";
  return os.str();
}

std::string Coordinator::health_json(const std::string& job_filter) {
  std::ostringstream os;
  os << "{\"queue_depth\":" << queue_.size()
     << ",\"max_queue_depth\":" << max_depth_ << ",\"served\":" << served_
     << ",\"in_flight\":" << in_flight_;
  // Self-healing view: tracker states come from heartbeats (no pinging a
  // corpse — that would stall the health endpoint on connect retries).
  struct WorkerView {
    std::string state = "alive";
    std::uint64_t epoch = 0;
    std::uint64_t beats = 0;
  };
  std::vector<WorkerView> views(cfg_.worker_eps.size());
  int dead_count = 0;
  if (tracker_) {
    std::lock_guard<std::mutex> lock(live_mu_);
    os << ",\"cluster_epoch\":" << epoch_ << ",\"rejected\":" << rejected_
       << ",\"deaths\":" << deaths_ << ",\"repairs\":" << repairs_
       << ",\"fenced_beats\":" << fenced_beats_
       << ",\"degraded_ops\":" << degraded_ops_;
    for (std::size_t i = 0; i < views.size(); ++i) {
      const auto& p = tracker_->peer(static_cast<int>(i));
      views[i].state = cluster::to_string(p.state);
      views[i].epoch = p.epoch;
      views[i].beats = p.beats;
      dead_count += p.state == cluster::Liveness::kDead;
    }
    os << ",\"degraded\":" << (dead_count > 0 ? "true" : "false")
       << ",\"redundancy\":{\"k\":" << cfg_.data_k
       << ",\"m\":" << cfg_.parity_m
       << ",\"effective_m\":" << cfg_.parity_m - dead_count << "}";
  }
  os << ",\"workers\":[";
  const std::vector<ControlReply> pings =
      fan_out("ping", "", alive_targets());
  for (std::size_t i = 0; i < pings.size(); ++i) {
    if (i > 0) os << ",";
    os << "{\"rank\":" << i << ",\"alive\":"
       << (pings[i].ok ? "true" : "false");
    if (tracker_)
      os << ",\"state\":\"" << views[i].state << "\",\"epoch\":"
         << views[i].epoch << ",\"beats\":" << views[i].beats;
    if (pings[i].ok)
      os << ",\"rtt_ms\":" << obs::json_number(pings[i].rtt_ms);
    os << "}";
  }
  os << "],\"jobs\":{";
  bool first = true;
  for (const auto& [job, js] : job_stats_) {
    if (!job_filter.empty() && job != job_filter) continue;
    if (!first) os << ",";
    first = false;
    os << "\"" << obs::json_escape(job) << "\":{"
       << "\"last_version\":" << js.last_version
       << ",\"iterations\":" << js.iterations
       << ",\"saves_ok\":" << js.saves_ok
       << ",\"saves_failed\":" << js.saves_failed
       << ",\"loads_ok\":" << js.loads_ok
       << ",\"loads_failed\":" << js.loads_failed
       << ",\"save_latency_s\":" << obs::hist_summary_json(js.save_latency_s)
       << ",\"load_latency_s\":" << obs::hist_summary_json(js.load_latency_s)
       << ",\"last_error\":\"" << obs::json_escape(js.last_error) << "\"}";
  }
  os << "}}";
  return os.str();
}

namespace {

/// The member replies of one save or load, merged into one ShardReply.
struct Merged {
  bool ok = false;
  ShardReply reply;  ///< workers' digests in rank order, first non-empty detail
  std::string error;
};

/// The one merge of a save's or load's fan-out. Every ok member reply must
/// parse and name the same version and iteration. A load needs every
/// member's reply (`quorum` = 0). A save passes quorum = k: it is committed
/// when at least k member replies are ok, and the ranks whose reply failed
/// are named in `lost`. That is the §III-B rule. A rank whose reply failed
/// rolled the version back (FabricSession::save rolls back before it
/// throws), was refused before it ran, or is dead; each ok rank holds its
/// own chunk row and commit marker, so k ok replies mean k committed rows.
/// A reply lost from a live rank that did commit counts as not committed,
/// so the rule can only err toward reporting "failed". This relies on the
/// service never setting ec.flush_to_remote: a flushed remote copy could
/// make a version recoverable with fewer than k replies.
Merged merge_replies(const std::vector<ControlReply>& replies, int quorum) {
  Merged m;
  int ok = 0;
  for (std::size_t i = 0; i < replies.size(); ++i) {
    if (replies[i].skipped) continue;  // not a member of this collective
    const std::string who = "worker " + std::to_string(i) + ": ";
    if (!replies[i].ok) {
      m.reply.lost.push_back(static_cast<int>(i));
      if (m.error.empty()) m.error = who + replies[i].body;
      continue;
    }
    ShardReply r;
    try {
      r = ShardReply::parse(replies[i].body);
    } catch (const BadRequest& e) {
      m.error = who + e.what();
      return m;
    }
    if (ok++ > 0 && (r.version != m.reply.version ||
                     r.iteration != m.reply.iteration)) {
      m.error = "workers disagree: " + m.reply.body() + " vs " + who + r.body();
      return m;
    }
    m.reply.version = r.version;
    m.reply.iteration = r.iteration;
    m.reply.digests.insert(r.digests.begin(), r.digests.end());
    if (m.reply.detail.empty()) m.reply.detail = r.detail;
  }
  if (ok == 0 || ok < quorum || (quorum == 0 && !m.reply.lost.empty())) {
    m.error += " (" + std::to_string(ok) + " member replies ok)";
    return m;
  }
  m.ok = true;
  return m;
}

}  // namespace

// ---------------------------------------------------------------------------
// Self-healing: liveness thread, failure detection, repair controller.
// ---------------------------------------------------------------------------

void Coordinator::liveness_loop() {
  const std::string ctx = "coordinator liveness";
  // Beats are tiny and frequent: short budgets everywhere, one request per
  // connection, and only a brief live_mu_ hold per beat — this thread must
  // never stall the main loop.
  const net::Millis io(250);
  while (!liveness_stop_.load()) {
    if (!listener_readable(liveness_listener_, net::Millis(100))) continue;
    net::Socket conn;
    try {
      conn = net::accept_with_timeout(liveness_listener_, io, ctx);
    } catch (const CheckFailure&) {
      continue;
    }
    try {
      const ControlFrame req =
          recv_control(conn, net::FrameType::kRequest, io, ctx);
      const std::string verb = req.header.key;
      const ParsedArgs pa = parse_args(string_of(req.payload));
      std::uint32_t status = kStatusOk;
      std::string body;
      if ((verb == "beat" || verb == "join" || verb == "rejoin") &&
          !pa.pos.empty()) {
        // Beats come off the open network: a garbage rank or a 2^80 epoch
        // must get a typed refusal, not throw std::invalid_argument through
        // the liveness thread.
        int rank = -1;
        std::uint64_t beat_epoch = 0;
        try {
          rank = static_cast<int>(parse_wire_int(
              pa.pos[0], "rank", 0, std::numeric_limits<int>::max()));
          beat_epoch = parse_u64(pa.kv, "epoch");
        } catch (const BadRequest& e) {
          status = kStatusBadRequest;
          body = e.what();
          rank = -1;
        }
        std::lock_guard<std::mutex> lock(live_mu_);
        if (status != kStatusOk) {
          // fall through to the reply below
        } else if (rank < 0 || rank >= tracker_->world()) {
          status = kStatusBadRequest;
          body = "bogus rank " + pa.pos[0];
        } else if (verb == "beat") {
          const cluster::Liveness state = tracker_->beat(
              rank, beat_epoch,
              cluster::LivenessTracker::Clock::now());
          if (state == cluster::Liveness::kDead &&
              admitting_.count(rank) == 0) {
            // A corpse is beating: it was declared dead and (possibly)
            // replaced. Fence it out — it must exit, not rejoin silently.
            // The exemption: a rank with an accepted-but-unprocessed join
            // is still formally dead, yet the beat comes from its NEW
            // incarnation awaiting admission — fencing it here would kill
            // every replacement whose first beat outruns process_joins().
            ++fenced_beats_;
            status = kStatusError;
            body = "fenced epoch=" + std::to_string(epoch_);
          } else {
            body = "ok epoch=" + std::to_string(epoch_);
          }
        } else {  // join / rejoin
          pending_joins_.push_back(rank);
          admitting_.insert(rank);
          body = "ok epoch=" + std::to_string(epoch_);
        }
      } else {
        status = kStatusError;
        body = "unknown liveness verb '" + verb + "'";
      }
      send_control(conn, net::FrameType::kResponse, "", status, span_of(body),
                   io, ctx);
    } catch (const CheckFailure&) {
      continue;  // half-open beat; the next one carries the same info
    }
  }
}

std::vector<int> Coordinator::alive_targets() {
  if (!tracker_) return {};
  std::lock_guard<std::mutex> lock(live_mu_);
  return tracker_->ranks_in(cluster::Liveness::kAlive);
}

std::string Coordinator::membership_args(const std::vector<int>& targets) {
  if (!tracker_) return "";
  std::string s;
  {
    std::lock_guard<std::mutex> lock(live_mu_);
    s = "epoch=" + std::to_string(epoch_);
  }
  if (targets.size() < cfg_.worker_eps.size())
    s += " alive=" + csv_of(targets);
  return s;
}

void Coordinator::tick() {
  if (!tracker_) return;
  using Clock = cluster::LivenessTracker::Clock;
  struct Suspect {
    int rank;
    std::uint64_t beats;
  };
  std::vector<Suspect> suspects;
  {
    std::lock_guard<std::mutex> lock(live_mu_);
    tracker_->evaluate(Clock::now());
    for (int r : tracker_->suspects())
      suspects.push_back({r, tracker_->peer(r).beats});
  }
  std::vector<int> newly_dead;
  for (const Suspect& s : suspects) {
    // Dead-vs-gray: probe the suspect's control endpoint outside the lock.
    // Connection refused means the process is gone (hard death). A
    // completed or timed-out connect proves nothing — a SIGSTOP'd process
    // still accepts via its backlog — so only a heartbeat that arrived
    // since we snapshot counts as evidence of life.
    const net::ProbeResult probe = net::probe_endpoint(
        cfg_.worker_eps[static_cast<std::size_t>(s.rank)],
        cfg_.opts.heartbeat_period);
    std::lock_guard<std::mutex> lock(live_mu_);
    const bool beat_arrived = tracker_->peer(s.rank).beats != s.beats;
    if (tracker_->probe_result(s.rank,
                               probe == net::ProbeResult::kRefused,
                               beat_arrived, Clock::now()) ==
        cluster::Liveness::kDead)
      newly_dead.push_back(s.rank);
  }
  if (!newly_dead.empty()) declare_dead(newly_dead);
  process_joins();
}

void Coordinator::declare_dead(const std::vector<int>& ranks) {
  std::vector<int> survivors;
  std::uint64_t epoch = 0;
  {
    std::lock_guard<std::mutex> lock(live_mu_);
    deaths_ += ranks.size();
    // One bump fences every corpse of this batch: survivors move to the
    // new epoch (control-plane args AND fabric hellos), so anything the
    // dead ranks send after resurrecting is rejected on arrival.
    epoch = ++epoch_;
    survivors = tracker_->ranks_in(cluster::Liveness::kAlive);
  }
  std::fprintf(stderr, "coordinator: declared dead: %s (epoch now %llu)\n",
               csv_of(ranks).c_str(),
               static_cast<unsigned long long>(epoch));
  reset_workers(survivors);
}

void Coordinator::process_joins() {
  std::vector<int> joins;
  {
    std::lock_guard<std::mutex> lock(live_mu_);
    joins.swap(pending_joins_);
  }
  if (joins.empty()) return;
  std::vector<int> repairing;
  {
    std::lock_guard<std::mutex> lock(live_mu_);
    const auto now = cluster::LivenessTracker::Clock::now();
    for (int r : joins) {
      // A join for a dead rank is a replacement (or a rejoin with intact
      // state) — that is a repair: new epoch, recover every job so the
      // newcomer's rows are rebuilt from the erasure-coded remainder, and
      // only then admit it to the membership. A join for an alive rank is
      // the benign startup announcement, admitted on the spot.
      if (tracker_->state(r) == cluster::Liveness::kDead) {
        if (std::find(repairing.begin(), repairing.end(), r) ==
            repairing.end())
          repairing.push_back(r);
      } else {
        tracker_->mark_alive(r, epoch_, now);
        admitting_.erase(r);
      }
    }
    if (!repairing.empty()) ++epoch_;
  }
  if (repairing.empty()) return;
  // Recover onto the joiners while they are still formally dead: they are
  // explicit fan-out targets here but stay out of the serving membership
  // until every job is rebuilt. Their beats stay exempt from fencing for
  // the whole window (admitting_ holds them), and on failure the joins are
  // re-enqueued so the next tick retries the repair.
  std::vector<int> targets = alive_targets();
  targets.insert(targets.end(), repairing.begin(), repairing.end());
  std::sort(targets.begin(), targets.end());
  reset_workers(targets);  // carries the new epoch to every member
  const std::string margs = membership_args(targets);
  bool all_ok = true;
  for (const auto& [job, _] : iterations_) {
    const std::vector<ControlReply> replies = fan_out(
        "load", job + (margs.empty() ? "" : " " + margs), targets);
    const Merged m = merge_replies(replies, 0);
    if (!m.ok) {
      all_ok = false;
      job_stats_[job].last_error = "repair load failed: " + m.error;
    } else {
      job_stats_[job].last_version = m.reply.version;
    }
  }
  std::lock_guard<std::mutex> lock(live_mu_);
  if (all_ok) {
    const auto now = cluster::LivenessTracker::Clock::now();
    for (int r : repairing) {
      tracker_->mark_alive(r, epoch_, now);
      admitting_.erase(r);
    }
    ++repairs_;
  } else {
    pending_joins_.insert(pending_joins_.end(), repairing.begin(),
                          repairing.end());
  }
  std::fprintf(stderr,
               "coordinator: repaired ranks %s (epoch %llu, %s)\n",
               csv_of(repairing).c_str(),
               static_cast<unsigned long long>(epoch_),
               all_ok ? "all jobs recovered" : "some jobs failed; will retry");
}

std::string Coordinator::handle(const std::string& command,
                                const std::string& args,
                                std::uint32_t& status) {
  status = 0;
  std::istringstream is(args);
  std::string job;
  is >> job;

  if (command == "status") {
    const std::vector<ControlReply> pings =
        fan_out("ping", "", alive_targets());
    std::size_t alive = 0;
    for (const ControlReply& r : pings) alive += r.ok;
    std::ostringstream os;
    os << "queue_depth=" << queue_.size() << " max_depth=" << max_depth_
       << " served=" << served_ << " jobs=" << iterations_.size()
       << " workers=" << alive << "/" << pings.size();
    if (tracker_) {
      std::lock_guard<std::mutex> lock(live_mu_);
      os << " epoch=" << epoch_ << " rejected=" << rejected_
         << " deaths=" << deaths_ << " repairs=" << repairs_;
    }
    return os.str();
  }
  if (command == "reset") {
    reset_workers(alive_targets());
    return "ok";
  }
  if (command == "health") {
    return health_json(job);
  }
  if (command == "stats") {
    return aggregated_stats_json();
  }
  if (command == "trace") {
    return merged_trace_json();
  }
  if (command == "shutdown") {
    fan_out("exit", "");
    stop_ = true;
    return "bye";
  }
  if (command == "save" || command == "load") {
    if (job.empty()) {
      status = kStatusError;
      return command + " expects '<job>'";
    }
    const ParsedArgs pa = parse_args(args);
    const auto tok_it = pa.kv.find("token");
    const std::string token = tok_it == pa.kv.end() ? "" : tok_it->second;
    const std::string idem_key = job + "\n" + command + "\n" + token;
    if (!token.empty()) {
      // Idempotent retry: the client timed out but the command may have
      // committed — replay the recorded outcome instead of committing a
      // second version under the same token.
      const auto it = idem_.find(idem_key);
      if (it != idem_.end()) {
        status = it->second.first;
        return it->second.second;
      }
    }

    // Degraded-mode gate: with liveness on, collectives run over the alive
    // members only. Up to m dead ranks the erasure code absorbs the loss
    // (reduced redundancy on save, workflow-B decode on load); beyond m
    // nothing can be served — fail fast with a precise, typed error.
    const std::vector<int> targets = alive_targets();
    std::string margs;
    int dead_count = 0;
    if (tracker_) {
      dead_count =
          static_cast<int>(cfg_.worker_eps.size()) -
          static_cast<int>(targets.size());
      if (dead_count > cfg_.parity_m) {
        status = kStatusUnavailable;
        std::string dead_csv;
        {
          std::lock_guard<std::mutex> lock(live_mu_);
          dead_csv = csv_of(tracker_->dead());
          const std::string gray = csv_of(tracker_->suspects());
          if (!gray.empty()) dead_csv += " (suspect: " + gray + ")";
        }
        return command + " unavailable: " + std::to_string(dead_count) +
               " of " + std::to_string(cfg_.worker_eps.size()) +
               " ranks down [" + dead_csv + "], erasure code tolerates m=" +
               std::to_string(cfg_.parity_m);
      }
      if (dead_count > 0) ++degraded_ops_;
      margs = membership_args(targets);
    }

    JobStats& js = job_stats_[job];
    std::string wargs = job;
    if (command == "save") {
      js.iterations = ++iterations_[job];
      wargs += " " + std::to_string(js.iterations);
    } else {
      // Survivors of an earlier failure — and everyone pooling a
      // connection to a since-replaced rank — must reconnect before the
      // collective.
      reset_workers(targets);
    }
    if (!margs.empty()) wargs += " " + margs;

    const auto t0 = std::chrono::steady_clock::now();
    std::vector<ControlReply> replies;
    {
      // Each save/load is the root of a fresh distributed trace: the root
      // span covers the whole fan-out, every worker chains under it.
      obs::ScopedTraceContext tctx(obs::Tracer::global().enabled()
                                       ? obs::Tracer::new_trace_id()
                                       : 0,
                                   0);
      obs::ScopedSpan root("coord." + command + ":" + job);
      ++in_flight_;
      replies = fan_out(command, wargs, targets);
      --in_flight_;
    }
    const double secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    Merged m = merge_replies(replies, command == "save" ? cfg_.data_k : 0);
    // A failed reply may come from a survivor of an aborted collective:
    // reset all member fabric connections so the next collective starts
    // clean, also after a save that committed without every reply.
    if (!m.ok || !m.reply.lost.empty()) reset_workers(targets);
    if (!m.ok) {
      ++(command == "save" ? js.saves_failed : js.loads_failed);
      js.last_error = m.error;
      status = kStatusError;
      return command + " failed: " + m.error;
    }
    js.last_version = m.reply.version;
    if (command == "save") {
      ++js.saves_ok;
      js.save_latency_s.observe(secs);
      if (dead_count > 0)
        m.reply.detail = "degraded (" + std::to_string(dead_count) +
                         " dead, redundancy " +
                         std::to_string(static_cast<int>(targets.size()) -
                                        cfg_.data_k) +
                         "/" + std::to_string(cfg_.parity_m) + ")";
    } else {
      ++js.loads_ok;
      js.load_latency_s.observe(secs);
    }
    const std::string body = m.reply.body();
    if (!token.empty()) {
      idem_[idem_key] = {kStatusOk, body};
      idem_order_.push_back(idem_key);
      if (idem_order_.size() > 256) {
        idem_.erase(idem_order_.front());
        idem_order_.pop_front();
      }
    }
    return body;
  }
  status = 1;
  return "unknown command '" + command + "'";
}

void Coordinator::run() {
  while (!stop_) {
    // Failure detection and repair advance between requests: suspects are
    // probed, deaths declared, pending joins repaired. A long-running
    // collective delays a tick but never loses one.
    tick();
    if (!admit(net::Millis(250))) continue;
    net::Socket conn = std::move(queue_.front());
    queue_.erase(queue_.begin());
    try {
      ControlFrame req = recv_control(conn, net::FrameType::kRequest,
                                      cfg_.opts.io_timeout, "coordinator");
      std::uint32_t status = 0;
      const std::string body =
          handle(req.header.key, string_of(req.payload), status);
      send_control(conn, net::FrameType::kResponse, "", status,
                   span_of(body), cfg_.opts.io_timeout, "coordinator");
      ++served_;
    } catch (const CheckFailure&) {
      continue;  // client died mid-exchange; coordinator survives
    }
  }
}

}  // namespace eccheck::svc
