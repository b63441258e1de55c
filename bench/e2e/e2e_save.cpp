// e2e_save: real multi-process save / delta-save / recover benchmark.
//
// One parent process forks k+m = 4 rank processes. Each rank owns one
// single-threaded net::SocketTransport over Unix-domain sockets, wrapped in
// a bench::TimedFabric, and drives core::FabricSession as a closed loop:
// like a training job, a rank issues its next checkpoint only after the
// previous one returned. Between operations the ranks meet the parent over
// pipes (never over the fabric), so every operation starts on all ranks
// within a pipe wake-up of each other and the parent decides when the
// measured window is over. Everything is timed from outside, around calls
// into public functions.
//
// Workloads (why each exists is in README.md):
//   dense_full      full saves of the paper's TP=4 x PP=4 testbed layout
//                   (GPT-2 h=96, 8 layers, Adam states, ~13.6 MB per save,
//                   64 KiB packets), shards regenerated from (seed,
//                   iteration) before every save;
//   sparse_delta    delta saves of an ECRM-style 65536x64 F32 embedding per
//                   rank after one 1%-density dnn::apply_sparse_update;
//   recover_decode  one seed save of the dense_full shape, then cycles that
//                   replace a seeded pair of ranks (at least one data node)
//                   with fresh transports and load on fresh sessions.
//
// An untraced run sets up kGroups times (fresh processes each time) and
// splits the measured window between the groups; end-to-end metrics pool
// the groups' operations and setup_s is the median set-up. --trace reruns
// the workload with obs::Tracer enabled in every rank, writes per-rank
// Chrome traces and layers.json, and reports the per-layer metrics
// (including replay legs of the public kernels on the rank's own inputs and
// same-run ceilings). End-to-end numbers never come from a traced run.
//
//   e2e_save --workload dense_full|sparse_delta|recover_decode|all
//            --seed S [--seconds N] [--json OUT] [--trace DIR] [--smoke]
//
// The last line of standard output is one JSON object
// {"correct","attempted","failed","metrics"}; every metric is also printed
// by name with its unit. Exit status is 0 only when every operation
// succeeded and passed its output check.
#include <poll.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "bench/e2e/timed_fabric.hpp"
#include "common/bytes.hpp"
#include "common/crc64.hpp"
#include "common/rng.hpp"
#include "core/delta.hpp"
#include "core/placement.hpp"
#include "core/protocol.hpp"
#include "core/session.hpp"
#include "dnn/checkpoint_gen.hpp"
#include "dnn/sparse_update.hpp"
#include "ec/crs_codec.hpp"
#include "gf/galois.hpp"
#include "gf/simd.hpp"
#include "net/transport.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/json.hpp"

namespace {

using namespace eccheck;
using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// CPU time this process has run, in seconds. Unlike wall time it does not
/// count waiting to be scheduled, nor (on a guest kernel with steal-time
/// accounting) time the hypervisor gave a virtual CPU to another guest, so
/// it follows the program more closely than the host's load.
double cpu_now() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

constexpr double kMiB = 1024.0 * 1024.0;
constexpr double kGiB = kMiB * 1024.0;

// ---- shape ----------------------------------------------------------------

constexpr int kK = 2;
constexpr int kM = 2;
constexpr int kRanks = kK + kM;
constexpr std::size_t kPacket = kib(64);
constexpr int kDenseGpus = 4;   // TP=4 workers per rank
constexpr int kRetain = 2;
constexpr int kGroups = 3;      // set-ups per untraced run
constexpr int kWarmupOps = 1;   // untimed operations after setup()
constexpr int kMinOps = 5;      // timed ops per group, even past the budget
constexpr int kSmokeOps = 3;
constexpr int kMsgTimeoutMs = 60000;

/// The tail percentile reported beside the median: the highest that keeps
/// at least ten samples beyond it in a 30-second run of the slowest
/// workload (~63 dense_full saves of ~0.45 s on a 4-core x86 host; p80
/// needs at least 50).
constexpr double kTail = 0.80;

enum class Workload { kDenseFull, kSparseDelta, kRecoverDecode };
constexpr std::array<Workload, 3> kAllWorkloads = {
    Workload::kDenseFull, Workload::kSparseDelta, Workload::kRecoverDecode};

const char* name_of(Workload w) {
  switch (w) {
    case Workload::kDenseFull: return "dense_full";
    case Workload::kSparseDelta: return "sparse_delta";
    case Workload::kRecoverDecode: return "recover_decode";
  }
  return "?";
}

core::ECCheckConfig engine_config(Workload w) {
  core::ECCheckConfig cfg;  // k=2, m=2, GF(2^8) tables, CRC scrub on
  cfg.packet_size = kPacket;
  cfg.delta.enabled = w == Workload::kSparseDelta;  // 4 KiB, 0.35 defaults
  return cfg;
}

int gpus_of(Workload w) {
  return w == Workload::kSparseDelta ? 1 : kDenseGpus;
}

/// The testbed layout: 16 GPT-2 workers, TP=4 inside a rank, PP=4 across
/// ranks. checkpoint_gen derives payload bytes from the seed alone, so the
/// iteration is folded into it: every iteration's tensors are new bytes.
dnn::CheckpointGenConfig dense_config(std::uint64_t seed,
                                      std::int64_t iteration) {
  dnn::CheckpointGenConfig g;
  g.model = dnn::make_model(dnn::ModelFamily::kGPT2, 96, 8, 8, "gpt2-e2e");
  g.model.vocab = 512;
  g.parallelism = {kDenseGpus, kRanks, 1};
  g.seed = seed ^ (static_cast<std::uint64_t>(iteration + 1) *
                   0x9e3779b97f4a7c15ULL);
  g.iteration = iteration;
  return g;
}

dnn::SparseUpdateSpec sparse_spec(std::uint64_t seed) {
  dnn::SparseUpdateSpec s;
  s.embedding_rows = 65536;
  s.embedding_dim = 64;
  s.row_density = 0.01;
  s.seed = seed;
  return s;
}

/// Rank pairs recover_decode may lose: every pair holding a data node, so
/// each cycle decodes (workflow B).
std::vector<std::array<int, 2>> lossy_pairs() {
  core::PlacementConfig pc;
  pc.num_nodes = kRanks;
  pc.gpus_per_node = kDenseGpus;
  pc.k = kK;
  pc.m = kM;
  const core::Placement plan = core::plan_placement(pc);
  std::vector<std::array<int, 2>> pairs;
  for (int a = 0; a < kRanks; ++a)
    for (int b = a + 1; b < kRanks; ++b)
      if (plan.is_data_node(a) || plan.is_data_node(b)) pairs.push_back({a, b});
  return pairs;
}

/// The pair lost in `cycle` (warm-up cycles are negative). Every block of
/// consecutive cycles visits each pair once, in a seeded order, so the mix
/// of one- and two-data-row decodes is the same on every seed.
std::array<int, 2> lost_pair(std::uint64_t seed, int group, int cycle) {
  static const std::vector<std::array<int, 2>> pairs = lossy_pairs();
  const auto index = static_cast<std::uint64_t>(cycle + kWarmupOps);
  const std::uint64_t block = index / pairs.size();
  SplitMix64 rng(seed ^ (static_cast<std::uint64_t>(group + 1) << 40) ^
                 ((block + 1) * 0xbf58476d1ce4e5b9ULL));
  std::vector<std::size_t> order(pairs.size());
  std::iota(order.begin(), order.end(), 0);
  for (std::size_t i = order.size() - 1; i > 0; --i)
    std::swap(order[i], order[rng.next_below(i + 1)]);
  return pairs[order[index % pairs.size()]];
}

// ---- statistics -----------------------------------------------------------

/// Linear-interpolated quantile, q in [0, 1].
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// Median wall time of `reps` runs of `body`.
template <typename Body>
double median_time(int reps, Body&& body) {
  std::vector<double> t;
  for (int i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    body();
    t.push_back(since(t0));
  }
  return median(std::move(t));
}

// ---- parent <-> rank messages ---------------------------------------------
// Ranks write length-prefixed messages to the parent; the parent writes
// one-byte commands back. Records are trivially copyable and cross the pipe
// as raw bytes (both ends are the same binary).

enum class Msg : std::uint32_t { kReady = 1, kOp, kFinal, kFail };
enum class OpKind : std::uint8_t { kTimed, kSeed, kVerify };
constexpr char kCmdGo = 'G', kCmdNext = 'N', kCmdStop = 'S';

/// Save stages from SaveReport::breakdown (finish-time differences).
enum Stage { kMetadata, kPack, kStep3, kCommit, kStages };

/// One rank's view of one session call.
struct OpRecord {
  OpKind kind = OpKind::kTimed;
  bool is_save = false;
  bool ok = false;  ///< the call's output check passed
  bool delta_used = false;
  double wall_s = 0;
  double cpu_s = 0;    ///< CPU time the rank spent in the call
  double stall_s = 0;  ///< SaveReport::stall_time / LoadReport::resume_time
  std::array<double, kStages> stage_s{};
  bench::FabricTimes fabric;
  std::uint64_t send_bytes = 0;
  std::uint64_t send_count = 0;
  std::uint64_t recv_bytes = 0;
  std::uint64_t retry_count = 0;
  double ack_wait_s = 0;
  std::uint64_t tensor_bytes = 0;
  std::uint64_t extents = 0;
  double dirty_ratio = 0;
};
static_assert(std::is_trivially_copyable_v<OpRecord>);

/// Replay legs and same-run ceilings, measured only by traced runs.
enum Rate {
  kDecomposePack,
  kEncodePartial,
  kUpdateRow,
  kDecode,
  kDiff,
  kCrc64,
  kMemcpy,
  kXor,
  kGfMul,
  kUdsSend,
  kRates
};

struct FinalRecord {
  std::uint64_t peak_rss_kib = 0;
  bench::FabricTimes leg;  ///< every fabric call the rank made in the group
  std::array<double, kRates> gib_s{};
};
static_assert(std::is_trivially_copyable_v<FinalRecord>);

void write_all(int fd, const void* data, std::size_t len) {
  const char* p = static_cast<const char*>(data);
  while (len > 0) {
    const ssize_t n = ::write(fd, p, len);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) throw CheckFailure(std::string("pipe write: ") + std::strerror(errno));
    p += n;
    len -= static_cast<std::size_t>(n);
  }
}

/// Read exactly `len` bytes; false on EOF, error or `timeout_ms` of silence.
bool read_all(int fd, void* data, std::size_t len, int timeout_ms) {
  char* p = static_cast<char*>(data);
  while (len > 0) {
    pollfd pfd{fd, POLLIN, 0};
    const int r = ::poll(&pfd, 1, timeout_ms);
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) return false;
    const ssize_t n = ::read(fd, p, len);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    p += n;
    len -= static_cast<std::size_t>(n);
  }
  return true;
}

void send_msg(int fd, Msg type, const void* payload, std::size_t len) {
  const std::uint32_t head[2] = {static_cast<std::uint32_t>(type),
                                 static_cast<std::uint32_t>(len)};
  std::string frame(reinterpret_cast<const char*>(head), sizeof head);
  frame.append(static_cast<const char*>(payload), len);
  write_all(fd, frame.data(), frame.size());
}

struct Incoming {
  Msg type = Msg::kFail;
  std::string payload;
};

std::optional<Incoming> receive(int fd, int timeout_ms = kMsgTimeoutMs) {
  std::uint32_t head[2];
  if (!read_all(fd, head, sizeof head, timeout_ms)) return std::nullopt;
  Incoming in;
  in.type = static_cast<Msg>(head[0]);
  in.payload.resize(head[1]);
  if (head[1] > 0 && !read_all(fd, in.payload.data(), head[1], timeout_ms))
    return std::nullopt;
  return in;
}

template <typename T>
T decode_as(const Incoming& in) {
  ECC_CHECK_MSG(in.payload.size() == sizeof(T), "malformed rank message");
  T v;
  std::memcpy(&v, in.payload.data(), sizeof(T));
  return v;
}

// ---- rank side ------------------------------------------------------------

struct RankEnv {
  int rank = 0;
  Workload workload = Workload::kDenseFull;
  std::uint64_t seed = 1;
  int group = 0;
  bool traced = false;
  bool smoke = false;
  std::string trace_dir;
  std::vector<net::Endpoint> endpoints;
  int cmd_fd = -1;  ///< parent → rank commands
  int msg_fd = -1;  ///< rank → parent messages
};

std::uint64_t counter_of(const obs::StatsRegistry::CounterMap& m,
                         const std::string& key) {
  const auto it = m.find(key);
  return it == m.end() ? 0 : it->second;
}

double breakdown_of(const ckpt::SaveReport& rep, const std::string& key) {
  const auto it = rep.breakdown.find(key);
  return it == rep.breakdown.end() ? 0 : it->second;
}

std::vector<const dnn::StateDict*> pointers(
    const std::vector<dnn::StateDict>& shards) {
  std::vector<const dnn::StateDict*> p;
  for (const auto& sd : shards) p.push_back(&sd);
  return p;
}

std::vector<std::uint64_t> digests_of(
    const std::vector<dnn::StateDict>& shards) {
  std::vector<std::uint64_t> d;
  for (const auto& sd : shards) d.push_back(sd.digest());
  return d;
}

/// One rank process: the protocol with the parent, the session calls and
/// their measurement. Workloads fill in inputs, the timed call and checks.
class RankRun {
 public:
  explicit RankRun(RankEnv env) : env_(std::move(env)) {}
  virtual ~RankRun() = default;
  RankRun(const RankRun&) = delete;
  RankRun& operator=(const RankRun&) = delete;

  void run();

 protected:
  /// Inputs and the first (untimed) session call.
  virtual void setup() = 0;
  /// Inputs of operation `op` (untimed, before the start rendezvous);
  /// negative for the kWarmupOps warm-up operations.
  virtual void prepare(int op) = 0;
  /// The operation itself: a warm-up (kSeed) or a timed call.
  virtual OpRecord run_op(OpKind kind) = 0;
  /// Untimed load of the last version, checked against regenerated inputs.
  virtual void verify() {}
  /// The shards this rank's calls consumed, and the next iteration's.
  virtual void replay_inputs(std::vector<dnn::StateDict>& cur,
                             std::vector<dnn::StateDict>& next) = 0;

  OpRecord save(const std::vector<dnn::StateDict>& shards, OpKind kind);
  OpRecord load(std::vector<dnn::StateDict>& out, OpKind kind,
                std::string* detail = nullptr);
  void send_record(const OpRecord& rec) {
    send_msg(env_.msg_fd, Msg::kOp, &rec, sizeof rec);
  }
  /// Bind a fresh transport on this rank's endpoint (a replaced process).
  void replace_transport();

  RankEnv env_;
  std::unique_ptr<net::SocketTransport> transport_;
  std::unique_ptr<bench::TimedFabric> timed_;
  std::unique_ptr<core::FabricSession> session_;

 private:
  struct Snapshot {
    bench::FabricTimes fabric;
    obs::StatsRegistry::CounterMap counters;
  };
  Snapshot snapshot() const {
    return {timed_->times(), transport_->stats().counters()};
  }
  void charge(OpRecord& rec, const Snapshot& before);
  char await_cmd();
  void ready() { send_msg(env_.msg_fd, Msg::kReady, nullptr, 0); }
  void replay(FinalRecord& fin);
  void ceilings(FinalRecord& fin);
  void write_trace();

  bench::FabricTimes leg_;
};

void RankRun::replace_transport() {
  session_.reset();
  timed_.reset();
  transport_.reset();  // closes the listener and unlinks the socket path
  transport_ = std::make_unique<net::SocketTransport>(
      env_.rank, env_.endpoints, net::TransportOptions{});
  timed_ = std::make_unique<bench::TimedFabric>(*transport_);
  session_ = std::make_unique<core::FabricSession>(
      *timed_, engine_config(env_.workload), gpus_of(env_.workload), kRetain);
}

void RankRun::charge(OpRecord& rec, const Snapshot& before) {
  rec.fabric = timed_->times() - before.fabric;
  const auto d = obs::StatsRegistry::delta(transport_->stats().counters(),
                                           before.counters);
  rec.send_bytes = counter_of(d, "net.send.bytes");
  rec.send_count = counter_of(d, "net.send.count");
  rec.recv_bytes = counter_of(d, "net.recv.bytes");
  rec.retry_count = counter_of(d, "net.retry.count");
  rec.ack_wait_s = static_cast<double>(counter_of(d, "net.ack.wait_us")) * 1e-6;
  leg_ += rec.fabric;
}

OpRecord RankRun::save(const std::vector<dnn::StateDict>& shards,
                       OpKind kind) {
  const auto ptrs = pointers(shards);
  OpRecord rec;
  rec.kind = kind;
  rec.is_save = true;
  const Snapshot before = snapshot();
  ckpt::SaveReport rep;
  {
    obs::ScopedSpan span("e2e.save");
    const double c0 = cpu_now();
    const auto t0 = Clock::now();
    rep = session_->save(ptrs);
    rec.wall_s = since(t0);
    rec.cpu_s = cpu_now() - c0;
  }
  charge(rec, before);
  rec.stall_s = rep.stall_time;
  rec.delta_used = rep.breakdown.count("step3_delta_patch") > 0;
  const double meta = breakdown_of(rep, "step2_metadata_broadcast");
  const double snap = breakdown_of(rep, "step1_snapshot");
  const double step3 =
      breakdown_of(rep, rec.delta_used ? "step3_delta_patch"
                                       : "step3_encode_pipeline");
  rec.stage_s = {meta, snap - meta, step3 - snap, rep.total_time - step3};
  rec.dirty_ratio = breakdown_of(rep, "delta_dirty_ratio");
  rec.extents = counter_of(rep.stats, "delta.extents.count");
  for (const auto& sd : shards) rec.tensor_bytes += sd.tensor_bytes();
  rec.ok = true;
  return rec;
}

OpRecord RankRun::load(std::vector<dnn::StateDict>& out, OpKind kind,
                       std::string* detail) {
  // A fresh session, as after a job restart — also on the survivors.
  core::FabricSession fresh(*timed_, engine_config(env_.workload),
                            gpus_of(env_.workload), kRetain);
  OpRecord rec;
  rec.kind = kind;
  const Snapshot before = snapshot();
  core::FabricSession::RecoverResult r;
  {
    obs::ScopedSpan span("e2e.load");
    const double c0 = cpu_now();
    const auto t0 = Clock::now();
    r = fresh.load(out);
    rec.wall_s = since(t0);
    rec.cpu_s = cpu_now() - c0;
  }
  charge(rec, before);
  rec.stall_s = r.report.resume_time;
  rec.ok = r.report.success;
  for (const auto& sd : out) rec.tensor_bytes += sd.tensor_bytes();
  if (detail != nullptr) *detail = r.report.detail;
  return rec;
}

char RankRun::await_cmd() {
  char c = 0;
  if (!read_all(env_.cmd_fd, &c, 1, -1)) throw CheckFailure("parent process went away");
  return c;
}

void RankRun::run() {
  if (env_.traced) obs::Tracer::global().enable();
  replace_transport();  // bind before anyone connects
  ready();
  ECC_CHECK_MSG(await_cmd() == kCmdGo, "unexpected command from the parent");
  setup();
  ready();
  for (int op = -kWarmupOps;; ++op) {
    const char c = await_cmd();
    if (c == kCmdStop) break;
    ECC_CHECK_MSG(c == kCmdNext, "unexpected command from the parent");
    prepare(op);
    ready();
    ECC_CHECK_MSG(await_cmd() == kCmdGo, "unexpected command from the parent");
    const OpRecord rec = run_op(op < 0 ? OpKind::kSeed : OpKind::kTimed);
    ECC_CHECK_MSG(op >= 0 || rec.ok, "warm-up operation failed its check");
    send_record(rec);
  }
  verify();
  FinalRecord fin;
  fin.leg = leg_;
  if (env_.traced) {
    obs::Tracer::global().disable();
    replay(fin);
    ceilings(fin);
    write_trace();
  }
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  fin.peak_rss_kib = static_cast<std::uint64_t>(ru.ru_maxrss);
  send_msg(env_.msg_fd, Msg::kFinal, &fin, sizeof fin);
}

/// Time the public functions the rank's calls ran, on the rank's own
/// inputs: decompose + pack of its shards, the parity products of its
/// packets, parity patches with the XOR delta to the next iteration, a
/// two-erasure decode, the dirty-extent diff and the CRC scrub.
void RankRun::replay(FinalRecord& fin) {
  const int reps = env_.smoke ? 1 : 9;
  std::vector<dnn::StateDict> cur, next;
  replay_inputs(cur, next);
  const ec::CrsCodec codec(kK, kM, 8, ec::KernelMode::kGfTable);

  std::size_t B = 1, tensor_bytes = 0;
  for (const auto& sd : cur) {
    B = std::max(B, core::packets_needed(sd.tensor_bytes(), kPacket));
    tensor_bytes += sd.tensor_bytes();
  }
  auto pack = [&](const std::vector<dnn::StateDict>& shards) {
    std::vector<Buffer> packets;
    for (const auto& sd : shards) {
      const core::Decomposition dec = core::decompose(sd);
      for (Buffer& b : core::pack_packets(dec.tensor_data, kPacket, B))
        packets.push_back(std::move(b));
    }
    return packets;
  };
  auto rate = [](double bytes, double seconds) {
    return seconds > 0 ? bytes / kGiB / seconds : 0.0;
  };

  fin.gib_s[kDecomposePack] = rate(
      static_cast<double>(tensor_bytes), median_time(reps, [&] { pack(cur); }));
  const std::vector<Buffer> pc = pack(cur);
  const std::vector<Buffer> pn = pack(next);
  const double packet_bytes = static_cast<double>(pc.size() * kPacket);

  std::array<Buffer, kM> dst = {Buffer(kPacket), Buffer(kPacket)};
  fin.gib_s[kEncodePartial] =
      rate(packet_bytes * kM, median_time(reps, [&] {
             for (std::size_t i = 0; i < pc.size(); ++i)
               for (int r = 0; r < kM; ++r)
                 codec.encode_partial(kK + r, static_cast<int>(i % kK),
                                      pc[i].span(),
                                      dst[static_cast<std::size_t>(r)].span(),
                                      /*accumulate=*/false);
           }));

  std::vector<core::DirtyExtent> extents;
  fin.gib_s[kDiff] = rate(packet_bytes, median_time(reps, [&] {
                            extents.clear();
                            for (std::size_t i = 0; i < pc.size(); ++i) {
                              auto e = core::diff_packet(
                                  static_cast<int>(i), pc[i].span(),
                                  pn[i].span(), 4096);
                              extents.insert(extents.end(), e.begin(), e.end());
                            }
                          }));

  std::vector<Buffer> deltas;
  for (const core::DirtyExtent& e : extents) {
    Buffer d = Buffer::copy_of(pn[e.packet].span().subspan(e.offset, e.length));
    xor_into(d.span(), pc[e.packet].span().subspan(e.offset, e.length));
    deltas.push_back(std::move(d));
  }
  fin.gib_s[kUpdateRow] = rate(
      static_cast<double>(core::dirty_bytes(extents)) * kM,
      median_time(reps, [&] {
        for (std::size_t x = 0; x < extents.size(); ++x)
          for (int r = 0; r < kM; ++r)
            codec.update_row(kK + r, static_cast<int>(extents[x].packet % kK),
                             extents[x].offset, deltas[x].span(),
                             dst[static_cast<std::size_t>(r)].span());
      }));

  // Consecutive packet pairs form k=2 stripes; both data rows are lost and
  // decoded from the two parity rows.
  std::vector<std::array<Buffer, kM>> parity;
  std::size_t last_stripe = 0;
  for (std::size_t i = 0; i + 1 < pc.size(); i += 2) {
    std::array<Buffer, kM> p = {Buffer(kPacket), Buffer(kPacket)};
    const std::array<ByteSpan, kK> data = {pc[i].span(), pc[i + 1].span()};
    std::array<MutableByteSpan, kM> out = {p[0].span(), p[1].span()};
    codec.encode(data, out);
    parity.push_back(std::move(p));
    last_stripe = i;
  }
  std::array<Buffer, kK> decoded = {Buffer(kPacket), Buffer(kPacket)};
  fin.gib_s[kDecode] = rate(
      static_cast<double>(parity.size() * kK * kPacket),
      median_time(reps, [&] {
        for (const auto& p : parity) {
          const std::array<ByteSpan, kM> chunks = {p[0].span(), p[1].span()};
          std::array<MutableByteSpan, kK> out = {decoded[0].span(),
                                                 decoded[1].span()};
          codec.decode({kK, kK + 1}, chunks, out);
        }
      }));
  if (!parity.empty() && !(decoded[0] == pc[last_stripe]))
    throw CheckFailure("replay decode did not reproduce the data packet");

  std::uint64_t crcs = 0;
  fin.gib_s[kCrc64] = rate(packet_bytes, median_time(reps, [&] {
                             crcs = 0;
                             for (const Buffer& b : pc) crcs ^= crc64(b.span());
                           }));
}

/// Ceilings measured by the same processes in the same run: memory copy,
/// XOR and GF(2^8) region multiply (active ISA) over 16 MiB, and 64 KiB
/// send_buffer frames between ranks 0 and 1 over the benchmark's own
/// transport.
void RankRun::ceilings(FinalRecord& fin) {
  const int reps = env_.smoke ? 1 : 9;
  const std::size_t n = mib(16);
  Buffer src(n), dst(n);
  fill_random(src.span(), env_.seed);
  auto rate = [&](double seconds) {
    return seconds > 0 ? static_cast<double>(n) / kGiB / seconds : 0.0;
  };
  fin.gib_s[kMemcpy] = rate(median_time(
      reps, [&] { std::memcpy(dst.data(), src.data(), n); }));
  fin.gib_s[kXor] =
      rate(median_time(reps, [&] { xor_into(dst.span(), src.span()); }));
  const gf::Field& field = gf::Field::get(8);
  fin.gib_s[kGfMul] = rate(median_time(reps, [&] {
    field.mul_region(0x8e, src.span(), dst.span(), /*accumulate=*/false);
  }));

  std::vector<int> all(kRanks);
  std::iota(all.begin(), all.end(), 0);
  const std::vector<int> pair = {0, 1};
  const int frames = env_.smoke ? 16 : 256;
  const std::string key = "e2e/ceiling";
  if (env_.rank == 0) transport_->store(0).put(key, Buffer(kPacket));
  transport_->barrier(all);
  if (env_.rank <= 1) {
    const double t = median_time(reps, [&] {
      for (int i = 0; i < frames; ++i) transport_->send_buffer(0, 1, key, key);
      transport_->barrier(pair);
    });
    fin.gib_s[kUdsSend] =
        t > 0 ? static_cast<double>(frames * kPacket) / kGiB / t : 0.0;
  }
  transport_->barrier(all);
}

void RankRun::write_trace() {
  obs::ChromeTraceWriter w;
  obs::Tracer::global().export_to(w, "rank" + std::to_string(env_.rank));
  const std::string path =
      env_.trace_dir + "/rank" + std::to_string(env_.rank) + ".trace.json";
  if (!w.write_file(path)) throw CheckFailure("cannot write " + path);
}

class DenseFullRun : public RankRun {
 public:
  using RankRun::RankRun;

 protected:
  void setup() override {
    regenerate(0);
    save(shards_, OpKind::kSeed);  // opens every connection
  }
  void prepare(int op) override { regenerate(op + kWarmupOps + 1); }
  OpRecord run_op(OpKind kind) override { return save(shards_, kind); }
  void verify() override {
    std::vector<dnn::StateDict> out;
    OpRecord rec = load(out, OpKind::kVerify);
    rec.ok = rec.ok && digests_of(out) == digests_of(shards_);
    send_record(rec);
  }
  void replay_inputs(std::vector<dnn::StateDict>& cur,
                     std::vector<dnn::StateDict>& next) override {
    cur = std::move(shards_);
    regenerate(iteration_ + 1);
    next = std::move(shards_);
  }

  /// This rank's workers at `iteration`, regenerated from (seed, iteration).
  void regenerate(std::int64_t iteration) {
    iteration_ = iteration;
    const dnn::CheckpointGenConfig gen = dense_config(env_.seed, iteration);
    shards_.clear();
    for (int l = 0; l < kDenseGpus; ++l)
      shards_.push_back(
          dnn::make_worker_state_dict(gen, env_.rank * kDenseGpus + l));
  }
  std::vector<dnn::StateDict> shards_;
  std::int64_t iteration_ = 0;
};

class SparseDeltaRun : public RankRun {
 public:
  using RankRun::RankRun;

 protected:
  void setup() override {
    spec_ = sparse_spec(env_.seed);
    shard_.push_back(dnn::make_sparse_model_shard(spec_, env_.rank));
    save(shard_, OpKind::kSeed);  // full encode, seeds the delta base
  }
  void prepare(int) override { step(); }
  OpRecord run_op(OpKind kind) override {
    OpRecord rec = save(shard_, kind);
    rec.ok = rec.ok && rec.delta_used;
    return rec;
  }
  void verify() override {
    std::vector<dnn::StateDict> out;
    OpRecord rec = load(out, OpKind::kVerify);
    rec.ok = rec.ok && digests_of(out) == digests_of(shard_);
    send_record(rec);
  }
  void replay_inputs(std::vector<dnn::StateDict>& cur,
                     std::vector<dnn::StateDict>& next) override {
    cur.push_back(dnn::make_sparse_model_shard(spec_, env_.rank));
    for (std::int64_t it = 1; it <= iteration_; ++it)
      dnn::apply_sparse_update(cur[0], spec_, env_.rank, it);
    ECC_CHECK_MSG(cur[0].digest() == shard_[0].digest(),
                  "sparse shard does not regenerate from (seed, iteration)");
    next = std::move(shard_);
    dnn::apply_sparse_update(next[0], spec_, env_.rank, iteration_ + 1);
  }

  /// One training iteration: a 1%-density sparse update of the shard.
  void step() {
    ++iteration_;
    dnn::apply_sparse_update(shard_[0], spec_, env_.rank, iteration_);
  }

  dnn::SparseUpdateSpec spec_;
  std::vector<dnn::StateDict> shard_;
  std::int64_t iteration_ = 0;
};

class RecoverDecodeRun : public RankRun {
 public:
  using RankRun::RankRun;

 protected:
  void setup() override {
    const dnn::CheckpointGenConfig gen = dense_config(env_.seed, 0);
    for (int l = 0; l < kDenseGpus; ++l)
      shards_.push_back(
          dnn::make_worker_state_dict(gen, env_.rank * kDenseGpus + l));
    want_ = digests_of(shards_);
    send_record(save(shards_, OpKind::kSeed));
  }
  void prepare(int op) override { replace_lost(op); }
  OpRecord run_op(OpKind kind) override {
    std::vector<dnn::StateDict> out;
    std::string detail;
    OpRecord rec = load(out, kind, &detail);
    rec.ok = rec.ok && detail.rfind("workflow B", 0) == 0 &&
             digests_of(out) == want_;
    return rec;
  }
  void replay_inputs(std::vector<dnn::StateDict>& cur,
                     std::vector<dnn::StateDict>& next) override {
    cur = std::move(shards_);
    const dnn::CheckpointGenConfig gen = dense_config(env_.seed, 1);
    for (int l = 0; l < kDenseGpus; ++l)
      next.push_back(
          dnn::make_worker_state_dict(gen, env_.rank * kDenseGpus + l));
  }

  /// The seeded pair loses its processes: a lost rank comes back as a
  /// fresh transport (empty store) on the same endpoint, survivors drop
  /// their pooled connections to it. The parent's rendezvous that follows
  /// plays the role of the job launcher's "rebuilt" barrier.
  void replace_lost(int cycle_index) {
    const auto lost = lost_pair(env_.seed, env_.group, cycle_index);
    const bool is_lost = lost[0] == env_.rank || lost[1] == env_.rank;
    if (is_lost) {
      replace_transport();
    } else {
      for (int r : lost) transport_->reset_peer(r);
    }
  }

  std::vector<dnn::StateDict> shards_;
  std::vector<std::uint64_t> want_;  ///< digests of the seed save's shards
};

std::unique_ptr<RankRun> make_rank_run(RankEnv env) {
  switch (env.workload) {
    case Workload::kDenseFull:
      return std::make_unique<DenseFullRun>(std::move(env));
    case Workload::kSparseDelta:
      return std::make_unique<SparseDeltaRun>(std::move(env));
    case Workload::kRecoverDecode:
      return std::make_unique<RecoverDecodeRun>(std::move(env));
  }
  return nullptr;
}

// ---- parent side ------------------------------------------------------------

struct Options {
  std::vector<Workload> workloads;
  std::uint64_t seed = 1;
  double seconds = 30;
  std::string json_out;
  std::string trace_dir;
  bool smoke = false;
};

/// Per-rank records of one operation.
using OpRecords = std::array<OpRecord, kRanks>;

struct GroupResult {
  double setup_s = 0;
  std::vector<OpRecords> timed, seed, verify;
  std::array<FinalRecord, kRanks> finals{};
  std::string failure;  ///< empty when every rank finished
};

struct RankLink {
  pid_t pid = -1;
  int cmd_fd = -1;
  int msg_fd = -1;
};

class Group {
 public:
  Group(const Options& o, Workload w, int group, bool traced)
      : o_(o), w_(w), group_(group), traced_(traced) {}
  Group(const Group&) = delete;
  Group& operator=(const Group&) = delete;
  ~Group() { teardown(); }

  /// Fork the ranks, set up, run timed operations until `budget_s` has
  /// passed (at least kMinOps; exactly kSmokeOps in smoke mode), verify.
  GroupResult run(double budget_s);

 private:
  void spawn();
  void command(char c);
  /// Read each rank's messages until it reports `until` (for kOp: the
  /// record of the operation just started), filing every record.
  bool collect(Msg until);
  void file(int rank, const OpRecord& rec);
  void fail(const std::string& why);
  void teardown();

  const Options& o_;
  Workload w_;
  int group_;
  bool traced_;
  std::string sock_dir_;
  std::array<RankLink, kRanks> links_{};
  GroupResult res_;
  /// Records filed so far, per OpKind and rank.
  std::array<std::array<std::size_t, kRanks>, 3> filed_{};
};

void Group::spawn() {
  sock_dir_ = "e2e-" + std::to_string(::getpid()) + "-" + std::to_string(group_);
  std::filesystem::create_directories(sock_dir_);
  std::vector<net::Endpoint> eps;
  for (int r = 0; r < kRanks; ++r)
    eps.push_back(net::Endpoint::uds(sock_dir_ + "/r" + std::to_string(r) + ".sock"));
  const std::string trace_dir =
      traced_ ? o_.trace_dir + "/" + name_of(w_) : std::string();
  if (traced_) std::filesystem::create_directories(trace_dir);

  std::fflush(stdout);
  for (int r = 0; r < kRanks; ++r) {
    int cmd[2], msg[2];
    ECC_CHECK_MSG(::pipe(cmd) == 0 && ::pipe(msg) == 0, "pipe failed");
    const pid_t pid = ::fork();
    ECC_CHECK_MSG(pid >= 0, "fork failed");
    if (pid == 0) {
      for (int p = 0; p < r; ++p) {
        ::close(links_[static_cast<std::size_t>(p)].cmd_fd);
        ::close(links_[static_cast<std::size_t>(p)].msg_fd);
      }
      ::close(cmd[1]);
      ::close(msg[0]);
      RankEnv env;
      env.rank = r;
      env.workload = w_;
      env.seed = o_.seed;
      env.group = group_;
      env.traced = traced_;
      env.smoke = o_.smoke;
      env.trace_dir = trace_dir;
      env.endpoints = eps;
      env.cmd_fd = cmd[0];
      env.msg_fd = msg[1];
      int code = 0;
      try {
        make_rank_run(std::move(env))->run();
      } catch (const std::exception& e) {
        const std::string what =
            "rank " + std::to_string(r) + ": " + e.what();
        try {
          send_msg(msg[1], Msg::kFail, what.data(), what.size());
        } catch (...) {
        }
        code = 1;
      }
      std::_Exit(code);
    }
    ::close(cmd[0]);
    ::close(msg[1]);
    links_[static_cast<std::size_t>(r)] = {pid, cmd[1], msg[0]};
  }
}

void Group::command(char c) {
  for (const RankLink& l : links_) write_all(l.cmd_fd, &c, 1);
}

bool Group::collect(Msg until) {
  for (int r = 0; r < kRanks; ++r) {
    const auto idx = static_cast<std::size_t>(r);
    for (;;) {
      const auto in = receive(links_[idx].msg_fd);
      if (!in) {
        fail("rank " + std::to_string(r) + " exited or went silent");
        return false;
      }
      if (in->type == Msg::kFail) {
        fail(in->payload);
        return false;
      }
      if (in->type == Msg::kOp) {
        const OpRecord rec = decode_as<OpRecord>(*in);
        file(r, rec);
        if (until == Msg::kOp) break;
        continue;
      }
      if (in->type != until) {
        fail("rank " + std::to_string(r) + " broke the pipe protocol");
        return false;
      }
      if (until == Msg::kFinal) res_.finals[idx] = decode_as<FinalRecord>(*in);
      break;
    }
  }
  return true;
}

void Group::file(int rank, const OpRecord& rec) {
  // Every rank sends the same sequence of records, so the n-th record of a
  // kind from each rank belongs to the n-th operation of that kind.
  const auto k = static_cast<std::size_t>(rec.kind);
  std::vector<OpRecords>& bucket = rec.kind == OpKind::kTimed ? res_.timed
                                   : rec.kind == OpKind::kSeed ? res_.seed
                                                               : res_.verify;
  std::size_t& n = filed_[k][static_cast<std::size_t>(rank)];
  if (n == bucket.size()) bucket.emplace_back();
  bucket[n++][static_cast<std::size_t>(rank)] = rec;
}

void Group::fail(const std::string& why) {
  if (res_.failure.empty()) {
    res_.failure = why;
    // The other ranks fail within the transport's io_timeout; the first
    // message read is not always the root cause, so report them all.
    const auto deadline = Clock::now() + std::chrono::seconds(8);
    for (const RankLink& l : links_) {
      for (;;) {
        const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
            deadline - Clock::now());
        const auto in = left.count() > 0
                            ? receive(l.msg_fd, static_cast<int>(left.count()))
                            : std::nullopt;
        if (!in) break;
        if (in->type == Msg::kFail) {
          if (in->payload != why) res_.failure += "; " + in->payload;
          break;
        }
      }
    }
  }
  teardown();
}

void Group::teardown() {
  for (RankLink& l : links_) {
    if (l.pid > 0) {
      int status = 0;
      if (!res_.failure.empty()) ::kill(l.pid, SIGKILL);
      ::waitpid(l.pid, &status, 0);
      if (res_.failure.empty() &&
          (!WIFEXITED(status) || WEXITSTATUS(status) != 0))
        res_.failure = "a rank exited abnormally";
      l.pid = -1;
    }
    if (l.cmd_fd >= 0) ::close(l.cmd_fd);
    if (l.msg_fd >= 0) ::close(l.msg_fd);
    l.cmd_fd = l.msg_fd = -1;
  }
  if (!sock_dir_.empty()) {
    std::error_code ec;
    std::filesystem::remove_all(sock_dir_, ec);
    sock_dir_.clear();
  }
}

GroupResult Group::run(double budget_s) {
  const auto t0 = Clock::now();
  try {
    spawn();
    if (!collect(Msg::kReady)) return res_;  // every rank bound its socket
    command(kCmdGo);
    if (!collect(Msg::kReady)) return res_;  // inputs built, first call made
    auto m0 = Clock::now();
    for (int op = -kWarmupOps;; ++op) {
      if (op == 0) {  // set-up ends where the first timed operation starts
        res_.setup_s = since(t0);
        m0 = Clock::now();
      }
      const bool more = op < 0 || (o_.smoke ? op < kSmokeOps
                                            : op < kMinOps || since(m0) < budget_s);
      if (!more) break;
      command(kCmdNext);
      if (!collect(Msg::kReady)) return res_;
      command(kCmdGo);
      if (!collect(Msg::kOp)) return res_;
    }
    command(kCmdStop);
    if (!collect(Msg::kFinal)) return res_;
  } catch (const std::exception& e) {
    fail(e.what());
    return res_;
  }
  teardown();
  return res_;
}

// ---- metrics ----------------------------------------------------------------

struct MetricDef {
  const char* name;
  const char* unit;
};

/// End-to-end metrics, reported by untraced runs for every workload. "op"
/// is the workload's timed session call: FabricSession::save for
/// dense_full and sparse_delta (save-to-durable), FabricSession::load for
/// recover_decode (until full redundancy is restored). An operation's cost
/// is the CPU time its ranks spent in the call: op_cpu_s sums the ranks,
/// rank_cpu_s is the busiest rank's. When neighbours on a shared host
/// contend for memory bandwidth, the wall time of the same calls grows by
/// 22-60% and their CPU time by at most 13% (README.md has the numbers), so
/// wall time is a per-layer metric.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},        {"op_cpu_s.p50", "s"}, {"op_cpu_s.p80", "s"},
    {"rank_cpu_s.p50", "s"}, {"peak_rss_mib", "MiB"},
};

/// Per-layer metrics, reported by traced runs. See README.md for the
/// end-to-end metric each should move and on which workload.
constexpr MetricDef kPerLayer[] = {
    {"wall.op_s.p50", "s"},
    {"wall.op_s.p80", "s"},
    {"wall.stall_s.p50", "s"},
    {"wall.tensor_mib_s", "MiB/s"},
    {"net.send_buffer.s_per_call", "s"},
    {"net.send_buffer.calls_per_op", "count"},
    {"net.send_buffers.s_per_call", "s"},
    {"net.send_buffers.calls_per_op", "count"},
    {"net.broadcast.s_per_call", "s"},
    {"net.broadcast.calls_per_op", "count"},
    {"net.all_gather.s_per_call", "s"},
    {"net.all_gather.calls_per_op", "count"},
    {"net.ring_all_reduce_xor.s_per_call", "s"},
    {"net.ring_all_reduce_xor.calls_per_op", "count"},
    {"net.barrier.s_per_call", "s"},
    {"net.barrier.calls_per_op", "count"},
    {"net.fabric.s", "s"},
    {"net.send.bytes", "bytes"},
    {"net.send.count", "count"},
    {"net.recv.bytes", "bytes"},
    {"net.ack.wait_s", "s"},
    {"net.retry.count", "count"},
    {"net.wire_mib_s", "MiB/s"},
    {"core.save.metadata_s", "s"},
    {"core.save.pack_s", "s"},
    {"core.save.step3_s", "s"},
    {"core.save.commit_s", "s"},
    {"core.save.self_s", "s"},
    {"core.load.self_s", "s"},
    {"core.delta.hit_ratio", "ratio"},
    {"core.delta.dirty_ratio", "ratio"},
    {"core.delta.extents.count", "count"},
    {"core.delta.diff.gib_s", "GiB/s"},
    {"core.decompose_pack.gib_s", "GiB/s"},
    {"ec.encode_partial.gib_s", "GiB/s"},
    {"ec.update_row.gib_s", "GiB/s"},
    {"ec.decode.gib_s", "GiB/s"},
    {"common.crc64.gib_s", "GiB/s"},
    {"ceiling.memcpy.gib_s", "GiB/s"},
    {"ceiling.xor.gib_s", "GiB/s"},
    {"ceiling.gf_mul_region.gib_s", "GiB/s"},
    {"ceiling.uds_send.gib_s", "GiB/s"},
    {"trace.overhead_ratio", "ratio"},
};

/// The record of the rank whose call took longest: an operation's time is
/// its time.
const OpRecord& critical(const OpRecords& op) {
  return *std::max_element(op.begin(), op.end(),
                           [](const OpRecord& a, const OpRecord& b) {
                             return a.wall_s < b.wall_s;
                           });
}

double op_wall(const OpRecords& op) { return critical(op).wall_s; }

template <typename F>
double mean_over(const std::vector<OpRecords>& ops, F&& f) {
  if (ops.empty()) return 0;
  double s = 0;
  for (const OpRecords& op : ops) s += f(op);
  return s / static_cast<double>(ops.size());
}

template <typename F>
double sum_ranks(const OpRecords& op, F&& f) {
  double s = 0;
  for (const OpRecord& r : op) s += static_cast<double>(f(r));
  return s;
}

struct RunTotals {
  std::vector<GroupResult> groups;
  std::vector<OpRecords> timed;  ///< pooled over groups
  int attempted = 0;
  int failed = 0;
  std::string failure;
};

RunTotals run_groups(const Options& o, Workload w, int count, double budget,
                     bool traced, int first_group) {
  RunTotals t;
  for (int g = 0; g < count; ++g) {
    Group group(o, w, first_group + g, traced);
    GroupResult res = group.run(budget);
    for (const auto& ops : {&res.timed, &res.verify}) {
      for (const OpRecords& op : *ops) {
        t.attempted += 1;
        bool ok = true;
        for (const OpRecord& r : op) ok = ok && r.ok;
        // The layers must close: time inside the fabric can never exceed
        // the call that contains it.
        ok = ok && critical(op).fabric.total_s() <= op_wall(op);
        if (!ok) t.failed += 1;
      }
    }
    t.timed.insert(t.timed.end(), res.timed.begin(), res.timed.end());
    if (!res.failure.empty()) {
      t.attempted += 1;  // the operation in flight when a rank failed
      t.failed += 1;
      t.failure = res.failure;
      break;  // the run has failed; further groups would only add time
    }
    t.groups.push_back(std::move(res));
  }
  return t;
}

using Metrics = std::map<std::string, double>;

Metrics end_to_end(const RunTotals& t) {
  Metrics m;
  std::vector<double> setup, cpu, rank_cpu;
  double rss_kib = 0;
  for (const GroupResult& g : t.groups) {
    setup.push_back(g.setup_s);
    for (const FinalRecord& f : g.finals)
      rss_kib = std::max(rss_kib, static_cast<double>(f.peak_rss_kib));
  }
  for (const OpRecords& op : t.timed) {
    cpu.push_back(sum_ranks(op, [](const OpRecord& r) { return r.cpu_s; }));
    double busiest = 0;
    for (const OpRecord& r : op) busiest = std::max(busiest, r.cpu_s);
    rank_cpu.push_back(busiest);
  }
  m["setup_s"] = median(setup);
  m["op_cpu_s.p50"] = median(cpu);
  m["op_cpu_s.p80"] = quantile(cpu, kTail);
  m["rank_cpu_s.p50"] = median(rank_cpu);
  m["peak_rss_mib"] = rss_kib / 1024.0;
  return m;
}

/// Wall-clock view of `ops`: the operation's time (slowest rank), the time
/// training is blocked, and tensor MiB per second of operation.
Metrics wall_metrics(const std::vector<OpRecords>& ops) {
  Metrics m;
  std::vector<double> wall, stall;
  double bytes = 0, seconds = 0;
  for (const OpRecords& op : ops) {
    wall.push_back(op_wall(op));
    double s = 0;
    for (const OpRecord& r : op) s = std::max(s, r.stall_s);
    stall.push_back(s);
    bytes += sum_ranks(op, [](const OpRecord& r) { return r.tensor_bytes; });
    seconds += op_wall(op);
  }
  m["wall.op_s.p50"] = median(wall);
  m["wall.op_s.p80"] = quantile(wall, kTail);
  m["wall.stall_s.p50"] = median(stall);
  m["wall.tensor_mib_s"] = seconds > 0 ? bytes / kMiB / seconds : 0;
  return m;
}

/// Per-layer metrics of one traced group and the untraced group run beside
/// it, which gives the wall-clock metrics.
Metrics per_layer(const GroupResult& g, const GroupResult& untraced) {
  Metrics m = wall_metrics(untraced.timed);
  const std::vector<OpRecords>& ops = g.timed;

  // Fabric latency per call over every call of the group (warm-up, timed
  // and verification calls alike), so a kind the timed calls do not use
  // still reports what one call costs; calls per op over the timed ops.
  bench::FabricTimes leg;
  for (const FinalRecord& f : g.finals) leg += f.leg;
  for (int k = 0; k < bench::kFabricOps; ++k) {
    const auto op = static_cast<bench::FabricOp>(k);
    if (op == bench::FabricOp::kOther) continue;
    const std::string base = std::string("net.") + bench::fabric_op_name(op);
    const auto i = static_cast<std::size_t>(k);
    m[base + ".s_per_call"] =
        leg.calls[i] ? leg.seconds[i] / static_cast<double>(leg.calls[i]) : 0;
    m[base + ".calls_per_op"] = mean_over(ops, [&](const OpRecords& o) {
      return static_cast<double>(critical(o).fabric.calls[i]);
    });
  }
  m["net.fabric.s"] = mean_over(
      ops, [](const OpRecords& o) { return critical(o).fabric.total_s(); });
  m["net.send.bytes"] = mean_over(ops, [](const OpRecords& o) {
    return sum_ranks(o, [](const OpRecord& r) { return r.send_bytes; });
  });
  m["net.send.count"] = mean_over(ops, [](const OpRecords& o) {
    return sum_ranks(o, [](const OpRecord& r) { return r.send_count; });
  });
  m["net.recv.bytes"] = mean_over(ops, [](const OpRecords& o) {
    return sum_ranks(o, [](const OpRecord& r) { return r.recv_bytes; });
  });
  m["net.ack.wait_s"] = mean_over(
      ops, [](const OpRecords& o) { return critical(o).ack_wait_s; });
  m["net.retry.count"] = mean_over(ops, [](const OpRecords& o) {
    return sum_ranks(o, [](const OpRecord& r) { return r.retry_count; });
  });
  const double wall = mean_over(ops, op_wall);
  m["net.wire_mib_s"] = wall > 0 ? m["net.send.bytes"] / kMiB / wall : 0;

  // Save and load layers over the timed calls of that kind; a workload
  // without timed calls of a kind reports its untimed seed saves or
  // verification loads instead.
  auto calls_of = [&](bool saves) {
    std::vector<OpRecords> out;
    for (const OpRecords& o : ops)
      if (o[0].is_save == saves) out.push_back(o);
    if (out.empty())
      for (const OpRecords& o : saves ? g.seed : g.verify)
        if (o[0].is_save == saves) out.push_back(o);
    return out;
  };
  const std::vector<OpRecords> saves = calls_of(true), loads = calls_of(false);
  const char* stage_names[kStages] = {"metadata_s", "pack_s", "step3_s",
                                      "commit_s"};
  for (int s = 0; s < kStages; ++s)
    m[std::string("core.save.") + stage_names[s]] =
        mean_over(saves, [&](const OpRecords& o) {
          return critical(o).stage_s[static_cast<std::size_t>(s)];
        });
  auto self_s = [](const OpRecords& o) {
    return critical(o).wall_s - critical(o).fabric.total_s();
  };
  m["core.save.self_s"] = mean_over(saves, self_s);
  m["core.load.self_s"] = mean_over(loads, self_s);

  std::vector<OpRecords> timed_saves;
  for (const OpRecords& o : ops)
    if (o[0].is_save) timed_saves.push_back(o);
  m["core.delta.hit_ratio"] = mean_over(timed_saves, [](const OpRecords& o) {
    bool all = true;
    for (const OpRecord& r : o) all = all && r.delta_used;
    return all ? 1.0 : 0.0;
  });
  m["core.delta.dirty_ratio"] = mean_over(
      timed_saves, [](const OpRecords& o) { return critical(o).dirty_ratio; });
  m["core.delta.extents.count"] = mean_over(timed_saves, [](const OpRecords& o) {
    return static_cast<double>(critical(o).extents);
  });

  // Rates: the median over the ranks that measured them.
  const std::pair<Rate, const char*> rates[] = {
      {kDiff, "core.delta.diff.gib_s"},
      {kDecomposePack, "core.decompose_pack.gib_s"},
      {kEncodePartial, "ec.encode_partial.gib_s"},
      {kUpdateRow, "ec.update_row.gib_s"},
      {kDecode, "ec.decode.gib_s"},
      {kCrc64, "common.crc64.gib_s"},
      {kMemcpy, "ceiling.memcpy.gib_s"},
      {kXor, "ceiling.xor.gib_s"},
      {kGfMul, "ceiling.gf_mul_region.gib_s"},
      {kUdsSend, "ceiling.uds_send.gib_s"},
  };
  for (const auto& [rate, name] : rates) {
    std::vector<double> v;
    for (const FinalRecord& f : g.finals)
      if (f.gib_s[static_cast<std::size_t>(rate)] > 0)
        v.push_back(f.gib_s[static_cast<std::size_t>(rate)]);
    m[name] = median(v);
  }

  const double traced_p50 = wall_metrics(ops)["wall.op_s.p50"];
  const double untraced_p50 = m["wall.op_s.p50"];
  m["trace.overhead_ratio"] =
      untraced_p50 > 0 ? traced_p50 / untraced_p50 - 1 : 0;
  return m;
}

// ---- output -------------------------------------------------------------------

template <std::size_t N>
std::string metrics_json(const MetricDef (&defs)[N], const Metrics& m) {
  std::ostringstream os;
  os << "{";
  for (std::size_t i = 0; i < N; ++i) {
    os << (i ? "," : "") << "\"" << defs[i].name
       << "\":{\"value\":" << obs::json_number(m.at(defs[i].name))
       << ",\"unit\":\"" << defs[i].unit << "\"}";
  }
  os << "}";
  return os.str();
}

template <std::size_t N>
void print_table(const MetricDef (&defs)[N], const Metrics& m) {
  for (const MetricDef& d : defs)
    std::printf("  %-38s %16.6g %s\n", d.name, m.at(d.name), d.unit);
}

void write_layers_json(const std::string& path, Workload w, const Metrics& m,
                       const RunTotals& traced) {
  std::ofstream f(path);
  f << "{\"workload\":\"" << name_of(w) << "\",\"timed_ops\":"
    << traced.timed.size() << ",\"metrics\":" << metrics_json(kPerLayer, m)
    << "}\n";
  if (!f) throw CheckFailure("cannot write " + path);
}

/// Run one workload and print its result; true when every check passed.
bool run_workload(const Options& o, Workload w) {
  const bool traced = !o.trace_dir.empty();
  std::printf("\n=== e2e_save: %s (seed %llu, %s) ===\n", name_of(w),
              static_cast<unsigned long long>(o.seed),
              traced ? "traced" : "untraced");
  RunTotals main, tr;
  Metrics metrics;
  if (!traced) {
    const int groups = o.smoke ? 1 : kGroups;
    main = run_groups(o, w, groups, o.seconds / groups, false, 0);
    if (main.failure.empty()) metrics = end_to_end(main);
  } else {
    main = run_groups(o, w, 1, o.seconds / 2, false, 0);
    if (main.failure.empty())
      tr = run_groups(o, w, 1, o.seconds / 2, true, 1);
    if (main.failure.empty() && tr.failure.empty()) {
      metrics = per_layer(tr.groups[0], main.groups[0]);
      write_layers_json(o.trace_dir + "/" + name_of(w) + "/layers.json", w,
                        metrics, tr);
    }
  }
  const int attempted = main.attempted + tr.attempted;
  const int failed = main.failed + tr.failed;
  const std::string failure = !main.failure.empty() ? main.failure : tr.failure;
  const bool correct = failed == 0 && failure.empty();

  std::printf("timed ops: %zu untraced, %zu traced; %d attempted, %d failed\n",
              main.timed.size(), tr.timed.size(), attempted, failed);
  if (!failure.empty()) std::printf("FAILURE: %s\n", failure.c_str());

  std::string metrics_str = "{}";
  if (!metrics.empty()) {
    if (traced) {
      print_table(kPerLayer, metrics);
      metrics_str = metrics_json(kPerLayer, metrics);
    } else {
      print_table(kEndToEnd, metrics);
      metrics_str = metrics_json(kEndToEnd, metrics);
    }
  }
  std::ostringstream line;
  line << "{\"correct\":" << (correct ? "true" : "false")
       << ",\"attempted\":" << attempted << ",\"failed\":"
       << failed << ",\"metrics\":" << metrics_str << "}";
  if (!o.json_out.empty()) {
    std::ofstream f(o.json_out, std::ios::app);
    f << "{\"workload\":\"" << name_of(w) << "\",\"seed\":" << o.seed
      << ",\"trace\":" << (traced ? 1 : 0) << ",\"host\":{\"nproc\":"
      << ::sysconf(_SC_NPROCESSORS_ONLN) << ",\"isa\":\""
      << gf::simd::active_isa_name() << "\"},\"result\":" << line.str()
      << "}\n";
  }
  std::printf("%s\n", line.str().c_str());
  std::fflush(stdout);
  return correct;
}

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: e2e_save --workload dense_full|sparse_delta|"
               "recover_decode|all --seed S [--seconds N] [--json OUT]\n"
               "                [--trace DIR] [--smoke]\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      auto value = [&]() -> std::string {
        if (i + 1 >= argc) usage();
        return argv[++i];
      };
      if (arg == "--workload") {
        const std::string w = value();
        have_workload = true;
        for (Workload x : kAllWorkloads)
          if (w == "all" || w == name_of(x)) o.workloads.push_back(x);
        if (o.workloads.empty()) usage();
      } else if (arg == "--seed") {
        o.seed = std::stoull(value());
      } else if (arg == "--seconds") {
        o.seconds = std::stod(value());
        if (!(o.seconds > 0)) usage();
      } else if (arg == "--json") {
        o.json_out = value();
      } else if (arg == "--trace") {
        o.trace_dir = value();
      } else if (arg == "--smoke") {
        o.smoke = true;
      } else {
        usage();
      }
    }
  } catch (const std::logic_error&) {
    usage();
  }
  if (!have_workload) usage();
  // A dead rank's pipe must surface as a write error, not kill the parent.
  std::signal(SIGPIPE, SIG_IGN);

  bool ok = true;
  try {
    for (Workload w : o.workloads) ok = run_workload(o, w) && ok;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2e_save: %s\n", e.what());
    return 1;
  }
  return ok ? 0 : 1;
}
