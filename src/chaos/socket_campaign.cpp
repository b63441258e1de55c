#include "chaos/socket_campaign.hpp"

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <sstream>
#include <thread>

#include "chaos/schedule.hpp"
#include "common/check.hpp"
#include "dnn/checkpoint_gen.hpp"
#include "obs/json.hpp"
#include "svc/checkpoint_service.hpp"

namespace eccheck::chaos {
namespace {

using Clock = std::chrono::steady_clock;

double elapsed_s(Clock::time_point since) {
  return std::chrono::duration<double>(Clock::now() - since).count();
}

void sleep_ms(int ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

/// Waits up to `secs` for child `pid` to exit, else SIGKILLs and reaps it.
/// True when it exited on its own.
bool reap_within(pid_t pid, double secs) {
  const auto start = Clock::now();
  while (elapsed_s(start) < secs) {
    if (::waitpid(pid, nullptr, WNOHANG) == pid) return true;
    sleep_ms(50);
  }
  ::kill(pid, SIGKILL);
  ::waitpid(pid, nullptr, 0);
  return false;
}

constexpr std::int64_t kNoCeiling = std::numeric_limits<std::int64_t>::max();

/// Reads the integer field `key` of a JSON object into `out`; false when
/// `obj` is null or the field is missing or not an integer.
bool int_field(const obs::JsonValue* obj, const char* key, std::int64_t* out) {
  const obs::JsonValue* v = obj != nullptr ? obj->find(key) : nullptr;
  if (v == nullptr || !v->is_number()) return false;
  const double x = v->as_number();
  if (!(std::abs(x) < 1e15) || x != std::trunc(x)) return false;
  *out = static_cast<std::int64_t>(x);
  return true;
}

}  // namespace

std::string SocketCampaignSummary::to_json() const {
  std::ostringstream os;
  os << "{\"seed\":" << seed << ",\"events\":" << events
     << ",\"saves_ok\":" << saves_ok << ",\"saves_failed\":" << saves_failed
     << ",\"degraded_saves\":" << degraded_saves
     << ",\"degraded_loads\":" << degraded_loads
     << ",\"loads_ok\":" << loads_ok << ",\"sigkills\":" << sigkills
     << ",\"sigstops\":" << sigstops << ",\"corrupts\":" << corrupts
     << ",\"repairs\":" << repairs << ",\"fenced_exits\":" << fenced_exits
     << ",\"busy_retries\":" << busy_retries
     << ",\"violations\":" << violations << ",\"messages\":[";
  for (std::size_t i = 0; i < violation_messages.size(); ++i)
    os << (i ? "," : "") << "\"" << obs::json_escape(violation_messages[i])
       << "\"";
  os << "]}";
  return os.str();
}

SocketCampaign::SocketCampaign(SocketCampaignConfig cfg)
    : cfg_(std::move(cfg)),
      oracle_(cfg_.seed, summary_.violations, summary_.violation_messages),
      world_(cfg_.k + cfg_.m) {
  ECC_CHECK_MSG(!cfg_.dir.empty(), "socket campaign needs a scratch dir");
  ECC_CHECK(cfg_.k >= 1 && cfg_.m >= 1);
  summary_.seed = cfg_.seed;
  next_kill_gray_ = cfg_.first_kill_gray;
}

SocketCampaign::~SocketCampaign() {
  // Leave no orphans behind, whatever state the campaign died in.
  for (const auto& entry : worker_pids_) {
    ::kill(entry.second, SIGKILL);
    ::waitpid(entry.second, nullptr, 0);
  }
  if (coordinator_pid_ > 0) {
    ::kill(coordinator_pid_, SIGKILL);
    ::waitpid(coordinator_pid_, nullptr, 0);
  }
}

net::Endpoint SocketCampaign::client_ep() const {
  return net::Endpoint::uds(cfg_.dir + "/client.sock");
}
net::Endpoint SocketCampaign::liveness_ep() const {
  return net::Endpoint::uds(cfg_.dir + "/live.sock");
}
net::Endpoint SocketCampaign::worker_ctl_ep(int rank) const {
  return net::Endpoint::uds(cfg_.dir + "/ctl" + std::to_string(rank) +
                            ".sock");
}

namespace {

net::TransportOptions campaign_opts(const SocketCampaignConfig& cfg,
                                    net::Millis io) {
  net::TransportOptions o;
  o.connect_timeout = net::Millis(500);
  o.connect_retries = 20;
  o.backoff_base = net::Millis(2);
  o.backoff_max = net::Millis(50);
  o.io_timeout = io;
  o.heartbeat_period = cfg.heartbeat_period;
  o.heartbeat_timeout = cfg.heartbeat_timeout;
  o.suspect_probes = cfg.suspect_probes;
  o.ack_window = cfg.ack_window;
  return o;
}

/// Forks a child that runs `serve`, then exits 0 (1 when it throws).
pid_t fork_daemon(const char* what, const std::function<void()>& serve) {
  const pid_t pid = ::fork();
  ECC_CHECK_MSG(pid >= 0, "fork failed for " << what);
  if (pid == 0) {
    try {
      serve();
      ::_exit(0);
    } catch (...) {
      ::_exit(1);
    }
  }
  return pid;
}

}  // namespace

void SocketCampaign::spawn_worker(int rank) {
  svc::WorkerDaemonConfig wcfg;
  wcfg.rank = rank;
  for (int r = 0; r < world_; ++r)
    wcfg.fabric_eps.push_back(
        net::Endpoint::uds(cfg_.dir + "/rank" + std::to_string(r) + ".sock"));
  wcfg.control_ep = worker_ctl_ep(rank);
  wcfg.fabric_opts = campaign_opts(cfg_, cfg_.worker_io_timeout);
  wcfg.ec.k = cfg_.k;
  wcfg.ec.m = cfg_.m;
  wcfg.ec.packet_size = 4096;
  wcfg.gpus_per_node = 1;
  wcfg.coordinator_ep = liveness_ep();
  worker_pids_[rank] = fork_daemon("worker", [&wcfg] {
    svc::WorkerDaemon(std::move(wcfg)).run();
  });
}

void SocketCampaign::spawn_coordinator() {
  svc::CoordinatorConfig ccfg;
  ccfg.client_ep = client_ep();
  for (int r = 0; r < world_; ++r) ccfg.worker_eps.push_back(worker_ctl_ep(r));
  // The coordinator's per-worker budget must outlive a worker's collective
  // (worker_io_timeout bounds a torn save); the client's budget must in
  // turn outlive the coordinator's whole fan-out.
  ccfg.opts = campaign_opts(
      cfg_, net::Millis(cfg_.worker_io_timeout.count() * 3));
  ccfg.opts.connect_retries = 4;  // dead workers must fail fast
  ccfg.liveness_ep = liveness_ep();
  ccfg.max_queue = 8;
  ccfg.data_k = cfg_.k;
  ccfg.parity_m = cfg_.m;
  coordinator_pid_ = fork_daemon("coordinator", [&ccfg] {
    svc::Coordinator(std::move(ccfg)).run();
  });
}

svc::ControlReply SocketCampaign::request(const std::string& command,
                                          const std::string& args) {
  const net::TransportOptions opts =
      campaign_opts(cfg_, cfg_.client_io_timeout);
  const auto start = Clock::now();
  for (;;) {
    try {
      const svc::ControlReply r =
          svc::client_request(client_ep(), command, args, opts);
      if (r.status == svc::kStatusBusy && elapsed_s(start) < 30.0) {
        ++summary_.busy_retries;
        sleep_ms(50);
        continue;
      }
      return r;
    } catch (const CheckFailure& e) {
      if (elapsed_s(start) > 30.0)
        return {false, std::string("coordinator unreachable: ") + e.what(),
                0, svc::kStatusError};
      sleep_ms(100);
    }
  }
}

std::optional<SocketCampaign::Health> SocketCampaign::read_health(
    const std::string& body) {
  const std::unique_ptr<obs::JsonValue> doc = obs::JsonValue::parse(body);
  const obs::JsonValue* workers = doc ? doc->find("workers") : nullptr;
  Health h;
  bool ok = int_field(doc.get(), "repairs", &h.repairs) &&
            int_field(doc.get(), "fenced_beats", &h.fenced_beats) &&
            int_field(doc ? doc->find("redundancy") : nullptr, "effective_m",
                      &h.effective_m) &&
            workers != nullptr && workers->is_array();
  for (std::size_t i = 0; ok && i < workers->as_array().size(); ++i) {
    const obs::JsonValue* state = workers->as_array()[i].find("state");
    ok = state != nullptr && state->is_string();
    if (ok) h.states.push_back(state->as_string());
  }
  if (ok) return h;
  oracle_.violation("protocol",
                    "malformed health body: " + body.substr(0, 200));
  return std::nullopt;
}

bool SocketCampaign::wait_health(
    const std::string& what, double deadline_s,
    const std::function<bool(const Health&)>& pred) {
  const auto start = Clock::now();
  while (elapsed_s(start) < deadline_s) {
    const svc::ControlReply r = request("health", "");
    if (r.ok) {
      const std::optional<Health> h = read_health(r.body);
      if (!h) return false;
      if (pred(*h)) return true;
    }
    sleep_ms(150);
  }
  oracle_.violation("repair", "timed out waiting for " + what + " after " +
                                  std::to_string(deadline_s) + "s");
  return false;
}

bool SocketCampaign::await_declared(const std::string& what) {
  return wait_health(what, 20.0, [this](const Health& h) {
    for (int r : dead_)
      if (static_cast<std::size_t>(r) >= h.states.size() ||
          h.states[static_cast<std::size_t>(r)] != "dead")
        return false;
    return true;
  });
}

std::optional<svc::ShardReply> SocketCampaign::read_reply(
    const svc::ControlReply& r) {
  try {
    return svc::ShardReply::parse(r.body);
  } catch (const svc::BadRequest& e) {
    oracle_.violation("protocol", std::string("malformed reply: ") + e.what());
    return std::nullopt;
  }
}

void SocketCampaign::record_save(const svc::ShardReply& s) {
  // Committed versions strictly increase. Shard content is a pure function
  // of (job, iteration), so the golden digests are recomputed here,
  // independently of the service. A save that committed without some
  // ranks' replies (lost=) vouches only for the workers it names; the
  // oracle still records all of them, and the next load checks every one.
  oracle_.check_range("save", s.version, last_version_ + 1, kNoCeiling);
  oracle_.commit(s.version, dnn::shard_digests(svc::job_gen_config(
                                cfg_.job, s.iteration, world_)));
  oracle_.check_digests("save", s.version, s.digests,
                        /*partial=*/!s.lost.empty());
  last_version_ = s.version;
  ++summary_.saves_ok;
  if (s.detail.find("degraded") != std::string::npos)
    ++summary_.degraded_saves;
}

std::optional<svc::ShardReply> SocketCampaign::load_and_check(
    const std::string& what) {
  const svc::ControlReply r = request("load", cfg_.job);
  if (!r.ok) {
    oracle_.violation("availability", what + " failed: " + r.body);
    return std::nullopt;
  }
  std::optional<svc::ShardReply> l = read_reply(r);
  if (!l) return std::nullopt;
  ++summary_.loads_ok;
  // A save the client saw fail committed on fewer than k ranks, so a load
  // returns exactly the newest save the client saw commit.
  oracle_.check_range("load", l->version, last_version_, last_version_);
  oracle_.check_digests("load", l->version, l->digests);
  return l;
}

int SocketCampaign::pick_victim(std::uint64_t pick) {
  std::vector<int> alive;
  for (int r = 0; r < world_; ++r)
    if (dead_.count(r) == 0) alive.push_back(r);
  return alive[static_cast<std::size_t>(pick % alive.size())];
}

void SocketCampaign::do_kill(int victim, bool gray) {
  const pid_t pid = worker_pids_.at(victim);
  if (cfg_.verbose)
    std::fprintf(stderr, "socket-campaign: %s rank %d (pid %d)\n",
                 gray ? "SIGSTOP" : "SIGKILL", victim, pid);
  if (gray) {
    ECC_CHECK(::kill(pid, SIGSTOP) == 0);
    stopped_.insert(victim);
    ++summary_.sigstops;
  } else {
    ECC_CHECK(::kill(pid, SIGKILL) == 0);
    ::waitpid(pid, nullptr, 0);
    ++summary_.sigkills;
  }
  dead_.insert(victim);
  declared_waited_ = false;
}

void SocketCampaign::do_degraded_load(const std::string& declaration) {
  // Availability invariant: once deaths are declared and dead ≤ m, load
  // MUST serve — workflow B decodes the missing rows and the adopter
  // answers for the dead ranks' workers.
  declared_waited_ = await_declared(declaration);
  const std::optional<svc::ShardReply> l = load_and_check(
      "load with " + std::to_string(dead_.size()) + " declared dead ranks");
  if (l && (l->detail.find("degraded") != std::string::npos || !dead_.empty()))
    ++summary_.degraded_loads;
}

void SocketCampaign::do_save() {
  // A save right after an undeclared kill legitimately tears (the dead
  // peer is still in the membership); once deaths are declared the next
  // attempt runs degraded and must commit.
  for (int attempt = 0; attempt < 6; ++attempt) {
    if (!dead_.empty() && !declared_waited_)
      declared_waited_ = await_declared("death declaration of ranks {" +
                                        std::to_string(*dead_.begin()) + "..}");
    const svc::ControlReply r = request("save", cfg_.job);
    if (!r.ok) {
      ++summary_.saves_failed;
      sleep_ms(100);
      continue;
    }
    if (const std::optional<svc::ShardReply> s = read_reply(r))
      record_save(*s);
    return;
  }
  oracle_.violation("availability",
                    "save never committed within 6 attempts with " +
                        std::to_string(dead_.size()) + " dead ranks");
}

void SocketCampaign::do_corrupt() {
  // Arm a one-byte payload flip on a live worker's next fabric frame, then
  // drive a save through it: the receiver sees a genuine wire CRC
  // mismatch, the collective tears, every survivor rolls back, and the
  // retry commits clean. (If the frame hits a retried or reset path, the
  // first attempt commits, still bound by the digest oracle.)
  const int target = pick_victim(static_cast<std::uint64_t>(world_ - 1));
  try {
    const svc::ControlReply r = svc::client_request(
        worker_ctl_ep(target), "inject", "corrupt",
        campaign_opts(cfg_, cfg_.worker_io_timeout));
    if (!r.ok) return;  // worker raced away; nothing armed
  } catch (const CheckFailure&) {
    return;
  }
  ++summary_.corrupts;
  if (cfg_.verbose)
    std::fprintf(stderr, "socket-campaign: armed corrupt frame on rank %d\n",
                 target);
  do_save();
}

void SocketCampaign::do_recover() {
  if (dead_.empty()) return;
  if (!declared_waited_)
    declared_waited_ = await_declared("death declaration before repair");

  const svc::ControlReply before = request("health", "");
  std::optional<Health> h0;
  if (before.ok && !(h0 = read_health(before.body))) return;
  const std::int64_t repairs0 = h0 ? h0->repairs : 0;
  const std::int64_t fenced0 = h0 ? h0->fenced_beats : 0;

  // Gray corpses first: SIGCONT wakes them, their next beat carries a
  // stale rank (declared dead) and gets a fenced reply — the daemon must
  // exit on its own. That exit IS the fencing invariant.
  for (int r : stopped_) {
    const pid_t pid = worker_pids_.at(r);
    ECC_CHECK(::kill(pid, SIGCONT) == 0);
    if (reap_within(pid, 10.0))
      ++summary_.fenced_exits;
    else
      oracle_.violation("fencing", "resurrected rank " + std::to_string(r) +
                                       " did not fence-exit within 10s");
  }

  // Replacements join on the dead ranks' endpoints; the repair controller
  // bumps the epoch, resets the members, and recovers every known job —
  // survivors keep running throughout.
  const std::set<int> repaired = dead_;
  for (int r : repaired) spawn_worker(r);

  const bool healed = wait_health(
      "repair of ranks to full redundancy", 45.0,
      [&](const Health& h) {
        if (h.repairs <= repairs0 || h.effective_m != cfg_.m) return false;
        for (const std::string& s : h.states)
          if (s != "alive") return false;
        return !h.states.empty();
      });
  if (healed) {
    ++summary_.repairs;
    dead_.clear();
    stopped_.clear();
    declared_waited_ = false;
    // The corpse's stale beats (if any arrived before it exited) must have
    // been answered with a fence, never re-admission.
    const svc::ControlReply after = request("health", "");
    if (after.ok && !repaired.empty()) {
      const std::optional<Health> h = read_health(after.body);
      if (h && h->fenced_beats < fenced0)
        oracle_.violation("fencing", "fenced_beats went backwards");
    }
  }

  // Full redundancy restored: the next save must commit non-degraded and
  // the loaded bytes must still be exact.
  do_save();
  const std::optional<svc::ShardReply> l = load_and_check("post-repair load");
  if (l && l->detail.find("degraded") != std::string::npos)
    oracle_.violation("repair",
                      "post-repair load still reports degraded: " + l->body());
}

void SocketCampaign::shutdown_service() {
  request("shutdown", "");
  for (const auto& [rank, pid] : worker_pids_)
    if (dead_.count(rank) == 0) reap_within(pid, 10.0);
  if (coordinator_pid_ > 0) reap_within(coordinator_pid_, 10.0);
  worker_pids_.clear();
  coordinator_pid_ = -1;
}

const SocketCampaignSummary& SocketCampaign::run() {
  spawn_coordinator();
  for (int r = 0; r < world_; ++r) spawn_worker(r);

  // Seeded schedule, reusing the simulator's generator: same seed → same
  // event sequence, which is what makes a failing campaign replayable.
  ChaosConfig scfg;
  scfg.num_nodes = world_;
  scfg.k = cfg_.k;
  scfg.m = cfg_.m;
  scfg.events = cfg_.events;
  scfg.seed = cfg_.seed;
  scfg.w_burst = 0;     // > m concurrent deaths is un-serveable by design
  scfg.w_mid_load = 0;  // folded into kKill at the process level
  const std::vector<ChaosEvent> schedule = generate_schedule(scfg);

  for (const ChaosEvent& ev : schedule) {
    oracle_.set_event(++summary_.events);
    if (cfg_.verbose)
      std::fprintf(stderr, "socket-campaign: event %zu %s\n", summary_.events,
                   event_kind_name(ev.kind));
    switch (ev.kind) {
      case EventKind::kTrain:
        sleep_ms(static_cast<int>(ev.train_seconds * cfg_.train_scale *
                                  1000));
        break;
      case EventKind::kSave:
        do_save();
        break;
      case EventKind::kKill:
      case EventKind::kMidLoadKill: {
        if (static_cast<int>(dead_.size()) >= cfg_.m) break;  // no budget
        const bool gray = next_kill_gray_;
        next_kill_gray_ = !next_kill_gray_;
        do_kill(pick_victim(ev.picks.empty() ? 0 : ev.picks[0]), gray);
        do_degraded_load("death declaration");
        break;
      }
      case EventKind::kMidSaveKill: {
        if (static_cast<int>(dead_.size()) >= cfg_.m) break;
        const int victim = pick_victim(ev.picks.empty() ? 0 : ev.picks[0]);
        // Fire the save, then land the kill inside its fabric-op window.
        svc::ControlReply rep;
        std::thread saver([&] { rep = request("save", cfg_.job); });
        sleep_ms(20 + static_cast<int>(ev.op_frac * 120));
        do_kill(victim, /*gray=*/false);
        saver.join();
        // The save either tore (fewer than k ranks committed it; they
        // rolled it back) or committed on at least k ranks, perhaps without
        // the victim's reply. Then the load below must return it.
        if (!rep.ok) {
          ++summary_.saves_failed;
        } else if (const std::optional<svc::ShardReply> s = read_reply(rep)) {
          record_save(*s);
        }
        do_degraded_load("death declaration after mid-save kill");
        break;
      }
      case EventKind::kCorrupt:
        if (dead_.empty()) do_corrupt();
        break;
      case EventKind::kRecover:
        do_recover();
        break;
    }
    if (summary_.violations > 0) break;  // fail fast, state is suspect
  }

  // Forced tail: the acceptance bar requires every campaign to have seen
  // at least one hard death, one gray failure, and one corrupt frame.
  if (summary_.violations == 0 && summary_.sigkills == 0) {
    do_kill(pick_victim(1), /*gray=*/false);
    do_degraded_load("forced SIGKILL declaration");
    do_recover();
  }
  if (summary_.violations == 0 && summary_.sigstops == 0) {
    do_kill(pick_victim(2), /*gray=*/true);
    do_degraded_load("forced SIGSTOP declaration");
    do_recover();
  }
  if (summary_.violations == 0 && summary_.corrupts == 0) do_corrupt();
  if (summary_.violations == 0 && !dead_.empty()) do_recover();

  // Final verification at full strength, then an orderly shutdown.
  if (summary_.violations == 0) {
    do_save();
    load_and_check("final load");
  }
  shutdown_service();
  return summary_;
}

}  // namespace eccheck::chaos
