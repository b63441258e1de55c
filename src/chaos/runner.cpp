#include "chaos/runner.hpp"

#include <algorithm>
#include <ostream>
#include <sstream>

#include "cluster/fabric.hpp"
#include "cluster/failure_detector.hpp"
#include "core/engine_keys.hpp"
#include "dnn/checkpoint_gen.hpp"
#include "obs/json.hpp"

namespace eccheck::chaos {

namespace {

void append_hist(std::ostringstream& os, const char* name,
                 const obs::HistSummary& h) {
  os << "\"" << name << "\":{\"count\":" << h.count
     << ",\"mean\":" << obs::json_number(h.mean())
     << ",\"min\":" << obs::json_number(h.count ? h.min : 0)
     << ",\"max\":" << obs::json_number(h.count ? h.max : 0) << "}";
}

}  // namespace

std::string CampaignSummary::to_json() const {
  std::ostringstream os;
  os << "{\"seed\":" << seed << ",\"events\":" << events
     << ",\"saves\":" << saves << ",\"torn_saves\":" << torn_saves
     << ",\"loads\":" << loads << ",\"aborted_loads\":" << aborted_loads
     << ",\"kills\":" << kills << ",\"mid_op_kills\":" << mid_op_kills
     << ",\"corruptions\":" << corruptions
     << ",\"recoveries\":" << recoveries << ",\"fallbacks\":" << fallbacks
     << ",\"remote_rescues\":" << remote_rescues
     << ",\"unrecoverable\":" << unrecoverable
     << ",\"violations\":" << violations << ",";
  append_hist(os, "detect_latency", detect_latency);
  os << ",";
  append_hist(os, "resume_latency", resume_latency);
  os << ",\"violation_messages\":[";
  for (std::size_t i = 0; i < violation_messages.size(); ++i) {
    if (i) os << ",";
    os << "\"" << obs::json_escape(violation_messages[i]) << "\"";
  }
  os << "]}";
  return os.str();
}

ChaosRunner::ChaosRunner(const ChaosConfig& cfg, std::ostream* jsonl)
    : cfg_(cfg),
      jsonl_(jsonl),
      cluster_([&cfg] {
        cluster::ClusterConfig c;
        c.num_nodes = cfg.num_nodes;
        c.gpus_per_node = cfg.gpus_per_node;
        return c;
      }()),
      oracle_(cfg.seed, summary_.violations, summary_.violation_messages,
              jsonl) {
  ECC_CHECK_MSG(cfg_.k + cfg_.m == cfg_.num_nodes,
                "chaos campaign needs k + m == num_nodes (got k="
                    << cfg_.k << " m=" << cfg_.m << " nodes="
                    << cfg_.num_nodes << ")");
  par_.tensor_parallel =
      64 % cfg_.gpus_per_node == 0 ? cfg_.gpus_per_node : 1;
  par_.pipeline_parallel = cluster_.world_size() / par_.tensor_parallel;
  par_.data_parallel = 1;
  model_ = dnn::make_model(dnn::ModelFamily::kGPT2, 64, 1,
                           std::max(4, par_.pipeline_parallel), "chaos");
  model_.vocab = 256;

  core::SessionConfig sc;
  sc.ec.k = cfg_.k;
  sc.ec.m = cfg_.m;
  sc.ec.packet_size = cfg_.packet_size;
  sc.ec.flush_to_remote = cfg_.flush_to_remote;
  sc.retain_versions = cfg_.retain_versions;
  sc.profile_iterations = 8;
  session_.emplace(core::Session::initialize(cluster_, model_, par_, sc));
  {
    // Count the version agreement's ops on a scratch cluster of this shape.
    cluster::VirtualCluster scratch(cluster_.config());
    FaultPlan counter;
    scratch.set_fault_hook(&counter);
    cluster::VirtualFabric fabric(scratch);
    core::fabric_newest_version(fabric, sc.ec);
    scratch.set_fault_hook(nullptr);
    agreement_ops_ = counter.op_count();
  }
  ns_ = session_->engine().config().key_namespace;
  cluster_.set_fault_hook(&plan_);
  summary_.seed = cfg_.seed;
}

ChaosRunner::~ChaosRunner() { cluster_.set_fault_hook(nullptr); }

const CampaignSummary& ChaosRunner::run() {
  const std::vector<ChaosEvent> schedule = generate_schedule(cfg_);
  summary_.events = schedule.size();
  for (std::size_t i = 0; i < schedule.size(); ++i) run_event(schedule[i], i);
  return summary_;
}

void ChaosRunner::run_event(const ChaosEvent& ev, std::size_t index) {
  oracle_.set_event(index);
  switch (ev.kind) {
    case EventKind::kTrain:
      clock_ += ev.train_seconds;
      break;
    case EventKind::kSave:
      ensure_healthy(ev);
      attempt_save(nullptr);
      break;
    case EventKind::kKill: {
      for (int n : resolve_kills(ev.picks)) {
        cluster_.kill(n);
        pending_fail_time_[n] = clock_;
        ++summary_.kills;
      }
      recover(ev, nullptr);
      break;
    }
    case EventKind::kMidSaveKill: {
      ensure_healthy(ev);
      attempt_save(&ev);
      if (cluster_.alive_count() < cluster_.num_nodes())
        recover(ev, nullptr);
      break;
    }
    case EventKind::kMidLoadKill: {
      ensure_healthy(ev);
      if (!ev.picks.empty()) {
        for (int n : resolve_kills({ev.picks[0]})) {
          cluster_.kill(n);
          pending_fail_time_[n] = clock_;
          ++summary_.kills;
        }
      }
      recover(ev, &ev);
      break;
    }
    case EventKind::kCorrupt:
      corrupt_event(ev);
      break;
    case EventKind::kRecover:
      recover(ev, nullptr);
      break;
  }
  emit_event_line(ev, index);
}

std::vector<dnn::StateDict> ChaosRunner::make_shards() {
  dnn::CheckpointGenConfig gen;
  gen.model = model_;
  gen.parallelism = par_;
  gen.seed = cfg_.seed ^ 0x9e3779b97f4a7c15ULL;
  gen.iteration = ++iteration_;
  return dnn::make_sharded_checkpoint(gen);
}

std::vector<int> ChaosRunner::resolve_kills(
    const std::vector<std::uint64_t>& picks) {
  std::vector<int> out;
  std::vector<int> alive = cluster_.alive_nodes();
  for (std::uint64_t pick : picks) {
    if (alive.size() <= 1) break;  // never kill the last observer
    const std::size_t idx = static_cast<std::size_t>(pick % alive.size());
    out.push_back(alive[idx]);
    alive.erase(alive.begin() + static_cast<std::ptrdiff_t>(idx));
  }
  return out;
}

std::size_t ChaosRunner::collect_fired() {
  const std::size_t n = plan_.fired().size();
  for (const Fired& f : plan_.fired()) {
    pending_fail_time_[f.node] = clock_;
    ++summary_.mid_op_kills;
  }
  plan_.clear_fired();
  return n;
}

std::uint64_t ChaosRunner::kill_offset(double frac,
                                       std::uint64_t probed) const {
  const std::uint64_t steps =
      probed > agreement_ops_ + 2 ? probed - agreement_ops_ - 2 : 20;
  return agreement_ops_ + 1 +
         static_cast<std::uint64_t>(frac * static_cast<double>(steps));
}

void ChaosRunner::ensure_healthy(const ChaosEvent& ev) {
  if (cluster_.alive_count() < cluster_.num_nodes()) recover(ev, nullptr);
}

std::int64_t ChaosRunner::attempt_save(const ChaosEvent* mid_save) {
  std::vector<dnn::StateDict> shards = make_shards();

  if (mid_save != nullptr && !mid_save->picks.empty()) {
    std::vector<int> victims = resolve_kills({mid_save->picks[0]});
    if (!victims.empty()) {
      plan_.arm({{plan_.op_count() +
                      kill_offset(mid_save->op_frac, probe_save_ops_),
                  victims[0]}});
    }
  }

  const std::uint64_t ops_before = plan_.op_count();
  try {
    ckpt::SaveReport rep = session_->save(shards);
    plan_.disarm();
    const std::size_t fired = collect_fired();
    ++summary_.saves;
    // Golden digests keyed by the version the session used; the oracle
    // replaces a reused number's entry. A torn save records nothing: the
    // session rolled it back, so it can never load.
    const std::int64_t version = session_->latest_version();
    std::vector<std::uint64_t> golden;
    for (const dnn::StateDict& sd : shards) golden.push_back(sd.digest());
    oracle_.commit(version, std::move(golden));
    std::erase_if(corrupted_,
                  [&](const auto& vn) { return vn.first == version; });
    clock_ += std::max(0.0, rep.total_time);
    if (fired == 0) {
      if (probe_save_ops_ == 0)
        probe_save_ops_ = plan_.op_count() - ops_before;
      if (expected_row_keys_ == 0)
        expected_row_keys_ =
            cluster_.host(0)
                .keys_with_prefix(core::keys::rows_prefix(ns_, version))
                .size();
    }
    return version;
  } catch (const CheckFailure&) {
    plan_.disarm();
    collect_fired();
    ++summary_.torn_saves;
    return -1;
  }
}

bool ChaosRunner::node_intact(int node, std::int64_t version) {
  if (!cluster_.alive(node)) return false;
  if (corrupted_.count({version, node})) return false;
  const cluster::Store& h = cluster_.host(node);
  if (!h.contains(core::keys::commit_key(ns_, version))) return false;
  const std::size_t rows =
      h.keys_with_prefix(core::keys::rows_prefix(ns_, version)).size();
  if (rows == 0) return false;
  if (expected_row_keys_ > 0 && rows != expected_row_keys_) return false;
  return true;
}

int ChaosRunner::intact_count(std::int64_t version) {
  int count = 0;
  for (int n = 0; n < cluster_.num_nodes(); ++n)
    if (node_intact(n, version)) ++count;
  return count;
}

bool ChaosRunner::remote_committed(std::int64_t version) {
  // The remote commit marker is flushed last, so its presence implies a
  // complete remote copy.
  return cluster_.remote().contains(core::keys::commit_key(ns_, version));
}

ChaosRunner::VersionWindow ChaosRunner::retained_window() {
  const std::int64_t newest = session_->latest_version();
  const std::int64_t oldest =
      cfg_.retain_versions > 0
          ? std::max<std::int64_t>(1, newest - cfg_.retain_versions + 1)
          : 1;
  return {oldest, newest};
}

std::int64_t ChaosRunner::oracle_first_recoverable() {
  const VersionWindow w = retained_window();
  for (std::int64_t v = w.newest; v >= w.oldest; --v)
    if (intact_count(v) >= cfg_.k || remote_committed(v)) return v;
  return 0;
}

void ChaosRunner::recover(const ChaosEvent& ev, const ChaosEvent* mid_load) {
  bool had_dead = false;
  bool arm_mid_load = mid_load != nullptr && mid_load->picks.size() >= 2;
  // Bounded convergence: each pass replaces every dead node, and triggers
  // are consumed when they fire, so the loop can only repeat while armed
  // kills keep landing — at most one extra pass per armed trigger.
  for (int attempt = 0; attempt < 8; ++attempt) {
    std::vector<int> dead;
    for (int n = 0; n < cluster_.num_nodes(); ++n)
      if (!cluster_.alive(n)) dead.push_back(n);

    if (!dead.empty()) {
      if (!had_dead) {
        had_dead = true;
        ++summary_.recoveries;
      }
      cluster::FailureDetectorConfig fc;
      fc.heartbeat_interval = ev.detect_heartbeat;
      fc.timeout = ev.detect_timeout;
      fc.quorum = ev.detect_quorum;
      cluster::FailureDetector fd(fc, cluster_.num_nodes());
      const int observers = cluster_.alive_count();
      Seconds detect_t = clock_;
      for (int n : dead) {
        const auto it = pending_fail_time_.find(n);
        const Seconds fail_t = it != pending_fail_time_.end() ? it->second
                                                              : clock_;
        const Seconds det = fd.detection_time(fail_t, observers);
        const Seconds latency = det - fail_t;
        summary_.detect_latency.observe(latency);
        if (!(latency > 0 && latency <= fd.max_latency() + 1e-9)) {
          std::ostringstream msg;
          msg << "detection of node " << n << " took "
              << obs::json_number(latency) << "s (max_latency "
              << obs::json_number(fd.max_latency()) << "s)";
          oracle_.violation("detection_bounds", msg.str());
        }
        detect_t = std::max(detect_t, det);
      }
      clock_ = detect_t + ev.replace_delay;
      for (int n : dead) {
        cluster_.replace(n);
        pending_fail_time_.erase(n);
      }
    }

    // Oracle snapshot *before* the load mutates the stores.
    std::map<std::int64_t, int> pre_intact;
    const VersionWindow window = retained_window();
    for (std::int64_t v = window.newest; v >= window.oldest; --v)
      pre_intact[v] = intact_count(v);
    const std::int64_t oracle_v = oracle_first_recoverable();

    if (arm_mid_load) {
      arm_mid_load = false;  // one armed window per event
      std::vector<int> victims = resolve_kills({mid_load->picks[1]});
      if (!victims.empty()) {
        plan_.arm({{plan_.op_count() +
                        kill_offset(mid_load->op_frac, probe_load_ops_),
                    victims[0]}});
      }
    }

    const std::uint64_t ops_before = plan_.op_count();
    std::vector<dnn::StateDict> out;
    core::Session::RecoverResult r;
    try {
      r = session_->load(out);
    } catch (const CheckFailure&) {
      plan_.disarm();
      collect_fired();
      ++summary_.aborted_loads;
      continue;  // replace the fresh casualties and retry
    }
    plan_.disarm();
    const std::size_t fired = collect_fired();
    ++summary_.loads;

    if (!r.report.success) {
      if (fired > 0) continue;  // state changed under the load; retry
      if (oracle_v > 0) {
        std::ostringstream msg;
        msg << "oracle proves version " << oracle_v
            << " recoverable but load failed: " << r.report.detail;
        oracle_.violation("availability", msg.str());
      }
      ++summary_.unrecoverable;
      return;
    }

    if (fired == 0 && probe_load_ops_ == 0)
      probe_load_ops_ = plan_.op_count() - ops_before;

    // ---- invariants on the successful load ------------------------------
    oracle_.check_range("load", r.version, std::max<std::int64_t>(1, oracle_v),
                        session_->latest_version());
    std::map<int, std::uint64_t> loaded;
    for (std::size_t w = 0; w < out.size(); ++w)
      loaded[static_cast<int>(w)] = out[w].digest();
    oracle_.check_digests("load", r.version, loaded);

    summary_.resume_latency.observe(r.report.resume_time);
    clock_ += std::max(0.0, r.report.total_time);
    if (r.version < session_->latest_version()) ++summary_.fallbacks;
    const auto pit = pre_intact.find(r.version);
    if (pit != pre_intact.end() && pit->second < cfg_.k)
      ++summary_.remote_rescues;
    // Reconstruction rewrote every non-intact chunk of the loaded version
    // with correct bytes, healing recorded corruption.
    std::erase_if(corrupted_,
                  [&](const auto& vn) { return vn.first == r.version; });

    if (fired > 0) continue;  // a mid-load kill landed; recover once more

    // Redundancy restored: after a clean successful load every node again
    // holds a committed, complete chunk of the loaded version.
    for (int n = 0; n < cluster_.num_nodes(); ++n) {
      if (!node_intact(n, r.version)) {
        std::ostringstream msg;
        msg << "node " << n << " lacks a committed complete chunk of "
            << "version " << r.version << " after recovery";
        oracle_.violation("redundancy", msg.str());
      }
    }
    return;
  }
  oracle_.violation("recovery_stuck",
                    "detect/replace/load did not converge within 8 attempts");
}

void ChaosRunner::corrupt_event(const ChaosEvent& ev) {
  if (ev.picks.size() < 3) return;
  const VersionWindow window = retained_window();
  for (std::int64_t v = window.newest; v >= window.oldest; --v) {
    std::vector<int> holders;
    for (int n = 0; n < cluster_.num_nodes(); ++n)
      if (node_intact(n, v)) holders.push_back(n);
    if (holders.empty()) continue;
    const int node =
        holders[static_cast<std::size_t>(ev.picks[0] % holders.size())];
    const std::vector<std::string> rows = cluster_.host(node).keys_with_prefix(
        core::keys::rows_prefix(ns_, v));
    if (rows.empty()) continue;
    const std::string& key =
        rows[static_cast<std::size_t>(ev.picks[1] % rows.size())];
    Buffer& chunk = cluster_.host(node).get_mutable(key);
    if (chunk.size() == 0) continue;
    chunk.data()[static_cast<std::size_t>(ev.picks[2] % chunk.size())] ^=
        std::byte{0x40};
    corrupted_.insert({v, node});
    ++summary_.corruptions;
    return;
  }
}

void ChaosRunner::emit_event_line(const ChaosEvent& ev, std::size_t index) {
  if (jsonl_ == nullptr) return;
  *jsonl_ << "{\"seed\":" << cfg_.seed << ",\"event\":" << index
          << ",\"kind\":\"" << event_kind_name(ev.kind)
          << "\",\"clock\":" << obs::json_number(clock_)
          << ",\"alive\":" << cluster_.alive_count()
          << ",\"latest_version\":" << session_->latest_version()
          << ",\"violations\":" << summary_.violations << "}\n";
}

std::int64_t ChaosRunner::force_save() { return attempt_save(nullptr); }

void ChaosRunner::force_recovery() {
  ChaosEvent ev;
  ev.kind = EventKind::kRecover;
  recover(ev, nullptr);
}

}  // namespace eccheck::chaos
