#include "obs/distributed.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>
#include <sstream>
#include <utility>

#include "obs/chrome_trace.hpp"
#include "obs/json.hpp"
#include "obs/stats.hpp"
#include "obs/tracer.hpp"

namespace eccheck::obs {
namespace {

std::string hex_id(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

std::uint64_t parse_hex_id(const std::string& s) {
  return std::strtoull(s.c_str(), nullptr, 16);
}

bool fail(std::string* error, const std::string& msg) {
  if (error != nullptr) *error = msg;
  return false;
}

double num_or(const JsonValue* v, double fallback) {
  return v != nullptr && v->is_number() ? v->as_number() : fallback;
}

/// The stats object inside a snapshot document — or the document itself
/// when it is already a bare StatsRegistry dump.
const JsonValue* stats_object(const JsonValue& doc) {
  if (doc.find("counters") != nullptr) return &doc;
  return doc.find("stats");
}

}  // namespace

std::string serialize_snapshot(const Tracer& tracer, const StatsRegistry* stats,
                               const std::string& proc) {
  std::ostringstream os;
  os << "{\"proc\":\"" << json_escape(proc)
     << "\",\"dropped\":" << tracer.dropped_count();
  if (stats != nullptr) os << ",\"stats\":" << stats->to_json();
  os << ",\"threads\":[";
  bool first_thread = true;
  for (const Tracer::ThreadTrack& t : tracer.snapshot()) {
    if (!first_thread) os << ",";
    first_thread = false;
    os << "{\"tid\":" << t.tid << ",\"name\":\"" << json_escape(t.name)
       << "\",\"spans\":[";
    bool first = true;
    for (const Tracer::SpanRec& s : t.spans) {
      if (!first) os << ",";
      first = false;
      os << "{\"name\":\"" << json_escape(s.name) << "\",\"start\":" << s.start_ns
         << ",\"end\":" << s.end_ns << ",\"depth\":" << s.depth;
      if (s.bytes > 0) os << ",\"bytes\":" << s.bytes;
      if (s.trace_id != 0) {
        os << ",\"trace\":\"" << hex_id(s.trace_id) << "\",\"span\":\""
           << hex_id(s.span_id) << "\"";
        if (s.parent_span != 0)
          os << ",\"parent\":\"" << hex_id(s.parent_span) << "\"";
      }
      os << "}";
    }
    os << "],\"counters\":[";
    first = true;
    for (const Tracer::CounterRec& c : t.counters) {
      if (!first) os << ",";
      first = false;
      os << "{\"name\":\"" << json_escape(c.name) << "\",\"ts\":" << c.ts_ns
         << ",\"value\":" << json_number(c.value) << "}";
    }
    os << "]}";
  }
  os << "]}";
  return os.str();
}

bool append_snapshot_to_trace(ChromeTraceWriter& w,
                              const std::string& snapshot_json,
                              const std::string& process_name,
                              std::int64_t shift_ns, std::string* error) {
  std::string perr;
  const std::unique_ptr<JsonValue> doc = JsonValue::parse(snapshot_json, &perr);
  if (!doc) return fail(error, "snapshot parse error: " + perr);
  const JsonValue* threads = doc->find("threads");
  if (threads == nullptr || !threads->is_array())
    return fail(error, "snapshot has no threads array");

  std::string name = process_name;
  if (name.empty()) {
    const JsonValue* proc = doc->find("proc");
    name = proc != nullptr && proc->is_string() ? proc->as_string() : "proc";
  }
  const int pid = w.begin_process(name);
  for (const JsonValue& t : threads->as_array()) {
    const int tid = static_cast<int>(num_or(t.find("tid"), 0));
    const JsonValue* tname = t.find("name");
    if (tname != nullptr && tname->is_string())
      w.name_thread(pid, tid, tname->as_string());
    const JsonValue* spans = t.find("spans");
    if (spans != nullptr && spans->is_array()) {
      for (const JsonValue& s : spans->as_array()) {
        const JsonValue* sname = s.find("name");
        if (sname == nullptr || !sname->is_string())
          return fail(error, "span without a name");
        const double start = num_or(s.find("start"), 0);
        const double end = num_or(s.find("end"), start);
        std::string args =
            "\"depth\":" +
            std::to_string(static_cast<int>(num_or(s.find("depth"), 0)));
        const double bytes = num_or(s.find("bytes"), 0);
        if (bytes > 0) {
          args += ",\"bytes\":" + std::to_string(
                                      static_cast<std::uint64_t>(bytes));
          const double dur_s = (end - start) * 1e-9;
          if (dur_s > 0)
            args += ",\"GiB_per_s\":" +
                    json_number(bytes / (1024.0 * 1024.0 * 1024.0) / dur_s);
        }
        for (const char* key : {"trace", "span", "parent"}) {
          const JsonValue* id = s.find(key);
          if (id != nullptr && id->is_string())
            args += std::string(",\"") + key + "\":\"" +
                    json_escape(id->as_string()) + "\"";
        }
        w.add_complete(pid, tid, sname->as_string(),
                       (start + static_cast<double>(shift_ns)) / 1e3,
                       (end - start) / 1e3, args);
      }
    }
    const JsonValue* counters = t.find("counters");
    if (counters != nullptr && counters->is_array()) {
      for (const JsonValue& c : counters->as_array()) {
        const JsonValue* cname = c.find("name");
        if (cname == nullptr || !cname->is_string()) continue;
        w.add_counter(pid, tid, cname->as_string(),
                      (num_or(c.find("ts"), 0) +
                       static_cast<double>(shift_ns)) /
                          1e3,
                      num_or(c.find("value"), 0));
      }
    }
  }
  return true;
}

bool accumulate_snapshot_stats(const std::string& snapshot_json,
                               StatsRegistry& reg, std::string* error) {
  std::string perr;
  const std::unique_ptr<JsonValue> doc = JsonValue::parse(snapshot_json, &perr);
  if (!doc) return fail(error, "stats parse error: " + perr);
  const JsonValue* stats = stats_object(*doc);
  // A snapshot serialized without a registry still carries its dropped
  // count; only a document that is neither a snapshot nor a stats dump is
  // an error.
  if (stats == nullptr && doc->find("threads") == nullptr)
    return fail(error, "document carries no stats object");

  if (stats != nullptr) {
    const JsonValue* counters = stats->find("counters");
    if (counters != nullptr && counters->is_object())
      for (const auto& [k, v] : counters->as_object())
        if (v.is_number())
          reg.add(k, static_cast<std::uint64_t>(v.as_number()));
    const JsonValue* gauges = stats->find("gauges");
    if (gauges != nullptr && gauges->is_object())
      for (const auto& [k, v] : gauges->as_object())
        if (v.is_number()) reg.set_gauge(k, v.as_number());
    const JsonValue* hists = stats->find("histograms");
    if (hists != nullptr && hists->is_object()) {
      for (const auto& [k, v] : hists->as_object()) {
        HistSummary h;
        h.count = static_cast<std::uint64_t>(num_or(v.find("count"), 0));
        h.sum = num_or(v.find("sum"), 0);
        h.min = num_or(v.find("min"), 0);
        h.max = num_or(v.find("max"), 0);
        h.m2 = num_or(v.find("m2"), 0);
        h.running_mean = h.count ? h.sum / static_cast<double>(h.count) : 0;
        if (h.count > 0) reg.merge_hist(k, h);
      }
    }
  }
  const double dropped = num_or(doc->find("dropped"), 0);
  if (dropped > 0)
    reg.add("obs.tracer.dropped", static_cast<std::uint64_t>(dropped));
  return true;
}

std::int64_t estimate_clock_offset_ns(const std::vector<ClockSample>& samples) {
  const ClockSample* best = nullptr;
  std::int64_t best_rtt = 0;
  for (const ClockSample& s : samples) {
    const std::int64_t rtt = s.local_recv_ns - s.local_send_ns;
    if (rtt < 0) continue;
    if (best == nullptr || rtt < best_rtt) {
      best = &s;
      best_rtt = rtt;
    }
  }
  if (best == nullptr) return 0;
  // The remote reading happened somewhere inside [send, recv]; the midpoint
  // is the minimum-variance estimate, and picking the minimum-RTT exchange
  // bounds the error by rtt/2.
  return best->remote_ns - (best->local_send_ns + best->local_recv_ns) / 2;
}

MergedTraceCheck check_merged_trace(const std::string& trace_json,
                                    std::size_t min_processes,
                                    bool require_all_resolved) {
  MergedTraceCheck out;
  std::string perr;
  const std::unique_ptr<JsonValue> doc = JsonValue::parse(trace_json, &perr);
  if (!doc) {
    out.error = "trace parse error: " + perr;
    return out;
  }
  out.valid_json = true;
  const JsonValue* events = doc->find("traceEvents");
  if (events == nullptr || !events->is_array()) {
    out.error = "no traceEvents array";
    return out;
  }

  std::set<double> pids;
  std::map<std::pair<double, double>, double> track_end;  // (pid,tid) → end
  std::map<std::uint64_t, double> span_pid;               // span id → pid
  std::vector<std::pair<std::uint64_t, double>> parents;  // (parent, pid)
  for (const JsonValue& e : events->as_array()) {
    const JsonValue* ph = e.find("ph");
    if (ph == nullptr || !ph->is_string() || ph->as_string() != "X") continue;
    ++out.spans;
    const double pid = num_or(e.find("pid"), 0);
    const double tid = num_or(e.find("tid"), 0);
    pids.insert(pid);
    const double end = num_or(e.find("ts"), 0) + num_or(e.find("dur"), 0);
    auto [it, inserted] = track_end.try_emplace({pid, tid}, end);
    if (!inserted) {
      // Export order is span-completion order, so per track the end times
      // must be non-decreasing — the invariant offset correction preserves
      // (one constant shift per process). Small slack for µs rounding.
      if (end < it->second - 1e-3) out.monotone = false;
      it->second = std::max(it->second, end);
    }
    const JsonValue* args = e.find("args");
    if (args == nullptr) continue;
    const JsonValue* span = args->find("span");
    if (span != nullptr && span->is_string()) {
      ++out.linked_spans;
      span_pid[parse_hex_id(span->as_string())] = pid;
    }
    const JsonValue* parent = args->find("parent");
    if (parent != nullptr && parent->is_string())
      parents.emplace_back(parse_hex_id(parent->as_string()), pid);
  }
  out.processes = pids.size();
  for (const auto& [parent, pid] : parents) {
    auto it = span_pid.find(parent);
    if (it == span_pid.end()) {
      ++out.unresolved_parents;
    } else {
      ++out.resolved_parents;
      if (it->second != pid) ++out.cross_process_links;
    }
  }

  if (out.processes < min_processes)
    out.error = "spans from " + std::to_string(out.processes) +
                " processes, need " + std::to_string(min_processes);
  else if (!out.monotone)
    out.error = "per-track timestamps regress after offset correction";
  else if (out.cross_process_links == 0)
    out.error = "no cross-process parent/child links";
  else if (require_all_resolved && out.unresolved_parents > 0)
    out.error = std::to_string(out.unresolved_parents) +
                " parent ids do not resolve";
  out.ok = out.error.empty();
  return out;
}

}  // namespace eccheck::obs
