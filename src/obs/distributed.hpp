// Distributed observability: turning per-process tracer buffers and stats
// registries into one merged, clock-aligned view of a multi-process job.
//
// Every process in the checkpoint service (coordinator, worker daemons)
// records spans against its own Tracer epoch and counts into its own
// StatsRegistry. This module is the aggregation layer on top:
//
//  * serialize_snapshot / append_snapshot_to_trace — a process serializes
//    its tracer buffer (+ optional stats) to a self-contained JSON
//    document; a merger parses any number of such documents into one
//    ChromeTraceWriter, shifting each process's timestamps into the
//    merger's clock domain.
//
//  * estimate_clock_offset_ns — ping-pong midpoint offset estimation
//    between two steady clocks (the classic NTP-style bound): from samples
//    (local_send, remote, local_recv) pick the minimum-RTT exchange and
//    estimate remote ≈ local + offset. The coordinator aligns every
//    worker's snapshot this way against the worker's `clock` verb.
//
//  * accumulate_snapshot_stats — fold a snapshot's stats object into an
//    aggregate registry: counters sum, gauges last-write-wins, histograms
//    merge via HistSummary::merge (the m2 field makes this lossless).
//
//  * check_merged_trace — the well-formedness oracle tests assert against:
//    valid JSON, spans from ≥N processes, per-track monotone timestamps
//    after offset correction, parent/child span ids resolving
//    (cross-process links counted separately). Workers that were SIGKILLed
//    take their buffers with them, so callers choose whether unresolved
//    parents are an error (controlled tests) or expected (multi-process
//    runs that kill or lose workers).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace eccheck::obs {

class ChromeTraceWriter;
class StatsRegistry;
class Tracer;

/// Serialize `tracer`'s buffers (and `stats`, when non-null) into one JSON
/// document. `proc` names the originating process ("worker3").
std::string serialize_snapshot(const Tracer& tracer, const StatsRegistry* stats,
                               const std::string& proc);

/// Parse a serialize_snapshot document and append its spans/counters to
/// `w` as one process. Every timestamp is shifted by `shift_ns`
/// (merger-domain = snapshot-domain + shift). `process_name` overrides the
/// document's proc name when non-empty. Returns false (with *error set)
/// on malformed input.
bool append_snapshot_to_trace(ChromeTraceWriter& w,
                              const std::string& snapshot_json,
                              const std::string& process_name,
                              std::int64_t shift_ns, std::string* error);

/// Fold the stats of a serialize_snapshot document — or a bare
/// StatsRegistry::to_json() document — into `reg`: counters sum, gauges
/// last-write-wins, histograms merge. A snapshot's dropped-span count is
/// added to the `obs.tracer.dropped` counter.
bool accumulate_snapshot_stats(const std::string& snapshot_json,
                               StatsRegistry& reg, std::string* error);

/// One ping-pong exchange against a remote clock: local timestamps around
/// the exchange plus the remote reading it returned. All in each side's
/// own tracer-nanosecond domain.
struct ClockSample {
  std::int64_t local_send_ns = 0;
  std::int64_t local_recv_ns = 0;
  std::int64_t remote_ns = 0;
};

/// Midpoint offset from the minimum-RTT sample: remote ≈ local + offset.
/// To shift remote timestamps into the local domain, subtract the offset.
/// Zero when `samples` is empty.
std::int64_t estimate_clock_offset_ns(const std::vector<ClockSample>& samples);

/// Verdict of check_merged_trace.
struct MergedTraceCheck {
  bool valid_json = false;
  bool ok = false;  ///< everything below within the caller's requirements
  std::size_t processes = 0;        ///< distinct pids owning ≥1 span
  std::size_t spans = 0;            ///< complete events
  std::size_t linked_spans = 0;     ///< spans carrying a distributed span id
  std::size_t resolved_parents = 0;
  std::size_t unresolved_parents = 0;  ///< parent id not found in the file
  std::size_t cross_process_links = 0; ///< parent resolved in a different pid
  bool monotone = true;  ///< per (pid,tid): event end times non-decreasing
  std::string error;     ///< first violated requirement, empty when ok
};

/// Validate a merged Chrome trace document: well-formed JSON, spans from
/// at least `min_processes` distinct processes, at least one
/// cross-process parent/child link, monotone per-track timestamps, and —
/// iff `require_all_resolved` — no dangling parent ids.
MergedTraceCheck check_merged_trace(const std::string& trace_json,
                                    std::size_t min_processes,
                                    bool require_all_resolved);

}  // namespace eccheck::obs
