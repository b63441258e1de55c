// Distributed observability (src/obs/distributed + the tracer's trace
// contexts + the frame-level trace block): wire round-trip of the trace
// context, span-id chaining and adoption, bounded tracer buffers, lossless
// histogram merging, ping-pong clock-offset estimation, and the
// merged-trace oracle itself — three tracer "processes" linked by
// parent/child span ids must merge into one valid, monotone, cross-linked
// Chrome trace, and the oracle must reject the ways a merge can go wrong.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "net/frame.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/distributed.hpp"
#include "obs/json.hpp"
#include "obs/stats.hpp"
#include "obs/tracer.hpp"

namespace eccheck {
namespace {

// ---------------------------------------------------------------------------
// Wire format: the trace-context block on frames.
// ---------------------------------------------------------------------------

TEST(FrameTrace, UntracedHeaderIsByteIdenticalToLegacy) {
  net::FrameHeader h;
  h.type = net::FrameType::kPut;
  h.src_rank = 3;
  h.key = "chunk/5";
  h.payload_len = 4096;
  h.payload_crc = 0x1234'5678'9abc'def0ull;

  std::uint8_t buf[net::kFrameHeaderBytes];
  net::encode_frame_header(h, buf);

  std::uint32_t key_len = 0;
  bool has_trace = true;
  const net::FrameHeader back =
      net::decode_frame_header(buf, &key_len, &has_trace);
  EXPECT_FALSE(has_trace) << "trace.trace_id==0 must not set the flag";
  EXPECT_EQ(back.type, h.type);
  EXPECT_EQ(back.src_rank, h.src_rank);
  EXPECT_EQ(key_len, h.key.size());
  EXPECT_EQ(back.trace.trace_id, 0u);
}

TEST(FrameTrace, ContextRoundTripsAndStaysWithinBudget) {
  static_assert(net::kTraceContextBytes <= 32,
                "trace context must stay within the 32-byte budget");
  net::FrameHeader h;
  h.type = net::FrameType::kSegment;
  h.src_rank = 1;
  h.aux = 7;
  h.trace.trace_id = 0xfeed'beef'0000'0001ull;
  h.trace.parent_span = 0x0123'4567'89ab'cdefull;
  h.trace.op = static_cast<std::uint32_t>(net::FrameType::kSegment);

  std::uint8_t buf[net::kFrameHeaderBytes + net::kTraceContextBytes];
  net::encode_frame_header(h, buf);
  net::encode_trace_context(h.trace, buf + net::kFrameHeaderBytes);

  std::uint32_t key_len = 0;
  bool has_trace = false;
  const net::FrameHeader back =
      net::decode_frame_header(buf, &key_len, &has_trace);
  ASSERT_TRUE(has_trace);
  EXPECT_EQ(back.type, net::FrameType::kSegment) << "flag bit must be masked";
  const net::WireTraceContext tc =
      net::decode_trace_context(buf + net::kFrameHeaderBytes);
  EXPECT_EQ(tc.trace_id, h.trace.trace_id);
  EXPECT_EQ(tc.parent_span, h.trace.parent_span);
  EXPECT_EQ(tc.op, h.trace.op);
  EXPECT_EQ(tc.flags, 0u);
}

// ---------------------------------------------------------------------------
// Trace contexts: chaining, adoption, id allocation.
// ---------------------------------------------------------------------------

TEST(TraceContext, NestedSpansChainUnderTheActiveContext) {
  obs::Tracer t;
  t.enable();
  const std::uint64_t trace = obs::Tracer::new_trace_id();
  ASSERT_NE(trace, 0u);
  std::uint64_t outer_id = 0, inner_id = 0;
  {
    obs::ScopedTraceContext ctx(trace, 0);
    obs::ScopedSpan outer(t, "outer");
    outer_id = outer.span_id();
    ASSERT_NE(outer_id, 0u);
    EXPECT_EQ(obs::current_trace_context().span_id, outer_id);
    {
      obs::ScopedSpan inner(t, "inner");
      inner_id = inner.span_id();
      EXPECT_NE(inner_id, outer_id);
      EXPECT_EQ(obs::current_trace_context().span_id, inner_id);
    }
    EXPECT_EQ(obs::current_trace_context().span_id, outer_id)
        << "inner span must restore its parent as innermost";
  }
  EXPECT_EQ(obs::current_trace_context().trace_id, 0u);

  bool saw_outer = false, saw_inner = false;
  for (const obs::Tracer::ThreadTrack& track : t.snapshot())
    for (const obs::Tracer::SpanRec& s : track.spans) {
      if (s.name == "outer") {
        saw_outer = true;
        EXPECT_EQ(s.trace_id, trace);
        EXPECT_EQ(s.span_id, outer_id);
        EXPECT_EQ(s.parent_span, 0u);
      } else if (s.name == "inner") {
        saw_inner = true;
        EXPECT_EQ(s.trace_id, trace);
        EXPECT_EQ(s.parent_span, outer_id);
      }
    }
  EXPECT_TRUE(saw_outer);
  EXPECT_TRUE(saw_inner);
}

TEST(TraceContext, SpansOutsideAnyContextStayUnlinked) {
  obs::Tracer t;
  t.enable();
  { obs::ScopedSpan s(t, "plain"); EXPECT_EQ(s.span_id(), 0u); }
  const auto tracks = t.snapshot();
  ASSERT_FALSE(tracks.empty());
  for (const auto& track : tracks)
    for (const auto& s : track.spans) EXPECT_EQ(s.trace_id, 0u);
}

TEST(TraceContext, AdoptLinksARemoteParent) {
  obs::Tracer t;
  t.enable();
  const std::uint64_t trace = obs::Tracer::new_trace_id();
  const std::uint64_t remote_parent = obs::Tracer::new_span_id();
  {
    obs::ScopedSpan recv(t, "net.recv");
    EXPECT_EQ(recv.span_id(), 0u);  // no local context
    recv.adopt(trace, remote_parent);
    EXPECT_NE(recv.span_id(), 0u);
  }
  const auto tracks = t.snapshot();
  bool found = false;
  for (const auto& track : tracks)
    for (const auto& s : track.spans)
      if (s.name == "net.recv") {
        found = true;
        EXPECT_EQ(s.trace_id, trace);
        EXPECT_EQ(s.parent_span, remote_parent);
      }
  EXPECT_TRUE(found);
}

TEST(TraceContext, IdsAreUniqueAcrossThreads) {
  constexpr int kThreads = 8;
  constexpr int kIds = 200;
  std::vector<std::vector<std::uint64_t>> per_thread(kThreads);
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i)
    threads.emplace_back([&per_thread, i] {
      for (int n = 0; n < kIds; ++n)
        per_thread[static_cast<std::size_t>(i)].push_back(
            obs::Tracer::new_span_id());
    });
  for (auto& th : threads) th.join();
  std::vector<std::uint64_t> all;
  for (const auto& v : per_thread) all.insert(all.end(), v.begin(), v.end());
  std::sort(all.begin(), all.end());
  EXPECT_EQ(std::adjacent_find(all.begin(), all.end()), all.end());
  EXPECT_EQ(std::find(all.begin(), all.end(), 0u), all.end());
}

// ---------------------------------------------------------------------------
// Bounded buffers.
// ---------------------------------------------------------------------------

TEST(TracerBounds, CapacityCapsBuffersAndCountsDrops) {
  obs::Tracer t;
  t.enable();
  t.set_span_capacity(16);
  for (int i = 0; i < 100; ++i) obs::ScopedSpan s(t, "spin");
  EXPECT_EQ(t.span_count(), 16u);
  EXPECT_EQ(t.dropped_count(), 84u);
  // Counters have their own buffer under the same bound.
  for (int i = 0; i < 20; ++i) t.record_counter("depth", i);
  EXPECT_EQ(t.dropped_count(), 88u);

  t.clear();
  EXPECT_EQ(t.span_count(), 0u);
  EXPECT_EQ(t.dropped_count(), 0u);
  { obs::ScopedSpan s(t, "after_clear"); }
  EXPECT_EQ(t.span_count(), 1u);
}

TEST(TracerBounds, DroppedCountRidesTheSnapshot) {
  obs::Tracer t;
  t.enable();
  t.set_span_capacity(2);
  for (int i = 0; i < 5; ++i) obs::ScopedSpan s(t, "spin");
  const std::string snap = obs::serialize_snapshot(t, nullptr, "p");
  obs::StatsRegistry agg;
  std::string err;
  ASSERT_TRUE(obs::accumulate_snapshot_stats(snap, agg, &err)) << err;
  EXPECT_EQ(agg.counter("obs.tracer.dropped"), 3u);
}

// ---------------------------------------------------------------------------
// Histogram merging.
// ---------------------------------------------------------------------------

TEST(HistMerge, MergeMatchesSingleStreamWelford) {
  obs::HistSummary a, b, whole;
  const std::vector<double> xs = {0.5, 1.25, -3.0, 42.0, 0.0, 7.5, 7.5, -0.125};
  for (std::size_t i = 0; i < xs.size(); ++i) {
    (i < 3 ? a : b).observe(xs[i]);
    whole.observe(xs[i]);
  }
  a.merge(b);
  EXPECT_EQ(a.count, whole.count);
  EXPECT_DOUBLE_EQ(a.sum, whole.sum);
  EXPECT_DOUBLE_EQ(a.min, whole.min);
  EXPECT_DOUBLE_EQ(a.max, whole.max);
  EXPECT_NEAR(a.mean(), whole.mean(), 1e-12);
  EXPECT_NEAR(a.stddev(), whole.stddev(), 1e-9);
}

TEST(HistMerge, EmptySidesAreIdentity) {
  obs::HistSummary empty, filled;
  filled.observe(3.0);
  filled.observe(5.0);
  obs::HistSummary lhs = filled;
  lhs.merge(empty);
  EXPECT_EQ(lhs.count, 2u);
  EXPECT_DOUBLE_EQ(lhs.mean(), 4.0);
  obs::HistSummary rhs = empty;
  rhs.merge(filled);
  EXPECT_EQ(rhs.count, 2u);
  EXPECT_DOUBLE_EQ(rhs.mean(), 4.0);
  EXPECT_DOUBLE_EQ(rhs.min, 3.0);
  EXPECT_DOUBLE_EQ(rhs.max, 5.0);
}

TEST(HistMerge, JsonRoundTripMergesLosslessly) {
  obs::StatsRegistry src;
  for (double v : {0.01, 0.02, 0.04, 0.08}) src.observe("save.latency_s", v);
  src.add("net.send.count", 10);
  src.set_gauge("svc.jobs", 2);

  obs::StatsRegistry agg;
  std::string err;
  // Accumulate the same dump twice: counters double, histograms hold the
  // union of both sample sets.
  ASSERT_TRUE(obs::accumulate_snapshot_stats(src.to_json(), agg, &err)) << err;
  ASSERT_TRUE(obs::accumulate_snapshot_stats(src.to_json(), agg, &err)) << err;
  EXPECT_EQ(agg.counter("net.send.count"), 20u);
  EXPECT_DOUBLE_EQ(agg.gauge("svc.jobs"), 2.0);
  const obs::HistSummary h = agg.histograms().at("save.latency_s");
  EXPECT_EQ(h.count, 8u);
  // Oracle: observe every sample twice into one stream.
  obs::HistSummary twice;
  for (int round = 0; round < 2; ++round)
    for (double v : {0.01, 0.02, 0.04, 0.08}) twice.observe(v);
  EXPECT_NEAR(h.mean(), twice.mean(), 1e-12);
  EXPECT_NEAR(h.stddev(), twice.stddev(), 1e-9)
      << "m2 must survive the JSON round trip";
}

// ---------------------------------------------------------------------------
// Clock-offset estimation.
// ---------------------------------------------------------------------------

TEST(ClockOffset, PicksTheMidpointOfTheMinimumRttSample) {
  std::vector<obs::ClockSample> samples;
  // Ground truth: remote = local + 1000. The tight exchange sees it
  // exactly; the noisy ones are biased by asymmetric delays.
  samples.push_back({5000, 9000, 10500});  // rtt 4000, biased
  samples.push_back({1000, 1100, 2050});   // rtt 100 → offset 1000
  samples.push_back({3000, 3500, 4600});   // rtt 500, biased the other way
  EXPECT_EQ(obs::estimate_clock_offset_ns(samples), 1000);
}

TEST(ClockOffset, EmptyAndNegativeRttSamplesAreHandled) {
  EXPECT_EQ(obs::estimate_clock_offset_ns({}), 0);
  std::vector<obs::ClockSample> bad;
  bad.push_back({100, 50, 999});  // negative rtt: clock glitch, skipped
  EXPECT_EQ(obs::estimate_clock_offset_ns(bad), 0);
  bad.push_back({0, 10, -495});  // remote clock far behind: offset −500
  EXPECT_EQ(obs::estimate_clock_offset_ns(bad), -500);
}

// ---------------------------------------------------------------------------
// The merged-trace pipeline and its oracle.
// ---------------------------------------------------------------------------

/// Three tracers standing in for three processes, linked
/// coordinator → worker → peer exactly like the service does it: the
/// sender's innermost span id travels (here by hand, on the wire in prod)
/// and the receiver opens its spans under an adopted context.
struct ThreeProcessTrace {
  obs::Tracer coord, worker, peer;
  std::uint64_t trace_id = 0;

  ThreeProcessTrace() {
    coord.enable();
    worker.enable();
    peer.enable();
    trace_id = obs::Tracer::new_trace_id();
    std::uint64_t send_id = 0;
    {
      obs::ScopedTraceContext ctx(trace_id, 0);
      obs::ScopedSpan root(coord, "coord.save");
      obs::ScopedSpan send(coord, "net.send");
      send_id = send.span_id();
    }
    std::uint64_t relay_id = 0;
    {
      obs::ScopedTraceContext ctx(trace_id, send_id);
      obs::ScopedSpan handle(worker, "worker.handle");
      relay_id = handle.span_id();
      obs::ScopedSpan coll(worker, "fabric.broadcast");
    }
    {
      obs::ScopedTraceContext ctx(trace_id, relay_id);
      obs::ScopedSpan recv(peer, "net.recv");
    }
  }

  std::string merged(std::int64_t shift_worker_ns,
                     std::int64_t shift_peer_ns) const {
    obs::ChromeTraceWriter w;
    std::string err;
    EXPECT_TRUE(obs::append_snapshot_to_trace(
        w, obs::serialize_snapshot(coord, nullptr, "coordinator"), "", 0,
        &err))
        << err;
    EXPECT_TRUE(obs::append_snapshot_to_trace(
        w, obs::serialize_snapshot(worker, nullptr, "worker0"), "",
        shift_worker_ns, &err))
        << err;
    EXPECT_TRUE(obs::append_snapshot_to_trace(
        w, obs::serialize_snapshot(peer, nullptr, "worker1"), "",
        shift_peer_ns, &err))
        << err;
    std::ostringstream os;
    w.write(os);
    return os.str();
  }
};

TEST(MergedTrace, ThreeProcessesLinkResolveAndStayMonotone) {
  const ThreeProcessTrace t;
  const std::string trace = t.merged(0, 0);
  const obs::MergedTraceCheck chk =
      obs::check_merged_trace(trace, /*min_processes=*/3,
                              /*require_all_resolved=*/true);
  EXPECT_TRUE(chk.ok) << chk.error;
  EXPECT_TRUE(chk.valid_json);
  EXPECT_EQ(chk.processes, 3u);
  EXPECT_GE(chk.spans, 5u);
  EXPECT_EQ(chk.linked_spans, 5u);
  EXPECT_EQ(chk.unresolved_parents, 0u);
  EXPECT_GE(chk.cross_process_links, 2u)
      << "coordinator→worker and worker→peer edges must cross processes";
}

TEST(MergedTrace, OffsetCorrectionPreservesMonotonicity) {
  const ThreeProcessTrace t;
  // Large, distinct per-process shifts — the per-track invariant must be
  // unaffected because each process moves by one constant.
  const std::string trace = t.merged(7'000'000'000ll, -3'000'000'000ll);
  const obs::MergedTraceCheck chk = obs::check_merged_trace(trace, 3, true);
  EXPECT_TRUE(chk.ok) << chk.error;
  EXPECT_TRUE(chk.monotone);
}

TEST(MergedTrace, OracleRejectsTooFewProcessesAndRegressions) {
  const ThreeProcessTrace t;
  const std::string trace = t.merged(0, 0);
  const obs::MergedTraceCheck few = obs::check_merged_trace(trace, 4, false);
  EXPECT_FALSE(few.ok);
  EXPECT_NE(few.error.find("processes"), std::string::npos);

  obs::ChromeTraceWriter w;
  const int pid = w.begin_process("p0");
  w.add_complete(pid, 0, "a", 100.0, 10.0, "\"span\":\"0000000000000001\"");
  w.add_complete(pid, 0, "b", 20.0, 10.0);  // regresses on the same track
  const int pid2 = w.begin_process("p1");
  w.add_complete(pid2, 0, "c", 5.0, 1.0,
                 "\"span\":\"0000000000000002\","
                 "\"parent\":\"0000000000000001\"");
  std::ostringstream os;
  w.write(os);
  const obs::MergedTraceCheck chk = obs::check_merged_trace(os.str(), 2, true);
  EXPECT_FALSE(chk.ok);
  EXPECT_FALSE(chk.monotone);
}

TEST(MergedTrace, UnresolvedParentsFailOnlyWhenRequired) {
  obs::Tracer a, b;
  a.enable();
  b.enable();
  const std::uint64_t trace_id = obs::Tracer::new_trace_id();
  std::uint64_t a_id = 0;
  {
    obs::ScopedTraceContext ctx(trace_id, 0);
    obs::ScopedSpan root(a, "root");
    a_id = root.span_id();
  }
  {
    obs::ScopedTraceContext ctx(trace_id, a_id);
    obs::ScopedSpan linked(b, "linked");
  }
  {
    // Parent minted by a "killed" process whose buffer never made it.
    obs::ScopedTraceContext ctx(trace_id, obs::Tracer::new_span_id());
    obs::ScopedSpan orphan(b, "orphan");
  }
  obs::ChromeTraceWriter w;
  std::string err;
  ASSERT_TRUE(obs::append_snapshot_to_trace(
      w, obs::serialize_snapshot(a, nullptr, "alive"), "", 0, &err));
  ASSERT_TRUE(obs::append_snapshot_to_trace(
      w, obs::serialize_snapshot(b, nullptr, "survivor"), "", 0, &err));
  std::ostringstream os;
  w.write(os);

  const obs::MergedTraceCheck strict = obs::check_merged_trace(os.str(), 2, true);
  EXPECT_FALSE(strict.ok);
  EXPECT_EQ(strict.unresolved_parents, 1u);
  EXPECT_NE(strict.error.find("resolve"), std::string::npos);

  const obs::MergedTraceCheck lenient =
      obs::check_merged_trace(os.str(), 2, false);
  EXPECT_TRUE(lenient.ok) << lenient.error;
  EXPECT_EQ(lenient.resolved_parents, 1u);
  EXPECT_EQ(lenient.cross_process_links, 1u);
}

TEST(MergedTrace, SnapshotCarriesProcAndStats) {
  obs::Tracer t;
  t.enable();
  { obs::ScopedSpan s(t, "work", /*bytes=*/1 << 20); }
  obs::StatsRegistry reg;
  reg.add("net.send.count", 5);
  const std::string snap = obs::serialize_snapshot(t, &reg, "worker7");

  std::string perr;
  const std::unique_ptr<obs::JsonValue> doc = obs::JsonValue::parse(snap, &perr);
  ASSERT_NE(doc, nullptr) << perr;
  EXPECT_EQ(doc->find("proc")->as_string(), "worker7");
  const obs::JsonValue* stats = doc->find("stats");
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->find("counters")->find("net.send.count")->as_number(), 5);

  obs::StatsRegistry agg;
  std::string err;
  ASSERT_TRUE(obs::accumulate_snapshot_stats(snap, agg, &err)) << err;
  EXPECT_EQ(agg.counter("net.send.count"), 5u);
}

}  // namespace
}  // namespace eccheck
