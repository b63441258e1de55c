// obs::Tracer tests: disabled cost model, concurrent recording, per-thread
// span nesting and Chrome-trace export validity.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/chrome_trace.hpp"
#include "obs/tracer.hpp"
#include "tests/json_checker.hpp"

namespace eccheck {
namespace {

using testutil::JsonChecker;
using testutil::count_occurrences;
using testutil::trace_names;

TEST(Tracer, DisabledRecordsNothing) {
  obs::Tracer t;  // disabled by default
  EXPECT_FALSE(t.enabled());
  {
    obs::ScopedSpan span(t, "never");
    EXPECT_FALSE(span.active());
  }
  t.record_span("manual", 0, 10);
  t.record_counter("depth", 3);
  EXPECT_EQ(t.span_count(), 0u);
  for (const auto& track : t.snapshot()) {
    EXPECT_TRUE(track.spans.empty());
    EXPECT_TRUE(track.counters.empty());
  }
}

TEST(Tracer, SpanOpenedWhileDisabledStaysDisabled) {
  obs::Tracer t;
  {
    obs::ScopedSpan span(t, "opened_disabled");
    t.enable();
  }  // destructor runs with the tracer enabled — still must not record
  t.disable();
  EXPECT_EQ(t.span_count(), 0u);
}

TEST(Tracer, ConcurrentThreadsExportValidChromeTrace) {
  constexpr int kThreads = 8;
  constexpr int kSpansPerThread = 50;
  obs::Tracer t;
  t.enable();

  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&t, i] {
      obs::Tracer::set_thread_name("worker" + std::to_string(i));
      for (int s = 0; s < kSpansPerThread; ++s) {
        obs::ScopedSpan outer(t, "outer");
        obs::ScopedSpan inner(t, "inner", /*bytes=*/4096);
        t.record_counter("iteration", s);
      }
    });
  }
  for (auto& th : threads) th.join();
  t.disable();

  EXPECT_EQ(t.span_count(),
            static_cast<std::size_t>(kThreads) * kSpansPerThread * 2);

  obs::ChromeTraceWriter w;
  t.export_to(w, "tracer test");
  std::ostringstream os;
  w.write(os);
  const std::string json = os.str();
  ASSERT_TRUE(JsonChecker(json).valid()) << json.substr(0, 400);
  // Every thread track is named, and byte-carrying spans get a rate arg.
  EXPECT_EQ(count_occurrences(json, "\"thread_name\""),
            static_cast<std::size_t>(kThreads));
  EXPECT_NE(json.find("worker0"), std::string::npos);
  EXPECT_NE(json.find("\"GiB_per_s\""), std::string::npos);
  auto names = trace_names(json);
  EXPECT_TRUE(names.count("outer"));
  EXPECT_TRUE(names.count("inner"));
}

TEST(Tracer, SpansNestWellFormedPerThread) {
  obs::Tracer t;
  t.enable();
  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&t] {
      for (int rep = 0; rep < 20; ++rep) {
        obs::ScopedSpan a(t, "a");
        {
          obs::ScopedSpan b(t, "b");
          obs::ScopedSpan c(t, "c");
        }
        obs::ScopedSpan d(t, "d");
      }
    });
  }
  for (auto& th : threads) th.join();
  t.disable();

  for (const auto& track : t.snapshot()) {
    // Any two spans on one thread either nest or are disjoint — a partial
    // overlap would mean the per-thread buffers mixed records across
    // threads or ScopedSpan lifetimes interleaved impossibly.
    const auto& sp = track.spans;
    for (std::size_t i = 0; i < sp.size(); ++i) {
      for (std::size_t j = i + 1; j < sp.size(); ++j) {
        const bool disjoint =
            sp[i].end_ns <= sp[j].start_ns || sp[j].end_ns <= sp[i].start_ns;
        const bool i_in_j = sp[j].start_ns <= sp[i].start_ns &&
                            sp[i].end_ns <= sp[j].end_ns;
        const bool j_in_i = sp[i].start_ns <= sp[j].start_ns &&
                            sp[j].end_ns <= sp[i].end_ns;
        ASSERT_TRUE(disjoint || i_in_j || j_in_i)
            << sp[i].name << " [" << sp[i].start_ns << "," << sp[i].end_ns
            << ") vs " << sp[j].name << " [" << sp[j].start_ns << ","
            << sp[j].end_ns << ")";
      }
    }
    for (const auto& s : sp) {
      EXPECT_LE(s.start_ns, s.end_ns);
      EXPECT_GE(s.depth, 0);
    }
  }
}

TEST(Tracer, ClearDropsSpansButKeepsRegistrations) {
  obs::Tracer t;
  t.enable();
  { obs::ScopedSpan span(t, "x"); }
  EXPECT_EQ(t.span_count(), 1u);
  t.clear();
  EXPECT_EQ(t.span_count(), 0u);
  { obs::ScopedSpan span(t, "y"); }
  EXPECT_EQ(t.span_count(), 1u);
}

}  // namespace
}  // namespace eccheck
