#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "trace/report.hpp"
#include "trace/trace.hpp"

/// Tests for orbit::trace — the ring buffers, span lifecycle, the disabled
/// fast path, and the Chrome trace-event JSON round trip.

namespace orbit::trace {
namespace {

// The track belonging to this test's recording (the only one with events
// after a fresh ScopedTrace capture on the main thread).
const TraceTrack* only_active_track(const TraceSnapshot& snap) {
  const TraceTrack* found = nullptr;
  for (const auto& t : snap.tracks) {
    if (t.events.empty()) continue;
    if (found) return nullptr;  // more than one active track
    found = &t;
  }
  return found;
}

TEST(Trace, SpanNestingRecordsBalancedEvents) {
  ScopedTrace capture;
  {
    ORBIT_TRACE_SPAN("outer.step", Category::kCompute);
    {
      ORBIT_TRACE_SPAN("inner.comm", Category::kComm, "tp", 4096);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const TraceSnapshot snap = snapshot();
  const TraceTrack* track = only_active_track(snap);
  ASSERT_NE(track, nullptr);
  ASSERT_EQ(track->events.size(), 4u);

  // Proper nesting: outer begin, inner begin, inner end, outer end.
  EXPECT_EQ(track->events[0].name, "outer.step");
  EXPECT_EQ(track->events[0].kind, EventKind::kBegin);
  EXPECT_EQ(track->events[1].name, "inner.comm");
  EXPECT_EQ(track->events[1].kind, EventKind::kBegin);
  EXPECT_EQ(track->events[1].detail, "tp");
  EXPECT_EQ(track->events[1].value, 4096);
  EXPECT_EQ(track->events[2].name, "inner.comm");
  EXPECT_EQ(track->events[2].kind, EventKind::kEnd);
  EXPECT_EQ(track->events[3].name, "outer.step");
  EXPECT_EQ(track->events[3].kind, EventKind::kEnd);

  EXPECT_EQ(validate(snap), std::nullopt);

  // The breakdown sees one top-level span, all-inclusive, and attributes
  // the nested comm span (time and bytes) to the tp axis.
  const BreakdownReport report = summarize(snap);
  ASSERT_EQ(report.tracks.size(), 1u);
  const TrackBreakdown& b = report.tracks[0];
  EXPECT_GT(b.busy_ms, 0.0);
  EXPECT_GT(b.comm_ms, 0.0);
  EXPECT_LE(b.comm_ms, b.busy_ms);
  EXPECT_EQ(b.comm_bytes, 4096u);
  ASSERT_EQ(b.axes.size(), 1u);
  EXPECT_EQ(b.axes[0].axis, "tp");
  EXPECT_EQ(b.axes[0].ops, 1u);
  ASSERT_EQ(b.step_ms.size(), 1u);  // "outer.step" matches "*.step"
}

TEST(Trace, RingWraparoundUnderConcurrentWriters) {
  const std::size_t old_cap = ring_capacity();
  set_ring_capacity(64);
  ScopedTrace capture;

  constexpr int kThreads = 4;
  constexpr int kEventsPerThread = 5000;
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int w = 0; w < kThreads; ++w) {
    writers.emplace_back([w] {
      set_thread_label("writer", w);
      for (int i = 0; i < kEventsPerThread; ++i) {
        counter("wrap.progress", "test", i);
      }
    });
  }
  for (auto& t : writers) t.join();  // quiescent before snapshot

  const TraceSnapshot snap = snapshot();
  set_ring_capacity(old_cap);

  int writer_tracks = 0;
  for (const auto& track : snap.tracks) {
    if (track.label.rfind("writer ", 0) != 0) continue;
    ++writer_tracks;
    // The ring keeps the newest <= capacity events and counts the rest.
    EXPECT_LE(track.events.size(), 64u);
    EXPECT_GT(track.events.size(), 0u);
    EXPECT_EQ(track.events.size() + track.dropped,
              static_cast<std::size_t>(kEventsPerThread));
    // Survivors are the tail of the sequence, in order.
    std::int64_t prev = -1;
    for (const auto& e : track.events) {
      EXPECT_EQ(e.name, "wrap.progress");
      EXPECT_GT(e.value, prev);
      prev = e.value;
    }
    EXPECT_EQ(track.events.back().value, kEventsPerThread - 1);
  }
  EXPECT_EQ(writer_tracks, kThreads);
  EXPECT_EQ(validate(snap), std::nullopt);
}

TEST(Trace, DisabledModeRecordsNothingAndStaysCheap) {
  set_enabled(false);
  reset();

  constexpr int kIters = 200000;
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < kIters; ++i) {
    ORBIT_TRACE_SPAN("disabled.span", Category::kCompute);
  }
  const double ns_per_span =
      std::chrono::duration<double, std::nano>(
          std::chrono::steady_clock::now() - start)
          .count() /
      kIters;

  const TraceSnapshot snap = snapshot();
  for (const auto& track : snap.tracks) {
    EXPECT_TRUE(track.events.empty()) << track.label;
  }
  // A disabled span is a relaxed load and a branch. The bound is deliberately
  // loose (debug builds, CI noise) — it exists to catch an accidental lock,
  // allocation, or clock read sneaking into the disabled path.
  EXPECT_LT(ns_per_span, 2000.0);
}

TEST(Trace, ChromeJsonRoundTripIsMonotonicAndLossless) {
  ScopedTrace capture;
  {
    ORBIT_TRACE_SPAN("rt.step", Category::kCompute);
    {
      ORBIT_TRACE_SPAN("comm.all_reduce", Category::kComm, "fsdp", 1024);
    }
    counter("comm.bytes", "fsdp", 1024);
    instant("rt.mark", Category::kServe, nullptr, 7);
    flow("rt.request", 42, /*begin=*/true);
    flow("rt.request", 42, /*begin=*/false);
  }
  const TraceSnapshot snap = snapshot();
  ASSERT_NE(only_active_track(snap), nullptr);

  const std::string json = to_chrome_json(snap);
  const TraceSnapshot parsed = parse_chrome_json(json);
  EXPECT_EQ(validate(parsed), std::nullopt);

  const TraceTrack* track = only_active_track(parsed);
  ASSERT_NE(track, nullptr);
  const TraceTrack* orig = only_active_track(snap);
  ASSERT_EQ(track->events.size(), orig->events.size());
  EXPECT_EQ(track->label, orig->label);

  std::uint64_t prev_ts = 0;
  bool saw_comm = false, saw_counter = false;
  int flow_ends = 0;
  for (const auto& e : track->events) {
    EXPECT_GE(e.ts_ns, prev_ts);  // µs doubles must stay ordered
    prev_ts = e.ts_ns;
    if (e.name == "comm.all_reduce" && e.kind == EventKind::kBegin) {
      saw_comm = true;
      EXPECT_EQ(e.cat, Category::kComm);
      EXPECT_EQ(e.detail, "fsdp");
      EXPECT_EQ(e.value, 1024);
    }
    if (e.kind == EventKind::kCounter) {
      saw_counter = true;
      EXPECT_EQ(e.name, "comm.bytes");
      EXPECT_EQ(e.value, 1024);
    }
    if (e.kind == EventKind::kFlowBegin || e.kind == EventKind::kFlowEnd) {
      ++flow_ends;
      EXPECT_EQ(e.flow, 42u);
    }
  }
  EXPECT_TRUE(saw_comm);
  EXPECT_TRUE(saw_counter);
  EXPECT_EQ(flow_ends, 2);

  // The round-tripped snapshot aggregates identically.
  const BreakdownReport a = summarize(snap);
  const BreakdownReport b = summarize(parsed);
  ASSERT_EQ(a.tracks.size(), b.tracks.size());
  EXPECT_DOUBLE_EQ(a.mean_comm_fraction, b.mean_comm_fraction);
  ASSERT_EQ(a.axes_total.size(), b.axes_total.size());
  for (std::size_t i = 0; i < a.axes_total.size(); ++i) {
    EXPECT_EQ(a.axes_total[i].axis, b.axes_total[i].axis);
    EXPECT_EQ(a.axes_total[i].bytes, b.axes_total[i].bytes);
  }
}

TEST(Trace, ParseChromeJsonRejectsMalformedUnicodeEscape) {
  // A \u escape takes exactly four hex digits; "\u12zz" is not one.
  EXPECT_THROW(
      parse_chrome_json(R"([{"ph":"i","ts":1,"tid":1,"name":"a\u12zzb"}])"),
      std::runtime_error);
  // A well-formed non-ASCII escape decodes to UTF-8.
  const TraceSnapshot ok =
      parse_chrome_json(R"([{"ph":"i","ts":1,"tid":1,"name":"caf\u00e9"}])");
  ASSERT_EQ(ok.tracks.size(), 1u);
  ASSERT_EQ(ok.tracks[0].events.size(), 1u);
  EXPECT_EQ(ok.tracks[0].events[0].name, "caf\xc3\xa9");
}

TEST(Trace, ParseChromeJsonRangeChecksIntegerFields) {
  // Each integer field comes from an unbounded JSON number; one that does
  // not fit its type is a parse error naming the field, never a cast.
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"tid", R"([{"ph":"i","ts":1,"tid":1e300,"name":"a"}])"},
      {"tid", R"([{"ph":"i","ts":1,"tid":-3e9,"name":"a"}])"},
      {"sort_index",
       R"([{"ph":"M","tid":1,"name":"thread_sort_index","args":{"sort_index":1e300}}])"},
      {"dropped",
       R"([{"ph":"M","tid":1,"name":"orbit_track_stats","args":{"dropped":-1}}])"},
      {"ts", R"([{"ph":"i","ts":1e300,"tid":1,"name":"a"}])"},
      {"ts", R"([{"ph":"i","ts":-5,"tid":1,"name":"a"}])"},
      {"id", R"([{"ph":"s","ts":1,"tid":1,"id":1e300,"name":"a"}])"},
      {"bytes",
       R"([{"ph":"B","ts":1,"tid":1,"cat":"comm","name":"a","args":{"bytes":1e300}}])"},
      {"q_depth", R"([{"ph":"C","ts":1,"tid":1,"name":"q","args":{"q_depth":-1e300}}])"},
  };
  for (const auto& [field, text] : cases) {
    try {
      (void)parse_chrome_json(text);
      ADD_FAILURE() << "accepted out-of-range " << field << ": " << text;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("'" + field + "'"),
                std::string::npos)
          << e.what();
    }
  }
  // The largest values that do fit still parse.
  const TraceSnapshot ok = parse_chrome_json(
      R"([{"ph":"i","ts":1,"tid":2147483647,"name":"a","args":{"value":-9.2e18}}])");
  ASSERT_EQ(ok.tracks.size(), 1u);
  EXPECT_EQ(ok.tracks[0].tid, 2147483647);
}

TEST(Trace, ParseChromeJsonBoundsNestingDepth) {
  // Hostile nesting throws instead of overflowing the stack.
  EXPECT_THROW(parse_chrome_json(std::string(2000000, '[')),
               std::runtime_error);
}

TEST(Trace, ValidateRejectsMalformedNesting) {
  // Hand-built snapshots: validate() must catch unbalanced and misnested
  // spans that a clean capture can never produce.
  TraceSnapshot snap;
  TraceTrack track;
  track.label = "rank 0";
  TraceEvent begin;
  begin.ts_ns = 10;
  begin.kind = EventKind::kBegin;
  begin.name = "a";
  TraceEvent end = begin;
  end.ts_ns = 20;
  end.kind = EventKind::kEnd;
  end.name = "b";  // mismatched close
  track.events = {begin, end};
  snap.tracks.push_back(track);
  EXPECT_NE(validate(snap), std::nullopt);

  snap.tracks[0].events[1].name = "a";
  EXPECT_EQ(validate(snap), std::nullopt);

  snap.tracks[0].events.pop_back();  // unclosed span
  EXPECT_NE(validate(snap), std::nullopt);

  snap.tracks[0].events[0].ts_ns = 30;
  snap.tracks[0].events.push_back(end);  // ts goes backwards (30 -> 20)
  EXPECT_NE(validate(snap), std::nullopt);
}

TEST(Trace, ScopedTraceRestoresEnabledFlag) {
  set_enabled(false);
  {
    ScopedTrace capture;
    EXPECT_TRUE(enabled());
  }
  EXPECT_FALSE(enabled());
  set_enabled(true);
  {
    ScopedTrace capture;
    EXPECT_TRUE(enabled());
  }
  EXPECT_TRUE(enabled());
  set_enabled(false);
}

}  // namespace
}  // namespace orbit::trace
