// Distributed-tracing identity plumbing (DESIGN.md §15): trace/span id
// generation, the hex wire codec, ambient TraceContext propagation through
// TraceContextScope and Span nesting, the parent/trace fields recorded into
// TraceEvents, the Chrome-trace export of those ids, and the ambient span id
// stamped onto flight-ring records.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/obs/event.hpp"
#include "src/obs/export.hpp"
#include "src/obs/flight.hpp"
#include "src/obs/span.hpp"

namespace {

using namespace lore::obs;

/// Enables the global recorder for one test and restores silence after.
struct RecorderOn {
  RecorderOn() {
    TraceRecorder::global().clear();
    TraceRecorder::global().set_enabled(true);
  }
  ~RecorderOn() {
    TraceRecorder::global().set_enabled(false);
    TraceRecorder::global().clear();
  }
};

TEST(TraceContext, IdsAreNonZeroAndDistinct) {
  std::set<SpanId> spans;
  std::set<std::pair<std::uint64_t, std::uint64_t>> traces;
  for (int i = 0; i < 1000; ++i) {
    const SpanId s = make_span_id();
    const TraceId t = make_trace_id();
    EXPECT_NE(s, 0u);
    EXPECT_TRUE(t.valid());
    spans.insert(s);
    traces.insert({t.hi, t.lo});
  }
  EXPECT_EQ(spans.size(), 1000u);
  EXPECT_EQ(traces.size(), 1000u);
}

TEST(TraceContext, IdsAreDistinctAcrossThreads) {
  std::vector<std::vector<SpanId>> per_thread(4);
  std::vector<std::thread> threads;
  for (auto& out : per_thread)
    threads.emplace_back([&out] {
      for (int i = 0; i < 256; ++i) out.push_back(make_span_id());
    });
  for (auto& t : threads) t.join();
  std::set<SpanId> all;
  for (const auto& v : per_thread) all.insert(v.begin(), v.end());
  EXPECT_EQ(all.size(), 4u * 256u);
}

TEST(TraceContext, HexCodecRoundTrips) {
  const SpanId s = make_span_id();
  EXPECT_EQ(span_id_from_hex(span_id_hex(s)), s);
  EXPECT_EQ(span_id_hex(s).size(), 16u);

  const TraceId t = make_trace_id();
  EXPECT_TRUE(trace_id_from_hex(trace_id_hex(t)) == t);
  EXPECT_EQ(trace_id_hex(t).size(), 32u);

  // Malformed input parses to "no id", never throws.
  EXPECT_EQ(span_id_from_hex(""), 0u);
  EXPECT_EQ(span_id_from_hex("zz"), 0u);
  EXPECT_EQ(span_id_from_hex("123"), 0u);  // wrong width
  EXPECT_FALSE(trace_id_from_hex("deadbeef").valid());
  EXPECT_FALSE(trace_id_from_hex(std::string(32, 'g')).valid());
}

TEST(TraceContext, ScopeInstallsAndRestores) {
  EXPECT_FALSE(current_trace_context().valid());
  const TraceContext outer{make_trace_id(), make_span_id()};
  {
    TraceContextScope scope(outer);
    EXPECT_TRUE(current_trace_context().trace == outer.trace);
    EXPECT_EQ(current_trace_context().span, outer.span);
    {
      const TraceContext inner{make_trace_id(), make_span_id()};
      TraceContextScope nested(inner);
      EXPECT_TRUE(current_trace_context().trace == inner.trace);
    }
    EXPECT_TRUE(current_trace_context().trace == outer.trace);
    EXPECT_EQ(current_trace_context().span, outer.span);
  }
  EXPECT_FALSE(current_trace_context().valid());
}

TEST(TraceContext, SpanNestingRecordsParentage) {
  RecorderOn on;
  const TraceId trace = make_trace_id();
  SpanId outer_id = 0, inner_id = 0;
  {
    TraceContextScope scope(TraceContext{trace, 0});
    Span outer("outer");
    outer_id = outer.id();
    EXPECT_NE(outer_id, 0u);
    EXPECT_EQ(outer.parent(), 0u);
    EXPECT_TRUE(outer.trace() == trace);
    // The open span is the ambient parent for anything nested.
    EXPECT_EQ(current_trace_context().span, outer_id);
    {
      Span inner("inner");
      inner_id = inner.id();
      EXPECT_EQ(inner.parent(), outer_id);
      EXPECT_TRUE(inner.trace() == trace);
    }
    EXPECT_EQ(current_trace_context().span, outer_id);
  }

  const auto events = TraceRecorder::global().events();
  ASSERT_EQ(events.size(), 2u);  // inner closed first
  EXPECT_EQ(events[0].name, "inner");
  EXPECT_EQ(events[0].span, inner_id);
  EXPECT_EQ(events[0].parent, outer_id);
  EXPECT_TRUE(events[0].trace == trace);
  EXPECT_EQ(events[1].name, "outer");
  EXPECT_EQ(events[1].span, outer_id);
  EXPECT_EQ(events[1].parent, 0u);
}

TEST(TraceContext, ScopeCarriesContextAcrossThreads) {
  RecorderOn on;
  const TraceContext ctx{make_trace_id(), make_span_id()};
  SpanId child_id = 0;
  std::thread worker([&] {
    // The pattern parallel_for bodies and fabric workers use: adopt the
    // spawning side's context, then open spans under it.
    TraceContextScope scope(ctx);
    Span s("cross-thread");
    child_id = s.id();
    EXPECT_EQ(s.parent(), ctx.span);
    EXPECT_TRUE(s.trace() == ctx.trace);
  });
  worker.join();
  const auto events = TraceRecorder::global().events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].span, child_id);
  EXPECT_EQ(events[0].parent, ctx.span);
}

TEST(TraceContext, ChromeExportCarriesIdsAndProcessLanes) {
  TraceEvent local;
  local.name = "local";
  local.span = 7;
  local.parent = 3;
  local.trace = make_trace_id();
  TraceEvent remote = local;
  remote.name = "remote";
  remote.pid = 4242;  // stitched from a worker
  TraceEvent anonymous;
  anonymous.name = "anon";  // span == 0: no id args at all

  const Json doc = chrome_trace_json({local, remote, anonymous});
  const auto& list = doc.at("traceEvents").items();
  ASSERT_EQ(list.size(), 3u);
  EXPECT_EQ(list[0].at("pid").as_int(), 1);  // local lane
  EXPECT_EQ(list[1].at("pid").as_int(), 4242);
  EXPECT_EQ(list[0].at("args").at("span").as_string(), span_id_hex(7));
  EXPECT_EQ(list[0].at("args").at("parent").as_string(), span_id_hex(3));
  EXPECT_EQ(list[0].at("args").at("trace").as_string(), trace_id_hex(local.trace));
  EXPECT_EQ(list[2].at("args").find("span"), nullptr);
}

TEST(TraceContext, RingEventsCarryAmbientSpanId) {
  const std::string path =
      testing::TempDir() + "lore_span_ring_" + std::to_string(::getpid()) + ".ring";
  FlightRecorder& flight = FlightRecorder::global();
  ASSERT_TRUE(flight.open(path, 64));
  std::uint64_t span_id = 0;
  {
    RecorderOn on;
    TraceContextScope scope(TraceContext{make_trace_id(), 0});
    Span s("emitter");
    span_id = s.id();
    emit_event(EventKind::kTrialCompleted, 11, 1.0);
  }
  flight.close();

  const auto dump = decode_flight_file(path);
  ASSERT_TRUE(dump.has_value());
  std::size_t found = 0;
  for (const auto& r : dump->records) {
    if (r.kind != EventKind::kTrialCompleted || r.a != 11) continue;
    ++found;
    EXPECT_NE(span_id, 0u);
    EXPECT_EQ(r.span, span_id);
  }
  EXPECT_EQ(found, 1u);
  std::remove(path.c_str());
}

TEST(TraceContext, SpansCostNothingWhenEverythingIsOff) {
  // Neither the recorder nor any event stream is on: no identity generated,
  // no ambient context disturbed.
  ASSERT_FALSE(TraceRecorder::global().recording());
  ASSERT_FALSE(event_stream_enabled());
  Span s("idle");
  EXPECT_EQ(s.id(), 0u);
  EXPECT_FALSE(current_trace_context().valid());
}

}  // namespace
