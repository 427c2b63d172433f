#include "src/obs/span.hpp"

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>

#include "src/obs/event.hpp"
#include "src/obs/export.hpp"

namespace lore::obs {
namespace {

std::chrono::steady_clock::time_point process_start() {
  static const auto start = std::chrono::steady_clock::now();
  return start;
}

thread_local std::uint32_t t_span_depth = 0;
thread_local TraceContext t_trace_ctx{};

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  return x;
}

/// Per-process id seed: pid + monotonic clock + an ASLR-randomized address,
/// so forked workers and re-executed processes never collide in practice.
std::uint64_t process_id_seed() {
  static const std::uint64_t seed = [] {
    std::uint64_t s = static_cast<std::uint64_t>(::getpid());
    s = splitmix64(s ^ static_cast<std::uint64_t>(
                           std::chrono::steady_clock::now().time_since_epoch().count()));
    s = splitmix64(s ^ reinterpret_cast<std::uintptr_t>(&seed));
    return s;
  }();
  return seed;
}

std::uint64_t next_id() {
  static std::atomic<std::uint64_t> counter{0};
  const std::uint64_t x =
      splitmix64(process_id_seed() + counter.fetch_add(1, std::memory_order_relaxed));
  return x ? x : 1;  // 0 is reserved for "no id"
}

int hex_nibble(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

}  // namespace

TraceId make_trace_id() { return TraceId{next_id(), next_id()}; }

SpanId make_span_id() { return next_id(); }

TraceContext current_trace_context() { return t_trace_ctx; }

TraceContextScope::TraceContextScope(const TraceContext& ctx) : prev_(t_trace_ctx) {
  t_trace_ctx = ctx;
}

TraceContextScope::~TraceContextScope() { t_trace_ctx = prev_; }

std::string span_id_hex(SpanId id) {
  char buf[17];
  for (int i = 15; i >= 0; --i) {
    buf[i] = "0123456789abcdef"[id & 0xf];
    id >>= 4;
  }
  buf[16] = '\0';
  return buf;
}

std::string trace_id_hex(const TraceId& id) {
  return span_id_hex(id.hi) + span_id_hex(id.lo);
}

SpanId span_id_from_hex(std::string_view s) {
  if (s.size() != 16) return 0;
  SpanId id = 0;
  for (char c : s) {
    const int n = hex_nibble(c);
    if (n < 0) return 0;
    id = (id << 4) | static_cast<SpanId>(n);
  }
  return id;
}

TraceId trace_id_from_hex(std::string_view s) {
  if (s.size() != 32) return TraceId{};
  const SpanId hi = span_id_from_hex(s.substr(0, 16));
  const SpanId lo = span_id_from_hex(s.substr(16, 16));
  // A half that parses to 0 from non-zero digits is indistinguishable from a
  // parse failure; all-zero halves are legal only in the invalid id anyway.
  return TraceId{hi, lo};
}

void TraceRecorder::record(TraceEvent event) {
  std::lock_guard lock(mu_);
  events_.push_back(std::move(event));
}

std::vector<TraceEvent> TraceRecorder::events() const {
  std::lock_guard lock(mu_);
  return events_;
}

std::size_t TraceRecorder::event_count() const {
  std::lock_guard lock(mu_);
  return events_.size();
}

void TraceRecorder::clear() {
  std::lock_guard lock(mu_);
  events_.clear();
}

TraceRecorder& TraceRecorder::global() {
  // Leaked on purpose: spans may close during static destruction, and the
  // atexit flush below reads the recorder after main() returns.
  static TraceRecorder* recorder = [] {
    auto* r = new TraceRecorder();
    if (std::getenv("LORE_TRACE") != nullptr) {
      r->set_enabled(true);
      std::atexit([] { flush_trace_if_requested(); });
    }
    return r;
  }();
  return *recorder;
}

double TraceRecorder::now_us() {
  return std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() -
                                                   process_start())
      .count();
}

std::uint32_t TraceRecorder::thread_id() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t id = next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

Span::Span(std::string name, std::string category)
    : name_(std::move(name)),
      category_(std::move(category)),
      start_us_(TraceRecorder::now_us()),
      depth_(t_span_depth),
      active_(TraceRecorder::global().recording()) {
  ++t_span_depth;
  const bool stream = event_stream_enabled();
  if (active_ || stream) {
    // Generate an identity and become the ambient parent for nested spans
    // (and for events emitted while this span is open).
    id_ = make_span_id();
    prev_ctx_ = t_trace_ctx;
    parent_ = prev_ctx_.span;
    trace_ = prev_ctx_.trace;
    t_trace_ctx = TraceContext{trace_, id_};
    ctx_pushed_ = true;
  }
#ifndef LORE_OBS_DISABLED
  // Mirror span boundaries onto the live event sinks (counts + flight
  // recorder); the Chrome-trace recorder above stays the durable sink.
  // `a` carries the parent id, the record's own span field carries id_.
  if (stream) emit_event(EventKind::kSpanBegin, parent_, 0.0, name_);
#endif
}

Span::~Span() {
  --t_span_depth;
#ifndef LORE_OBS_DISABLED
  if (event_stream_enabled())
    emit_event(EventKind::kSpanEnd, parent_, TraceRecorder::now_us() - start_us_, name_);
#endif
  if (ctx_pushed_) t_trace_ctx = prev_ctx_;
  if (!active_) return;
  TraceEvent event;
  event.name = std::move(name_);
  event.category = std::move(category_);
  event.start_us = start_us_;
  event.dur_us = TraceRecorder::now_us() - start_us_;
  event.tid = TraceRecorder::thread_id();
  event.depth = depth_;
  event.trace = trace_;
  event.span = id_;
  event.parent = parent_;
  TraceRecorder::global().record(std::move(event));
}

std::uint32_t Span::current_depth() { return t_span_depth; }

ScopedTimer::ScopedTimer(Histogram& hist)
    : hist_(enabled() ? &hist : nullptr) {
  if (hist_) start_us_ = TraceRecorder::now_us();
}

ScopedTimer::ScopedTimer(MetricsRegistry& registry, const std::string& name)
    : hist_(enabled() ? &registry.histogram(name) : nullptr) {
  if (hist_) start_us_ = TraceRecorder::now_us();
}

ScopedTimer::~ScopedTimer() {
  if (hist_) hist_->observe(TraceRecorder::now_us() - start_us_);
}

}  // namespace lore::obs
