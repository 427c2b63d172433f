#include "src/obs/event.hpp"

#include <atomic>

#include "src/obs/flight.hpp"
#include "src/obs/span.hpp"

namespace lore::obs {
namespace {

std::atomic<bool> g_counting{false};
std::array<std::atomic<std::uint64_t>, kEventKindCount> g_counts{};

}  // namespace

bool event_stream_enabled() {
  return g_counting.load(std::memory_order_relaxed) || FlightRecorder::global().active();
}

void emit_event(EventKind kind, std::uint64_t a, double value,
                std::string_view label) {
  const auto k = static_cast<std::size_t>(kind);
  if (g_counting.load(std::memory_order_relaxed) && k < kEventKindCount)
    g_counts[k].fetch_add(1, std::memory_order_relaxed);
  FlightRecorder& flight = FlightRecorder::global();
  if (flight.active()) flight.record(kind, a, value, current_trace_context().span, label);
}

void set_event_counting(bool on) { g_counting.store(on, std::memory_order_relaxed); }

std::array<std::uint64_t, kEventKindCount> event_counts() {
  std::array<std::uint64_t, kEventKindCount> out{};
  for (std::size_t k = 0; k < kEventKindCount; ++k)
    out[k] = g_counts[k].load(std::memory_order_relaxed);
  return out;
}

}  // namespace lore::obs
