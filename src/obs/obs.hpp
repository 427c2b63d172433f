// Umbrella header + instrumentation macros for the observability subsystem.
//
// Instrument hot paths with the LORE_OBS_* macros rather than direct registry
// calls: when the library is configured with -DLORE_OBS=OFF (which defines
// LORE_OBS_DISABLED), every macro compiles to nothing, making the
// instrumentation zero-cost by construction. With the default build the
// macros still honour the runtime switch (`LORE_OBS=0` env or
// obs::set_enabled(false)), which reduces them to one predictable branch.
//
// The live half of the subsystem (DESIGN.md §10) — the per-kind event
// counts, the Aggregator, the health loop, and the /metrics exposition
// server — follows the same rule: LORE_OBS_EVENT costs one branch while no
// Aggregator runs and no flight ring is open, and -DLORE_OBS=OFF compiles
// the pipeline down to inert stubs.
#pragma once

#include "src/obs/aggregate.hpp"
#include "src/obs/event.hpp"
#include "src/obs/export.hpp"
#include "src/obs/flight.hpp"
#include "src/obs/health.hpp"
#include "src/obs/json.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/serve.hpp"
#include "src/obs/span.hpp"

namespace lore::obs {

/// True when the instrumentation macros are compiled in (build-time switch).
#ifdef LORE_OBS_DISABLED
inline constexpr bool kCompiledIn = false;
#else
inline constexpr bool kCompiledIn = true;
#endif

}  // namespace lore::obs

#ifdef LORE_OBS_DISABLED

// sizeof keeps the argument unevaluated (truly zero-cost) while still
// "using" locals that exist only to feed the instrumentation.
#define LORE_OBS_COUNT(name, n) ((void)sizeof(n))
#define LORE_OBS_GAUGE(name, v) ((void)sizeof(v))
#define LORE_OBS_OBSERVE(name, v) ((void)sizeof(v))
#define LORE_OBS_TIMER(var, name) ((void)0)
#define LORE_OBS_SPAN(var, name) ((void)0)
#define LORE_OBS_EVENT(kind, a, value) ((void)sizeof(a), (void)sizeof(value))

#else

/// Bump counter `name` by `n` on the global registry.
#define LORE_OBS_COUNT(name, n)                                         \
  do {                                                                  \
    if (::lore::obs::enabled())                                         \
      ::lore::obs::MetricsRegistry::global().counter(name).add(         \
          static_cast<std::uint64_t>(n));                               \
  } while (0)

/// Set gauge `name` to `v`. Call only from deterministic (serial) sites.
#define LORE_OBS_GAUGE(name, v)                                         \
  do {                                                                  \
    if (::lore::obs::enabled())                                         \
      ::lore::obs::MetricsRegistry::global().gauge(name).set(           \
          static_cast<double>(v));                                      \
  } while (0)

/// Observe value `v` into histogram `name` (default time buckets).
#define LORE_OBS_OBSERVE(name, v)                                       \
  do {                                                                  \
    if (::lore::obs::enabled())                                         \
      ::lore::obs::MetricsRegistry::global().histogram(name).observe(   \
          static_cast<double>(v));                                      \
  } while (0)

/// Declare a scoped timer `var` feeding histogram `name` (µs).
#define LORE_OBS_TIMER(var, name) \
  ::lore::obs::ScopedTimer var(::lore::obs::MetricsRegistry::global(), name)

/// Declare a trace span `var` named `name` on the global recorder.
#define LORE_OBS_SPAN(var, name) ::lore::obs::Span var(name)

/// Route one structured event through emit_event — one branch while no sink
/// is open; one relaxed count bump while an Aggregator runs, plus one 64-byte
/// flight record while a flight ring is open.
#define LORE_OBS_EVENT(kind, a, value)                                  \
  do {                                                                  \
    if (::lore::obs::event_stream_enabled())                            \
      ::lore::obs::emit_event((kind), (a), (value));                    \
  } while (0)

#endif  // LORE_OBS_DISABLED
