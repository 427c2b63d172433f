// The one event record and its one emit path (DESIGN.md §10). An event is a
// kind from the `lore.events.v1` vocabulary plus a kind-specific integer `a`,
// a double `value`, and a short label; `emit_event` is the only code that
// builds one, and it routes it to whichever sink is open:
//
//   - the live per-kind counts, while an Aggregator runs: one relaxed
//     fetch_add on `counts[kind]`. The Aggregator turns count deltas into
//     the `per_kind` tallies of `lore.intervals.v1`, the same way it turns
//     registry counters into rates. Counts cannot drop, so the intervals'
//     `events_dropped` field always reads 0.
//   - the crash-safe flight recorder (flight.hpp), while a ring is open: one
//     64-byte `lore.flight.v1` record carrying timestamp, thread, and the
//     ambient span id — the only place a full event record is kept.
//
// Determinism contract: events are advisory telemetry. Nothing in either
// sink feeds back into trial execution, so campaign results and campaign
// counters are bit-identical whether events are counted, recorded, or
// compiled out.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>

namespace lore::obs {

/// Structured event kinds of the `lore.events.v1` schema. The index is the
/// wire value of a flight record's `kind` byte.
enum class EventKind : std::uint8_t {
  kTrialCompleted = 0,  // a = trial index, value = attempt wall time (us)
  kTrialTimeout,        // a = trial index (one timed-out attempt)
  kTrialRetry,          // a = trial index, value = attempt number
  kTrialFailed,         // a = trial index (one attempt threw)
  kCheckpointWritten,   // a = entries in the snapshot, value = write time (us)
  kSpanBegin,           // label = span name, a = parent span id
  kSpanEnd,             // label = span name, a = parent span id, value = duration (us)
  kAlert,               // label = signal name, value = offending value
  kTrialsPruned,        // a = trials pruned in a chunk, value = chunk's first trial
  kShardBegin,          // a = fabric shard id
  kShardEnd,            // a = fabric shard id, value = shard wall time (us)
};

inline constexpr std::size_t kEventKindCount = 11;
static_assert(static_cast<std::size_t>(EventKind::kShardEnd) + 1 == kEventKindCount);

/// Schema name of a kind: the `per_kind` key of `lore.intervals.v1`.
inline const char* event_kind_name(EventKind k) {
  switch (k) {
    case EventKind::kTrialCompleted: return "trial_completed";
    case EventKind::kTrialTimeout: return "trial_timeout";
    case EventKind::kTrialRetry: return "trial_retry";
    case EventKind::kTrialFailed: return "trial_failed";
    case EventKind::kCheckpointWritten: return "checkpoint_written";
    case EventKind::kSpanBegin: return "span_begin";
    case EventKind::kSpanEnd: return "span_end";
    case EventKind::kAlert: return "alert";
    case EventKind::kTrialsPruned: return "trials_pruned";
    case EventKind::kShardBegin: return "shard_begin";
    case EventKind::kShardEnd: return "shard_end";
  }
  return "?";
}

/// True while any sink wants events: counting is live or a flight recorder
/// is open. The one-branch producer gate of LORE_OBS_EVENT and Span's event
/// mirror — two atomic loads while nothing listens.
bool event_stream_enabled();

/// Route one event to every open sink: bump its kind's count while counting
/// is live, append a flight record (timestamp, thread, ambient span id filled
/// in) while a flight ring is open. Hot call sites use the LORE_OBS_EVENT
/// macro (obs.hpp), which short-circuits on `event_stream_enabled()` and
/// compiles out under -DLORE_OBS=OFF.
void emit_event(EventKind kind, std::uint64_t a = 0, double value = 0.0,
                std::string_view label = {});

/// Live per-kind counting, owned by the Aggregator: `start()` turns it on,
/// `stop()` off. Totals are monotonic over the process lifetime; only events
/// emitted while counting is on are counted.
void set_event_counting(bool on);
std::array<std::uint64_t, kEventKindCount> event_counts();

}  // namespace lore::obs
