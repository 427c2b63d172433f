// Crash-safe flight recorder — `lore.flight.v1` (DESIGN.md §15). An
// mmap-backed on-disk ring of fixed-width 64-byte records mirroring the
// `lore.events.v1` vocabulary (plus span begin/end), written by an
// async-signal-safe producer so the last moments of a dying process survive
// it:
//
//   - SIGKILL / power loss: the mapping lives in the page cache, so every
//     completed record persists; the header stays "torn" (sealed = 0) and the
//     decoder recovers records by per-record CRC.
//   - SIGSEGV/SIGABRT/SIGBUS/SIGILL/SIGFPE: the installed handler seals the
//     header (signal number + timestamp) and re-raises, so the decoder can
//     say *what* killed the process and *when* on its own timeline.
//   - Clean exit: close() seals the header as clean.
//
// Layout: one 4 KiB header page followed by `capacity` 64-byte records. The
// writer claims a slot with one atomic fetch_add on the header's cursor,
// fills the record, and writes its CRC last — a record is valid iff its CRC
// matches, so a write interrupted by death is detectably torn, never
// silently wrong. `scripts/lore_postmortem.py` and `decode_flight_file`
// both decode any ring, sealed or torn.
//
// It is the one sink that keeps whole event records: emit_event (event.hpp)
// writes here while a ring is open, whether or not an Aggregator is counting.
// The recorder is inert (one relaxed load per emit site) until open() — the
// fabric worker opens one per process under `LORE_FLIGHT_DIR`, benches and
// tests may point `LORE_FLIGHT` at a file directly.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/obs/event.hpp"

namespace lore::obs {

inline constexpr char kFlightMagic[8] = {'L', 'O', 'R', 'E', 'F', 'L', 'T', '1'};
inline constexpr std::uint32_t kFlightVersion = 1;
inline constexpr std::size_t kFlightHeaderBytes = 4096;
inline constexpr std::size_t kFlightRecordBytes = 64;
inline constexpr std::size_t kFlightDefaultCapacity = 4096;

/// Header seal states.
enum : std::uint32_t {
  kFlightTorn = 0,          // process died uncatchably (SIGKILL) or is live
  kFlightSealedClean = 1,   // close() ran
  kFlightSealedSignal = 2,  // a fatal-signal handler sealed it
};

class FlightRecorder {
 public:
  FlightRecorder() = default;
  ~FlightRecorder() { close(); }
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Create/truncate `path` and map it. `capacity` is rounded up to a power
  /// of two records. False on any filesystem failure (recorder stays inert).
  bool open(const std::string& path, std::size_t capacity = kFlightDefaultCapacity);
  /// Seal clean + unmap. Safe to call twice.
  void close();

  bool active() const { return active_.load(std::memory_order_acquire); }
  const std::string& path() const { return path_; }
  /// Total records ever written (monotonic; wraps the ring at capacity).
  std::uint64_t cursor() const;
  std::size_t capacity() const { return capacity_; }

  /// Append one record. Async-signal-safe after open(): one atomic
  /// fetch_add, a bounded memcpy into the mapping, a table-driven CRC.
  void record(EventKind kind, std::uint64_t a, double value, std::uint64_t span,
              std::string_view label);

  /// Seal the header with a signal number (async-signal-safe). Used by the
  /// installed fatal-signal handlers; idempotent.
  void seal(int sig);

  /// Install SIGSEGV/SIGABRT/SIGBUS/SIGILL/SIGFPE handlers that seal the
  /// global recorder and re-raise with the default action. Returns false if
  /// sigaction fails. Installing twice is harmless.
  static bool install_signal_handlers();

  /// Open the global recorder from the environment: `LORE_FLIGHT` names the
  /// ring file, else `LORE_FLIGHT_DIR` names a directory (ring becomes
  /// `<dir>/flight-<pid>.ring`); `LORE_FLIGHT_EVENTS` overrides capacity.
  /// Also installs the signal handlers. Returns the opened path, or nullopt
  /// when the environment asks for nothing (or open fails).
  static std::optional<std::string> init_from_env();

  /// The process-wide recorder emit_event writes to.
  static FlightRecorder& global();

 private:
  std::atomic<bool> active_{false};
  std::string path_;
  void* map_ = nullptr;
  std::size_t map_bytes_ = 0;
  std::size_t capacity_ = 0;
};

/// One decoded record (valid CRC only).
struct FlightRecord {
  std::uint64_t seq = 0;
  double t_us = 0.0;
  std::uint64_t a = 0;
  double value = 0.0;
  std::uint64_t span = 0;
  EventKind kind = EventKind::kTrialCompleted;
  std::uint16_t tid = 0;
  std::string label;
};

/// A decoded `lore.flight.v1` ring.
struct FlightRingDump {
  std::uint32_t version = 0;
  std::uint32_t pid = 0;
  std::uint32_t sealed = kFlightTorn;
  int seal_signal = 0;
  double seal_t_us = 0.0;
  std::uint64_t capacity = 0;
  std::uint64_t cursor = 0;
  std::size_t torn_records = 0;          // CRC-invalid slots skipped
  std::vector<FlightRecord> records;     // oldest -> newest
};

/// Decode a ring file — sealed or torn. nullopt (with `err` filled when
/// non-null) on an unreadable file or a foreign/corrupt header.
std::optional<FlightRingDump> decode_flight_file(const std::string& path,
                                                 std::string* err = nullptr);

}  // namespace lore::obs
