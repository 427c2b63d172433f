// Crash-safe flight recorder (`lore.flight.v1`, DESIGN.md §15): mmap ring
// round trips, wraparound windowing, CRC-based torn-slot recovery, and the
// two death modes the format exists for — a fatal signal sealing the header
// from the handler, and SIGKILL leaving a torn-but-decodable ring behind —
// and emit_event's routing: every event reaches an open ring, whether or not
// an Aggregator is counting.
// Child processes do the dying; the parent decodes what they left on disk.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "src/common/campaign.hpp"
#include "src/obs/obs.hpp"

namespace {

using namespace lore::obs;

std::string temp_ring_path(const char* tag) {
  return testing::TempDir() + "lore_flight_" + tag + "_" +
         std::to_string(::getpid()) + ".ring";
}

TEST(FlightRecorder, RoundTripsRecordsThroughCleanClose) {
  const std::string path = temp_ring_path("roundtrip");
  FlightRecorder rec;
  ASSERT_TRUE(rec.open(path, 256));
  EXPECT_TRUE(rec.active());
  EXPECT_EQ(rec.capacity(), 256u);
  for (int i = 0; i < 10; ++i)
    rec.record(EventKind::kTrialCompleted, static_cast<std::uint64_t>(i),
               i * 1.5, 0xabcd, "trial");
  rec.record(EventKind::kShardBegin, 7, 0.0, 0, "arch.fault");
  rec.close();
  EXPECT_FALSE(rec.active());

  std::string err;
  const auto dump = decode_flight_file(path, &err);
  ASSERT_TRUE(dump.has_value()) << err;
  EXPECT_EQ(dump->version, 1u);
  EXPECT_EQ(dump->pid, static_cast<std::uint32_t>(::getpid()));
  EXPECT_EQ(dump->sealed, kFlightSealedClean);
  EXPECT_EQ(dump->capacity, 256u);
  EXPECT_EQ(dump->cursor, 11u);
  EXPECT_EQ(dump->torn_records, 0u);
  ASSERT_EQ(dump->records.size(), 11u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(dump->records[i].seq, static_cast<std::uint64_t>(i));
    EXPECT_EQ(dump->records[i].kind, EventKind::kTrialCompleted);
    EXPECT_EQ(dump->records[i].a, static_cast<std::uint64_t>(i));
    EXPECT_DOUBLE_EQ(dump->records[i].value, i * 1.5);
    EXPECT_EQ(dump->records[i].span, 0xabcdu);
    EXPECT_EQ(dump->records[i].label, "trial");
  }
  EXPECT_EQ(dump->records.back().kind, EventKind::kShardBegin);
  EXPECT_EQ(dump->records.back().a, 7u);
  std::remove(path.c_str());
}

TEST(FlightRecorder, WrapAroundKeepsTheNewestCapacityRecords) {
  const std::string path = temp_ring_path("wrap");
  FlightRecorder rec;
  ASSERT_TRUE(rec.open(path, 64));
  for (std::uint64_t i = 0; i < 200; ++i)
    rec.record(EventKind::kTrialCompleted, i, 0.0, 0, {});
  rec.close();

  const auto dump = decode_flight_file(path);
  ASSERT_TRUE(dump.has_value());
  EXPECT_EQ(dump->cursor, 200u);
  ASSERT_EQ(dump->records.size(), 64u);
  // Oldest surviving record is seq 136 (= 200 - 64), newest is 199.
  EXPECT_EQ(dump->records.front().seq, 136u);
  EXPECT_EQ(dump->records.back().seq, 199u);
  EXPECT_EQ(dump->records.back().a, 199u);
  std::remove(path.c_str());
}

TEST(FlightRecorder, CapacityRoundsUpToAPowerOfTwo) {
  const std::string path = temp_ring_path("pow2");
  FlightRecorder rec;
  ASSERT_TRUE(rec.open(path, 100));
  EXPECT_EQ(rec.capacity(), 128u);
  rec.close();
  std::remove(path.c_str());
}

TEST(FlightRecorder, DecodeSkipsCorruptedSlotsAsTorn) {
  const std::string path = temp_ring_path("torn");
  FlightRecorder rec;
  ASSERT_TRUE(rec.open(path, 64));
  for (std::uint64_t i = 0; i < 8; ++i)
    rec.record(EventKind::kTrialCompleted, i, 0.0, 0, {});
  rec.close();

  // Flip a byte inside record 3's payload: its CRC no longer matches, so the
  // decoder must drop exactly that slot and keep the other seven.
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.is_open());
    f.seekp(4096 + 3 * 64 + 16);  // record 3, `a` field
    const char x = 0x5a;
    f.write(&x, 1);
  }
  const auto dump = decode_flight_file(path);
  ASSERT_TRUE(dump.has_value());
  EXPECT_EQ(dump->torn_records, 1u);
  ASSERT_EQ(dump->records.size(), 7u);
  for (const auto& r : dump->records) EXPECT_NE(r.seq, 3u);
  std::remove(path.c_str());
}

TEST(FlightRecorder, RejectsForeignAndTruncatedFiles) {
  const std::string path = temp_ring_path("foreign");
  {
    std::ofstream f(path, std::ios::binary);
    f << "this is not a flight ring";
  }
  std::string err;
  EXPECT_FALSE(decode_flight_file(path, &err).has_value());
  EXPECT_FALSE(err.empty());
  EXPECT_FALSE(decode_flight_file("/nonexistent/nowhere.ring", &err).has_value());
  std::remove(path.c_str());
}

TEST(FlightRecorder, FatalSignalSealsTheHeaderFromTheHandler) {
  const std::string path = temp_ring_path("sigabrt");
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    // Child: open a ring, install the handlers, write context, then die the
    // catchable way. The handler must seal (signal + timestamp) and re-raise.
    FlightRecorder& rec = FlightRecorder::global();
    if (!rec.open(path, 128)) _exit(3);
    if (!FlightRecorder::install_signal_handlers()) _exit(4);
    rec.record(EventKind::kShardBegin, 42, 0.0, 0, "doomed");
    for (std::uint64_t i = 0; i < 100; ++i)
      rec.record(EventKind::kTrialCompleted, i, 0.0, 0, {});
    std::abort();
  }
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFSIGNALED(status));
  EXPECT_EQ(WTERMSIG(status), SIGABRT);

  const auto dump = decode_flight_file(path);
  ASSERT_TRUE(dump.has_value());
  EXPECT_EQ(dump->sealed, kFlightSealedSignal);
  EXPECT_EQ(dump->seal_signal, SIGABRT);
  EXPECT_GT(dump->seal_t_us, 0.0);
  EXPECT_EQ(dump->pid, static_cast<std::uint32_t>(child));
  EXPECT_EQ(dump->records.size(), 101u);
  EXPECT_EQ(dump->records.front().kind, EventKind::kShardBegin);
  EXPECT_EQ(dump->records.front().a, 42u);
  std::remove(path.c_str());
}

TEST(FlightRecorder, SigkillLeavesATornButDecodableRing) {
  const std::string path = temp_ring_path("sigkill");
  int ready[2];
  ASSERT_EQ(::pipe(ready), 0);
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    // Child: fill the ring past the post-mortem contract's 64-event floor,
    // signal readiness, then spin until SIGKILLed — no chance to seal.
    ::close(ready[0]);
    FlightRecorder& rec = FlightRecorder::global();
    if (!rec.open(path, 256)) _exit(3);
    rec.record(EventKind::kShardBegin, 9, 0.0, 0, "arch.fault");
    for (std::uint64_t i = 0; i < 128; ++i)
      rec.record(EventKind::kTrialCompleted, i, 1.0, 0, {});
    const char ok = 1;
    (void)!::write(ready[1], &ok, 1);
    for (;;) ::pause();
  }
  ::close(ready[1]);
  char ok = 0;
  ASSERT_EQ(::read(ready[0], &ok, 1), 1);
  ::close(ready[0]);
  ASSERT_EQ(::kill(child, SIGKILL), 0);
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFSIGNALED(status));
  ASSERT_EQ(WTERMSIG(status), SIGKILL);

  // Nothing sealed the header — but every completed record survives in the
  // page cache, and the decoder recovers all of them.
  const auto dump = decode_flight_file(path);
  ASSERT_TRUE(dump.has_value());
  EXPECT_EQ(dump->sealed, kFlightTorn);
  EXPECT_GE(dump->records.size(), 64u);
  EXPECT_EQ(dump->records.size(), 129u);
  EXPECT_EQ(dump->records.front().kind, EventKind::kShardBegin);
  EXPECT_EQ(dump->records.front().a, 9u);
  std::remove(path.c_str());
}

TEST(FlightRecorder, EmitEventDualRoutesIntoTheRing) {
  const std::string path = temp_ring_path("dualroute");
  FlightRecorder& rec = FlightRecorder::global();
  ASSERT_TRUE(rec.open(path, 128));
  EXPECT_TRUE(event_stream_enabled());  // flight alone keeps the stream on
  emit_event(EventKind::kTrialsPruned, 17, 512.0, "chunk");
  rec.close();
  EXPECT_FALSE(event_stream_enabled());

  const auto dump = decode_flight_file(path);
  ASSERT_TRUE(dump.has_value());
  ASSERT_EQ(dump->records.size(), 1u);
  EXPECT_EQ(dump->records[0].kind, EventKind::kTrialsPruned);
  EXPECT_EQ(dump->records[0].a, 17u);
  EXPECT_DOUBLE_EQ(dump->records[0].value, 512.0);
  EXPECT_EQ(dump->records[0].label, "chunk");
  std::remove(path.c_str());
}

TEST(FlightRecorder, EmitEventFillsTimestampAndLabel) {
  const std::string path = temp_ring_path("emitfill");
  FlightRecorder& rec = FlightRecorder::global();
  ASSERT_TRUE(rec.open(path, 64));
  emit_event(EventKind::kSpanEnd, 3, 42.0, "roi");
  rec.close();

  const auto dump = decode_flight_file(path);
  ASSERT_TRUE(dump.has_value());
  ASSERT_EQ(dump->records.size(), 1u);
  const FlightRecord& r = dump->records[0];
  EXPECT_EQ(r.kind, EventKind::kSpanEnd);
  EXPECT_EQ(r.a, 3u);
  EXPECT_DOUBLE_EQ(r.value, 42.0);
  EXPECT_EQ(r.label, "roi");
  EXPECT_GT(r.t_us, 0.0);
  EXPECT_EQ(r.tid, static_cast<std::uint16_t>(TraceRecorder::thread_id()));
  std::remove(path.c_str());
}

// A record's label field is 16 bytes: labels keep their first 15 bytes and
// stay NUL-terminated.
TEST(FlightRecorder, LabelsAreCutToFifteenBytes) {
  const std::string path = temp_ring_path("label");
  FlightRecorder& rec = FlightRecorder::global();
  ASSERT_TRUE(rec.open(path, 64));
  emit_event(EventKind::kSpanBegin, 0, 0.0, "scenario.stage/rollback");
  rec.close();

  const auto dump = decode_flight_file(path);
  ASSERT_TRUE(dump.has_value());
  ASSERT_EQ(dump->records.size(), 1u);
  EXPECT_EQ(dump->records[0].label, "scenario.stage/");
  std::remove(path.c_str());
}

// A prune-controller trip reaches an open flight ring even when no
// Aggregator is counting events.
TEST(FlightRecorder, PruneTripIsRecordedWithoutAnAggregator) {
  if (!kCompiledIn) GTEST_SKIP() << "instrumentation compiled out (-DLORE_OBS=OFF)";
  const bool was = enabled();
  set_enabled(true);
  const std::string path = temp_ring_path("prune");
  FlightRecorder& rec = FlightRecorder::global();
  ASSERT_TRUE(rec.open(path, 64));
  lore::PruneController controller({.false_benign_alert = 0.2, .min_audits = 4});
  for (int i = 0; i < 8; ++i) controller.record_audit(/*was_benign=*/false);
  ASSERT_TRUE(controller.tripped());
  rec.close();
  set_enabled(was);

  const auto dump = decode_flight_file(path);
  ASSERT_TRUE(dump.has_value());
  ASSERT_EQ(dump->records.size(), 1u);  // tripped once, recorded once
  EXPECT_EQ(dump->records[0].kind, EventKind::kAlert);
  EXPECT_EQ(dump->records[0].a, 4u);  // audits at the trip
  EXPECT_DOUBLE_EQ(dump->records[0].value, 1.0);
  EXPECT_EQ(dump->records[0].label, "campaign.prune.");
  std::remove(path.c_str());
}

// A health alert raised by Aggregator::tick goes through emit_event too: the
// next interval counts it, and an open flight ring records it.
TEST(FlightRecorder, HealthAlertIsCountedAndRecorded) {
  if (!kCompiledIn) GTEST_SKIP() << "live pipeline compiled out (-DLORE_OBS=OFF)";
  const std::string path = temp_ring_path("alert");
  FlightRecorder& rec = FlightRecorder::global();
  ASSERT_TRUE(rec.open(path, 64));
  MetricsRegistry registry;
  AggregatorConfig cfg;
  cfg.interval = std::chrono::milliseconds(0);
  Aggregator agg(cfg, registry);
  agg.start();
  registry.counter("campaign.timeouts").add(5);  // every attempt timed out
  const IntervalStats raised = agg.tick();
  const IntervalStats next = agg.tick();
  agg.stop();
  rec.close();

  constexpr auto kAlert = static_cast<std::size_t>(EventKind::kAlert);
  EXPECT_EQ(raised.alerts, 1u);
  EXPECT_EQ(raised.per_kind[kAlert], 0u);
  EXPECT_EQ(next.per_kind[kAlert], 1u);

  const auto dump = decode_flight_file(path);
  ASSERT_TRUE(dump.has_value());
  ASSERT_EQ(dump->records.size(), 1u);
  EXPECT_EQ(dump->records[0].kind, EventKind::kAlert);
  EXPECT_EQ(dump->records[0].a, raised.seq);
  EXPECT_DOUBLE_EQ(dump->records[0].value, 1.0);
  EXPECT_EQ(dump->records[0].label, "health.timeout_");
  std::remove(path.c_str());
}

}  // namespace
