#include "src/obs/flight.hpp"

#include <fcntl.h>
#include <signal.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>

#include "src/obs/crc32.hpp"
#include "src/obs/span.hpp"

namespace lore::obs {
namespace {

// On-disk header, one page. Fields past `reserved` are sealing metadata
// written at most once. The cursor is the only concurrently-mutated word;
// std::atomic<u64> is layout-compatible with the raw u64 a decoder reads.
struct FlightHeader {
  char magic[8];
  std::uint32_t version;
  std::uint32_t record_size;
  std::uint64_t capacity;
  std::atomic<std::uint64_t> cursor;
  std::uint32_t pid;
  std::int32_t seal_signal;
  std::uint32_t sealed;
  std::uint32_t reserved;
  double seal_t_us;
};
static_assert(sizeof(FlightHeader) <= kFlightHeaderBytes);
static_assert(sizeof(std::atomic<std::uint64_t>) == sizeof(std::uint64_t));

/// Trivially-copyable mirror of FlightHeader for decoding a file image.
struct FlightHeaderRaw {
  char magic[8];
  std::uint32_t version;
  std::uint32_t record_size;
  std::uint64_t capacity;
  std::uint64_t cursor;
  std::uint32_t pid;
  std::int32_t seal_signal;
  std::uint32_t sealed;
  std::uint32_t reserved;
  double seal_t_us;
};
static_assert(sizeof(FlightHeaderRaw) == sizeof(FlightHeader));

// Raw record layout; crc covers bytes [0, 60).
struct FlightSlot {
  std::uint64_t seq;
  double t_us;
  std::uint64_t a;
  double value;
  std::uint64_t span;
  std::uint8_t kind;
  std::uint8_t pad;
  std::uint16_t tid;
  char label[16];
  std::uint32_t crc;
};
static_assert(sizeof(FlightSlot) == kFlightRecordBytes);

std::size_t round_up_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

constexpr int kFatalSignals[] = {SIGSEGV, SIGABRT, SIGBUS, SIGILL, SIGFPE};

extern "C" void flight_fatal_handler(int sig) {
  FlightRecorder::global().seal(sig);
  // Restore the default action and re-raise so the process still dies with
  // the right wait status (and a core, where enabled).
  ::signal(sig, SIG_DFL);
  ::raise(sig);
}

}  // namespace

bool FlightRecorder::open(const std::string& path, std::size_t capacity) {
  close();
  const std::size_t cap = round_up_pow2(capacity < 64 ? 64 : capacity);
  const std::size_t bytes = kFlightHeaderBytes + cap * kFlightRecordBytes;
  const int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return false;
  if (::ftruncate(fd, static_cast<off_t>(bytes)) != 0) {
    ::close(fd);
    return false;
  }
  void* map = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
  ::close(fd);  // the mapping keeps the file alive
  if (map == MAP_FAILED) return false;

  std::memset(map, 0, kFlightHeaderBytes);
  auto* h = new (map) FlightHeader{};
  std::memcpy(h->magic, kFlightMagic, sizeof h->magic);
  h->version = kFlightVersion;
  h->record_size = kFlightRecordBytes;
  h->capacity = cap;
  h->cursor.store(0, std::memory_order_relaxed);
  h->pid = static_cast<std::uint32_t>(::getpid());
  h->sealed = kFlightTorn;

  map_ = map;
  map_bytes_ = bytes;
  capacity_ = cap;
  path_ = path;
  active_.store(true, std::memory_order_release);
  return true;
}

void FlightRecorder::close() {
  if (!map_) return;
  active_.store(false, std::memory_order_release);
  auto* h = static_cast<FlightHeader*>(map_);
  if (h->sealed == kFlightTorn) {
    h->seal_t_us = TraceRecorder::now_us();
    h->sealed = kFlightSealedClean;
  }
  ::munmap(map_, map_bytes_);
  map_ = nullptr;
  map_bytes_ = 0;
  capacity_ = 0;
}

std::uint64_t FlightRecorder::cursor() const {
  if (!map_) return 0;
  return static_cast<const FlightHeader*>(map_)->cursor.load(std::memory_order_acquire);
}

void FlightRecorder::record(EventKind kind, std::uint64_t a, double value,
                            std::uint64_t span, std::string_view label) {
  if (!active_.load(std::memory_order_acquire)) return;
  auto* h = static_cast<FlightHeader*>(map_);
  const std::uint64_t seq = h->cursor.fetch_add(1, std::memory_order_relaxed);
  auto* slots = reinterpret_cast<FlightSlot*>(static_cast<char*>(map_) + kFlightHeaderBytes);
  FlightSlot& s = slots[seq & (capacity_ - 1)];
  s.crc = 0;  // invalidate first so a death mid-fill reads as torn, not stale
  s.seq = seq;
  s.t_us = TraceRecorder::now_us();
  s.a = a;
  s.value = value;
  s.span = span;
  s.kind = static_cast<std::uint8_t>(kind);
  s.pad = 0;
  s.tid = static_cast<std::uint16_t>(TraceRecorder::thread_id());
  const std::size_t n = label.size() < sizeof(s.label) - 1 ? label.size() : sizeof(s.label) - 1;
  std::memcpy(s.label, label.data(), n);
  std::memset(s.label + n, 0, sizeof(s.label) - n);
  s.crc = crc32(&s, offsetof(FlightSlot, crc));
}

void FlightRecorder::seal(int sig) {
  if (!map_) return;
  auto* h = static_cast<FlightHeader*>(map_);
  if (h->sealed != kFlightTorn) return;
  h->seal_signal = sig;
  h->seal_t_us = TraceRecorder::now_us();
  h->sealed = kFlightSealedSignal;
}

bool FlightRecorder::install_signal_handlers() {
  struct sigaction sa{};
  sa.sa_handler = flight_fatal_handler;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;
  bool ok = true;
  for (int sig : kFatalSignals) ok = ::sigaction(sig, &sa, nullptr) == 0 && ok;
  return ok;
}

std::optional<std::string> FlightRecorder::init_from_env() {
  std::string path;
  if (const char* p = std::getenv("LORE_FLIGHT"); p && *p) {
    path = p;
  } else if (const char* d = std::getenv("LORE_FLIGHT_DIR"); d && *d) {
    path = std::string(d) + "/flight-" + std::to_string(::getpid()) + ".ring";
  } else {
    return std::nullopt;
  }
  std::size_t cap = kFlightDefaultCapacity;
  if (const char* c = std::getenv("LORE_FLIGHT_EVENTS"); c && *c) {
    const long v = std::atol(c);
    if (v > 0) cap = static_cast<std::size_t>(v);
  }
  if (!global().open(path, cap)) {
    std::fprintf(stderr, "lore: cannot open flight ring %s\n", path.c_str());
    return std::nullopt;
  }
  install_signal_handlers();
  return path;
}

FlightRecorder& FlightRecorder::global() {
  // Leaked: the signal handler and atexit-ordered emit sites may touch it
  // during shutdown.
  static FlightRecorder* recorder = new FlightRecorder();
  return *recorder;
}

std::optional<FlightRingDump> decode_flight_file(const std::string& path,
                                                 std::string* err) {
  const auto fail = [&](const std::string& why) -> std::optional<FlightRingDump> {
    if (err) *err = why;
    return std::nullopt;
  };
  std::ifstream in(path, std::ios::binary);
  if (!in) return fail("cannot open " + path);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  if (bytes.size() < kFlightHeaderBytes) return fail("short header");
  FlightHeaderRaw h;
  std::memcpy(&h, bytes.data(), sizeof h);
  if (std::memcmp(h.magic, kFlightMagic, sizeof h.magic) != 0)
    return fail("bad magic (not a lore.flight.v1 ring)");
  if (h.version != kFlightVersion) return fail("unsupported version");
  if (h.record_size != kFlightRecordBytes) return fail("unexpected record size");
  const std::uint64_t cap = h.capacity;
  if (cap == 0 || (cap & (cap - 1)) != 0 ||
      bytes.size() < kFlightHeaderBytes + cap * kFlightRecordBytes)
    return fail("truncated ring body");

  FlightRingDump dump;
  dump.version = h.version;
  dump.pid = h.pid;
  dump.sealed = h.sealed;
  dump.seal_signal = h.seal_signal;
  dump.seal_t_us = h.seal_t_us;
  dump.capacity = cap;
  dump.cursor = h.cursor;

  const char* body = bytes.data() + kFlightHeaderBytes;
  const std::uint64_t live = dump.cursor < cap ? dump.cursor : cap;
  const std::uint64_t first_seq = dump.cursor < cap ? 0 : dump.cursor - cap;
  for (std::uint64_t seq = first_seq; seq < first_seq + live; ++seq) {
    FlightSlot s;
    std::memcpy(&s, body + (seq & (cap - 1)) * kFlightRecordBytes, sizeof s);
    if (s.seq != seq || crc32(&s, offsetof(FlightSlot, crc)) != s.crc) {
      // Torn write (death mid-record) or a slot lapped by a newer seq whose
      // own write was itself torn. Either way: skip, count.
      ++dump.torn_records;
      continue;
    }
    FlightRecord r;
    r.seq = s.seq;
    r.t_us = s.t_us;
    r.a = s.a;
    r.value = s.value;
    r.span = s.span;
    r.kind = static_cast<EventKind>(s.kind);
    r.tid = s.tid;
    r.label.assign(s.label, strnlen(s.label, sizeof s.label));
    dump.records.push_back(std::move(r));
  }
  return dump;
}

}  // namespace lore::obs
