#include "src/fabric/worker.hpp"

#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <optional>
#include <thread>
#include <vector>

#include "src/fabric/protocol.hpp"
#include "src/fabric/runners.hpp"
#include "src/obs/event.hpp"
#include "src/obs/flight.hpp"
#include "src/obs/netutil.hpp"
#include "src/obs/serve.hpp"
#include "src/obs/span.hpp"

namespace lore::fabric {

namespace {

int connect_with_retry(const WorkerConfig& cfg) {
  for (unsigned attempt = 0;; ++attempt) {
    const int fd = obs::connect_tcp(cfg.host, cfg.port);
    if (fd >= 0) return fd;
    if (attempt + 1 >= cfg.connect_attempts) return -1;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
}

ShardJob job_from_assign(const obs::Json& head) {
  ShardJob job;
  job.kind = head.at("kind").as_string();
  if (const obs::Json* p = head.find("params")) job.params = *p;
  job.spec = spec_from_json(head.at("spec"));
  job.range.begin = static_cast<std::size_t>(head.at("begin").as_int());
  job.range.end = static_cast<std::size_t>(head.at("end").as_int());
  return job;
}

/// NTP-lite: the coordinator stamps every directive with its own now_us; the
/// worker brackets the round trip (its send -> its receive) and models the
/// coordinator's stamp as taken at the midpoint. offset = coordinator clock
/// minus worker clock, in microseconds; add it to a worker timestamp to land
/// on the coordinator's timeline.
struct ClockOffset {
  double offset_us = 0.0;
  bool valid = false;

  void observe(const obs::Json& head, double t_send_us, double t_recv_us) {
    const obs::Json* now = head.find("now_us");
    if (!now || !now->is_number()) return;
    offset_us = now->as_double() - 0.5 * (t_send_us + t_recv_us);
    valid = true;
  }
};

/// A finishing coordinator sends `shutdown` and closes, so a send can fail
/// with that directive already queued: still a clean exit.
bool shutdown_queued(int fd) {
  const std::optional<Frame> directive = recv_frame(fd);
  return directive && directive->type() == "shutdown";
}

}  // namespace

int run_worker(const WorkerConfig& cfg) {
  // Crash forensics: `LORE_FLIGHT_DIR` (set by the driver before spawning)
  // gives every worker process its own mmap-backed ring that survives
  // SIGKILL; the coordinator collects it when this process dies mid-shard.
  const std::optional<std::string> flight_path = obs::FlightRecorder::init_from_env();

  const int fd = connect_with_retry(cfg);
  if (fd < 0) {
    std::fprintf(stderr, "lore-fabric: worker cannot reach coordinator %s:%u\n",
                 cfg.host.c_str(), static_cast<unsigned>(cfg.port));
    return 1;
  }

  // Worker-local scrape endpoint: the coordinator polls it for
  // campaign.trials_completed to publish fleet throughput.
  obs::MetricsServer metrics;
  int bound_metrics_port = -1;
  if (cfg.metrics_port >= 0) {
    obs::ServeConfig sc;
    sc.port = static_cast<std::uint16_t>(cfg.metrics_port);
    if (metrics.start(sc)) bound_metrics_port = metrics.port();
  }

  Frame hello = make_frame("hello");
  hello.head["schema"] = kSchema;
  hello.head["worker"] =
      cfg.name.empty() ? "w" + std::to_string(getpid()) : cfg.name;
  hello.head["pid"] = static_cast<std::int64_t>(getpid());
  hello.head["metrics_port"] = static_cast<std::int64_t>(bound_metrics_port);
  if (flight_path) hello.head["flight"] = *flight_path;
  double t_send = obs::TraceRecorder::now_us();
  if (!send_frame(fd, hello)) {
    obs::close_fd(fd);
    return 1;
  }

  ClockOffset clock;
  int rc = 0;
  for (;;) {
    std::optional<Frame> directive = recv_frame(fd);
    const double t_recv = obs::TraceRecorder::now_us();
    if (!directive) {
      rc = 1;  // connection lost mid-conversation
      break;
    }
    clock.observe(directive->head, t_send, t_recv);
    const std::string type = directive->type();
    if (type == "shutdown") break;

    if (type == "wait") {
      const obs::Json* ms = directive->head.find("ms");
      const std::int64_t sleep_ms =
          ms && ms->is_number() ? ms->as_int() : 25;
      std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
      t_send = obs::TraceRecorder::now_us();
      if (!send_frame(fd, make_frame("ready"))) {
        rc = shutdown_queued(fd) ? 0 : 1;
        break;
      }
      continue;
    }

    if (type != "assign") {
      std::fprintf(stderr, "lore-fabric: worker got unknown directive \"%s\"\n",
                   type.c_str());
      rc = 1;
      break;
    }

    const std::int64_t shard = directive->head.at("shard").as_int();

    // Adopt the coordinator's trace context, if the assign carries one: the
    // shard span below becomes a child of the coordinator's root span, and
    // every chunk span / ring event inside the runner nests under it.
    obs::TraceId trace;
    obs::SpanId parent_span = 0;
    if (const obs::Json* t = directive->head.find("trace"))
      if (t->type() == obs::Json::Type::kString)
        trace = obs::trace_id_from_hex(t->as_string());
    if (const obs::Json* p = directive->head.find("parent_span"))
      if (p->type() == obs::Json::Type::kString)
        parent_span = obs::span_id_from_hex(p->as_string());
    const bool traced = trace.valid();

    auto& recorder = obs::TraceRecorder::global();
    std::size_t events_before = 0;
    if (traced) {
      recorder.set_enabled(true);
      events_before = recorder.event_count();
    }

    Frame reply;
    try {
      ShardJob job = job_from_assign(directive->head);
      if (cfg.threads != 0) job.spec.threads = cfg.threads;
      const ShardRunner runner = find_runner(job.kind);
      if (!runner)
        throw std::runtime_error("unknown campaign kind \"" + job.kind + "\"");
      CampaignCheckpoint ck;
      {
        std::optional<obs::TraceContextScope> scope;
        if (traced) scope.emplace(obs::TraceContext{trace, parent_span});
        obs::Span shard_span("fabric.shard/" + std::to_string(shard), "fabric");
        if (obs::event_stream_enabled())
          obs::emit_event(obs::EventKind::kShardBegin,
                          static_cast<std::uint64_t>(shard), 0.0, job.kind);
        ck = runner(job);
        if (obs::event_stream_enabled())
          obs::emit_event(obs::EventKind::kShardEnd,
                          static_cast<std::uint64_t>(shard),
                          shard_span.elapsed_us(), job.kind);
      }
      reply = make_frame("result");
      reply.head["shard"] = shard;
      reply.body = encode_checkpoint(ck);
      if (traced) {
        // Ship exactly this shard's spans: everything recorded since the
        // assign that belongs to the adopted trace (a re-dispatched shard on
        // the same worker would otherwise ship its first run's spans twice).
        const std::vector<obs::TraceEvent> all = recorder.events();
        std::vector<obs::TraceEvent> batch;
        for (std::size_t i = events_before; i < all.size(); ++i)
          if (all[i].trace == trace) batch.push_back(all[i]);
        reply.head["trace"] = obs::trace_id_hex(trace);
        reply.head["spans"] = trace_events_to_json(batch);
        if (clock.valid) reply.head["offset_us"] = clock.offset_us;
      }
    } catch (const std::exception& e) {
      reply = make_frame("error");
      reply.head["shard"] = shard;
      reply.head["message"] = std::string(e.what());
    }
    t_send = obs::TraceRecorder::now_us();
    if (!send_frame(fd, reply)) {
      rc = shutdown_queued(fd) ? 0 : 1;
      break;
    }
  }

  obs::close_fd(fd);
  metrics.stop();
  obs::FlightRecorder::global().close();
  return rc;
}

}  // namespace lore::fabric
