#include "src/fabric/coordinator.hpp"

#include <netinet/in.h>
#include <sys/socket.h>

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "src/fabric/protocol.hpp"
#include "src/obs/flight.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/netutil.hpp"
#include "src/obs/scrape.hpp"
#include "src/obs/span.hpp"

namespace lore::fabric {

namespace {

std::string peer_address(int fd) {
  sockaddr_in addr{};
  socklen_t len = sizeof addr;
  if (getpeername(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0 ||
      addr.sin_family != AF_INET)
    return "127.0.0.1";
  char buf[16];
  const auto ip = ntohl(addr.sin_addr.s_addr);
  std::snprintf(buf, sizeof buf, "%u.%u.%u.%u", (ip >> 24) & 0xff, (ip >> 16) & 0xff,
                (ip >> 8) & 0xff, ip & 0xff);
  return buf;
}

}  // namespace

Coordinator::~Coordinator() {
  if (serving_ || listen_fd_.load() >= 0) finish();
}

bool Coordinator::bind(const CoordinatorConfig& cfg) {
  cfg_ = cfg;
  const auto sock = obs::listen_tcp(cfg.bind_address, cfg.port);
  if (!sock) return false;
  listen_fd_.store(sock->fd);
  listen_port_ = sock->port;
  return true;
}

void Coordinator::serve(const FabricJob& job) {
  std::size_t shards = cfg_.shard_count;
  if (shards == 0) shards = 4 * std::max(1u, cfg_.expected_workers);
  {
    std::lock_guard<std::mutex> lock(mu_);
    job_ = job;
    table_.emplace(job.spec.trials, shards);
    merged_ = CampaignCheckpoint{};
    merged_.identity = job.spec.identity_hash();
    merged_.build_tag = checkpoint_build_tag();
    merged_.trials = job.spec.trials;
    seen_.assign(job.spec.trials, 0);
    trials_done_ = 0;
    // Capture the caller's ambient trace position: with the recorder live
    // this makes every assign a child of the caller's open root span.
    root_ctx_ = obs::current_trace_context();
    tracing_ = root_ctx_.valid() && obs::TraceRecorder::global().recording();
    publish_gauges_locked();
  }
  serving_ = true;
  stopping_.store(false);
  accept_thread_ = std::thread(&Coordinator::accept_loop, this);
  if (cfg_.scrape_interval.count() > 0)
    scrape_thread_ = std::thread(&Coordinator::scrape_loop, this);
}

void Coordinator::accept_loop() {
  for (;;) {
    const int fd = obs::accept_retry(listen_fd_.load());
    if (fd < 0) return;  // listener closed by finish()
    if (stopping_.load()) {
      obs::close_fd(fd);
      return;
    }
    std::string host = peer_address(fd);
    auto send_mu = std::make_shared<std::mutex>();
    std::lock_guard<std::mutex> lock(mu_);
    conns_.push_back({fd, send_mu});
    handlers_.emplace_back(&Coordinator::handle_connection, this, fd, std::move(host),
                           std::move(send_mu));
  }
}

obs::Json Coordinator::next_directive_locked(std::optional<std::size_t>& held_shard) {
  held_shard.reset();
  // Every directive is stamped with this process's clock so workers can
  // estimate their offset from the directive round trip (protocol.hpp).
  obs::Json head = obs::Json::object();
  head["now_us"] = obs::TraceRecorder::now_us();
  if (!table_ || table_->all_done()) {
    head["type"] = "shutdown";
    return head;
  }
  const auto shard = table_->acquire(ShardTable::Clock::now(), cfg_.steal_after);
  if (!shard) {
    head["type"] = "wait";
    head["ms"] = static_cast<std::int64_t>(cfg_.wait_hint.count());
    return head;
  }
  held_shard = *shard;
  const TrialRange range = table_->info(*shard).range;
  head["type"] = "assign";
  head["shard"] = static_cast<std::int64_t>(*shard);
  head["kind"] = job_.kind;
  head["begin"] = static_cast<std::int64_t>(range.begin);
  head["end"] = static_cast<std::int64_t>(range.end);
  head["spec"] = spec_to_json(job_.spec);
  head["params"] = job_.params;
  if (tracing_) {
    head["trace"] = obs::trace_id_hex(root_ctx_.trace);
    head["parent_span"] = obs::span_id_hex(root_ctx_.span);
  }
  return head;
}

void Coordinator::handle_connection(int fd, std::string peer_host,
                                    std::shared_ptr<std::mutex> send_mu) {
  std::optional<std::size_t> held_shard;
  std::size_t worker_index = static_cast<std::size_t>(-1);
  std::string worker_name = "<unknown>";
  CampaignSpec spec;
  {
    std::lock_guard<std::mutex> lock(mu_);
    spec = job_.spec;
  }

  for (;;) {
    std::optional<Frame> msg = recv_frame(fd);
    if (!msg) break;
    const std::string type = msg->type();

    // A result's payload is CRC-checked and parsed before taking the lock:
    // that needs only the frame and this connection's own state, so other
    // workers' results and directives are not held up behind it.
    std::int64_t shard = -1;
    std::optional<CampaignCheckpoint> ck;
    if (type == "result") {
      const obs::Json* s = msg->head.find("shard");
      shard = s && s->is_number() ? s->as_int() : -1;
      ck = decode_checkpoint(std::move(msg->body), spec,
                             "shard " + std::to_string(shard) + " from " + worker_name);
    }

    Frame reply;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (type == "hello") {
        WorkerInfo info;
        if (const obs::Json* n = msg->head.find("worker"))
          if (n->type() == obs::Json::Type::kString) info.name = n->as_string();
        if (const obs::Json* p = msg->head.find("metrics_port"))
          if (p->is_number())
            info.metrics_port = static_cast<int>(p->as_int());
        if (const obs::Json* p = msg->head.find("pid"))
          if (p->is_number()) info.pid = static_cast<std::uint32_t>(p->as_int());
        if (const obs::Json* f = msg->head.find("flight"))
          if (f->type() == obs::Json::Type::kString) info.flight = f->as_string();
        info.host = std::move(peer_host);
        info.alive = true;
        worker_name = info.name;
        worker_index = workers_.size();
        workers_.push_back(std::move(info));
      } else if (type == "result") {
        // Under the lock only the first-wins merge and the table update.
        if (ck && shard >= 0) {
          // The merged result ends with one entry per trial: size it once,
          // from the first result's payload size, instead of regrowing it
          // shard by shard. That size comes from a peer, so the guess is
          // capped at one maximal frame body.
          if (merged_.entries.empty() && !ck->entries.empty()) {
            merged_.entries.reserve(merged_.trials);
            merged_.payloads.reserve(std::min<std::size_t>(
                merged_.trials * ck->entries.front().size, kMaxBodyBytes));
          }
          const std::size_t fresh = merge_checkpoint_entries(merged_, *ck, seen_);
          duplicates_discarded_ += ck->entries.size() - fresh;
          trials_done_ += fresh;
          table_->complete(static_cast<std::size_t>(shard));
          held_shard.reset();
          stitch_spans_locked(msg->head, worker_index);
          if (table_->all_done()) done_cv_.notify_all();
        } else {
          // Invalid payload (CRC, identity, truncation): count it, put the
          // shard back in play, and keep the worker — the next assign may
          // succeed.
          ++payload_rejects_;
          if (shard >= 0) table_->abandon(static_cast<std::size_t>(shard));
          held_shard.reset();
        }
      } else if (type == "error") {
        const obs::Json* m = msg->head.find("message");
        std::fprintf(stderr, "lore-fabric: worker error: %s\n",
                     m && m->type() == obs::Json::Type::kString
                         ? m->as_string().c_str()
                         : "(no message)");
        if (held_shard) table_->abandon(*held_shard);
        held_shard.reset();
      } else if (type != "ready") {
        break;  // protocol violation; drop the connection
      }
      reply.head = next_directive_locked(held_shard);
      publish_gauges_locked();
    }
    std::lock_guard<std::mutex> send_lock(*send_mu);
    if (!send_frame(fd, reply)) break;
  }

  // Connection gone: release anything it still held so another worker can
  // pick it up (the SIGKILLed-worker re-dispatch path). Before re-dispatch,
  // salvage the dead worker's flight ring — the only forensic record of why
  // the shard needed re-dispatching in the first place.
  std::lock_guard<std::mutex> lock(mu_);
  if (held_shard && !stopping_.load())
    collect_flight_ring_locked(worker_index, *held_shard);
  if (held_shard && table_) table_->abandon(*held_shard);
  if (worker_index < workers_.size()) workers_[worker_index].alive = false;
  publish_gauges_locked();
  obs::close_fd(fd);
  std::erase_if(conns_, [fd](const Connection& c) { return c.fd == fd; });
}

void Coordinator::stitch_spans_locked(const obs::Json& head, std::size_t worker_index) {
  if (!tracing_) return;
  const obs::Json* tr = head.find("trace");
  const obs::Json* spans = head.find("spans");
  if (!tr || tr->type() != obs::Json::Type::kString || !spans) return;
  const obs::TraceId trace = obs::trace_id_from_hex(tr->as_string());
  if (!(trace == root_ctx_.trace)) return;  // a stray batch from another run
  double offset_us = 0.0;
  if (const obs::Json* o = head.find("offset_us"))
    if (o->is_number()) offset_us = o->as_double();
  const std::uint32_t pid =
      worker_index < workers_.size() ? workers_[worker_index].pid : 0;
  auto& recorder = obs::TraceRecorder::global();
  for (obs::TraceEvent& e : trace_events_from_json(*spans, trace)) {
    e.start_us += offset_us;  // worker clock -> coordinator clock
    e.pid = pid;
    recorder.record(std::move(e));
    ++spans_stitched_;
  }
}

void Coordinator::collect_flight_ring_locked(std::size_t worker_index,
                                             std::size_t shard) {
  if (worker_index >= workers_.size()) return;
  const WorkerInfo& w = workers_[worker_index];
  if (w.flight.empty()) return;
  ++flight_rings_collected_;
  std::string err;
  const auto dump = obs::decode_flight_file(w.flight, &err);
  if (!dump) {
    std::fprintf(stderr, "lore-fabric: worker %s died holding shard %zu; flight ring %s undecodable: %s\n",
                 w.name.c_str(), shard, w.flight.c_str(), err.c_str());
    return;
  }
  // The ring's own record stream names the shard that was inflight at death
  // (last shard_begin without a matching shard_end) — cross-check the table.
  long long ring_shard = -1;
  std::size_t open_spans = 0;
  for (const obs::FlightRecord& r : dump->records) {
    if (r.kind == obs::EventKind::kShardBegin)
      ring_shard = static_cast<long long>(r.a);
    else if (r.kind == obs::EventKind::kShardEnd &&
             ring_shard == static_cast<long long>(r.a))
      ring_shard = -1;
    if (r.kind == obs::EventKind::kSpanBegin) ++open_spans;
    if (r.kind == obs::EventKind::kSpanEnd && open_spans) --open_spans;
  }
  std::fprintf(stderr,
               "lore-fabric: collected flight ring %s from dead worker %s (pid %u): "
               "%zu records (%zu torn), inflight shard %lld, ~%zu open spans; "
               "re-dispatching shard %zu\n",
               w.flight.c_str(), w.name.c_str(), dump->pid, dump->records.size(),
               dump->torn_records, ring_shard, open_spans, shard);
}

void Coordinator::scrape_loop() {
  for (;;) {
    {
      // Sleep one interval, but wake at once when finish() stops the fleet.
      std::unique_lock<std::mutex> lock(mu_);
      if (stop_cv_.wait_for(lock, cfg_.scrape_interval, [&] { return stopping_.load(); }))
        return;
    }

    // Snapshot scrape targets without holding the lock during network I/O.
    struct Target {
      std::size_t index;
      std::string host;
      int port;
    };
    std::vector<Target> targets;
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (std::size_t i = 0; i < workers_.size(); ++i)
        if (workers_[i].alive && workers_[i].metrics_port >= 0)
          targets.push_back({i, workers_[i].host, workers_[i].metrics_port});
    }

    // Each scrape is deadline-bounded (cfg_.scrape_timeout): a worker that
    // dies between accept and response — the SIGKILL-mid-scrape case — costs
    // one bounded failure, not a hung poll loop.
    const int timeout_ms = static_cast<int>(cfg_.scrape_timeout.count());
    double rate_sum = 0.0;
    std::vector<std::pair<std::size_t, double>> observed;
    std::vector<std::size_t> failed;
    const auto now = std::chrono::steady_clock::now();
    for (const Target& t : targets) {
      const auto doc = obs::scrape_metrics_json(
          t.host, static_cast<std::uint16_t>(t.port), timeout_ms);
      const auto v =
          doc ? obs::metric_value(*doc, "counters", "campaign.trials_completed")
              : std::nullopt;
      if (v)
        observed.push_back({t.index, *v});
      else
        failed.push_back(t.index);
    }

    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [i, trials] : observed) {
      WorkerInfo& w = workers_[i];
      w.scrape_failures = 0;
      w.stale = false;
      if (w.last_scrape.time_since_epoch().count() != 0) {
        const double dt = std::chrono::duration<double>(now - w.last_scrape).count();
        if (dt > 0 && trials >= w.last_trials)
          rate_sum += (trials - w.last_trials) / dt;
      }
      w.last_trials = trials;
      w.last_scrape = now;
    }
    for (std::size_t i : failed) {
      WorkerInfo& w = workers_[i];
      ++w.scrape_failures;
      if (w.scrape_failures >= cfg_.stale_after) w.stale = true;
    }
    fleet_trials_per_s_ = rate_sum;
    publish_gauges_locked();
  }
}

void Coordinator::publish_gauges_locked() {
  auto& reg = obs::MetricsRegistry::global();
  std::size_t alive = 0, stale = 0;
  for (const auto& w : workers_) {
    alive += w.alive;
    stale += w.alive && w.stale;
  }
  reg.gauge("fleet.workers_alive").set(static_cast<double>(alive));
  reg.gauge("fleet.workers_seen").set(static_cast<double>(workers_.size()));
  reg.gauge("fleet.workers_stale").set(static_cast<double>(stale));
  reg.gauge("fleet.spans_stitched").set(static_cast<double>(spans_stitched_));
  reg.gauge("fleet.flight_rings_collected")
      .set(static_cast<double>(flight_rings_collected_));
  if (table_) {
    reg.gauge("fleet.shards_pending").set(static_cast<double>(table_->pending()));
    reg.gauge("fleet.shards_inflight").set(static_cast<double>(table_->inflight()));
    reg.gauge("fleet.shards_done").set(static_cast<double>(table_->done()));
    reg.gauge("fleet.steals").set(static_cast<double>(table_->steals()));
  }
  reg.gauge("fleet.trials_done").set(static_cast<double>(trials_done_));
  reg.gauge("fleet.trials_total").set(static_cast<double>(merged_.trials));
  reg.gauge("fleet.payload_rejects").set(static_cast<double>(payload_rejects_));
  reg.gauge("fleet.duplicates_discarded")
      .set(static_cast<double>(duplicates_discarded_));
  reg.gauge("fleet.trials_per_s").set(fleet_trials_per_s_);
}

bool Coordinator::wait(std::chrono::milliseconds timeout) {
  std::unique_lock<std::mutex> lock(mu_);
  const auto complete = [&] { return table_ && table_->all_done(); };
  if (timeout.count() <= 0) {
    done_cv_.wait(lock, complete);
    return true;
  }
  return done_cv_.wait_for(lock, timeout, complete);
}

CampaignCheckpoint Coordinator::finish() {
  stopping_.store(true);
  // Closing the listener unblocks accept_retry. Each live worker is told
  // `shutdown` before its socket is shut down — a worker parked on `wait`
  // would otherwise find the connection gone and exit with an error — and
  // the socket shutdown unblocks the handler's recv_frame.
  if (const int lfd = listen_fd_.exchange(-1); lfd >= 0) {
    ::shutdown(lfd, SHUT_RDWR);
    obs::close_fd(lfd);
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_cv_.notify_all();  // under mu_, so the scrape thread cannot miss it
    for (const Connection& c : conns_) {
      std::lock_guard<std::mutex> send_lock(*c.send_mu);
      send_frame(c.fd, make_frame("shutdown"));
      ::shutdown(c.fd, SHUT_RDWR);
    }
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  if (scrape_thread_.joinable()) scrape_thread_.join();
  // Handlers remove themselves from conn_fds_ but never from handlers_, so
  // joining under the lock would deadlock; the vector is append-only and
  // accept_loop has exited, so its size is stable here.
  for (auto& t : handlers_)
    if (t.joinable()) t.join();
  handlers_.clear();
  serving_ = false;

  std::lock_guard<std::mutex> lock(mu_);
  return std::move(merged_);
}

FleetSnapshot Coordinator::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  FleetSnapshot s;
  for (const auto& w : workers_) {
    s.workers_alive += w.alive;
    s.workers_stale += w.alive && w.stale;
  }
  s.workers_seen = workers_.size();
  if (table_) {
    s.shards_pending = table_->pending();
    s.shards_inflight = table_->inflight();
    s.shards_done = table_->done();
    s.steals = table_->steals();
  }
  s.trials_done = trials_done_;
  s.trials_total = merged_.trials;
  s.payload_rejects = payload_rejects_;
  s.duplicates_discarded = duplicates_discarded_;
  s.trials_per_s = fleet_trials_per_s_;
  s.spans_stitched = spans_stitched_;
  s.flight_rings_collected = flight_rings_collected_;
  return s;
}

}  // namespace lore::fabric
