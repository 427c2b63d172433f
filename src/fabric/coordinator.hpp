// Fabric coordinator — owns the shard table, speaks `lore.fabric.v1` to N
// worker processes, validates + merges their LORECKP1 shard payloads, and
// publishes fleet-level gauges (DESIGN.md §12).
//
// Lifecycle is split into `bind()` (socket only, spawns NO threads) and
// `serve()` (accept/handler/scrape threads) so callers can fork local worker
// processes in between while the parent is still single-threaded — the only
// fork() discipline that is safe under TSan and sane anywhere else.
//
// Bit-identity argument: the coordinator never executes trials, it only
// partitions [0, trials) into contiguous ranges and merges entry lists keyed
// by global trial index. Workers seed each trial from
// trial_seed(base_seed, global_index), so any partition — and any duplicated
// work from straggler re-dispatch, deduplicated here by first-result-wins —
// reassembles into exactly the single-process result.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "src/common/campaign.hpp"
#include "src/fabric/shard.hpp"
#include "src/obs/json.hpp"
#include "src/obs/span.hpp"

namespace lore::fabric {

struct CoordinatorConfig {
  std::string bind_address = "127.0.0.1";
  /// 0 = ephemeral (read the bound port back with `port()`).
  std::uint16_t port = 0;
  /// Trial ranges to carve the campaign into; 0 = 4 x expected_workers
  /// (over-decomposition keeps the fleet busy when shards finish unevenly).
  std::size_t shard_count = 0;
  unsigned expected_workers = 1;
  /// Age after which an inflight shard becomes stealable (straggler
  /// re-dispatch; first valid result wins).
  std::chrono::milliseconds steal_after{3000};
  /// Backoff hint sent to an idle worker when nothing is dispatchable.
  std::chrono::milliseconds wait_hint{25};
  /// Fleet telemetry: poll each worker's /metrics.json this often and
  /// publish fleet.* gauges. <= 0 disables the scrape thread.
  std::chrono::milliseconds scrape_interval{250};
  /// Per-scrape socket deadline: a worker that dies mid-scrape fails the
  /// poll within this bound instead of hanging the scrape thread.
  std::chrono::milliseconds scrape_timeout{500};
  /// Consecutive failed scrapes after which a worker is marked stale
  /// (`fleet.workers_stale`); one success clears it.
  unsigned stale_after = 2;
};

/// The campaign to distribute. `spec` must already carry its resolved
/// identity (domain filled — see resolve_job_spec / FaultInjector::
/// resolved_spec / pipeline_campaign_spec): the coordinator validates every
/// incoming payload against `spec.identity_hash()` and workers recompute the
/// same identity from (kind, params).
struct FabricJob {
  std::string kind;
  obs::Json params;
  CampaignSpec spec;
};

/// Point-in-time fleet state (also published as `fleet.*` gauges).
struct FleetSnapshot {
  std::size_t workers_alive = 0;
  std::size_t workers_seen = 0;
  std::size_t shards_pending = 0;
  std::size_t shards_inflight = 0;
  std::size_t shards_done = 0;
  std::size_t trials_done = 0;
  std::size_t trials_total = 0;
  std::size_t payload_rejects = 0;
  std::size_t duplicates_discarded = 0;
  std::size_t steals = 0;
  double trials_per_s = 0.0;
  std::size_t workers_stale = 0;
  /// Remote spans merged into the coordinator's TraceRecorder so far.
  std::size_t spans_stitched = 0;
  /// Flight rings decoded from workers that died holding a shard.
  std::size_t flight_rings_collected = 0;
};

class Coordinator {
 public:
  Coordinator() = default;
  ~Coordinator();

  Coordinator(const Coordinator&) = delete;
  Coordinator& operator=(const Coordinator&) = delete;

  /// Bind + listen. Spawns no threads — fork workers after this, then call
  /// serve(). False when the socket cannot be bound.
  bool bind(const CoordinatorConfig& cfg);
  /// The bound port (valid after bind()).
  std::uint16_t port() const { return listen_port_; }
  /// The listening fd, so forked children can close their inherited copy.
  int listen_fd() const { return listen_fd_.load(); }

  /// Start accepting workers and dispatching `job`'s shards.
  ///
  /// Tracing: when the global TraceRecorder is recording AND the calling
  /// thread has a valid ambient TraceContext (open a root Span inside a
  /// TraceContextScope before calling), every assign carries that context,
  /// workers run their shards as child spans of it, and their span batches
  /// are stitched back into the recorder on this process's timeline — one
  /// merged fleet trace, exported via LORE_TRACE or GET /trace.json.
  void serve(const FabricJob& job);

  /// Block until every trial is merged, or `timeout` elapses (<= 0 waits
  /// forever). True when the campaign completed.
  bool wait(std::chrono::milliseconds timeout = std::chrono::milliseconds{0});

  /// Stop serving (workers get `shutdown`, sockets close, threads join) and
  /// return the merged checkpoint. Call after wait(); a merge of an
  /// incomplete campaign returns whatever arrived.
  CampaignCheckpoint finish();

  FleetSnapshot snapshot() const;

 private:
  struct WorkerInfo {
    std::string name;
    std::string host;       // peer address, for /metrics scraping
    int metrics_port = -1;  // worker-local scrape endpoint; < 0 = none
    std::uint32_t pid = 0;  // reported in hello; stamps stitched spans
    std::string flight;     // worker's flight-ring path (hello), "" = none
    bool alive = false;
    bool stale = false;     // >= cfg.stale_after consecutive scrape failures
    unsigned scrape_failures = 0;
    // Scrape baselines for the fleet trials/s estimate.
    double last_trials = 0.0;
    std::chrono::steady_clock::time_point last_scrape{};
  };

  void accept_loop();
  void handle_connection(int fd, std::string peer_host,
                         std::shared_ptr<std::mutex> send_mu);
  void scrape_loop();
  /// One directive for a worker that just spoke (lock must be held).
  obs::Json next_directive_locked(std::optional<std::size_t>& held_shard);
  void publish_gauges_locked();
  /// Merge a result's span batch into the global TraceRecorder (lock held).
  void stitch_spans_locked(const obs::Json& head, std::size_t worker_index);
  /// Decode + report the flight ring of a worker that died holding `shard`
  /// (lock held). The post-mortem half of straggler re-dispatch.
  void collect_flight_ring_locked(std::size_t worker_index, std::size_t shard);

  CoordinatorConfig cfg_;
  FabricJob job_;
  /// Atomic: finish() invalidates it while the accept thread still reads it.
  std::atomic<int> listen_fd_{-1};
  std::uint16_t listen_port_ = 0;

  mutable std::mutex mu_;
  std::condition_variable done_cv_;
  /// Wakes the scrape thread's interval sleep when finish() sets stopping_.
  std::condition_variable stop_cv_;
  std::optional<ShardTable> table_;
  CampaignCheckpoint merged_;
  std::vector<std::uint8_t> seen_;
  std::vector<WorkerInfo> workers_;
  /// Live worker connections. `send_mu` serializes the handler's replies
  /// with finish()'s closing `shutdown` on the same socket.
  struct Connection {
    int fd;
    std::shared_ptr<std::mutex> send_mu;
  };
  std::vector<Connection> conns_;
  std::size_t trials_done_ = 0;
  std::size_t payload_rejects_ = 0;
  std::size_t duplicates_discarded_ = 0;
  double fleet_trials_per_s_ = 0.0;
  std::size_t spans_stitched_ = 0;
  std::size_t flight_rings_collected_ = 0;
  /// Ambient trace context captured in serve(); valid + recording => assigns
  /// carry it and results' span batches are stitched.
  obs::TraceContext root_ctx_;
  bool tracing_ = false;

  std::atomic<bool> stopping_{false};
  std::thread accept_thread_;
  std::thread scrape_thread_;
  std::vector<std::thread> handlers_;
  bool serving_ = false;
};

}  // namespace lore::fabric
