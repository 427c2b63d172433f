// End-to-end fabric runs: real coordinator + forked worker processes, with
// the merged result asserted bit-identical to the single-process reference at
// every worker count — including through a corrupt-payload retry, a
// stolen-then-completed straggler's duplicate delivery, and a SIGKILLed
// worker whose shards are re-dispatched.
//
// Fork discipline: workers are forked between Coordinator::bind() and
// serve(), while this process is still single-threaded — the reason that
// lifecycle is split. The fake-worker tests don't fork at all; they speak
// the protocol over a client socket from the test thread.
#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "src/arch/fault.hpp"
#include "src/arch/pipeline.hpp"
#include "src/fabric/coordinator.hpp"
#include "src/fabric/protocol.hpp"
#include "src/fabric/runners.hpp"
#include "src/fabric/spawn.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/netutil.hpp"

namespace {

using namespace lore;
using namespace lore::fabric;

obs::Json fault_params() {
  obs::Json p = obs::Json::object();
  p["workload"] = "dot_product";
  p["scale"] = std::int64_t{16};
  p["wseed"] = std::int64_t{7};
  p["target"] = "register";
  return p;
}

CampaignSpec base_spec(std::size_t trials) {
  CampaignSpec spec;
  spec.trials = trials;
  spec.base_seed = 42;
  spec.threads = 1;
  return spec;
}

std::vector<arch::FaultRecord> fleet_run(const std::string& kind,
                                         const obs::Json& params,
                                         const CampaignSpec& resolved,
                                         unsigned workers,
                                         FleetSnapshot* snap_out = nullptr) {
  CoordinatorConfig cfg;
  cfg.expected_workers = workers;
  Coordinator coord;
  if (!coord.bind(cfg)) return {};

  std::vector<pid_t> kids;
  for (unsigned i = 0; i < workers; ++i)
    kids.push_back(fork_local_worker(coord.port(), {}, coord.listen_fd()));

  coord.serve({kind, params, resolved});
  coord.wait();
  // A small campaign can finish before a slow worker connects, and a worker
  // that finds no coordinator rightly exits 1; let every worker say hello.
  for (int i = 0; i < 1000 && coord.snapshot().workers_seen < workers; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  if (snap_out) *snap_out = coord.snapshot();
  const CampaignCheckpoint merged = coord.finish();
  // finish() tells every worker to shut down: a successful campaign leaves
  // no worker exiting with an error.
  for (const pid_t pid : kids) EXPECT_EQ(wait_worker(pid), 0) << "worker " << pid;

  const auto result = records_from_checkpoint(kind, resolved, merged);
  return result ? result->records : std::vector<arch::FaultRecord>{};
}

TEST(FabricE2E, FaultCampaignBitIdenticalAt1_2_4Workers) {
  const obs::Json params = fault_params();
  const auto resolved = resolve_job_spec("arch.fault", params, base_spec(300));
  ASSERT_TRUE(resolved.has_value());

  const auto w = workload_from_params(params);
  const arch::FaultInjector inj(*w);
  const auto reference =
      inj.campaign_run(base_spec(300), arch::FaultTarget::kRegister).records;
  ASSERT_EQ(reference.size(), 300u);

  for (const unsigned workers : {1u, 2u, 4u}) {
    const auto records = fleet_run("arch.fault", params, *resolved, workers);
    EXPECT_EQ(records, reference) << workers << " workers";
  }
}

TEST(FabricE2E, PipelineCampaignBitIdenticalAt2Workers) {
  obs::Json params = obs::Json::object();
  params["workload"] = "checksum";
  params["scale"] = std::int64_t{12};
  params["wseed"] = std::int64_t{7};
  const auto resolved = resolve_job_spec("arch.pipeline", params, base_spec(200));
  ASSERT_TRUE(resolved.has_value());

  const auto w = workload_from_params(params);
  const auto reference = arch::pipeline_campaign_run(*w, base_spec(200)).records;

  const auto records = fleet_run("arch.pipeline", params, *resolved, 2);
  EXPECT_EQ(records, reference);
}

TEST(FabricE2E, KilledWorkerShardsAreRedispatched) {
  // Heavier campaign so worker A is still mid-run when SIGKILLed; worker B
  // must pick up every shard A abandoned and the merge must still be exact.
  obs::Json params = fault_params();
  params["workload"] = "matmul";
  const auto resolved = resolve_job_spec("arch.fault", params, base_spec(3000));
  ASSERT_TRUE(resolved.has_value());

  CoordinatorConfig cfg;
  cfg.expected_workers = 2;
  cfg.shard_count = 12;
  Coordinator coord;
  ASSERT_TRUE(coord.bind(cfg));

  const pid_t victim = fork_local_worker(coord.port(), {}, coord.listen_fd());
  const pid_t survivor = fork_local_worker(coord.port(), {}, coord.listen_fd());

  coord.serve({"arch.fault", params, *resolved});
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  kill_worker(victim);  // SIGKILL mid-campaign; its held shard is abandoned

  ASSERT_TRUE(coord.wait(std::chrono::minutes(2)));
  const FleetSnapshot snap = coord.snapshot();
  const CampaignCheckpoint merged = coord.finish();
  EXPECT_EQ(wait_worker(survivor), 0);

  EXPECT_EQ(snap.workers_seen, 2u);
  const auto result = records_from_checkpoint("arch.fault", *resolved, merged);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->report.completed, 3000u);

  const auto w = workload_from_params(params);
  const arch::FaultInjector inj(*w);
  EXPECT_EQ(result->records,
            inj.campaign_run(base_spec(3000), arch::FaultTarget::kRegister).records);
}

// ---------------------------------------------------------------------------
// Fake-worker tests: the test thread IS the worker, so every protocol step is
// deterministic.

struct FakeWorker {
  int fd = -1;
  explicit FakeWorker(std::uint16_t port) {
    fd = obs::connect_tcp("127.0.0.1", port);
    EXPECT_GE(fd, 0);
    Frame hello = make_frame("hello");
    hello.head["schema"] = kSchema;
    hello.head["worker"] = "fake";
    hello.head["pid"] = std::int64_t{0};
    hello.head["metrics_port"] = std::int64_t{-1};
    EXPECT_TRUE(send_frame(fd, hello));
  }
  ~FakeWorker() { obs::close_fd(fd); }

  std::optional<Frame> recv() { return recv_frame(fd); }
  bool send(const Frame& f) { return send_frame(fd, f); }
};

CampaignCheckpoint compute_assign(const arch::FaultInjector& inj, const Frame& assign) {
  const CampaignSpec spec = spec_from_json(assign.head.at("spec"));
  const TrialRange range{
      static_cast<std::size_t>(assign.head.at("begin").as_int()),
      static_cast<std::size_t>(assign.head.at("end").as_int())};
  return inj.campaign_shard(spec, range, arch::FaultTarget::kRegister);
}

TEST(FabricE2E, CorruptResultIsRejectedAndShardRetried) {
  const obs::Json params = fault_params();
  const auto resolved = resolve_job_spec("arch.fault", params, base_spec(100));
  ASSERT_TRUE(resolved.has_value());
  const auto w = workload_from_params(params);
  const arch::FaultInjector inj(*w);

  CoordinatorConfig cfg;
  cfg.shard_count = 1;
  cfg.steal_after = std::chrono::minutes(10);
  Coordinator coord;
  ASSERT_TRUE(coord.bind(cfg));
  coord.serve({"arch.fault", params, *resolved});

  FakeWorker fake(coord.port());
  auto assign = fake.recv();
  ASSERT_TRUE(assign && assign->type() == "assign");

  // Deliver a CRC-torn payload: the coordinator must reject it, abandon the
  // shard, and hand the SAME shard right back on the next exchange.
  Frame bad = make_frame("result");
  bad.head["shard"] = assign->head.at("shard").as_int();
  bad.body = encode_checkpoint(compute_assign(inj, *assign));
  bad.body[bad.body.size() / 2] ^= 0x20;
  testing::internal::CaptureStderr();  // swallow the expected CRC warning
  ASSERT_TRUE(fake.send(bad));

  auto retry = fake.recv();
  testing::internal::GetCapturedStderr();
  ASSERT_TRUE(retry && retry->type() == "assign");
  EXPECT_EQ(retry->head.at("shard").as_int(), assign->head.at("shard").as_int());

  Frame good = make_frame("result");
  good.head["shard"] = retry->head.at("shard").as_int();
  good.body = encode_checkpoint(compute_assign(inj, *retry));
  ASSERT_TRUE(fake.send(good));
  auto done = fake.recv();
  ASSERT_TRUE(done && done->type() == "shutdown");

  ASSERT_TRUE(coord.wait(std::chrono::minutes(1)));
  const FleetSnapshot snap = coord.snapshot();
  const CampaignCheckpoint merged = coord.finish();
  EXPECT_EQ(snap.payload_rejects, 1u);

  const auto result = records_from_checkpoint("arch.fault", *resolved, merged);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->records,
            inj.campaign_run(base_spec(100), arch::FaultTarget::kRegister).records);
}

TEST(FabricE2E, StolenThenCompletedStragglerDuplicatesDiscarded) {
  const obs::Json params = fault_params();
  const auto resolved = resolve_job_spec("arch.fault", params, base_spec(100));
  ASSERT_TRUE(resolved.has_value());
  const auto w = workload_from_params(params);
  const arch::FaultInjector inj(*w);

  CoordinatorConfig cfg;
  cfg.shard_count = 2;
  cfg.steal_after = std::chrono::milliseconds(0);  // everything is a straggler
  Coordinator coord;
  ASSERT_TRUE(coord.bind(cfg));
  coord.serve({"arch.fault", params, *resolved});

  FakeWorker slow(coord.port());
  auto slow_assign = slow.recv();
  ASSERT_TRUE(slow_assign && slow_assign->type() == "assign");
  const std::int64_t contested = slow_assign->head.at("shard").as_int();

  FakeWorker fast(coord.port());
  auto fast_assign = fast.recv();
  ASSERT_TRUE(fast_assign && fast_assign->type() == "assign");
  EXPECT_NE(fast_assign->head.at("shard").as_int(), contested);

  // Fast worker finishes its own shard, then STEALS the slow worker's.
  Frame r1 = make_frame("result");
  r1.head["shard"] = fast_assign->head.at("shard").as_int();
  r1.body = encode_checkpoint(compute_assign(inj, *fast_assign));
  ASSERT_TRUE(fast.send(r1));
  auto stolen = fast.recv();
  ASSERT_TRUE(stolen && stolen->type() == "assign");
  EXPECT_EQ(stolen->head.at("shard").as_int(), contested);

  Frame r2 = make_frame("result");
  r2.head["shard"] = contested;
  r2.body = encode_checkpoint(compute_assign(inj, *stolen));
  ASSERT_TRUE(fast.send(r2));
  auto fast_done = fast.recv();
  ASSERT_TRUE(fast_done && fast_done->type() == "shutdown");

  // The slow worker NOW delivers the contested shard a second time: a valid
  // payload whose every trial is already merged — discarded as duplicates.
  Frame late = make_frame("result");
  late.head["shard"] = contested;
  late.body = encode_checkpoint(compute_assign(inj, *slow_assign));
  ASSERT_TRUE(slow.send(late));
  auto slow_done = slow.recv();
  ASSERT_TRUE(slow_done && slow_done->type() == "shutdown");

  ASSERT_TRUE(coord.wait(std::chrono::minutes(1)));
  const FleetSnapshot snap = coord.snapshot();
  const CampaignCheckpoint merged = coord.finish();
  EXPECT_EQ(snap.steals, 1u);
  EXPECT_EQ(snap.duplicates_discarded, 50u);  // the whole contested shard
  EXPECT_EQ(snap.payload_rejects, 0u);

  const auto result = records_from_checkpoint("arch.fault", *resolved, merged);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->report.completed, 100u);
  EXPECT_EQ(result->records,
            inj.campaign_run(base_spec(100), arch::FaultTarget::kRegister).records);
}

TEST(FabricE2E, FleetGaugesPublished) {
  const obs::Json params = fault_params();
  const auto resolved = resolve_job_spec("arch.fault", params, base_spec(60));
  ASSERT_TRUE(resolved.has_value());
  const auto records = fleet_run("arch.fault", params, *resolved, 2);
  EXPECT_EQ(records.size(), 60u);

  const auto snap = obs::MetricsRegistry::global().snapshot();
  double done = -1, total = -1;
  for (const auto& [name, v] : snap.gauges) {
    if (name == "fleet.trials_done") done = v;
    if (name == "fleet.trials_total") total = v;
  }
  EXPECT_EQ(done, 60.0);
  EXPECT_EQ(total, 60.0);
}

TEST(FabricE2E, FinishDoesNotWaitOutTheScrapeInterval) {
  // The scrape thread sleeps between polls; finish() must wake it rather
  // than join it only after a full interval has elapsed.
  const obs::Json params = fault_params();
  const auto resolved = resolve_job_spec("arch.fault", params, base_spec(8));
  ASSERT_TRUE(resolved.has_value());
  CoordinatorConfig cfg;
  cfg.scrape_interval = std::chrono::seconds(10);
  Coordinator coord;
  ASSERT_TRUE(coord.bind(cfg));
  coord.serve({"arch.fault", params, *resolved});
  std::this_thread::sleep_for(std::chrono::milliseconds(20));  // scrape thread is asleep
  const auto start = std::chrono::steady_clock::now();
  coord.finish();
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::milliseconds(1000));
}

}  // namespace
