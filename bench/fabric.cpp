// Fleet throughput of the sharded campaign fabric (DESIGN.md §12): the same
// fault-injection campaign run single-process and through the coordinator at
// 1/2/4 worker processes, with the bit-identity contract checked on every
// row. The workers are re-exec'd copies of this binary (spawn_self_worker),
// because by the time the report runs the bench's telemetry pipeline already
// owns threads and a plain fork() would be unsafe. A second table times each
// phase of the shard hand-off on a fixed 1M-entry set of records.
#include "bench/bench_util.hpp"

#include <thread>
#include <vector>

#include "src/arch/fault.hpp"
#include "src/common/campaign.hpp"
#include "src/common/table.hpp"
#include "src/fabric/coordinator.hpp"
#include "src/fabric/protocol.hpp"
#include "src/fabric/runners.hpp"
#include "src/fabric/spawn.hpp"
#include "src/obs/crc32.hpp"
#include "src/obs/netutil.hpp"

namespace {

using namespace lore;

constexpr std::size_t kTrials = 4000;
constexpr std::size_t kScale = 16;
constexpr std::uint64_t kSeed = 42;
/// Timed sections report the best of kReps runs: single runs of the
/// millisecond-scale sections jitter by more than the 10 % `--check` gate.
constexpr int kReps = 5;

obs::Json campaign_params() {
  obs::Json params = obs::Json::object();
  params["workload"] = "matmul";
  params["scale"] = static_cast<std::int64_t>(kScale);
  params["wseed"] = static_cast<std::int64_t>(7);
  params["target"] = "register";
  return params;
}

CampaignSpec campaign_spec() {
  CampaignSpec spec;
  spec.trials = kTrials;
  spec.base_seed = kSeed;
  spec.threads = 1;  // scaling comes from processes, not threads
  return spec;
}

std::vector<arch::FaultRecord> run_fleet(std::size_t workers, double& seconds) {
  const obs::Json params = campaign_params();
  const auto spec = fabric::resolve_job_spec("arch.fault", params, campaign_spec());
  fabric::CoordinatorConfig cfg;
  cfg.expected_workers = static_cast<unsigned>(workers);
  // No scrape thread: finish() joins it only after its current 250 ms sleep,
  // which would round every timed run up to that tick.
  cfg.scrape_interval = std::chrono::milliseconds(0);
  fabric::Coordinator coord;
  if (!spec || !coord.bind(cfg)) return {};

  std::vector<pid_t> kids;
  fabric::SpawnOptions sopts;
  sopts.threads = 1;
  sopts.metrics_port = 0;
  for (std::size_t i = 0; i < workers; ++i)
    kids.push_back(fabric::spawn_self_worker(coord.port(), sopts));

  CampaignCheckpoint merged;
  seconds = bench::timed_seconds([&] {
    coord.serve({"arch.fault", params, *spec});
    coord.wait();
    merged = coord.finish();
  });
  for (const pid_t pid : kids) fabric::wait_worker(pid);
  const auto result = fabric::records_from_checkpoint("arch.fault", *spec, merged);
  return result ? result->records : std::vector<arch::FaultRecord>{};
}

constexpr std::size_t kHandoffEntries = 1'000'000;
constexpr std::size_t kHandoffShards = 16;

/// kHandoffEntries FaultRecords drawn from per-trial seeds: the records a
/// register campaign hands back, without running one.
std::vector<arch::FaultRecord> handoff_records() {
  std::vector<arch::FaultRecord> records(kHandoffEntries);
  for (std::size_t i = 0; i < records.size(); ++i) {
    Rng rng(trial_seed(kSeed, i));
    arch::FaultRecord& r = records[i];
    r.site.target = arch::FaultTarget::kRegister;
    r.site.index = rng.uniform_index(16);
    r.site.bit = static_cast<unsigned>(rng.uniform_index(32));
    r.site.cycle = rng.uniform_index(100000);
    r.outcome = static_cast<arch::Outcome>(rng.uniform_index(3));
    r.active_instruction = static_cast<std::int64_t>(rng.uniform_index(64));
    r.trial_seed = trial_seed(kSeed, i);
  }
  return records;
}

/// Each phase a campaign's records pass through between the workers' chunk
/// loops and the coordinator's merged records, timed alone (one thread, or a
/// sender and a receiver for the wire; best of 5). The records travel as
/// kHandoffShards shard checkpoints, as the fabric sends them: one 50 MB
/// frame would mostly time page faults.
void run_handoff_report() {
  bench::print_header(
      "Shard hand-off phases",
      std::to_string(kHandoffEntries) + " FaultRecord entries (38-byte payloads) as " +
          std::to_string(kHandoffShards) +
          " LORECKP1 shard checkpoints through every hand-off phase, one thread, best of 5.");
  CampaignSpec spec;
  spec.trials = kHandoffEntries;
  spec.base_seed = kSeed;
  spec.domain = "bench.fabric.handoff";
  const std::vector<arch::FaultRecord> records = handoff_records();
  const std::vector<TrialRange> ranges = shard_trial_ranges(kHandoffEntries, kHandoffShards);
  const std::size_t n = ranges.size();

  Table t({"phase", "ms", "entries_per_s"});
  const auto row = [&t](const char* phase, double s) {
    t.add_row({phase, fmt_sig(s * 1e3, 3), fmt_sig(kHandoffEntries / s, 4)});
  };

  std::vector<CampaignCheckpoint> shards(n);
  row("record encode", bench::best_of_seconds(kReps, [&] {
        for (std::size_t s = 0; s < n; ++s) {
          shards[s] = {spec.identity_hash(), checkpoint_build_tag(), spec.trials, {}, {}};
          shards[s].entries.reserve(ranges[s].size());
          for (std::size_t i = ranges[s].begin; i < ranges[s].end; ++i)
            shards[s].add_record<arch::FaultRecordCodec>(i, records[i]);
        }
      }));
  std::vector<std::string> wire(n);
  row("frame encode", bench::best_of_seconds(kReps, [&] {
        for (std::size_t s = 0; s < n; ++s) wire[s] = encode_checkpoint(shards[s]);
      }));
  std::uint32_t crc = 0;
  row("crc", bench::best_of_seconds(kReps, [&] {
        for (const std::string& w : wire) crc ^= obs::crc32(w.data(), w.size());
      }));
  benchmark::DoNotOptimize(crc);

  // Worker to coordinator over loopback TCP, one lore.fabric.v1 frame each.
  std::vector<fabric::Frame> frames(n, fabric::make_frame("result"));
  for (std::size_t s = 0; s < n; ++s) frames[s].body = wire[s];
  bool wire_ok = false;
  if (const auto listener = obs::listen_tcp("127.0.0.1", 0)) {
    const int tx = obs::connect_tcp("127.0.0.1", listener->port);
    const int rx = tx >= 0 ? obs::accept_retry(listener->fd) : -1;
    if (rx >= 0) {
      row("wire", bench::best_of_seconds(kReps, [&] {
            std::thread sender([&] {
              for (const fabric::Frame& f : frames) fabric::send_frame(tx, f);
            });
            wire_ok = true;
            for (std::size_t s = 0; s < n; ++s) {
              const std::optional<fabric::Frame> got = fabric::recv_frame(rx);
              wire_ok = wire_ok && got && got->body == wire[s];
            }
            sender.join();
          }));
    }
    obs::close_fd(rx);
    obs::close_fd(tx);
    obs::close_fd(listener->fd);
  }
  frames.clear();

  // The coordinator moves each received body into the decoder, which keeps
  // it; every rep decodes fresh copies made outside the timed region.
  std::vector<std::optional<CampaignCheckpoint>> decoded(n);
  double decode_s = 0.0;
  for (int rep = 0; rep < kReps; ++rep) {
    std::vector<std::string> bodies = wire;
    const double s = bench::timed_seconds([&] {
      for (std::size_t i = 0; i < n; ++i)
        decoded[i] = decode_checkpoint(std::move(bodies[i]), spec, "bench");
    });
    decode_s = rep == 0 ? s : std::min(decode_s, s);
  }
  row("decode", decode_s);
  CampaignCheckpoint merged;
  row("merge", bench::best_of_seconds(kReps, [&] {
        // Sized once from the first shard, as the coordinator does.
        merged = {spec.identity_hash(), checkpoint_build_tag(), spec.trials, {}, {}};
        merged.entries.reserve(kHandoffEntries);
        merged.payloads.reserve(kHandoffEntries * decoded[0]->entries.front().size);
        std::vector<std::uint8_t> seen;
        for (const auto& d : decoded) merge_checkpoint_entries(merged, *d, seen);
      }));
  CampaignResult<arch::FaultRecord> result;
  row("record decode", bench::best_of_seconds(kReps, [&] {
        result = result_from_checkpoint<arch::FaultRecord, arch::FaultRecordCodec>(spec, merged);
      }));
  bench::print_table(t);
  bench::print_note(std::string("round trip: wire frames intact = ") +
                    (wire_ok ? "yes" : "NO") + ", merged records identical = " +
                    (result.records == records ? "yes" : "NO") + ".");
}

void run_experiment_report() {
  fabric::maybe_run_worker_from_env();  // re-exec'd children become workers here

  bench::print_header("Fabric fleet throughput",
                      "Sharded multi-process campaign vs single-process, matmul "
                      "scale " + std::to_string(kScale) + ", " +
                      std::to_string(kTrials) + " register-fault trials, best of " +
                      std::to_string(kReps) + ". Speedup is\n"
                      "bounded by the host's core count (this table is honest, not ideal).");

  const auto w = fabric::workload_from_params(campaign_params());
  const arch::FaultInjector inj(*w);
  std::vector<arch::FaultRecord> reference;
  const double base_s = bench::best_of_seconds(kReps, [&] {
    reference = inj.campaign_run(campaign_spec(), arch::FaultTarget::kRegister).records;
  });

  Table t({"config", "workers", "seconds", "trials/s", "speedup", "identical"});
  t.add_row({"single-process", "-", fmt_sig(base_s, 3),
             fmt_sig(kTrials / base_s, 4), "1.00", "-"});
  for (const std::size_t workers : {1u, 2u, 4u}) {
    double best_s = 0.0;
    bool identical = true;
    for (int rep = 0; rep < kReps; ++rep) {
      double s = 0.0;
      identical = run_fleet(workers, s) == reference && identical;
      best_s = rep == 0 ? s : std::min(best_s, s);
    }
    t.add_row({"fabric", std::to_string(workers), fmt_sig(best_s, 3),
               fmt_sig(kTrials / best_s, 4), fmt_sig(base_s / best_s, 3),
               identical ? "yes" : "NO"});
  }
  bench::print_table(t);
  bench::print_note("identical = merged fleet records of every run match the "
                    "single-process run bit for bit (the fabric's correctness contract).");

  run_handoff_report();
}

void BM_checkpoint_roundtrip(benchmark::State& state) {
  const auto w = fabric::workload_from_params(campaign_params());
  const arch::FaultInjector inj(*w);
  CampaignSpec spec = campaign_spec();
  spec.trials = 256;
  const CampaignCheckpoint ck =
      inj.campaign_shard(inj.resolved_spec(spec, arch::FaultTarget::kRegister),
                         {0, 256}, arch::FaultTarget::kRegister);
  const auto resolved = inj.resolved_spec(spec, arch::FaultTarget::kRegister);
  for (auto _ : state) {
    const std::string wire = encode_checkpoint(ck);
    auto back = decode_checkpoint(wire, resolved, "bench");
    benchmark::DoNotOptimize(back);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(
      state.iterations() * encode_checkpoint(ck).size()));
}
BENCHMARK(BM_checkpoint_roundtrip);

}  // namespace

LORE_BENCH_MAIN(run_experiment_report)
