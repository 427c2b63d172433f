// E12 / Fig. 5: average number of rollbacks per segment generated by the
// checkpointing and rollback-recovery system vs error probability.
// Paper shape: negligible below 1e-6, rapid super-linear growth past it,
// more than 10 rollbacks per segment beyond 1e-5 ("error rate wall").
#include "bench/bench_util.hpp"
#include "src/rollback/montecarlo.hpp"

namespace {

using namespace lore;
using namespace lore::rollback;

void report_parallel_engine();

void report() {
  bench::print_header("Fig. 5 — rollbacks per segment vs error probability",
                      "ADPCM workload, segments of 40k-270k cycles, checkpoint 100 / "
                      "rollback 48 cycles, 100 Monte Carlo runs per point.");
  ExperimentConfig cfg;
  // Resumable under LORE_CHECKPOINT_DIR; the throughput section below stays
  // checkpoint-free so its timings measure only the engine.
  cfg.campaign.checkpoint_path = lore::default_checkpoint_path("fig5_rollbacks");
  const auto result = run_experiment(cfg, {SchedulerKind::kDs});

  Table t({"error_prob", "avg_rollbacks_per_segment", "sem", "analytic_expectation"});
  for (const auto& point : result.points) {
    // Analytic check: mean over segments of Eq. (2)'s expectation.
    double analytic = 0.0;
    for (const auto& seg : result.segments)
      analytic += expected_rollbacks(point.p, seg.nominal_cycles + 100);
    analytic /= static_cast<double>(result.segments.size());
    t.add_numeric_row({point.p, point.avg_rollbacks_per_segment, point.sem_rollbacks,
                       analytic},
                      4);
  }
  bench::print_table(t);
  bench::print_note(
      "Expected: <0.01 rollbacks at 1e-8..1e-7; rapid growth beyond 1e-6; "
      ">10 rollbacks/segment above 1e-5 (the paper's error-rate wall).");
  report_parallel_engine();
}

void report_parallel_engine() {
  ExperimentConfig cfg;
  cfg.error_probabilities = {1e-6, 3e-6, 1e-5, 1e-4};
  cfg.runs_per_point = 100000;
  const std::vector<SchedulerKind> schedulers = {SchedulerKind::kDs, SchedulerKind::kWcet};
  constexpr int kReps = 5;
  const std::size_t total_runs = cfg.error_probabilities.size() * cfg.runs_per_point;
  const std::string sweep =
      "Fig. 5 sweep (4 points x 100000 runs, DS + WCET schedulers; each run draws "
      "its rollback sequence once and scores both), best of 5";

  bench::print_header("Monte Carlo engine — serial throughput",
                      sweep + " on one thread. The gated row: `bench_report.py "
                      "--check` reads its runs_per_s.");
  cfg.campaign.threads = 1;
  ExperimentResult serial;
  const double serial_s =
      bench::best_of_seconds(kReps, [&] { serial = run_experiment(cfg, schedulers); });
  Table serial_table({"threads", "runs", "seconds", "runs_per_s"});
  serial_table.add_row({"1", std::to_string(total_runs), fmt_sig(serial_s, 4),
                        fmt_sig(static_cast<double>(total_runs) / serial_s, 4)});
  bench::print_table(serial_table);

  bench::print_header(
      "Monte Carlo engine — serial vs parallel",
      sweep + " per thread count; per-run counter seeding keeps every sweep "
      "bit-identical to the serial path. Not gated: parallel speedup on a "
      "shared host measures its neighbours as much as the engine.");
  Table t({"threads", "seconds", "speedup_vs_serial", "bit_identical"});
  t.add_row({"1", fmt_sig(serial_s, 4), "1", "yes"});
  for (unsigned threads : {2u, 4u, 8u}) {
    cfg.campaign.threads = threads;
    ExperimentResult result;
    const double elapsed =
        bench::best_of_seconds(kReps, [&] { result = run_experiment(cfg, schedulers); });
    bool identical = true;
    for (std::size_t i = 0; i < serial.points.size(); ++i) {
      identical &= serial.points[i].avg_rollbacks_per_segment ==
                   result.points[i].avg_rollbacks_per_segment;
      identical &= serial.points[i].hit_rate == result.points[i].hit_rate;
    }
    t.add_row({std::to_string(threads), fmt_sig(elapsed, 4), fmt_sig(serial_s / elapsed, 3),
               identical ? "yes" : "NO"});
  }
  bench::print_table(t);
  bench::print_note(
      "Expected: bit_identical=yes on every row. speedup_vs_serial tracks the "
      "free cores of the host (meta.host_cores in the artifact); no scaling is "
      "claimed from it.");
}

void BM_SampleSegmentCycles(benchmark::State& state) {
  lore::Rng rng(1);
  const CheckpointParams params{};
  const double p = 1e-6;
  for (auto _ : state)
    benchmark::DoNotOptimize(sample_segment_cycles(p, 150000, params, rng));
}
BENCHMARK(BM_SampleSegmentCycles);

void BM_FullSweepPoint(benchmark::State& state) {
  ExperimentConfig cfg;
  cfg.error_probabilities = {1e-6};
  cfg.runs_per_point = 10;
  for (auto _ : state)
    benchmark::DoNotOptimize(run_experiment(cfg, {SchedulerKind::kDs}));
}
BENCHMARK(BM_FullSweepPoint)->Unit(benchmark::kMillisecond);

}  // namespace

LORE_BENCH_MAIN(report)
