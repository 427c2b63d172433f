// E5 / Sec. III-B1 [20]: ML models predict flip-flop (register) vulnerability
// from structural/dynamic features, cutting the injection budget — [20]
// reached comparable accuracy with ~20 % of the training data. The sweep
// trains kNN / SVM / GBDT on growing fractions of the campaign and reports
// held-out accuracy.
#include "bench/bench_util.hpp"
#include "src/arch/features.hpp"
#include "src/common/campaign.hpp"
#include "src/common/kernels.hpp"
#include "src/ml/ensemble.hpp"
#include "src/ml/knn.hpp"
#include "src/ml/metrics.hpp"
#include "src/ml/predictor.hpp"
#include "src/ml/svm.hpp"
#include "src/obs/obs.hpp"

namespace {

using namespace lore;
using namespace lore::arch;

ml::Dataset build_dataset() {
  // Registers across all standard workloads form the sample population.
  ml::Dataset all;
  lore::Rng rng(41);
  std::size_t campaign_idx = 0;
  for (std::size_t scale : {1, 2, 3}) {
    for (const auto& w : standard_workloads(scale, 100 + scale)) {
      FaultInjector injector(w);
      // One checkpoint per (scale, workload) campaign; resumable under
      // LORE_CHECKPOINT_DIR, a no-op when the variable is unset.
      lore::CampaignSpec spec;
      spec.trials = 400;
      spec.base_seed = rng.next_u64();
      spec.checkpoint_path = lore::default_checkpoint_path(
          "fi_acceleration_" + std::to_string(campaign_idx++));
      const auto campaign = injector.campaign(spec, FaultTarget::kRegister);
      const auto d = register_vulnerability_dataset(w, campaign, 0.15);
      for (std::size_t i = 0; i < d.size(); ++i)
        all.add(d.x.row(i), d.labels[i], d.targets[i]);
    }
  }
  return all;
}

void report_parallel_campaign();
void report_batch_modes(const FaultInjector& injector);
void report_obs_overhead(const FaultInjector& injector);
void report_batched_inference(const ml::Dataset& data);
void report_prune_campaign();
void report_dead_sites();

void report() {
  bench::print_header("Fault-injection acceleration — accuracy vs training fraction",
                      "Register vulnerability prediction (failure rate > 0.15) across "
                      "the workload suite; features: usage counts, fanout, address/"
                      "branch roles.");
  const auto data = build_dataset();
  lore::Rng rng(43);
  const auto [train_full, test] = ml::train_test_split(data, 0.3, rng);

  Table t({"train_fraction", "knn_acc", "svm_acc", "gbdt_acc"});
  for (double fraction : {0.1, 0.2, 0.4, 0.7, 1.0}) {
    const auto n = std::max<std::size_t>(
        6, static_cast<std::size_t>(fraction * static_cast<double>(train_full.size())));
    lore::Rng pick(47);
    const auto idx = pick.sample_indices(train_full.size(), std::min(n, train_full.size()));
    const auto train = train_full.subset(idx);

    ml::KnnClassifier knn(5);
    ml::LinearSvm svm;
    ml::GradientBoostingClassifier gbdt(
        ml::GradientBoostingClassifierConfig{.num_rounds = 40});
    knn.fit(train.x, train.labels);
    svm.fit(train.x, train.labels);
    gbdt.fit(train.x, train.labels);
    t.add_numeric_row({fraction,
                       ml::accuracy(test.labels, knn.predict_batch(test.x)),
                       ml::accuracy(test.labels, svm.predict_batch(test.x)),
                       ml::accuracy(test.labels, gbdt.predict_batch(test.x))},
                      4);
  }
  bench::print_table(t);
  bench::print_note(
      "Expected: accuracy at 20% of the data within a few points of the full-data "
      "accuracy — the injection campaign can shrink ~5x ([20]'s observation).");
  report_batched_inference(data);
  report_parallel_campaign();
  report_dead_sites();
  report_prune_campaign();
}

/// Tentpole section for the batched ML inference hot path (DESIGN.md §13):
/// panel-packed SoA features + blocked SIMD kernels vs the per-sample
/// reference loop, on the same trained models. Predictions must match
/// exactly — the batched path is a faster arrangement of the same
/// arithmetic, not an approximation.
void report_batched_inference(const ml::Dataset& data) {
  bench::print_header(
      "ML inference — per-sample reference vs batched SIMD hot path",
      "kNN / linear SVM / GBDT trained on the register-vulnerability data, "
      "then scoring a 4096-row query block: per-sample virtual predict() loop "
      "vs predict_batch() (blocked multi-query / interleaved-row kernels, "
      "Arena scratch; best of 3 runs per cell).");
  ml::KnnClassifier knn(5);
  ml::LinearSvm svm;
  ml::GradientBoostingClassifier gbdt(
      ml::GradientBoostingClassifierConfig{.num_rounds = 40});
  knn.fit(data.x, data.labels);
  svm.fit(data.x, data.labels);
  gbdt.fit(data.x, data.labels);

  // A query block big enough to measure: the dataset rows tiled to 4096.
  constexpr std::size_t kRows = 4096;
  ml::Matrix queries(kRows, data.x.cols());
  for (std::size_t r = 0; r < kRows; ++r) {
    const auto src = data.x.row(r % data.x.rows());
    std::copy(src.begin(), src.end(), queries.row(r).begin());
  }

  Table t({"model", "rows", "per_sample_s", "batched_s", "speedup", "identical"});
  const auto add_model = [&](const char* name, const ml::Classifier& model) {
    std::vector<int> ref(kRows);
    const double ref_s = bench::best_of_seconds(3, [&] {
      for (std::size_t r = 0; r < kRows; ++r) ref[r] = model.predict(queries.row(r));
    });
    std::vector<int> batched;
    const double batched_s =
        bench::best_of_seconds(3, [&] { batched = model.predict_batch(queries); });
    t.add_row({name, std::to_string(kRows), fmt_sig(ref_s, 4), fmt_sig(batched_s, 4),
               fmt_sig(ref_s / batched_s, 3), batched == ref ? "yes" : "NO"});
  };
  add_model("knn", knn);
  add_model("linear-svm", svm);
  add_model("gbdt", gbdt);
  bench::print_table(t);
  bench::print_note(
      "Expected: identical=yes on every row, speedup ~1.5-4x by model on a "
      "1-core host (kNN gains most: its panel passes are shared across query "
      "tiles). The ceiling is architectural, not implementation slack: "
      "the per-sample loop's iterations are independent, so out-of-order "
      "hardware already overlaps them, and the bit-identity contract forbids "
      "FMA/reassociation; batching wins by shared panel passes, interleaved "
      "dependency chains, and zero per-query allocation. The campaign-level "
      "speedup compounds this with 1/(1-prune_rate) — next section.");
}

void report_parallel_campaign() {
  bench::print_header(
      "Campaign engine — serial vs parallel throughput",
      "1M-trial register fault-injection campaign on the checksum workload, "
      "best of 5 per row; counter-based per-trial seeding keeps every thread "
      "count bit-identical to the serial path (threads=1).");
  const auto w = make_checksum(12, 5);
  const FaultInjector injector(w);
  // Long enough that every row, 8 threads included, takes well over 50 ms:
  // at 10k trials thread start-up dominated the parallel rows and they
  // jittered by tens of percent between back-to-back runs.
  constexpr std::size_t kTrials = 1000000;
  constexpr std::uint64_t kSeed = 2024;

  // Every row is the best of 5 runs: one timed run jitters on a shared host.
  constexpr int kReps = 5;
  std::vector<FaultRecord> serial;
  const double serial_s = bench::best_of_seconds(
      kReps, [&] { serial = injector.campaign(kTrials, FaultTarget::kRegister, kSeed, 1); });

  Table t({"threads", "seconds", "trials_per_s", "speedup_vs_serial", "bit_identical"});
  for (unsigned threads : {1u, 2u, 4u, 8u}) {
    std::vector<FaultRecord> records;
    const double elapsed =
        threads == 1 ? serial_s : bench::best_of_seconds(kReps, [&] {
          records = injector.campaign(kTrials, FaultTarget::kRegister, kSeed, threads);
        });
    const bool identical = threads == 1 || records == serial;
    t.add_row({std::to_string(threads), fmt_sig(elapsed, 4),
               fmt_sig(static_cast<double>(kTrials) / elapsed, 4),
               fmt_sig(serial_s / elapsed, 3), identical ? "yes" : "NO"});
  }
  bench::print_table(t);
  bench::print_note(
      "Expected: near-linear scaling up to the machine's core count with "
      "bit_identical=yes on every row (the determinism contract).");
  report_batch_modes(injector);
  report_obs_overhead(injector);
}

/// Tentpole section for the allocation-free trial hot path (DESIGN.md §11):
/// the per-trial reference body (fresh Cpu + full golden replay per trial,
/// run as a serial `replay_trial` loop over the campaign's trial seeds) vs
/// the batched campaign body restoring golden snapshots from arena-backed
/// scratch, with scalar and runtime-dispatched SIMD kernels.
/// All three modes must produce bit-identical records — speed is the only
/// permitted difference.
void report_batch_modes(const FaultInjector& injector) {
  bench::print_header(
      "Trial hot path — reference vs SoA batch (scalar / SIMD kernels)",
      "100k-trial serial register campaign on the checksum workload. "
      "`reference` is a serial loop of the single-trial reference "
      "replay_trial(trial_seed(seed, t)); `soa+scalar` pins the batched "
      "campaign body to scalar kernels; `soa+simd` uses the best runtime "
      "dispatch. Best of 3 runs.");
  constexpr std::size_t kTrials = 100000;
  constexpr std::uint64_t kSeed = 2024;
  const auto dispatch_saved = kernels::active_dispatch();

  std::vector<FaultRecord> reference;
  Table t({"mode", "threads", "seconds", "trials_per_s", "speedup_vs_reference",
           "bit_identical"});
  double reference_s = 0.0;
  const auto add_row = [&](const char* mode, double elapsed,
                           const std::vector<FaultRecord>& records) {
    t.add_row({mode, "1", fmt_sig(elapsed, 4),
               fmt_sig(static_cast<double>(kTrials) / elapsed, 4),
               fmt_sig(reference_s / elapsed, 3), records == reference ? "yes" : "NO"});
  };
  const auto add_mode = [&](const char* mode) {
    std::vector<FaultRecord> records;
    const double elapsed = bench::best_of_seconds(3, [&] {
      records = injector.campaign(kTrials, FaultTarget::kRegister, kSeed, 1);
    });
    add_row(mode, elapsed, records);
  };

  reference_s = bench::best_of_seconds(3, [&] {
    reference.clear();
    for (std::size_t i = 0; i < kTrials; ++i)
      reference.push_back(
          injector.replay_trial(lore::trial_seed(kSeed, i), FaultTarget::kRegister));
  });
  add_row("reference", reference_s, reference);
  kernels::set_dispatch(kernels::Dispatch::kScalar);
  add_mode("soa+scalar");
  kernels::set_dispatch(kernels::best_dispatch());
  const bool simd = kernels::active_dispatch() == kernels::Dispatch::kAvx2;
  add_mode(simd ? "soa+simd" : "soa+simd (no avx2: scalar)");

  kernels::set_dispatch(dispatch_saved);
  bench::print_table(t);
  bench::print_note(
      "Expected: bit_identical=yes on every row; the SoA rows amortize golden "
      "re-execution into snapshot restores (undo-logged memory writes), so "
      "speedup_vs_reference should be well above 1 on both SoA rows (2-5x "
      "measured, depending on the host).");
}

/// Satellite check for the observability subsystem: the instrumented
/// campaign path must cost (nearly) the same with metrics collection off,
/// on, and on with the whole live pipeline — live event counts + Aggregator
/// + /metrics exposition server — running alongside (DESIGN.md §10). The off
/// path is also reachable at compile time via -DLORE_OBS=OFF.
void report_obs_overhead(const FaultInjector& injector) {
  bench::print_header(
      "Observability overhead — off vs on vs on+serve",
      "One 10k-trial serial campaign with (1) the metrics registry disabled "
      "(LORE_OBS runtime switch), (2) enabled, and (3) enabled with the live "
      "pipeline running: per-kind event counts read by a 50 ms Aggregator plus "
      "the HTTP exposition server bound on an ephemeral port. Best of 5 per "
      "row.");
  constexpr std::size_t kTrials = 10000;
  constexpr std::uint64_t kSeed = 2024;
  const bool was_enabled = obs::enabled();
  // The section manages its own pipeline so the three rows are comparable
  // even when LORE_SERVE already started the global one.
  const bool global_pipeline = obs::Pipeline::global().running();
  if (global_pipeline) obs::Pipeline::global().stop();

  Table t({"mode", "seconds", "trials_per_s", "overhead_vs_off"});
  double off_s = 0.0;
  std::vector<FaultRecord> reference;  // the off row's records
  for (int mode = 0; mode < 3; ++mode) {
    obs::set_enabled(mode != 0);
    obs::AggregatorConfig acfg;
    acfg.interval = std::chrono::milliseconds(50);
    obs::Aggregator agg(acfg);
    obs::MetricsServer server(&agg);
    if (mode == 2) {
      agg.start();
      server.start(obs::ServeConfig{.port = 0});
    }
    std::vector<FaultRecord> records;
    const double elapsed = bench::best_of_seconds(
        5, [&] { records = injector.campaign(kTrials, FaultTarget::kRegister, kSeed, 1); });
    if (mode == 2) {
      server.stop();
      agg.stop();
    }
    obs::set_enabled(was_enabled);
    if (mode == 0) {
      off_s = elapsed;
      reference = records;
    } else if (records != reference) {
      bench::print_note("WARNING: obs toggle changed campaign results");
    }
    const char* label = mode == 0 ? "off" : mode == 1 ? "on" : "on+serve";
    t.add_row({label, fmt_sig(elapsed, 4),
               fmt_sig(static_cast<double>(kTrials) / elapsed, 4),
               mode ? fmt_sig(elapsed / off_s, 3) : std::string("1.000")});
  }
  bench::print_table(t);
  bench::print_note(
      "Expected: overhead_vs_off ~ 1.0 on every row (instrumentation is "
      "zero-cost when compiled out, branch-cheap when disabled, and the "
      "pipeline adds one relaxed atomic add per event).");

  if (global_pipeline && !obs::start_pipeline_from_env())
    obs::Pipeline::global().start();
}

/// Exact dead-site rule of the batched trial body (DESIGN.md §11, "Dead
/// sites"): per-target throughput over the six kernels of the end-to-end
/// benchmark's campaign mix (perfbench/kernels.cpp, same scales), and the
/// share of trials decided without simulation, read from the
/// `arch.fault.dead_site_trials` counter.
void report_dead_sites() {
  bench::print_header(
      "Dead-site short-circuit — per-target trials/s on the perfbench kernels",
      "Serial 2k-trial campaign per kernel (dot_product 16, checksum 64, "
      "fibonacci 64, find_max 64, bubble_sort 32, matmul 12), each timed best "
      "of 5; trials_per_s = 12k trials / the summed best seconds. "
      "dead_site_share = trials returned benign without simulating because "
      "the golden run next writes the flipped location or never reads it again.");
  const std::vector<Workload> kernels = {make_dot_product(16, 11), make_checksum(64, 12),
                                         make_fibonacci(64),       make_find_max(64, 13),
                                         make_bubble_sort(32, 14), make_matmul(12, 15)};
  std::vector<std::unique_ptr<FaultInjector>> injectors;
  for (const auto& w : kernels) injectors.push_back(std::make_unique<FaultInjector>(w));
  constexpr std::size_t kTrials = 2000;
  constexpr int kReps = 5;
  const bool counted = obs::kCompiledIn && obs::enabled();
  auto& dead_counter = obs::MetricsRegistry::global().counter("arch.fault.dead_site_trials");

  Table t({"target", "trials", "seconds", "trials_per_s", "dead_site_share"});
  const std::pair<FaultTarget, const char*> targets[] = {
      {FaultTarget::kRegister, "register"},
      {FaultTarget::kMemory, "memory"},
      {FaultTarget::kInstruction, "instruction"}};
  for (const auto& [target, name] : targets) {
    const std::uint64_t dead_before = dead_counter.value();
    double seconds = 0.0;
    for (std::size_t k = 0; k < kernels.size(); ++k)
      seconds += bench::best_of_seconds(kReps, [&] {
        injectors[k]->campaign(kTrials, target, 2024 + k, 1);
      });
    const double trials = static_cast<double>(kTrials * kernels.size());
    const double dead = static_cast<double>(dead_counter.value() - dead_before) / kReps;
    t.add_row({name, fmt_sig(trials, 6), fmt_sig(seconds, 4), fmt_sig(trials / seconds, 4),
               counted ? fmt_sig(dead / trials, 3) : std::string("-")});
  }
  bench::print_table(t);
  bench::print_note(
      "Expected: a dead-site share well above zero on every target (registers "
      "the kernels never touch, consumed input words, instructions already "
      "past); records stay bit-identical to the always-simulating replay_trial "
      "(the simd differential suite).");
}

/// Tentpole section for the online predict-and-prune campaign loop
/// (DESIGN.md §13): a warm-up campaign feeds the Predictor, then the same
/// campaign runs full vs pruned at several benign thresholds. Effective
/// throughput counts every trial the campaign covered (executed + pruned)
/// per wall second; the audit rows keep the accuracy cost honest.
void report_prune_campaign() {
  bench::print_header(
      "Predict-and-prune campaign — full vs pruned effective throughput",
      "20k-trial register campaign on the matmul workload (trial cost is a "
      "partial golden replay, so heavier workloads gain more from skipping), "
      "every row timed best of 5. "
      "Warm-up: 3k trials with an untrained predictor (nothing prunes, every "
      "trial feeds the model), then train. Pruned rows skip predicted-benign "
      "trials except a 5% seeded audit; false_benign_rate is the "
      "audit-measured share of the pruned class that was NOT benign.");
  const auto w = make_matmul(8, 5);
  const FaultInjector injector(w);
  constexpr std::size_t kTrials = 20000;

  ml::PredictorConfig pcfg;
  pcfg.model = ml::PredictorModel::kGbdt;
  pcfg.gbdt.num_rounds = 30;
  ml::Predictor predictor(pcfg);

  lore::CampaignSpec warmup;
  warmup.trials = 3000;
  warmup.base_seed = 7;
  warmup.threads = 1;
  PruneCampaignOptions warmup_opt;
  warmup_opt.feedback_stride = 1;
  injector.campaign_run_pruned(warmup, FaultTarget::kRegister, predictor, warmup_opt);
  predictor.train_now();
  const auto snap = predictor.snapshot();
  if (!snap) {
    bench::print_note("predictor never reached the validation floor — section skipped");
    return;
  }
  bench::print_note("predictor: " + std::string(ml::predictor_model_name(snap->family())) +
                    " v" + std::to_string(snap->version()) + ", holdout accuracy " +
                    fmt_sig(snap->validation_accuracy(), 3));

  lore::CampaignSpec spec;
  spec.trials = kTrials;
  spec.base_seed = 2024;
  spec.threads = 1;

  // Each row is ~0.1 s of work timed on a shared host: best of 5. Pruned
  // runs feed the predictor's observation ring but never retrain it, so
  // every repetition prunes the same trials.
  constexpr int kReps = 5;
  const double full_s = bench::best_of_seconds(
      kReps, [&] { injector.campaign(spec, FaultTarget::kRegister); });

  Table t({"mode", "threshold", "executed", "pruned", "audits", "false_benign_rate",
           "seconds", "effective_trials_per_s", "speedup_vs_full"});
  t.add_row({"full", "-", std::to_string(kTrials), "0", "-", "-", fmt_sig(full_s, 4),
             fmt_sig(static_cast<double>(kTrials) / full_s, 4), "1.00"});
  for (double threshold : {0.9, 0.8, 0.7, 0.6}) {
    PruneCampaignOptions opt;
    opt.benign_threshold = threshold;
    opt.audit_fraction = 0.05;
    lore::CampaignResult<FaultRecord> pruned;
    const double elapsed = bench::best_of_seconds(kReps, [&] {
      pruned = injector.campaign_run_pruned(spec, FaultTarget::kRegister, predictor, opt);
    });
    const auto& rep = pruned.report;
    const double fb_rate = rep.prune_audits
                               ? static_cast<double>(rep.prune_false_benign) /
                                     static_cast<double>(rep.prune_audits)
                               : 0.0;
    t.add_row({"pruned", fmt_sig(threshold, 2), std::to_string(rep.completed),
               std::to_string(rep.pruned), std::to_string(rep.prune_audits),
               fmt_sig(fb_rate, 3), fmt_sig(elapsed, 4),
               fmt_sig(static_cast<double>(kTrials) / elapsed, 4),
               fmt_sig(full_s / elapsed, 3)});
  }
  bench::print_table(t);
  bench::print_note(
      "Expected: effective trials/s about 1.0-1.3x the full row at the 0.6 and "
      "0.7 operating points, with a small audit-measured false_benign_rate. "
      "Most trials the predictor prunes are dead sites, which the full row "
      "already decides exactly by lookup (previous section), so pruning saves "
      "little beyond its own scoring cost. 0.9 prunes nothing (GBDT sigmoid "
      "margins top out near 0.84) and pays the scoring, so it reads below 1x.");
}

void BM_RegisterFeatures(benchmark::State& state) {
  const auto w = make_dot_product(16, 1);
  for (auto _ : state) benchmark::DoNotOptimize(register_features(w, 3));
}
BENCHMARK(BM_RegisterFeatures)->Unit(benchmark::kMicrosecond);

void BM_SingleInjection(benchmark::State& state) {
  const auto w = make_dot_product(16, 1);
  FaultInjector injector(w);
  const FaultSite site{FaultTarget::kRegister, 3, 12, 40};
  for (auto _ : state) benchmark::DoNotOptimize(injector.inject(site));
}
BENCHMARK(BM_SingleInjection)->Unit(benchmark::kMicrosecond);

}  // namespace

LORE_BENCH_MAIN(report)
