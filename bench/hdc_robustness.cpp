// E3 / Sec. II claim: hyperdimensional computing keeps its accuracy under
// massive component error rates (the paper: ~40 % errors cost only ~0.5 %
// accuracy), because hypervector components are i.i.d. An MLP evaluated with
// equivalent hidden-unit corruption collapses much faster.
#include <algorithm>
#include <cmath>

#include "bench/bench_util.hpp"
#include "src/common/rng.hpp"
#include "src/ml/hdc.hpp"
#include "src/ml/mlp.hpp"

namespace {

using namespace lore;
using namespace lore::ml;

struct Problem {
  std::vector<std::vector<double>> x;
  std::vector<int> y;
  std::size_t features = 6;
  std::size_t classes = 4;

  explicit Problem(std::uint64_t seed) {
    lore::Rng rng(seed);
    std::vector<std::vector<double>> centers(classes, std::vector<double>(features));
    for (auto& c : centers)
      for (auto& v : c) v = rng.uniform(0.15, 0.85);
    for (int i = 0; i < 600; ++i) {
      const auto cls = static_cast<int>(i % classes);
      std::vector<double> row(features);
      for (std::size_t f = 0; f < features; ++f)
        row[f] = std::clamp(centers[static_cast<std::size_t>(cls)][f] + rng.normal(0.0, 0.06),
                            0.0, 1.0);
      x.push_back(std::move(row));
      y.push_back(cls);
    }
  }
};

void report() {
  bench::print_header("HDC robustness — accuracy vs component error rate",
                      "4-class classification; HDC prototypes over 4096-dim bipolar "
                      "hypervectors vs an MLP with equivalent hidden corruption.");
  Problem problem(11);
  RecordEncoder encoder(
      std::vector<std::pair<double, double>>(problem.features, {0.0, 1.0}),
      RecordEncoderConfig{.dim = 4096, .levels = 24});
  HdcClassifier hdc(&encoder);
  hdc.fit(problem.x, problem.y);

  Matrix mx;
  for (const auto& row : problem.x) mx.push_row(row);
  MlpClassifier mlp(MlpConfig{.hidden = {32}, .epochs = 150});
  mlp.fit(mx, problem.y);

  lore::Rng noise(21);
  Table t({"component_error_rate", "hdc_accuracy", "hdc_drop_pct", "mlp_accuracy"});
  double hdc_clean = 0.0;
  for (double err : {0.0, 0.05, 0.10, 0.20, 0.30, 0.40, 0.50}) {
    std::size_t hdc_hits = 0, mlp_hits = 0;
    for (std::size_t i = 0; i < problem.x.size(); ++i) {
      hdc_hits += hdc.predict(problem.x[i], err, &noise) == problem.y[i];
      // MLP corruption: the same fraction of first-hidden-layer activations
      // forced to a wrong extreme value.
      auto layers = mlp.network().forward_layers(problem.x[i]);
      for (auto& v : layers[1])
        if (noise.bernoulli(err)) v = noise.bernoulli(0.5) ? 10.0 : -10.0;
      const auto out = mlp.network().forward_from_layer(1, layers[1]);
      const auto pred = static_cast<int>(
          std::max_element(out.begin(), out.end()) - out.begin());
      mlp_hits += pred == problem.y[i];
    }
    const double hdc_acc = static_cast<double>(hdc_hits) / static_cast<double>(problem.x.size());
    const double mlp_acc = static_cast<double>(mlp_hits) / static_cast<double>(problem.x.size());
    if (err == 0.0) hdc_clean = hdc_acc;
    t.add_numeric_row({err, hdc_acc, (hdc_clean - hdc_acc) * 100.0, mlp_acc}, 4);
  }
  bench::print_table(t);
  bench::print_note(
      "Expected: HDC accuracy nearly flat to ~40% errors (drop of a fraction of a "
      "percent to a few percent), while the corrupted MLP degrades far more.");
}

/// ns/op of `fn` over `iters` calls, best of 5 runs (a DoNotOptimize sink
/// defeats DCE).
template <typename Fn>
double ns_per_op(std::size_t iters, Fn&& fn) {
  const double secs = bench::best_of_seconds(5, [&] {
    for (std::size_t i = 0; i < iters; ++i) benchmark::DoNotOptimize(fn());
  });
  return secs * 1e9 / static_cast<double>(iters);
}

// The microbench table behind the packed engine, at the production dim of
// the robustness experiment.
void kernel_report() {
  bench::print_header(
      "HDC packed kernels (dim 4096)",
      "uint64 word-parallel kernels (bind: XOR, hamming: XOR+popcount, "
      "permute: rotate w/ carry, bundle: carry-save bit-plane counters); "
      "best of 5 runs.");
  const std::size_t dim = 4096;
  lore::Rng rng(61);
  const auto pa = Hypervector::random(dim, rng);
  const auto pb = Hypervector::random(dim, rng);

  Table t({"kernel", "ns", "ops_per_s"});
  auto add_row = [&](const char* kernel, double ns) {
    t.add_row({kernel, fmt_sig(ns, 4), fmt_sig(1e9 / ns, 4)});
  };

  add_row("bind", ns_per_op(400000, [&] { return pa.bind(pb); }));
  add_row("hamming", ns_per_op(400000, [&] { return pa.hamming(pb); }));
  add_row("similarity", ns_per_op(400000, [&] { return pa.similarity(pb); }));
  add_row("permute", ns_per_op(400000, [&] { return pa.permute(129); }));
  {
    Accumulator acc(dim);
    add_row("accumulate", ns_per_op(100000, [&] {
              acc.add(pa);
              return acc.count();
            }));
  }
  bench::print_table(t);
}

// predict_batch thread scaling (the PR-1 contract: identical outputs for any
// team size, wall-clock drops with threads).
void batch_predict_scaling_report() {
  bench::print_header(
      "HDC batch predict — thread scaling (dim 4096, 20% component errors)",
      "predict_batch over the full 600-query robustness dataset; per-query "
      "noise streams are trial-seeded, so every team size returns the same "
      "predictions.");
  Problem problem(14);
  RecordEncoder encoder(
      std::vector<std::pair<double, double>>(problem.features, {0.0, 1.0}),
      RecordEncoderConfig{.dim = 4096, .levels = 24});
  std::vector<int> baseline;
  double t1 = 0.0;
  Table t({"threads", "batch_ms", "speedup_vs_1t", "identical_to_1t"});
  for (const unsigned threads : {1u, 2u, 4u, 8u}) {
    HdcClassifier hdc(&encoder, HdcClassifierConfig{.threads = threads});
    hdc.fit(problem.x, problem.y);
    std::vector<int> preds;
    const double secs = bench::timed_seconds(
        [&] { preds = hdc.predict_batch(problem.x, 0.2, /*noise_seed=*/15); });
    if (threads == 1) {
      baseline = preds;
      t1 = secs;
    }
    t.add_row({std::to_string(threads), fmt_sig(secs * 1e3, 4),
               fmt_sig(t1 / secs, 3), preds == baseline ? "yes" : "NO"});
  }
  bench::print_table(t);
  bench::print_note(
      "Wall-clock scaling tracks the cores actually available; the invariance "
      "column is the contract — every team size must predict identically.");
}

void full_report() {
  report();
  kernel_report();
  batch_predict_scaling_report();
}

void BM_HdcEncode(benchmark::State& state) {
  Problem problem(12);
  RecordEncoder encoder(
      std::vector<std::pair<double, double>>(problem.features, {0.0, 1.0}),
      RecordEncoderConfig{.dim = 4096, .levels = 24});
  for (auto _ : state) benchmark::DoNotOptimize(encoder.encode(problem.x[0]));
}
BENCHMARK(BM_HdcEncode)->Unit(benchmark::kMicrosecond);

void BM_HdcPredict(benchmark::State& state) {
  Problem problem(13);
  RecordEncoder encoder(
      std::vector<std::pair<double, double>>(problem.features, {0.0, 1.0}),
      RecordEncoderConfig{.dim = 4096, .levels = 24});
  HdcClassifier hdc(&encoder);
  hdc.fit(problem.x, problem.y);
  for (auto _ : state) benchmark::DoNotOptimize(hdc.predict(problem.x[0]));
}
BENCHMARK(BM_HdcPredict)->Unit(benchmark::kMicrosecond);

}  // namespace

LORE_BENCH_MAIN(full_report)
