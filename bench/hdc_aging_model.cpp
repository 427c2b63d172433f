// E4 / Sec. II [18]: an HDC model mimics the foundry's confidential
// physics-based aging model. LORE's reaction-diffusion NBTI+HCI model plays
// the confidential role: the HDC regressor trains on (stress stimulus ->
// delta-Vth) pairs and, once trained, exposes a non-pessimistic aging
// estimate without revealing the physics parameters — enabling
// close-to-the-edge guardbands instead of worst-case ones.
#include <algorithm>
#include <cmath>

#include "bench/bench_util.hpp"
#include "src/common/stats.hpp"
#include "src/device/aging.hpp"
#include "src/ml/hdc.hpp"

namespace {

using namespace lore;
using namespace lore::ml;

void report() {
  bench::print_header("HDC aging-model mimicry (delta-Vth prediction)",
                      "Ground truth: reaction-diffusion NBTI + HCI ('confidential "
                      "foundry model'); HDC regressor trained on stress stimuli.");
  device::AgingModel foundry_model;

  // Stimulus space: vdd, temperature, duty, activity, log-time.
  const std::vector<std::pair<double, double>> ranges{
      {0.6, 1.1}, {300.0, 400.0}, {0.05, 1.0}, {0.05, 2.0}, {-1.0, 1.3}};
  RecordEncoder encoder(ranges, RecordEncoderConfig{.dim = 8192, .levels = 48});
  HdcRegressor hdc(&encoder, HdcRegressorConfig{.target_levels = 40});

  lore::Rng rng(31);
  auto sample_stress = [&](device::StressCondition* stress, std::vector<double>* features) {
    stress->vdd = rng.uniform(0.6, 1.1);
    stress->temperature = rng.uniform(300.0, 400.0);
    stress->duty_cycle = rng.uniform(0.05, 1.0);
    stress->toggle_rate_ghz = rng.uniform(0.05, 2.0);
    const double log_years = rng.uniform(-1.0, 1.3);  // 0.1 .. 20 years
    stress->years = std::pow(10.0, log_years);
    *features = {stress->vdd, stress->temperature, stress->duty_cycle,
                 stress->toggle_rate_ghz, log_years};
  };

  std::vector<std::vector<double>> x;
  std::vector<double> y;
  for (int i = 0; i < 1500; ++i) {
    device::StressCondition stress;
    std::vector<double> features;
    sample_stress(&stress, &features);
    x.push_back(std::move(features));
    y.push_back(foundry_model.delta_vth(stress));
  }
  hdc.fit(x, y);

  // Held-out evaluation against the worst-case estimate designers would
  // otherwise use (the model's maximum over the stimulus space).
  const double worst_case = *std::max_element(y.begin(), y.end());
  RunningStats abs_err, margin_hdc, margin_wc;
  for (int i = 0; i < 400; ++i) {
    device::StressCondition stress;
    std::vector<double> features;
    sample_stress(&stress, &features);
    const double truth = foundry_model.delta_vth(stress);
    const double pred = hdc.predict(features);
    abs_err.add(std::abs(pred - truth));
    // Guardband margin: how much headroom each approach reserves over truth.
    margin_hdc.add(std::max(0.0, pred - truth));
    margin_wc.add(worst_case - truth);
  }

  Table t({"estimator", "mean_abs_err_mV", "mean_overmargin_mV"});
  t.add_row({"HDC mimic", fmt_sig(abs_err.mean() * 1000.0, 4),
             fmt_sig(margin_hdc.mean() * 1000.0, 4)});
  t.add_row({"worst-case corner", "-", fmt_sig(margin_wc.mean() * 1000.0, 4)});
  bench::print_table(t);
  bench::print_note(
      "Expected: HDC prediction error of a few mV — orders of magnitude less "
      "pessimism than the worst-case margin, while the physics parameters stay "
      "hidden inside hypervectors.");
}

// End-to-end cost of the aging-mimicry pipeline on the packed engine.
void engine_cost_report() {
  bench::print_header(
      "HDC aging model — packed engine cost (dim 8192)",
      "Regressor fit (600 samples) and predict (200 queries), one thread, "
      "best of 3 runs.");
  const std::vector<std::pair<double, double>> ranges{
      {0.6, 1.1}, {300.0, 400.0}, {0.05, 1.0}, {0.05, 2.0}, {-1.0, 1.3}};

  lore::Rng rng(33);
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  device::AgingModel foundry_model;
  for (int i = 0; i < 600; ++i) {
    device::StressCondition stress;
    stress.vdd = rng.uniform(0.6, 1.1);
    stress.temperature = rng.uniform(300.0, 400.0);
    stress.duty_cycle = rng.uniform(0.05, 1.0);
    stress.toggle_rate_ghz = rng.uniform(0.05, 2.0);
    const double log_years = rng.uniform(-1.0, 1.3);
    stress.years = std::pow(10.0, log_years);
    x.push_back({stress.vdd, stress.temperature, stress.duty_cycle,
                 stress.toggle_rate_ghz, log_years});
    y.push_back(foundry_model.delta_vth(stress));
  }

  constexpr std::size_t kQueries = 200;
  RecordEncoder encoder(ranges, RecordEncoderConfig{.dim = 8192, .levels = 48});
  HdcRegressor hdc(&encoder, HdcRegressorConfig{.target_levels = 40, .threads = 1});
  const double fit_s = bench::best_of_seconds(3, [&] { hdc.fit(x, y); });
  double checksum = 0.0;
  const double predict_s = bench::best_of_seconds(3, [&] {
    for (std::size_t i = 0; i < kQueries; ++i) checksum += hdc.predict(x[i]);
  });
  benchmark::DoNotOptimize(checksum);

  Table t({"stage", "ms", "samples_per_s"});
  t.add_row({"fit (600 samples)", fmt_sig(fit_s * 1e3, 4),
             fmt_sig(static_cast<double>(x.size()) / fit_s, 4)});
  t.add_row({"predict (200 queries)", fmt_sig(predict_s * 1e3, 4),
             fmt_sig(static_cast<double>(kQueries) / predict_s, 4)});
  bench::print_table(t);
}

void full_report() {
  report();
  engine_cost_report();
}

void BM_HdcAgingPredict(benchmark::State& state) {
  const std::vector<std::pair<double, double>> ranges{
      {0.6, 1.1}, {300.0, 400.0}, {0.05, 1.0}, {0.05, 2.0}, {-1.0, 1.3}};
  RecordEncoder encoder(ranges, RecordEncoderConfig{.dim = 4096, .levels = 32});
  HdcRegressor hdc(&encoder);
  std::vector<std::vector<double>> x{{0.8, 350.0, 0.5, 0.5, 0.0}, {1.0, 380.0, 0.9, 1.5, 1.0}};
  std::vector<double> y{0.01, 0.05};
  hdc.fit(x, y);
  for (auto _ : state) benchmark::DoNotOptimize(hdc.predict(x[0]));
}
BENCHMARK(BM_HdcAgingPredict)->Unit(benchmark::kMicrosecond);

void BM_FoundryModel(benchmark::State& state) {
  device::AgingModel model;
  device::StressCondition stress{};
  for (auto _ : state) benchmark::DoNotOptimize(model.delta_vth(stress));
}
BENCHMARK(BM_FoundryModel);

}  // namespace

LORE_BENCH_MAIN(full_report)
