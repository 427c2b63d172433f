#include "src/ml/predictor.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "src/common/kernels.hpp"
#include "src/common/rng.hpp"
#include "src/obs/obs.hpp"

namespace lore::ml {
namespace {

/// The predictor's counters, resolved on first use.
obs::Counter& trainings_counter() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter("ml.predictor.trainings");
  return c;
}
obs::Counter& swaps_counter() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter("ml.predictor.swaps");
  return c;
}

}  // namespace

const char* predictor_model_name(PredictorModel m) {
  switch (m) {
    case PredictorModel::kKnn: return "knn";
    case PredictorModel::kSvm: return "linear-svm";
    case PredictorModel::kGbdt: return "gbdt";
  }
  return "?";
}

void PredictorSnapshot::predict_benign(const double* x, std::size_t n,
                                       std::span<double> p_benign,
                                       unsigned threads) const {
  assert(p_benign.size() >= n);
  switch (family_) {
    case PredictorModel::kKnn:
      knn_.class_votes_batch(x, n, /*cls=*/1, p_benign, threads);
      return;
    case PredictorModel::kSvm:
      svm_.decision_batch(x, n, p_benign, threads);
      // Same Platt-style squashing as LinearSvm::predict_proba.
      for (std::size_t r = 0; r < n; ++r)
        p_benign[r] = 1.0 / (1.0 + std::exp(-2.0 * p_benign[r]));
      return;
    case PredictorModel::kGbdt:
      gbdt_.margin_batch(/*head=*/0, x, n, p_benign, threads);
      for (std::size_t r = 0; r < n; ++r)
        p_benign[r] = 1.0 / (1.0 + std::exp(-p_benign[r]));
      return;
  }
}

Predictor::Predictor(PredictorConfig cfg) : cfg_(cfg) {
  assert(cfg_.max_buffer > 0 && cfg_.min_train_samples > 0);
}

Predictor::~Predictor() { stop_background(); }

std::shared_ptr<const PredictorSnapshot> Predictor::snapshot() const {
  std::lock_guard lock(mu_);
  return snap_;
}

void Predictor::observe(std::span<const double> features, bool benign) {
  std::lock_guard lock(mu_);
  if (dim_ == 0) dim_ = features.size();
  assert(features.size() == dim_ && dim_ > 0);
  if (count_ < cfg_.max_buffer) {
    features_.insert(features_.end(), features.begin(), features.end());
    labels_.push_back(benign ? 1 : 0);
    ++count_;
    write_pos_ = count_ % cfg_.max_buffer;
  } else {
    std::copy(features.begin(), features.end(), features_.begin() + write_pos_ * dim_);
    labels_[write_pos_] = benign ? 1 : 0;
    write_pos_ = (write_pos_ + 1) % cfg_.max_buffer;
  }
  ++observed_total_;
}

bool Predictor::train_if_due() {
  {
    std::lock_guard lock(mu_);
    if (count_ < cfg_.min_train_samples) return false;
    if (observed_total_ - observed_at_last_train_ < cfg_.retrain_interval &&
        snap_ != nullptr)
      return false;
  }
  return train_candidate();
}

bool Predictor::train_now() {
  {
    std::lock_guard lock(mu_);
    if (count_ < cfg_.min_train_samples) return false;
  }
  return train_candidate();
}

bool Predictor::train_candidate() {
  // Copy the buffer out under the lock, then train unlocked — observation and
  // scoring continue against the old snapshot while the candidate builds.
  Matrix x;
  std::vector<int> y;
  std::uint64_t version = 0;
  double live_accuracy = 0.0;
  {
    std::lock_guard lock(mu_);
    if (count_ < cfg_.min_train_samples || dim_ == 0) return false;
    x = Matrix(count_, dim_);
    std::copy(features_.begin(), features_.begin() + count_ * dim_, x.flat().begin());
    y.resize(count_);
    for (std::size_t i = 0; i < count_; ++i) y[i] = labels_[i];
    version = next_version_++;
    observed_at_last_train_ = observed_total_;
    ++trainings_;
    if (snap_) live_accuracy = snap_->validation_accuracy();
  }

  // Seeded holdout split: deterministic for (config seed, version).
  const std::size_t n = x.rows();
  auto holdout_count = static_cast<std::size_t>(cfg_.holdout_fraction * static_cast<double>(n));
  if (holdout_count >= n) holdout_count = n - 1;
  std::vector<std::uint8_t> is_holdout(n, 0);
  if (holdout_count > 0) {
    Rng rng(kernels::scalar::trial_seed_at(cfg_.seed, version));
    for (auto i : rng.sample_indices(n, holdout_count)) is_holdout[i] = 1;
  }
  Matrix train_x, val_x;
  std::vector<int> train_y, val_y;
  for (std::size_t i = 0; i < n; ++i) {
    if (is_holdout[i]) {
      val_x.push_row(x.row(i));
      val_y.push_back(y[i]);
    } else {
      train_x.push_row(x.row(i));
      train_y.push_back(y[i]);
    }
  }
  if (val_y.empty()) {
    val_x = train_x;
    val_y = train_y;
  }

  auto candidate = std::make_shared<PredictorSnapshot>();
  candidate->family_ = cfg_.model;
  candidate->version_ = version;
  candidate->trained_on_ = train_y.size();
  Classifier* model = nullptr;
  switch (cfg_.model) {
    case PredictorModel::kKnn:
      candidate->knn_ = KnnClassifier(cfg_.knn_k);
      model = &candidate->knn_;
      break;
    case PredictorModel::kSvm:
      candidate->svm_ = LinearSvm(cfg_.svm);
      model = &candidate->svm_;
      break;
    case PredictorModel::kGbdt:
      candidate->gbdt_ = GradientBoostingClassifier(cfg_.gbdt);
      model = &candidate->gbdt_;
      break;
  }
  model->fit(train_x, train_y);

  const auto preds = model->predict_batch(val_x);
  std::size_t correct = 0;
  for (std::size_t i = 0; i < val_y.size(); ++i) correct += preds[i] == val_y[i];
  const double accuracy =
      static_cast<double>(correct) / static_cast<double>(val_y.size());
  candidate->validation_accuracy_ = accuracy;

  if (obs::kCompiledIn && obs::enabled()) {
    trainings_counter().add(1);
    obs::MetricsRegistry::global().gauge("ml.predictor.validation_accuracy").set(accuracy);
  }

  // Swap only on a validation win: at least the floor AND no worse than the
  // live snapshot. A losing candidate is dropped on the floor.
  if (accuracy < cfg_.min_validation_accuracy || accuracy < live_accuracy) return false;
  {
    std::lock_guard lock(mu_);
    if (snap_ && snap_->validation_accuracy() > accuracy) return false;
    snap_ = std::move(candidate);
  }
  if (obs::kCompiledIn && obs::enabled()) {
    swaps_counter().add(1);
    obs::MetricsRegistry::global().gauge("ml.predictor.version").set(static_cast<double>(version));
  }
  return true;
}

void Predictor::start_background(std::chrono::milliseconds interval) {
  std::lock_guard lock(bg_mu_);
  if (bg_.joinable()) return;
  bg_stop_ = false;
  bg_ = std::thread([this, interval] {
    std::unique_lock lk(bg_mu_);
    while (!bg_stop_) {
      bg_cv_.wait_for(lk, interval, [this] { return bg_stop_; });
      if (bg_stop_) break;
      lk.unlock();
      train_if_due();
      lk.lock();
    }
  });
}

void Predictor::stop_background() {
  std::thread t;
  {
    std::lock_guard lock(bg_mu_);
    bg_stop_ = true;
    t.swap(bg_);
  }
  bg_cv_.notify_all();
  if (t.joinable()) t.join();
}

std::size_t Predictor::observed() const {
  std::lock_guard lock(mu_);
  return observed_total_;
}

std::size_t Predictor::buffered() const {
  std::lock_guard lock(mu_);
  return count_;
}

std::size_t Predictor::trainings() const {
  std::lock_guard lock(mu_);
  return trainings_;
}

std::uint64_t Predictor::version() const {
  std::lock_guard lock(mu_);
  return snap_ ? snap_->version() : 0;
}

}  // namespace lore::ml
