#include "src/ml/hdc.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstdlib>

#include "src/common/parallel.hpp"
#include "src/obs/obs.hpp"

namespace lore::ml {
namespace {

/// The HDC counters, resolved on first use: similarity is the inner kernel
/// and encode/flip run per record, so a registry lookup by name on every call
/// would be a large share of their cost.
obs::Counter& similarity_ops() {
  static obs::Counter& ops = obs::MetricsRegistry::global().counter("hdc.similarity_ops");
  return ops;
}
obs::Counter& component_flips() {
  static obs::Counter& flips = obs::MetricsRegistry::global().counter("hdc.component_flips");
  return flips;
}
obs::Counter& encodes() {
  static obs::Counter& encodes = obs::MetricsRegistry::global().counter("hdc.encodes");
  return encodes;
}

}  // namespace

Hypervector Hypervector::random(std::size_t dim, lore::Rng& rng) {
  // One bernoulli(0.5) per component in index order — the exact RNG stream
  // of the scalar reference, so packed and scalar agree bit-for-bit.
  Hypervector hv(dim);
  for (std::size_t w = 0; w < hv.words_.size(); ++w) {
    const std::size_t block =
        std::min<std::size_t>(kernels::kWordBits, dim - w * kernels::kWordBits);
    std::uint64_t word = 0;
    for (std::size_t b = 0; b < block; ++b)
      if (!rng.bernoulli(0.5)) word |= 1ULL << b;  // bernoulli true -> +1 -> clear
    hv.words_[w] = word;
  }
  return hv;
}

Hypervector Hypervector::pack(std::span<const std::int8_t> components) {
  Hypervector hv(components.size());
  for (std::size_t i = 0; i < components.size(); ++i)
    if (components[i] < 0)
      hv.words_[i / kernels::kWordBits] |= 1ULL << (i % kernels::kWordBits);
  return hv;
}

std::vector<std::int8_t> Hypervector::unpack() const {
  std::vector<std::int8_t> out(dim_);
  const std::size_t full = dim_ / kernels::kWordBits;
  for (std::size_t w = 0; w < full; ++w)
    kernels::unpack_sign_word(&out[w * kernels::kWordBits], words_[w]);
  if (const std::size_t rem = dim_ % kernels::kWordBits; rem != 0) {
    std::int8_t tail[kernels::kWordBits];
    kernels::unpack_sign_word(tail, words_[full]);
    std::copy_n(tail, rem, &out[full * kernels::kWordBits]);
  }
  return out;
}

Hypervector Hypervector::bind(const Hypervector& other) const {
  assert(dim() == other.dim());
  Hypervector out(dim_);
  kernels::xor_words(out.words_, words_, other.words_);
  return out;
}

Hypervector Hypervector::permute(std::size_t k) const {
  if (dim_ == 0) return Hypervector(0);
  Hypervector out(dim_);
  kernels::rotate_left_bits(out.words_, words_, dim_, k);
  return out;
}

double Hypervector::similarity(const Hypervector& other) const {
  assert(dim() == other.dim() && dim() > 0);
  if (obs::kCompiledIn && obs::enabled()) similarity_ops().add(1);
  // Differing sign bits contribute -1 to the dot product, agreeing bits +1:
  // dot = dim - 2 * popcount(a XOR b). The division matches the scalar
  // reference expression exactly, so the double result is bit-identical.
  const auto h = static_cast<std::int64_t>(kernels::xor_popcount(words_, other.words_));
  const std::int64_t s = static_cast<std::int64_t>(dim_) - 2 * h;
  return static_cast<double>(s) / static_cast<double>(dim_);
}

double Hypervector::hamming(const Hypervector& other) const {
  return 0.5 * (1.0 - similarity(other));
}

Hypervector Hypervector::with_component_errors(double p, lore::Rng& rng) const {
  Hypervector out = *this;
  if (p <= 0.0) return out;
  std::uint64_t flips = 0;
  for (std::size_t i = 0; i < dim_; ++i) {
    if (rng.bernoulli(p)) {
      out.words_[i / kernels::kWordBits] ^= 1ULL << (i % kernels::kWordBits);
      ++flips;
    }
  }
  if (obs::kCompiledIn && obs::enabled()) component_flips().add(flips);
  return out;
}

void Accumulator::add(const Hypervector& hv) { add_weighted(hv, 1); }

void Accumulator::add_weighted(const Hypervector& hv, int weight) {
  assert(hv.dim() == dim_);
  dirty_ = true;
  ++count_;
  weight_total_ += weight;
  if (weight == 0) return;
  // Carry-save bundle: each set bit of |weight| ripples the sign words into
  // the matching plane of the counter stack — word-parallel XOR/AND passes
  // instead of `dim` integer adds.
  auto& planes = weight > 0 ? pos_planes_ : neg_planes_;
  const auto mag = static_cast<std::uint64_t>(std::abs(static_cast<std::int64_t>(weight)));
  for (std::size_t bit = 0; mag >> bit != 0; ++bit)
    if ((mag >> bit) & 1)
      kernels::ripple_add_planes(planes, hv.words(), bit, carry_scratch_);
}

void Accumulator::materialize() const {
  if (!dirty_) return;
  // sum[i] = Σw − 2·(pos_count[i] − neg_count[i]), where the counts are read
  // off the bit planes (bit at plane p ⇒ 2^p).
  sums_cache_.resize(dim_);
  const std::size_t nwords = kernels::word_count(dim_);
  std::int64_t delta[kernels::kWordBits];
  for (std::size_t w = 0; w < nwords; ++w) {
    for (auto& d : delta) d = weight_total_;
    for (std::size_t p = 0; p < pos_planes_.size(); ++p)
      for (std::uint64_t bits = pos_planes_[p][w]; bits != 0; bits &= bits - 1)
        delta[std::countr_zero(bits)] -= std::int64_t{2} << p;
    for (std::size_t p = 0; p < neg_planes_.size(); ++p)
      for (std::uint64_t bits = neg_planes_[p][w]; bits != 0; bits &= bits - 1)
        delta[std::countr_zero(bits)] += std::int64_t{2} << p;
    const std::size_t base = w * kernels::kWordBits;
    const std::size_t n = std::min<std::size_t>(kernels::kWordBits, dim_ - base);
    for (std::size_t b = 0; b < n; ++b)
      sums_cache_[base + b] = static_cast<std::int32_t>(delta[b]);
  }
  dirty_ = false;
}

std::span<const std::int32_t> Accumulator::sums() const {
  materialize();
  return sums_cache_;
}

Hypervector Accumulator::to_hypervector(lore::Rng* rng) const {
  materialize();
  Hypervector out(dim_);  // starts all +1 (bits clear)
  for (std::size_t i = 0; i < dim_; ++i) {
    if (sums_cache_[i] < 0) out.set(i, -1);
    else if (sums_cache_[i] == 0 && !(rng && rng->bernoulli(0.5))) out.set(i, -1);
  }
  return out;
}

const Hypervector& ItemMemory::get(std::uint64_t symbol) {
  auto it = items_.find(symbol);
  if (it == items_.end())
    it = items_.emplace(symbol, Hypervector::random(dim_, rng_)).first;
  return it->second;
}

LevelEncoder::LevelEncoder(std::size_t dim, std::size_t levels, double lo, double hi,
                           std::uint64_t seed)
    : lo_(lo), hi_(hi) {
  assert(levels >= 2 && hi > lo && dim > 0);
  lore::Rng rng(seed);
  level_hvs_.reserve(levels);
  level_hvs_.push_back(Hypervector::random(dim, rng));
  // Flip dim/(2*(levels-1)) components per step: level 0 and level L-1 end up
  // ~orthogonal while adjacent levels stay highly correlated.
  const std::size_t flips_per_step = std::max<std::size_t>(1, dim / (2 * (levels - 1)));
  std::vector<std::size_t> perm(dim);
  for (std::size_t i = 0; i < dim; ++i) perm[i] = i;
  rng.shuffle(perm);
  std::size_t cursor = 0;
  for (std::size_t l = 1; l < levels; ++l) {
    Hypervector next = level_hvs_.back();
    for (std::size_t f = 0; f < flips_per_step && cursor < dim; ++f, ++cursor)
      next[perm[cursor]] = static_cast<std::int8_t>(-next[perm[cursor]]);
    level_hvs_.push_back(std::move(next));
  }
}

std::size_t LevelEncoder::level_of(double value) const {
  const double t = (value - lo_) / (hi_ - lo_);
  auto l = static_cast<std::ptrdiff_t>(t * static_cast<double>(level_hvs_.size()));
  l = std::clamp<std::ptrdiff_t>(l, 0, static_cast<std::ptrdiff_t>(level_hvs_.size()) - 1);
  return static_cast<std::size_t>(l);
}

const Hypervector& LevelEncoder::encode(double value) const {
  return level_hvs_[level_of(value)];
}

double LevelEncoder::level_center(std::size_t level) const {
  assert(level < level_hvs_.size());
  const double step = (hi_ - lo_) / static_cast<double>(level_hvs_.size());
  return lo_ + (static_cast<double>(level) + 0.5) * step;
}

RecordEncoder::RecordEncoder(std::vector<std::pair<double, double>> ranges, Config cfg)
    : cfg_(cfg) {
  assert(!ranges.empty());
  lore::Rng rng(cfg.seed);
  per_feature_.reserve(ranges.size());
  feature_ids_.reserve(ranges.size());
  for (std::size_t f = 0; f < ranges.size(); ++f) {
    per_feature_.emplace_back(cfg.dim, cfg.levels, ranges[f].first, ranges[f].second,
                              rng.next_u64());
    feature_ids_.push_back(Hypervector::random(cfg.dim, rng));
  }
}

Hypervector RecordEncoder::encode(std::span<const double> features) const {
  assert(features.size() == per_feature_.size());
  if (obs::kCompiledIn && obs::enabled()) encodes().add(1);
  Accumulator acc(cfg_.dim);
  for (std::size_t f = 0; f < features.size(); ++f)
    acc.add(feature_ids_[f].bind(per_feature_[f].encode(features[f])));
  // Deterministic tie-break keeps encoding a pure function of the input.
  return acc.to_hypervector(nullptr);
}

void HdcClassifier::fit(const std::vector<std::vector<double>>& x, std::span<const int> y) {
  assert(x.size() == y.size() && !x.empty());
  std::size_t num_classes = 0;
  for (int label : y) num_classes = std::max<std::size_t>(num_classes, static_cast<std::size_t>(label) + 1);

  // Encoding is a pure function of the row, so rows fan out across the team;
  // each writes its own slot, keeping the result thread-count-invariant.
  std::vector<Hypervector> encoded(x.size());
  lore::parallel_for(x.size(), cfg_.threads,
                     [&](std::size_t i) { encoded[i] = encoder_->encode(x[i]); });

  std::vector<Accumulator> acc(num_classes, Accumulator(encoder_->dim()));
  for (std::size_t i = 0; i < x.size(); ++i)
    acc[static_cast<std::size_t>(y[i])].add(encoded[i]);

  lore::Rng rng(cfg_.seed);
  prototypes_.clear();
  for (auto& a : acc) prototypes_.push_back(a.to_hypervector(&rng));

  // Perceptron-style retraining: move prototypes toward mispredicted samples.
  // Predictions within a pass only read the prototypes fixed at pass start,
  // so the per-sample predicts run in parallel; the accumulator update stays
  // serial and in sample order (bit-identical for any thread count).
  std::vector<int> preds(x.size());
  for (std::size_t pass = 0; pass < cfg_.retrain_passes; ++pass) {
    lore::parallel_for(x.size(), cfg_.threads,
                       [&](std::size_t i) { preds[i] = predict_encoded(encoded[i]); });
    std::vector<Accumulator> adj(num_classes, Accumulator(encoder_->dim()));
    bool any_error = false;
    // Start accumulators at scaled prototypes so corrections shift, not replace.
    for (std::size_t c = 0; c < num_classes; ++c)
      adj[c].add_weighted(prototypes_[c], static_cast<int>(x.size() / num_classes + 1));
    for (std::size_t i = 0; i < x.size(); ++i) {
      if (preds[i] != y[i]) {
        any_error = true;
        adj[static_cast<std::size_t>(y[i])].add_weighted(encoded[i], 1);
        adj[static_cast<std::size_t>(preds[i])].add_weighted(encoded[i], -1);
      }
    }
    if (!any_error) break;
    for (std::size_t c = 0; c < num_classes; ++c) prototypes_[c] = adj[c].to_hypervector(&rng);
  }
}

int HdcClassifier::predict_encoded(const Hypervector& query) const {
  assert(!prototypes_.empty());
  int best = 0;
  double best_sim = -2.0;
  for (std::size_t c = 0; c < prototypes_.size(); ++c) {
    const double s = prototypes_[c].similarity(query);
    if (s > best_sim) {
      best_sim = s;
      best = static_cast<int>(c);
    }
  }
  return best;
}

int HdcClassifier::predict(std::span<const double> x, double error_rate,
                           lore::Rng* rng) const {
  Hypervector q = encoder_->encode(x);
  if (error_rate > 0.0) {
    assert(rng != nullptr);
    q = q.with_component_errors(error_rate, *rng);
  }
  return predict_encoded(q);
}

std::vector<int> HdcClassifier::predict_batch(const std::vector<std::vector<double>>& x,
                                              double error_rate,
                                              std::uint64_t noise_seed) const {
  return lore::parallel_trials<int>(
      x.size(), noise_seed, cfg_.threads, [&](std::size_t i, lore::Rng& rng) {
        return predict(x[i], error_rate, error_rate > 0.0 ? &rng : nullptr);
      });
}

void HdcRegressor::fit(const std::vector<std::vector<double>>& x, std::span<const double> y) {
  assert(x.size() == y.size() && !x.empty());
  y_lo_ = *std::min_element(y.begin(), y.end());
  y_hi_ = *std::max_element(y.begin(), y.end());
  if (y_hi_ - y_lo_ < 1e-12) y_hi_ = y_lo_ + 1e-12;

  std::vector<Hypervector> encoded(x.size());
  lore::parallel_for(x.size(), cfg_.threads,
                     [&](std::size_t i) { encoded[i] = encoder_->encode(x[i]); });

  const std::size_t levels = cfg_.target_levels;
  std::vector<Accumulator> acc(levels, Accumulator(encoder_->dim()));
  level_present_.assign(levels, false);
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double t = (y[i] - y_lo_) / (y_hi_ - y_lo_);
    auto l = static_cast<std::size_t>(std::min(t * static_cast<double>(levels),
                                               static_cast<double>(levels) - 1.0));
    acc[l].add(encoded[i]);
    level_present_[l] = true;
  }
  lore::Rng rng(cfg_.seed);
  level_prototypes_.clear();
  for (auto& a : acc) level_prototypes_.push_back(a.to_hypervector(&rng));
}

double HdcRegressor::predict(std::span<const double> x, double error_rate,
                             lore::Rng* rng) const {
  assert(!level_prototypes_.empty());
  Hypervector q = encoder_->encode(x);
  if (error_rate > 0.0) {
    assert(rng != nullptr);
    q = q.with_component_errors(error_rate, *rng);
  }
  // Softmax over similarities of populated levels; mix level centers.
  const std::size_t levels = level_prototypes_.size();
  const double step = (y_hi_ - y_lo_) / static_cast<double>(levels);
  double hi_sim = -2.0;
  std::vector<double> sims(levels, -2.0);
  for (std::size_t l = 0; l < levels; ++l) {
    if (!level_present_[l]) continue;
    sims[l] = level_prototypes_[l].similarity(q);
    hi_sim = std::max(hi_sim, sims[l]);
  }
  double wsum = 0.0, vsum = 0.0;
  for (std::size_t l = 0; l < levels; ++l) {
    if (!level_present_[l]) continue;
    const double w = std::exp((sims[l] - hi_sim) / cfg_.temperature);
    wsum += w;
    vsum += w * (y_lo_ + (static_cast<double>(l) + 0.5) * step);
  }
  return vsum / wsum;
}

std::vector<double> HdcRegressor::predict_batch(const std::vector<std::vector<double>>& x,
                                                double error_rate,
                                                std::uint64_t noise_seed) const {
  return lore::parallel_trials<double>(
      x.size(), noise_seed, cfg_.threads, [&](std::size_t i, lore::Rng& rng) {
        return predict(x[i], error_rate, error_rate > 0.0 ? &rng : nullptr);
      });
}

}  // namespace lore::ml
