// Brain-inspired hyperdimensional computing (Sec. II). Bipolar hypervectors
// with i.i.d. components give inherent robustness against component errors
// (the paper: ~40 % error rate costs only ~0.5 % accuracy), and HDC models
// can mimic confidential physics-based aging models ([18]) because the
// hypervector representation abstracts the underlying parameters.
//
// Representation: the sign of each component is bit-packed into uint64_t
// words (bit set = -1, clear = +1; component i lives in word i/64, bit i%64;
// tail bits past `dim` are kept zero). Bind is then a word-parallel XOR,
// Hamming/similarity is XOR + popcount, permute is a word-level rotate with
// carry, and bundling ripples sign words into carry-save bit-plane counters,
// unpacking to per-bit integer sums in word blocks only when thresholding —
// a ~64× cut in memory traffic over the one-int8-per-component layout. All
// randomness (random(), with_component_errors(), threshold tie-breaks) draws
// from the Rng once per component in index order, so packed results are
// bit-identical to the original scalar loops for the same seed; those loops
// live on as the test oracle in `tests/ml/hdc_ref` (ctest label `hdc`).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/kernels.hpp"
#include "src/common/rng.hpp"

namespace lore::ml {

/// Bipolar hypervector: components in {-1, +1}, sign-bit-packed into uint64
/// words (see header comment for the layout).
class Hypervector {
 public:
  /// Proxy for `hv[i]` assignment: packed storage cannot hand out an int8
  /// lvalue, so writes go through set(). Reads convert to the ±1 component.
  class ComponentRef {
   public:
    operator std::int8_t() const { return hv_->get(i_); }
    ComponentRef& operator=(std::int8_t v) {
      hv_->set(i_, v);
      return *this;
    }
    ComponentRef& operator=(const ComponentRef& o) {
      hv_->set(i_, static_cast<std::int8_t>(o));
      return *this;
    }

   private:
    friend class Hypervector;
    ComponentRef(Hypervector* hv, std::size_t i) : hv_(hv), i_(i) {}
    Hypervector* hv_;
    std::size_t i_;
  };

  Hypervector() = default;
  /// All components +1 (all sign bits clear).
  explicit Hypervector(std::size_t dim)
      : dim_(dim), words_(kernels::word_count(dim), 0) {}

  static Hypervector random(std::size_t dim, lore::Rng& rng);
  /// Pack an explicit ±1 component vector (negative -> sign bit set).
  static Hypervector pack(std::span<const std::int8_t> components);

  std::size_t dim() const { return dim_; }
  std::int8_t operator[](std::size_t i) const { return get(i); }
  ComponentRef operator[](std::size_t i) { return ComponentRef(this, i); }
  std::int8_t get(std::size_t i) const {
    return (words_[i / kernels::kWordBits] >> (i % kernels::kWordBits)) & 1 ? -1 : 1;
  }
  void set(std::size_t i, std::int8_t value) {
    const std::uint64_t mask = 1ULL << (i % kernels::kWordBits);
    if (value < 0) words_[i / kernels::kWordBits] |= mask;
    else words_[i / kernels::kWordBits] &= ~mask;
  }

  /// Elementwise multiply (binding). Self-inverse: a.bind(b).bind(b) == a.
  Hypervector bind(const Hypervector& other) const;
  /// Cyclic rotation by k (sequence/position encoding).
  Hypervector permute(std::size_t k) const;
  /// Cosine similarity in [-1, 1] (equals normalized Hamming agreement).
  double similarity(const Hypervector& other) const;
  /// Hamming distance fraction in [0, 1].
  double hamming(const Hypervector& other) const;
  /// Flip each component independently with probability p (hardware error
  /// injection for the robustness experiment).
  Hypervector with_component_errors(double p, lore::Rng& rng) const;

  /// Unpack to one int8 component per entry.
  std::vector<std::int8_t> unpack() const;
  /// Raw packed words (tail bits past dim() are zero).
  std::span<const std::uint64_t> words() const { return words_; }

  bool operator==(const Hypervector& other) const {
    return dim_ == other.dim_ && words_ == other.words_;
  }

 private:
  std::size_t dim_ = 0;
  std::vector<std::uint64_t> words_;
};

/// Integer accumulator for bundling many hypervectors then thresholding.
///
/// Adds are carry-save: per weight bit, the sign words ripple into a stack
/// of bit-plane counters (one XOR + AND pass per live plane — amortized
/// O(dim/64) words per add instead of `dim` integer adds). The
/// exact per-component int32 sums are materialized lazily from
///   sum[i] = Σw − 2·(pos_planes[i] − neg_planes[i]),
/// so `sums()`/`to_hypervector()` observe exactly the integers the original
/// int8 loop would have produced. Not safe for concurrent use from multiple
/// threads (lazy cache); every current call site is thread-local.
class Accumulator {
 public:
  explicit Accumulator(std::size_t dim) : dim_(dim) {}

  void add(const Hypervector& hv);
  void add_weighted(const Hypervector& hv, int weight);
  std::size_t count() const { return count_; }
  /// Exact per-component sums (materialized from the bit planes on demand;
  /// the span is invalidated by the next add).
  std::span<const std::int32_t> sums() const;
  /// Majority threshold -> bipolar hypervector. Ties broken by rng if given.
  Hypervector to_hypervector(lore::Rng* rng = nullptr) const;

 private:
  void materialize() const;

  std::size_t dim_ = 0;
  std::size_t count_ = 0;
  /// Σ weight over all adds (sums decompose against this total).
  std::int64_t weight_total_ = 0;
  /// Bit-plane counters of sign bits: pos_ for positive weights, neg_ for
  /// magnitudes of negative weights.
  std::vector<std::vector<std::uint64_t>> pos_planes_, neg_planes_;
  std::vector<std::uint64_t> carry_scratch_;
  mutable std::vector<std::int32_t> sums_cache_;
  mutable bool dirty_ = true;
};

/// Item memory: stable random hypervector per symbol id.
class ItemMemory {
 public:
  ItemMemory(std::size_t dim, std::uint64_t seed) : dim_(dim), rng_(seed) {}

  const Hypervector& get(std::uint64_t symbol);
  std::size_t dim() const { return dim_; }

 private:
  std::size_t dim_;
  lore::Rng rng_;
  std::unordered_map<std::uint64_t, Hypervector> items_;
};

/// Continuous-value encoder: `levels` hypervectors where adjacent levels are
/// highly correlated (incremental flipping), so nearby values map to nearby
/// hypervectors.
class LevelEncoder {
 public:
  LevelEncoder(std::size_t dim, std::size_t levels, double lo, double hi, std::uint64_t seed);

  const Hypervector& encode(double value) const;
  std::size_t level_of(double value) const;
  std::size_t levels() const { return level_hvs_.size(); }
  double level_center(std::size_t level) const;

 private:
  double lo_, hi_;
  std::vector<Hypervector> level_hvs_;
};

struct RecordEncoderConfig {
  std::size_t dim = 4096;
  std::size_t levels = 32;
  std::uint64_t seed = 37;
};

/// Record-based encoder for feature vectors: bind(feature-id HV, level HV of
/// value), bundle over features.
class RecordEncoder {
 public:
  using Config = RecordEncoderConfig;

  /// Feature ranges must be known up front ([lo, hi] per feature).
  RecordEncoder(std::vector<std::pair<double, double>> ranges, Config cfg = {});

  Hypervector encode(std::span<const double> features) const;
  std::size_t dim() const { return cfg_.dim; }

 private:
  Config cfg_;
  std::vector<LevelEncoder> per_feature_;
  std::vector<Hypervector> feature_ids_;
};

struct HdcClassifierConfig {
  std::size_t retrain_passes = 3;
  std::uint64_t seed = 41;
  /// Worker threads for fit()'s encode/retrain passes and predict_batch()
  /// (0 = all cores, 1 = serial). Results are bit-identical for any value.
  unsigned threads = 0;
};

/// Prototype-per-class HDC classifier with optional retraining passes.
class HdcClassifier {
 public:
  using Config = HdcClassifierConfig;

  HdcClassifier(const RecordEncoder* encoder, Config cfg = {})
      : encoder_(encoder), cfg_(cfg) {}

  void fit(const std::vector<std::vector<double>>& x, std::span<const int> y);
  /// Predict; if error_rate > 0 the encoded query suffers that fraction of
  /// component flips (needs rng).
  int predict(std::span<const double> x, double error_rate = 0.0,
              lore::Rng* rng = nullptr) const;
  int predict_encoded(const Hypervector& query) const;
  /// Batch predict across `cfg.threads` workers. When error_rate > 0, query
  /// i draws its flips from trial_seed(noise_seed, i), so the output is a
  /// pure function of (queries, noise_seed) — thread-count-invariant.
  std::vector<int> predict_batch(const std::vector<std::vector<double>>& x,
                                 double error_rate = 0.0,
                                 std::uint64_t noise_seed = 0) const;
  std::size_t num_classes() const { return prototypes_.size(); }

 private:
  const RecordEncoder* encoder_;
  Config cfg_;
  std::vector<Hypervector> prototypes_;
};

struct HdcRegressorConfig {
  std::size_t target_levels = 24;
  /// Softmax temperature over similarities when mixing level centers.
  double temperature = 0.05;
  std::uint64_t seed = 43;
  /// Worker threads for fit() encoding and predict_batch() (0 = all cores).
  unsigned threads = 0;
};

/// HDC regressor: discretizes the target into levels, learns a prototype per
/// level, predicts the similarity-weighted mean of level centers. Used to
/// mimic the "confidential" aging model (E4).
class HdcRegressor {
 public:
  using Config = HdcRegressorConfig;

  HdcRegressor(const RecordEncoder* encoder, Config cfg = {})
      : encoder_(encoder), cfg_(cfg) {}

  void fit(const std::vector<std::vector<double>>& x, std::span<const double> y);
  double predict(std::span<const double> x, double error_rate = 0.0,
                 lore::Rng* rng = nullptr) const;
  /// Batch predict; same trial-seeded noise contract as
  /// HdcClassifier::predict_batch.
  std::vector<double> predict_batch(const std::vector<std::vector<double>>& x,
                                    double error_rate = 0.0,
                                    std::uint64_t noise_seed = 0) const;

 private:
  const RecordEncoder* encoder_;
  Config cfg_;
  double y_lo_ = 0.0, y_hi_ = 1.0;
  std::vector<Hypervector> level_prototypes_;
  std::vector<bool> level_present_;
};

}  // namespace lore::ml
