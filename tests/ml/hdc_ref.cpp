#include "tests/ml/hdc_ref.hpp"

#include <cassert>

namespace lore::ml::hdcref {

Components random(std::size_t dim, lore::Rng& rng) {
  Components v(dim);
  for (std::size_t i = 0; i < dim; ++i) v[i] = rng.bernoulli(0.5) ? 1 : -1;
  return v;
}

Components bind(const Components& a, const Components& b) {
  assert(a.size() == b.size());
  Components out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    out[i] = static_cast<std::int8_t>(a[i] * b[i]);
  return out;
}

Components permute(const Components& a, std::size_t k) {
  Components out(a.size());
  if (a.empty()) return out;
  k %= a.size();
  for (std::size_t i = 0; i < a.size(); ++i) out[(i + k) % a.size()] = a[i];
  return out;
}

double similarity(const Components& a, const Components& b) {
  assert(a.size() == b.size() && !a.empty());
  std::int64_t s = 0;
  for (std::size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return static_cast<double>(s) / static_cast<double>(a.size());
}

double hamming(const Components& a, const Components& b) {
  return 0.5 * (1.0 - similarity(a, b));
}

Components with_component_errors(const Components& a, double p, lore::Rng& rng) {
  Components out = a;
  if (p <= 0.0) return out;
  for (std::size_t i = 0; i < out.size(); ++i)
    if (rng.bernoulli(p)) out[i] = static_cast<std::int8_t>(-out[i]);
  return out;
}

void accumulate(std::vector<std::int32_t>& sums, const Components& a, int weight) {
  assert(a.size() == sums.size());
  for (std::size_t i = 0; i < sums.size(); ++i) sums[i] += weight * a[i];
}

Components threshold(const std::vector<std::int32_t>& sums, lore::Rng* rng) {
  Components out(sums.size());
  for (std::size_t i = 0; i < sums.size(); ++i) {
    if (sums[i] > 0) out[i] = 1;
    else if (sums[i] < 0) out[i] = -1;
    else out[i] = (rng && rng->bernoulli(0.5)) ? 1 : -1;
  }
  return out;
}

}  // namespace lore::ml::hdcref
