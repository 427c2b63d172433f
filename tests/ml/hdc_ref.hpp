// Scalar reference kernels for the HDC engine.
//
// These are the original one-int8-per-component loops the bit-packed engine
// in `src/ml/hdc` replaced, kept as the oracle of the `hdc` differential
// suite: the packed kernels must be bit-identical to these for the same RNG
// seed. Only `lore_hdc_tests` links them.
//
// Every function that consumes randomness draws from the Rng in component
// index order, exactly once per component, which is the contract that makes
// packed and scalar streams interchangeable.
#pragma once

#include <cstdint>
#include <vector>

#include "src/common/rng.hpp"

namespace lore::ml::hdcref {

/// One bipolar component per int8, values in {-1, +1}.
using Components = std::vector<std::int8_t>;

/// i.i.d. random bipolar vector; one bernoulli(0.5) draw per component.
Components random(std::size_t dim, lore::Rng& rng);

/// Elementwise multiply (binding).
Components bind(const Components& a, const Components& b);

/// Cyclic rotation: out[(i + k) % dim] = in[i].
Components permute(const Components& a, std::size_t k);

/// Cosine similarity in [-1, 1].
double similarity(const Components& a, const Components& b);

/// Hamming distance fraction, defined as 0.5 * (1 - similarity).
double hamming(const Components& a, const Components& b);

/// Flip each component independently with probability p; one bernoulli(p)
/// draw per component (no draws when p <= 0).
Components with_component_errors(const Components& a, double p, lore::Rng& rng);

/// sums[i] += weight * a[i].
void accumulate(std::vector<std::int32_t>& sums, const Components& a, int weight);

/// Majority threshold; zero sums tie-break with one bernoulli(0.5) draw, in
/// index order, when an rng is supplied (else -1, matching the packed path).
Components threshold(const std::vector<std::int32_t>& sums, lore::Rng* rng);

}  // namespace lore::ml::hdcref
