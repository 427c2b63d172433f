// Differential suite for the bit-packed HDC engine: every word-parallel
// kernel must be bit-identical to the scalar reference in tests/ml/hdc_ref
// for the same seed — including dims that are not multiples of 64 (tail-bit
// masking) and the RNG tie-break stream of Accumulator::to_hypervector. The
// classifier and regressor pipelines are pinned to golden predictions that
// the packed engine and the former scalar reference mode both produced.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "src/common/kernels.hpp"
#include "src/common/rng.hpp"
#include "src/ml/hdc.hpp"
#include "tests/ml/hdc_ref.hpp"

namespace lore::ml {
namespace {

// The acceptance dims: word-aligned, tail-bit, production, and prime.
const std::size_t kDims[] = {64, 100, 4096, 8191};

void expect_equal(const Hypervector& packed, const hdcref::Components& ref,
                  std::size_t dim) {
  ASSERT_EQ(packed.dim(), dim);
  ASSERT_EQ(ref.size(), dim);
  for (std::size_t i = 0; i < dim; ++i)
    ASSERT_EQ(packed[i], ref[i]) << "component " << i << " of dim " << dim;
}

void expect_zero_tail(const Hypervector& hv) {
  if (hv.dim() == 0) return;
  const auto words = hv.words();
  ASSERT_EQ(words.size(), kernels::word_count(hv.dim()));
  EXPECT_EQ(words[words.size() - 1] & ~kernels::tail_mask(hv.dim()), 0u)
      << "tail bits must stay zero at dim " << hv.dim();
}

TEST(HdcPacked, RandomMatchesScalarStream) {
  for (const std::size_t dim : kDims) {
    lore::Rng packed_rng(900), ref_rng(900);
    const auto packed = Hypervector::random(dim, packed_rng);
    const auto ref = hdcref::random(dim, ref_rng);
    expect_equal(packed, ref, dim);
    expect_zero_tail(packed);
    // Both sides must have consumed the identical number of draws.
    EXPECT_EQ(packed_rng.next_u64(), ref_rng.next_u64());
  }
}

TEST(HdcPacked, PackUnpackRoundTrip) {
  for (const std::size_t dim : kDims) {
    lore::Rng rng(901);
    const auto ref = hdcref::random(dim, rng);
    const auto packed = Hypervector::pack(ref);
    expect_zero_tail(packed);
    EXPECT_EQ(packed.unpack(), ref);
    EXPECT_TRUE(packed == Hypervector::pack(ref));
  }
}

TEST(HdcPacked, BindMatchesScalar) {
  for (const std::size_t dim : kDims) {
    lore::Rng rng(902);
    const auto a = hdcref::random(dim, rng);
    const auto b = hdcref::random(dim, rng);
    const auto packed = Hypervector::pack(a).bind(Hypervector::pack(b));
    expect_equal(packed, hdcref::bind(a, b), dim);
    expect_zero_tail(packed);
  }
}

TEST(HdcPacked, PermuteMatchesScalar) {
  for (const std::size_t dim : kDims) {
    lore::Rng rng(903);
    const auto a = hdcref::random(dim, rng);
    const auto packed = Hypervector::pack(a);
    for (const std::size_t k :
         {std::size_t{0}, std::size_t{1}, std::size_t{63}, std::size_t{64},
          std::size_t{65}, dim - 1, dim, dim + 7, 3 * dim + 129}) {
      const auto rotated = packed.permute(k);
      expect_equal(rotated, hdcref::permute(a, k), dim);
      expect_zero_tail(rotated);
    }
  }
}

TEST(HdcPacked, SimilarityAndHammingBitIdentical) {
  for (const std::size_t dim : kDims) {
    lore::Rng rng(904);
    const auto a = hdcref::random(dim, rng);
    const auto b = hdcref::random(dim, rng);
    const auto pa = Hypervector::pack(a), pb = Hypervector::pack(b);
    // Exact double equality: the packed path must evaluate the same final
    // division expression the scalar loop does.
    EXPECT_EQ(pa.similarity(pb), hdcref::similarity(a, b)) << "dim " << dim;
    EXPECT_EQ(pa.hamming(pb), hdcref::hamming(a, b)) << "dim " << dim;
    EXPECT_EQ(pa.similarity(pa), 1.0);
    EXPECT_EQ(pa.hamming(pa), 0.0);
  }
}

TEST(HdcPacked, ComponentErrorsMatchScalarStream) {
  for (const std::size_t dim : kDims) {
    lore::Rng rng(905);
    const auto a = hdcref::random(dim, rng);
    const auto pa = Hypervector::pack(a);
    for (const double p : {0.0, 0.1, 0.4}) {
      lore::Rng packed_noise(906), ref_noise(906);
      const auto noisy = pa.with_component_errors(p, packed_noise);
      expect_equal(noisy, hdcref::with_component_errors(a, p, ref_noise), dim);
      expect_zero_tail(noisy);
      EXPECT_EQ(packed_noise.next_u64(), ref_noise.next_u64());
    }
  }
}

TEST(HdcPacked, AccumulatorSumsMatchScalar) {
  for (const std::size_t dim : kDims) {
    lore::Rng rng(907);
    Accumulator acc(dim);
    std::vector<std::int32_t> ref_sums(dim, 0);
    for (const int weight : {1, 1, -2, 5, 1}) {
      const auto v = hdcref::random(dim, rng);
      acc.add_weighted(Hypervector::pack(v), weight);
      hdcref::accumulate(ref_sums, v, weight);
    }
    ASSERT_EQ(acc.sums().size(), ref_sums.size());
    for (std::size_t i = 0; i < dim; ++i) EXPECT_EQ(acc.sums()[i], ref_sums[i]);
  }
}

TEST(HdcPacked, ThresholdTieBreakMatchesScalarRngStream) {
  for (const std::size_t dim : kDims) {
    lore::Rng rng(908);
    // An even number of ±1 vectors guarantees a dense supply of zero sums,
    // exercising the tie-break draw on a large fraction of components.
    Accumulator acc(dim);
    std::vector<std::int32_t> ref_sums(dim, 0);
    for (int n = 0; n < 2; ++n) {
      const auto v = hdcref::random(dim, rng);
      acc.add(Hypervector::pack(v));
      hdcref::accumulate(ref_sums, v, 1);
    }
    std::size_t ties = 0;
    for (const auto s : ref_sums) ties += s == 0;
    ASSERT_GT(ties, dim / 8) << "tie-break path under-exercised at dim " << dim;

    lore::Rng packed_tie(909), ref_tie(909);
    expect_equal(acc.to_hypervector(&packed_tie),
                 hdcref::threshold(ref_sums, &ref_tie), dim);
    EXPECT_EQ(packed_tie.next_u64(), ref_tie.next_u64());
    // Null-rng ties resolve to -1 on both paths.
    expect_equal(acc.to_hypervector(nullptr), hdcref::threshold(ref_sums, nullptr), dim);
  }
}

TEST(HdcPacked, ComponentRefWritesThroughProxy) {
  Hypervector hv(100);
  hv[3] = -1;
  hv[99] = static_cast<std::int8_t>(-hv[99]);
  EXPECT_EQ(hv[3], -1);
  EXPECT_EQ(hv[99], -1);
  hv[3] = 1;
  EXPECT_EQ(hv[3], 1);
  expect_zero_tail(hv);
}

std::vector<std::vector<double>> blob_inputs(std::size_t n, lore::Rng& rng) {
  std::vector<std::vector<double>> x;
  for (std::size_t i = 0; i < n; ++i) {
    const double base = (i % 2) ? 0.75 : 0.25;
    x.push_back({base + rng.normal(0.0, 0.05), base + rng.normal(0.0, 0.05),
                 base + rng.normal(0.0, 0.05)});
  }
  return x;
}

TEST(HdcPacked, ClassifierMatchesScalarReferenceMode) {
  lore::Rng rng(910);
  const auto x = blob_inputs(120, rng);
  std::vector<int> y;
  for (std::size_t i = 0; i < x.size(); ++i) y.push_back(static_cast<int>(i % 2));

  RecordEncoder enc({{0.0, 1.0}, {0.0, 1.0}, {0.0, 1.0}},
                    RecordEncoderConfig{.dim = 1000, .levels = 16});
  HdcClassifier clf(&enc, HdcClassifierConfig{.threads = 1});
  clf.fit(x, y);
  std::string preds;
  lore::Rng noise(911);
  for (const auto& row : x) preds += static_cast<char>('0' + clf.predict(row, 0.2, &noise));
  // Golden values: both engine modes produced these before the scalar mode
  // was removed.
  EXPECT_EQ(preds,
            "010101010101010101010101010101010101010101010101010101010101"
            "010101010101010101010101010101010101010101010101010101010101");
  EXPECT_EQ(noise.next_u64(), 15321031444548913426ULL);
}

TEST(HdcPacked, RegressorMatchesScalarReferenceMode) {
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  for (int i = 0; i < 200; ++i) {
    const double v = static_cast<double>(i) / 200.0;
    x.push_back({v});
    y.push_back(2.0 * v + 1.0);
  }
  RecordEncoder enc({{0.0, 1.0}}, RecordEncoderConfig{.dim = 1000, .levels = 24});
  HdcRegressor reg(&enc, HdcRegressorConfig{.threads = 1});
  reg.fit(x, y);
  // Golden predictions as (value, run length) over queries 0..199: both
  // engine modes produced these bit for bit before the scalar mode was
  // removed.
  const std::pair<double, std::size_t> golden[] = {
      {0x1.1abd0fc2720c5p+0, 9}, {0x1.289b51a6bc43ap+0, 8}, {0x1.39d1917c1e489p+0, 8},
      {0x1.4cce31a238b99p+0, 9}, {0x1.60d06644d5b18p+0, 8}, {0x1.7565fbded0c47p+0, 8},
      {0x1.8a4ba042abddfp+0, 9}, {0x1.9f5b4e2d91ba5p+0, 8}, {0x1.b4806f86c7847p+0, 8},
      {0x1.c9b03c78be89dp+0, 9}, {0x1.dee52cf6db6f9p+0, 8}, {0x1.f41c6436c261fp+0, 8},
      {0x1.04aa1fd023edbp+1, 9}, {0x1.0f45bb701767p+1, 8},  {0x1.19e033af25d9cp+1, 8},
      {0x1.24781a28215c9p+1, 9}, {0x1.2f0aaad4bc419p+1, 8}, {0x1.399281ca2f2fdp+1, 8},
      {0x1.440553fc1cbc7p+1, 9}, {0x1.4e501ec91a46p+1, 8},  {0x1.5851391a68c1fp+1, 8},
      {0x1.61cf892d75fa9p+1, 9}, {0x1.6a6aa91826fcep+1, 8}, {0x1.7159ca0a4c18bp+1, 8}};
  std::size_t query = 0;
  for (const auto& [value, count] : golden)
    for (std::size_t k = 0; k < count; ++k, ++query)
      EXPECT_EQ(reg.predict(x[query]), value) << "query " << query;  // bit-identical doubles
  EXPECT_EQ(query, x.size());
}

TEST(HdcPackedKernels, RotateLeftBitsAgainstNaive) {
  for (const std::size_t dim : kDims) {
    lore::Rng rng(912);
    const auto ref = hdcref::random(dim, rng);
    const auto packed = Hypervector::pack(ref);
    std::vector<std::uint64_t> out(kernels::word_count(dim), ~0ULL);
    for (const std::size_t k : {std::size_t{0}, std::size_t{17}, dim / 2, dim - 1}) {
      kernels::rotate_left_bits(out, packed.words(), dim, k);
      for (std::size_t i = 0; i < dim; ++i) {
        const bool bit = (out[(i + k) % dim / kernels::kWordBits] >>
                          ((i + k) % dim % kernels::kWordBits)) & 1;
        ASSERT_EQ(bit, ref[i] < 0) << "dim " << dim << " k " << k << " i " << i;
      }
    }
  }
}

}  // namespace
}  // namespace lore::ml
