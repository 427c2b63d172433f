#include "src/rollback/adpcm.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace lore::rollback {
namespace {

TEST(Adpcm, RoundTripTracksSignal) {
  const auto pcm = synth_audio(4000, 7);
  const auto codes = adpcm_encode(pcm);
  const auto decoded = adpcm_decode(codes);
  ASSERT_EQ(decoded.size(), pcm.size());
  // ADPCM is lossy; require a sensible SNR over the steady part.
  double signal = 0.0, noise = 0.0;
  for (std::size_t i = 500; i < pcm.size(); ++i) {
    signal += static_cast<double>(pcm[i]) * pcm[i];
    const double d = static_cast<double>(pcm[i]) - decoded[i];
    noise += d * d;
  }
  const double snr_db = 10.0 * std::log10(signal / (noise + 1.0));
  EXPECT_GT(snr_db, 12.0) << "SNR " << snr_db << " dB";
}

TEST(Adpcm, CodesAreFourBit) {
  const auto pcm = synth_audio(1000, 8);
  for (auto c : adpcm_encode(pcm)) EXPECT_LT(c, 16);
}

TEST(Adpcm, EncoderDeterministic) {
  const auto pcm = synth_audio(500, 9);
  EXPECT_EQ(adpcm_encode(pcm), adpcm_encode(pcm));
}

TEST(Adpcm, StepIndexStaysInRange) {
  // Extreme square wave stresses the index adaptation.
  std::vector<std::int16_t> pcm(2000);
  for (std::size_t i = 0; i < pcm.size(); ++i) pcm[i] = (i / 7) % 2 ? 32000 : -32000;
  AdpcmState state;
  for (auto s : pcm) {
    adpcm_encode_sample(state, s);
    EXPECT_GE(state.step_index, 0);
    EXPECT_LE(state.step_index, 88);
    EXPECT_GE(state.predictor, -32768);
    EXPECT_LE(state.predictor, 32767);
  }
}

TEST(CycleCost, LinearInSamples) {
  EXPECT_GT(adpcm_cycle_cost(2000), 2 * adpcm_cycle_cost(999));
  EXPECT_EQ(adpcm_cycle_cost(0), 20u);
}

TEST(Segmentation, CyclesInPaperRange) {
  const auto segments = segment_adpcm_workload(SegmentationConfig{});
  EXPECT_EQ(segments.size(), 24u);
  for (const auto& s : segments) {
    EXPECT_GE(s.nominal_cycles, 38000u);   // small tolerance below 40k
    EXPECT_LE(s.nominal_cycles, 275000u);  // and above 270k (rounding)
  }
}

TEST(Segmentation, SpreadAcrossRange) {
  const auto segments = segment_adpcm_workload(SegmentationConfig{.num_segments = 40});
  std::uint64_t lo = UINT64_MAX, hi = 0;
  for (const auto& s : segments) {
    lo = std::min(lo, s.nominal_cycles);
    hi = std::max(hi, s.nominal_cycles);
  }
  EXPECT_LT(lo, 90000u);
  EXPECT_GT(hi, 200000u);
}

TEST(Segmentation, DefaultNominalCyclesPinned) {
  // The default Section V workload (seed 89, 24 segments) that every Fig. 5/6
  // number is drawn against.
  const std::vector<std::uint64_t> expected{
      79262,  150984, 232623, 115781, 147318, 111880, 91153,  199018,
      201697, 126074, 232999, 84620,  162546, 73622,  47020,  222189,
      222988, 165930, 117003, 220027, 168139, 195634, 157564, 226842};
  const auto segments = segment_adpcm_workload(SegmentationConfig{});
  ASSERT_EQ(segments.size(), expected.size());
  for (std::size_t i = 0; i < segments.size(); ++i)
    EXPECT_EQ(segments[i].nominal_cycles, expected[i]) << "segment " << i;
}

TEST(Segmentation, DeterministicPerSeed) {
  const auto a = segment_adpcm_workload(SegmentationConfig{.seed = 4});
  const auto b = segment_adpcm_workload(SegmentationConfig{.seed = 4});
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_EQ(a[i].nominal_cycles, b[i].nominal_cycles);
}

}  // namespace
}  // namespace lore::rollback
