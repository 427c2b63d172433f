// Differential suite for the batch trial kernels (DESIGN.md §11). Two
// layers: (1) every dispatched kernel is bit-identical to its scalar
// reference at adversarial sizes — below, at, and above the SIMD lane width,
// plus a large non-multiple; (2) whole fault-injection campaigns with the
// batched trial bodies are bit-identical across dispatch modes and thread
// counts to a serial loop of the single-trial references (`replay_trial`,
// `pipeline_inject`), which no campaign runs.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "src/arch/fault.hpp"
#include "src/arch/pipeline.hpp"
#include "src/arch/workloads.hpp"
#include "src/common/campaign.hpp"
#include "src/common/kernels.hpp"
#include "src/common/rng.hpp"

namespace {

using namespace lore;

// Below / at / above one AVX2 vector of every element width, plus a large
// size that is not a multiple of any lane count.
constexpr std::size_t kSizes[] = {1, 3, 63, 64, 65, 4095};

/// Restore the process-wide dispatch override on scope exit.
class DispatchGuard {
 public:
  DispatchGuard() : saved_(kernels::active_dispatch()) {}
  ~DispatchGuard() { kernels::set_dispatch(saved_); }

 private:
  kernels::Dispatch saved_;
};

// True when set_dispatch(kAvx2) sticks (hardware + compile support).
bool avx2_available() {
  DispatchGuard guard;
  kernels::set_dispatch(kernels::Dispatch::kAvx2);
  return kernels::active_dispatch() == kernels::Dispatch::kAvx2;
}

std::vector<std::uint32_t> random_u32(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint32_t> v(n);
  for (auto& x : v) x = static_cast<std::uint32_t>(rng.next_u64());
  return v;
}

TEST(SimdKernels, DispatchNamesAndClamp) {
  DispatchGuard guard;
  EXPECT_STREQ(kernels::dispatch_name(kernels::Dispatch::kScalar), "scalar");
  kernels::set_dispatch(kernels::Dispatch::kScalar);
  EXPECT_EQ(kernels::active_dispatch(), kernels::Dispatch::kScalar);
  // Requesting AVX2 either takes effect or clamps to scalar — never UB.
  kernels::set_dispatch(kernels::Dispatch::kAvx2);
  if (avx2_available())
    EXPECT_EQ(kernels::active_dispatch(), kernels::Dispatch::kAvx2);
  else
    EXPECT_EQ(kernels::active_dispatch(), kernels::Dispatch::kScalar);
}

TEST(SimdKernels, FillTrialSeedsMatchesScalarAtEverySize) {
  if (!avx2_available()) GTEST_SKIP() << "AVX2 not available on this host/build";
#if LORE_SIMD_COMPILED
  for (const std::size_t n : kSizes) {
    for (const std::uint64_t base : {0ull, 2024ull, ~0ull}) {
      for (const std::uint64_t first : {0ull, 1ull, 4095ull, (1ull << 40)}) {
        std::vector<std::uint64_t> ref(n), simd(n, 0xdeadbeef);
        kernels::scalar::fill_trial_seeds(ref, base, first);
        kernels::avx2::fill_trial_seeds(simd, base, first);
        ASSERT_EQ(ref, simd) << "n=" << n << " base=" << base << " first=" << first;
        // And the seeds are the engine's per-trial seeds.
        for (std::size_t i = 0; i < n; ++i)
          ASSERT_EQ(ref[i], trial_seed(base, first + i));
      }
    }
  }
#endif
}

TEST(SimdKernels, CountMismatchMatchesScalarAtEverySize) {
  if (!avx2_available()) GTEST_SKIP() << "AVX2 not available on this host/build";
#if LORE_SIMD_COMPILED
  for (const std::size_t n : kSizes) {
    const auto a = random_u32(n, 7 * n + 1);
    // Equal, fully different, and single mismatches at the edges.
    std::vector<std::vector<std::uint32_t>> variants;
    variants.push_back(a);
    variants.push_back(random_u32(n, 13 * n + 5));
    auto first_off = a, last_off = a;
    first_off[0] ^= 1u;
    last_off[n - 1] ^= 0x80000000u;
    variants.push_back(first_off);
    variants.push_back(last_off);
    for (const auto& b : variants) {
      ASSERT_EQ(kernels::scalar::count_mismatch_u32(a, b),
                kernels::avx2::count_mismatch_u32(a, b))
          << "n=" << n;
    }
    ASSERT_EQ(kernels::avx2::count_mismatch_u32(a, a), 0u);
    ASSERT_EQ(kernels::avx2::count_mismatch_u32(a, first_off), 1u);
  }
#endif
}

TEST(SimdKernels, CopyU32MatchesScalarAtEverySize) {
  if (!avx2_available()) GTEST_SKIP() << "AVX2 not available on this host/build";
#if LORE_SIMD_COMPILED
  for (const std::size_t n : kSizes) {
    const auto src = random_u32(n, n + 99);
    std::vector<std::uint32_t> ref(n, 0xAAAAAAAAu), simd(n, 0x55555555u);
    kernels::scalar::copy_u32(ref, src);
    kernels::avx2::copy_u32(simd, src);
    ASSERT_EQ(ref, simd) << "n=" << n;
    ASSERT_EQ(simd, src);
  }
#endif
}

TEST(SimdKernels, CountEqualU8MatchesScalarAtEverySize) {
  if (!avx2_available()) GTEST_SKIP() << "AVX2 not available on this host/build";
#if LORE_SIMD_COMPILED
  for (const std::size_t n : kSizes) {
    Rng rng(n * 31 + 7);
    std::vector<std::uint8_t> v(n);
    for (auto& x : v) x = static_cast<std::uint8_t>(rng.uniform_index(4));
    for (std::uint8_t value = 0; value < 5; ++value) {
      ASSERT_EQ(kernels::scalar::count_equal_u8(v, value),
                kernels::avx2::count_equal_u8(v, value))
          << "n=" << n << " value=" << unsigned(value);
    }
  }
#endif
}

TEST(SimdKernels, DispatchedWrappersFollowActiveDispatch) {
  DispatchGuard guard;
  const auto src = random_u32(257, 42);
  for (const auto mode : {kernels::Dispatch::kScalar, kernels::Dispatch::kAvx2}) {
    kernels::set_dispatch(mode);
    std::vector<std::uint64_t> seeds(257);
    kernels::fill_trial_seeds(seeds, 2024, 3);
    for (std::size_t i = 0; i < seeds.size(); ++i)
      ASSERT_EQ(seeds[i], trial_seed(2024, 3 + i));
    std::vector<std::uint32_t> dst(src.size());
    kernels::copy_u32(dst, src);
    ASSERT_EQ(dst, src);
    ASSERT_EQ(kernels::count_mismatch_u32(dst, src), 0u);
  }
}

// ---------------------------------------------------------------------------
// Campaign-level differential: the batched bodies under every dispatch mode
// and thread count must reproduce the single-trial references exactly.

TEST(SimdCampaignDifferential, FaultCampaignBitIdenticalToReference) {
  // Every built-in kernel plus two random programs, so the dead-site rule of
  // the batched body (DESIGN.md §11) meets loops, reductions, in-place
  // sorts and forward branches; each record must equal its isolated replay.
  DispatchGuard dispatch_guard;
  std::vector<arch::Workload> workloads = arch::standard_workloads(2, 17);
  workloads.push_back(arch::make_random_program(60, 3));
  workloads.push_back(arch::make_random_program(90, 8));
  constexpr std::size_t kTrials = 2000;
  constexpr std::uint64_t kSeed = 2024;
  for (const auto& w : workloads) {
    const arch::FaultInjector injector(w);
    for (const auto target : {arch::FaultTarget::kRegister, arch::FaultTarget::kMemory,
                              arch::FaultTarget::kInstruction}) {
      std::vector<arch::FaultRecord> reference;
      for (std::size_t t = 0; t < kTrials; ++t)
        reference.push_back(injector.replay_trial(trial_seed(kSeed, t), target));
      for (const auto mode : {kernels::Dispatch::kScalar, kernels::Dispatch::kAvx2}) {
        kernels::set_dispatch(mode);
        for (const unsigned threads : {1u, 4u, 0u}) {
          const auto batched = injector.campaign(kTrials, target, kSeed, threads);
          EXPECT_TRUE(reference == batched)
              << w.name << " target=" << static_cast<int>(target)
              << " dispatch=" << kernels::dispatch_name(kernels::active_dispatch())
              << " threads=" << threads;
        }
      }
    }
  }
}

TEST(SimdCampaignDifferential, PipelineCampaignBitIdenticalToReference) {
  DispatchGuard dispatch_guard;
  const auto w = arch::make_checksum(10, 3);
  constexpr std::size_t kTrials = 200;
  constexpr std::uint64_t kSeed = 77;
  // The first campaign is checked record by record against the per-trial
  // reference `pipeline_inject` on its own site; every other dispatch mode
  // and thread count must then reproduce it exactly.
  std::vector<arch::FaultRecord> reference;
  for (const auto mode : {kernels::Dispatch::kScalar, kernels::Dispatch::kAvx2}) {
    kernels::set_dispatch(mode);
    for (const unsigned threads : {1u, 4u, 0u}) {
      const auto batched = arch::pipeline_campaign(w, kTrials, kSeed, threads);
      if (reference.empty()) {
        ASSERT_EQ(batched.size(), kTrials);
        for (std::size_t t = 0; t < kTrials; ++t) {
          const auto& rec = batched[t];
          arch::FaultRecord expected;
          expected.site.target = arch::FaultTarget::kRegister;
          expected.site.index = rec.site.index;
          expected.site.bit = rec.site.bit;
          expected.site.cycle = rec.site.cycle;
          expected.outcome = arch::pipeline_inject(
              w, {static_cast<arch::LatchField>(rec.site.index), rec.site.bit,
                  rec.site.cycle});
          expected.trial_seed = trial_seed(kSeed, t);
          ASSERT_TRUE(rec == expected) << "trial " << t;
        }
        reference = batched;
      }
      EXPECT_TRUE(reference == batched)
          << "dispatch=" << kernels::dispatch_name(kernels::active_dispatch())
          << " threads=" << threads;
    }
  }
}

TEST(SimdCampaignDifferential, ReplaySeedStillReproducesBatchedTrials) {
  // Each batched record's trial_seed must replay to the same outcome through
  // the (reference) single-trial path — the cross-body debugging loop.
  const auto w = arch::make_checksum(12, 5);
  const arch::FaultInjector injector(w);
  const auto records = injector.campaign(64, arch::FaultTarget::kRegister, 9, 0);
  for (const auto& rec : records) {
    const auto replayed = injector.replay_trial(rec.trial_seed, arch::FaultTarget::kRegister);
    EXPECT_TRUE(rec == replayed);
  }
}

}  // namespace
