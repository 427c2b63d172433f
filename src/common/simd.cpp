// Runtime SIMD dispatch + AVX2 batch-kernel variants (DESIGN.md §11).
//
// The AVX2 functions are compiled with __attribute__((target("avx2"))) so
// the translation unit — and the rest of the binary — keeps the baseline
// ISA; they are only ever called after `best_dispatch()` has confirmed the
// host CPU supports AVX2. Every variant is proven bit-identical to its
// `kernels::scalar::` reference by the differential suite
// (tests/common/simd_kernels_test.cpp, ctest label `simd`).
#include "src/common/kernels.hpp"

#include <atomic>
#include <bit>

#if LORE_SIMD_COMPILED
#include <immintrin.h>
#endif

namespace lore::kernels {
namespace {

std::atomic<Dispatch> g_dispatch{Dispatch::kScalar};
std::atomic<bool> g_dispatch_init{false};

bool avx2_supported() {
#if LORE_SIMD_COMPILED
  return __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

}  // namespace

const char* dispatch_name(Dispatch d) {
  switch (d) {
    case Dispatch::kScalar: return "scalar";
    case Dispatch::kAvx2: return "avx2";
  }
  return "?";
}

Dispatch best_dispatch() {
  return avx2_supported() ? Dispatch::kAvx2 : Dispatch::kScalar;
}

Dispatch active_dispatch() {
  // Benign init race: concurrent first callers all compute the same
  // best_dispatch() value.
  if (!g_dispatch_init.load(std::memory_order_acquire)) {
    g_dispatch.store(best_dispatch(), std::memory_order_relaxed);
    g_dispatch_init.store(true, std::memory_order_release);
  }
  return g_dispatch.load(std::memory_order_relaxed);
}

void set_dispatch(Dispatch d) {
  if (d == Dispatch::kAvx2 && !avx2_supported()) d = Dispatch::kScalar;
  g_dispatch.store(d, std::memory_order_relaxed);
  g_dispatch_init.store(true, std::memory_order_release);
}

#if LORE_SIMD_COMPILED

namespace avx2 {
namespace {

/// 4-lane 64-bit multiply from 32x32->64 partial products (AVX2 has no
/// 64-bit multiply): lo(a)*lo(b) + ((lo(a)*hi(b) + hi(a)*lo(b)) << 32).
__attribute__((target("avx2"))) inline __m256i mul64(__m256i a, __m256i b) {
  const __m256i lo = _mm256_mul_epu32(a, b);
  const __m256i a_hi = _mm256_srli_epi64(a, 32);
  const __m256i b_hi = _mm256_srli_epi64(b, 32);
  const __m256i cross =
      _mm256_add_epi64(_mm256_mul_epu32(a_hi, b), _mm256_mul_epu32(a, b_hi));
  return _mm256_add_epi64(lo, _mm256_slli_epi64(cross, 32));
}

}  // namespace

__attribute__((target("avx2"))) void fill_trial_seeds(std::span<std::uint64_t> out,
                                                      std::uint64_t base_seed,
                                                      std::uint64_t first_index) {
  const __m256i base = _mm256_set1_epi64x(static_cast<long long>(base_seed));
  const __m256i c1 = _mm256_set1_epi64x(static_cast<long long>(0x9e3779b97f4a7c15ULL));
  const __m256i c2 = _mm256_set1_epi64x(static_cast<long long>(0xbf58476d1ce4e5b9ULL));
  const __m256i c3 = _mm256_set1_epi64x(static_cast<long long>(0x94d049bb133111ebULL));
  const __m256i four = _mm256_set1_epi64x(4);
  __m256i idx = _mm256_add_epi64(
      _mm256_set1_epi64x(static_cast<long long>(first_index)),
      _mm256_set_epi64x(3, 2, 1, 0));
  std::size_t i = 0;
  for (; i + 4 <= out.size(); i += 4) {
    __m256i z = _mm256_add_epi64(_mm256_xor_si256(base, idx), c1);
    z = mul64(_mm256_xor_si256(z, _mm256_srli_epi64(z, 30)), c2);
    z = mul64(_mm256_xor_si256(z, _mm256_srli_epi64(z, 27)), c3);
    z = _mm256_xor_si256(z, _mm256_srli_epi64(z, 31));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out.data() + i), z);
    idx = _mm256_add_epi64(idx, four);
  }
  for (; i < out.size(); ++i) out[i] = scalar::trial_seed_at(base_seed, first_index + i);
}

__attribute__((target("avx2"))) std::size_t count_mismatch_u32(
    std::span<const std::uint32_t> a, std::span<const std::uint32_t> b) {
  assert(a.size() == b.size());
  std::size_t mismatches = 0;
  std::size_t i = 0;
  for (; i + 8 <= a.size(); i += 8) {
    const __m256i va = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a.data() + i));
    const __m256i vb = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b.data() + i));
    const __m256i eq = _mm256_cmpeq_epi32(va, vb);
    const unsigned mask =
        static_cast<unsigned>(_mm256_movemask_ps(_mm256_castsi256_ps(eq)));
    mismatches += 8 - static_cast<std::size_t>(std::popcount(mask & 0xffu));
  }
  for (; i < a.size(); ++i) mismatches += a[i] != b[i];
  return mismatches;
}

__attribute__((target("avx2"))) void copy_u32(std::span<std::uint32_t> dst,
                                              std::span<const std::uint32_t> src) {
  assert(dst.size() == src.size());
  std::size_t i = 0;
  for (; i + 8 <= dst.size(); i += 8) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src.data() + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst.data() + i), v);
  }
  for (; i < dst.size(); ++i) dst[i] = src[i];
}

__attribute__((target("avx2"))) std::size_t count_equal_u8(
    std::span<const std::uint8_t> v, std::uint8_t value) {
  const __m256i needle = _mm256_set1_epi8(static_cast<char>(value));
  std::size_t count = 0;
  std::size_t i = 0;
  for (; i + 32 <= v.size(); i += 32) {
    const __m256i x = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(v.data() + i));
    const unsigned mask =
        static_cast<unsigned>(_mm256_movemask_epi8(_mm256_cmpeq_epi8(x, needle)));
    count += static_cast<std::size_t>(std::popcount(mask));
  }
  for (; i < v.size(); ++i) count += v[i] == value;
  return count;
}

// --- Batched ML inference kernels (DESIGN.md §13) --------------------------
//
// Vectorization is across panel lanes (4 independent rows per pass); each
// lane's accumulation stays feature-sequential in the reference order, and
// there is no FMA (explicit mul then add), so every result is bit-identical
// to kernels::scalar. No gathers anywhere: they measure ~3x slower than
// interleaved scalar loads on gather-mitigated Intel cores, which is also
// why the row-major dot/tree kernels have no AVX2 variant at all.

namespace {

/// Spill one block-accumulator to the valid lanes of `out`.
__attribute__((target("avx2"))) inline void store_l2_lanes(double* out, __m256d acc,
                                                           std::size_t lanes) {
  double tmp[kPanelLanes];
  _mm256_storeu_pd(tmp, acc);
  for (std::size_t l = 0; l < lanes; ++l) out[l] = tmp[l];
}

}  // namespace

__attribute__((target("avx2"))) void l2_sq_blocked(std::span<double> out, const double* q,
                                                   std::size_t qn,
                                                   std::span<const double> panel,
                                                   std::size_t rows, std::size_t cols) {
  assert(qn >= 1 && qn <= kPanelLanes && out.size() >= qn * rows &&
         panel.size() == panel_size(rows, cols));
  std::size_t base = 0;
  if (qn == kPanelLanes) {
    // Full query tile: two panel blocks x four queries = eight independent
    // accumulation chains in flight. A single chain is bound by the 4-cycle
    // vaddpd latency (one feature step per 4 cycles); eight chains keep the
    // FP ports saturated instead. Padding lanes are zero, so both blocks
    // always run full width and only the valid lanes are stored.
    const std::size_t padded = panel_rows_padded(rows);
    for (; base + 2 * kPanelLanes <= padded; base += 2 * kPanelLanes) {
      const double* b0 = panel.data() + base * cols;
      const double* b1 = b0 + kPanelLanes * cols;
      __m256d a00 = _mm256_setzero_pd(), a01 = _mm256_setzero_pd(),
              a02 = _mm256_setzero_pd(), a03 = _mm256_setzero_pd();
      __m256d a10 = _mm256_setzero_pd(), a11 = _mm256_setzero_pd(),
              a12 = _mm256_setzero_pd(), a13 = _mm256_setzero_pd();
      for (std::size_t c = 0; c < cols; ++c) {
        const __m256d v0 = _mm256_loadu_pd(b0 + c * kPanelLanes);
        const __m256d v1 = _mm256_loadu_pd(b1 + c * kPanelLanes);
        __m256d qb = _mm256_set1_pd(q[c]);
        __m256d d0 = _mm256_sub_pd(v0, qb), d1 = _mm256_sub_pd(v1, qb);
        a00 = _mm256_add_pd(a00, _mm256_mul_pd(d0, d0));
        a10 = _mm256_add_pd(a10, _mm256_mul_pd(d1, d1));
        qb = _mm256_set1_pd(q[cols + c]);
        d0 = _mm256_sub_pd(v0, qb);
        d1 = _mm256_sub_pd(v1, qb);
        a01 = _mm256_add_pd(a01, _mm256_mul_pd(d0, d0));
        a11 = _mm256_add_pd(a11, _mm256_mul_pd(d1, d1));
        qb = _mm256_set1_pd(q[2 * cols + c]);
        d0 = _mm256_sub_pd(v0, qb);
        d1 = _mm256_sub_pd(v1, qb);
        a02 = _mm256_add_pd(a02, _mm256_mul_pd(d0, d0));
        a12 = _mm256_add_pd(a12, _mm256_mul_pd(d1, d1));
        qb = _mm256_set1_pd(q[3 * cols + c]);
        d0 = _mm256_sub_pd(v0, qb);
        d1 = _mm256_sub_pd(v1, qb);
        a03 = _mm256_add_pd(a03, _mm256_mul_pd(d0, d0));
        a13 = _mm256_add_pd(a13, _mm256_mul_pd(d1, d1));
      }
      const std::size_t l0 = std::min(kPanelLanes, rows - base);
      const std::size_t l1 =
          rows > base + kPanelLanes ? std::min(kPanelLanes, rows - base - kPanelLanes) : 0;
      store_l2_lanes(out.data() + base, a00, l0);
      store_l2_lanes(out.data() + rows + base, a01, l0);
      store_l2_lanes(out.data() + 2 * rows + base, a02, l0);
      store_l2_lanes(out.data() + 3 * rows + base, a03, l0);
      if (l1 != 0) {
        store_l2_lanes(out.data() + base + kPanelLanes, a10, l1);
        store_l2_lanes(out.data() + rows + base + kPanelLanes, a11, l1);
        store_l2_lanes(out.data() + 2 * rows + base + kPanelLanes, a12, l1);
        store_l2_lanes(out.data() + 3 * rows + base + kPanelLanes, a13, l1);
      }
    }
  }
  for (; base < rows; base += kPanelLanes) {
    const double* block = panel.data() + (base / kPanelLanes) * kPanelLanes * cols;
    // One accumulator per query; the panel block is loaded once per feature
    // and reused by every query in the tile.
    __m256d acc[kPanelLanes] = {_mm256_setzero_pd(), _mm256_setzero_pd(),
                                _mm256_setzero_pd(), _mm256_setzero_pd()};
    for (std::size_t c = 0; c < cols; ++c) {
      const __m256d bv = _mm256_loadu_pd(block + c * kPanelLanes);
      for (std::size_t qi = 0; qi < qn; ++qi) {
        const __m256d d = _mm256_sub_pd(bv, _mm256_set1_pd(q[qi * cols + c]));
        acc[qi] = _mm256_add_pd(acc[qi], _mm256_mul_pd(d, d));
      }
    }
    const std::size_t lanes = std::min(kPanelLanes, rows - base);
    for (std::size_t qi = 0; qi < qn; ++qi)
      store_l2_lanes(out.data() + qi * rows + base, acc[qi], lanes);
  }
}

__attribute__((target("avx2"))) void top_k_select(std::span<const double> values,
                                                  std::span<std::uint32_t> out_idx) {
  const std::size_t k = out_idx.size();
  assert(k > 0 && k <= values.size());
  std::size_t filled = 0;
  // Insertion under the (value, index) total order — identical rule to the
  // scalar reference, so both produce the same unique result.
  const auto insert = [&](std::size_t idx) {
    const double v = values[idx];
    if (filled == k && !(v < values[out_idx[k - 1]])) return;
    std::size_t pos = filled < k ? filled++ : k - 1;
    while (pos > 0 && v < values[out_idx[pos - 1]]) {
      out_idx[pos] = out_idx[pos - 1];
      --pos;
    }
    out_idx[pos] = static_cast<std::uint32_t>(idx);
  };
  std::size_t i = 0;
  for (; i < values.size() && filled < k; ++i) insert(i);
  // Steady state: most candidates lose to the current k-th best, so scan 4 at
  // a time and only fall into the insertion path when a lane beats it.
  for (; i + 4 <= values.size(); i += 4) {
    const __m256d v = _mm256_loadu_pd(values.data() + i);
    const __m256d worst = _mm256_set1_pd(values[out_idx[k - 1]]);
    if (_mm256_movemask_pd(_mm256_cmp_pd(v, worst, _CMP_LT_OQ)) == 0) continue;
    for (std::size_t l = 0; l < 4; ++l) insert(i + l);
  }
  for (; i < values.size(); ++i) insert(i);
}

}  // namespace avx2

#endif  // LORE_SIMD_COMPILED

}  // namespace lore::kernels
