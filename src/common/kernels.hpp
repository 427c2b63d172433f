// Shared low-level compute kernels.
//
// One header for the innermost loops the whole repo leans on, so every user
// (dense ML in `src/ml/matrix`, the bit-packed HDC engine in `src/ml/hdc`,
// future bitwise fault masks) pulls the same implementation:
//
//   * dense float kernels: `dot`, `axpy`, `l2_distance` — deliberately plain
//     sequential accumulation so results stay bit-identical across call sites
//     and refactors (no reassociation, no FMA contract surprises);
//   * bit kernels over little-endian `uint64_t` word arrays: popcounts,
//     XOR/XNOR combines, and a dim-bit rotate with carry — the packed
//     hypervector primitives (bind = XOR, Hamming = XOR + popcount,
//     permute = rotate);
//   * batch trial kernels for the allocation-free campaign hot path
//     (DESIGN.md §11): per-chunk trial-seed generation, output-window
//     mismatch counting, word copies, and status tallies. These follow the
//     packed/scalar split of the HDC engine: `scalar::` holds the
//     bit-identical reference, and the unqualified entry points dispatch at
//     runtime to an AVX2 variant when the build (`-DLORE_SIMD=ON`) and the
//     host CPU both allow it.
//
// Bit layout convention: component `i` of a `dim`-bit vector lives in word
// `i / 64`, bit `i % 64`. Words past `dim` bits (the tail) must be kept zero
// by callers; `tail_mask` is the canonical mask for re-establishing that
// invariant after a shifting operation.
#pragma once

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

/// True when the AVX2 kernel variants are compiled into the binary. The
/// `-DLORE_SIMD=OFF` build (which defines LORE_SIMD_DISABLED) and non-x86
/// targets compile only the scalar reference; dispatch then always resolves
/// to it.
#if defined(__x86_64__) && !defined(LORE_SIMD_DISABLED)
#define LORE_SIMD_COMPILED 1
#else
#define LORE_SIMD_COMPILED 0
#endif

namespace lore::kernels {

// ---------------------------------------------------------------------------
// Dense float kernels.

/// Dot product of equal-length spans (sequential accumulation).
inline double dot(std::span<const double> a, std::span<const double> b) {
  assert(a.size() == b.size());
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

/// In-place a += s * b.
inline void axpy(std::span<double> a, double s, std::span<const double> b) {
  assert(a.size() == b.size());
  for (std::size_t i = 0; i < a.size(); ++i) a[i] += s * b[i];
}

/// Squared Euclidean distance (callers take the sqrt when they need it).
inline double l2_distance_sq(std::span<const double> a, std::span<const double> b) {
  assert(a.size() == b.size());
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    s += d * d;
  }
  return s;
}

// ---------------------------------------------------------------------------
// Bit kernels (little-endian uint64_t word arrays).

inline constexpr std::size_t kWordBits = 64;

/// Number of 64-bit words needed to hold `bits` bits.
constexpr std::size_t word_count(std::size_t bits) {
  return (bits + kWordBits - 1) / kWordBits;
}

/// Mask of the valid bits in the last word of a `bits`-bit vector
/// (all-ones when `bits` is a multiple of 64). `bits` must be > 0.
constexpr std::uint64_t tail_mask(std::size_t bits) {
  const std::size_t rem = bits % kWordBits;
  return rem == 0 ? ~0ULL : (~0ULL >> (kWordBits - rem));
}

/// Total population count of a word array.
inline std::size_t popcount_words(std::span<const std::uint64_t> w) {
  std::size_t n = 0;
  for (const std::uint64_t x : w) n += static_cast<std::size_t>(std::popcount(x));
  return n;
}

/// popcount(a XOR b) — the Hamming distance of two packed bit vectors
/// (both tails must be zero so the tail contributes nothing).
inline std::size_t xor_popcount(std::span<const std::uint64_t> a,
                                std::span<const std::uint64_t> b) {
  assert(a.size() == b.size());
  std::size_t n = 0;
  for (std::size_t i = 0; i < a.size(); ++i)
    n += static_cast<std::size_t>(std::popcount(a[i] ^ b[i]));
  return n;
}

/// out = a XOR b, word-parallel.
inline void xor_words(std::span<std::uint64_t> out, std::span<const std::uint64_t> a,
                      std::span<const std::uint64_t> b) {
  assert(out.size() == a.size() && a.size() == b.size());
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = a[i] ^ b[i];
}

/// out |= in << k over a multi-word array (k < 64 * in.size()); bits shifted
/// past the top are dropped, vacated low bits are left untouched.
inline void or_shifted_left(std::span<std::uint64_t> out,
                            std::span<const std::uint64_t> in, std::size_t k) {
  assert(out.size() == in.size());
  const std::size_t ws = k / kWordBits, bs = k % kWordBits;
  for (std::size_t j = out.size(); j-- > ws;) {
    std::uint64_t v = in[j - ws] << bs;
    if (bs != 0 && j >= ws + 1) v |= in[j - ws - 1] >> (kWordBits - bs);
    out[j] |= v;
  }
}

/// out |= in >> k over a multi-word array (k < 64 * in.size()).
inline void or_shifted_right(std::span<std::uint64_t> out,
                             std::span<const std::uint64_t> in, std::size_t k) {
  assert(out.size() == in.size());
  const std::size_t ws = k / kWordBits, bs = k % kWordBits;
  for (std::size_t j = 0; j + ws < out.size(); ++j) {
    std::uint64_t v = in[j + ws] >> bs;
    if (bs != 0 && j + ws + 1 < in.size()) v |= in[j + ws + 1] << (kWordBits - bs);
    out[j] |= v;
  }
}

namespace detail {
/// lut[byte][b] = byte bit b set ? -1 : +1, for block-unpacking sign words.
inline constexpr auto kSignLut = [] {
  struct Table {
    std::int8_t v[256][8];
  } t{};
  for (int byte = 0; byte < 256; ++byte)
    for (int b = 0; b < 8; ++b)
      t.v[byte][b] = (byte >> b) & 1 ? std::int8_t{-1} : std::int8_t{1};
  return t;
}();
}  // namespace detail

/// Expand one packed sign word into 64 ±1 int8 components (bit set = -1).
inline void unpack_sign_word(std::int8_t out[64], std::uint64_t word) {
  for (std::size_t byte = 0; byte < 8; ++byte) {
    const auto& row = detail::kSignLut.v[(word >> (8 * byte)) & 0xff];
    for (std::size_t b = 0; b < 8; ++b) out[8 * byte + b] = row[b];
  }
}

/// Carry-save ripple add of one bit vector into a stack of bit-plane
/// counters: per component i, the count held across planes (Σ_p plane_p[i]
/// << p) grows by `v[i] << shift`. Planes are appended as carries overflow
/// the stack; `scratch` is caller-provided carry storage (resized here) so
/// hot loops can amortize the allocation. Word-parallel: each pass is one
/// XOR + AND over the word array, and the loop ends as soon as the carry
/// dies, so an N-add sequence costs O(words) amortized per add (binary
/// counter increment argument), not O(components).
inline void ripple_add_planes(std::vector<std::vector<std::uint64_t>>& planes,
                              std::span<const std::uint64_t> v, std::size_t shift,
                              std::vector<std::uint64_t>& scratch) {
  scratch.assign(v.begin(), v.end());
  for (std::size_t idx = shift; true; ++idx) {
    while (idx >= planes.size()) planes.emplace_back(v.size(), 0);
    auto& plane = planes[idx];
    std::uint64_t alive = 0;
    for (std::size_t i = 0; i < v.size(); ++i) {
      const std::uint64_t carry = scratch[i];
      scratch[i] = plane[i] & carry;
      plane[i] ^= carry;
      alive |= scratch[i];
    }
    if (alive == 0) return;
  }
}

/// Rotate a `dim`-bit vector left by `k`: result bit (i + k) mod dim = input
/// bit i. Word-level shifts with carry across word boundaries; the tail of
/// `out` is re-masked so the zero-tail invariant holds. `in` must have a zero
/// tail and `out` must not alias `in`.
inline void rotate_left_bits(std::span<std::uint64_t> out,
                             std::span<const std::uint64_t> in, std::size_t dim,
                             std::size_t k) {
  assert(out.size() == in.size() && in.size() == word_count(dim));
  if (dim == 0) return;
  k %= dim;
  for (auto& w : out) w = 0;
  if (k == 0) {
    for (std::size_t i = 0; i < in.size(); ++i) out[i] = in[i];
    return;
  }
  or_shifted_left(out, in, k);        // input bits [0, dim-k) -> output [k, dim)
  or_shifted_right(out, in, dim - k); // input bits [dim-k, dim) wrap to [0, k)
  out[out.size() - 1] &= tail_mask(dim);
}

// ---------------------------------------------------------------------------
// Panel layout for batched ML inference (DESIGN.md §13).
//
// Feature rows are packed into blocks ("panels") of `kPanelLanes` rows with
// the features of one block interleaved lane-wise: one feature of 4
// consecutive rows is one contiguous 4-double load. The blocked kernels below
// run 4 independent rows per pass, each accumulating feature-sequentially in
// exactly the order of the per-sample reference — vectorization is across
// rows, never within a row's accumulation, which is what keeps scalar and
// AVX2 results bit-identical (no reassociation, no FMA contraction).
//
// Only kNN uses panels: its training block is packed once at fit() and then
// streamed by every query, so the layout cost is amortized away. The SVM and
// tree-ensemble kernels read row-major feature blocks directly instead —
// packing per predict_batch call costs more memory traffic than their tiny
// per-row arithmetic saves, and tree traversal in panel layout needs either
// hardware gathers (a measured ~3x pessimization on gather-mitigated Intel
// cores) or strided loads that defeat the row's cache-line locality.

inline constexpr std::size_t kPanelLanes = 4;

/// Rows rounded up to a whole number of panel lanes.
constexpr std::size_t panel_rows_padded(std::size_t rows) {
  return (rows + kPanelLanes - 1) / kPanelLanes * kPanelLanes;
}

/// Doubles needed to hold a `rows` x `cols` block in panel layout.
constexpr std::size_t panel_size(std::size_t rows, std::size_t cols) {
  return panel_rows_padded(rows) * cols;
}

/// Flat index of element (row, col) in panel layout.
constexpr std::size_t panel_index(std::size_t row, std::size_t col, std::size_t cols) {
  return (row / kPanelLanes) * (kPanelLanes * cols) + col * kPanelLanes +
         row % kPanelLanes;
}

/// Flattened structure-of-arrays forest for batched tree-ensemble traversal:
/// the nodes of every tree share five parallel arrays (gather-friendly), and
/// `root[t]` indexes tree t's root. `feature[n] < 0` marks node n a leaf
/// whose payload is `value[n]`; interior nodes branch left when
/// x[feature] <= threshold, exactly like ml::DecisionTree.
struct TreeSoa {
  std::vector<std::int32_t> feature;
  std::vector<double> threshold;
  std::vector<std::int32_t> left, right;
  std::vector<double> value;
  std::vector<std::int32_t> root;

  std::size_t tree_count() const { return root.size(); }
  std::size_t node_count() const { return feature.size(); }
};

// ---------------------------------------------------------------------------
// Batch trial kernels with runtime SIMD dispatch (DESIGN.md §11).

/// Implementation selected by the dispatched batch-kernel entry points.
enum class Dispatch : std::uint8_t { kScalar, kAvx2 };

const char* dispatch_name(Dispatch d);

/// Strongest implementation this process may use: kAvx2 when compiled in and
/// supported by the host CPU; kScalar otherwise.
Dispatch best_dispatch();

/// The implementation the dispatched entry points currently use (initialized
/// lazily from `best_dispatch`).
Dispatch active_dispatch();

/// Override the active implementation — the differential test hook. Requests
/// for an unavailable implementation clamp to kScalar.
void set_dispatch(Dispatch d);

/// Bit-identical scalar reference implementations. Always compiled; the
/// differential suite (tests/common/simd_kernels_test) proves the dispatched
/// paths equal to these at every size.
namespace scalar {

/// splitmix64 finalizer of `base_seed ^ index` — the engine-wide per-trial
/// seed function (`lore::trial_seed` forwards here).
inline std::uint64_t trial_seed_at(std::uint64_t base_seed, std::uint64_t index) {
  std::uint64_t z = (base_seed ^ index) + 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// out[i] = trial_seed_at(base_seed, first_index + i).
inline void fill_trial_seeds(std::span<std::uint64_t> out, std::uint64_t base_seed,
                             std::uint64_t first_index) {
  for (std::size_t i = 0; i < out.size(); ++i)
    out[i] = trial_seed_at(base_seed, first_index + i);
}

/// Number of positions where a and b differ.
inline std::size_t count_mismatch_u32(std::span<const std::uint32_t> a,
                                      std::span<const std::uint32_t> b) {
  assert(a.size() == b.size());
  std::size_t n = 0;
  for (std::size_t i = 0; i < a.size(); ++i) n += a[i] != b[i];
  return n;
}

/// dst = src (no aliasing).
inline void copy_u32(std::span<std::uint32_t> dst, std::span<const std::uint32_t> src) {
  assert(dst.size() == src.size());
  for (std::size_t i = 0; i < dst.size(); ++i) dst[i] = src[i];
}

/// Number of bytes equal to `value` (status-vector tallies).
inline std::size_t count_equal_u8(std::span<const std::uint8_t> v, std::uint8_t value) {
  std::size_t n = 0;
  for (const std::uint8_t x : v) n += x == value;
  return n;
}

/// Pack a row-major [rows x cols] block into panel layout (see panel_index);
/// the padding lanes of a final partial panel are zeroed so blocked kernels
/// can run them harmlessly.
inline void pack_row_panels(std::span<double> out, const double* src, std::size_t rows,
                            std::size_t cols) {
  assert(out.size() == panel_size(rows, cols));
  const std::size_t padded = panel_rows_padded(rows);
  for (std::size_t r = 0; r < padded; ++r)
    for (std::size_t c = 0; c < cols; ++c)
      out[panel_index(r, c, cols)] = r < rows ? src[r * cols + c] : 0.0;
}

/// out[qi * rows + r] = squared L2 distance between query qi and panel row r,
/// for `qn` (1..kPanelLanes) queries per call. Each (query, row) pair
/// accumulates feature-sequentially, exactly like `l2_distance_sq`, so every
/// result is bit-identical to the per-row reference. The scalar walk is
/// query-major (one full panel pass per query): sharing the panel pass across
/// queries only pays in the register-tiled AVX2 variant, and measured slower
/// here — the campaign-scale panel sits in cache anyway.
inline void l2_sq_blocked(std::span<double> out, const double* q, std::size_t qn,
                          std::span<const double> panel, std::size_t rows,
                          std::size_t cols) {
  assert(qn >= 1 && qn <= kPanelLanes && out.size() >= qn * rows &&
         panel.size() == panel_size(rows, cols));
  for (std::size_t qi = 0; qi < qn; ++qi) {
    const double* qv = q + qi * cols;
    double* out_q = out.data() + qi * rows;
    for (std::size_t base = 0; base < rows; base += kPanelLanes) {
      const double* block = panel.data() + (base / kPanelLanes) * kPanelLanes * cols;
      const std::size_t lanes = std::min(kPanelLanes, rows - base);
      for (std::size_t lane = 0; lane < lanes; ++lane) {
        double s = 0.0;
        for (std::size_t c = 0; c < cols; ++c) {
          const double d = block[c * kPanelLanes + lane] - qv[c];
          s += d * d;
        }
        out_q[base + lane] = s;
      }
    }
  }
}

/// out[r] = dot(w, row r of the row-major [rows x cols] block `x`), four
/// independent feature-sequential accumulation chains in flight (bit-identical
/// to the `dot` reference — interleaving rows never reorders a row's sum).
inline void dot_rows(std::span<double> out, std::span<const double> w, const double* x,
                     std::size_t rows, std::size_t cols) {
  assert(out.size() >= rows && w.size() == cols);
  std::size_t r = 0;
  for (; r + 4 <= rows; r += 4) {
    const double* a = x + r * cols;
    const double* b = a + cols;
    const double* c2 = b + cols;
    const double* d = c2 + cols;
    double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
    for (std::size_t c = 0; c < cols; ++c) {
      const double wc = w[c];
      s0 += wc * a[c];
      s1 += wc * b[c];
      s2 += wc * c2[c];
      s3 += wc * d[c];
    }
    out[r] = s0;
    out[r + 1] = s1;
    out[r + 2] = s2;
    out[r + 3] = s3;
  }
  for (; r < rows; ++r) {
    const double* row = x + r * cols;
    double s = 0.0;
    for (std::size_t c = 0; c < cols; ++c) s += w[c] * row[c];
    out[r] = s;
  }
}

/// Indices of the `out_idx.size()` smallest values under the total order
/// (value, index) — ties break toward the lower index, so the selected set
/// and its output order (ascending) are unique regardless of implementation.
/// The kNN top-k primitive.
inline void top_k_select(std::span<const double> values, std::span<std::uint32_t> out_idx) {
  const std::size_t k = out_idx.size();
  assert(k > 0 && k <= values.size());
  std::size_t filled = 0;
  for (std::size_t i = 0; i < values.size(); ++i) {
    const double v = values[i];
    if (filled == k && !(v < values[out_idx[k - 1]])) continue;
    std::size_t pos = filled < k ? filled++ : k - 1;
    while (pos > 0 && v < values[out_idx[pos - 1]]) {
      out_idx[pos] = out_idx[pos - 1];
      --pos;
    }
    out_idx[pos] = static_cast<std::uint32_t>(i);
  }
}

/// out[r] += scale * leaf_value(tree, row r of the row-major block `x`) for
/// every tree of `forest`, accumulated tree-by-tree in forest order — the
/// same per-sample accumulation sequence as the reference
/// (base + sum of lr * tree.predict_value), so margins stay bit-identical.
/// Four rows traverse in interleaved lockstep: each step issues four
/// independent node loads, hiding the pointer-chase latency the one-row-at-
/// a-time walk is bound by. Lanes that reach a leaf park until the slowest
/// lane finishes the tree.
inline void tree_accumulate_rows(std::span<double> out, const TreeSoa& forest,
                                 const double* x, std::size_t rows, std::size_t cols,
                                 double scale) {
  assert(out.size() >= rows);
  const std::int32_t* feat = forest.feature.data();
  const double* thr = forest.threshold.data();
  const std::int32_t* lft = forest.left.data();
  const std::int32_t* rgt = forest.right.data();
  const double* val = forest.value.data();
  std::size_t r = 0;
  for (; r + 4 <= rows; r += 4) {
    const double* x0 = x + r * cols;
    const double* x1 = x0 + cols;
    const double* x2 = x1 + cols;
    const double* x3 = x2 + cols;
    double s0 = out[r], s1 = out[r + 1], s2 = out[r + 2], s3 = out[r + 3];
    for (std::size_t t = 0; t < forest.tree_count(); ++t) {
      std::int32_t n0 = forest.root[t], n1 = n0, n2 = n0, n3 = n0;
      std::int32_t f0 = feat[n0], f1 = f0, f2 = f0, f3 = f0;
      while (std::max(std::max(f0, f1), std::max(f2, f3)) >= 0) {
        if (f0 >= 0) {
          n0 = x0[f0] <= thr[n0] ? lft[n0] : rgt[n0];
          f0 = feat[n0];
        }
        if (f1 >= 0) {
          n1 = x1[f1] <= thr[n1] ? lft[n1] : rgt[n1];
          f1 = feat[n1];
        }
        if (f2 >= 0) {
          n2 = x2[f2] <= thr[n2] ? lft[n2] : rgt[n2];
          f2 = feat[n2];
        }
        if (f3 >= 0) {
          n3 = x3[f3] <= thr[n3] ? lft[n3] : rgt[n3];
          f3 = feat[n3];
        }
      }
      s0 += scale * val[n0];
      s1 += scale * val[n1];
      s2 += scale * val[n2];
      s3 += scale * val[n3];
    }
    out[r] = s0;
    out[r + 1] = s1;
    out[r + 2] = s2;
    out[r + 3] = s3;
  }
  for (; r < rows; ++r) {
    const double* row = x + r * cols;
    double s = out[r];
    for (std::size_t t = 0; t < forest.tree_count(); ++t) {
      std::int32_t node = forest.root[t];
      while (feat[node] >= 0) node = row[feat[node]] <= thr[node] ? lft[node] : rgt[node];
      s += scale * val[node];
    }
    out[r] = s;
  }
}

}  // namespace scalar

#if LORE_SIMD_COMPILED
/// AVX2 variants (src/common/simd.cpp, compiled with target("avx2") so the
/// rest of the binary keeps the baseline ISA; call only when
/// `best_dispatch() == kAvx2`).
namespace avx2 {
void fill_trial_seeds(std::span<std::uint64_t> out, std::uint64_t base_seed,
                      std::uint64_t first_index);
std::size_t count_mismatch_u32(std::span<const std::uint32_t> a,
                               std::span<const std::uint32_t> b);
void copy_u32(std::span<std::uint32_t> dst, std::span<const std::uint32_t> src);
std::size_t count_equal_u8(std::span<const std::uint8_t> v, std::uint8_t value);
void l2_sq_blocked(std::span<double> out, const double* q, std::size_t qn,
                   std::span<const double> panel, std::size_t rows, std::size_t cols);
void top_k_select(std::span<const double> values, std::span<std::uint32_t> out_idx);
}  // namespace avx2
#endif

// Dispatched entry points — what the campaign engine calls.

inline void fill_trial_seeds(std::span<std::uint64_t> out, std::uint64_t base_seed,
                             std::uint64_t first_index) {
#if LORE_SIMD_COMPILED
  if (active_dispatch() == Dispatch::kAvx2)
    return avx2::fill_trial_seeds(out, base_seed, first_index);
#endif
  scalar::fill_trial_seeds(out, base_seed, first_index);
}

inline std::size_t count_mismatch_u32(std::span<const std::uint32_t> a,
                                      std::span<const std::uint32_t> b) {
#if LORE_SIMD_COMPILED
  if (active_dispatch() == Dispatch::kAvx2) return avx2::count_mismatch_u32(a, b);
#endif
  return scalar::count_mismatch_u32(a, b);
}

inline void copy_u32(std::span<std::uint32_t> dst, std::span<const std::uint32_t> src) {
#if LORE_SIMD_COMPILED
  if (active_dispatch() == Dispatch::kAvx2) return avx2::copy_u32(dst, src);
#endif
  scalar::copy_u32(dst, src);
}

inline std::size_t count_equal_u8(std::span<const std::uint8_t> v, std::uint8_t value) {
#if LORE_SIMD_COMPILED
  if (active_dispatch() == Dispatch::kAvx2) return avx2::count_equal_u8(v, value);
#endif
  return scalar::count_equal_u8(v, value);
}

/// Panel packing is a pure memory shuffle (no arithmetic to vectorize away
/// from the reference); exposed unqualified for a uniform call surface.
inline void pack_row_panels(std::span<double> out, const double* src, std::size_t rows,
                            std::size_t cols) {
  scalar::pack_row_panels(out, src, rows, cols);
}

inline void l2_sq_blocked(std::span<double> out, const double* q, std::size_t qn,
                          std::span<const double> panel, std::size_t rows,
                          std::size_t cols) {
#if LORE_SIMD_COMPILED
  if (active_dispatch() == Dispatch::kAvx2)
    return avx2::l2_sq_blocked(out, q, qn, panel, rows, cols);
#endif
  scalar::l2_sq_blocked(out, q, qn, panel, rows, cols);
}

inline void top_k_select(std::span<const double> values, std::span<std::uint32_t> out_idx) {
#if LORE_SIMD_COMPILED
  if (active_dispatch() == Dispatch::kAvx2) return avx2::top_k_select(values, out_idx);
#endif
  scalar::top_k_select(values, out_idx);
}

/// `dot_rows` and `tree_accumulate_rows` have no AVX2 variant on purpose:
/// both read row-major rows, so cross-row vectorization needs either strided
/// loads or hardware gathers, and gathers measure ~3x SLOWER than the
/// interleaved scalar walk on gather-mitigated Intel cores. The scalar
/// kernels already extract the available parallelism (four independent
/// dependency chains in flight); exposed unqualified for a uniform surface.
inline void dot_rows(std::span<double> out, std::span<const double> w, const double* x,
                     std::size_t rows, std::size_t cols) {
  scalar::dot_rows(out, w, x, rows, cols);
}

inline void tree_accumulate_rows(std::span<double> out, const TreeSoa& forest,
                                 const double* x, std::size_t rows, std::size_t cols,
                                 double scale) {
  scalar::tree_accumulate_rows(out, forest, x, rows, cols, scale);
}

}  // namespace lore::kernels
