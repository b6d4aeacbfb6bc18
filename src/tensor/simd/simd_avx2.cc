// AVX2/FMA backend. Compiled only when the build selects
// -DE2GCL_SIMD=avx2 (the CMake option adds -mavx2 -mfma for this file
// alone, so the rest of the tree stays portable-ISA).
//
// Determinism notes:
//  - every kernel uses fixed lane counts, fixed tile boundaries, and a
//    fixed reduction order, so results are bit-identical across runs
//    and thread counts for a given build;
//  - Axpy and SpmmRows perform exactly one FMA per element in
//    ascending-edge order with the same vector/scalar split (8-wide
//    blocks, fmaf tail), so the subset SpMM replay in
//    GcnEncoder::EncodeRows (per-edge Axpy) is bit-identical to the
//    blocked full-graph SpmmRows — the serving contract depends on it;
//  - integer kernels are exact and match the portable backend bit for
//    bit.

#include <immintrin.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "tensor/simd/simd.h"

namespace e2gcl {
namespace simd {
namespace avx2 {

namespace {

/// Scalar FMA used by every fp32 tail so scalar and vector elements see
/// the same fused rounding regardless of compiler contraction choices.
inline void ScalarFma(float* y, float a, float x) { *y = std::fmaf(a, x, *y); }

/// Fixed-order horizontal sum: lane 0 + 1 + ... + 7.
inline float HSum(__m256 v) {
  alignas(32) float lanes[8];
  _mm256_store_ps(lanes, v);
  float acc = lanes[0];
  for (int i = 1; i < 8; ++i) acc += lanes[i];
  return acc;
}

inline double HSumD(__m256d v) {
  alignas(32) double lanes[4];
  _mm256_store_pd(lanes, v);
  return ((lanes[0] + lanes[1]) + lanes[2]) + lanes[3];
}

/// Eight HSums at once: lane j of the result is HSum(v[j]), added in the
/// same order (lane 0 + 1 + ... + 7). An 8x8 transpose turns lane l of
/// every input into row l, and the rows are then summed in order.
inline __m256 TransposedHSum(const __m256 v[8]) {
  const __m256 t0 = _mm256_unpacklo_ps(v[0], v[1]);
  const __m256 t1 = _mm256_unpackhi_ps(v[0], v[1]);
  const __m256 t2 = _mm256_unpacklo_ps(v[2], v[3]);
  const __m256 t3 = _mm256_unpackhi_ps(v[2], v[3]);
  const __m256 t4 = _mm256_unpacklo_ps(v[4], v[5]);
  const __m256 t5 = _mm256_unpackhi_ps(v[4], v[5]);
  const __m256 t6 = _mm256_unpacklo_ps(v[6], v[7]);
  const __m256 t7 = _mm256_unpackhi_ps(v[6], v[7]);
  // s_l holds lane l (low half) and lane l + 4 (high half) of four inputs.
  const __m256 s0 = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 s1 = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(3, 2, 3, 2));
  const __m256 s2 = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 s3 = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(3, 2, 3, 2));
  const __m256 s4 = _mm256_shuffle_ps(t4, t6, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 s5 = _mm256_shuffle_ps(t4, t6, _MM_SHUFFLE(3, 2, 3, 2));
  const __m256 s6 = _mm256_shuffle_ps(t5, t7, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 s7 = _mm256_shuffle_ps(t5, t7, _MM_SHUFFLE(3, 2, 3, 2));
  __m256 acc = _mm256_permute2f128_ps(s0, s4, 0x20);                 // lane 0
  acc = _mm256_add_ps(acc, _mm256_permute2f128_ps(s1, s5, 0x20));    // 1
  acc = _mm256_add_ps(acc, _mm256_permute2f128_ps(s2, s6, 0x20));    // 2
  acc = _mm256_add_ps(acc, _mm256_permute2f128_ps(s3, s7, 0x20));    // 3
  acc = _mm256_add_ps(acc, _mm256_permute2f128_ps(s0, s4, 0x31));    // 4
  acc = _mm256_add_ps(acc, _mm256_permute2f128_ps(s1, s5, 0x31));    // 5
  acc = _mm256_add_ps(acc, _mm256_permute2f128_ps(s2, s6, 0x31));    // 6
  return _mm256_add_ps(acc, _mm256_permute2f128_ps(s3, s7, 0x31));   // 7
}

/// Nonzero entries of up to kMaxLists adjacent columns of a strided
/// matrix, each list in ascending row order: the zero skip of the GEMM
/// kernels, decided once per entry instead of once per column tile, and
/// without branches.
struct NonzeroLists {
  static constexpr std::int64_t kMaxLists = 8;

  /// Collects the nonzeros of columns [0, lists) of the len x lists
  /// block at `a` with row stride `stride`. List r holds count[r] pairs
  /// (index[r * len + q], value[r * len + q]).
  void Collect(const float* a, std::int64_t stride, std::int64_t len,
               std::int64_t lists) {
    // Counts live in locals: through the member array, every entry would
    // wait on a store-to-load round trip of its list's count.
    if (lists == 1) {
      std::int64_t cnt = 0;
      for (std::int64_t p = 0; p < len; ++p) {
        const float v = a[p * stride];
        index[cnt] = p;
        value[cnt] = v;
        cnt += v != 0.0f;
      }
      count[0] = cnt;
      return;
    }
    std::int64_t cnt[kMaxLists] = {};
    for (std::int64_t p = 0; p < len; ++p) {
      const float* ap = a + p * stride;
      for (std::int64_t r = 0; r < lists; ++r) {
        const std::int64_t slot = r * len + cnt[r];
        index[slot] = p;
        value[slot] = ap[r];
        cnt[r] += ap[r] != 0.0f;
      }
    }
    std::copy(cnt, cnt + lists, count);
  }

  std::int64_t count[kMaxLists] = {};
  std::vector<std::int64_t> index;
  std::vector<float> value;
};

/// Per-thread lists with room for `entries` pairs.
NonzeroLists& ScratchNonzeros(std::int64_t entries) {
  thread_local NonzeroLists lists;
  if (static_cast<std::int64_t>(lists.index.size()) < entries) {
    lists.index.resize(entries);
    lists.value.resize(entries);
  }
  return lists;
}

/// crow[j] += vs[q] * b[row_q][j] for q in [0, cnt) in order, where
/// row_q is ps[q], or q itself when kDense (ps unused). Register tiles of
/// 64, 32 and 8 columns are held across the entries, then an fmaf tail:
/// per element one FMA per entry, as one Axpy per entry would do. The
/// 64-wide tile keeps eight independent FMA chains in flight.
template <bool kDense>
void AccumulateRows(const std::int64_t* ps, const float* vs, std::int64_t cnt,
                    const float* b, std::int64_t n, float* crow) {
  auto brow = [&](std::int64_t q) { return b + (kDense ? q : ps[q]) * n; };
  std::int64_t j = 0;
  for (; j + 64 <= n; j += 64) {
    float* cj = crow + j;
    __m256 t[8];
    for (int l = 0; l < 8; ++l) t[l] = _mm256_loadu_ps(cj + 8 * l);
    for (std::int64_t q = 0; q < cnt; ++q) {
      const __m256 va = _mm256_set1_ps(vs[q]);
      const float* bj = brow(q) + j;
      for (int l = 0; l < 8; ++l) {
        t[l] = _mm256_fmadd_ps(va, _mm256_loadu_ps(bj + 8 * l), t[l]);
      }
    }
    for (int l = 0; l < 8; ++l) _mm256_storeu_ps(cj + 8 * l, t[l]);
  }
  for (; j + 32 <= n; j += 32) {
    float* cj = crow + j;
    __m256 t0 = _mm256_loadu_ps(cj);
    __m256 t1 = _mm256_loadu_ps(cj + 8);
    __m256 t2 = _mm256_loadu_ps(cj + 16);
    __m256 t3 = _mm256_loadu_ps(cj + 24);
    for (std::int64_t q = 0; q < cnt; ++q) {
      const __m256 va = _mm256_set1_ps(vs[q]);
      const float* bj = brow(q) + j;
      t0 = _mm256_fmadd_ps(va, _mm256_loadu_ps(bj), t0);
      t1 = _mm256_fmadd_ps(va, _mm256_loadu_ps(bj + 8), t1);
      t2 = _mm256_fmadd_ps(va, _mm256_loadu_ps(bj + 16), t2);
      t3 = _mm256_fmadd_ps(va, _mm256_loadu_ps(bj + 24), t3);
    }
    _mm256_storeu_ps(cj, t0);
    _mm256_storeu_ps(cj + 8, t1);
    _mm256_storeu_ps(cj + 16, t2);
    _mm256_storeu_ps(cj + 24, t3);
  }
  for (; j + 8 <= n; j += 8) {
    float* cj = crow + j;
    __m256 t0 = _mm256_loadu_ps(cj);
    for (std::int64_t q = 0; q < cnt; ++q) {
      t0 = _mm256_fmadd_ps(_mm256_set1_ps(vs[q]),
                           _mm256_loadu_ps(brow(q) + j), t0);
    }
    _mm256_storeu_ps(cj, t0);
  }
  for (; j < n; ++j) {
    float acc = crow[j];
    for (std::int64_t q = 0; q < cnt; ++q) {
      ScalarFma(&acc, vs[q], brow(q)[j]);
    }
    crow[j] = acc;
  }
}

/// The vector part of Dot for `a` against kCols rows of b (row stride
/// n), each a load feeding every row: per row four 32-wide
/// accumulators, the 8-wide loop into the first, folded as
/// (acc0 + acc1) + (acc2 + acc3). Elements from n & ~7 on are left to
/// the caller's scalar FMA tail.
template <int kCols>
inline void DotVectors(const float* a, const float* b, std::int64_t n,
                       __m256 out[kCols]) {
  __m256 acc[kCols][4];
  for (int c = 0; c < kCols; ++c) {
    for (int q = 0; q < 4; ++q) acc[c][q] = _mm256_setzero_ps();
  }
  std::int64_t i = 0;
  for (; i + 32 <= n; i += 32) {
    __m256 av[4];
    for (int q = 0; q < 4; ++q) av[q] = _mm256_loadu_ps(a + i + 8 * q);
    for (int c = 0; c < kCols; ++c) {
      for (int q = 0; q < 4; ++q) {
        acc[c][q] = _mm256_fmadd_ps(
            av[q], _mm256_loadu_ps(b + c * n + i + 8 * q), acc[c][q]);
      }
    }
  }
  for (; i + 8 <= n; i += 8) {
    const __m256 av = _mm256_loadu_ps(a + i);
    for (int c = 0; c < kCols; ++c) {
      acc[c][0] = _mm256_fmadd_ps(av, _mm256_loadu_ps(b + c * n + i),
                                  acc[c][0]);
    }
  }
  for (int c = 0; c < kCols; ++c) {
    out[c] = _mm256_add_ps(_mm256_add_ps(acc[c][0], acc[c][1]),
                           _mm256_add_ps(acc[c][2], acc[c][3]));
  }
}

}  // namespace

float Dot(const float* a, const float* b, std::int64_t n) {
  __m256 v;
  DotVectors<1>(a, b, n, &v);
  float acc = HSum(v);
  for (std::int64_t i = n & ~std::int64_t{7}; i < n; ++i) {
    ScalarFma(&acc, a[i], b[i]);
  }
  return acc;
}

float SquaredDistance(const float* a, const float* b, std::int64_t n) {
  __m256 acc0 = _mm256_setzero_ps();
  __m256 acc1 = _mm256_setzero_ps();
  std::int64_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m256 d0 =
        _mm256_sub_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i));
    const __m256 d1 =
        _mm256_sub_ps(_mm256_loadu_ps(a + i + 8), _mm256_loadu_ps(b + i + 8));
    acc0 = _mm256_fmadd_ps(d0, d0, acc0);
    acc1 = _mm256_fmadd_ps(d1, d1, acc1);
  }
  for (; i + 8 <= n; i += 8) {
    const __m256 d =
        _mm256_sub_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i));
    acc0 = _mm256_fmadd_ps(d, d, acc0);
  }
  float acc = HSum(_mm256_add_ps(acc0, acc1));
  for (; i < n; ++i) {
    const float d = a[i] - b[i];
    ScalarFma(&acc, d, d);
  }
  return acc;
}

double SquaredNormD(const float* a, std::int64_t n) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 v = _mm256_loadu_ps(a + i);
    const __m256d lo = _mm256_cvtps_pd(_mm256_castps256_ps128(v));
    const __m256d hi = _mm256_cvtps_pd(_mm256_extractf128_ps(v, 1));
    acc0 = _mm256_fmadd_pd(lo, lo, acc0);
    acc1 = _mm256_fmadd_pd(hi, hi, acc1);
  }
  double acc = HSumD(_mm256_add_pd(acc0, acc1));
  for (; i < n; ++i) {
    acc += static_cast<double>(a[i]) * a[i];
  }
  return acc;
}

double SumD(const float* a, std::int64_t n) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 v = _mm256_loadu_ps(a + i);
    acc0 = _mm256_add_pd(acc0, _mm256_cvtps_pd(_mm256_castps256_ps128(v)));
    acc1 = _mm256_add_pd(acc1, _mm256_cvtps_pd(_mm256_extractf128_ps(v, 1)));
  }
  double acc = HSumD(_mm256_add_pd(acc0, acc1));
  for (; i < n; ++i) acc += a[i];
  return acc;
}

void Axpy(float* y, float alpha, const float* x, std::int64_t n) {
  const __m256 va = _mm256_set1_ps(alpha);
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(
        y + i,
        _mm256_fmadd_ps(va, _mm256_loadu_ps(x + i), _mm256_loadu_ps(y + i)));
  }
  for (; i < n; ++i) ScalarFma(y + i, alpha, x[i]);
}

void Scale(float* y, float alpha, std::int64_t n) {
  const __m256 va = _mm256_set1_ps(alpha);
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(y + i, _mm256_mul_ps(va, _mm256_loadu_ps(y + i)));
  }
  for (; i < n; ++i) y[i] *= alpha;
}

void NormalizeRowL2(float* dst, const float* src, std::int64_t n, float eps) {
  const float norm = static_cast<float>(std::sqrt(SquaredNormD(src, n)));
  if (norm <= eps) {
    if (dst != src) std::copy(src, src + n, dst);
    return;
  }
  const float inv = 1.0f / norm;
  const __m256 vi = _mm256_set1_ps(inv);
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(dst + i, _mm256_mul_ps(vi, _mm256_loadu_ps(src + i)));
  }
  for (; i < n; ++i) dst[i] = src[i] * inv;
}

void GemmRows(const float* a, const float* b, float* c,
              std::int64_t row_begin, std::int64_t row_end, std::int64_t k,
              std::int64_t n) {
  // Register-tiled i-k-j: for each output row, a tile of C columns
  // stays resident in YMM registers across the whole k loop, so C is
  // loaded/stored once per tile instead of once per (p, tile). The
  // nonzeros of the A row are collected once, branch-free (ReLU and
  // dropout zeros make a per-tile zero test mispredict about half the
  // time). The per-element accumulation order (ascending p, one FMA
  // each) and the zero-skip on a[i][p] are identical to the portable
  // kernel.
  NonzeroLists& nz = ScratchNonzeros(k);
  for (std::int64_t i = row_begin; i < row_end; ++i) {
    const float* arow = a + i * k;
    std::int64_t nonzeros = 0;
    for (std::int64_t p = 0; p < k; ++p) nonzeros += arow[p] != 0.0f;
    if (nonzeros == k) {
      AccumulateRows<true>(nullptr, arow, k, b, n, c + i * n);
    } else {
      nz.Collect(arow, 1, k, 1);
      AccumulateRows<false>(nz.index.data(), nz.value.data(), nz.count[0], b,
                            n, c + i * n);
    }
  }
}

void GemmTransBRows(const float* a, const float* b, float* c,
                    std::int64_t row_begin, std::int64_t row_end,
                    std::int64_t k, std::int64_t n) {
  // Blocks of 8 output columns: each column's Dot vector part is kept,
  // the 8 horizontal sums run as one transposed add, and the scalar tail
  // runs lane-wise (one FMA per lane, the same fmaf as Dot's tail). So
  // c[i][j] is Dot(arow, b_row_j, k) bit for bit; leftover columns call
  // Dot itself. Column blocks are the outer loop, so the block's 8 rows
  // of B stay in L1 while every output row of the range reads them.
  const std::int64_t tail = k & ~std::int64_t{7};
  std::int64_t j = 0;
  for (; j + 8 <= n; j += 8) {
    const float* bj = b + j * k;
    for (std::int64_t i = row_begin; i < row_end; ++i) {
      const float* arow = a + i * k;
      __m256 v[8];
      DotVectors<4>(arow, bj, k, v);
      DotVectors<4>(arow, bj + 4 * k, k, v + 4);
      __m256 acc = TransposedHSum(v);
      for (std::int64_t p = tail; p < k; ++p) {
        const __m256 bp = _mm256_setr_ps(bj[p], bj[k + p], bj[2 * k + p],
                                         bj[3 * k + p], bj[4 * k + p],
                                         bj[5 * k + p], bj[6 * k + p],
                                         bj[7 * k + p]);
        acc = _mm256_fmadd_ps(_mm256_set1_ps(arow[p]), bp, acc);
      }
      _mm256_storeu_ps(c + i * n + j, acc);
    }
  }
  for (; j < n; ++j) {
    for (std::int64_t i = row_begin; i < row_end; ++i) {
      c[i * n + j] = Dot(a + i * k, b + j * k, k);
    }
  }
}

void GemmTransARows(const float* a, const float* b, float* c,
                    std::int64_t row_begin, std::int64_t row_end,
                    std::int64_t p_begin, std::int64_t p_end, std::int64_t m,
                    std::int64_t n) {
  // For a block of up to 8 output rows, one pass over the shared rows
  // collects the nonzeros of the matching A columns (the zero skip), in
  // ascending p. Each output row then keeps register tiles of C across
  // its nonzero list, as GemmRows does: per element the same ascending-p
  // FMA sequence as one Axpy per (p, i).
  const std::int64_t span = p_end - p_begin;
  NonzeroLists& nz = ScratchNonzeros(NonzeroLists::kMaxLists * span);
  const float* bp = b + p_begin * n;
  for (std::int64_t i0 = row_begin; i0 < row_end;
       i0 += NonzeroLists::kMaxLists) {
    const std::int64_t rows =
        std::min(NonzeroLists::kMaxLists, row_end - i0);
    nz.Collect(a + p_begin * m + i0, m, span, rows);
    for (std::int64_t r = 0; r < rows; ++r) {
      AccumulateRows<false>(nz.index.data() + r * span,
                            nz.value.data() + r * span, nz.count[r], bp, n,
                            c + (i0 + r) * n);
    }
  }
}

void SpmmRows(const std::int64_t* row_ptr, const std::int32_t* col_idx,
              const float* vals, const float* b, float* c,
              std::int64_t row_begin, std::int64_t row_end, std::int64_t n) {
  // Row-blocked gather form: a register tile of the output row is held
  // across the whole edge list, so the row is written once per tile.
  // Tile boundaries (32-wide, then 8-wide, then fmaf tail) match Axpy's
  // vector/scalar split, and edges accumulate in ascending order, so
  // each element sees the exact FMA sequence a per-edge Axpy loop
  // would produce (EncodeRows' subset replay relies on this).
  for (std::int64_t r = row_begin; r < row_end; ++r) {
    const std::int64_t e0 = row_ptr[r];
    const std::int64_t e1 = row_ptr[r + 1];
    float* crow = c + r * n;
    std::int64_t j = 0;
    for (; j + 32 <= n; j += 32) {
      float* cj = crow + j;
      __m256 t0 = _mm256_loadu_ps(cj);
      __m256 t1 = _mm256_loadu_ps(cj + 8);
      __m256 t2 = _mm256_loadu_ps(cj + 16);
      __m256 t3 = _mm256_loadu_ps(cj + 24);
      for (std::int64_t e = e0; e < e1; ++e) {
        const __m256 vv = _mm256_set1_ps(vals[e]);
        const float* bj = b + static_cast<std::int64_t>(col_idx[e]) * n + j;
        t0 = _mm256_fmadd_ps(vv, _mm256_loadu_ps(bj), t0);
        t1 = _mm256_fmadd_ps(vv, _mm256_loadu_ps(bj + 8), t1);
        t2 = _mm256_fmadd_ps(vv, _mm256_loadu_ps(bj + 16), t2);
        t3 = _mm256_fmadd_ps(vv, _mm256_loadu_ps(bj + 24), t3);
      }
      _mm256_storeu_ps(cj, t0);
      _mm256_storeu_ps(cj + 8, t1);
      _mm256_storeu_ps(cj + 16, t2);
      _mm256_storeu_ps(cj + 24, t3);
    }
    for (; j + 8 <= n; j += 8) {
      float* cj = crow + j;
      __m256 t0 = _mm256_loadu_ps(cj);
      for (std::int64_t e = e0; e < e1; ++e) {
        t0 = _mm256_fmadd_ps(
            _mm256_set1_ps(vals[e]),
            _mm256_loadu_ps(b + static_cast<std::int64_t>(col_idx[e]) * n + j),
            t0);
      }
      _mm256_storeu_ps(cj, t0);
    }
    for (; j < n; ++j) {
      float acc = crow[j];
      for (std::int64_t e = e0; e < e1; ++e) {
        ScalarFma(&acc, vals[e],
                  b[static_cast<std::int64_t>(col_idx[e]) * n + j]);
      }
      crow[j] = acc;
    }
  }
}

void SpmmGroupedRows(const std::int64_t* row_ptr, const std::int32_t* col_idx,
                     const float* vals, const float* b, float* c,
                     std::int64_t row_begin, std::int64_t row_end,
                     std::int64_t n, std::int64_t group) {
  // SpmmRows' register tiles, with a second tile per block of columns:
  // the block accumulates from zero with one FMA per edge, then is added
  // to the row tile (an add is the exact value of Axpy's fma(1, x, y)).
  for (std::int64_t r = row_begin; r < row_end; ++r) {
    const std::int64_t e0 = row_ptr[r];
    const std::int64_t e1 = row_ptr[r + 1];
    float* crow = c + r * n;
    std::int64_t j = 0;
    for (; j + 32 <= n; j += 32) {
      float* cj = crow + j;
      __m256 t0 = _mm256_loadu_ps(cj);
      __m256 t1 = _mm256_loadu_ps(cj + 8);
      __m256 t2 = _mm256_loadu_ps(cj + 16);
      __m256 t3 = _mm256_loadu_ps(cj + 24);
      for (std::int64_t e = e0; e < e1;) {
        const std::int64_t block_end = (col_idx[e] / group + 1) * group;
        __m256 g0 = _mm256_setzero_ps();
        __m256 g1 = _mm256_setzero_ps();
        __m256 g2 = _mm256_setzero_ps();
        __m256 g3 = _mm256_setzero_ps();
        for (; e < e1 && col_idx[e] < block_end; ++e) {
          const __m256 vv = _mm256_set1_ps(vals[e]);
          const float* bj = b + static_cast<std::int64_t>(col_idx[e]) * n + j;
          g0 = _mm256_fmadd_ps(vv, _mm256_loadu_ps(bj), g0);
          g1 = _mm256_fmadd_ps(vv, _mm256_loadu_ps(bj + 8), g1);
          g2 = _mm256_fmadd_ps(vv, _mm256_loadu_ps(bj + 16), g2);
          g3 = _mm256_fmadd_ps(vv, _mm256_loadu_ps(bj + 24), g3);
        }
        t0 = _mm256_add_ps(t0, g0);
        t1 = _mm256_add_ps(t1, g1);
        t2 = _mm256_add_ps(t2, g2);
        t3 = _mm256_add_ps(t3, g3);
      }
      _mm256_storeu_ps(cj, t0);
      _mm256_storeu_ps(cj + 8, t1);
      _mm256_storeu_ps(cj + 16, t2);
      _mm256_storeu_ps(cj + 24, t3);
    }
    for (; j + 8 <= n; j += 8) {
      float* cj = crow + j;
      __m256 t0 = _mm256_loadu_ps(cj);
      for (std::int64_t e = e0; e < e1;) {
        const std::int64_t block_end = (col_idx[e] / group + 1) * group;
        __m256 g0 = _mm256_setzero_ps();
        for (; e < e1 && col_idx[e] < block_end; ++e) {
          g0 = _mm256_fmadd_ps(
              _mm256_set1_ps(vals[e]),
              _mm256_loadu_ps(b + static_cast<std::int64_t>(col_idx[e]) * n +
                              j),
              g0);
        }
        t0 = _mm256_add_ps(t0, g0);
      }
      _mm256_storeu_ps(cj, t0);
    }
    for (; j < n; ++j) {
      float acc = crow[j];
      for (std::int64_t e = e0; e < e1;) {
        const std::int64_t block_end = (col_idx[e] / group + 1) * group;
        float g = 0.0f;
        for (; e < e1 && col_idx[e] < block_end; ++e) {
          ScalarFma(&g, vals[e],
                    b[static_cast<std::int64_t>(col_idx[e]) * n + j]);
        }
        ScalarFma(&acc, 1.0f, g);
      }
      crow[j] = acc;
    }
  }
}

std::int32_t DotI8(const std::int8_t* a, const std::int8_t* b,
                   std::int64_t n) {
  __m256i acc = _mm256_setzero_si256();
  std::int64_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m256i va = _mm256_cvtepi8_epi16(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + i)));
    const __m256i vb = _mm256_cvtepi8_epi16(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + i)));
    acc = _mm256_add_epi32(acc, _mm256_madd_epi16(va, vb));
  }
  alignas(32) std::int32_t lanes[8];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), acc);
  std::int32_t total = 0;
  for (int l = 0; l < 8; ++l) total += lanes[l];
  for (; i < n; ++i) {
    total += static_cast<std::int32_t>(a[i]) * static_cast<std::int32_t>(b[i]);
  }
  return total;
}

}  // namespace avx2
}  // namespace simd
}  // namespace e2gcl
