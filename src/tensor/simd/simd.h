#ifndef E2GCL_TENSOR_SIMD_SIMD_H_
#define E2GCL_TENSOR_SIMD_SIMD_H_

#include <cstdint>

namespace e2gcl {

/// Vectorized kernel layer.
///
/// Every dense hot loop in the library (GEMM variants, SpMM row
/// accumulation, row norms, dot/top-k scans, the int8 serving path)
/// funnels through the primitives declared here. The backend is chosen
/// at build time with -DE2GCL_SIMD=avx2|portable|auto (see the
/// top-level CMakeLists.txt); `simd::BackendName()` reports which one
/// is linked in.
///
/// Determinism contract (DESIGN.md "SIMD kernels & quantized
/// serving"): results are bit-identical across runs and thread counts
/// *within one build configuration*. The portable backend reproduces
/// the original scalar kernels exactly; the AVX2 backend uses fixed
/// lane counts and a fixed reduction order, so it is equally
/// deterministic, but FMA contraction and lane-wise accumulation give
/// float sums that differ from the portable backend in the last ulps.
/// Integer kernels (the int8 dot) are exact and therefore
/// bit-identical across backends. tests/simd_kernels_test.cc holds the
/// two backends together on awkward shapes.
///
/// All pointers may be unaligned (Matrix storage is 64-byte aligned,
/// but kernels are routinely called on row offsets); n may be 0.
namespace simd {

/// Name of the backend compiled into this binary: "avx2" or "portable".
const char* BackendName();

// --- fp32 primitives --------------------------------------------------

/// Sum of a[i] * b[i] (float accumulation).
float Dot(const float* a, const float* b, std::int64_t n);

/// Sum of (a[i] - b[i])^2 (float accumulation).
float SquaredDistance(const float* a, const float* b, std::int64_t n);

/// Sum of (double)a[i] * a[i] — the double-precision row-norm
/// accumulator used by NormalizeRowsL2 / RowL2Norms / FrobeniusNorm.
double SquaredNormD(const float* a, std::int64_t n);

/// Sum of (double)a[i].
double SumD(const float* a, std::int64_t n);

/// y[i] += alpha * x[i]. The ascending-index accumulation every SpMM
/// form and the scatter GEMMs rely on; the AVX2 body performs exactly
/// one fused multiply-add per element so repeated Axpy calls and the
/// blocked kernels below see identical per-element arithmetic.
void Axpy(float* y, float alpha, const float* x, std::int64_t n);

/// y[i] *= alpha.
void Scale(float* y, float alpha, std::int64_t n);

/// dst = src scaled to unit L2 norm (norm computed via SquaredNormD,
/// inverse applied in float). Rows with norm <= eps are copied
/// unchanged. dst may equal src.
void NormalizeRowL2(float* dst, const float* src, std::int64_t n, float eps);

/// Rows [row_begin, row_end) of C = A * B, row-major, C pre-zeroed:
/// c[i][j] += a[i][p] * b[p][j] with p ascending per element. Entries
/// a[i][p] == 0.0f are skipped, preserving the scalar kernel's 0 * NaN
/// masking (see AllFinite in tensor/matrix.h). The AVX2 backend keeps a
/// register-resident C tile across the k loop (cache-blocked tiling).
void GemmRows(const float* a, const float* b, float* c,
              std::int64_t row_begin, std::int64_t row_end, std::int64_t k,
              std::int64_t n);

/// Rows [row_begin, row_end) of C = A * B^T (dot form):
/// c[i][j] = Dot(a_row_i, b_row_j, k), bit for bit. The AVX2 backend
/// computes 8 output columns at once and sums their lanes with one
/// transposed horizontal add in Dot's lane order.
void GemmTransBRows(const float* a, const float* b, float* c,
                    std::int64_t row_begin, std::int64_t row_end,
                    std::int64_t k, std::int64_t n);

/// Rows [row_begin, row_end) of C += A^T * B over the shared rows
/// [p_begin, p_end), with A (k x m), B (k x n) and C (m x n) row-major:
/// c[i][j] += a[p][i] * b[p][j] for p ascending, entries a[p][i] == 0.0f
/// skipped. Per element this is exactly the loop "for p, for i:
/// Axpy(c_row_i, a[p][i], b_row_p, n)", zero skip (and its 0 * NaN
/// masking) included. The AVX2 backend collects the nonzeros of column i
/// once and holds register tiles of c_row_i across them.
void GemmTransARows(const float* a, const float* b, float* c,
                    std::int64_t row_begin, std::int64_t row_end,
                    std::int64_t p_begin, std::int64_t p_end, std::int64_t m,
                    std::int64_t n);

/// Rows [row_begin, row_end) of the CSR gather-form SpMM, C pre-zeroed:
/// c[r][j] += vals[e] * b[col_idx[e]][j] for e in [row_ptr[r],
/// row_ptr[r+1]) ascending. Per-element arithmetic matches one Axpy
/// call per edge, so subset replays (GcnEncoder::EncodeRows) that use
/// Axpy directly produce bit-identical rows. The AVX2 backend blocks
/// each output row into register tiles held across the edge loop.
void SpmmRows(const std::int64_t* row_ptr, const std::int32_t* col_idx,
              const float* vals, const float* b, float* c,
              std::int64_t row_begin, std::int64_t row_end, std::int64_t n);

/// SpmmRows with each row's edges grouped by column block
/// col_idx[e] / group (blocks ascend, as the columns are sorted): every
/// block is accumulated from zero with one Axpy per edge, and the block
/// sums are added to c (pre-zeroed) in ascending block order, as
/// Axpy(c_row, 1, block_sum). For a symmetric A this is, per element,
/// the scatter-form A^T * B that cuts its input rows into chunks of
/// `group` rows and sums the per-chunk partials in chunk order.
void SpmmGroupedRows(const std::int64_t* row_ptr, const std::int32_t* col_idx,
                     const float* vals, const float* b, float* c,
                     std::int64_t row_begin, std::int64_t row_end,
                     std::int64_t n, std::int64_t group);

// --- int8 quantized primitives ---------------------------------------

/// Sum of (int32)a[i] * b[i]. Exact integer arithmetic: bit-identical
/// across backends. Callers keep n below ~130k so the i32 accumulator
/// cannot overflow (127 * 127 * n < 2^31); embedding widths are far
/// smaller.
std::int32_t DotI8(const std::int8_t* a, const std::int8_t* b,
                   std::int64_t n);

/// Symmetric per-row int8 quantization: returns scale = maxabs / 127
/// and writes dst[i] = llround(src[i] / scale) clamped to [-127, 127].
/// An all-zero (or empty) row yields scale 0 and all-zero codes.
/// Shared scalar implementation — identical output in every backend.
float QuantizeRowI8(std::int8_t* dst, const float* src, std::int64_t n);

/// The always-compiled scalar reference backend. `simd::portable::*`
/// mirrors every primitive above with plain serial loops; the parity
/// suite compares the dispatched backend against it, and it doubles as
/// the readable specification of each kernel's semantics.
namespace portable {
float Dot(const float* a, const float* b, std::int64_t n);
float SquaredDistance(const float* a, const float* b, std::int64_t n);
double SquaredNormD(const float* a, std::int64_t n);
double SumD(const float* a, std::int64_t n);
void Axpy(float* y, float alpha, const float* x, std::int64_t n);
void Scale(float* y, float alpha, std::int64_t n);
void NormalizeRowL2(float* dst, const float* src, std::int64_t n, float eps);
void GemmRows(const float* a, const float* b, float* c,
              std::int64_t row_begin, std::int64_t row_end, std::int64_t k,
              std::int64_t n);
void GemmTransBRows(const float* a, const float* b, float* c,
                    std::int64_t row_begin, std::int64_t row_end,
                    std::int64_t k, std::int64_t n);
void GemmTransARows(const float* a, const float* b, float* c,
                    std::int64_t row_begin, std::int64_t row_end,
                    std::int64_t p_begin, std::int64_t p_end, std::int64_t m,
                    std::int64_t n);
void SpmmRows(const std::int64_t* row_ptr, const std::int32_t* col_idx,
              const float* vals, const float* b, float* c,
              std::int64_t row_begin, std::int64_t row_end, std::int64_t n);
void SpmmGroupedRows(const std::int64_t* row_ptr, const std::int32_t* col_idx,
                     const float* vals, const float* b, float* c,
                     std::int64_t row_begin, std::int64_t row_end,
                     std::int64_t n, std::int64_t group);
std::int32_t DotI8(const std::int8_t* a, const std::int8_t* b,
                   std::int64_t n);
}  // namespace portable

}  // namespace simd
}  // namespace e2gcl

#endif  // E2GCL_TENSOR_SIMD_SIMD_H_
