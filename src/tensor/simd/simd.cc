// Build-time backend dispatch. The CMake option E2GCL_SIMD decides
// which backend the public simd:: symbols forward to; the portable
// reference is always compiled so the parity suite can compare against
// it in the same binary.

#include "tensor/simd/simd.h"

#if defined(E2GCL_SIMD_AVX2)

namespace e2gcl {
namespace simd {

namespace avx2 {
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
}  // namespace avx2

namespace backend = avx2;

const char* BackendName() { return "avx2"; }

}  // namespace simd
}  // namespace e2gcl

#else  // portable

namespace e2gcl {
namespace simd {

namespace backend = portable;

const char* BackendName() { return "portable"; }

}  // namespace simd
}  // namespace e2gcl

#endif

namespace e2gcl {
namespace simd {

float Dot(const float* a, const float* b, std::int64_t n) {
  return backend::Dot(a, b, n);
}

float SquaredDistance(const float* a, const float* b, std::int64_t n) {
  return backend::SquaredDistance(a, b, n);
}

double SquaredNormD(const float* a, std::int64_t n) {
  return backend::SquaredNormD(a, n);
}

double SumD(const float* a, std::int64_t n) { return backend::SumD(a, n); }

void Axpy(float* y, float alpha, const float* x, std::int64_t n) {
  backend::Axpy(y, alpha, x, n);
}

void Scale(float* y, float alpha, std::int64_t n) {
  backend::Scale(y, alpha, n);
}

void NormalizeRowL2(float* dst, const float* src, std::int64_t n, float eps) {
  backend::NormalizeRowL2(dst, src, n, eps);
}

void GemmRows(const float* a, const float* b, float* c,
              std::int64_t row_begin, std::int64_t row_end, std::int64_t k,
              std::int64_t n) {
  backend::GemmRows(a, b, c, row_begin, row_end, k, n);
}

void GemmTransBRows(const float* a, const float* b, float* c,
                    std::int64_t row_begin, std::int64_t row_end,
                    std::int64_t k, std::int64_t n) {
  backend::GemmTransBRows(a, b, c, row_begin, row_end, k, n);
}

void GemmTransARows(const float* a, const float* b, float* c,
                    std::int64_t row_begin, std::int64_t row_end,
                    std::int64_t p_begin, std::int64_t p_end, std::int64_t m,
                    std::int64_t n) {
  backend::GemmTransARows(a, b, c, row_begin, row_end, p_begin, p_end, m, n);
}

void SpmmRows(const std::int64_t* row_ptr, const std::int32_t* col_idx,
              const float* vals, const float* b, float* c,
              std::int64_t row_begin, std::int64_t row_end, std::int64_t n) {
  backend::SpmmRows(row_ptr, col_idx, vals, b, c, row_begin, row_end, n);
}

void SpmmGroupedRows(const std::int64_t* row_ptr, const std::int32_t* col_idx,
                     const float* vals, const float* b, float* c,
                     std::int64_t row_begin, std::int64_t row_end,
                     std::int64_t n, std::int64_t group) {
  backend::SpmmGroupedRows(row_ptr, col_idx, vals, b, c, row_begin, row_end, n,
                           group);
}

std::int32_t DotI8(const std::int8_t* a, const std::int8_t* b,
                   std::int64_t n) {
  return backend::DotI8(a, b, n);
}

}  // namespace simd
}  // namespace e2gcl
