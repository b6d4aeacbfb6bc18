// Scalar reference backend. These loops are the original (pre-SIMD)
// kernel bodies, kept byte-for-byte equivalent so a portable build
// reproduces the historical numerics exactly and the AVX2 backend has
// an in-binary reference to be parity-tested against.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "tensor/simd/simd.h"

namespace e2gcl {
namespace simd {
namespace portable {

float Dot(const float* a, const float* b, std::int64_t n) {
  float acc = 0.0f;
  for (std::int64_t i = 0; i < n; ++i) acc += a[i] * b[i];
  return acc;
}

float SquaredDistance(const float* a, const float* b, std::int64_t n) {
  float acc = 0.0f;
  for (std::int64_t i = 0; i < n; ++i) {
    const float d = a[i] - b[i];
    acc += d * d;
  }
  return acc;
}

double SquaredNormD(const float* a, std::int64_t n) {
  double acc = 0.0;
  for (std::int64_t i = 0; i < n; ++i) {
    acc += static_cast<double>(a[i]) * a[i];
  }
  return acc;
}

double SumD(const float* a, std::int64_t n) {
  double acc = 0.0;
  for (std::int64_t i = 0; i < n; ++i) acc += a[i];
  return acc;
}

void Axpy(float* y, float alpha, const float* x, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

void Scale(float* y, float alpha, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) y[i] *= alpha;
}

void NormalizeRowL2(float* dst, const float* src, std::int64_t n, float eps) {
  const float norm = static_cast<float>(std::sqrt(SquaredNormD(src, n)));
  if (dst != src) std::copy(src, src + n, dst);
  if (norm <= eps) return;
  Scale(dst, 1.0f / norm, n);
}

void GemmRows(const float* a, const float* b, float* c,
              std::int64_t row_begin, std::int64_t row_end, std::int64_t k,
              std::int64_t n) {
  for (std::int64_t i = row_begin; i < row_end; ++i) {
    const float* arow = a + i * k;
    float* crow = c + i * n;
    for (std::int64_t p = 0; p < k; ++p) {
      const float av = arow[p];
      if (av == 0.0f) continue;
      const float* brow = b + p * n;
      for (std::int64_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

void GemmTransBRows(const float* a, const float* b, float* c,
                    std::int64_t row_begin, std::int64_t row_end,
                    std::int64_t k, std::int64_t n) {
  for (std::int64_t i = row_begin; i < row_end; ++i) {
    const float* arow = a + i * k;
    float* crow = c + i * n;
    for (std::int64_t j = 0; j < n; ++j) crow[j] = Dot(arow, b + j * k, k);
  }
}

void GemmTransARows(const float* a, const float* b, float* c,
                    std::int64_t row_begin, std::int64_t row_end,
                    std::int64_t p_begin, std::int64_t p_end, std::int64_t m,
                    std::int64_t n) {
  for (std::int64_t p = p_begin; p < p_end; ++p) {
    const float* arow = a + p * m;
    const float* brow = b + p * n;
    for (std::int64_t i = row_begin; i < row_end; ++i) {
      const float av = arow[i];
      if (av == 0.0f) continue;
      Axpy(c + i * n, av, brow, n);
    }
  }
}

void SpmmRows(const std::int64_t* row_ptr, const std::int32_t* col_idx,
              const float* vals, const float* b, float* c,
              std::int64_t row_begin, std::int64_t row_end, std::int64_t n) {
  for (std::int64_t r = row_begin; r < row_end; ++r) {
    float* crow = c + r * n;
    for (std::int64_t e = row_ptr[r]; e < row_ptr[r + 1]; ++e) {
      Axpy(crow, vals[e], b + static_cast<std::int64_t>(col_idx[e]) * n, n);
    }
  }
}

void SpmmGroupedRows(const std::int64_t* row_ptr, const std::int32_t* col_idx,
                     const float* vals, const float* b, float* c,
                     std::int64_t row_begin, std::int64_t row_end,
                     std::int64_t n, std::int64_t group) {
  std::vector<float> block(n);
  for (std::int64_t r = row_begin; r < row_end; ++r) {
    float* crow = c + r * n;
    std::int64_t e = row_ptr[r];
    while (e < row_ptr[r + 1]) {
      const std::int64_t id = col_idx[e] / group;
      std::fill(block.begin(), block.end(), 0.0f);
      for (; e < row_ptr[r + 1] && col_idx[e] / group == id; ++e) {
        Axpy(block.data(), vals[e],
             b + static_cast<std::int64_t>(col_idx[e]) * n, n);
      }
      Axpy(crow, 1.0f, block.data(), n);
    }
  }
}

std::int32_t DotI8(const std::int8_t* a, const std::int8_t* b,
                   std::int64_t n) {
  std::int32_t acc = 0;
  for (std::int64_t i = 0; i < n; ++i) {
    acc += static_cast<std::int32_t>(a[i]) * static_cast<std::int32_t>(b[i]);
  }
  return acc;
}

}  // namespace portable

float QuantizeRowI8(std::int8_t* dst, const float* src, std::int64_t n) {
  float maxabs = 0.0f;
  for (std::int64_t i = 0; i < n; ++i) {
    maxabs = std::max(maxabs, std::fabs(src[i]));
  }
  if (maxabs == 0.0f) {
    std::fill(dst, dst + n, std::int8_t{0});
    return 0.0f;
  }
  const float scale = maxabs / 127.0f;
  const float inv = 127.0f / maxabs;
  for (std::int64_t i = 0; i < n; ++i) {
    const long long q = std::llround(src[i] * inv);
    dst[i] = static_cast<std::int8_t>(
        std::clamp<long long>(q, -127, 127));
  }
  return scale;
}

}  // namespace simd
}  // namespace e2gcl
