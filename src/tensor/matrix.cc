#include "tensor/matrix.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "obs/metrics.h"
#include "parallel/parallel_for.h"
#include "tensor/check.h"
#include "tensor/simd/simd.h"

namespace e2gcl {

Matrix::Matrix(std::int64_t rows, std::int64_t cols)
    : rows_(rows), cols_(cols), data_(rows * cols, 0.0f) {
  E2GCL_CHECK(rows >= 0 && cols >= 0);
}

Matrix::Matrix(std::int64_t rows, std::int64_t cols, float value)
    : rows_(rows), cols_(cols), data_(rows * cols, value) {
  E2GCL_CHECK(rows >= 0 && cols >= 0);
}

Matrix Matrix::FromRows(const std::vector<std::vector<float>>& rows) {
  if (rows.empty()) return Matrix();
  const std::int64_t r = static_cast<std::int64_t>(rows.size());
  const std::int64_t c = static_cast<std::int64_t>(rows[0].size());
  Matrix m(r, c);
  for (std::int64_t i = 0; i < r; ++i) {
    E2GCL_CHECK(static_cast<std::int64_t>(rows[i].size()) == c);
    std::copy(rows[i].begin(), rows[i].end(), m.RowPtr(i));
  }
  return m;
}

Matrix Matrix::Identity(std::int64_t n) {
  Matrix m(n, n);
  for (std::int64_t i = 0; i < n; ++i) m(i, i) = 1.0f;
  return m;
}

Matrix Matrix::RandomUniform(std::int64_t rows, std::int64_t cols, float lo,
                             float hi, Rng& rng) {
  Matrix m(rows, cols);
  for (std::int64_t i = 0; i < m.size(); ++i) m.data()[i] = rng.Uniform(lo, hi);
  return m;
}

Matrix Matrix::RandomNormal(std::int64_t rows, std::int64_t cols, float mean,
                            float stddev, Rng& rng) {
  Matrix m(rows, cols);
  for (std::int64_t i = 0; i < m.size(); ++i) {
    m.data()[i] = rng.Normal(mean, stddev);
  }
  return m;
}

Matrix Matrix::Row(std::int64_t r) const {
  E2GCL_CHECK(r >= 0 && r < rows_);
  Matrix out(1, cols_);
  std::memcpy(out.data(), RowPtr(r), sizeof(float) * cols_);
  return out;
}

bool Matrix::operator==(const Matrix& other) const {
  return rows_ == other.rows_ && cols_ == other.cols_ && data_ == other.data_;
}

namespace {

void CheckSameShape(const Matrix& a, const Matrix& b) {
  E2GCL_CHECK_MSG(a.rows() == b.rows() && a.cols() == b.cols(),
                  "shape mismatch: %lld x %lld vs %lld x %lld",
                  static_cast<long long>(a.rows()),
                  static_cast<long long>(a.cols()),
                  static_cast<long long>(b.rows()),
                  static_cast<long long>(b.cols()));
}

// Elements per chunk for flat element-wise loops.
constexpr std::int64_t kFlatGrain = std::int64_t{1} << 15;

// Row floor for kernels whose chunking changes float-reduction order
// (per-chunk partials). Below this many rows there is a single chunk, so
// small inputs keep the exact serial summation order.
constexpr std::int64_t kReduceRowFloor = 512;

// Row floor per chunk of MatMulTransposedB (see there).
constexpr std::int64_t kTransBRowFloor = 16;

/// Telemetry for an (m x k) * (k x n) product: call count, fused
/// multiply-add count, and the touched byte volume (a + b + c, float32).
void RecordMatMulMetrics(std::int64_t m, std::int64_t k, std::int64_t n) {
  if (!ObsEnabled()) return;
  static const Counter calls = Counter::Get("matmul.calls");
  static const Counter fmas = Counter::Get("matmul.fmas");
  static const Counter bytes = Counter::Get("matmul.bytes");
  calls.Increment();
  fmas.Add(static_cast<std::uint64_t>(m * k * n));
  bytes.Add(static_cast<std::uint64_t>((m * k + k * n + m * n) *
                                       static_cast<std::int64_t>(
                                           sizeof(float))));
}

}  // namespace

Matrix MatMul(const Matrix& a, const Matrix& b) {
  E2GCL_CHECK_MSG(a.cols() == b.rows(), "matmul inner-dim mismatch");
  const std::int64_t m = a.rows(), k = a.cols(), n = b.cols();
  RecordMatMulMetrics(m, k, n);
  Matrix c(m, n);
  // Row-chunked over the output: each output row is owned by exactly one
  // chunk, so the parallel result is bit-identical to the serial one at
  // any thread count. The kernel itself (i-k-j order with a register-
  // resident C tile under AVX2) lives in tensor/simd/.
  ParallelFor(0, m, GrainForCost(k * n), [&](std::int64_t rb, std::int64_t re) {
    simd::GemmRows(a.data(), b.data(), c.data(), rb, re, k, n);
  });
  return c;
}

Matrix MatMulTransposedB(const Matrix& a, const Matrix& b) {
  E2GCL_CHECK_MSG(a.cols() == b.cols(), "matmul(B^T) inner-dim mismatch");
  const std::int64_t m = a.rows(), k = a.cols(), n = b.rows();
  RecordMatMulMetrics(m, k, n);
  Matrix c(m, n);
  // At least kTransBRowFloor rows per chunk: the kernel reads each block
  // of B rows once per chunk, so one-row chunks would stream all of B
  // from L2 per output row.
  ParallelFor(0, m, std::max(kTransBRowFloor, GrainForCost(k * n)),
              [&](std::int64_t rb, std::int64_t re) {
                simd::GemmTransBRows(a.data(), b.data(), c.data(), rb, re, k,
                                     n);
              });
  return c;
}

Matrix MatMulTransposedA(const Matrix& a, const Matrix& b) {
  E2GCL_CHECK_MSG(a.rows() == b.rows(), "matmul(A^T) inner-dim mismatch");
  const std::int64_t m = a.cols(), k = a.rows(), n = b.cols();
  RecordMatMulMetrics(m, k, n);
  Matrix c(m, n);
  // The reduction runs over k (the shared row dimension), so output rows
  // cannot be assigned to single chunks. Instead k is cut into fixed
  // size-based chunks, each accumulating into its own m x n partial;
  // partials are reduced in ascending chunk order, which keeps the result
  // independent of the thread count. A single chunk (small k) follows the
  // exact serial path. Per element, simd::GemmTransARows is the
  // ascending-p Axpy sequence with the a[p][i] == 0 skip.
  const std::int64_t grain =
      std::max({kReduceRowFloor, GrainForCost(m * n), (k + 63) / 64});
  const std::int64_t chunks = NumChunks(k, grain);
  if (chunks <= 1) {
    simd::GemmTransARows(a.data(), b.data(), c.data(), 0, m, 0, k, m, n);
    return c;
  }
  std::vector<Matrix> partials(chunks);
  ParallelForChunks(0, k, grain,
                    [&](std::int64_t chunk, std::int64_t pb, std::int64_t pe) {
                      partials[chunk] = Matrix(m, n);
                      simd::GemmTransARows(a.data(), b.data(),
                                           partials[chunk].data(), 0, m, pb,
                                           pe, m, n);
                    });
  for (const Matrix& part : partials) AddInPlace(c, part);
  return c;
}

Matrix Add(const Matrix& a, const Matrix& b) {
  CheckSameShape(a, b);
  Matrix c = a;
  AddInPlace(c, b);
  return c;
}

Matrix Sub(const Matrix& a, const Matrix& b) {
  CheckSameShape(a, b);
  Matrix c = a;
  AxpyInPlace(c, -1.0f, b);
  return c;
}

Matrix Hadamard(const Matrix& a, const Matrix& b) {
  CheckSameShape(a, b);
  Matrix c = a;
  ParallelFor(0, c.size(), kFlatGrain, [&](std::int64_t ib, std::int64_t ie) {
    for (std::int64_t i = ib; i < ie; ++i) c.data()[i] *= b.data()[i];
  });
  return c;
}

Matrix Scale(const Matrix& a, float alpha) {
  Matrix c = a;
  ParallelFor(0, c.size(), kFlatGrain, [&](std::int64_t ib, std::int64_t ie) {
    simd::Scale(c.data() + ib, alpha, ie - ib);
  });
  return c;
}

void AxpyInPlace(Matrix& a, float alpha, const Matrix& b) {
  CheckSameShape(a, b);
  ParallelFor(0, a.size(), kFlatGrain, [&](std::int64_t ib, std::int64_t ie) {
    simd::Axpy(a.data() + ib, alpha, b.data() + ib, ie - ib);
  });
}

void AddInPlace(Matrix& a, const Matrix& b) {
  CheckSameShape(a, b);
  // alpha == 1.0f makes the Axpy FMA exact, so this matches plain
  // element-wise addition bit for bit in every backend.
  ParallelFor(0, a.size(), kFlatGrain, [&](std::int64_t ib, std::int64_t ie) {
    simd::Axpy(a.data() + ib, 1.0f, b.data() + ib, ie - ib);
  });
}

Matrix Transpose(const Matrix& a) {
  Matrix t(a.cols(), a.rows());
  ParallelFor(0, a.rows(), GrainForCost(a.cols()),
              [&](std::int64_t rb, std::int64_t re) {
                for (std::int64_t r = rb; r < re; ++r) {
                  for (std::int64_t c = 0; c < a.cols(); ++c) t(c, r) = a(r, c);
                }
              });
  return t;
}

float SumAll(const Matrix& a) {
  // Per-chunk accumulation in double (reduced in chunk order) to keep
  // reductions accurate for the large matrices the benches touch.
  const std::int64_t chunks = NumChunks(a.size(), kFlatGrain * 2);
  std::vector<double> partial(std::max<std::int64_t>(1, chunks), 0.0);
  ParallelForChunks(0, a.size(), kFlatGrain * 2,
                    [&](std::int64_t chunk, std::int64_t ib, std::int64_t ie) {
                      partial[chunk] = simd::SumD(a.data() + ib, ie - ib);
                    });
  double acc = 0.0;
  for (double p : partial) acc += p;
  return static_cast<float>(acc);
}

float MeanAll(const Matrix& a) {
  E2GCL_CHECK(a.size() > 0);
  return SumAll(a) / static_cast<float>(a.size());
}

float FrobeniusNorm(const Matrix& a) {
  const std::int64_t chunks = NumChunks(a.size(), kFlatGrain * 2);
  std::vector<double> partial(std::max<std::int64_t>(1, chunks), 0.0);
  ParallelForChunks(0, a.size(), kFlatGrain * 2,
                    [&](std::int64_t chunk, std::int64_t ib, std::int64_t ie) {
                      partial[chunk] =
                          simd::SquaredNormD(a.data() + ib, ie - ib);
                    });
  double acc = 0.0;
  for (double p : partial) acc += p;
  return static_cast<float>(std::sqrt(acc));
}

Matrix ColSums(const Matrix& a) {
  Matrix s(1, a.cols());
  // Reduction over rows: per-chunk 1 x cols partials, combined in chunk
  // order so the summation order is fixed regardless of thread count.
  const std::int64_t grain = std::max(kReduceRowFloor, GrainForCost(a.cols()));
  const std::int64_t chunks = NumChunks(a.rows(), grain);
  if (chunks <= 1) {
    for (std::int64_t r = 0; r < a.rows(); ++r) {
      const float* row = a.RowPtr(r);
      for (std::int64_t c = 0; c < a.cols(); ++c) s(0, c) += row[c];
    }
    return s;
  }
  std::vector<Matrix> partials(chunks);
  ParallelForChunks(0, a.rows(), grain,
                    [&](std::int64_t chunk, std::int64_t rb, std::int64_t re) {
                      Matrix part(1, a.cols());
                      for (std::int64_t r = rb; r < re; ++r) {
                        const float* row = a.RowPtr(r);
                        for (std::int64_t c = 0; c < a.cols(); ++c) {
                          part(0, c) += row[c];
                        }
                      }
                      partials[chunk] = std::move(part);
                    });
  for (const Matrix& part : partials) AddInPlace(s, part);
  return s;
}

Matrix RowL2Norms(const Matrix& a) {
  Matrix s(a.rows(), 1);
  ParallelFor(0, a.rows(), GrainForCost(a.cols()),
              [&](std::int64_t rb, std::int64_t re) {
                for (std::int64_t r = rb; r < re; ++r) {
                  s(r, 0) = static_cast<float>(
                      std::sqrt(simd::SquaredNormD(a.RowPtr(r), a.cols())));
                }
              });
  return s;
}

Matrix NormalizeRowsL2(const Matrix& a, float eps) {
  // Fused per-row kernel: norm (double accumulate) and the scale pass in
  // one sweep over the row; rows with norm <= eps are copied unchanged.
  Matrix out(a.rows(), a.cols());
  ParallelFor(0, a.rows(), GrainForCost(a.cols()),
              [&](std::int64_t rb, std::int64_t re) {
                for (std::int64_t r = rb; r < re; ++r) {
                  simd::NormalizeRowL2(out.RowPtr(r), a.RowPtr(r), a.cols(),
                                       eps);
                }
              });
  return out;
}

float RowSquaredDistance(const Matrix& a, std::int64_t r, const Matrix& b,
                         std::int64_t s) {
  E2GCL_CHECK(a.cols() == b.cols());
  return simd::SquaredDistance(a.RowPtr(r), b.RowPtr(s), a.cols());
}

float RowDistance(const Matrix& a, std::int64_t r, const Matrix& b,
                  std::int64_t s) {
  return std::sqrt(RowSquaredDistance(a, r, b, s));
}

Matrix GatherRows(const Matrix& a, const std::vector<std::int64_t>& indices) {
  Matrix out(static_cast<std::int64_t>(indices.size()), a.cols());
  ParallelFor(0, out.rows(), GrainForCost(a.cols()),
              [&](std::int64_t ib, std::int64_t ie) {
                for (std::int64_t i = ib; i < ie; ++i) {
                  const std::int64_t r = indices[i];
                  E2GCL_CHECK(r >= 0 && r < a.rows());
                  std::memcpy(out.RowPtr(i), a.RowPtr(r),
                              sizeof(float) * a.cols());
                }
              });
  return out;
}

Matrix SoftmaxRows(const Matrix& a) {
  Matrix out(a.rows(), a.cols());
  ParallelFor(0, a.rows(), GrainForCost(a.cols() * 4),
              [&](std::int64_t rb, std::int64_t re) {
                for (std::int64_t r = rb; r < re; ++r) {
                  const float* in = a.RowPtr(r);
                  float* o = out.RowPtr(r);
                  float mx = in[0];
                  for (std::int64_t c = 1; c < a.cols(); ++c) {
                    mx = std::max(mx, in[c]);
                  }
                  float denom = 0.0f;
                  for (std::int64_t c = 0; c < a.cols(); ++c) {
                    o[c] = std::exp(in[c] - mx);
                    denom += o[c];
                  }
                  const float inv = 1.0f / denom;
                  for (std::int64_t c = 0; c < a.cols(); ++c) o[c] *= inv;
                }
              });
  return out;
}

bool AllFinite(const Matrix& a) {
  // A logical AND over entries is order-insensitive, so per-chunk partial
  // results need no ordered reduce; they are still combined in chunk order
  // for uniformity with the other reductions.
  const std::int64_t chunks = NumChunks(a.size(), kFlatGrain * 2);
  std::vector<char> partial(std::max<std::int64_t>(1, chunks), 1);
  ParallelForChunks(0, a.size(), kFlatGrain * 2,
                    [&](std::int64_t chunk, std::int64_t ib, std::int64_t ie) {
                      char ok = 1;
                      for (std::int64_t i = ib; i < ie; ++i) {
                        if (!std::isfinite(a.data()[i])) {
                          ok = 0;
                          break;
                        }
                      }
                      partial[chunk] = ok;
                    });
  for (char p : partial) {
    if (!p) return false;
  }
  return true;
}

float MaxAbsDiff(const Matrix& a, const Matrix& b) {
  CheckSameShape(a, b);
  // Max is order-insensitive, so per-chunk maxima need no ordered reduce,
  // but we still combine them in chunk order for uniformity.
  const std::int64_t chunks = NumChunks(a.size(), kFlatGrain * 2);
  std::vector<float> partial(std::max<std::int64_t>(1, chunks), 0.0f);
  ParallelForChunks(0, a.size(), kFlatGrain * 2,
                    [&](std::int64_t chunk, std::int64_t ib, std::int64_t ie) {
                      float mx = 0.0f;
                      for (std::int64_t i = ib; i < ie; ++i) {
                        mx = std::max(mx, std::fabs(a.data()[i] - b.data()[i]));
                      }
                      partial[chunk] = mx;
                    });
  float mx = 0.0f;
  for (float p : partial) mx = std::max(mx, p);
  return mx;
}

}  // namespace e2gcl
