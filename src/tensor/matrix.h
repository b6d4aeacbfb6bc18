#ifndef E2GCL_TENSOR_MATRIX_H_
#define E2GCL_TENSOR_MATRIX_H_

#include <cstdint>
#include <vector>

#include "tensor/aligned.h"
#include "tensor/rng.h"

namespace e2gcl {

/// Dense row-major float32 matrix. This is the single numeric container
/// used throughout the library (vectors are 1xN or Nx1 matrices).
///
/// The class is a passive value type: copyable, movable, no hidden
/// sharing. All linear-algebra kernels are free functions below so they
/// can be tested and benchmarked in isolation.
class Matrix {
 public:
  /// Empty 0x0 matrix.
  Matrix() : rows_(0), cols_(0) {}

  /// Zero-initialized rows x cols matrix.
  Matrix(std::int64_t rows, std::int64_t cols);

  /// Matrix filled with `value`.
  Matrix(std::int64_t rows, std::int64_t cols, float value);

  Matrix(const Matrix&) = default;
  Matrix& operator=(const Matrix&) = default;
  Matrix(Matrix&&) = default;
  Matrix& operator=(Matrix&&) = default;

  /// Builds from an explicit row-major initializer, e.g.
  /// Matrix::FromRows({{1,2},{3,4}}).
  static Matrix FromRows(const std::vector<std::vector<float>>& rows);

  /// Identity matrix of size n.
  static Matrix Identity(std::int64_t n);

  /// Uniform[lo, hi) entries.
  static Matrix RandomUniform(std::int64_t rows, std::int64_t cols, float lo,
                              float hi, Rng& rng);

  /// Normal(mean, stddev) entries.
  static Matrix RandomNormal(std::int64_t rows, std::int64_t cols, float mean,
                             float stddev, Rng& rng);

  std::int64_t rows() const { return rows_; }
  std::int64_t cols() const { return cols_; }
  std::int64_t size() const { return rows_ * cols_; }
  bool empty() const { return rows_ == 0 || cols_ == 0; }

  float& operator()(std::int64_t r, std::int64_t c) {
    return data_[r * cols_ + c];
  }
  float operator()(std::int64_t r, std::int64_t c) const {
    return data_[r * cols_ + c];
  }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }

  /// Pointer to the beginning of row r.
  float* RowPtr(std::int64_t r) { return data_.data() + r * cols_; }
  const float* RowPtr(std::int64_t r) const { return data_.data() + r * cols_; }

  /// Copies row r into a 1 x cols matrix.
  Matrix Row(std::int64_t r) const;

  /// True iff shapes and all entries are exactly equal.
  bool operator==(const Matrix& other) const;

 private:
  std::int64_t rows_;
  std::int64_t cols_;
  /// 64-byte-aligned backing store (see tensor/aligned.h): entry (0, 0)
  /// always sits on a cache-line boundary for the SIMD kernels.
  AlignedVector<float> data_;
};

// ---------------------------------------------------------------------------
// Kernels. Shape mismatches abort via E2GCL_CHECK.
// ---------------------------------------------------------------------------

/// C = A * B.
Matrix MatMul(const Matrix& a, const Matrix& b);

/// C = A * B^T (avoids materializing the transpose).
Matrix MatMulTransposedB(const Matrix& a, const Matrix& b);

/// C = A^T * B.
Matrix MatMulTransposedA(const Matrix& a, const Matrix& b);

/// Element-wise sum/difference/product.
Matrix Add(const Matrix& a, const Matrix& b);
Matrix Sub(const Matrix& a, const Matrix& b);
Matrix Hadamard(const Matrix& a, const Matrix& b);

/// alpha * A.
Matrix Scale(const Matrix& a, float alpha);

/// A += alpha * B (in place).
void AxpyInPlace(Matrix& a, float alpha, const Matrix& b);

/// A += B (in place).
void AddInPlace(Matrix& a, const Matrix& b);

/// Transpose.
Matrix Transpose(const Matrix& a);

/// Sum of all entries.
float SumAll(const Matrix& a);

/// Mean of all entries.
float MeanAll(const Matrix& a);

/// Frobenius norm.
float FrobeniusNorm(const Matrix& a);

/// Row vector (1 x cols) of column sums.
Matrix ColSums(const Matrix& a);

/// Column vector (rows x 1) of Euclidean row norms.
Matrix RowL2Norms(const Matrix& a);

/// Rows scaled to unit Euclidean norm; zero rows are left as zeros.
Matrix NormalizeRowsL2(const Matrix& a, float eps = 1e-12f);

/// Squared Euclidean distance between row `r` of `a` and row `s` of `b`.
/// Rows must have equal width.
float RowSquaredDistance(const Matrix& a, std::int64_t r, const Matrix& b,
                         std::int64_t s);

/// Euclidean distance between rows (sqrt of the above).
float RowDistance(const Matrix& a, std::int64_t r, const Matrix& b,
                  std::int64_t s);

/// Gathers the given rows of `a` into a new matrix (indices may repeat).
Matrix GatherRows(const Matrix& a, const std::vector<std::int64_t>& indices);

/// Row-wise softmax (numerically stable).
Matrix SoftmaxRows(const Matrix& a);

/// Max absolute difference between same-shaped matrices.
float MaxAbsDiff(const Matrix& a, const Matrix& b);

/// True iff every entry is finite (no NaN/Inf). Bit-identical at any
/// thread count. Note the zero-skip fast path in MatMul/MatMulTransposedA
/// evaluates 0 * NaN as 0, so a non-finite parameter can produce finite
/// activations, losses and gradients — callers guarding against divergence
/// must check the parameters themselves with this function, not just the
/// loss scalar.
bool AllFinite(const Matrix& a);

}  // namespace e2gcl

#endif  // E2GCL_TENSOR_MATRIX_H_
