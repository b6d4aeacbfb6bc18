#ifndef E2GCL_TENSOR_CSR_H_
#define E2GCL_TENSOR_CSR_H_

#include <cstdint>
#include <tuple>
#include <vector>

#include "tensor/matrix.h"

namespace e2gcl {

/// Sparse float32 matrix in compressed-sparse-row form. Used for
/// (normalized) adjacency matrices; the GCN propagation `A_n H` is a
/// SpMM against this type.
class CsrMatrix {
 public:
  CsrMatrix() : rows_(0), cols_(0) { row_ptr_.push_back(0); }

  /// Takes rows already in canonical form: `row_ptr` holds rows + 1
  /// offsets from 0 to nnz, and each row's column ids are strictly
  /// ascending and inside [0, cols). Checks that form in O(nnz).
  CsrMatrix(std::int64_t rows, std::int64_t cols,
            std::vector<std::int64_t> row_ptr,
            std::vector<std::int32_t> col_idx, std::vector<float> values);

  /// Builds from COO triplets (row, col, value). Duplicate (row, col)
  /// entries are summed. Triplets may be in any order.
  static CsrMatrix FromCoo(std::int64_t rows, std::int64_t cols,
                           std::vector<std::tuple<std::int64_t, std::int64_t,
                                                  float>> triplets);

  std::int64_t rows() const { return rows_; }
  std::int64_t cols() const { return cols_; }
  std::int64_t nnz() const {
    return static_cast<std::int64_t>(col_idx_.size());
  }

  const std::vector<std::int64_t>& row_ptr() const { return row_ptr_; }
  const std::vector<std::int32_t>& col_idx() const { return col_idx_; }
  const std::vector<float>& values() const { return values_; }

  /// Number of stored entries in row r.
  std::int64_t RowNnz(std::int64_t r) const {
    return row_ptr_[r + 1] - row_ptr_[r];
  }

  /// Transposed copy (O(nnz)).
  CsrMatrix Transposed() const;

  /// Dense copy (tests / tiny matrices only).
  Matrix ToDense() const;

  /// Marks the matrix symmetric if it is exactly so: square, and every
  /// stored (r, c, v) has a stored (c, r) with bit-identical value. O(nnz)
  /// check; returns the resulting mark. Nothing else sets the mark, and
  /// no method mutates a CsrMatrix, so a marked matrix stays symmetric.
  bool MarkSymmetricIfExact();

  /// True after a successful MarkSymmetricIfExact(): SpmmTransposedA then
  /// runs in row-parallel gather form.
  bool symmetric() const { return symmetric_; }

 private:
  std::int64_t rows_;
  std::int64_t cols_;
  std::vector<std::int64_t> row_ptr_;
  std::vector<std::int32_t> col_idx_;
  std::vector<float> values_;
  bool symmetric_ = false;
};

/// Dense result of sparse x dense: C = A * B with A sparse.
Matrix Spmm(const CsrMatrix& a, const Matrix& b);

/// C = A^T * B without materializing the transpose. Input rows are cut
/// into size-based chunks whose scattered partials are summed in chunk
/// order. On a matrix marked symmetric the same sums run in gather form
/// (simd::SpmmGroupedRows), bit-identical to the scatter, with no
/// partials and a thread per output row block.
Matrix SpmmTransposedA(const CsrMatrix& a, const Matrix& b);

}  // namespace e2gcl

#endif  // E2GCL_TENSOR_CSR_H_
