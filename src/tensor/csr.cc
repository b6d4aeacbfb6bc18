#include "tensor/csr.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "parallel/parallel_for.h"
#include "tensor/check.h"
#include "tensor/simd/simd.h"

namespace e2gcl {

CsrMatrix::CsrMatrix(std::int64_t rows, std::int64_t cols,
                     std::vector<std::int64_t> row_ptr,
                     std::vector<std::int32_t> col_idx,
                     std::vector<float> values)
    : rows_(rows),
      cols_(cols),
      row_ptr_(std::move(row_ptr)),
      col_idx_(std::move(col_idx)),
      values_(std::move(values)) {
  E2GCL_CHECK(rows_ >= 0 && cols_ >= 0);
  E2GCL_CHECK_MSG(
      cols_ <= std::numeric_limits<std::int32_t>::max(),
      "CsrMatrix column count %lld exceeds the int32 column-index range",
      static_cast<long long>(cols_));
  E2GCL_CHECK(static_cast<std::int64_t>(row_ptr_.size()) == rows_ + 1 &&
              row_ptr_.front() == 0 && values_.size() == col_idx_.size() &&
              row_ptr_.back() == static_cast<std::int64_t>(col_idx_.size()));
  for (std::int64_t r = 0; r < rows_; ++r) {
    E2GCL_CHECK_MSG(row_ptr_[r] <= row_ptr_[r + 1],
                    "CSR row %lld has a negative length",
                    static_cast<long long>(r));
    std::int64_t prev = -1;
    for (std::int64_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      E2GCL_CHECK_MSG(col_idx_[k] > prev && col_idx_[k] < cols_,
                      "CSR row %lld is not strictly ascending in range",
                      static_cast<long long>(r));
      prev = col_idx_[k];
    }
  }
}

CsrMatrix CsrMatrix::FromCoo(
    std::int64_t rows, std::int64_t cols,
    std::vector<std::tuple<std::int64_t, std::int64_t, float>> triplets) {
  E2GCL_CHECK(rows >= 0 && cols >= 0);
  // Column ids are stored as int32; a bare narrowing cast below would
  // silently corrupt indices for billion-column inputs.
  E2GCL_CHECK_MSG(
      cols <= std::numeric_limits<std::int32_t>::max(),
      "CsrMatrix column count %lld exceeds the int32 column-index range",
      static_cast<long long>(cols));
  std::sort(triplets.begin(), triplets.end(),
            [](const auto& a, const auto& b) {
              if (std::get<0>(a) != std::get<0>(b)) {
                return std::get<0>(a) < std::get<0>(b);
              }
              return std::get<1>(a) < std::get<1>(b);
            });
  CsrMatrix m;
  m.rows_ = rows;
  m.cols_ = cols;
  m.row_ptr_.assign(rows + 1, 0);
  m.col_idx_.reserve(triplets.size());
  m.values_.reserve(triplets.size());
  for (std::size_t i = 0; i < triplets.size(); ++i) {
    const auto [r, c, v] = triplets[i];
    E2GCL_CHECK_MSG(r >= 0 && r < rows && c >= 0 && c < cols,
                    "COO entry (%lld, %lld) out of bounds",
                    static_cast<long long>(r), static_cast<long long>(c));
    // Triplets are sorted, so duplicate coordinates are adjacent: sum them.
    if (i > 0 && std::get<0>(triplets[i - 1]) == r &&
        std::get<1>(triplets[i - 1]) == c) {
      m.values_.back() += v;
      continue;
    }
    m.col_idx_.push_back(static_cast<std::int32_t>(c));
    m.values_.push_back(v);
    m.row_ptr_[r + 1] += 1;
  }
  for (std::int64_t r = 0; r < rows; ++r) m.row_ptr_[r + 1] += m.row_ptr_[r];
  return m;
}

Matrix CsrMatrix::ToDense() const {
  Matrix d(rows_, cols_);
  for (std::int64_t r = 0; r < rows_; ++r) {
    for (std::int64_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      d(r, col_idx_[k]) += values_[k];
    }
  }
  return d;
}

bool CsrMatrix::MarkSymmetricIfExact() {
  symmetric_ = false;
  if (rows_ != cols_) return false;
  // Visiting rows in ascending order meets the mirrors (c, r) of row c in
  // ascending r, which is row c's own (sorted) order. So one cursor per
  // row walks it exactly once: every entry must find its mirror at the
  // cursor, and every cursor must end at its row's end.
  std::vector<std::int64_t> cursor(row_ptr_.begin(), row_ptr_.end() - 1);
  for (std::int64_t r = 0; r < rows_; ++r) {
    for (std::int64_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      const std::int64_t c = col_idx_[k];
      const std::int64_t m = cursor[c];
      if (m >= row_ptr_[c + 1] || col_idx_[m] != r ||
          std::bit_cast<std::uint32_t>(values_[m]) !=
              std::bit_cast<std::uint32_t>(values_[k])) {
        return false;
      }
      ++cursor[c];
    }
  }
  for (std::int64_t r = 0; r < rows_; ++r) {
    if (cursor[r] != row_ptr_[r + 1]) return false;
  }
  symmetric_ = true;
  return true;
}

namespace {

// Output-row floor for the scatter-form SpmmTransposedA: below this many
// input rows there is a single chunk and the exact serial accumulation
// order is preserved (covers every unit-test-sized graph).
constexpr std::int64_t kScatterRowFloor = 512;

/// Telemetry for one sparse-dense product: call count and touched byte
/// volume (nnz values + indices, gathered/scattered dense rows, output).
void RecordSpmmMetrics(const CsrMatrix& a, std::int64_t n,
                       std::int64_t out_rows) {
  if (!ObsEnabled()) return;
  static const Counter calls = Counter::Get("spmm.calls");
  static const Counter bytes = Counter::Get("spmm.bytes");
  calls.Increment();
  const std::int64_t nnz = a.nnz();
  bytes.Add(static_cast<std::uint64_t>(
      nnz * static_cast<std::int64_t>(sizeof(float) + sizeof(std::int32_t)) +
      (nnz + out_rows) * n * static_cast<std::int64_t>(sizeof(float))));
}

}  // namespace

Matrix Spmm(const CsrMatrix& a, const Matrix& b) {
  E2GCL_CHECK_MSG(a.cols() == b.rows(), "spmm inner-dim mismatch");
  const std::int64_t n = b.cols();
  RecordSpmmMetrics(a, n, a.rows());
  Matrix c(a.rows(), n);
  const auto& rp = a.row_ptr();
  const auto& ci = a.col_idx();
  const auto& vs = a.values();
  // Row-parallel gather form: each output row is owned by one chunk, so
  // the result is bit-identical to the serial kernel at any thread count.
  // The row kernel (register-blocked under AVX2, per-element identical to
  // one Axpy per edge) lives in tensor/simd/.
  const std::int64_t avg_nnz =
      a.rows() > 0 ? std::max<std::int64_t>(1, a.nnz() / a.rows()) : 1;
  ParallelFor(0, a.rows(), GrainForCost(avg_nnz * n),
              [&](std::int64_t rb, std::int64_t re) {
                simd::SpmmRows(rp.data(), ci.data(), vs.data(), b.data(),
                               c.data(), rb, re, n);
              });
  return c;
}

Matrix SpmmTransposedA(const CsrMatrix& a, const Matrix& b) {
  E2GCL_CHECK_MSG(a.rows() == b.rows(), "spmm(A^T) inner-dim mismatch");
  const std::int64_t n = b.cols();
  RecordSpmmMetrics(a, n, a.cols());
  Matrix c(a.cols(), n);
  const auto& rp = a.row_ptr();
  const auto& ci = a.col_idx();
  const auto& vs = a.values();
  // Scatter form: entry (r, col) contributes to output row `col`, so
  // output rows are shared across input rows. Input rows are cut into
  // fixed size-based chunks, each scattering into its own cols x n
  // partial; partials are reduced in ascending chunk order, making the
  // result independent of the thread count (never atomics on floats).
  const std::int64_t avg_nnz =
      a.rows() > 0 ? std::max<std::int64_t>(1, a.nnz() / a.rows()) : 1;
  const std::int64_t grain =
      std::max({kScatterRowFloor, GrainForCost(avg_nnz * n),
                (a.rows() + 63) / 64});
  const std::int64_t chunks = NumChunks(a.rows(), grain);
  if (a.symmetric()) {
    // A^T = A, and row c of A lists the rows r that scatter into output
    // row c in ascending r. Gathering them per output row, grouped by the
    // scatter chunk r / grain, repeats the scatter's per-element sums in
    // the same order: one chunk is a plain Spmm chain from zero; several
    // are per-chunk sums from zero added in ascending chunk order.
    ParallelFor(0, a.rows(), GrainForCost(avg_nnz * n),
                [&](std::int64_t rb, std::int64_t re) {
                  if (chunks <= 1) {
                    simd::SpmmRows(rp.data(), ci.data(), vs.data(), b.data(),
                                   c.data(), rb, re, n);
                  } else {
                    simd::SpmmGroupedRows(rp.data(), ci.data(), vs.data(),
                                          b.data(), c.data(), rb, re, n,
                                          grain);
                  }
                });
    return c;
  }
  auto scatter = [&](Matrix& dst, std::int64_t rb, std::int64_t re) {
    for (std::int64_t r = rb; r < re; ++r) {
      const float* brow = b.RowPtr(r);
      for (std::int64_t k = rp[r]; k < rp[r + 1]; ++k) {
        simd::Axpy(dst.RowPtr(ci[k]), vs[k], brow, n);
      }
    }
  };
  if (chunks <= 1) {
    scatter(c, 0, a.rows());
    return c;
  }
  // Chunks are processed in waves so only `wave` cols x n partials are
  // ever resident at once — a full partial per chunk peaks at 64 dense
  // copies of the output on large graphs, which is what used to blow
  // the backward-pass memory budget. The reduction stays in ascending
  // chunk order across waves, so the result is still bit-identical at
  // any thread count; the wave width only bounds memory.
  const std::int64_t wave =
      std::max<std::int64_t>(1, static_cast<std::int64_t>(GetNumThreads()));
  std::vector<Matrix> partials(std::min(chunks, wave));
  for (std::int64_t wb = 0; wb < chunks; wb += wave) {
    const std::int64_t we = std::min(chunks, wb + wave);
    GlobalThreadPool().Run(we - wb, [&](std::int64_t i) {
      const std::int64_t chunk = wb + i;
      const std::int64_t rb = chunk * grain;
      const std::int64_t re = std::min(a.rows(), rb + grain);
      partials[i] = Matrix(a.cols(), n);
      scatter(partials[i], rb, re);
    });
    for (std::int64_t i = 0; i < we - wb; ++i) {
      AddInPlace(c, partials[i]);
      partials[i] = Matrix();
    }
  }
  return c;
}

}  // namespace e2gcl
