#include "serve/quantized_table.h"

#include "parallel/parallel_for.h"
#include "tensor/check.h"
#include "tensor/simd/simd.h"

namespace e2gcl {

QuantizedEmbeddingTable QuantizedEmbeddingTable::Build(const Matrix& z) {
  QuantizedEmbeddingTable t;
  t.rows_ = z.rows();
  t.cols_ = z.cols();
  t.codes_.resize(static_cast<std::size_t>(z.rows() * z.cols()));
  t.scales_.resize(static_cast<std::size_t>(z.rows()));
  // Row-parallel: each row's codes and scale are owned by one iteration,
  // and QuantizeRowI8 is a shared scalar routine, so the table is
  // bit-identical at any thread count and in every SIMD backend.
  ParallelFor(0, z.rows(), GrainForCost(z.cols()),
              [&](std::int64_t rb, std::int64_t re) {
                for (std::int64_t r = rb; r < re; ++r) {
                  t.scales_[static_cast<std::size_t>(r)] = simd::QuantizeRowI8(
                      t.codes_.data() + r * z.cols(), z.RowPtr(r), z.cols());
                }
              });
  return t;
}

float QuantizedEmbeddingTable::QuantizeQuery(
    const float* row, std::vector<std::int8_t>* codes) const {
  codes->resize(static_cast<std::size_t>(cols_));
  return simd::QuantizeRowI8(codes->data(), row, cols_);
}

void QuantizedEmbeddingTable::ScoreRows(const std::int8_t* queries,
                                        const float* query_scales,
                                        std::int64_t num_queries,
                                        std::int64_t row_begin,
                                        std::int64_t row_end,
                                        float* out) const {
  // Locals, not members: DotI8 is an opaque call, after which members
  // would be reloaded on every row.
  const std::int64_t cols = cols_;
  const std::int64_t span = row_end - row_begin;
  const std::int8_t* row = RowPtr(row_begin);
  const float* row_scale = scales_.data() + row_begin;
  for (std::int64_t i = 0; i < span; ++i, row += cols) {
    for (std::int64_t q = 0; q < num_queries; ++q) {
      const std::int32_t acc = simd::DotI8(queries + q * cols, row, cols);
      out[q * span + i] =
          static_cast<float>(acc) * (query_scales[q] * row_scale[i]);
    }
  }
}

void QuantizedEmbeddingTable::ScoreAll(const std::int8_t* query,
                                       float query_scale,
                                       std::vector<float>* scores) const {
  scores->resize(static_cast<std::size_t>(rows_));
  ParallelFor(0, rows_, GrainForCost(cols_),
              [&](std::int64_t rb, std::int64_t re) {
                ScoreRows(query, &query_scale, 1, rb, re,
                          scores->data() + rb);
              });
}

}  // namespace e2gcl
