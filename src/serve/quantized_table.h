#ifndef E2GCL_SERVE_QUANTIZED_TABLE_H_
#define E2GCL_SERVE_QUANTIZED_TABLE_H_

#include <cstdint>
#include <vector>

#include "tensor/matrix.h"

namespace e2gcl {

/// Symmetric per-row int8 quantization of an embedding matrix, the
/// serving-side memory cut: one byte per coefficient plus one float
/// scale per row (~4x smaller than the fp32 table for typical widths).
///
/// Scheme (DESIGN.md "SIMD kernels & quantized serving"): for each row
/// `scale = maxabs / 127`, codes are `llround(value / scale)` clamped to
/// [-127, 127] (the -128 code is never produced, keeping the scheme
/// symmetric). An approximate dot score of a quantized query q against
/// row r is
///     DotI8(q.codes, r.codes) * q.scale * r.scale
/// computed with exact int32 accumulation, so scores are bit-identical
/// across SIMD backends and thread counts. The EmbeddingServer re-scores
/// the top candidates with exact fp32 rows to recover fp32 rankings (see
/// ServeOptions::rescore_factor).
class QuantizedEmbeddingTable {
 public:
  QuantizedEmbeddingTable() = default;

  /// Quantizes every row of `z` (row-parallel; deterministic).
  static QuantizedEmbeddingTable Build(const Matrix& z);

  std::int64_t rows() const { return rows_; }
  std::int64_t cols() const { return cols_; }
  bool empty() const { return rows_ == 0; }

  const std::int8_t* RowPtr(std::int64_t r) const {
    return codes_.data() + r * cols_;
  }
  float scale(std::int64_t r) const {
    return scales_[static_cast<std::size_t>(r)];
  }

  /// Quantizes one fp32 query row (must have cols() entries) into
  /// `codes` (resized) and returns its scale.
  float QuantizeQuery(const float* row, std::vector<std::int8_t>* codes) const;

  /// Approximate scores of `num_queries` quantized queries (codes
  /// num_queries x cols(), row-major, and one scale each) against rows
  /// [row_begin, row_end), written to
  /// out[q * (row_end - row_begin) + (r - row_begin)]. Each row is read
  /// once for all the queries. A score is
  ///     DotI8(query, row) * (query_scale * row_scale)
  /// whatever the batch or the row range, so a batched scan answers as
  /// each query alone would. Serial: callers split the rows.
  void ScoreRows(const std::int8_t* queries, const float* query_scales,
                 std::int64_t num_queries, std::int64_t row_begin,
                 std::int64_t row_end, float* out) const;

  /// scores[i] = approximate dot score of one quantized query against
  /// row i, for every row (ScoreRows over row-parallel chunks).
  void ScoreAll(const std::int8_t* query, float query_scale,
                std::vector<float>* scores) const;

  /// Resident bytes of codes + scales (the number the 4x claim is about).
  std::int64_t MemoryBytes() const {
    return static_cast<std::int64_t>(codes_.size()) +
           static_cast<std::int64_t>(scales_.size() * sizeof(float));
  }

 private:
  std::int64_t rows_ = 0;
  std::int64_t cols_ = 0;
  std::vector<std::int8_t> codes_;  // rows_ x cols_, row-major
  std::vector<float> scales_;       // per-row dequantization scale
};

}  // namespace e2gcl

#endif  // E2GCL_SERVE_QUANTIZED_TABLE_H_
