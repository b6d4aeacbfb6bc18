#ifndef E2GCL_TENSOR_KERNEL_BOUNDS_H_
#define E2GCL_TENSOR_KERNEL_BOUNDS_H_

#include <cmath>
#include <cstdint>
#include <limits>

namespace e2gcl {

/// Rounding slack of a float kernel that sums `dim` rounded terms, in
/// any order and in either SIMD backend: 2(dim + 32)·2^-24, above the
/// relative γ_{dim+18} such a sum can drift by, with room for the few
/// roundings of the double arithmetic that applies it.
inline double KernelRoundingSlack(std::int64_t dim) {
  return 2.0 * static_cast<double>(dim + 32) * 0x1p-24;
}

/// Bounds on the exact Euclidean distance δ between two float rows of
/// width `dim`, from the squared distance K that RowSquaredDistance
/// returns for them; KMeans prunes its assignment scans with these.
/// Summing `dim` non-negative rounded squares, in any order and in
/// either SIMD backend, keeps K within a relative γ_{dim+18} of δ² (at
/// most dim + 18 roundings on any term's path: two for the squared
/// difference, the lane accumulations, the eight-lane horizontal sum
/// and a scalar tail), plus dim·2^-149 of absolute error from subnormal
/// products. The slack 2(dim + 32)·2^-24 exceeds that bound by more than
/// the few roundings of the conversions themselves, so
/// Lower(K) <= δ <= Upper(K) always holds, and δ > Upper(K') implies
/// the kernel returns a value strictly larger than K' for that pair.
class KernelDistanceBounds {
 public:
  explicit KernelDistanceBounds(std::int64_t dim)
      : slack_(KernelRoundingSlack(dim)),
        subnormal_(static_cast<double>(dim) * 0x1p-149) {}

  /// False only for absurd row widths, where the bounds would be void.
  bool usable() const { return slack_ <= 0.25; }

  /// A lower bound on δ. Tiny and non-finite K give 0.
  float Lower(float d2) const {
    if (!(d2 >= 0x1p-100f && d2 <= std::numeric_limits<float>::max())) {
      return 0.0f;
    }
    return static_cast<float>(std::sqrt(static_cast<double>(d2)) *
                              (1.0 - slack_));
  }

  /// An upper bound on δ (NaN for a NaN K).
  float Upper(float d2) const {
    return static_cast<float>(
        std::sqrt(static_cast<double>(d2) + subnormal_) * (1.0 + slack_));
  }

  /// Lowers a lower bound on the distance to a center by an upper bound
  /// on that center's drift. The float difference rounds at most 2^-24
  /// above the exact one, and the (1 - 2^-23) factor takes it back
  /// below; a subnormal difference is exact. NaN and negative results
  /// give 0.
  static float Drop(float lower, float drift) {
    const float diff = lower - drift;
    return diff > 0.0f ? diff * (1.0f - 0x1p-23f) : 0.0f;
  }

 private:
  double slack_;
  double subnormal_;
};

/// An upper bound on |Dot(a, b)| as the kernel returns it for two float
/// rows of width `dim`, from upper bounds on their exact Euclidean norms
/// (NormUpper); the serving TopK scan stops on it. Summing `dim` rounded
/// products, in any order and in either SIMD backend, keeps the result
/// within a relative γ_{dim+16} of Σ|a_i b_i| <= ‖a‖·‖b‖ (Cauchy–Schwarz),
/// plus at most 2^-150 of absolute error per product that underflows.
/// So |Dot(a, b)| <= Upper(‖a‖, ‖b‖) = ‖a‖·‖b‖·(1 + slack) + dim·2^-149,
/// the slack being KernelDistanceBounds'. That needs no partial sum to
/// overflow, which holds whenever Upper is below FLT_MAX: a caller
/// comparing Upper with a finite float gets a sound answer.
class KernelDotBound {
 public:
  explicit KernelDotBound(std::int64_t dim)
      : slack_(KernelRoundingSlack(dim)),
        subnormal_(static_cast<double>(dim) * 0x1p-149) {}

  /// An upper bound on |Dot(a, b)| for rows whose norms are at most
  /// `norm_a` and `norm_b` (NaN when either is NaN, or for 0 times
  /// infinity).
  double Upper(float norm_a, float norm_b) const {
    return static_cast<double>(norm_a) * static_cast<double>(norm_b) *
               (1.0 + slack_) +
           subnormal_;
  }

  /// An upper bound on the exact Euclidean norm of `row`: its double sum
  /// of squares (each square exact in double; the sum within a relative
  /// dim·2^-53), inflated past that error and the square root's rounding,
  /// then rounded up to a float. +infinity for a norm beyond FLT_MAX or a
  /// NaN entry.
  static float NormUpper(const float* row, std::int64_t dim) {
    double sum = 0.0;
    for (std::int64_t j = 0; j < dim; ++j) {
      sum += static_cast<double>(row[j]) * static_cast<double>(row[j]);
    }
    const double norm =
        std::sqrt(sum * (1.0 + static_cast<double>(dim + 8) * 0x1p-51));
    if (std::isnan(norm)) return std::numeric_limits<float>::infinity();
    float up = static_cast<float>(norm);
    if (static_cast<double>(up) < norm) {
      up = std::nextafter(up, std::numeric_limits<float>::infinity());
    }
    return up;
  }

 private:
  double slack_;
  double subnormal_;
};

}  // namespace e2gcl

#endif  // E2GCL_TENSOR_KERNEL_BOUNDS_H_
