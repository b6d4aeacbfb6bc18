#ifndef E2GCL_CLUSTER_KMEANS_H_
#define E2GCL_CLUSTER_KMEANS_H_

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "tensor/matrix.h"
#include "tensor/rng.h"

namespace e2gcl {

/// Result of Lloyd's algorithm over the rows of a matrix.
struct KMeansResult {
  /// num_clusters x dim cluster centers.
  Matrix centers;
  /// Cluster id per row of the input.
  std::vector<std::int64_t> assignment;
  /// Row indices grouped by cluster.
  std::vector<std::vector<std::int64_t>> clusters;
  /// Sum of squared distances to assigned centers.
  double inertia = 0.0;
  /// max_{v in C_i} ||c_i - x_v|| per cluster (the d_i^max of Eq. 13).
  std::vector<float> max_radius;
};

struct KMeansOptions {
  std::int64_t num_clusters = 8;
  int max_iters = 30;
  /// Relative inertia improvement below which iteration stops.
  double tol = 1e-4;
  /// Use kmeans++ seeding (true) or uniform seeding (false).
  bool kmeanspp = true;
};

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
      : slack_(2.0 * static_cast<double>(dim + 32) * 0x1p-24),
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

/// Clusters the rows of `points`. Empty clusters are re-seeded with the
/// farthest point from its center, so exactly `num_clusters` non-empty
/// clusters are returned whenever num_rows >= num_clusters. Assignment
/// passes skip every center that Elkan's bounds prove farther than the
/// point's best known one, so every result equals a full scan's bit for
/// bit.
KMeansResult KMeans(const Matrix& points, const KMeansOptions& opts,
                    Rng& rng);

}  // namespace e2gcl

#endif  // E2GCL_CLUSTER_KMEANS_H_
