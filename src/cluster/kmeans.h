#ifndef E2GCL_CLUSTER_KMEANS_H_
#define E2GCL_CLUSTER_KMEANS_H_

#include <cstdint>
#include <vector>

#include "tensor/kernel_bounds.h"
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
