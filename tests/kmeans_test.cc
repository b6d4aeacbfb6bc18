#include "cluster/kmeans.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "obs/metrics.h"
#include "parallel/parallel_for.h"
#include "parallel/thread_pool.h"
#include "test_util.h"

namespace e2gcl {
namespace {

// --- Reference: the full-scan KMeans, kept verbatim apart from its
// counters (it returns its iteration count instead). KMeans must match
// it bit for bit.

void ReferenceNearestCenter(const Matrix& points, const Matrix& centers,
                            std::int64_t v, std::int64_t k, float* best,
                            std::int64_t* best_c) {
  *best = std::numeric_limits<float>::max();
  *best_c = 0;
  for (std::int64_t c = 0; c < k; ++c) {
    const float dist = RowSquaredDistance(points, v, centers, c);
    if (dist < *best) {
      *best = dist;
      *best_c = c;
    }
  }
}

Matrix ReferenceSeedPlusPlus(const Matrix& points, std::int64_t k, Rng& rng) {
  const std::int64_t n = points.rows();
  Matrix centers(k, points.cols());
  std::vector<float> d2(n, std::numeric_limits<float>::max());
  std::int64_t first = rng.UniformInt(n);
  std::copy(points.RowPtr(first), points.RowPtr(first) + points.cols(),
            centers.RowPtr(0));
  const std::int64_t grain = GrainForCost(points.cols());
  for (std::int64_t c = 1; c < k; ++c) {
    ParallelFor(0, n, grain, [&](std::int64_t vb, std::int64_t ve) {
      for (std::int64_t v = vb; v < ve; ++v) {
        const float d = RowSquaredDistance(points, v, centers, c - 1);
        d2[v] = std::min(d2[v], d);
      }
    });
    double total = 0.0;
    for (std::int64_t v = 0; v < n; ++v) total += d2[v];
    std::int64_t pick = 0;
    if (total > 0.0) {
      double u = static_cast<double>(rng.Uniform()) * total;
      for (std::int64_t v = 0; v < n; ++v) {
        u -= d2[v];
        if (u <= 0.0) {
          pick = v;
          break;
        }
      }
    } else {
      pick = rng.UniformInt(n);
    }
    std::copy(points.RowPtr(pick), points.RowPtr(pick) + points.cols(),
              centers.RowPtr(c));
  }
  return centers;
}

KMeansResult ReferenceKMeans(const Matrix& points, const KMeansOptions& opts,
                             Rng& rng, std::int64_t* iterations) {
  constexpr std::int64_t kUpdateRowFloor = 512;
  const std::int64_t n = points.rows();
  const std::int64_t d = points.cols();
  std::int64_t k = std::min<std::int64_t>(opts.num_clusters, n);
  *iterations = 0;
  KMeansResult res;
  if (opts.kmeanspp) {
    res.centers = ReferenceSeedPlusPlus(points, k, rng);
  } else {
    auto seeds = rng.SampleWithoutReplacement(n, k);
    res.centers = GatherRows(points, seeds);
  }
  res.assignment.assign(n, 0);
  std::vector<float> point_d2(n, 0.0f);
  const std::int64_t assign_grain = GrainForCost(k * d);

  double prev_inertia = std::numeric_limits<double>::max();
  for (int iter = 0; iter < opts.max_iters; ++iter) {
    *iterations += 1;
    ParallelFor(0, n, assign_grain, [&](std::int64_t vb, std::int64_t ve) {
      for (std::int64_t v = vb; v < ve; ++v) {
        float best;
        std::int64_t best_c;
        ReferenceNearestCenter(points, res.centers, v, k, &best, &best_c);
        res.assignment[v] = best_c;
        point_d2[v] = best;
      }
    });
    double inertia = 0.0;
    for (std::int64_t v = 0; v < n; ++v) inertia += point_d2[v];
    res.inertia = inertia;

    Matrix sums(k, d);
    std::vector<std::int64_t> counts(k, 0);
    const std::int64_t update_grain =
        std::max(kUpdateRowFloor, GrainForCost(d));
    const std::int64_t chunks = NumChunks(n, update_grain);
    if (chunks <= 1) {
      for (std::int64_t v = 0; v < n; ++v) {
        const std::int64_t c = res.assignment[v];
        counts[c] += 1;
        const float* row = points.RowPtr(v);
        float* srow = sums.RowPtr(c);
        for (std::int64_t j = 0; j < d; ++j) srow[j] += row[j];
      }
    } else {
      std::vector<Matrix> sum_parts(chunks);
      std::vector<std::vector<std::int64_t>> count_parts(chunks);
      ParallelForChunks(
          0, n, update_grain,
          [&](std::int64_t chunk, std::int64_t vb, std::int64_t ve) {
            Matrix part(k, d);
            std::vector<std::int64_t> cnt(k, 0);
            for (std::int64_t v = vb; v < ve; ++v) {
              const std::int64_t c = res.assignment[v];
              cnt[c] += 1;
              const float* row = points.RowPtr(v);
              float* srow = part.RowPtr(c);
              for (std::int64_t j = 0; j < d; ++j) srow[j] += row[j];
            }
            sum_parts[chunk] = std::move(part);
            count_parts[chunk] = std::move(cnt);
          });
      for (std::int64_t chunk = 0; chunk < chunks; ++chunk) {
        AddInPlace(sums, sum_parts[chunk]);
        for (std::int64_t c = 0; c < k; ++c) counts[c] += count_parts[chunk][c];
      }
    }
    for (std::int64_t c = 0; c < k; ++c) {
      if (counts[c] == 0) {
        float worst = -1.0f;
        std::int64_t worst_v = 0;
        for (std::int64_t v = 0; v < n; ++v) {
          const float dist =
              RowSquaredDistance(points, v, res.centers, res.assignment[v]);
          if (dist > worst) {
            worst = dist;
            worst_v = v;
          }
        }
        std::copy(points.RowPtr(worst_v), points.RowPtr(worst_v) + d,
                  res.centers.RowPtr(c));
        res.assignment[worst_v] = c;
        continue;
      }
      const float inv = 1.0f / static_cast<float>(counts[c]);
      float* crow = res.centers.RowPtr(c);
      const float* srow = sums.RowPtr(c);
      for (std::int64_t j = 0; j < d; ++j) crow[j] = srow[j] * inv;
    }

    if (prev_inertia - inertia <= opts.tol * std::max(prev_inertia, 1e-12)) {
      break;
    }
    prev_inertia = inertia;
  }

  ParallelFor(0, n, assign_grain, [&](std::int64_t vb, std::int64_t ve) {
    for (std::int64_t v = vb; v < ve; ++v) {
      float best;
      std::int64_t best_c;
      ReferenceNearestCenter(points, res.centers, v, k, &best, &best_c);
      res.assignment[v] = best_c;
      point_d2[v] = best;
    }
  });
  res.clusters.assign(k, {});
  res.max_radius.assign(k, 0.0f);
  double inertia = 0.0;
  for (std::int64_t v = 0; v < n; ++v) {
    const std::int64_t c = res.assignment[v];
    res.clusters[c].push_back(v);
    inertia += point_d2[v];
    res.max_radius[c] = std::max(res.max_radius[c], std::sqrt(point_d2[v]));
  }
  res.inertia = inertia;
  return res;
}

/// Three well-separated Gaussian blobs.
Matrix Blobs(std::int64_t per_blob, std::uint64_t seed) {
  Rng rng(seed);
  Matrix m(3 * per_blob, 2);
  const float centers[3][2] = {{0, 0}, {10, 0}, {0, 10}};
  for (std::int64_t b = 0; b < 3; ++b) {
    for (std::int64_t i = 0; i < per_blob; ++i) {
      m(b * per_blob + i, 0) = centers[b][0] + rng.Normal(0, 0.5f);
      m(b * per_blob + i, 1) = centers[b][1] + rng.Normal(0, 0.5f);
    }
  }
  return m;
}

TEST(KMeans, RecoversSeparatedBlobs) {
  Matrix pts = Blobs(50, 1);
  Rng rng(2);
  KMeansOptions opts;
  opts.num_clusters = 3;
  KMeansResult res = KMeans(pts, opts, rng);
  // Each blob must map to a single cluster.
  for (std::int64_t b = 0; b < 3; ++b) {
    const std::int64_t c0 = res.assignment[b * 50];
    for (std::int64_t i = 1; i < 50; ++i) {
      EXPECT_EQ(res.assignment[b * 50 + i], c0) << "blob " << b;
    }
  }
  EXPECT_LT(res.inertia, 150.0);  // ~0.5 var * 2 dims * 150 points
}

TEST(KMeans, ClustersPartitionInput) {
  Matrix pts = Blobs(30, 3);
  Rng rng(4);
  KMeansOptions opts;
  opts.num_clusters = 5;
  KMeansResult res = KMeans(pts, opts, rng);
  std::int64_t total = 0;
  for (const auto& c : res.clusters) total += c.size();
  EXPECT_EQ(total, pts.rows());
  for (std::int64_t c = 0; c < 5; ++c) {
    for (std::int64_t v : res.clusters[c]) {
      EXPECT_EQ(res.assignment[v], c);
    }
  }
}

TEST(KMeans, MaxRadiusBoundsMembers) {
  Matrix pts = Blobs(40, 5);
  Rng rng(6);
  KMeansOptions opts;
  opts.num_clusters = 4;
  KMeansResult res = KMeans(pts, opts, rng);
  for (std::int64_t c = 0; c < res.centers.rows(); ++c) {
    for (std::int64_t v : res.clusters[c]) {
      EXPECT_LE(RowDistance(pts, v, res.centers, c),
                res.max_radius[c] + 1e-4f);
    }
  }
}

TEST(KMeans, FewerPointsThanClusters) {
  Matrix pts = Matrix::FromRows({{0, 0}, {5, 5}});
  Rng rng(7);
  KMeansOptions opts;
  opts.num_clusters = 10;
  KMeansResult res = KMeans(pts, opts, rng);
  EXPECT_EQ(res.centers.rows(), 2);
  EXPECT_EQ(res.clusters.size(), 2u);
}

TEST(KMeans, SingletonInput) {
  Matrix pts = Matrix::FromRows({{1, 2, 3}});
  Rng rng(8);
  KMeansOptions opts;
  opts.num_clusters = 3;
  KMeansResult res = KMeans(pts, opts, rng);
  EXPECT_EQ(res.centers.rows(), 1);
  EXPECT_EQ(res.assignment[0], 0);
  EXPECT_NEAR(res.inertia, 0.0, 1e-9);
}

TEST(KMeans, NoEmptyClustersOnDuplicatePoints) {
  // 20 identical points, 4 clusters: re-seeding must not crash, and all
  // points must be assigned.
  Matrix pts(20, 2, 1.0f);
  Rng rng(9);
  KMeansOptions opts;
  opts.num_clusters = 4;
  KMeansResult res = KMeans(pts, opts, rng);
  std::int64_t total = 0;
  for (const auto& c : res.clusters) total += c.size();
  EXPECT_EQ(total, 20);
}

TEST(KMeans, MoreClustersLowerInertia) {
  Matrix pts = Blobs(60, 10);
  Rng rng_a(11), rng_b(11);
  KMeansOptions few, many;
  few.num_clusters = 2;
  many.num_clusters = 8;
  const double i_few = KMeans(pts, few, rng_a).inertia;
  const double i_many = KMeans(pts, many, rng_b).inertia;
  EXPECT_LT(i_many, i_few);
}

TEST(KMeans, UniformSeedingAlsoWorks) {
  Matrix pts = Blobs(40, 12);
  Rng rng(13);
  KMeansOptions opts;
  opts.num_clusters = 3;
  opts.kmeanspp = false;
  KMeansResult res = KMeans(pts, opts, rng);
  EXPECT_EQ(res.centers.rows(), 3);
  // Uniform seeding has no kmeans++ guarantee; just require a sane
  // partition and that kmeans++ seeding is at least as good.
  EXPECT_TRUE(std::isfinite(res.inertia));
  Rng rng_pp(13);
  KMeansOptions pp = opts;
  pp.kmeanspp = true;
  EXPECT_LE(KMeans(pts, pp, rng_pp).inertia, res.inertia + 1e-6);
}

// Parameterized: inertia decreases (weakly) as k grows over a sweep.
class KMeansSweep : public ::testing::TestWithParam<int> {};

TEST_P(KMeansSweep, InertiaFiniteAndPartitionComplete) {
  const int k = GetParam();
  Matrix pts = Blobs(30, 17);
  Rng rng(k);
  KMeansOptions opts;
  opts.num_clusters = k;
  KMeansResult res = KMeans(pts, opts, rng);
  EXPECT_TRUE(std::isfinite(res.inertia));
  std::int64_t total = 0;
  for (const auto& c : res.clusters) total += c.size();
  EXPECT_EQ(total, pts.rows());
}

INSTANTIATE_TEST_SUITE_P(Ks, KMeansSweep, ::testing::Values(1, 2, 3, 5, 9, 16));

// --- Bounded KMeans against the full-scan reference. --------------------

std::uint64_t CounterValue(const char* name) {
  return MetricsRegistry::Get().Snapshot().counter(name);
}

/// Gaussian blobs in `dim` dimensions around `num_blobs` random centers.
Matrix WideBlobs(std::int64_t n, std::int64_t dim, std::int64_t num_blobs,
                 float spread, std::uint64_t seed) {
  Rng rng(seed);
  Matrix centers(num_blobs, dim);
  for (std::int64_t i = 0; i < centers.size(); ++i) {
    centers.data()[i] = rng.Normal(0, 4.0f);
  }
  Matrix m(n, dim);
  for (std::int64_t v = 0; v < n; ++v) {
    const std::int64_t b = rng.UniformInt(num_blobs);
    for (std::int64_t j = 0; j < dim; ++j) {
      m(v, j) = centers(b, j) + rng.Normal(0, spread);
    }
  }
  return m;
}

/// Small-integer lattice points, each repeated: exact duplicates and
/// many points equidistant from several centers.
Matrix LatticeTies(std::int64_t n, std::int64_t dim, std::uint64_t seed) {
  Rng rng(seed);
  Matrix m(n, dim);
  for (std::int64_t v = 0; v < n; v += 2) {
    for (std::int64_t j = 0; j < dim; ++j) {
      m(v, j) = static_cast<float>(rng.UniformInt(3));
      if (v + 1 < n) m(v + 1, j) = m(v, j);
    }
  }
  return m;
}

template <typename T>
bool SameBytes(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

/// Runs KMeans and the reference from equal RNG states at 1, 2 and 7
/// threads and requires identical bytes everywhere, the same iteration
/// count, and the same RNG state afterwards. Returns the kernel distance
/// evaluations KMeans counted at one thread.
std::uint64_t ExpectMatchesReference(const Matrix& pts,
                                     const KMeansOptions& opts,
                                     std::uint64_t seed) {
  Rng ref_rng(seed);
  std::int64_t ref_iters = 0;
  const KMeansResult ref = ReferenceKMeans(pts, opts, ref_rng, &ref_iters);
  const std::int64_t ref_next_draw = ref_rng.UniformInt(1 << 30);
  std::uint64_t distances = 0;
  for (const int threads : {1, 2, 7}) {
    SetNumThreads(threads);
    Rng rng(seed);
    const std::uint64_t iters_before = CounterValue("kmeans.iterations");
    const std::uint64_t dist_before = CounterValue("kmeans.distances");
    const KMeansResult res = KMeans(pts, opts, rng);
    if (threads == 1) distances = CounterValue("kmeans.distances") - dist_before;
    SCOPED_TRACE(::testing::Message() << "threads " << threads << " n "
                                      << pts.rows() << " dim " << pts.cols()
                                      << " k " << opts.num_clusters);
    EXPECT_EQ(res.assignment, ref.assignment);
    EXPECT_EQ(res.clusters, ref.clusters);
    EXPECT_TRUE(res.centers.rows() == ref.centers.rows() &&
                std::memcmp(res.centers.data(), ref.centers.data(),
                            sizeof(float) * ref.centers.size()) == 0);
    EXPECT_TRUE(SameBytes(res.max_radius, ref.max_radius));
    EXPECT_EQ(std::memcmp(&res.inertia, &ref.inertia, sizeof(double)), 0);
    EXPECT_EQ(CounterValue("kmeans.iterations") - iters_before,
              static_cast<std::uint64_t>(ref_iters));
    EXPECT_EQ(rng.UniformInt(1 << 30), ref_next_draw);
  }
  SetNumThreads(1);
  return distances;
}

KMeansOptions Opts(std::int64_t k, bool kmeanspp = true, int max_iters = 30,
                   double tol = 1e-4) {
  KMeansOptions opts;
  opts.num_clusters = k;
  opts.kmeanspp = kmeanspp;
  opts.max_iters = max_iters;
  opts.tol = tol;
  return opts;
}

TEST(KMeansExact, BlobsMatchFullScanAtEveryWidth) {
  for (const std::int64_t dim : {1, 7, 33, 128}) {
    const Matrix pts = WideBlobs(700, dim, 12, 1.0f, 20 + dim);
    ExpectMatchesReference(pts, Opts(16), 3);
    ExpectMatchesReference(pts, Opts(16, /*kmeanspp=*/false), 4);
  }
}

TEST(KMeansExact, LongRunsMatchFullScan) {
  // tol 0: iterate until the inertia stops falling, so most passes are
  // bounded ones over nearly settled centers.
  const Matrix pts = WideBlobs(600, 33, 20, 2.5f, 5);
  ExpectMatchesReference(pts, Opts(24, true, 60, 0.0), 6);
  ExpectMatchesReference(pts, Opts(24, false, 60, 0.0), 7);
}

TEST(KMeansExact, DuplicatesAndEquidistantPointsMatchFullScan) {
  for (const std::int64_t dim : {1, 7, 33}) {
    const Matrix pts = LatticeTies(400, dim, 30 + dim);
    ExpectMatchesReference(pts, Opts(9, true, 40, 0.0), 8);
    ExpectMatchesReference(pts, Opts(9, false, 40, 0.0), 9);
  }
}

TEST(KMeansExact, ReseedMatchesFullScan) {
  // 40 copies of one point and 8 distinct ones: kmeans++ runs out of
  // distinct points, so clusters come up empty and get re-seeded.
  Matrix pts(48, 3, 1.0f);
  for (std::int64_t v = 40; v < 48; ++v) {
    for (std::int64_t j = 0; j < 3; ++j) {
      pts(v, j) = static_cast<float>(v * (j + 1) % 7);
    }
  }
  const std::uint64_t reseeds_before = CounterValue("kmeans.reseeds");
  ExpectMatchesReference(pts, Opts(12, true, 20, 0.0), 10);
  ExpectMatchesReference(pts, Opts(12, false, 20, 0.0), 11);
  EXPECT_GT(CounterValue("kmeans.reseeds"), reseeds_before);
}

TEST(KMeansExact, DegenerateClusterCountsMatchFullScan) {
  const Matrix pts = WideBlobs(50, 7, 4, 1.0f, 12);
  ExpectMatchesReference(pts, Opts(1), 13);           // k = 1
  ExpectMatchesReference(pts, Opts(50), 14);          // k = n
  ExpectMatchesReference(pts, Opts(80, false), 15);   // k > n
}

TEST(KMeansExact, BoundsSkipMostDistancesOnSeparatedBlobs) {
  const std::int64_t n = 2000;
  const std::int64_t k = 24;
  const Matrix pts = WideBlobs(n, 64, k, 0.5f, 16);
  const KMeansOptions opts = Opts(k, true, 30, 0.0);
  Rng rng(17);
  std::int64_t iters = 0;
  ReferenceKMeans(pts, opts, rng, &iters);
  const std::uint64_t distances = ExpectMatchesReference(pts, opts, 17);
  // Full scans: seeding (k - 1) n, then n k per pass (iters + the final
  // bookkeeping pass).
  const std::uint64_t full =
      static_cast<std::uint64_t>((k - 1) * n + (iters + 1) * n * k);
  EXPECT_LT(distances, full / 2);
}

/// The exact distance between two float rows, in long double: the float
/// differences are exact there, and the rounding of the sum of squares
/// is far below a float ulp.
long double ExactDistance(const float* a, const float* b, std::int64_t dim) {
  long double sum = 0.0L;
  for (std::int64_t j = 0; j < dim; ++j) {
    const long double diff =
        static_cast<long double>(a[j]) - static_cast<long double>(b[j]);
    sum += diff * diff;
  }
  return std::sqrt(sum);
}

TEST(KernelDistanceBounds, BracketTheExactDistance) {
  // Rows that share most of their magnitude stress the kernel's
  // cancellation; tiny rows its subnormal squares.
  Rng rng(18);
  for (const std::int64_t dim : {1, 2, 7, 33, 128, 1000}) {
    const KernelDistanceBounds bounds(dim);
    ASSERT_TRUE(bounds.usable());
    for (int trial = 0; trial < 300; ++trial) {
      const float base = trial % 3 == 0 ? 1e4f : (trial % 3 == 1 ? 1.0f : 1e-22f);
      const float step = trial % 2 == 0 ? 1e-3f : 1.0f;
      Matrix rows(2, dim);
      for (std::int64_t j = 0; j < dim; ++j) {
        const float x = base * rng.Normal(0, 1.0f);
        rows(0, j) = x;
        rows(1, j) = x + base * step * rng.Normal(0, 1.0f);
      }
      const float d2 = RowSquaredDistance(rows, 0, rows, 1);
      const long double exact = ExactDistance(rows.RowPtr(0), rows.RowPtr(1), dim);
      const long double margin = exact * 0x1p-50L;
      SCOPED_TRACE(::testing::Message() << "dim " << dim << " trial " << trial);
      EXPECT_LE(static_cast<long double>(bounds.Lower(d2)), exact + margin);
      EXPECT_GE(static_cast<long double>(bounds.Upper(d2)), exact - margin);
      // Drop keeps a lower bound below the exact difference.
      const float lower = bounds.Lower(d2);
      const float drift = lower * 0.75f;
      EXPECT_LE(static_cast<long double>(KernelDistanceBounds::Drop(lower, drift)),
                static_cast<long double>(lower) - static_cast<long double>(drift));
    }
  }
  const KernelDistanceBounds bounds(16);
  EXPECT_EQ(bounds.Lower(std::numeric_limits<float>::infinity()), 0.0f);
  EXPECT_EQ(bounds.Lower(std::numeric_limits<float>::quiet_NaN()), 0.0f);
  EXPECT_TRUE(std::isnan(bounds.Upper(std::numeric_limits<float>::quiet_NaN())));
  EXPECT_EQ(KernelDistanceBounds::Drop(1.0f, std::numeric_limits<float>::quiet_NaN()), 0.0f);
  EXPECT_EQ(KernelDistanceBounds::Drop(1.0f, 2.0f), 0.0f);
}

}  // namespace
}  // namespace e2gcl
