#include "cluster/kmeans.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "parallel/parallel_for.h"
#include "tensor/check.h"

namespace e2gcl {

namespace {

// Row floor for the update-step partial sums: below this many points a
// single chunk reproduces the exact serial accumulation order.
constexpr std::int64_t kUpdateRowFloor = 512;

/// kmeans++ seeding: first center uniform, subsequent centers sampled
/// proportionally to squared distance from the nearest chosen center.
/// The per-point distance updates run in parallel (exact, element-wise);
/// the sampling scan stays serial so the RNG stream and the picked
/// centers are identical to the single-threaded implementation.
Matrix SeedPlusPlus(const Matrix& points, std::int64_t k, Rng& rng) {
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

}  // namespace

KMeansResult KMeans(const Matrix& points, const KMeansOptions& opts,
                    Rng& rng) {
  const std::int64_t n = points.rows();
  const std::int64_t d = points.cols();
  std::int64_t k = std::min<std::int64_t>(opts.num_clusters, n);
  E2GCL_CHECK(k > 0);
  TraceSpan kmeans_span("kmeans");
  static const Counter calls_counter = Counter::Get("kmeans.calls");
  static const Counter iters_counter = Counter::Get("kmeans.iterations");
  static const Counter reseeds_counter = Counter::Get("kmeans.reseeds");
  static const Counter distances_counter = Counter::Get("kmeans.distances");
  calls_counter.Increment();

  KMeansResult res;
  if (opts.kmeanspp) {
    res.centers = SeedPlusPlus(points, k, rng);
    distances_counter.Add(static_cast<std::uint64_t>((k - 1) * n));
  } else {
    auto seeds = rng.SampleWithoutReplacement(n, k);
    res.centers = GatherRows(points, seeds);
  }
  res.assignment.assign(n, 0);

  // Per-point squared distance to the assigned center, filled by the
  // parallel assignment scans; inertia is summed serially from it so the
  // total keeps the serial accumulation order.
  std::vector<float> point_d2(n, 0.0f);
  const std::int64_t assign_grain = GrainForCost(k * d);

  // Elkan's bounds (ICML 2003): per point, a lower bound on its distance
  // to every center; per center, an upper bound on its drift since the
  // last pass and a lower bound on its distance to every other center.
  // A center is scanned only when neither bound proves its kernel
  // distance strictly larger than the best one known for the point, so
  // the lowest-index argmin, and every distance kept, is the full
  // scan's. A full pass (the first, after a reseed, or with a
  // non-finite drift) scans every center and rebuilds the bounds.
  const KernelDistanceBounds bounds(d);
  std::vector<float> lower(static_cast<std::size_t>(n * k), 0.0f);
  std::vector<float> drift(k, 0.0f);
  std::vector<float> center_lower(static_cast<std::size_t>(k * k), 0.0f);
  Matrix bounded_centers;  // Centers the bounds were last taken against.
  bool full = true;

  // One assignment pass: assignment and point_d2 under res.centers.
  const std::int64_t assign_chunks = NumChunks(n, assign_grain);
  std::vector<std::int64_t> chunk_evals(assign_chunks, 0);
  auto assign = [&] {
    std::int64_t evals = 0;
    if (!full) {
      for (std::int64_t c = 0; c < k; ++c) {
        drift[c] = bounds.Upper(
            RowSquaredDistance(bounded_centers, c, res.centers, c));
        if (!std::isfinite(drift[c])) full = true;
      }
      evals += k;
    }
    if (!full) {
      for (std::int64_t b = 0; b < k; ++b) {
        for (std::int64_t c = b + 1; c < k; ++c) {
          const float lb = bounds.Lower(
              RowSquaredDistance(res.centers, b, res.centers, c));
          center_lower[b * k + c] = lb;
          center_lower[c * k + b] = lb;
        }
      }
      evals += k * (k - 1) / 2;
    }
    ParallelForChunks(
        0, n, assign_grain,
        [&](std::int64_t chunk, std::int64_t vb, std::int64_t ve) {
          std::int64_t count = 0;
          for (std::int64_t v = vb; v < ve; ++v) {
            float* lb = lower.data() + v * k;
            const std::int64_t a = res.assignment[v];
            const float da = RowSquaredDistance(points, v, res.centers, a);
            ++count;
            // `known` is the smallest distance computed so far (at center
            // `known_c`); `reach` bounds the true distance behind it.
            float known = da;
            std::int64_t known_c = a;
            float reach = bounds.Upper(da);
            // The full scan's loop over the scanned subset: ties break
            // toward the lower center index.
            float best = std::numeric_limits<float>::max();
            std::int64_t best_c = 0;
            for (std::int64_t c = 0; c < k; ++c) {
              float dist = da;
              if (c != a) {
                if (!full) {
                  lb[c] = KernelDistanceBounds::Drop(lb[c], drift[c]);
                  if (lb[c] > reach ||
                      center_lower[known_c * k + c] > 2.0f * reach) {
                    continue;
                  }
                }
                dist = RowSquaredDistance(points, v, res.centers, c);
                ++count;
                lb[c] = bounds.Lower(dist);
                if (dist < known) {
                  known = dist;
                  known_c = c;
                  reach = bounds.Upper(dist);
                }
              }
              if (dist < best) {
                best = dist;
                best_c = c;
              }
            }
            lb[a] = bounds.Lower(da);
            res.assignment[v] = best_c;
            point_d2[v] = best;
          }
          chunk_evals[chunk] = count;
        });
    for (std::int64_t count : chunk_evals) evals += count;
    distances_counter.Add(static_cast<std::uint64_t>(evals));
    bounded_centers = res.centers;
    full = !bounds.usable();
  };

  double prev_inertia = std::numeric_limits<double>::max();
  for (int iter = 0; iter < opts.max_iters; ++iter) {
    iters_counter.Increment();
    assign();
    double inertia = 0.0;
    for (std::int64_t v = 0; v < n; ++v) inertia += point_d2[v];
    res.inertia = inertia;

    // Update step: per-chunk partial sums and counts, reduced in chunk
    // order so center positions are independent of the thread count.
    Matrix sums(k, d);
    std::vector<std::int64_t> counts(k, 0);
    const std::int64_t update_grain = std::max(kUpdateRowFloor, GrainForCost(d));
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
        reseeds_counter.Increment();
        distances_counter.Add(static_cast<std::uint64_t>(n));
        full = true;
        // Re-seed an empty cluster with the point farthest from its center.
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

  // Final bookkeeping: clusters, radii, inertia under final centers.
  // The distance scan is parallel and reuses the bounds; the membership
  // lists are built by a serial pass so node order inside each cluster
  // stays ascending.
  assign();
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

}  // namespace e2gcl
