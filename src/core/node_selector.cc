#include "core/node_selector.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "parallel/parallel_for.h"
#include "tensor/check.h"

namespace e2gcl {

namespace {

// Row floor for chunked double-sum reductions: below this many nodes a
// single chunk keeps the exact serial summation order.
constexpr std::int64_t kSumRowFloor = 512;

/// Clustered distance of Eq. (13): exact within u's cluster, relaxed
/// (center distance + cluster radius) across clusters.
float ClusteredDistance(const Matrix& r, const KMeansResult& km,
                        std::int64_t v, std::int64_t u) {
  const std::int64_t cv = km.assignment[v];
  const std::int64_t cu = km.assignment[u];
  if (cv == cu) return RowDistance(r, v, r, u);
  return RowDistance(km.centers, cv, r, u) + km.max_radius[cv];
}

}  // namespace

double RepresentativityObjective(const Matrix& r, const KMeansResult& km,
                                 const std::vector<std::int64_t>& selected) {
  E2GCL_CHECK(!selected.empty());
  const std::int64_t n = r.rows();
  const std::int64_t grain = std::max(
      kSumRowFloor,
      GrainForCost(static_cast<std::int64_t>(selected.size()) * r.cols()));
  const std::int64_t chunks = NumChunks(n, grain);
  std::vector<double> partial(std::max<std::int64_t>(1, chunks), 0.0);
  ParallelForChunks(0, n, grain,
                    [&](std::int64_t chunk, std::int64_t vb, std::int64_t ve) {
                      double total = 0.0;
                      for (std::int64_t v = vb; v < ve; ++v) {
                        float best = std::numeric_limits<float>::max();
                        for (std::int64_t u : selected) {
                          best = std::min(best, ClusteredDistance(r, km, v, u));
                        }
                        total += best;
                      }
                      partial[chunk] = total;
                    });
  double total = 0.0;
  for (double p : partial) total += p;
  return total;
}

SelectionResult SelectCoreset(const Matrix& r, const SelectorConfig& config,
                              Rng& rng) {
  TraceSpan select_span("select_coreset");
  static const Counter rounds_counter = Counter::Get("selector.rounds");
  static const Counter candidates_counter =
      Counter::Get("selector.candidates_evaluated");
  static const Counter selected_counter =
      Counter::Get("selector.nodes_selected");
  static const Counter distances_counter =
      Counter::Get("selector.distances");
  const auto t0 = std::chrono::steady_clock::now();
  const std::int64_t n = r.rows();
  E2GCL_CHECK(config.budget > 0 && config.budget <= n);
  const std::int64_t k = config.budget;

  // --- Line 2: cluster on the raw aggregation. ---------------------------
  KMeansOptions km_opts;
  km_opts.num_clusters = std::min<std::int64_t>(config.num_clusters, n);
  km_opts.max_iters = config.kmeans_iters;
  KMeansResult km = KMeans(r, km_opts, rng);
  const std::int64_t nc = km.centers.rows();

  // Initial "unrepresented" distance: an upper bound on any achievable
  // clustered distance so first-pick gains are well defined.
  float center_spread = 0.0f;
  for (std::int64_t i = 0; i < nc; ++i) {
    for (std::int64_t j = i + 1; j < nc; ++j) {
      center_spread =
          std::max(center_spread, RowDistance(km.centers, i, km.centers, j));
    }
  }
  float max_radius = 0.0f;
  for (float rad : km.max_radius) max_radius = std::max(max_radius, rad);
  const float d_init = center_spread + 2.0f * max_radius + 1.0f;

  std::vector<float> best_dist(n, d_init);
  std::vector<char> selected_mask(n, 0);

  // cluster_max[j] = the largest best_dist over cluster j (-inf when
  // empty), kept exact: a commit recomputes it for its own cluster and
  // sets it to t for every cluster it relaxes to a threshold t below it.
  // A relaxed cluster j contributes max(0, best_dist[v] - t) terms only
  // when t < cluster_max[j]; t = ||c_j - R[u]|| + d_j^max is never below
  // d_j^max, so a cluster with cluster_max[j] <= d_j^max needs not even
  // its center distance. Skipped clusters hold only zero terms, and the
  // rest sum in their old order, so gains and picks are bit-identical
  // to visiting every member of every cluster.
  std::vector<float> cluster_max(nc);
  auto refresh_cluster_max = [&](std::int64_t j) {
    float m = -std::numeric_limits<float>::infinity();
    for (std::int64_t v : km.clusters[j]) m = std::max(m, best_dist[v]);
    cluster_max[j] = m;
  };
  for (std::int64_t j = 0; j < nc; ++j) refresh_cluster_max(j);

  // Effective per-round sample size (Theorem 3).
  std::int64_t ns = config.sample_size;
  if (config.auto_sample_size) {
    const double theory =
        std::ceil(static_cast<double>(n) / static_cast<double>(k) *
                  std::log(1.0 / std::max(config.approx_eps, 1e-6)));
    ns = std::min<std::int64_t>(
        config.sample_size,
        std::max<std::int64_t>(config.min_sample_size,
                               static_cast<std::int64_t>(theory)));
  }
  ns = std::max<std::int64_t>(1, std::min(ns, n));

  SelectionResult result;
  result.nodes.reserve(k);

  // Gain of adding candidate u =
  //   sum_v max(0, best_dist[v] - d_new(v, u)).
  while (static_cast<std::int64_t>(result.nodes.size()) < k) {
    // --- Line 4: sample candidates from the unselected pool. -------------
    std::vector<std::int64_t> pool;
    pool.reserve(ns);
    std::int64_t guard = 0;
    while (static_cast<std::int64_t>(pool.size()) < ns && guard++ < ns * 30) {
      const std::int64_t c = rng.UniformInt(n);
      if (!selected_mask[c]) pool.push_back(c);
    }
    if (pool.empty()) {
      for (std::int64_t v = 0; v < n && static_cast<std::int64_t>(pool.size()) < ns;
           ++v) {
        if (!selected_mask[v]) pool.push_back(v);
      }
    }
    if (pool.empty()) break;  // Everything selected.
    std::sort(pool.begin(), pool.end());
    pool.erase(std::unique(pool.begin(), pool.end()), pool.end());
    rounds_counter.Increment();
    candidates_counter.Add(pool.size());

    // --- Lines 5-8: pick the candidate with maximal marginal gain. -------
    // Candidate gains are independent (each reads best_dist and
    // cluster_max, none writes them), so they are computed in parallel —
    // these are the Thm. 1 pairwise raw-aggregated-distance loops, the
    // selector's hot path. Each candidate's own summation order is
    // unchanged, and the argmax runs serially in pool order, so the pick
    // matches the serial code exactly at any thread count.
    const std::int64_t pool_size = static_cast<std::int64_t>(pool.size());
    std::vector<double> gains(pool_size, 0.0);
    std::vector<std::int64_t> evals(pool_size, 0);
    ParallelFor(0, pool_size, 1, [&](std::int64_t pb, std::int64_t pe) {
      for (std::int64_t pi = pb; pi < pe; ++pi) {
        const std::int64_t u = pool[pi];
        const std::int64_t cu = km.assignment[u];
        const auto& cu_members = km.clusters[cu];
        std::int64_t count = static_cast<std::int64_t>(cu_members.size());
        double gain = 0.0;
        // Exact distances within u's cluster.
        for (std::int64_t v : cu_members) {
          const float d = RowDistance(r, v, r, u);
          if (d < best_dist[v]) gain += best_dist[v] - d;
        }
        // Relaxed distances for all other clusters: threshold per cluster.
        for (std::int64_t j = 0; j < nc; ++j) {
          if (j == cu || cluster_max[j] <= km.max_radius[j]) continue;
          const float t = RowDistance(km.centers, j, r, u) + km.max_radius[j];
          ++count;
          if (t >= cluster_max[j]) continue;
          for (std::int64_t v : km.clusters[j]) {
            if (best_dist[v] > t) gain += best_dist[v] - t;
          }
        }
        gains[pi] = gain;
        evals[pi] = count;
      }
    });
    double best_gain = -1.0;
    std::int64_t best_u = pool.front();
    std::int64_t round_evals = 0;
    for (std::int64_t pi = 0; pi < pool_size; ++pi) {
      if (gains[pi] > best_gain) {
        best_gain = gains[pi];
        best_u = pool[pi];
      }
      round_evals += evals[pi];
    }

    // --- Line 9: commit and update best distances. ------------------------
    selected_mask[best_u] = 1;
    result.nodes.push_back(best_u);
    selected_counter.Increment();
    const std::int64_t cu = km.assignment[best_u];
    // Exact element-wise min updates: each v is owned by one chunk.
    const auto& cu_members = km.clusters[cu];
    const std::int64_t n_members = static_cast<std::int64_t>(cu_members.size());
    ParallelFor(0, n_members, GrainForCost(r.cols()),
                [&](std::int64_t mb, std::int64_t me) {
                  for (std::int64_t mi = mb; mi < me; ++mi) {
                    const std::int64_t v = cu_members[mi];
                    best_dist[v] =
                        std::min(best_dist[v], RowDistance(r, v, r, best_u));
                  }
                });
    round_evals += n_members;
    refresh_cluster_max(cu);
    for (std::int64_t j = 0; j < nc; ++j) {
      if (j == cu || cluster_max[j] <= km.max_radius[j]) continue;
      const float t =
          RowDistance(km.centers, j, r, best_u) + km.max_radius[j];
      ++round_evals;
      if (t >= cluster_max[j]) continue;
      for (std::int64_t v : km.clusters[j]) {
        best_dist[v] = std::min(best_dist[v], t);
      }
      cluster_max[j] = t;
    }
    distances_counter.Add(static_cast<std::uint64_t>(round_evals));
  }

  // --- Line 10: representation weights lambda. ----------------------------
  // Each node is assigned to its nearest selected node under the
  // clustered metric. To keep this O(n * (|Vs ∩ cluster| + nc)) instead
  // of O(n * |Vs|), precompute per cluster the best relaxed
  // representative.
  const std::int64_t ks = static_cast<std::int64_t>(result.nodes.size());
  result.weights.assign(ks, 0.0f);
  std::vector<std::int64_t> sel_index(n, -1);
  for (std::int64_t i = 0; i < ks; ++i) sel_index[result.nodes[i]] = i;

  // Group selected nodes by cluster.
  std::vector<std::vector<std::int64_t>> sel_by_cluster(nc);
  for (std::int64_t i = 0; i < ks; ++i) {
    sel_by_cluster[km.assignment[result.nodes[i]]].push_back(result.nodes[i]);
  }
  // Best relaxed representative per *target* cluster j: the selected u
  // minimizing ||c_j - R[u]|| (the +d_j^max offset is common).
  std::vector<std::int64_t> best_cross(nc, -1);
  std::vector<float> best_cross_dist(nc, std::numeric_limits<float>::max());
  // Each target cluster j scans the selected set independently.
  ParallelFor(0, nc, 1, [&](std::int64_t jb, std::int64_t je) {
    for (std::int64_t j = jb; j < je; ++j) {
      for (std::int64_t u : result.nodes) {
        if (km.assignment[u] == j) continue;  // Eq. 13: u2 outside C_i.
        const float d = RowDistance(km.centers, j, r, u);
        if (d < best_cross_dist[j]) {
          best_cross_dist[j] = d;
          best_cross[j] = u;
        }
      }
    }
  });
  // Per-chunk weight/objective partials, reduced in chunk order. Weight
  // increments are +1.0f adds, which are exact under any regrouping, so
  // the weights themselves are bit-identical to the serial pass.
  const std::int64_t w_grain = std::max(kSumRowFloor, GrainForCost(r.cols()));
  const std::int64_t w_chunks = NumChunks(n, w_grain);
  std::vector<std::vector<float>> weight_parts(
      std::max<std::int64_t>(1, w_chunks));
  std::vector<double> objective_parts(std::max<std::int64_t>(1, w_chunks),
                                      0.0);
  ParallelForChunks(
      0, n, w_grain, [&](std::int64_t chunk, std::int64_t vb, std::int64_t ve) {
        std::vector<float> wpart(ks, 0.0f);
        double objective = 0.0;
        for (std::int64_t v = vb; v < ve; ++v) {
          const std::int64_t cv = km.assignment[v];
          float best = std::numeric_limits<float>::max();
          std::int64_t rep = -1;
          for (std::int64_t u : sel_by_cluster[cv]) {
            const float d = RowDistance(r, v, r, u);
            if (d < best) {
              best = d;
              rep = u;
            }
          }
          if (best_cross[cv] >= 0) {
            const float d = best_cross_dist[cv] + km.max_radius[cv];
            if (d < best) {
              best = d;
              rep = best_cross[cv];
            }
          }
          if (rep < 0) rep = result.nodes.front();
          wpart[sel_index[rep]] += 1.0f;
          objective += best == std::numeric_limits<float>::max() ? 0.0 : best;
        }
        weight_parts[chunk] = std::move(wpart);
        objective_parts[chunk] = objective;
      });
  double objective = 0.0;
  for (std::int64_t chunk = 0; chunk < w_chunks; ++chunk) {
    for (std::int64_t i = 0; i < ks; ++i) {
      result.weights[i] += weight_parts[chunk][i];
    }
    objective += objective_parts[chunk];
  }
  result.representativity = objective;
  result.seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - t0)
                       .count();
  return result;
}

std::vector<std::int64_t> ApportionBudget(
    std::int64_t total, const std::vector<std::int64_t>& shard_sizes) {
  const std::int64_t s = static_cast<std::int64_t>(shard_sizes.size());
  std::vector<std::int64_t> parts(s, 0);
  std::int64_t n = 0;
  for (std::int64_t size : shard_sizes) {
    E2GCL_CHECK(size >= 0);
    n += size;
  }
  std::int64_t k = std::min(total, n);
  if (k <= 0 || n == 0) return parts;

  // Floors first, then distribute the leftover seats by descending
  // fractional remainder, ties toward the lower shard id. Floors are
  // capped by shard size, so leftover seats always fit somewhere.
  std::vector<double> remainder(s, 0.0);
  std::int64_t assigned = 0;
  for (std::int64_t i = 0; i < s; ++i) {
    const double exact = static_cast<double>(k) *
                         static_cast<double>(shard_sizes[i]) /
                         static_cast<double>(n);
    parts[i] = std::min(static_cast<std::int64_t>(exact), shard_sizes[i]);
    remainder[i] = exact - static_cast<double>(parts[i]);
    assigned += parts[i];
  }
  std::vector<std::int64_t> order(s);
  for (std::int64_t i = 0; i < s; ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::int64_t a, std::int64_t b) {
                     return remainder[a] > remainder[b];
                   });
  std::int64_t at = 0;
  while (assigned < k) {
    const std::int64_t i = order[at % s];
    at += 1;
    if (parts[i] < shard_sizes[i]) {
      parts[i] += 1;
      assigned += 1;
    }
  }
  return parts;
}

SelectionResult MergeShardSelections(
    const std::vector<SelectionResult>& per_shard,
    const std::vector<std::vector<std::int64_t>>& shard_core_nodes) {
  E2GCL_CHECK(per_shard.size() == shard_core_nodes.size());
  SelectionResult merged;
  double weighted_obj = 0.0;
  std::int64_t total_core = 0;
  for (std::size_t s = 0; s < per_shard.size(); ++s) {
    const SelectionResult& r = per_shard[s];
    const std::vector<std::int64_t>& core = shard_core_nodes[s];
    E2GCL_CHECK(r.nodes.size() == r.weights.size());
    for (std::size_t i = 0; i < r.nodes.size(); ++i) {
      const std::int64_t local = r.nodes[i];
      E2GCL_CHECK(local >= 0 &&
                  local < static_cast<std::int64_t>(core.size()));
      merged.nodes.push_back(core[local]);
      merged.weights.push_back(r.weights[i]);
    }
    weighted_obj +=
        r.representativity * static_cast<double>(core.size());
    total_core += static_cast<std::int64_t>(core.size());
    merged.seconds += r.seconds;
  }
  merged.representativity =
      total_core > 0 ? weighted_obj / static_cast<double>(total_core) : 0.0;
  return merged;
}

}  // namespace e2gcl
