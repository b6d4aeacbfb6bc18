#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "core/node_selector.h"
#include "core/raw_aggregation.h"
#include "graph/generators.h"
#include "obs/metrics.h"
#include "parallel/parallel_for.h"
#include "parallel/thread_pool.h"
#include "tensor/check.h"
#include "test_util.h"

namespace e2gcl {
namespace {

using testing_util::SmallGraph;

TEST(RawAggregation, ZeroLayersIsIdentityOnFeatures) {
  Graph g = SmallGraph();
  Matrix r = RawAggregation(g, 0);
  EXPECT_LT(MaxAbsDiff(r, g.features), 1e-7f);
}

TEST(RawAggregation, MatchesDenseMatrixPower) {
  Graph g = SmallGraph();
  Matrix an = NormalizedAdjacency(g).ToDense();
  Matrix expected = MatMul(an, MatMul(an, g.features));
  EXPECT_LT(MaxAbsDiff(RawAggregation(g, 2), expected), 1e-5f);
}

TEST(RawAggregation, SmoothsTowardNeighbors) {
  // After aggregation, same-class nodes (connected triangle) are closer
  // than before relative to cross-class pairs.
  Graph g = SmallGraph();
  Matrix r = RawAggregation(g, 2);
  const float same = RowDistance(r, 0, r, 1);
  const float cross = RowDistance(r, 0, r, 4);
  EXPECT_LT(same, cross);
}

SelectorConfig TestConfig(std::int64_t budget) {
  SelectorConfig cfg;
  cfg.budget = budget;
  cfg.num_clusters = 8;
  cfg.sample_size = 64;
  cfg.auto_sample_size = false;
  return cfg;
}

// --- Reference: the greedy that visits every member of every cluster,
// kept verbatim apart from its counters and timer. It also counts the
// kernel distances a selector with exact cluster caps computes in its
// rounds, from maxima it rescans every round. SelectCoreset must match
// its nodes, weight bytes and representativity, and count exactly that.

constexpr std::int64_t kSumRowFloor = 512;

SelectionResult ReferenceSelectCoreset(const Matrix& r,
                                       const SelectorConfig& config, Rng& rng,
                                       std::uint64_t* capped_distances) {
  *capped_distances = 0;
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

  // Scratch: gain of adding candidate u =
  //   sum_v max(0, best_dist[v] - d_new(v, u)).
  std::vector<float> center_dist(nc);
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
    // The distances the cluster caps leave: every member of the
    // candidate's cluster, and one center distance per other cluster
    // whose largest best_dist exceeds its radius.
    std::vector<float> cluster_max(nc, -std::numeric_limits<float>::infinity());
    for (std::int64_t v = 0; v < n; ++v) {
      cluster_max[km.assignment[v]] =
          std::max(cluster_max[km.assignment[v]], best_dist[v]);
    }
    auto capped_per_node = [&](std::int64_t u) {
      std::uint64_t count = km.clusters[km.assignment[u]].size();
      for (std::int64_t j = 0; j < nc; ++j) {
        if (j != km.assignment[u] && cluster_max[j] > km.max_radius[j]) {
          ++count;
        }
      }
      return count;
    };
    for (std::int64_t u : pool) *capped_distances += capped_per_node(u);

    // --- Lines 5-8: pick the candidate with maximal marginal gain. -------
    // Candidate gains are independent (each reads best_dist, none writes
    // it), so they are computed in parallel — these are the Thm. 1
    // pairwise raw-aggregated-distance loops, the selector's hot path.
    // Each candidate's own summation order is unchanged, and the argmax
    // runs serially in pool order, so the pick matches the serial code
    // exactly at any thread count.
    const std::int64_t pool_size = static_cast<std::int64_t>(pool.size());
    std::vector<double> gains(pool_size, 0.0);
    ParallelFor(0, pool_size, 1, [&](std::int64_t pb, std::int64_t pe) {
      std::vector<float> cdist(nc);
      for (std::int64_t pi = pb; pi < pe; ++pi) {
        const std::int64_t u = pool[pi];
        const std::int64_t cu = km.assignment[u];
        for (std::int64_t j = 0; j < nc; ++j) {
          cdist[j] = RowDistance(km.centers, j, r, u);
        }
        double gain = 0.0;
        // Exact distances within u's cluster.
        for (std::int64_t v : km.clusters[cu]) {
          const float d = RowDistance(r, v, r, u);
          if (d < best_dist[v]) gain += best_dist[v] - d;
        }
        // Relaxed distances for all other clusters: threshold per cluster.
        for (std::int64_t j = 0; j < nc; ++j) {
          if (j == cu) continue;
          const float t = cdist[j] + km.max_radius[j];
          for (std::int64_t v : km.clusters[j]) {
            if (best_dist[v] > t) gain += best_dist[v] - t;
          }
        }
        gains[pi] = gain;
      }
    });
    double best_gain = -1.0;
    std::int64_t best_u = pool.front();
    for (std::int64_t pi = 0; pi < pool_size; ++pi) {
      if (gains[pi] > best_gain) {
        best_gain = gains[pi];
        best_u = pool[pi];
      }
    }

    // --- Line 9: commit and update best distances. ------------------------
    selected_mask[best_u] = 1;
    result.nodes.push_back(best_u);
    const std::int64_t cu = km.assignment[best_u];
    for (std::int64_t j = 0; j < nc; ++j) {
      center_dist[j] = RowDistance(km.centers, j, r, best_u);
    }
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
    // The commit's own cluster is exact, the others still hold the
    // maxima of the round.
    *capped_distances += capped_per_node(best_u);
    for (std::int64_t j = 0; j < nc; ++j) {
      if (j == cu) continue;
      const float t = center_dist[j] + km.max_radius[j];
      for (std::int64_t v : km.clusters[j]) {
        best_dist[v] = std::min(best_dist[v], t);
      }
    }
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
  return result;
}


std::uint64_t SelectorDistances() {
  return MetricsRegistry::Get().Snapshot().counter("selector.distances");
}

void ExpectSelectionMatchesReference(const Matrix& r,
                                     const SelectorConfig& cfg,
                                     std::uint64_t seed) {
  Rng ref_rng(seed);
  std::uint64_t capped = 0;
  const SelectionResult ref = ReferenceSelectCoreset(r, cfg, ref_rng, &capped);
  for (const int threads : {1, 2, 7}) {
    SetNumThreads(threads);
    SCOPED_TRACE(::testing::Message()
                 << "threads " << threads << " budget " << cfg.budget
                 << " n_c " << cfg.num_clusters << " auto "
                 << cfg.auto_sample_size);
    Rng rng(seed);
    const std::uint64_t before = SelectorDistances();
    const SelectionResult res = SelectCoreset(r, cfg, rng);
    EXPECT_EQ(SelectorDistances() - before, capped);
    EXPECT_EQ(res.nodes, ref.nodes);
    EXPECT_TRUE(res.weights.size() == ref.weights.size() &&
                std::memcmp(res.weights.data(), ref.weights.data(),
                            sizeof(float) * ref.weights.size()) == 0);
    EXPECT_EQ(std::memcmp(&res.representativity, &ref.representativity,
                          sizeof(double)),
              0);
  }
  SetNumThreads(1);
}

TEST(SelectCoresetExact, MatchesFullGreedyAcrossBudgetsAndClusterCounts) {
  Graph g = GenerateSbm({.num_nodes = 300, .num_classes = 5,
                         .feature_dim = 48, .avg_degree = 6},
                        21);
  const Matrix r = RawAggregation(g, 2);
  for (const std::int64_t nc : {1, 8, 120}) {
    for (const std::int64_t budget : {std::int64_t{1}, std::int64_t{60},
                                      r.rows()}) {
      SelectorConfig cfg = TestConfig(budget);
      cfg.num_clusters = nc;
      ExpectSelectionMatchesReference(r, cfg, 22);
      cfg.auto_sample_size = true;
      cfg.sample_size = 300;
      ExpectSelectionMatchesReference(r, cfg, 23);
    }
  }
}

TEST(SelectCoresetExact, ShardShapedSelectionMatches) {
  // Budget 10% of a 1,500-node graph with 40 clusters: the shape of a
  // sharded training selection, scaled down.
  Graph g = GenerateSbm({.num_nodes = 1500, .num_classes = 6,
                         .feature_dim = 64, .avg_degree = 8},
                        24);
  const Matrix r = RawAggregation(g, 2);
  SelectorConfig cfg;
  cfg.budget = 150;
  cfg.num_clusters = 40;
  ExpectSelectionMatchesReference(r, cfg, 25);
}

TEST(SelectCoreset, BudgetRespectedAndDistinct) {
  Graph g = GenerateSbm({.num_nodes = 300, .num_classes = 4,
                         .feature_dim = 40, .avg_degree = 8},
                        1);
  Matrix r = RawAggregation(g, 2);
  Rng rng(2);
  SelectionResult res = SelectCoreset(r, TestConfig(30), rng);
  EXPECT_EQ(res.nodes.size(), 30u);
  std::set<std::int64_t> uniq(res.nodes.begin(), res.nodes.end());
  EXPECT_EQ(uniq.size(), 30u);
}

TEST(SelectCoreset, WeightsSumToNodeCount) {
  Graph g = GenerateSbm({.num_nodes = 250, .num_classes = 3,
                         .feature_dim = 32, .avg_degree = 6},
                        3);
  Matrix r = RawAggregation(g, 2);
  Rng rng(4);
  SelectionResult res = SelectCoreset(r, TestConfig(25), rng);
  double total = 0.0;
  for (float w : res.weights) total += w;
  EXPECT_NEAR(total, 250.0, 1e-3);
  for (float w : res.weights) EXPECT_GE(w, 0.0f);
}

TEST(SelectCoreset, FullBudgetSelectsEveryone) {
  Graph g = GenerateSbm({.num_nodes = 60, .num_classes = 3,
                         .feature_dim = 16, .avg_degree = 5,
                         .informative_dims_per_class = 4},
                        5);
  Matrix r = RawAggregation(g, 2);
  Rng rng(6);
  SelectionResult res = SelectCoreset(r, TestConfig(60), rng);
  EXPECT_EQ(res.nodes.size(), 60u);
}

TEST(SelectCoreset, ObjectiveDecreasesWithBudget) {
  Graph g = GenerateSbm({.num_nodes = 400, .num_classes = 4,
                         .feature_dim = 32, .avg_degree = 8},
                        7);
  Matrix r = RawAggregation(g, 2);
  Rng rng_a(8), rng_b(8);
  const double small =
      SelectCoreset(r, TestConfig(10), rng_a).representativity;
  const double large =
      SelectCoreset(r, TestConfig(120), rng_b).representativity;
  EXPECT_LT(large, small);
}

TEST(SelectCoreset, BeatsRandomOnObjective) {
  Graph g = GenerateSbm({.num_nodes = 400, .num_classes = 5,
                         .feature_dim = 40, .avg_degree = 8},
                        9);
  Matrix r = RawAggregation(g, 2);
  Rng rng(10);
  KMeansOptions km_opts;
  km_opts.num_clusters = 8;
  Rng km_rng(11);
  KMeansResult km = KMeans(r, km_opts, km_rng);

  SelectorConfig cfg = TestConfig(40);
  Rng sel_rng(12);
  SelectionResult greedy = SelectCoreset(r, cfg, sel_rng);
  const double greedy_obj = RepresentativityObjective(r, km, greedy.nodes);

  double random_obj = 0.0;
  const int trials = 5;
  for (int t = 0; t < trials; ++t) {
    auto random_nodes = rng.SampleWithoutReplacement(400, 40);
    random_obj += RepresentativityObjective(r, km, random_nodes);
  }
  random_obj /= trials;
  EXPECT_LT(greedy_obj, random_obj);
}

TEST(SelectCoreset, CoversAllClasses) {
  // Cluster-based selection should hit every class even with class
  // imbalance (the stated motivation for Eq. 13).
  SbmSpec spec;
  spec.num_nodes = 500;
  spec.num_classes = 5;
  spec.feature_dim = 50;
  spec.avg_degree = 8;
  spec.class_skew = 0.8;
  Graph g = GenerateSbm(spec, 13);
  Matrix r = RawAggregation(g, 2);
  Rng rng(14);
  SelectorConfig cfg = TestConfig(50);
  cfg.num_clusters = 10;
  SelectionResult res = SelectCoreset(r, cfg, rng);
  std::set<std::int64_t> classes;
  for (std::int64_t v : res.nodes) classes.insert(g.labels[v]);
  EXPECT_EQ(classes.size(), 5u);
}

TEST(SelectCoreset, AutoSampleSizeStillWorks) {
  Graph g = GenerateSbm({.num_nodes = 300, .num_classes = 3,
                         .feature_dim = 24, .avg_degree = 6},
                        15);
  Matrix r = RawAggregation(g, 2);
  Rng rng(16);
  SelectorConfig cfg;
  cfg.budget = 120;
  cfg.num_clusters = 8;
  cfg.auto_sample_size = true;
  SelectionResult res = SelectCoreset(r, cfg, rng);
  EXPECT_EQ(res.nodes.size(), 120u);
  EXPECT_GT(res.seconds, 0.0);
}

TEST(SelectCoreset, DeterministicGivenSeed) {
  Graph g = GenerateSbm({.num_nodes = 200, .num_classes = 3,
                         .feature_dim = 24, .avg_degree = 6},
                        17);
  Matrix r = RawAggregation(g, 2);
  Rng a(18), b(18);
  EXPECT_EQ(SelectCoreset(r, TestConfig(20), a).nodes,
            SelectCoreset(r, TestConfig(20), b).nodes);
}

// --- Theorem 1 empirical check. -------------------------------------------
// For the linearized GCN (H = A_n^L X theta) and the Eq. 5 loss without
// negatives, the gradient difference between nodes is bounded by
// c * ||R[v] - R[u]|| + 4*eps*c', with R = A_n^L X. We verify the
// qualitative claim: gradient distance correlates with R distance and
// the bound holds with the paper's constants.
TEST(Theorem1, GradientDifferenceBoundedByRawAggregationDistance) {
  Graph g = GenerateSbm({.num_nodes = 80, .num_classes = 3,
                         .feature_dim = 12, .avg_degree = 5,
                         .informative_dims_per_class = 3},
                        19);
  const int L = 2;
  Matrix r_full = RawAggregation(g, L);

  Rng rng(20);
  const std::int64_t d_out = 6;
  Matrix theta = Matrix::RandomNormal(12, d_out, 0.0f, 0.5f, rng);
  float theta_norm = FrobeniusNorm(theta);

  // Perturbed views: tiny feature noise so that ||r_hat - r|| <= eps.
  Matrix x_hat = g.features;
  Matrix x_tilde = g.features;
  for (std::int64_t i = 0; i < x_hat.size(); ++i) {
    x_hat.data()[i] += 0.01f * rng.Normal();
    x_tilde.data()[i] += 0.01f * rng.Normal();
  }
  CsrMatrix an = NormalizedAdjacency(g);
  Matrix r_hat = RawAggregation(an, x_hat, L);
  Matrix r_tilde = RawAggregation(an, x_tilde, L);

  float eps = 0.0f;
  for (std::int64_t v = 0; v < g.num_nodes; ++v) {
    eps = std::max(eps, RowDistance(r_hat, v, r_full, v));
    eps = std::max(eps, RowDistance(r_tilde, v, r_full, v));
  }

  // grad_v = (r_hat_v - r_tilde_v)^T (r_hat_v - r_tilde_v) theta
  // (Theorem 1's derivative of ||h_hat - h_tilde||^2 wrt theta).
  auto grad_of = [&](std::int64_t v) {
    Matrix diff(1, r_full.cols());
    for (std::int64_t c = 0; c < r_full.cols(); ++c) {
      diff(0, c) = r_hat(v, c) - r_tilde(v, c);
    }
    return MatMul(MatMulTransposedA(diff, diff), theta);
  };

  for (std::int64_t v = 0; v < 20; ++v) {
    for (std::int64_t u = 20; u < 40; ++u) {
      const float grad_diff = FrobeniusNorm(Sub(grad_of(v), grad_of(u)));
      const float bound =
          8.0f * eps * theta_norm * (RowDistance(r_full, v, r_full, u) +
                                     4.0f * eps);
      EXPECT_LE(grad_diff, bound * 1.05f)  // small float slack
          << "pair (" << v << ", " << u << ")";
    }
  }
}

}  // namespace
}  // namespace e2gcl
