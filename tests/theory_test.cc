// Empirical replications of the paper's theoretical claims that admit
// small-scale verification:
//   * Theorem 3: the sampling-based greedy achieves a large fraction of
//     the optimal representativity gain (brute-forced on tiny inputs).
//   * Proposition 1: edge deletion + edge addition + feature
//     perturbation express the other augmentation operations (feature
//     masking, node dropping, subgraph sampling) — shown constructively.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "core/node_selector.h"
#include "core/raw_aggregation.h"
#include "graph/generators.h"
#include "test_util.h"

namespace e2gcl {
namespace {

// --- Theorem 3 (approximation quality). -------------------------------------

/// Exhaustive optimum of the Eq. 14 objective over all subsets of size k
/// (one bit per node of a mask; n is tiny).
double BruteForceOptimum(const Matrix& r, const KMeansResult& km,
                         std::int64_t k) {
  const std::int64_t n = r.rows();
  std::vector<std::int64_t> subset;
  double best = 1e300;
  for (std::uint32_t mask = 0; mask < (std::uint32_t{1} << n); ++mask) {
    if (std::popcount(mask) != k) continue;
    subset.clear();
    for (std::int64_t i = 0; i < n; ++i) {
      if ((mask >> i) & 1u) subset.push_back(i);
    }
    best = std::min(best, RepresentativityObjective(r, km, subset));
  }
  return best;
}

TEST(Theorem3, GreedyNearOptimalOnTinyInstances) {
  SbmSpec spec;
  spec.num_nodes = 14;
  spec.num_classes = 3;
  spec.feature_dim = 15;
  spec.avg_degree = 4;
  spec.informative_dims_per_class = 4;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    Graph g = GenerateSbm(spec, seed);
    Matrix r = RawAggregation(g, 2);

    const std::int64_t k = 3;
    SelectorConfig cfg;
    cfg.budget = k;
    cfg.num_clusters = 3;
    cfg.sample_size = 14;  // full candidate pool: plain greedy
    cfg.auto_sample_size = false;

    // Replicate SelectCoreset's internal clustering exactly (same rng
    // stream, same options) so greedy and the brute-forced optimum are
    // compared under the SAME objective — Theorem 3 says nothing about
    // greedy under one clustering vs the optimum under another.
    KMeansOptions km_opts;
    km_opts.num_clusters = 3;
    km_opts.max_iters = cfg.kmeans_iters;
    Rng km_rng(seed);
    KMeansResult km = KMeans(r, km_opts, km_rng);
    const double optimum = BruteForceOptimum(r, km, k);

    Rng rng(seed);
    SelectionResult greedy = SelectCoreset(r, cfg, rng);
    const double greedy_obj = RepresentativityObjective(r, km, greedy.nodes);

    // Theorem 3 guarantees the greedy captures a (1 - 1/e - eps)
    // fraction of the optimal *gain* over the empty selection (eps = 0
    // here: the full pool makes the sampling exact). RS(empty) is
    // k * d_init per node, with d_init the selector's "unrepresented"
    // distance — replicate its computation (same float ops) so the
    // baseline matches what the greedy actually maximized against.
    float center_spread = 0.0f;
    for (std::int64_t i = 0; i < km.centers.rows(); ++i) {
      for (std::int64_t j = i + 1; j < km.centers.rows(); ++j) {
        center_spread = std::max(
            center_spread, RowDistance(km.centers, i, km.centers, j));
      }
    }
    float max_radius = 0.0f;
    for (float rad : km.max_radius) max_radius = std::max(max_radius, rad);
    const double d_init = center_spread + 2.0f * max_radius + 1.0f;
    const double f_empty = d_init * static_cast<double>(spec.num_nodes);
    const double gain_greedy = f_empty - greedy_obj;
    const double gain_opt = f_empty - optimum;
    EXPECT_GE(gain_greedy, (1.0 - 1.0 / std::exp(1.0)) * gain_opt - 1e-6)
        << "seed " << seed << ": greedy gain " << gain_greedy
        << " vs optimal gain " << gain_opt;
    // Empirical tripwire, far tighter than the theorem's objective
    // bound: on these instances the greedy lands within 50% of the
    // brute-forced optimum.
    EXPECT_LE(greedy_obj, optimum * 1.5 + 1e-6)
        << "seed " << seed << ": greedy " << greedy_obj << " vs optimum "
        << optimum;
    EXPECT_GE(greedy_obj, optimum - 1e-6);  // optimum really is optimal
  }
}

// --- Proposition 1 (operation expressivity). ---------------------------------
// The paper's argument is constructive; we verify the constructions on a
// concrete graph: every "other" augmentation operation is reproduced
// exactly by a combination of edge deletion (ED), edge addition (EA),
// and feature perturbation (FP, Eq. 16 with chosen u).

Graph BaseGraph() {
  return BuildGraph(5,
                    {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {0, 2}},
                    Matrix::FromRows({{1, 2},
                                      {3, 4},
                                      {5, 6},
                                      {7, 8},
                                      {9, 10}}));
}

/// FP with u = -1 (Eq. 16's lower extreme): x' = x + (-1) * x = 0.
Matrix PerturbToZero(const Matrix& x, std::int64_t node, std::int64_t dim) {
  Matrix out = x;
  out(node, dim) = 0.0f;
  return out;
}

TEST(Proposition1, FeatureMaskingIsFeaturePerturbation) {
  // FM zeroes dimension 1 for all nodes; FP with u = -1 on the same
  // entries produces the identical view.
  Graph g = BaseGraph();
  Matrix masked = g.features;
  for (std::int64_t v = 0; v < g.num_nodes; ++v) masked(v, 1) = 0.0f;
  Matrix via_fp = g.features;
  for (std::int64_t v = 0; v < g.num_nodes; ++v) {
    via_fp = PerturbToZero(via_fp, v, 1);
  }
  EXPECT_TRUE(masked == via_fp);
}

TEST(Proposition1, NodeDroppingIsEdgeDeletionPlusPerturbation) {
  // Dropping node 2 == deleting all its edges and zeroing its features:
  // no GCN layer can then receive information from it.
  Graph g = BaseGraph();
  // Target: induced subgraph without node 2 (relabeled view).
  Graph dropped = InducedSubgraph(g, {0, 1, 3, 4});

  // Construction: ED on every edge of node 2, FP(u=-1) on its features.
  std::vector<std::pair<std::int64_t, std::int64_t>> kept;
  for (const auto& [u, v] : UndirectedEdges(g)) {
    if (u != 2 && v != 2) kept.emplace_back(u, v);
  }
  Matrix feats = g.features;
  for (std::int64_t d = 0; d < g.feature_dim(); ++d) {
    feats = PerturbToZero(feats, 2, d);
  }
  Graph constructed = BuildGraph(g.num_nodes, kept, feats);

  // Node 2 is isolated with zero features: every remaining node's
  // neighborhood matches the dropped view.
  EXPECT_EQ(constructed.Degree(2), 0);
  EXPECT_EQ(constructed.num_edges(), dropped.num_edges());
  for (const auto& [u, v] : UndirectedEdges(dropped)) {
    // Map dropped-view ids {0,1,3,4} -> original ids.
    const std::int64_t orig_ids[] = {0, 1, 3, 4};
    EXPECT_TRUE(constructed.HasEdge(orig_ids[u], orig_ids[v]));
  }
}

TEST(Proposition1, NodeAdditionIsEdgeAddition) {
  // Adding a node with edges == starting from the graph that includes
  // the (isolated) node and applying EA. BuildGraph over num_nodes + 1
  // models the enlarged universe.
  Graph g = BaseGraph();
  auto edges = UndirectedEdges(g);
  edges.emplace_back(5, 0);
  edges.emplace_back(5, 3);
  Matrix feats(6, 2);
  for (std::int64_t v = 0; v < 5; ++v) {
    feats(v, 0) = g.features(v, 0);
    feats(v, 1) = g.features(v, 1);
  }
  feats(5, 0) = 11.0f;
  Graph grown = BuildGraph(6, edges, feats);
  EXPECT_EQ(grown.Degree(5), 2);
  EXPECT_TRUE(grown.HasEdge(5, 0));
}

TEST(Proposition1, SubgraphSamplingIsEdgeDeletion) {
  // Keeping only the subgraph {0, 1, 2} == deleting all edges with an
  // endpoint outside the sample (plus FP-zeroing outside features).
  Graph g = BaseGraph();
  std::vector<std::pair<std::int64_t, std::int64_t>> kept;
  for (const auto& [u, v] : UndirectedEdges(g)) {
    if (u <= 2 && v <= 2) kept.emplace_back(u, v);
  }
  Graph constructed = BuildGraph(g.num_nodes, kept, g.features);
  Graph target = InducedSubgraph(g, {0, 1, 2});
  EXPECT_EQ(constructed.num_edges(), target.num_edges());
  for (const auto& [u, v] : UndirectedEdges(target)) {
    EXPECT_TRUE(constructed.HasEdge(u, v));
  }
  EXPECT_EQ(constructed.Degree(3), 0);
  EXPECT_EQ(constructed.Degree(4), 0);
}

}  // namespace
}  // namespace e2gcl
