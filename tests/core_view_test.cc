#include <set>

#include <gtest/gtest.h>

#include "core/scores.h"
#include "core/view_generator.h"
#include "graph/datasets.h"
#include "graph/generators.h"
#include "nn/gcn.h"
#include "test_util.h"

namespace e2gcl {
namespace {

using testing_util::SmallGraph;

Graph MediumGraph(std::uint64_t seed = 1) {
  SbmSpec spec;
  spec.num_nodes = 400;
  spec.num_classes = 4;
  spec.feature_dim = 48;
  spec.avg_degree = 8;
  spec.informative_dims_per_class = 8;
  return GenerateSbm(spec, seed);
}

// --- ImportanceScores. ------------------------------------------------------

TEST(ImportanceScores, CentralityIsLogDegree) {
  Graph g = SmallGraph();
  ImportanceScores s(g, 0.7f);
  EXPECT_NEAR(s.Centrality(2), std::log(4.0f), 1e-5f);
}

TEST(ImportanceScores, SimilarityNonNegativeOnEdges) {
  Graph g = MediumGraph();
  ImportanceScores s(g, 0.7f);
  // Sim(v,u) = c - ||x_v - x_u|| with c the max over edges, so every
  // existing edge has Sim >= 0.
  for (const auto& [u, v] : UndirectedEdges(g)) {
    EXPECT_GE(s.Similarity(u, v), -1e-5f);
  }
}

TEST(ImportanceScores, NeighborBranchPrefersInfluentialNodes) {
  Graph g = MediumGraph();
  ImportanceScores s(g, 0.7f);
  // Pick a node with both a high- and a low-degree neighbor.
  for (std::int64_t v = 0; v < g.num_nodes; ++v) {
    auto nb = g.Neighbors(v);
    if (nb.size() < 2) continue;
    std::int64_t hi = nb[0], lo = nb[0];
    for (std::int32_t u : nb) {
      if (g.Degree(u) > g.Degree(hi)) hi = u;
      if (g.Degree(u) < g.Degree(lo)) lo = u;
    }
    if (g.Degree(hi) <= g.Degree(lo) + 3) continue;
    // Control for similarity by dividing out the (normalized) sim term.
    const float c = std::max(s.sim_constant(), 1e-6f);
    const float score_hi =
        s.EdgeScore(v, hi, true) / std::exp(s.Similarity(v, hi) / c);
    const float score_lo =
        s.EdgeScore(v, lo, true) / std::exp(s.Similarity(v, lo) / c);
    EXPECT_GT(score_hi, score_lo);
    return;
  }
  GTEST_SKIP() << "no suitable node found";
}

TEST(ImportanceScores, CandidateBranchPenalizesInfluentialNodes) {
  Graph g = MediumGraph();
  ImportanceScores s(g, 0.7f);
  // For non-neighbors the centrality enters with a negative sign.
  std::int64_t hub = 0;
  for (std::int64_t v = 1; v < g.num_nodes; ++v) {
    if (g.Degree(v) > g.Degree(hub)) hub = v;
  }
  std::int64_t leaf = 0;
  for (std::int64_t v = 0; v < g.num_nodes; ++v) {
    if (g.Degree(v) > 0 && g.Degree(v) < g.Degree(leaf)) leaf = v;
  }
  const float c = std::max(s.sim_constant(), 1e-6f);
  const float hub_score =
      s.EdgeScore(1, hub, false) / std::exp(s.Similarity(1, hub) / c);
  const float leaf_score =
      s.EdgeScore(1, leaf, false) / std::exp(s.Similarity(1, leaf) / c);
  EXPECT_LT(hub_score, leaf_score);
}

TEST(ImportanceScores, PerturbProbabilityRange) {
  Graph g = MediumGraph();
  ImportanceScores s(g, 0.7f);
  for (std::int64_t v = 0; v < 50; ++v) {
    for (std::int64_t d = 0; d < g.feature_dim(); ++d) {
      const float p = s.PerturbProbability(v, d, 0.8f);
      EXPECT_GE(p, 0.0f);
      EXPECT_LE(p, ImportanceScores::kProbabilityCap);
    }
  }
  EXPECT_EQ(s.PerturbProbability(0, 0, 0.0f), 0.0f);
}

TEST(ImportanceScores, ImportantDimsPerturbedLess) {
  Graph g = MediumGraph();
  ImportanceScores s(g, 0.7f);
  // Signal dims (first num_classes*block) are globally frequent, so
  // their mean perturbation probability must be below the noise dims'.
  const std::int64_t signal_dims = 4 * 8;
  double p_signal = 0.0, p_noise = 0.0;
  std::int64_t n_signal = 0, n_noise = 0;
  for (std::int64_t v = 0; v < g.num_nodes; ++v) {
    for (std::int64_t d = 0; d < g.feature_dim(); ++d) {
      const float p = s.PerturbProbability(v, d, 0.8f);
      if (d < signal_dims) {
        p_signal += p;
        ++n_signal;
      } else {
        p_noise += p;
        ++n_noise;
      }
    }
  }
  EXPECT_LT(p_signal / n_signal, p_noise / n_noise);
}

// --- ViewGenerator: global views. -------------------------------------------

TEST(GlobalView, PreservesNodeCountAndFiniteFeatures) {
  Graph g = MediumGraph();
  ViewGenerator gen(g);
  Rng rng(2);
  Graph view = gen.GenerateGlobalView({.tau = 0.8f, .eta = 0.4f}, rng);
  EXPECT_EQ(view.num_nodes, g.num_nodes);
  EXPECT_TRUE(AllFinite(view.features));
  EXPECT_GT(view.num_edges(), 0);
}

TEST(GlobalView, TauControlsEdgeBudget) {
  Graph g = MediumGraph();
  ViewGenerator gen(g);
  Rng rng(3);
  Graph sparse = gen.GenerateGlobalView({.tau = 0.3f, .eta = 0.0f}, rng);
  Graph dense = gen.GenerateGlobalView({.tau = 1.2f, .eta = 0.0f}, rng);
  EXPECT_LT(sparse.num_edges(), dense.num_edges());
  EXPECT_LT(sparse.num_edges(), g.num_edges());
}

TEST(GlobalView, TauZeroGivesNoEdges) {
  Graph g = MediumGraph();
  ViewGenerator gen(g);
  Rng rng(4);
  Graph view = gen.GenerateGlobalView({.tau = 0.0f, .eta = 0.0f}, rng);
  EXPECT_EQ(view.num_edges(), 0);
}

TEST(GlobalView, EtaZeroKeepsFeatures) {
  Graph g = MediumGraph();
  ViewGenerator gen(g);
  Rng rng(5);
  Graph view = gen.GenerateGlobalView({.tau = 0.8f, .eta = 0.0f}, rng);
  EXPECT_TRUE(view.features == g.features);
}

TEST(GlobalView, Eq16PerturbationBounded) {
  // Eq. 16 is multiplicative in [-1, 1], so every perturbed value stays
  // within [0, 2|x|] of the original sign region.
  Graph g = MediumGraph();
  ViewGenerator gen(g);
  Rng rng(6);
  Graph view = gen.GenerateGlobalView({.tau = 1.0f, .eta = 0.9f}, rng);
  for (std::int64_t i = 0; i < g.features.size(); ++i) {
    const float orig = g.features.data()[i];
    const float pert = view.features.data()[i];
    EXPECT_GE(pert, -1e-6f);
    EXPECT_LE(pert, 2.0f * orig + 1e-6f);
  }
}

TEST(GlobalView, TwoDrawsDiffer) {
  Graph g = MediumGraph();
  ViewGenerator gen(g);
  Rng rng(7);
  ViewConfig cfg{.tau = 0.8f, .eta = 0.4f};
  Graph v1 = gen.GenerateGlobalView(cfg, rng);
  Graph v2 = gen.GenerateGlobalView(cfg, rng);
  EXPECT_FALSE(v1.col == v2.col && v1.features == v2.features);
}

TEST(GlobalView, EdgeAdditionDisabledKeepsSubsetOfOriginalEdges) {
  Graph g = MediumGraph();
  ViewGenerator gen(g);
  Rng rng(8);
  ViewConfig cfg{.tau = 0.9f, .eta = 0.0f};
  cfg.allow_edge_addition = false;
  Graph view = gen.GenerateGlobalView(cfg, rng);
  for (const auto& [u, v] : UndirectedEdges(view)) {
    EXPECT_TRUE(g.HasEdge(u, v));
  }
}

TEST(GlobalView, EdgeDeletionDisabledKeepsAllOriginalEdges) {
  Graph g = MediumGraph();
  ViewGenerator gen(g);
  Rng rng(9);
  ViewConfig cfg{.tau = 1.2f, .eta = 0.0f};
  cfg.allow_edge_deletion = false;
  Graph view = gen.GenerateGlobalView(cfg, rng);
  for (const auto& [u, v] : UndirectedEdges(g)) {
    EXPECT_TRUE(view.HasEdge(u, v));
  }
  EXPECT_GE(view.num_edges(), g.num_edges());
}

TEST(GlobalView, EachChannelSamplesWithItsOwnBeta) {
  // Trainers build one generator with view_hat.beta and draw both
  // channels from it; the tilde channel's beta used to be ignored. Views
  // follow the beta of the config they are given, never the
  // constructor's.
  Graph g = MediumGraph();
  const ViewConfig hat{.tau = 0.8f, .eta = 0.5f, .beta = 0.7f};
  ViewConfig tilde{.tau = 0.6f, .eta = 0.7f, .beta = 0.7f};
  auto draw_pair = [&](const ViewGenerator& gen, const ViewConfig& t) {
    Rng rng(11);
    Graph h = gen.GenerateGlobalView(hat, rng);
    Graph v = gen.GenerateGlobalView(t, rng);
    return std::pair{std::move(h), std::move(v)};
  };
  auto same = [](const Graph& a, const Graph& b) {
    return a.row_ptr == b.row_ptr && a.col == b.col &&
           a.features == b.features;
  };
  const ViewGenerator gen(g, hat.beta);
  const auto [hat_a, tilde_a] = draw_pair(gen, tilde);
  tilde.beta = 0.2f;
  const auto [hat_b, tilde_b] = draw_pair(gen, tilde);
  EXPECT_TRUE(same(hat_a, hat_b));
  EXPECT_FALSE(same(tilde_a, tilde_b));

  const ViewGenerator other_beta(g, 0.3f);
  const auto [hat_c, tilde_c] = draw_pair(other_beta, tilde);
  EXPECT_TRUE(same(hat_c, hat_b));
  EXPECT_TRUE(same(tilde_c, tilde_b));
}

TEST(GlobalView, FeaturePerturbationDisabled) {
  Graph g = MediumGraph();
  ViewGenerator gen(g);
  Rng rng(10);
  ViewConfig cfg{.tau = 0.8f, .eta = 0.9f};
  cfg.allow_feature_perturbation = false;
  Graph view = gen.GenerateGlobalView(cfg, rng);
  EXPECT_TRUE(view.features == g.features);
}

// --- Per-node views (the literal Alg. 3). -----------------------------------

TEST(PerNodeView, ContainsRootAndIsLocal) {
  Graph g = MediumGraph();
  ViewGenerator gen(g);
  Rng rng(11);
  std::int64_t root_idx = -1;
  std::vector<std::int64_t> nodes;
  Graph view = gen.GeneratePerNodeView(5, 2, {.tau = 0.8f, .eta = 0.3f},
                                       rng, &root_idx, &nodes);
  ASSERT_GE(root_idx, 0);
  EXPECT_LT(root_idx, view.num_nodes);
  EXPECT_EQ(nodes[root_idx], 5);
  // All nodes within 2 hops of some sampled path: view is small
  // relative to the graph.
  EXPECT_LT(view.num_nodes, g.num_nodes);
}

TEST(PerNodeView, SubgraphNodesAreOriginalIds) {
  Graph g = MediumGraph();
  ViewGenerator gen(g);
  Rng rng(12);
  std::int64_t root_idx = -1;
  std::vector<std::int64_t> nodes;
  gen.GeneratePerNodeView(7, 2, {.tau = 0.6f, .eta = 0.0f}, rng, &root_idx,
                          &nodes);
  for (std::int64_t v : nodes) {
    EXPECT_GE(v, 0);
    EXPECT_LT(v, g.num_nodes);
  }
  std::set<std::int64_t> uniq(nodes.begin(), nodes.end());
  EXPECT_EQ(uniq.size(), nodes.size());
}

TEST(PerNodeView, IsolatedRootYieldsSingleton) {
  Graph g = BuildGraph(3, {{0, 1}}, Matrix(3, 4, 0.5f));
  ViewGenerator gen(g);
  Rng rng(13);
  std::int64_t root_idx = -1;
  Graph view =
      gen.GeneratePerNodeView(2, 2, {.tau = 0.8f, .eta = 0.0f}, rng,
                              &root_idx);
  EXPECT_EQ(view.num_nodes, 1);
  EXPECT_EQ(root_idx, 0);
}

// --- View quality (Eq. 15): importance-aware beats uniform. -----------------

TEST(ViewQuality, ImportanceAwarePreservesLocalityBetterThanUniform) {
  Graph g = MediumGraph(21);
  ViewGenerator gen(g);
  Rng rng_model(22);
  GcnConfig cfg;
  cfg.dims = {g.feature_dim(), 32, 16};
  GcnEncoder enc(cfg, rng_model);

  std::vector<std::int64_t> probe_nodes;
  for (std::int64_t v = 0; v < g.num_nodes; v += 4) probe_nodes.push_back(v);

  auto quality_of = [&](bool importance, std::uint64_t seed) {
    ViewConfig vc{.tau = 0.7f, .eta = 0.5f};
    vc.importance_edges = importance;
    vc.importance_features = importance;
    Rng rng(seed);
    Graph hat = gen.GenerateGlobalView(vc, rng);
    Graph tilde = gen.GenerateGlobalView(vc, rng);
    return EvaluateViewQuality(enc, g, hat, tilde, probe_nodes);
  };

  double imp_locality = 0.0, uni_locality = 0.0;
  for (std::uint64_t s = 0; s < 3; ++s) {
    ViewQuality qi = quality_of(true, 100 + s);
    ViewQuality qu = quality_of(false, 200 + s);
    imp_locality += qi.locality_hat + qi.locality_tilde;
    uni_locality += qu.locality_hat + qu.locality_tilde;
  }
  EXPECT_LT(imp_locality, uni_locality);
}

TEST(ViewQuality, DiversityPositiveForDistinctViews) {
  Graph g = MediumGraph(23);
  ViewGenerator gen(g);
  Rng rng_model(24);
  GcnConfig cfg;
  cfg.dims = {g.feature_dim(), 16};
  GcnEncoder enc(cfg, rng_model);
  Rng rng(25);
  Graph hat = gen.GenerateGlobalView({.tau = 0.9f, .eta = 0.3f}, rng);
  Graph tilde = gen.GenerateGlobalView({.tau = 0.6f, .eta = 0.6f}, rng);
  ViewQuality q = EvaluateViewQuality(enc, g, hat, tilde, {0, 1, 2, 3, 4});
  EXPECT_GT(q.diversity, 0.0);
}

}  // namespace
}  // namespace e2gcl
