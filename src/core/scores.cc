#include "core/scores.h"

#include <algorithm>
#include <cmath>

#include "tensor/check.h"

namespace e2gcl {

ImportanceScores::ImportanceScores(const Graph& g, float beta)
    : graph_(&g), beta_(beta) {
  E2GCL_CHECK(beta > 0.0f && beta < 1.0f);
  E2GCL_CHECK(!g.features.empty());
  centrality_ = DegreeCentrality(g);
  for (float c : centrality_) max_centrality_ = std::max(max_centrality_, c);

  // sim_constant_ = max over existing edges of ||x_v - x_u||.
  for (std::int64_t v = 0; v < g.num_nodes; ++v) {
    for (std::int32_t u : g.Neighbors(v)) {
      if (u <= v) continue;
      sim_constant_ = std::max(
          sim_constant_, RowDistance(g.features, v, g.features, u));
    }
  }

  // Global feature importance w^f_i = sum_v phi_c(v) |x_v[i]|.
  const std::int64_t d = g.feature_dim();
  feature_importance_.assign(d, 0.0f);
  for (std::int64_t v = 0; v < g.num_nodes; ++v) {
    const float phi = centrality_[v];
    const float* row = g.features.RowPtr(v);
    for (std::int64_t i = 0; i < d; ++i) {
      feature_importance_[i] += phi * std::fabs(row[i]);
    }
  }
  // Log-scale like GCA: raw frequency counts are heavy-tailed.
  for (float& w : feature_importance_) w = std::log1p(w);

  // dim_term(i) = (w_max - w_i) / (w_max - w_mean): mean 1 over dims,
  // smaller for globally important (frequent-in-influential-nodes) dims.
  {
    float mx = 0.0f;
    double sum = 0.0;
    for (float w : feature_importance_) {
      mx = std::max(mx, w);
      sum += w;
    }
    const float mean = static_cast<float>(sum / d);
    const float denom = std::max(mx - mean, 1e-9f);
    dim_term_.resize(d);
    for (std::int64_t i = 0; i < d; ++i) {
      dim_term_[i] = (mx - feature_importance_[i]) / denom;
    }
  }
  // node_term(v) = (phi_max - phi_v) / (phi_max - phi_mean): mean 1 over
  // nodes, smaller for high-centrality nodes.
  {
    float mx = 0.0f;
    double sum = 0.0;
    for (float c : centrality_) {
      mx = std::max(mx, c);
      sum += c;
    }
    const float mean = static_cast<float>(sum / g.num_nodes);
    const float denom = std::max(mx - mean, 1e-9f);
    node_term_.resize(g.num_nodes);
    for (std::int64_t v = 0; v < g.num_nodes; ++v) {
      node_term_[v] = (mx - centrality_[v]) / denom;
    }
  }
}

float ImportanceScores::Similarity(std::int64_t v, std::int64_t u) const {
  return sim_constant_ -
         RowDistance(graph_->features, v, graph_->features, u);
}

// Exponents are normalized to [0, 1] ranges before exp(): the raw
// phi + Sim form spans several orders of magnitude, which makes the
// weighted sampling effectively deterministic and collapses the two
// positive views onto each other. Tempering keeps a clear preference for
// important edges while preserving sampling diversity.

float ImportanceScores::NeighborTerm(std::int64_t v, std::int64_t u) const {
  const float sim = Similarity(v, u) / std::max(sim_constant_, 1e-6f);
  const float phi = centrality_[u] / std::max(max_centrality_, 1e-6f);
  return std::exp(phi + sim);
}

float ImportanceScores::CandidateTerm(std::int64_t v, std::int64_t u) const {
  const float sim = Similarity(v, u) / std::max(sim_constant_, 1e-6f);
  const float phi = centrality_[u] / std::max(max_centrality_, 1e-6f);
  return std::exp(-phi + sim);
}

float ImportanceScores::EdgeScore(std::int64_t v, std::int64_t u,
                                  bool is_neighbor) const {
  return is_neighbor ? beta_ * NeighborTerm(v, u)
                     : (1.0f - beta_) * CandidateTerm(v, u);
}

}  // namespace e2gcl
