#ifndef E2GCL_CORE_SCORES_H_
#define E2GCL_CORE_SCORES_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "graph/graph.h"

namespace e2gcl {

/// Edge and feature importance scores of Sec. IV-C1/2. All quantities
/// are derived from raw graph data only (degrees and features), never
/// from GNN parameters — the property the paper's Remark calls out.
class ImportanceScores {
 public:
  /// `beta` is the existing-edge preference of the edge score
  /// (w^e = beta * exp(phi + sim) for neighbors,
  ///  (1-beta) * exp(-phi + sim) for 2-hop candidates).
  ImportanceScores(const Graph& g, float beta);

  /// phi_c(v) = log(D_v + 1).
  float Centrality(std::int64_t v) const { return centrality_[v]; }
  const std::vector<float>& centrality() const { return centrality_; }

  /// Sim(v, u) = c - ||x_v - x_u||, c = max over existing edges.
  float Similarity(std::int64_t v, std::int64_t u) const;

  /// Edge score w^e_{v,u} under the constructor's beta. `is_neighbor`
  /// selects the existing-edge or candidate-edge branch.
  float EdgeScore(std::int64_t v, std::int64_t u, bool is_neighbor) const;

  /// The beta-free factors of EdgeScore: exp(phi + sim) for an existing
  /// edge and exp(-phi + sim) for a candidate edge, so EdgeScore is
  /// beta * NeighborTerm or (1 - beta) * CandidateTerm.
  float NeighborTerm(std::int64_t v, std::int64_t u) const;
  float CandidateTerm(std::int64_t v, std::int64_t u) const;

  /// Global importance of feature dimension i:
  /// w^f_i = sum_v phi_c(v) * |x_v[i]|.
  float FeatureImportance(std::int64_t dim) const {
    return feature_importance_[dim];
  }

  /// Probability of perturbing x_v[i] given strength eta (Eq. 16):
  /// eta * dim_term(i) * node_term(v) clipped to [0, cap], where
  /// dim_term(i) = (w_max - w^f_i)/(w_max - w_mean) over dimensions and
  /// node_term(v) = (phi_max - phi_c(v))/(phi_max - phi_mean) over
  /// nodes. Both terms have mean 1, so the expected perturbation budget
  /// matches the uniform baseline at equal eta. (The paper's literal
  /// per-dimension normalization of w^f_i * phi_c(v) cancels the
  /// dimension dependence entirely; this product form keeps both the
  /// "important dimensions are kept" and "influential nodes are kept"
  /// behaviours the text describes.)
  float PerturbProbability(std::int64_t v, std::int64_t dim,
                           float eta) const {
    if (eta <= 0.0f) return 0.0f;
    return std::min(eta * dim_term_[dim] * node_term_[v], kProbabilityCap);
  }

  /// Maximum perturbation probability before eta scaling, mirroring
  /// GCA's cap that prevents certain perturbation of any feature.
  static constexpr float kProbabilityCap = 0.95f;

  float sim_constant() const { return sim_constant_; }
  float beta() const { return beta_; }

 private:
  const Graph* graph_;
  float beta_;
  std::vector<float> centrality_;
  float max_centrality_ = 0.0f;
  float sim_constant_ = 0.0f;
  std::vector<float> feature_importance_;
  /// Precomputed dim_term(i) and node_term(v) of PerturbProbability.
  std::vector<float> dim_term_;
  std::vector<float> node_term_;
};

}  // namespace e2gcl

#endif  // E2GCL_CORE_SCORES_H_
