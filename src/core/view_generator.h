#ifndef E2GCL_CORE_VIEW_GENERATOR_H_
#define E2GCL_CORE_VIEW_GENERATOR_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/scores.h"
#include "graph/graph.h"
#include "tensor/rng.h"

namespace e2gcl {

/// Configuration of a single positive-view channel (hat or tilde).
struct ViewConfig {
  /// Neighbor sampling ratio tau: each node u re-draws round(tau*|N_u|)
  /// neighbors from its 1-/2-hop candidates (Alg. 3 lines 5-12). tau < 1
  /// net-deletes edges, tau > 1 net-adds them.
  float tau = 0.8f;
  /// Feature perturbation strength eta of Eq. (16).
  float eta = 0.4f;
  /// Existing-edge preference beta of the edge score.
  float beta = 0.7f;
  /// Edge sampling follows edge scores (true) or is uniform (false) —
  /// the \S ablation of Table VIII.
  bool importance_edges = true;
  /// Feature perturbation follows feature scores (true) or uses the
  /// matched-budget uniform probability eta (false) — the \F ablation.
  bool importance_features = true;
  /// Cap on the per-node candidate set: all 1-hop neighbors are always
  /// candidates; 2-hop candidates are subsampled to this budget so dense
  /// graphs (Photo/Computers) stay tractable.
  std::int64_t max_two_hop_candidates = 24;
  /// Disable edge addition (2-hop candidates) entirely — used by the
  /// Fig. 2 operation-set study ({ED} vs {ED, EA}).
  bool allow_edge_addition = true;
  /// Disable edge deletion: every existing neighbor is kept and
  /// sampling only tops up with added edges.
  bool allow_edge_deletion = true;
  /// Disable feature perturbation ({ED, EA} only).
  bool allow_feature_perturbation = true;
};

/// Locality-preserved positive-view generator (Sec. IV, Alg. 3).
///
/// Two modes:
///  * GenerateGlobalView(): one whole-graph view per call, used for
///    training. Every node's neighborhood is re-sampled once and every
///    sampled pair becomes an undirected edge, so a node is also
///    adjacent to each node that sampled it. A root's L-hop ego-net in
///    the result is therefore a superset of its per-root view of Alg. 3,
///    which holds only the edges its own frontier sampled: a deviation
///    from Alg. 3 (DESIGN.md "Batched view generation").
///  * GeneratePerNodeView(): the literal per-root L-hop construction of
///    Alg. 3, used by tests and view-quality analysis.
class ViewGenerator {
 public:
  /// Precomputes importance scores and the existing-edge score factor of
  /// every CSR entry (O(E d + V d)); `graph` must outlive the generator.
  /// `beta` parameterizes scores().EdgeScore only: sampled views use the
  /// beta of the ViewConfig they are given.
  ViewGenerator(const Graph& graph, float beta = 0.7f);

  /// Samples one whole-graph positive view.
  Graph GenerateGlobalView(const ViewConfig& config, Rng& rng) const;

  /// The literal Alg. 3: builds the root's L-hop positive view as a
  /// standalone subgraph. Returns the subgraph; `root_index` receives
  /// the root's index inside it, and `subgraph_nodes` (optional) the
  /// original node ids.
  Graph GeneratePerNodeView(std::int64_t root, int hops,
                            const ViewConfig& config, Rng& rng,
                            std::int64_t* root_index,
                            std::vector<std::int64_t>* subgraph_nodes =
                                nullptr) const;

  const ImportanceScores& scores() const { return scores_; }
  const Graph& graph() const { return *graph_; }

 private:
  /// Samples the new neighbor set of node u under `config` (edge scores
  /// use config.beta) into `out`.
  void SampleNeighbors(std::int64_t u, const ViewConfig& config, Rng& rng,
                       std::vector<std::int64_t>& out) const;

  /// Applies Eq. (16) to one feature row (in place).
  void PerturbRow(float* row, std::int64_t node, const ViewConfig& config,
                  Rng& rng) const;

  const Graph* graph_;
  ImportanceScores scores_;
  /// scores_.NeighborTerm(u, col[e]) for every CSR entry e of row u.
  std::vector<float> neighbor_terms_;
  /// Per-node sampling scratch, reused across nodes: the 2-hop scan's
  /// bitmap and touched list, the candidate list, the reservoir of 2-hop
  /// candidates, and the candidate weights. Mutable because view
  /// sampling is logically const.
  mutable std::vector<char> seen_scratch_;
  mutable std::vector<std::int64_t> touched_scratch_;
  mutable std::vector<std::int64_t> candidates_;
  mutable std::vector<std::int64_t> two_hop_;
  mutable std::vector<float> weights_;
};

/// Quality of a generated view pair under Def. 2 / Eq. (15), measured
/// with a fixed encoder: locality = ||h_hat_v - h_v||, diversity =
/// ||r_hat_v - r_tilde_v||, averaged over `nodes`. Used by tests and the
/// Table VIII analysis to verify that importance-aware sampling
/// preserves locality better than uniform sampling.
struct ViewQuality {
  double locality_hat = 0.0;    // mean ||h-hat - h||
  double locality_tilde = 0.0;  // mean ||h-tilde - h||
  double diversity = 0.0;       // mean ||r-hat - r-tilde||
  /// The Eq. (15) objective: locality_hat + locality_tilde - diversity.
  double objective() const {
    return locality_hat + locality_tilde - diversity;
  }
};

class GcnEncoder;  // from nn/gcn.h

ViewQuality EvaluateViewQuality(const GcnEncoder& encoder, const Graph& g,
                                const Graph& view_hat,
                                const Graph& view_tilde,
                                const std::vector<std::int64_t>& nodes);

}  // namespace e2gcl

#endif  // E2GCL_CORE_VIEW_GENERATOR_H_
