#include "core/view_generator.h"

#include <algorithm>
#include <cmath>
#include <queue>
#include <unordered_map>
#include <unordered_set>

#include "core/raw_aggregation.h"
#include "nn/gcn.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tensor/check.h"

namespace e2gcl {

namespace {

// View-generation telemetry. All of these sit on serial, RNG-driven
// paths, so the counts are identical at any thread count.
const Counter& ViewsCounter() {
  static const Counter c = Counter::Get("viewgen.views");
  return c;
}
const Counter& EdgesSampledCounter() {
  static const Counter c = Counter::Get("viewgen.edges_sampled");
  return c;
}
const Counter& CandidatesCounter() {
  static const Counter c = Counter::Get("viewgen.edge_candidates");
  return c;
}
const Counter& FeaturesPerturbedCounter() {
  static const Counter c = Counter::Get("viewgen.features_perturbed");
  return c;
}

}  // namespace

ViewGenerator::ViewGenerator(const Graph& graph, float beta)
    : graph_(&graph), scores_(graph, beta) {
  // The existing-edge factor of the edge score depends on the graph
  // alone, so it is computed once per CSR entry; per view, only the
  // sampled 2-hop candidates still need a score evaluated.
  neighbor_terms_.resize(graph.col.size());
  for (std::int64_t u = 0; u < graph.num_nodes; ++u) {
    for (std::int64_t e = graph.row_ptr[u]; e < graph.row_ptr[u + 1]; ++e) {
      neighbor_terms_[e] = scores_.NeighborTerm(u, graph.col[e]);
    }
  }
}

void ViewGenerator::SampleNeighbors(std::int64_t u, const ViewConfig& config,
                                    Rng& rng,
                                    std::vector<std::int64_t>& out) const {
  out.clear();
  const Graph& g = *graph_;
  const auto nb = g.Neighbors(u);
  const std::int64_t deg = static_cast<std::int64_t>(nb.size());
  if (deg == 0) return;

  // Candidate set V_u^N = N_u^1 (always, all of it: candidates_[0, deg))
  // plus a subsample of N_u^2 (capped for dense graphs). A shared scratch
  // bitmap (reset via the touched list) keeps the dense-graph 2-hop scan
  // allocation- and hash-free; this loop dominates view-generation cost.
  candidates_.assign(nb.begin(), nb.end());
  if (config.allow_edge_addition && config.max_two_hop_candidates > 0) {
    if (static_cast<std::int64_t>(seen_scratch_.size()) < g.num_nodes) {
      seen_scratch_.assign(g.num_nodes, 0);
    }
    touched_scratch_.clear();
    auto mark = [&](std::int64_t x) {
      seen_scratch_[x] = 1;
      touched_scratch_.push_back(x);
    };
    mark(u);
    for (std::int32_t w : nb) mark(w);
    // Reservoir-sample 2-hop candidates without materializing the full
    // 2-hop set on dense graphs.
    two_hop_.clear();
    std::int64_t count = 0;
    for (std::int32_t w : nb) {
      for (std::int32_t x : g.Neighbors(w)) {
        if (seen_scratch_[x]) continue;
        ++count;
        if (static_cast<std::int64_t>(two_hop_.size()) <
            config.max_two_hop_candidates) {
          two_hop_.push_back(x);
          mark(x);
        } else {
          const std::int64_t j = rng.UniformInt(count);
          if (j < config.max_two_hop_candidates) {
            // Replacement without unmarking keeps the pass O(1);
            // duplicates are impossible because marks only grow and
            // marked nodes are skipped.
            mark(x);
            two_hop_[j] = x;
          }
        }
      }
    }
    candidates_.insert(candidates_.end(), two_hop_.begin(), two_hop_.end());
    for (std::int64_t x : touched_scratch_) seen_scratch_[x] = 0;
  }
  const std::int64_t num_candidates =
      static_cast<std::int64_t>(candidates_.size());

  CandidatesCounter().Add(num_candidates);

  // Number of neighbors to draw: round(tau * |N_u|), at least 1 so no
  // node is isolated unless tau == 0, capped by the candidate count.
  std::int64_t want = static_cast<std::int64_t>(
      std::llround(static_cast<double>(config.tau) * deg));
  if (config.tau > 0.0f) want = std::max<std::int64_t>(want, 1);
  want = std::min<std::int64_t>(want, num_candidates);
  if (want <= 0) return;

  // Edge scores under this channel's beta: beta times the cached
  // existing-edge term, (1 - beta) times the candidate term.
  auto candidate_weight = [&](std::int64_t i) {
    return config.importance_edges
               ? (1.0f - config.beta) * scores_.CandidateTerm(u, candidates_[i])
               : 1.0f;
  };

  if (!config.allow_edge_deletion) {
    // Keep all existing neighbors; only top up with additions.
    out.assign(nb.begin(), nb.end());
    const std::int64_t extra = want > deg ? want - deg : 0;
    if (extra > 0 && num_candidates > deg) {
      weights_.resize(num_candidates - deg);
      for (std::int64_t i = deg; i < num_candidates; ++i) {
        weights_[i - deg] = candidate_weight(i);
      }
      for (std::int64_t idx :
           rng.WeightedSampleWithoutReplacement(weights_, extra)) {
        out.push_back(candidates_[deg + idx]);
      }
    }
    EdgesSampledCounter().Add(out.size());
    return;
  }

  weights_.resize(num_candidates);
  const float* neighbor_terms = neighbor_terms_.data() + g.row_ptr[u];
  for (std::int64_t i = 0; i < deg; ++i) {
    weights_[i] =
        config.importance_edges ? config.beta * neighbor_terms[i] : 1.0f;
  }
  for (std::int64_t i = deg; i < num_candidates; ++i) {
    weights_[i] = candidate_weight(i);
  }
  for (std::int64_t idx : rng.WeightedSampleWithoutReplacement(weights_, want)) {
    out.push_back(candidates_[idx]);
  }
  EdgesSampledCounter().Add(out.size());
}

void ViewGenerator::PerturbRow(float* row, std::int64_t node,
                               const ViewConfig& config, Rng& rng) const {
  if (!config.allow_feature_perturbation || config.eta <= 0.0f) return;
  const std::int64_t d = graph_->feature_dim();
  std::uint64_t perturbed = 0;
  for (std::int64_t i = 0; i < d; ++i) {
    const float p =
        config.importance_features
            ? scores_.PerturbProbability(node, i, config.eta)
            : std::min(config.eta, ImportanceScores::kProbabilityCap);
    if (rng.Bernoulli(p)) {
      // Eq. (16): x += U(-1, 1) * x.
      row[i] += (2.0f * rng.Uniform() - 1.0f) * row[i];
      ++perturbed;
    }
  }
  if (perturbed > 0) FeaturesPerturbedCounter().Add(perturbed);
}

Graph ViewGenerator::GenerateGlobalView(const ViewConfig& config,
                                        Rng& rng) const {
  TraceSpan view_span("generate_view");
  ViewsCounter().Increment();
  const Graph& g = *graph_;
  std::vector<std::pair<std::int64_t, std::int64_t>> edges;
  edges.reserve(g.col.size() / 2 + g.num_nodes);
  std::vector<std::int64_t> sampled;
  for (std::int64_t u = 0; u < g.num_nodes; ++u) {
    SampleNeighbors(u, config, rng, sampled);
    for (std::int64_t v : sampled) {
      edges.emplace_back(std::min(u, v), std::max(u, v));
    }
  }
  Matrix x = g.features;
  for (std::int64_t v = 0; v < g.num_nodes; ++v) {
    PerturbRow(x.RowPtr(v), v, config, rng);
  }
  return BuildGraph(g.num_nodes, edges, std::move(x), g.labels,
                    g.num_classes);
}

Graph ViewGenerator::GeneratePerNodeView(
    std::int64_t root, int hops, const ViewConfig& config, Rng& rng,
    std::int64_t* root_index,
    std::vector<std::int64_t>* subgraph_nodes) const {
  TraceSpan view_span("generate_view");
  ViewsCounter().Increment();
  const Graph& g = *graph_;
  E2GCL_CHECK(root >= 0 && root < g.num_nodes);
  E2GCL_CHECK(hops >= 1);

  // Alg. 3 lines 3-12: expand frontier by frontier, sampling each
  // frontier node's neighbors once. `in_view`/`expanded` are
  // membership checks only; discovered nodes are collected into
  // `nodes` in insertion order so the (sorted) subgraph never depends
  // on hash iteration order.
  std::unordered_set<std::int64_t> in_view{root};
  std::vector<std::int64_t> nodes{root};
  std::vector<std::int64_t> frontier{root};
  std::vector<std::pair<std::int64_t, std::int64_t>> edges;
  std::unordered_set<std::int64_t> expanded;
  std::vector<std::int64_t> sampled;
  for (int l = 0; l < hops; ++l) {
    std::vector<std::int64_t> next;
    for (std::int64_t u : frontier) {
      if (!expanded.insert(u).second) continue;
      SampleNeighbors(u, config, rng, sampled);
      for (std::int64_t v : sampled) {
        edges.emplace_back(u, v);
        if (in_view.insert(v).second) {
          nodes.push_back(v);
          next.push_back(v);
        }
      }
    }
    frontier = std::move(next);
  }

  // Remap to a compact subgraph.
  std::sort(nodes.begin(), nodes.end());
  std::unordered_map<std::int64_t, std::int64_t> remap;
  for (std::size_t i = 0; i < nodes.size(); ++i) remap[nodes[i]] = i;
  std::vector<std::pair<std::int64_t, std::int64_t>> local_edges;
  local_edges.reserve(edges.size());
  for (const auto& [a, b] : edges) {
    local_edges.emplace_back(remap[a], remap[b]);
  }
  Matrix x = GatherRows(g.features, nodes);
  // Lines 13-16: perturb features of every node in the view.
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    PerturbRow(x.RowPtr(i), nodes[i], config, rng);
  }
  std::vector<std::int64_t> labels;
  if (!g.labels.empty()) {
    for (std::int64_t v : nodes) labels.push_back(g.labels[v]);
  }
  if (root_index != nullptr) *root_index = remap[root];
  if (subgraph_nodes != nullptr) *subgraph_nodes = nodes;
  return BuildGraph(static_cast<std::int64_t>(nodes.size()), local_edges,
                    std::move(x), std::move(labels), g.num_classes);
}

ViewQuality EvaluateViewQuality(const GcnEncoder& encoder, const Graph& g,
                                const Graph& view_hat,
                                const Graph& view_tilde,
                                const std::vector<std::int64_t>& nodes) {
  E2GCL_CHECK(!nodes.empty());
  E2GCL_CHECK(view_hat.num_nodes == g.num_nodes &&
              view_tilde.num_nodes == g.num_nodes);
  const Matrix h = encoder.Encode(g);
  const Matrix h_hat = encoder.Encode(view_hat);
  const Matrix h_tilde = encoder.Encode(view_tilde);
  const int layers = encoder.num_layers();
  const Matrix r_hat = RawAggregation(view_hat, layers);
  const Matrix r_tilde = RawAggregation(view_tilde, layers);

  ViewQuality q;
  for (std::int64_t v : nodes) {
    q.locality_hat += RowDistance(h_hat, v, h, v);
    q.locality_tilde += RowDistance(h_tilde, v, h, v);
    q.diversity += RowDistance(r_hat, v, r_tilde, v);
  }
  const double inv = 1.0 / static_cast<double>(nodes.size());
  q.locality_hat *= inv;
  q.locality_tilde *= inv;
  q.diversity *= inv;
  return q;
}

}  // namespace e2gcl
