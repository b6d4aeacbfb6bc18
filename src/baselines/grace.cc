#include "baselines/grace.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <numeric>

#include "nn/optim.h"
#include "obs/trace.h"
#include "tensor/check.h"

namespace e2gcl {

GraceTrainer::GraceTrainer(const Graph& graph, const GraceConfig& config)
    : graph_(&graph), config_(config), rng_(config.seed) {
  GcnConfig enc;
  enc.dims.assign(config.num_layers + 1, config.hidden_dim);
  enc.dims.front() = graph.feature_dim();
  enc.dims.back() = config.embed_dim;
  enc.dropout = config.dropout;
  encoder_ = std::make_unique<GcnEncoder>(enc, rng_);
  if (config.projection_head) {
    MlpConfig proj;
    proj.dims = {config.embed_dim, config.embed_dim, config.embed_dim};
    projector_ = std::make_unique<Mlp>(proj, rng_);
  }

  edges_ = UndirectedEdges(graph);
  if (config.adaptive) {
    // GCA: drop probability of edge (u, v) grows as the mean endpoint
    // degree centrality shrinks (peripheral edges dropped more).
    auto cent = DegreeCentrality(graph);
    edge_keep_weight_.reserve(edges_.size());
    float mx = 0.0f;
    double sum = 0.0;
    std::vector<float> s(edges_.size());
    for (std::size_t i = 0; i < edges_.size(); ++i) {
      s[i] = 0.5f * (cent[edges_[i].first] + cent[edges_[i].second]);
      mx = std::max(mx, s[i]);
      sum += s[i];
    }
    const float mean = static_cast<float>(sum / std::max<std::size_t>(
                                                    edges_.size(), 1));
    const float denom = std::max(mx - mean, 1e-9f);
    for (std::size_t i = 0; i < edges_.size(); ++i) {
      // Normalized "unimportance" in [0, ~]: higher => drop more.
      edge_keep_weight_.push_back((mx - s[i]) / denom);
    }
    // Feature-mask weights: inverse frequency weighted by centrality
    // (same signal as E2GCL's feature score).
    const std::int64_t d = graph.feature_dim();
    feature_mask_weight_.assign(d, 0.0f);
    for (std::int64_t v = 0; v < graph.num_nodes; ++v) {
      const float* row = graph.features.RowPtr(v);
      for (std::int64_t i = 0; i < d; ++i) {
        feature_mask_weight_[i] += cent[v] * std::fabs(row[i]);
      }
    }
    float fmx = 0.0f;
    double fsum = 0.0;
    for (float& w : feature_mask_weight_) {
      w = std::log1p(w);
      fmx = std::max(fmx, w);
      fsum += w;
    }
    const float fmean = static_cast<float>(fsum / d);
    const float fdenom = std::max(fmx - fmean, 1e-9f);
    for (float& w : feature_mask_weight_) w = (fmx - w) / fdenom;
  }
}

Graph GraceTrainer::SampleView(float drop_edge, float mask_feature,
                               Rng& rng) const {
  const Graph& g = *graph_;
  std::vector<std::pair<std::int64_t, std::int64_t>> kept;
  kept.reserve(edges_.size());
  for (std::size_t i = 0; i < edges_.size(); ++i) {
    float p_drop = drop_edge;
    if (config_.adaptive && !edge_keep_weight_.empty()) {
      p_drop = std::min(drop_edge * edge_keep_weight_[i], 0.95f);
    }
    if (!rng.Bernoulli(p_drop)) kept.push_back(edges_[i]);
  }
  // EA upgrade: random 2-hop edge additions.
  if (config_.add_edge_ratio > 0.0f) {
    const std::int64_t extra = static_cast<std::int64_t>(std::floor(
        config_.add_edge_ratio * static_cast<float>(edges_.size())));
    for (std::int64_t i = 0; i < extra; ++i) {
      const std::int64_t u = rng.UniformInt(g.num_nodes);
      if (g.Degree(u) == 0) continue;
      const auto nb = g.Neighbors(u);
      const std::int64_t w = nb[rng.UniformInt(nb.size())];
      const auto nb2 = g.Neighbors(w);
      if (nb2.empty()) continue;
      const std::int64_t x = nb2[rng.UniformInt(nb2.size())];
      if (x != u) kept.emplace_back(std::min<std::int64_t>(u, x),
                                    std::max<std::int64_t>(u, x));
    }
  }

  Matrix feats = g.features;
  const std::int64_t d = g.feature_dim();
  if (config_.mask_features && mask_feature > 0.0f) {
    // GRACE masks whole dimensions per view.
    std::vector<char> mask(d, 0);
    for (std::int64_t i = 0; i < d; ++i) {
      float p = mask_feature;
      if (config_.adaptive && !feature_mask_weight_.empty()) {
        p = std::min(mask_feature * feature_mask_weight_[i], 0.95f);
      }
      mask[i] = rng.Bernoulli(p) ? 1 : 0;
    }
    for (std::int64_t v = 0; v < g.num_nodes; ++v) {
      float* row = feats.RowPtr(v);
      for (std::int64_t i = 0; i < d; ++i) {
        if (mask[i]) row[i] = 0.0f;
      }
    }
  }
  // FP upgrade: Eq. 16-style multiplicative noise.
  if (config_.feature_perturb_eta > 0.0f) {
    const float eta = std::min(config_.feature_perturb_eta, 0.95f);
    for (std::int64_t v = 0; v < g.num_nodes; ++v) {
      float* row = feats.RowPtr(v);
      for (std::int64_t i = 0; i < d; ++i) {
        if (rng.Bernoulli(eta)) {
          row[i] += (2.0f * rng.Uniform() - 1.0f) * row[i];
        }
      }
    }
  }
  return BuildGraph(g.num_nodes, kept, std::move(feats), g.labels,
                    g.num_classes);
}

void GraceTrainer::Train(const EpochCallback& callback) {
  const auto t0 = std::chrono::steady_clock::now();
  const std::int64_t n = graph_->num_nodes;

  std::vector<Var> params;
  for (const Var& p : encoder_->params().params()) params.push_back(p);
  if (projector_ != nullptr) {
    for (const Var& p : projector_->params().params()) params.push_back(p);
  }
  Adam::Options opts;
  opts.lr = config_.lr;
  opts.weight_decay = config_.weight_decay;
  Adam adam(params, opts);

  const std::int64_t batch = std::min<std::int64_t>(config_.batch_size, n);
  for (int epoch = 0; epoch < config_.epochs; ++epoch) {
    const auto tv = std::chrono::steady_clock::now();
    Graph v1 = SampleView(config_.drop_edge_1, config_.mask_feature_1, rng_);
    Graph v2 = SampleView(config_.drop_edge_2, config_.mask_feature_2, rng_);
    auto a1 = std::make_shared<const CsrMatrix>(NormalizedAdjacency(v1));
    auto a2 = std::make_shared<const CsrMatrix>(NormalizedAdjacency(v2));
    stats_.view_seconds += SecondsSince(tv);

    std::vector<std::int64_t> batch_nodes =
        rng_.SampleWithoutReplacement(n, batch);

    Var h1 = encoder_->Forward(a1, Var::Constant(v1.features), rng_, true);
    Var h2 = encoder_->Forward(a2, Var::Constant(v2.features), rng_, true);
    Var z1 = ag::GatherRows(h1, batch_nodes);
    Var z2 = ag::GatherRows(h2, batch_nodes);
    if (projector_ != nullptr) {
      z1 = projector_->Forward(z1, rng_, true);
      z2 = projector_->Forward(z2, rng_, true);
    }
    Var loss = ag::InfoNce(ag::NormalizeRowsL2(z1), ag::NormalizeRowsL2(z2),
                           config_.temperature);
    adam.ZeroGrad();
    loss.Backward();
    adam.Step();
    stats_.epochs_run = epoch + 1;
    if (callback) callback(epoch, SecondsSince(t0), *encoder_);
  }
  stats_.total_seconds = SecondsSince(t0);
}

}  // namespace e2gcl
