#include "baselines/bgrl.h"

#include <chrono>

#include "autograd/loss.h"
#include "nn/optim.h"
#include "obs/trace.h"
#include "tensor/check.h"

namespace e2gcl {

BgrlTrainer::BgrlTrainer(const Graph& graph, const BgrlConfig& config)
    : graph_(&graph), config_(config), rng_(config.seed) {
  GcnConfig enc;
  enc.dims.assign(config.num_layers + 1, config.hidden_dim);
  enc.dims.front() = graph.feature_dim();
  enc.dims.back() = config.embed_dim;
  enc.dropout = config.dropout;
  online_ = std::make_unique<GcnEncoder>(enc, rng_);
  target_ = std::make_unique<GcnEncoder>(enc, rng_);
  // Target starts as a copy of online.
  target_->params().LoadValues(online_->params().CloneValues());
  MlpConfig pred;
  pred.dims = {config.embed_dim, config.embed_dim, config.embed_dim};
  pred.batch_norm = true;  // BYOL-style predictors collapse without BN.
  predictor_ = std::make_unique<Mlp>(pred, rng_);
  edges_ = UndirectedEdges(graph);
}

Graph BgrlTrainer::SampleView(float drop_edge, float mask_feature) {
  const Graph& g = *graph_;
  std::vector<std::pair<std::int64_t, std::int64_t>> kept;
  kept.reserve(edges_.size());
  for (const auto& e : edges_) {
    if (!rng_.Bernoulli(drop_edge)) kept.push_back(e);
  }
  Matrix feats = g.features;
  if (mask_feature > 0.0f) {
    const std::int64_t d = g.feature_dim();
    std::vector<char> mask(d, 0);
    for (std::int64_t i = 0; i < d; ++i) {
      mask[i] = rng_.Bernoulli(mask_feature) ? 1 : 0;
    }
    for (std::int64_t v = 0; v < g.num_nodes; ++v) {
      float* row = feats.RowPtr(v);
      for (std::int64_t i = 0; i < d; ++i) {
        if (mask[i]) row[i] = 0.0f;
      }
    }
  }
  return BuildGraph(g.num_nodes, kept, std::move(feats), g.labels,
                    g.num_classes);
}

void BgrlTrainer::Train(const EpochCallback& callback) {
  const auto t0 = std::chrono::steady_clock::now();
  const Graph& g = *graph_;
  const std::int64_t n = g.num_nodes;

  std::vector<Var> params;
  for (const Var& p : online_->params().params()) params.push_back(p);
  for (const Var& p : predictor_->params().params()) params.push_back(p);
  Adam::Options opts;
  opts.lr = config_.lr;
  opts.weight_decay = config_.weight_decay;
  Adam adam(params, opts);

  auto base_adj = std::make_shared<const CsrMatrix>(NormalizedAdjacency(g));
  auto rw_adj =
      std::make_shared<const CsrMatrix>(RowNormalizedAdjacency(g));

  const std::int64_t batch = std::min<std::int64_t>(config_.batch_size, n);
  for (int epoch = 0; epoch < config_.epochs; ++epoch) {
    std::vector<std::int64_t> batch_nodes =
        rng_.SampleWithoutReplacement(n, batch);

    Var loss;
    if (config_.augmentation_free) {
      // AFGRL-style: online prediction of neighborhood-averaged target
      // embeddings on the unaugmented graph.
      Var h_on =
          online_->Forward(base_adj, Var::Constant(g.features), rng_, true);
      Matrix h_tg = target_->Encode(g);
      Matrix h_tg_nb = Spmm(*rw_adj, h_tg);  // neighbor-mean targets
      Var p = predictor_->Forward(ag::GatherRows(h_on, batch_nodes), rng_,
                                  true);
      Var y = Var::Constant(GatherRows(h_tg_nb, batch_nodes));
      loss = ag::CosinePredictionLoss(p, y);
    } else {
      const auto tv = std::chrono::steady_clock::now();
      Graph v1 = SampleView(config_.drop_edge_1, config_.mask_feature_1);
      Graph v2 = SampleView(config_.drop_edge_2, config_.mask_feature_2);
      auto a1 = std::make_shared<const CsrMatrix>(NormalizedAdjacency(v1));
      auto a2 = std::make_shared<const CsrMatrix>(NormalizedAdjacency(v2));
      stats_.view_seconds += SecondsSince(tv);

      Var h1 = online_->Forward(a1, Var::Constant(v1.features), rng_, true);
      Var h2 = online_->Forward(a2, Var::Constant(v2.features), rng_, true);
      Matrix t1 = [&] {
        Rng tmp(0);
        Var ht = target_->Forward(a1, Var::Constant(v1.features), tmp, false);
        return ht.value();
      }();
      Matrix t2 = [&] {
        Rng tmp(0);
        Var ht = target_->Forward(a2, Var::Constant(v2.features), tmp, false);
        return ht.value();
      }();
      Var p1 = predictor_->Forward(ag::GatherRows(h1, batch_nodes), rng_,
                                   true);
      Var p2 = predictor_->Forward(ag::GatherRows(h2, batch_nodes), rng_,
                                   true);
      Var y2 = Var::Constant(GatherRows(t2, batch_nodes));
      Var y1 = Var::Constant(GatherRows(t1, batch_nodes));
      loss = ag::Scale(ag::Add(ag::CosinePredictionLoss(p1, y2),
                               ag::CosinePredictionLoss(p2, y1)),
                       0.5f);
    }

    adam.ZeroGrad();
    loss.Backward();
    adam.Step();
    target_->params().EmaUpdateFrom(online_->params(), config_.ema_decay);
    stats_.epochs_run = epoch + 1;
    if (callback) callback(epoch, SecondsSince(t0), *online_);
  }
  stats_.total_seconds = SecondsSince(t0);
}

}  // namespace e2gcl
