#include "core/trainer.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <numeric>

#include "core/raw_aggregation.h"
#include "obs/trace.h"

namespace e2gcl {

E2gclTrainer::E2gclTrainer(const Graph& graph, const E2gclConfig& config)
    : graph_(&graph), loop_(config, graph.num_nodes, graph.feature_dim()) {
  generator_ = std::make_unique<ViewGenerator>(graph, config.view_hat.beta);
}

std::uint64_t E2gclTrainer::ConfigFingerprint() const {
  ByteWriter layout;
  layout.WriteI64(graph_->num_nodes);
  layout.WriteI64(graph_->feature_dim());
  layout.WriteI64(graph_->num_edges());
  return TrainFingerprint(config(), layout);
}

TrainResult E2gclTrainer::Train(const EpochCallback& callback) {
  const E2gclConfig& cfg = config();
  const std::int64_t n = graph_->num_nodes;
  Rng& rng = loop_.rng();
  std::vector<std::int64_t> train_nodes;
  std::vector<float> node_weights;

  TrainLoop::Spec spec;
  spec.epoch_span = "epoch";
  spec.fingerprint = ConfigFingerprint();
  spec.callback = callback;
  // --- Node selection (Sec. III). ----------------------------------------
  spec.prepare = [&] {
    if (cfg.use_selector) {
      const std::int64_t k = std::max<std::int64_t>(
          2, static_cast<std::int64_t>(std::llround(cfg.node_ratio * n)));
      SelectorConfig sel = cfg.selector;
      sel.budget = std::min<std::int64_t>(k, n);
      Matrix r = RawAggregation(*graph_, cfg.num_layers);
      selection_ = cfg.external_selector
                       ? cfg.external_selector(r, *graph_, sel, rng)
                       : SelectCoreset(r, sel, rng);
      train_nodes = selection_.nodes;
      node_weights = selection_.weights;
      loop_.stats().selection_seconds = selection_.seconds;
    } else {
      train_nodes.resize(n);
      std::iota(train_nodes.begin(), train_nodes.end(), 0);
      node_weights.assign(n, 1.0f);
    }
    return std::string();
  };
  // --- One epoch of contrastive pre-training (Alg. 1 lines 3-5). ---------
  spec.epoch = [&](int, std::int64_t, RunReport::Epoch& record) {
    // Line 3: generate the two positive views.
    const auto tv = std::chrono::steady_clock::now();
    Graph view_hat = generator_->GenerateGlobalView(cfg.view_hat, rng);
    Graph view_tilde = generator_->GenerateGlobalView(cfg.view_tilde, rng);
    auto adj_hat =
        std::make_shared<const CsrMatrix>(NormalizedAdjacency(view_hat));
    auto adj_tilde =
        std::make_shared<const CsrMatrix>(NormalizedAdjacency(view_tilde));
    record.view_seconds = SecondsSince(tv);

    const auto tl = std::chrono::steady_clock::now();
    // Sample a training batch from the (selected) node pool.
    const auto pool = static_cast<std::int64_t>(train_nodes.size());
    const std::int64_t batch = std::min<std::int64_t>(cfg.batch_size, pool);
    std::vector<std::int64_t> batch_nodes;
    std::vector<float> batch_weights;
    if (batch == pool) {
      batch_nodes = train_nodes;
      batch_weights = node_weights;
    } else {
      for (std::int64_t idx : rng.SampleWithoutReplacement(pool, batch)) {
        batch_nodes.push_back(train_nodes[idx]);
        batch_weights.push_back(node_weights[idx]);
      }
    }
    if (!cfg.use_coreset_weights) {
      batch_weights.assign(batch_nodes.size(), 1.0f);
    }

    // Lines 4-5: encode both views, contrast the batch rows.
    GcnEncoder& encoder = loop_.encoder();
    Mlp* projector = loop_.projector();
    Var x_hat = Var::Constant(view_hat.features);
    Var x_tilde = Var::Constant(view_tilde.features);
    Var h_hat = encoder.Forward(adj_hat, x_hat, rng, /*training=*/true);
    Var h_tilde = encoder.Forward(adj_tilde, x_tilde, rng, /*training=*/true);
    Var z_hat = ag::GatherRows(h_hat, batch_nodes);
    Var z_tilde = ag::GatherRows(h_tilde, batch_nodes);
    if (projector != nullptr) {
      z_hat = projector->Forward(z_hat, rng, /*training=*/true);
      z_tilde = projector->Forward(z_tilde, rng, /*training=*/true);
    }
    Var loss = ComputeContrastiveLoss(cfg.loss, z_hat, z_tilde,
                                      cfg.temperature, rng, batch_weights);
    loop_.ZeroGrad();
    loss.Backward();
    record.loss_seconds = SecondsSince(tl);
    return static_cast<double>(loss.value()(0, 0));
  };
  return loop_.Run(spec);
}

}  // namespace e2gcl
