#include "baselines/dgi.h"

#include <chrono>
#include <numeric>

#include "autograd/loss.h"
#include "nn/optim.h"
#include "obs/trace.h"
#include "tensor/check.h"

namespace e2gcl {

DgiTrainer::DgiTrainer(const Graph& graph, const DgiConfig& config)
    : graph_(&graph), config_(config), rng_(config.seed) {
  GcnConfig enc;
  enc.dims.assign(config.num_layers + 1, config.hidden_dim);
  enc.dims.front() = graph.feature_dim();
  enc.dims.back() = config.embed_dim;
  enc.prelu = true;
  enc.final_activation = true;
  encoder_ = std::make_unique<GcnEncoder>(enc, rng_);
  disc_w_ = disc_params_.Create(
      GlorotUniform(config.embed_dim, config.embed_dim, rng_));
}

void DgiTrainer::Train(const EpochCallback& callback) {
  const auto t0 = std::chrono::steady_clock::now();
  const Graph& g = *graph_;
  const std::int64_t n = g.num_nodes;
  auto adj = std::make_shared<const CsrMatrix>(NormalizedAdjacency(g));

  std::vector<Var> params;
  for (const Var& p : encoder_->params().params()) params.push_back(p);
  params.push_back(disc_w_);
  Adam::Options opts;
  opts.lr = config_.lr;
  opts.weight_decay = config_.weight_decay;
  Adam adam(params, opts);

  const std::int64_t batch = std::min<std::int64_t>(config_.batch_size, n);
  for (int epoch = 0; epoch < config_.epochs; ++epoch) {
    // Corruption: shuffle feature rows over the same topology.
    std::vector<std::int64_t> perm(n);
    std::iota(perm.begin(), perm.end(), 0);
    rng_.Shuffle(perm);
    Matrix corrupted = GatherRows(g.features, perm);

    Var h_pos = encoder_->Forward(adj, Var::Constant(g.features), rng_, true);
    Var h_neg =
        encoder_->Forward(adj, Var::Constant(corrupted), rng_, true);
    // Summary s = sigmoid(mean over nodes).
    Var summary = ag::Sigmoid(ag::MeanRows(h_pos));

    std::vector<std::int64_t> batch_nodes =
        rng_.SampleWithoutReplacement(n, batch);
    Var hp = ag::GatherRows(h_pos, batch_nodes);
    Var hn = ag::GatherRows(h_neg, batch_nodes);
    // Bilinear score: h W s^T.
    Var ws = ag::MatMulTransposedB(disc_w_, summary);  // d x 1
    Var logits_pos = ag::MatMul(hp, ws);               // batch x 1
    Var logits_neg = ag::MatMul(hn, ws);

    std::vector<float> targets(2 * batch, 0.0f);
    for (std::int64_t i = 0; i < batch; ++i) targets[i] = 1.0f;
    // Stack by computing the two BCEs separately (same as concatenated).
    Var loss_pos = ag::BceWithLogits(
        logits_pos, std::vector<float>(batch, 1.0f));
    Var loss_neg = ag::BceWithLogits(
        logits_neg, std::vector<float>(batch, 0.0f));
    Var loss = ag::Scale(ag::Add(loss_pos, loss_neg), 0.5f);

    adam.ZeroGrad();
    loss.Backward();
    adam.Step();
    stats_.epochs_run = epoch + 1;
    if (callback) callback(epoch, SecondsSince(t0), *encoder_);
  }
  stats_.total_seconds = SecondsSince(t0);
}

}  // namespace e2gcl
