#include "baselines/mvgrl.h"

#include <chrono>
#include <numeric>

#include "autograd/loss.h"
#include "nn/optim.h"
#include "obs/trace.h"
#include "tensor/check.h"

namespace e2gcl {

MvgrlTrainer::MvgrlTrainer(const Graph& graph, const MvgrlConfig& config)
    : graph_(&graph), config_(config), rng_(config.seed) {
  const auto t0 = std::chrono::steady_clock::now();
  diffusion_ = DiffusionGraph(graph, config.ppr);
  stats_.view_seconds = SecondsSince(t0);

  GcnConfig enc;
  enc.dims.assign(config.num_layers + 1, config.hidden_dim);
  enc.dims.front() = graph.feature_dim();
  enc.dims.back() = config.embed_dim;
  enc.prelu = true;
  enc.final_activation = true;
  enc_a_ = std::make_unique<GcnEncoder>(enc, rng_);
  enc_d_ = std::make_unique<GcnEncoder>(enc, rng_);
  disc_w_ = disc_params_.Create(
      GlorotUniform(config.embed_dim, config.embed_dim, rng_));
}

Matrix MvgrlTrainer::Embed() const {
  Matrix ha = enc_a_->Encode(*graph_);
  Matrix hd = enc_d_->Encode(diffusion_);
  AddInPlace(ha, hd);
  return ha;
}

void MvgrlTrainer::Train(const EpochCallback& callback) {
  const auto t0 = std::chrono::steady_clock::now();
  const Graph& g = *graph_;
  const std::int64_t n = g.num_nodes;
  auto adj_a = std::make_shared<const CsrMatrix>(NormalizedAdjacency(g));
  auto adj_d =
      std::make_shared<const CsrMatrix>(NormalizedAdjacency(diffusion_));

  std::vector<Var> params;
  for (const Var& p : enc_a_->params().params()) params.push_back(p);
  for (const Var& p : enc_d_->params().params()) params.push_back(p);
  params.push_back(disc_w_);
  Adam::Options opts;
  opts.lr = config_.lr;
  opts.weight_decay = config_.weight_decay;
  Adam adam(params, opts);

  const std::int64_t batch = std::min<std::int64_t>(config_.batch_size, n);
  for (int epoch = 0; epoch < config_.epochs; ++epoch) {
    std::vector<std::int64_t> perm(n);
    std::iota(perm.begin(), perm.end(), 0);
    rng_.Shuffle(perm);

    Matrix inputs = g.features;
    if (config_.feature_perturb_eta > 0.0f) {
      const float eta = std::min(config_.feature_perturb_eta, 0.95f);
      for (std::int64_t i = 0; i < inputs.size(); ++i) {
        if (rng_.Bernoulli(eta)) {
          inputs.data()[i] +=
              (2.0f * rng_.Uniform() - 1.0f) * inputs.data()[i];
        }
      }
    }
    Matrix corrupted = GatherRows(inputs, perm);

    Var ha = enc_a_->Forward(adj_a, Var::Constant(inputs), rng_, true);
    Var hd = enc_d_->Forward(adj_d, Var::Constant(inputs), rng_, true);
    Var ha_neg =
        enc_a_->Forward(adj_a, Var::Constant(corrupted), rng_, true);
    Var hd_neg =
        enc_d_->Forward(adj_d, Var::Constant(corrupted), rng_, true);

    Var sum_a = ag::Sigmoid(ag::MeanRows(ha));
    Var sum_d = ag::Sigmoid(ag::MeanRows(hd));

    std::vector<std::int64_t> batch_nodes =
        rng_.SampleWithoutReplacement(n, batch);
    // Cross-view scores: nodes of one view vs summary of the other.
    Var ws_a = ag::MatMulTransposedB(disc_w_, sum_a);  // d x 1
    Var ws_d = ag::MatMulTransposedB(disc_w_, sum_d);
    Var pos_ad = ag::MatMul(ag::GatherRows(ha, batch_nodes), ws_d);
    Var pos_da = ag::MatMul(ag::GatherRows(hd, batch_nodes), ws_a);
    Var neg_ad = ag::MatMul(ag::GatherRows(ha_neg, batch_nodes), ws_d);
    Var neg_da = ag::MatMul(ag::GatherRows(hd_neg, batch_nodes), ws_a);

    const std::vector<float> ones(batch, 1.0f);
    const std::vector<float> zeros(batch, 0.0f);
    Var loss = ag::Scale(
        ag::Add(ag::Add(ag::BceWithLogits(pos_ad, ones),
                        ag::BceWithLogits(pos_da, ones)),
                ag::Add(ag::BceWithLogits(neg_ad, zeros),
                        ag::BceWithLogits(neg_da, zeros))),
        0.25f);

    adam.ZeroGrad();
    loss.Backward();
    adam.Step();
    stats_.epochs_run = epoch + 1;
    if (callback) callback(epoch, SecondsSince(t0), *enc_a_);
  }
  stats_.total_seconds = SecondsSince(t0) + stats_.view_seconds;
}

}  // namespace e2gcl
