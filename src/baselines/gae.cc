#include "baselines/gae.h"

#include <chrono>
#include <cmath>

#include "autograd/loss.h"
#include "nn/optim.h"
#include "obs/trace.h"
#include "tensor/check.h"

namespace e2gcl {

GaeTrainer::GaeTrainer(const Graph& graph, const GaeConfig& config)
    : graph_(&graph), config_(config), rng_(config.seed) {
  GcnConfig enc;
  enc.dims = {graph.feature_dim(), config.hidden_dim, config.embed_dim};
  encoder_ = std::make_unique<GcnEncoder>(enc, rng_);
  if (config.variational) {
    logvar_ = std::make_unique<GcnEncoder>(enc, rng_);
  }
  edges_ = UndirectedEdges(graph);
}

Matrix GaeTrainer::Embed() const { return encoder_->Encode(*graph_); }

void GaeTrainer::Train(const EpochCallback& callback) {
  const auto t0 = std::chrono::steady_clock::now();
  const Graph& g = *graph_;
  const std::int64_t n = g.num_nodes;
  auto adj = std::make_shared<const CsrMatrix>(NormalizedAdjacency(g));

  std::vector<Var> params;
  for (const Var& p : encoder_->params().params()) params.push_back(p);
  if (logvar_ != nullptr) {
    for (const Var& p : logvar_->params().params()) params.push_back(p);
  }
  Adam::Options opts;
  opts.lr = config_.lr;
  opts.weight_decay = config_.weight_decay;
  Adam adam(params, opts);

  const std::int64_t m = static_cast<std::int64_t>(edges_.size());
  const std::int64_t batch = std::min<std::int64_t>(config_.batch_edges, m);
  for (int epoch = 0; epoch < config_.epochs; ++epoch) {
    Var mu = encoder_->Forward(adj, Var::Constant(g.features), rng_, true);
    Var z = mu;
    Var kl;
    if (logvar_ != nullptr) {
      Var logvar =
          logvar_->Forward(adj, Var::Constant(g.features), rng_, true);
      // Reparameterize: z = mu + exp(logvar / 2) * eps.
      Matrix eps_m =
          Matrix::RandomNormal(mu.rows(), mu.cols(), 0.0f, 1.0f, rng_);
      Var eps = Var::Constant(std::move(eps_m));
      Var std_dev = ag::Exp(ag::Scale(logvar, 0.5f));
      z = ag::Add(mu, ag::Hadamard(std_dev, eps));
      // KL(q || N(0,I)) = -0.5 * mean(1 + logvar - mu^2 - exp(logvar)).
      Var one = Var::Constant(Matrix(mu.rows(), mu.cols(), 1.0f));
      Var term = ag::Sub(ag::Add(one, logvar),
                         ag::Add(ag::Hadamard(mu, mu), ag::Exp(logvar)));
      kl = ag::Scale(ag::MeanAll(term), -0.5f);
    }

    // Edge batch: positive edges + equal sampled negatives.
    std::vector<std::int64_t> left, right;
    std::vector<float> targets;
    for (std::int64_t idx : rng_.SampleWithoutReplacement(m, batch)) {
      left.push_back(edges_[idx].first);
      right.push_back(edges_[idx].second);
      targets.push_back(1.0f);
    }
    std::int64_t made = 0;
    while (made < batch) {
      const std::int64_t u = rng_.UniformInt(n);
      const std::int64_t v = rng_.UniformInt(n);
      if (u == v || g.HasEdge(u, v)) continue;
      left.push_back(u);
      right.push_back(v);
      targets.push_back(0.0f);
      ++made;
    }
    Var zu = ag::GatherRows(z, left);
    Var zv = ag::GatherRows(z, right);
    // Inner-product decoder: logits = sum(zu * zv, dim).
    Var prod = ag::Hadamard(zu, zv);
    Var ones = Var::Constant(Matrix(z.cols(), 1, 1.0f));
    Var logits = ag::MatMul(prod, ones);
    Var loss = ag::BceWithLogits(logits, targets);
    if (kl.defined()) {
      loss = ag::Add(loss, ag::Scale(kl, config_.kl_weight));
    }

    adam.ZeroGrad();
    loss.Backward();
    adam.Step();
    stats_.epochs_run = epoch + 1;
    if (callback) callback(epoch, SecondsSince(t0), *encoder_);
  }
  stats_.total_seconds = SecondsSince(t0);
}

}  // namespace e2gcl
