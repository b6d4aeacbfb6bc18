#include "shard/sharded_trainer.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <numeric>

#include "core/raw_aggregation.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tensor/check.h"

namespace e2gcl {

namespace {

std::uint64_t SplitMix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

constexpr std::uint64_t kSelectStream = 0x53454c45435421ull;
constexpr std::uint64_t kEpochStream = 0x45504f434821ull;

/// Independent RNG stream for (stream kind, epoch, shard), derived from
/// the run seed alone. This is what makes sharded training resumable
/// from nothing but the epoch index: no RNG state threads across
/// epochs or shards.
Rng DerivedRng(std::uint64_t seed, std::uint64_t stream, std::uint64_t a,
               std::uint64_t b) {
  return Rng(SplitMix64(seed ^ SplitMix64(stream ^ SplitMix64(a) ^
                                          (b * 0x9e3779b97f4a7c15ULL))));
}

}  // namespace

ShardedTrainer::ShardedTrainer(const Graph& graph,
                               const ShardedConfig& config)
    : graph_(&graph),
      config_(config),
      loop_(config.base, graph.num_nodes, graph.feature_dim()) {
  E2GCL_CHECK(config.num_shards >= 1);
  resident_adj_ = std::make_unique<GraphAdjacency>(graph);
}

ShardedTrainer::ShardedTrainer(const GraphStore& store,
                               const ShardedConfig& config)
    : store_(&store),
      config_(config),
      loop_(config.base, store.num_nodes(), store.feature_dim()) {
  E2GCL_CHECK(config.num_shards >= 1);
}

const AdjacencySource& ShardedTrainer::adj() const {
  if (store_ != nullptr) return *store_;
  return *resident_adj_;
}

bool ShardedTrainer::MakeBall(int shard, ShardBall* ball) const {
  if (store_ != nullptr) {
    return LoadShardBall(*store_, partition_, shard, config_.halo_hops,
                         ball);
  }
  *ball = BuildShardBall(*graph_, partition_, shard, config_.halo_hops);
  return true;
}

std::uint64_t ShardedTrainer::ConfigFingerprint() const {
  // Shard layout: a checkpoint from a different partitioning must be
  // refused even though parameter shapes would match.
  ByteWriter layout;
  layout.WriteI64(config_.num_shards);
  layout.WriteI64(config_.halo_hops);
  layout.WriteI64(config_.refine_passes);
  layout.WriteF32(static_cast<float>(config_.balance_slack));
  layout.WriteI64(adj().num_nodes());
  layout.WriteI64(graph_ != nullptr ? graph_->feature_dim()
                                    : store_->feature_dim());
  layout.WriteI64(adj().nnz() / 2);
  return TrainFingerprint(config_.base, layout);
}

TrainResult ShardedTrainer::Train() {
  const std::int64_t n = adj().num_nodes();
  const E2gclConfig& base = config_.base;
  const int s = config_.num_shards;

  static const Counter shard_epochs_counter =
      Counter::Get("shard.train.shard_epochs");
  static const Counter balls_counter = Counter::Get("shard.balls_built");
  static const Counter halo_counter = Counter::Get("shard.halo_nodes");
  static const Counter select_counter = Counter::Get("shard.select.runs");

  // Per-shard training pools in ball-core-local indices + their weights,
  // and the fixed per-shard batch sizes.
  std::vector<std::vector<std::int64_t>> pool_core(s);
  std::vector<std::vector<float>> pool_weights(s);
  std::vector<std::int64_t> batch_parts;
  std::int64_t batch_total = 0;

  TrainLoop::Spec spec;
  spec.epoch_span = "shard.epoch";
  spec.fingerprint = ConfigFingerprint();
  spec.prepare = [&]() -> std::string {
    // --- Partition. ------------------------------------------------------
    {
      TraceSpan span("shard.partition");
      PartitionOptions popts;
      popts.num_shards = s;
      popts.refine_passes = config_.refine_passes;
      popts.balance_slack = config_.balance_slack;
      popts.seed = base.seed;
      partition_ = PartitionGraph(adj(), popts);
      Gauge::Get("shard.partition.cut_edges").Set(partition_.cut_edges);
    }

    // --- Per-shard selection + deterministic merge (shard-ascending). ----
    std::vector<std::int64_t> core_sizes(s);
    for (int i = 0; i < s; ++i) {
      core_sizes[i] =
          static_cast<std::int64_t>(partition_.shard_nodes[i].size());
    }
    shard_selections_.assign(s, {});
    if (base.use_selector) {
      const std::int64_t k_total = std::min<std::int64_t>(
          std::max<std::int64_t>(
              2, static_cast<std::int64_t>(std::llround(
                     base.node_ratio * static_cast<double>(n)))),
          n);
      const std::vector<std::int64_t> budgets =
          ApportionBudget(k_total, core_sizes);
      for (int shard = 0; shard < s; ++shard) {
        if (budgets[shard] <= 0) continue;
        TraceSpan span("shard.select");
        Matrix r_core;
        {
          // Scoped so the ball and the full-ball aggregation are gone
          // before the selector's clustering allocates.
          ShardBall ball;
          const bool ok = MakeBall(shard, &ball);
          E2GCL_CHECK_MSG(ok, "shard ball load failed");
          balls_counter.Increment();
          halo_counter.Add(static_cast<std::uint64_t>(
              static_cast<std::int64_t>(ball.nodes.size()) - ball.num_core));
          Matrix r_ball = RawAggregation(ball.graph, base.num_layers);
          // Free the ball before gathering core rows: the ball graph is
          // the largest selection-phase allocation and the gather only
          // needs r_ball plus the core index list.
          const std::vector<std::int64_t> core_local =
              std::move(ball.core_local);
          ball = ShardBall();
          r_core = GatherRows(r_ball, core_local);
        }
        SelectorConfig sel = base.selector;
        sel.budget = budgets[shard];
        Rng sel_rng = DerivedRng(base.seed, kSelectStream, 0,
                                 static_cast<std::uint64_t>(shard));
        shard_selections_[shard] = SelectCoreset(r_core, sel, sel_rng);
        select_counter.Increment();
        pool_core[shard] = shard_selections_[shard].nodes;
        pool_weights[shard] = shard_selections_[shard].weights;
      }
      selection_ =
          MergeShardSelections(shard_selections_, partition_.shard_nodes);
      loop_.stats().selection_seconds = selection_.seconds;
    } else {
      for (int shard = 0; shard < s; ++shard) {
        pool_core[shard].resize(core_sizes[shard]);
        std::iota(pool_core[shard].begin(), pool_core[shard].end(), 0);
        pool_weights[shard].assign(core_sizes[shard], 1.0f);
      }
    }

    // Per-epoch batch apportioning over the shard pools: fixed for the
    // whole run, so every epoch contrasts the same per-shard batch sizes.
    std::vector<std::int64_t> pool_sizes(s);
    std::int64_t total_pool = 0;
    for (int i = 0; i < s; ++i) {
      pool_sizes[i] = static_cast<std::int64_t>(pool_core[i].size());
      total_pool += pool_sizes[i];
    }
    batch_parts = ApportionBudget(
        std::min<std::int64_t>(base.batch_size, total_pool), pool_sizes);
    // InfoNCE needs at least two rows to contrast; a shard apportioned
    // fewer sits the run out and the weights renormalize over the rest.
    for (int i = 0; i < s; ++i) {
      if (batch_parts[i] < 2) batch_parts[i] = 0;
      batch_total += batch_parts[i];
    }
    if (batch_total == 0) {
      return "no shard has a trainable batch (pool too small)";
    }
    return {};
  };

  // --- Epoch body: serial shard sweep into one Adam step per epoch. ------
  spec.epoch = [&](int epoch, std::int64_t retries, RunReport::Epoch& record) {
    // Gradients are zeroed once per epoch; each shard's Backward()
    // accumulates into the shared leaf gradients in shard-ascending
    // order (the serial loop IS the deterministic reduction).
    loop_.ZeroGrad();
    const std::uint64_t seed = RetrySeed(base.seed, retries);
    GcnEncoder& encoder = loop_.encoder();
    Mlp* projector = loop_.projector();
    double loss_sum = 0.0;
    for (int shard = 0; shard < s; ++shard) {
      if (batch_parts[shard] == 0) continue;
      Rng erng = DerivedRng(seed, kEpochStream,
                            static_cast<std::uint64_t>(epoch),
                            static_cast<std::uint64_t>(shard));
      ShardBall ball;
      const bool ok = MakeBall(shard, &ball);
      E2GCL_CHECK_MSG(ok, "shard ball load failed");
      balls_counter.Increment();

      // Sample this shard's batch from its pool (ball-local core ids).
      const auto pool = static_cast<std::int64_t>(pool_core[shard].size());
      const std::int64_t k = batch_parts[shard];
      std::vector<std::int64_t> batch_local;
      std::vector<float> batch_weights;
      batch_local.reserve(k);
      batch_weights.reserve(k);
      if (k == pool) {
        for (std::int64_t i = 0; i < pool; ++i) {
          batch_local.push_back(ball.core_local[pool_core[shard][i]]);
          batch_weights.push_back(pool_weights[shard][i]);
        }
      } else {
        for (std::int64_t i : erng.SampleWithoutReplacement(pool, k)) {
          batch_local.push_back(ball.core_local[pool_core[shard][i]]);
          batch_weights.push_back(pool_weights[shard][i]);
        }
      }
      if (!base.use_coreset_weights) {
        batch_weights.assign(batch_local.size(), 1.0f);
      }

      // The forward only ever sees the batch's (L+1)-hop ball inside
      // the shard ball: L hops for the GCN receptive field, one extra
      // ring so view generation's 2-hop edge-addition candidates at the
      // rim have support. Activation memory scales with the batch ball,
      // not the shard.
      const auto tv = std::chrono::steady_clock::now();
      std::vector<std::int64_t> seeds = batch_local;
      std::sort(seeds.begin(), seeds.end());
      const GraphAdjacency ball_adj(ball.graph);
      const std::vector<std::int64_t> sub_nodes =
          BfsBall(ball_adj, seeds, base.num_layers + 1);
      const Graph sub = InducedSubgraph(ball.graph, sub_nodes);
      std::vector<std::int64_t> batch_sub;
      batch_sub.reserve(batch_local.size());
      for (std::int64_t v : batch_local) {
        batch_sub.push_back(std::lower_bound(sub_nodes.begin(),
                                             sub_nodes.end(), v) -
                            sub_nodes.begin());
      }
      // Everything below runs on the batch ball alone; release the
      // shard ball so forward/backward never coexist with it.
      ball = ShardBall();

      ViewGenerator generator(sub, base.view_hat.beta);
      Graph view_hat = generator.GenerateGlobalView(base.view_hat, erng);
      Graph view_tilde = generator.GenerateGlobalView(base.view_tilde, erng);
      auto adj_hat =
          std::make_shared<const CsrMatrix>(NormalizedAdjacency(view_hat));
      auto adj_tilde =
          std::make_shared<const CsrMatrix>(NormalizedAdjacency(view_tilde));
      record.view_seconds += SecondsSince(tv);

      const auto tl = std::chrono::steady_clock::now();
      Var x_hat = Var::Constant(view_hat.features);
      Var x_tilde = Var::Constant(view_tilde.features);
      Var h_hat = encoder.Forward(adj_hat, x_hat, erng, /*training=*/true);
      Var h_tilde =
          encoder.Forward(adj_tilde, x_tilde, erng, /*training=*/true);
      Var z_hat = ag::GatherRows(h_hat, batch_sub);
      Var z_tilde = ag::GatherRows(h_tilde, batch_sub);
      if (projector != nullptr) {
        z_hat = projector->Forward(z_hat, erng, /*training=*/true);
        z_tilde = projector->Forward(z_tilde, erng, /*training=*/true);
      }
      Var loss = ComputeContrastiveLoss(base.loss, z_hat, z_tilde,
                                        base.temperature, erng,
                                        batch_weights);
      // Data-parallel semantics: the epoch loss is the batch-share
      // weighted sum of shard losses, so gradients accumulate with the
      // same weights (shard-ascending; fixed order at any thread count).
      const float shard_weight =
          static_cast<float>(k) / static_cast<float>(batch_total);
      Var scaled = ag::Scale(loss, shard_weight);
      scaled.Backward();
      loss_sum += static_cast<double>(scaled.value()(0, 0));
      record.loss_seconds += SecondsSince(tl);
      shard_epochs_counter.Increment();
    }
    return loss_sum;
  };
  return loop_.Run(spec);
}

}  // namespace e2gcl
