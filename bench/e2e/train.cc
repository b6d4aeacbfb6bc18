// Training workloads (train-cora, train-sharded) and the
// traced ledger of the training-side layers. The ledger replays the
// resident trainer's epoch from here, through the same public calls in
// the same RNG order, with a span around each call; nothing under src/
// is instrumented for it.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/contrastive.h"
#include "core/node_selector.h"
#include "core/raw_aggregation.h"
#include "core/trainer.h"
#include "core/view_generator.h"
#include "e2e.h"
#include "nn/mlp.h"
#include "nn/optim.h"
#include "obs/metrics.h"
#include "obs/run_report.h"
#include "obs/trace.h"
#include "shard/graph_store.h"
#include "shard/halo.h"
#include "shard/partition.h"
#include "shard/sharded_trainer.h"
#include "tensor/csr.h"

namespace e2gcl {
namespace e2e {
namespace {

ShardedConfig ShardConfig(const Options& opt, int epochs) {
  ShardedConfig cfg;
  cfg.base = PaperConfig(opt, epochs);
  cfg.num_shards = kShards;
  cfg.halo_hops = 1;
  return cfg;
}

/// Output check of one Train() call: status ok, every epoch recorded in
/// the run report, every loss finite.
bool TrainRunOk(const TrainResult& tr, const std::string& report_path,
                int epochs, std::string* why) {
  if (!tr.ok()) {
    *why = "Train() status not ok: " + tr.message;
    return false;
  }
  RunReport report;
  std::string error;
  if (!LoadRunReport(report_path, &report, &error)) {
    *why = "run report unreadable: " + error;
    return false;
  }
  if (static_cast<int>(report.epochs.size()) != epochs) {
    *why = "run report has " + std::to_string(report.epochs.size()) +
           " epochs, expected " + std::to_string(epochs);
    return false;
  }
  for (const RunReport::Epoch& e : report.epochs) {
    if (!std::isfinite(e.loss)) {
      *why = "non-finite loss at epoch " + std::to_string(e.epoch);
      return false;
    }
  }
  return true;
}

/// Probe accuracy must beat twice chance: below that, training produced
/// no usable signal.
void CheckProbe(double acc, const Graph& g, Result* result) {
  const double floor = 200.0 / static_cast<double>(g.num_classes);
  char what[128];
  std::snprintf(what, sizeof(what),
                "probe accuracy %.2f%% not above twice chance (%.2f%%)", acc,
                floor);
  result->Op(acc > floor, what);
}

const SpanSnapshot* FindSpan(const std::vector<SpanSnapshot>& spans,
                             const char* path) {
  for (const SpanSnapshot& s : spans) {
    if (s.path == path) return &s;
  }
  return nullptr;
}

/// (count, seconds) a span path gained between two registry snapshots.
std::pair<double, double> SpanDelta(const std::vector<SpanSnapshot>& before,
                                    const std::vector<SpanSnapshot>& after,
                                    const char* path) {
  const SpanSnapshot* a = FindSpan(after, path);
  if (a == nullptr) return {0.0, 0.0};
  const SpanSnapshot* b = FindSpan(before, path);
  const double count = static_cast<double>(a->count - (b ? b->count : 0));
  return {count, a->seconds - (b ? b->seconds : 0.0)};
}

template <typename Fn>
double MedianSeconds(int reps, Fn&& fn) {
  std::vector<double> t;
  for (int i = 0; i < reps; ++i) {
    Stopwatch sw;
    fn();
    t.push_back(sw.Seconds());
  }
  return Median(t);
}

// --- Traced replay of resident training. ---------------------------------

/// Spans are recorded on odd epochs only. Comparing traced with
/// untraced epochs of one loop cancels the drift between two separate
/// runs, which on a shared host is larger than the spans' cost.
bool TracedEpoch(int epoch) { return epoch % 2 == 1; }

struct Replay {
  std::unique_ptr<GcnEncoder> encoder;
  SpanLog log;
  /// Wall time of every epoch, traced or not.
  std::vector<double> epoch_s;
  std::vector<double> losses;
  double select_s = 0.0;
  double candidates = 0.0;
  /// Per-epoch counter deltas.
  std::vector<double> edge_candidates, spmm_bytes, matmul_fmas, jobs;
  /// The last epoch's first view adjacency (for the standalone kernels).
  std::shared_ptr<const CsrMatrix> last_adj;
  bool healthy = true;
};

/// Mirrors E2gclTrainer's constructor and Train() loop (no checkpoints,
/// no fault hooks): the same calls, in the same RNG order, so the loss
/// of every epoch matches a Train() run at the same seed and threads.
Replay ReplayTraining(const Graph& g, const E2gclConfig& cfg) {
  Replay rp;
  Rng rng(cfg.seed);
  GcnConfig enc;
  enc.dims.assign(cfg.num_layers + 1, cfg.hidden_dim);
  enc.dims.front() = g.feature_dim();
  enc.dims.back() = cfg.embed_dim;
  enc.dropout = cfg.dropout;
  rp.encoder = std::make_unique<GcnEncoder>(enc, rng);
  MlpConfig proj;
  proj.dims = {cfg.embed_dim, cfg.embed_dim, cfg.embed_dim};
  Mlp projector(proj, rng);
  ViewGenerator generator(g, cfg.view_hat.beta);

  const std::int64_t n = g.num_nodes;
  SelectorConfig sel = cfg.selector;
  sel.budget = std::min<std::int64_t>(
      std::max<std::int64_t>(
          2, static_cast<std::int64_t>(std::llround(cfg.node_ratio * n))),
      n);
  const Matrix r = RawAggregation(g, cfg.num_layers);
  const MetricsSnapshot before_select = MetricsRegistry::Get().Snapshot();
  const Stopwatch sel_sw;
  const SelectionResult selection = SelectCoreset(r, sel, rng);
  rp.select_s = sel_sw.Seconds();
  rp.candidates =
      CounterDelta(before_select, MetricsRegistry::Get().Snapshot(),
                   "selector.candidates_evaluated");

  std::vector<Var> params = rp.encoder->params().params();
  for (const Var& p : projector.params().params()) params.push_back(p);
  Adam::Options opts;
  opts.lr = cfg.lr;
  opts.weight_decay = cfg.weight_decay;
  Adam adam(params, opts);

  const auto pool = static_cast<std::int64_t>(selection.nodes.size());
  const std::int64_t batch = std::min<std::int64_t>(cfg.batch_size, pool);
  for (int epoch = 0; epoch < cfg.epochs && rp.healthy; ++epoch) {
    const MetricsSnapshot before = MetricsRegistry::Get().Snapshot();
    rp.log.set_enabled(TracedEpoch(epoch));
    const Stopwatch epoch_sw;
    {
      SpanLog::Scope epoch_span(&rp.log, "epoch");
      Graph view_hat, view_tilde;
      {
        SpanLog::Scope s(&rp.log, "view.generate");
        view_hat = generator.GenerateGlobalView(cfg.view_hat, rng);
        view_tilde = generator.GenerateGlobalView(cfg.view_tilde, rng);
      }
      std::shared_ptr<const CsrMatrix> adj_hat, adj_tilde;
      {
        SpanLog::Scope s(&rp.log, "view.normalize");
        adj_hat =
            std::make_shared<const CsrMatrix>(NormalizedAdjacency(view_hat));
        adj_tilde =
            std::make_shared<const CsrMatrix>(NormalizedAdjacency(view_tilde));
      }
      std::vector<std::int64_t> batch_nodes;
      std::vector<float> batch_weights;
      {
        SpanLog::Scope s(&rp.log, "batch");
        if (batch == pool) {
          batch_nodes = selection.nodes;
          batch_weights = selection.weights;
        } else {
          for (std::int64_t idx : rng.SampleWithoutReplacement(pool, batch)) {
            batch_nodes.push_back(selection.nodes[idx]);
            batch_weights.push_back(selection.weights[idx]);
          }
        }
        if (!cfg.use_coreset_weights) {
          batch_weights.assign(batch_nodes.size(), 1.0f);
        }
      }
      Var z_hat, z_tilde;
      {
        SpanLog::Scope s(&rp.log, "nn.forward");
        Var x_hat = Var::Constant(view_hat.features);
        Var x_tilde = Var::Constant(view_tilde.features);
        Var h_hat = rp.encoder->Forward(adj_hat, x_hat, rng, true);
        Var h_tilde = rp.encoder->Forward(adj_tilde, x_tilde, rng, true);
        z_hat = ag::GatherRows(h_hat, batch_nodes);
        z_tilde = ag::GatherRows(h_tilde, batch_nodes);
        z_hat = projector.Forward(z_hat, rng, true);
        z_tilde = projector.Forward(z_tilde, rng, true);
      }
      Var loss;
      {
        SpanLog::Scope s(&rp.log, "loss.forward");
        loss = ComputeContrastiveLoss(cfg.loss, z_hat, z_tilde,
                                      cfg.temperature, rng, batch_weights);
      }
      {
        SpanLog::Scope s(&rp.log, "autograd.backward");
        adam.ZeroGrad();
        loss.Backward();
      }
      const float loss_value = loss.value()(0, 0);
      {
        // The trainer's health guard: loss, gradient norm, parameters.
        SpanLog::Scope s(&rp.log, "guard");
        double grad_sq = 0.0;
        for (const Var& p : params) {
          const Matrix& gr = p.grad();
          for (std::int64_t j = 0; j < gr.size(); ++j) {
            grad_sq += static_cast<double>(gr.data()[j]) * gr.data()[j];
          }
        }
        rp.healthy = std::isfinite(loss_value) && std::isfinite(grad_sq);
        for (const Var& p : params) rp.healthy &= AllFinite(p.value());
      }
      if (rp.healthy) {
        SpanLog::Scope s(&rp.log, "optim.step");
        adam.Step();
      }
      rp.losses.push_back(static_cast<double>(loss_value));
      rp.last_adj = adj_hat;
    }
    rp.epoch_s.push_back(epoch_sw.Seconds());
    const MetricsSnapshot after = MetricsRegistry::Get().Snapshot();
    rp.edge_candidates.push_back(
        CounterDelta(before, after, "viewgen.edge_candidates"));
    rp.spmm_bytes.push_back(CounterDelta(before, after, "spmm.bytes"));
    rp.matmul_fmas.push_back(CounterDelta(before, after, "matmul.fmas"));
    rp.jobs.push_back(CounterDelta(before, after, "parallel.jobs"));
  }
  return rp;
}

void TraceResident(const Options& opt, const Graph& g, Replay* replay,
                   Result* result) {
  // Train() at the same config: its run report holds the losses the
  // replay must reproduce.
  E2gclConfig cfg = PaperConfig(opt, opt.scale.replay_epochs);
  cfg.report_path = opt.workdir + "/reference_report.json";
  {
    E2gclTrainer reference(g, cfg);
    const TrainResult tr = reference.Train();
    std::string why;
    result->Op(TrainRunOk(tr, cfg.report_path, cfg.epochs, &why), why);
  }
  RunReport report;
  LoadRunReport(cfg.report_path, &report);

  *replay = ReplayTraining(g, cfg);
  const Replay& rp = *replay;
  result->Op(rp.healthy, "replayed epoch went non-finite");

  bool match = rp.losses.size() == report.epochs.size();
  for (std::size_t i = 0; match && i < rp.losses.size(); ++i) {
    match = rp.losses[i] == report.epochs[i].loss;
  }
  // Epoch 0 pays one-time warm-up and is left out of the comparison.
  std::vector<double> traced_s, untraced_s;
  for (std::size_t e = 1; e < rp.epoch_s.size(); ++e) {
    (TracedEpoch(static_cast<int>(e)) ? traced_s : untraced_s)
        .push_back(rp.epoch_s[e]);
  }
  const auto epochs = std::ssize(traced_s);
  auto ms = [&](const char* span) {
    return 1e3 * Median(rp.log.ChildSeconds(span));
  };
  result->Add("select.coreset_s", rp.select_s, "s", 1);
  result->Add("select.candidates", rp.candidates, "count", 1);
  result->Add("view.generate_ms", ms("view.generate"), "ms", epochs);
  result->Add("view.normalize_ms", ms("view.normalize"), "ms", epochs);
  result->Add("view.edge_candidates", Median(rp.edge_candidates), "count",
              epochs);
  result->Add("nn.forward_ms", ms("nn.forward"), "ms", epochs);
  result->Add("loss.forward_ms", ms("loss.forward"), "ms", epochs);
  result->Add("autograd.backward_ms", ms("autograd.backward"), "ms", epochs);
  result->Add("optim.step_ms", ms("optim.step"), "ms", epochs);
  result->Add("tensor.spmm_bytes", Median(rp.spmm_bytes), "bytes", epochs);
  result->Add("tensor.matmul_fmas", Median(rp.matmul_fmas), "count", epochs);
  result->Add("parallel.jobs_per_epoch", Median(rp.jobs), "count", epochs);

  const std::vector<double> coverage = rp.log.Coverage();
  result->Add("trace.coverage",
              *std::min_element(coverage.begin(), coverage.end()), "ratio",
              epochs);
  const double untraced = Median(untraced_s);
  result->Add("trace.overhead_pct",
              100.0 * (Median(traced_s) - untraced) / untraced, "%",
              std::ssize(rp.epoch_s) - 1);
  result->Add("trace.replay_loss_match", match ? 1.0 : 0.0, "bool",
              std::ssize(rp.losses));
}

/// Standalone kernels on the replay's own inputs: SpMM and its
/// transposed-A backward on the last epoch's view adjacency, and the
/// InfoNCE forward + backward at the trainer's batch size.
void TraceKernels(const Options& opt, const Replay& rp, const Graph& g,
                  Result* result) {
  constexpr int kReps = 5;
  const E2gclConfig cfg = PaperConfig(opt, 1);
  Rng rng(opt.seed + 1);
  const Matrix h = Matrix::RandomNormal(rp.last_adj->cols(), cfg.hidden_dim,
                                        0.0f, 1.0f, rng);
  result->Add("tensor.spmm_ms",
              1e3 * MedianSeconds(kReps, [&] { Spmm(*rp.last_adj, h); }), "ms",
              kReps);
  result->Add(
      "tensor.spmm_t_ms",
      1e3 * MedianSeconds(kReps, [&] { SpmmTransposedA(*rp.last_adj, h); }),
      "ms", kReps);

  const std::int64_t b = std::min<std::int64_t>(cfg.batch_size, g.num_nodes);
  const Matrix z1 = Matrix::RandomNormal(b, cfg.embed_dim, 0.0f, 1.0f, rng);
  const Matrix z2 = Matrix::RandomNormal(b, cfg.embed_dim, 0.0f, 1.0f, rng);
  const std::vector<float> weights(static_cast<std::size_t>(b), 1.0f);
  std::vector<double> t;
  for (int i = 0; i < kReps; ++i) {
    Var a = Var::Param(z1);
    Var c = Var::Param(z2);
    Stopwatch sw;
    Var loss = ComputeContrastiveLoss(ContrastiveLossKind::kInfoNce, a, c,
                                      cfg.temperature, rng, weights);
    loss.Backward();
    t.push_back(sw.Seconds());
  }
  result->Add("loss.infonce_ms", 1e3 * Median(t), "ms", kReps);
}

/// Full ReadCols + ReadFeatureRows sweep of the store, ascending.
bool SweepStore(const GraphStore& store) {
  constexpr std::int64_t kChunk = 1 << 16;
  std::vector<std::int32_t> cols;
  Matrix feats;
  for (std::int64_t rb = 0; rb < store.num_nodes(); rb += kChunk) {
    const std::int64_t re = std::min(store.num_nodes(), rb + kChunk);
    std::vector<std::int64_t> rows(static_cast<std::size_t>(re - rb));
    for (std::int64_t v = rb; v < re; ++v) rows[v - rb] = v;
    if (!store.ReadCols(rb, re, &cols) ||
        !store.ReadFeatureRows(rows, &feats)) {
      return false;
    }
  }
  return true;
}

/// Nodes the sharded forward encodes per batch anchor: the (L+1)-hop
/// ball of a random batch inside each shard ball, over the anchors.
double BallNodesPerAnchor(const Options& opt, const GraphStore& store,
                          const Partition& part, Result* result) {
  const E2gclConfig cfg = PaperConfig(opt, 1);
  Rng rng(opt.seed + 2);
  double nodes = 0.0;
  double anchors = 0.0;
  for (int s = 0; s < part.num_shards; ++s) {
    ShardBall ball;
    if (!LoadShardBall(store, part, s, 1, &ball)) {
      result->Op(false, "shard ball load failed");
      return 0.0;
    }
    const auto core = static_cast<std::int64_t>(ball.core_local.size());
    const std::int64_t k = std::min<std::int64_t>(
        core, std::max<std::int64_t>(
                  2, cfg.batch_size * core / store.num_nodes()));
    std::vector<std::int64_t> seeds;
    for (std::int64_t i : rng.SampleWithoutReplacement(core, k)) {
      seeds.push_back(ball.core_local[i]);
    }
    std::sort(seeds.begin(), seeds.end());
    nodes += static_cast<double>(
        BfsBall(GraphAdjacency(ball.graph), seeds, cfg.num_layers + 1).size());
    anchors += static_cast<double>(k);
  }
  return nodes / anchors;
}

void TraceSharded(const Options& opt, const Graph& g, Result* result) {
  const std::string dir = opt.workdir + "/trace_store";
  ResetDir(dir);
  GraphStore store;
  if (!GraphStore::Write(dir, g) || !store.Open(dir)) {
    result->Op(false, "graph store write/open failed");
    return;
  }
  constexpr int kReps = 3;
  bool swept = true;
  const double read_s =
      MedianSeconds(kReps, [&] { swept &= SweepStore(store); });
  result->Op(swept, "graph store sweep failed");
  result->Add("store.read_ms", 1e3 * read_s, "ms", kReps);

  const ShardedConfig cfg = ShardConfig(opt, 1);
  PartitionOptions popts;
  popts.num_shards = cfg.num_shards;
  popts.refine_passes = cfg.refine_passes;
  popts.balance_slack = cfg.balance_slack;
  popts.seed = cfg.base.seed;
  Stopwatch part_sw;
  const Partition part = PartitionGraph(store, popts);
  result->Add("shard.partition_s", part_sw.Seconds(), "s", 1);
  result->Add("shard.ball_nodes", BallNodesPerAnchor(opt, store, part, result),
              "count", cfg.num_shards);

  // One out-of-core sharded run; its own spans give the split.
  const std::vector<SpanSnapshot> before = TraceRegistry::Get().Snapshot();
  ShardedTrainer trainer(store, cfg);
  const TrainResult tr = trainer.Train();
  result->Op(tr.ok(), "sharded Train() status not ok: " + tr.message);
  const std::vector<SpanSnapshot> after = TraceRegistry::Get().Snapshot();
  const auto [epochs, epoch_s] = SpanDelta(before, after, "shard.epoch");
  const double views_s =
      SpanDelta(before, after, "shard.epoch/generate_view").second;
  const auto [selects, select_s] = SpanDelta(before, after, "shard.select");
  const double per_epoch = std::max(epochs, 1.0);
  result->Add("shard.select_s", select_s, "s",
              static_cast<std::int64_t>(selects));
  result->Add("shard.epoch_s", epoch_s / per_epoch, "s",
              static_cast<std::int64_t>(epochs));
  result->Add("shard.view_s", views_s / per_epoch, "s",
              static_cast<std::int64_t>(epochs));
}

}  // namespace

void RunTrain(const Options& opt, Result* result) {
  const Workload& w = *opt.workload;
  const bool sharded = w.kind == Kind::kTrainSharded;
  const std::string store_dir = opt.workdir + "/store";
  const std::string report_path = opt.workdir + "/run_report.json";

  // Set-up: graph generation, plus the store write/open for the
  // out-of-core path (whose graph is then dropped: it trains from disk).
  Graph graph;
  GraphStore store;
  const bool set_up = RepeatSetup(
      opt.scale,
      [&] {
        graph = Graph();
        ResetDir(store_dir);
      },
      [&] {
        graph = MakeGraph(opt);
        if (!sharded) return true;
        if (!GraphStore::Write(store_dir, graph) || !store.Open(store_dir)) {
          result->Op(false, "graph store write/open failed");
          return false;
        }
        graph = Graph();
        return true;
      },
      result);
  if (!set_up) return;

  // One pre-training run: trainer construction plus Train().
  E2gclConfig cfg = PaperConfig(opt, w.epochs);
  ShardedConfig scfg = ShardConfig(opt, w.epochs);
  std::unique_ptr<E2gclTrainer> resident;
  std::unique_ptr<ShardedTrainer> out_of_core;
  auto train = [&] {
    resident.reset();
    out_of_core.reset();
    if (sharded) {
      out_of_core = std::make_unique<ShardedTrainer>(store, scfg);
      return out_of_core->Train();
    }
    resident = std::make_unique<E2gclTrainer>(graph, cfg);
    return resident->Train();
  };

  // Untimed warm-up run. It alone writes a run report (whose fsync the
  // timed runs would otherwise pay) for the per-epoch loss check; the
  // timed runs repeat it exactly, at the same seed.
  cfg.report_path = report_path;
  scfg.base.report_path = report_path;
  {
    std::string why;
    result->Op(TrainRunOk(train(), report_path, cfg.epochs, &why), why);
  }
  cfg.report_path.clear();
  scfg.base.report_path.clear();

  // Timed phase: back-to-back runs for about --seconds.
  std::vector<double> op_s;
  std::vector<double> select_s;
  ResetPeakRss();
  Stopwatch phase;
  do {
    Stopwatch sw;
    const TrainResult tr = train();
    op_s.push_back(sw.Seconds());
    const E2gclStats& stats =
        sharded ? out_of_core->stats() : resident->stats();
    select_s.push_back(stats.selection_seconds);
    result->Op(tr.ok() && stats.epochs_run == cfg.epochs,
               "Train() ran " + std::to_string(stats.epochs_run) + " of " +
                   std::to_string(cfg.epochs) + " epochs: " + tr.message);
    // Start another run only if it should finish near --seconds.
  } while (phase.Seconds() + 0.5 * Median(op_s) < opt.seconds);
  const double peak_mb = PeakRssMb();

  const auto n = std::ssize(op_s);
  double total_s = 0.0;
  for (double s : op_s) total_s += s;
  result->Add("op_p50_ms", 1e3 * Median(op_s), "ms", n);
  result->Add("ops_per_s", static_cast<double>(n) / total_s, "1/s", n);
  result->Add("peak_rss_mb", peak_mb, "MB", 1);
  result->Info("select_s", Median(select_s), "s", n);

  // Output check on the trained encoder (untimed).
  if (sharded) graph = MakeGraph(opt);
  const Matrix z = sharded ? out_of_core->encoder().Encode(graph)
                           : resident->encoder().Encode(graph);
  const double acc = ProbeAccuracy(z, graph, opt.seed);
  result->Info("probe_acc", acc, "%", 1);
  CheckProbe(acc, graph, result);
}

std::unique_ptr<GcnEncoder> TraceTraining(const Options& opt, const Graph& g,
                                          Result* result, JsonValue* spans) {
  Replay rp;
  TraceResident(opt, g, &rp, result);
  rp.log.ToJson(spans);
  TraceKernels(opt, rp, g, result);

  const Matrix z = rp.encoder->Encode(g);
  Stopwatch probe_sw;
  const double acc = ProbeAccuracy(z, g, opt.seed);
  result->Add("eval.probe_s", probe_sw.Seconds(), "s", 1);
  result->Add("eval.probe_acc", acc, "%", 1);
  CheckProbe(acc, g, result);

  TraceSharded(opt, g, result);
  return std::move(rp.encoder);
}

}  // namespace e2e
}  // namespace e2gcl
