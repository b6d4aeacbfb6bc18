// Regenerates the paper's evaluation, Tables IV-IX and Figs. 2-4, from
// one table: each experiment in Experiments() is an id, a title, the
// paper's claim (the shape to verify) and a run. Every accuracy and AUC
// cell is scored by the shared protocol in src/eval.
//
//   bench_paper                 # all 13 experiments, in paper order
//   bench_paper table6 fig4a    # only these
//
// Environment: E2GCL_BENCH_SCALE (dataset size multiplier),
// E2GCL_BENCH_RUNS (seeds per cell; paper 10, default 2),
// E2GCL_BENCH_EPOCHS (pre-training epochs, default 22) and
// E2GCL_NUM_THREADS (kernel thread pool size). The runs use the
// synthetic dataset stand-ins (DESIGN.md) on a CPU, so absolute numbers
// differ from the paper; the comparison *shape* is the target.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "baselines/selectors.h"
#include "eval/graph_level.h"
#include "eval/protocol.h"
#include "graph/datasets.h"
#include "graph/tu_generator.h"
#include "obs/trace.h"

namespace e2gcl {
namespace {

// ---- Bench settings -------------------------------------------------------

/// Per-dataset node-count scale, so the whole suite finishes on a laptop
/// CPU. The five small datasets keep their paper node counts on
/// Cora/Citeseer and are shrunk proportionally on the larger ones; the
/// experiment *ratios* (budget fractions, ST/TT) are scale-free.
/// E2GCL_BENCH_SCALE multiplies every scale.
double BenchScale(const std::string& dataset) {
  double base = 1.0;
  if (dataset == "photo") base = 0.22;
  if (dataset == "computers") base = 0.13;
  if (dataset == "cs") base = 0.10;
  if (dataset == "arxiv") base = 0.35;
  if (dataset == "products") base = 0.22;
  const char* env = std::getenv("E2GCL_BENCH_SCALE");
  if (env != nullptr) base *= std::atof(env);
  return base > 1.0 ? 1.0 : base;
}

Graph LoadBenchDataset(const std::string& dataset) {
  return LoadDatasetScaled(dataset, BenchScale(dataset), 0x5eed);
}

/// A positive count from the environment, or `fallback`.
int EnvCount(const char* name, int fallback) {
  const char* env = std::getenv(name);
  return env != nullptr ? std::max(1, std::atoi(env)) : fallback;
}

/// Seeds per cell (paper: 10) and pre-training epochs per run; the
/// defaults keep cells in seconds.
int BenchRuns() { return EnvCount("E2GCL_BENCH_RUNS", 2); }
int BenchEpochs() { return EnvCount("E2GCL_BENCH_EPOCHS", 22); }

/// The configuration every run starts from.
RunConfig DefaultRunConfig() {
  RunConfig cfg;
  cfg.epochs = BenchEpochs();
  cfg.supervised.epochs = 4 * BenchEpochs();
  cfg.deepwalk.epochs = 2;
  cfg.probe.epochs = 120;
  return cfg;
}

std::string Fmt(double v, int prec = 2) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", prec, v);
  return buf;
}

std::string Fmt(const MeanStd& ms) { return Fmt(ms.mean) + "±" + Fmt(ms.std); }

/// Prints one fixed-width row (the first cell `first` wide, the others
/// `width`) as soon as it is known, so a long experiment shows progress.
/// A header row gets a dashed rule under it.
void PrintRow(const std::vector<std::string>& cells, int first, int width,
              bool header = false) {
  for (std::size_t i = 0; i < cells.size(); ++i) {
    std::printf("%-*s  ", i == 0 ? first : width, cells[i].c_str());
  }
  std::printf("\n");
  if (header) {
    std::vector<std::string> rule(cells.size(), std::string(width, '-'));
    rule[0] = std::string(first, '-');
    PrintRow(rule, first, width);
  }
  std::fflush(stdout);
}

// ---- Grids: variants x datasets, every cell through src/eval --------------

using MK = ModelKind;
using Setter = std::function<void(RunConfig&)>;

enum class Task { kNode, kLink, kGraph };

/// A grid row: a model plus a change to the bench RunConfig.
struct Variant {
  std::string label;
  ModelKind kind;
  Setter set;
};

/// A grid column: a dataset, plus a change to the RunConfig when the
/// columns are the second axis of a 2-D sweep.
struct Column {
  std::string label;
  std::string dataset;
  Setter set;
};

struct Grid {
  std::string corner;  // header of the variant column
  std::vector<Variant> rows;
  std::vector<Column> cols;
  Task task = Task::kNode;
  /// One seed per cell, printed without a std (the Fig. 4 sweeps).
  bool one_seed = false;
};

std::vector<Variant> Models(const std::vector<ModelKind>& kinds,
                            const Setter& set = nullptr) {
  std::vector<Variant> rows;
  for (ModelKind kind : kinds) rows.push_back({ModelKindName(kind), kind, set});
  return rows;
}

std::vector<Column> Datasets(const std::vector<std::string>& names) {
  std::vector<Column> cols;
  for (const std::string& name : names) cols.push_back({name, name, nullptr});
  return cols;
}

/// Percent over `runs` seeds from cfg.seed: node accuracy through
/// RunRepeated; link AUC and graph accuracy on the same seed schedule.
MeanStd ScoreCell(Task task, ModelKind kind, const Graph& g,
                  const TuDataset& tu, const RunConfig& cfg, int runs) {
  if (task == Task::kNode) return RunRepeated(kind, g, cfg, runs).accuracy;
  std::vector<double> scores;
  for (int r = 0; r < runs; ++r) {
    RunConfig rc = cfg;
    rc.seed = cfg.seed + static_cast<std::uint64_t>(r);
    scores.push_back(task == Task::kLink
                         ? RunLinkPrediction(kind, g, rc)
                         : RunGraphClassification(kind, tu, rc));
  }
  return ComputeMeanStd(scores);
}

void RunGrid(const Grid& grid) {
  std::vector<std::string> header = {grid.corner};
  for (const Column& c : grid.cols) header.push_back(c.label);
  std::size_t first = grid.corner.size();
  for (const Variant& v : grid.rows) first = std::max(first, v.label.size());
  const int width = grid.one_seed ? 9 : 13;
  // Each column's stand-in is built once; generation is deterministic.
  std::vector<Graph> graphs(grid.cols.size());
  std::vector<TuDataset> tus(grid.cols.size());
  for (std::size_t j = 0; j < grid.cols.size(); ++j) {
    if (grid.task == Task::kGraph) {
      tus[j] = GenerateTuDataset(GetTuSpec(grid.cols[j].dataset), 0xabcd);
    } else {
      graphs[j] = LoadBenchDataset(grid.cols[j].dataset);
    }
  }
  PrintRow(header, static_cast<int>(first), width, /*header=*/true);
  const int runs = grid.one_seed ? 1 : BenchRuns();
  for (const Variant& v : grid.rows) {
    std::vector<std::string> cells = {v.label};
    for (std::size_t j = 0; j < grid.cols.size(); ++j) {
      RunConfig cfg = DefaultRunConfig();
      if (v.set) v.set(cfg);
      if (grid.cols[j].set) grid.cols[j].set(cfg);
      const MeanStd ms =
          ScoreCell(grid.task, v.kind, graphs[j], tus[j], cfg, runs);
      cells.push_back(grid.one_seed ? Fmt(ms.mean) : Fmt(ms));
    }
    PrintRow(cells, static_cast<int>(first), width);
  }
}

/// An E2GCL ablation row (Tables VI, VIII): the selector on or off, and
/// the importance-aware switches of both views.
Variant Ablation(const char* label, bool selector, bool importance_edges,
                 bool importance_features) {
  return {label, MK::kE2gcl, [=](RunConfig& c) {
            c.e2gcl.use_selector = selector;
            for (ViewConfig* vc : {&c.e2gcl.view_hat, &c.e2gcl.view_tilde}) {
              vc->importance_edges = importance_edges;
              vc->importance_features = importance_features;
            }
          }};
}

/// Fig. 4(d, e): E2GCL on cora over one view knob, hat value per row and
/// tilde value per column (the paper's full grid, with a coarser tilde
/// axis).
Grid ViewSweep(const char* corner, float ViewConfig::*knob) {
  Grid grid{corner, {}, {}, Task::kNode, /*one_seed=*/true};
  for (float hat : {0.0f, 0.2f, 0.4f, 0.6f, 0.8f, 1.0f, 1.2f, 1.4f}) {
    grid.rows.push_back({Fmt(hat, 1), MK::kE2gcl,
                         [=](RunConfig& c) { c.e2gcl.view_hat.*knob = hat; }});
  }
  for (float tilde : {0.2f, 0.6f, 1.0f, 1.4f}) {
    grid.cols.push_back(
        {Fmt(tilde, 1), "cora",
         [=](RunConfig& c) { c.e2gcl.view_tilde.*knob = tilde; }});
  }
  return grid;
}

// ---- Probe curves (Table V, Fig. 3) ---------------------------------------

struct CurvePoint {
  double seconds;   // training clock, snapshot time excluded
  double accuracy;  // %
};

/// Trains `kind` for twice the bench epochs, snapshotting the encoder
/// `probes` times (the Encode time is taken off the training clock),
/// then probes each snapshot on one fixed split, the one
/// RunNodeClassification draws for cfg.seed, with cfg.probe as given
/// (the protocol reseeds its probe per seed).
std::vector<CurvePoint> RunCurve(ModelKind kind, const Graph& g,
                                 RunConfig cfg, int probes,
                                 double* selection_seconds = nullptr) {
  cfg.epochs = 2 * BenchEpochs();
  const int stride = std::max(1, cfg.epochs / probes);
  Rng split_rng(cfg.seed * 7919 + 13);
  const NodeSplit split =
      RandomNodeSplit(g.num_nodes, cfg.train_frac, cfg.val_frac, split_rng);
  std::vector<double> seconds;
  std::vector<Matrix> snapshots;
  double snapshot_seconds = 0.0;
  auto callback = [&](int epoch, double elapsed, const GcnEncoder& enc) {
    if (epoch % stride != stride - 1) return;
    const auto t0 = std::chrono::steady_clock::now();
    seconds.push_back(elapsed - snapshot_seconds);
    snapshots.push_back(enc.Encode(g));
    snapshot_seconds += SecondsSince(t0);
  };
  E2gclStats stats;
  ComputeEmbedding(kind, g, cfg, &stats, callback);
  if (selection_seconds != nullptr) {
    *selection_seconds = stats.selection_seconds;
  }
  std::vector<CurvePoint> curve;
  for (std::size_t i = 0; i < snapshots.size(); ++i) {
    curve.push_back({seconds[i], 100.0 * LinearProbeAccuracy(
                                             snapshots[i], g.labels,
                                             g.num_classes, split, cfg.probe)});
  }
  return curve;
}

/// Table V: 8 probes per run, n_c = 200 for E2GCL's selector. Accuracy
/// is the best probe; TT is the time to *converge*, the earliest
/// snapshot within 0.5 points of that best; ST is E2GCL's selection
/// time.
void Table5() {
  for (const std::string dataset : {"arxiv", "products"}) {
    const Graph g = LoadBenchDataset(dataset);
    std::printf("\n%s-like (|V| = %lld, |E| = %lld)\n", dataset.c_str(),
                static_cast<long long>(g.num_nodes),
                static_cast<long long>(g.num_edges()));
    PrintRow({"Model", "Accuracy", "ST(s)", "TT(s)"}, 8, 10, true);
    for (MK kind : {MK::kAfgrl, MK::kMvgrl, MK::kGrace, MK::kGca, MK::kE2gcl}) {
      RunConfig cfg = DefaultRunConfig();
      cfg.e2gcl.selector.num_clusters = 200;
      double st = 0.0;
      const std::vector<CurvePoint> curve = RunCurve(kind, g, cfg, 8, &st);
      double best = 0.0;
      for (const CurvePoint& p : curve) best = std::max(best, p.accuracy);
      const auto tt = std::find_if(curve.begin(), curve.end(), [&](auto& p) {
        return p.accuracy >= best - 0.5;
      });
      PrintRow({ModelKindName(kind), Fmt(best),
                kind == MK::kE2gcl ? Fmt(st) : "-",
                Fmt(tt == curve.end() ? 0.0 : tt->seconds)},
               8, 10);
    }
  }
}

/// Fig. 3: 10 probes per run; E2GCL's clock includes its selection
/// time, as in the paper.
void Fig3() {
  for (const std::string dataset : {"cora", "citeseer"}) {
    const Graph g = LoadBenchDataset(dataset);
    std::printf("\n%s\n", dataset.c_str());
    for (MK kind : {MK::kAfgrl, MK::kBgrl, MK::kMvgrl, MK::kGrace, MK::kGca,
                    MK::kE2gcl}) {
      std::printf("%-6s:", ModelKindName(kind).c_str());
      for (const CurvePoint& p : RunCurve(kind, g, DefaultRunConfig(), 10)) {
        std::printf(" (%.2fs, %.2f)", p.seconds, p.accuracy);
      }
      std::printf("\n");
      std::fflush(stdout);
    }
  }
}

// ---- Selector sweeps with timings (Fig. 4(b, c)) --------------------------

/// One E2GCL run (seed 1) per value of a selector knob on computers and
/// arxiv: accuracy, selection time (ST) and total training time (TT),
/// also normalized to the first value as in the paper.
void SelectorSweep(const char* knob, const char* fixed,
                   const std::vector<std::int64_t>& values,
                   const std::function<void(RunConfig&, std::int64_t)>& set) {
  auto norm = [](double v, double first) {
    return first > 0.0 ? Fmt(v / first, 3) : std::string("-");
  };
  for (const std::string dataset : {"computers", "arxiv"}) {
    const Graph g = LoadBenchDataset(dataset);
    std::printf("\n%s (%s)\n", dataset.c_str(), fixed);
    PrintRow({knob, "acc(norm)", "ST(norm)", "TT(norm)", "acc%", "ST(s)",
              "TT(s)"},
             6, 10, true);
    RunResult first;
    for (std::int64_t v : values) {
      RunConfig cfg = DefaultRunConfig();
      set(cfg, v);
      const RunResult res = RunNodeClassification(MK::kE2gcl, g, cfg);
      if (v == values.front()) first = res;
      PrintRow({std::to_string(v), norm(res.accuracy, first.accuracy),
                norm(res.selection_seconds, first.selection_seconds),
                norm(res.total_seconds, first.total_seconds),
                Fmt(res.accuracy * 100.0), Fmt(res.selection_seconds, 3),
                Fmt(res.total_seconds)},
               6, 10);
    }
  }
}

// ---- The experiment table -------------------------------------------------

struct Experiment {
  const char* id;
  const char* title;
  const char* claim;  // the paper's shape to verify
  std::function<void()> run;
};

const std::vector<Experiment>& Experiments() {
  static const std::vector<Experiment> kAll = {
      {"table4", "Table IV: node classification accuracy (% ± std)",
       "E2GCL tops every column; GCL models (GCA, GRACE, MVGRL, AFGRL) "
       "beat traditional unsupervised (DW/N2V); MLP is the weakest.",
       [] {
         RunGrid({"Model", Models(Table4Models()), Datasets(SmallDatasets())});
       }},
      {"table5", "Table V: large graphs (accuracy %, ST and TT in seconds)",
       "E2GCL reaches the best accuracy with the smallest TT, and ST is a "
       "small fraction of TT.",
       Table5},
      {"table6", "Table VI: framework ablation (accuracy % ± std)",
       "the *,I rows beat the *,U rows, and S,I is comparable to A,I "
       "despite training on 40% of the nodes.",
       [] {
         // All (A) or selected (S) nodes x uniform (U) or importance-aware
         // (I) augmentation.
         RunGrid({"Variant",
                  {Ablation("E2GCL_{A,U}", false, false, false),
                   Ablation("E2GCL_{S,U}", true, false, false),
                   Ablation("E2GCL_{A,I}", false, true, true),
                   Ablation("E2GCL_{S,I}", true, true, true)},
                  Datasets(SmallDatasets())});
       }},
      {"table7", "Table VII: selection strategies, r = 0.1 (accuracy % ± std)",
       "Ours > Grain > KCG/KMeans > Degree > Random.",
       [] {
         // Each selector feeds the identical E2GCL view generator and
         // trainer, at a tight budget (r = 0.1) where the coreset choice
         // matters: at the paper's default r = 0.4, a 40% sample of these
         // synthetic graphs is representative for every strategy.
         Grid grid{"Selector", {}, Datasets(SmallDatasets())};
         for (SelectorKind kind :
              {SelectorKind::kRandom, SelectorKind::kDegree,
               SelectorKind::kKMeans, SelectorKind::kKCenterGreedy,
               SelectorKind::kGrain, SelectorKind::kE2gcl}) {
           grid.rows.push_back(
               {SelectorKindName(kind), MK::kE2gcl, [kind](RunConfig& c) {
                  c.e2gcl.node_ratio = 0.1;
                  c.e2gcl.external_selector =
                      [kind](const Matrix& raw, const Graph& graph,
                             const SelectorConfig& sc, Rng& rng) {
                        return SelectNodes(kind, graph, raw, sc.budget, sc,
                                           rng);
                      };
                }});
         }
         RunGrid(grid);
       }},
      {"table8", "Table VIII: view-generator ablation (accuracy % ± std)",
       "full > \\F > \\S > \\F\\S (edge importance matters more than "
       "feature importance).",
       [] {
         // Uniform feature perturbation (\F) and/or edge sampling (\S).
         RunGrid({"Variant",
                  {Ablation("E2GCL\\F\\S", true, false, false),
                   Ablation("E2GCL\\S", true, false, true),
                   Ablation("E2GCL\\F", true, true, false),
                   Ablation("E2GCL", true, true, true)},
                  Datasets(SmallDatasets())});
       }},
      {"table9", "Table IX: link prediction (AUC %), graph classification (%)",
       "E2GCL tops both task families; GCA is the strongest baseline.",
       [] {
         const std::vector<MK> models = {MK::kAfgrl, MK::kBgrl, MK::kMvgrl,
                                         MK::kGrace, MK::kGca, MK::kE2gcl};
         std::printf("\nLink prediction\n");
         RunGrid({"Model", Models(models),
                  Datasets({"photo", "computers", "cs"}), Task::kLink});
         // The union graph is large but extremely sparse; the per-graph
         // budget k_i = r |V_i| is the paper's setting.
         std::printf("\nGraph classification\n");
         const Setter r = [](RunConfig& c) { c.e2gcl.node_ratio = 0.4; };
         RunGrid({"Model", Models(models, r),
                  Datasets(GraphClassificationDatasets()), Task::kGraph});
       }},
      {"fig2", "Fig. 2: operation-set upgrades (accuracy % ± std)",
       "every upgraded variant sits above its original on both datasets.",
       [] {
         // Each model with its own op set, then upgraded: edge addition
         // (EA) and feature perturbation (FP) for the GRACE family, FP for
         // MVGRL, whose diffusion already adds edges. ADGCL is GRACE
         // without feature masking.
         const Setter adgcl = [](RunConfig& c) {
           c.grace.mask_features = false;
         };
         const Setter upgrade = [](RunConfig& c) {
           c.grace.add_edge_ratio = 0.08f;
           c.grace.feature_perturb_eta = 0.15f;
           c.mvgrl.feature_perturb_eta = 0.15f;
         };
         RunGrid({"Model (ops)",
                  {{"ADGCL {ED}", MK::kGrace, adgcl},
                   {"ADGCL {ED,FP,EA}", MK::kGrace,
                    [=](RunConfig& c) { adgcl(c); upgrade(c); }},
                   {"MVGRL {EA,ED}", MK::kMvgrl, nullptr},
                   {"MVGRL {EA,ED,FP}", MK::kMvgrl, upgrade},
                   {"GRACE {FM,ED}", MK::kGrace, nullptr},
                   {"GRACE {FM,ED,EA,FP}", MK::kGrace, upgrade},
                   {"GCA {FM,ED}", MK::kGca, nullptr},
                   {"GCA {FM,ED,EA,FP}", MK::kGca, upgrade}},
                  Datasets({"cora", "computers"})});
       }},
      {"fig3", "Fig. 3: accuracy-vs-time curves (seconds, accuracy %)",
       "E2GCL's curve rises faster and plateaus at or above the baselines.",
       Fig3},
      {"fig4a", "Fig. 4(a): accuracy (%) vs node budget ratio r",
       "accuracy stays flat for moderate r (redundant nodes exist) and then "
       "drops as r becomes tiny, with the dense Photo/Computers dropping "
       "hardest.",
       [] {
         Grid grid{"r", {}, Datasets(SmallDatasets()), Task::kNode,
                   /*one_seed=*/true};
         for (int p = 0; p <= 10; ++p) {
           const double r = 1.0 / (1 << p);
           grid.rows.push_back({Fmt(r, 5), MK::kE2gcl,
                                [r](RunConfig& c) { c.e2gcl.node_ratio = r; }});
         }
         RunGrid(grid);
       }},
      {"fig4b", "Fig. 4(b): sweep of cluster number n_c (normalized to first)",
       "selection time grows with n_c while accuracy and total time barely "
       "move.",
       [] {
         SelectorSweep("n_c", "n_s = 300", {30, 60, 90, 120, 180},
                       [](RunConfig& c, std::int64_t nc) {
                         c.e2gcl.selector.num_clusters = nc;
                         c.e2gcl.selector.sample_size = 300;
                       });
       }},
      {"fig4c", "Fig. 4(c): sweep of sample number n_s (normalized to first)",
       "selection time grows with n_s; accuracy rises then stabilizes; "
       "total time barely moves.",
       [] {
         // n_s * k evaluations per run: r = 0.1 keeps the sweep tractable.
         SelectorSweep("n_s", "n_c = 120, r = 0.1", {100, 200, 400, 700, 1000},
                       [](RunConfig& c, std::int64_t ns) {
                         c.e2gcl.selector.num_clusters = 120;
                         c.e2gcl.selector.sample_size = ns;
                         c.e2gcl.selector.auto_sample_size = false;
                         c.e2gcl.node_ratio = 0.1;
                       });
       }},
      {"fig4d", "Fig. 4(d): accuracy (%) vs tau-hat (rows) x tau-tilde (cols)",
       "inverted-U: tiny tau destroys locality, huge tau adds noise; the best "
       "cell sits in the middle/upper range.",
       [] { RunGrid(ViewSweep("tau_hat\\tilde", &ViewConfig::tau)); }},
      {"fig4e", "Fig. 4(e): accuracy (%) vs eta-hat (rows) x eta-tilde (cols)",
       "inverted-U: moderate perturbation gives diverse locality-preserved "
       "views; very large eta perturbs important features and hurts.",
       [] { RunGrid(ViewSweep("eta_hat\\tilde", &ViewConfig::eta)); }},
  };
  return kAll;
}

}  // namespace
}  // namespace e2gcl

int main(int argc, char** argv) {
  using e2gcl::Experiment;
  const std::vector<Experiment>& all = e2gcl::Experiments();
  std::vector<const Experiment*> chosen;
  for (int i = 1; i < argc; ++i) {
    const std::string id = argv[i];
    const auto it = std::find_if(all.begin(), all.end(), [&](auto& e) {
      return id == e.id;
    });
    if (it == all.end()) {
      std::fprintf(stderr, "%s: unknown experiment '%s'; valid ids:", argv[0],
                   argv[i]);
      for (const Experiment& e : all) std::fprintf(stderr, " %s", e.id);
      std::fprintf(stderr, "\n");
      return 2;
    }
    chosen.push_back(&*it);
  }
  if (chosen.empty()) {
    for (const Experiment& e : all) chosen.push_back(&e);
  }
  std::printf("Synthetic dataset stand-ins (see DESIGN.md); shapes, not\n"
              "absolute numbers, are comparable to the paper.\n");
  for (const Experiment* e : chosen) {
    const std::string rule(62, '=');
    std::printf("\n%s\n[%s] %s\nPaper claim: %s\n%s\n", rule.c_str(), e->id,
                e->title, e->claim, rule.c_str());
    std::fflush(stdout);
    e->run();
  }
  return 0;
}
