#include "eval/protocol.h"

#include <chrono>

#include "graph/splits.h"
#include "obs/trace.h"
#include "tensor/check.h"

namespace e2gcl {

std::optional<ModelKind> FindModelKind(const std::string& name) {
  if (name == "mlp") return ModelKind::kMlp;
  if (name == "gcn") return ModelKind::kGcn;
  if (name == "deepwalk" || name == "dw") return ModelKind::kDeepWalk;
  if (name == "node2vec" || name == "n2v") return ModelKind::kNode2Vec;
  if (name == "gae") return ModelKind::kGae;
  if (name == "vgae") return ModelKind::kVgae;
  if (name == "dgi") return ModelKind::kDgi;
  if (name == "bgrl") return ModelKind::kBgrl;
  if (name == "afgrl") return ModelKind::kAfgrl;
  if (name == "mvgrl") return ModelKind::kMvgrl;
  if (name == "grace") return ModelKind::kGrace;
  if (name == "gca") return ModelKind::kGca;
  if (name == "e2gcl") return ModelKind::kE2gcl;
  return std::nullopt;
}

ModelKind ModelKindFromName(const std::string& name) {
  const std::optional<ModelKind> kind = FindModelKind(name);
  E2GCL_CHECK_MSG(kind.has_value(), "unknown model '%s'", name.c_str());
  return *kind;
}

std::string ModelKindName(ModelKind kind) {
  switch (kind) {
    case ModelKind::kMlp: return "MLP";
    case ModelKind::kGcn: return "GCN";
    case ModelKind::kDeepWalk: return "DW";
    case ModelKind::kNode2Vec: return "N2V";
    case ModelKind::kGae: return "GAE";
    case ModelKind::kVgae: return "VGAE";
    case ModelKind::kDgi: return "DGI";
    case ModelKind::kBgrl: return "BGRL";
    case ModelKind::kAfgrl: return "AFGRL";
    case ModelKind::kMvgrl: return "MVGRL";
    case ModelKind::kGrace: return "GRACE";
    case ModelKind::kGca: return "GCA";
    case ModelKind::kE2gcl: return "E2GCL";
  }
  return "?";
}

std::vector<ModelKind> Table4Models() {
  return {ModelKind::kMlp,   ModelKind::kGcn,   ModelKind::kDeepWalk,
          ModelKind::kNode2Vec, ModelKind::kGae, ModelKind::kVgae,
          ModelKind::kDgi,   ModelKind::kBgrl,  ModelKind::kAfgrl,
          ModelKind::kMvgrl, ModelKind::kGrace, ModelKind::kGca,
          ModelKind::kE2gcl};
}

Matrix ComputeEmbedding(ModelKind kind, const Graph& g,
                        const RunConfig& config, E2gclStats* stats,
                        const EpochCallback& callback) {
  auto fill = [&](const E2gclStats& s) {
    if (stats != nullptr) *stats = s;
  };
  switch (kind) {
    case ModelKind::kDeepWalk:
    case ModelKind::kNode2Vec: {
      DeepWalkConfig dw = config.deepwalk;
      dw.seed = config.seed;
      if (kind == ModelKind::kNode2Vec) {
        dw.p = 0.5f;
        dw.q = 2.0f;
      }
      const auto t0 = std::chrono::steady_clock::now();
      Matrix emb = TrainDeepWalk(g, dw);
      E2gclStats s;
      s.total_seconds = SecondsSince(t0);
      fill(s);
      return emb;
    }
    case ModelKind::kGae:
    case ModelKind::kVgae: {
      GaeConfig gc = config.gae;
      gc.variational = (kind == ModelKind::kVgae);
      gc.epochs = config.epochs;
      gc.seed = config.seed;
      GaeTrainer trainer(g, gc);
      trainer.Train(callback);
      fill(trainer.stats());
      return trainer.Embed();
    }
    case ModelKind::kDgi: {
      DgiConfig dc = config.dgi;
      // DGI's single corrupted pass costs about a third of the
      // two-view methods per epoch; give it the same wall-clock budget.
      dc.epochs = 3 * config.epochs;
      dc.seed = config.seed;
      DgiTrainer trainer(g, dc);
      trainer.Train(callback);
      fill(trainer.stats());
      return trainer.encoder().Encode(g);
    }
    case ModelKind::kBgrl:
    case ModelKind::kAfgrl: {
      BgrlConfig bc = config.bgrl;
      bc.augmentation_free = (kind == ModelKind::kAfgrl);
      bc.epochs = config.epochs;
      bc.seed = config.seed;
      BgrlTrainer trainer(g, bc);
      trainer.Train(callback);
      fill(trainer.stats());
      return trainer.encoder().Encode(g);
    }
    case ModelKind::kMvgrl: {
      MvgrlConfig mc = config.mvgrl;
      mc.epochs = config.epochs;
      mc.seed = config.seed;
      MvgrlTrainer trainer(g, mc);
      trainer.Train(callback);
      fill(trainer.stats());
      return trainer.Embed();
    }
    case ModelKind::kGrace:
    case ModelKind::kGca: {
      GraceConfig gc = config.grace;
      gc.adaptive = (kind == ModelKind::kGca);
      gc.epochs = config.epochs;
      gc.seed = config.seed;
      GraceTrainer trainer(g, gc);
      trainer.Train(callback);
      fill(trainer.stats());
      return trainer.encoder().Encode(g);
    }
    case ModelKind::kE2gcl: {
      E2gclConfig ec = config.e2gcl;
      ec.epochs = config.epochs;
      ec.seed = config.seed;
      E2gclTrainer trainer(g, ec);
      trainer.Train(callback);
      fill(trainer.stats());
      return trainer.encoder().Encode(g);
    }
    case ModelKind::kMlp:
    case ModelKind::kGcn:
      E2GCL_CHECK_MSG(false,
                      "supervised models have no embedding; use "
                      "RunNodeClassification");
  }
  return Matrix();
}

RunResult RunNodeClassification(ModelKind kind, const Graph& g,
                                const RunConfig& config) {
  E2GCL_CHECK(!g.labels.empty());
  Rng split_rng(config.seed * 7919 + 13);
  NodeSplit split = RandomNodeSplit(g.num_nodes, config.train_frac,
                                    config.val_frac, split_rng);
  RunResult result;
  if (kind == ModelKind::kMlp || kind == ModelKind::kGcn) {
    SupervisedConfig sc = config.supervised;
    sc.seed = config.seed;
    const auto t0 = std::chrono::steady_clock::now();
    result.accuracy = (kind == ModelKind::kGcn)
                          ? TrainSupervisedGcn(g, split, sc)
                          : TrainSupervisedMlp(g, split, sc);
    result.total_seconds = SecondsSince(t0);
    return result;
  }
  E2gclStats stats;
  Matrix emb = ComputeEmbedding(kind, g, config, &stats);
  LinearProbeConfig probe = config.probe;
  probe.seed = config.seed * 31 + 5;
  result.accuracy =
      LinearProbeAccuracy(emb, g.labels, g.num_classes, split, probe);
  result.selection_seconds = stats.selection_seconds;
  result.total_seconds = stats.total_seconds;
  return result;
}

AggregateResult RunRepeated(ModelKind kind, const Graph& g,
                            const RunConfig& config, int num_runs) {
  E2GCL_CHECK(num_runs >= 1);
  std::vector<double> accs;
  double st = 0.0, tt = 0.0;
  for (int i = 0; i < num_runs; ++i) {
    RunConfig rc = config;
    rc.seed = config.seed + static_cast<std::uint64_t>(i);
    RunResult r = RunNodeClassification(kind, g, rc);
    accs.push_back(r.accuracy * 100.0);
    st += r.selection_seconds;
    tt += r.total_seconds;
  }
  AggregateResult agg;
  agg.accuracy = ComputeMeanStd(accs);
  agg.selection_seconds = st / num_runs;
  agg.total_seconds = tt / num_runs;
  return agg;
}

}  // namespace e2gcl
