#ifndef E2GCL_EVAL_PROTOCOL_H_
#define E2GCL_EVAL_PROTOCOL_H_

#include <optional>
#include <string>
#include <vector>

#include "baselines/bgrl.h"
#include "baselines/deepwalk.h"
#include "baselines/dgi.h"
#include "baselines/gae.h"
#include "baselines/grace.h"
#include "baselines/mvgrl.h"
#include "baselines/supervised.h"
#include "core/trainer.h"
#include "eval/linear_probe.h"
#include "eval/metrics.h"

namespace e2gcl {

/// Every model the experiments compare. Matches the rows of Tables IV/V.
enum class ModelKind {
  kMlp,       // supervised
  kGcn,       // supervised
  kDeepWalk,  // traditional unsupervised
  kNode2Vec,
  kGae,  // GCL family
  kVgae,
  kDgi,
  kBgrl,
  kAfgrl,
  kMvgrl,
  kGrace,
  kGca,
  kE2gcl,
};

/// Parses a model name ("e2gcl", "dw", ...); nullopt for an unknown one.
std::optional<ModelKind> FindModelKind(const std::string& name);
/// As FindModelKind, but aborts on an unknown name.
ModelKind ModelKindFromName(const std::string& name);
std::string ModelKindName(ModelKind kind);

/// All models of Table IV, in row order.
std::vector<ModelKind> Table4Models();

/// Shared experiment configuration. Model-family sub-configs inherit
/// `epochs`/`seed` unless the caller overrides them explicitly.
struct RunConfig {
  int epochs = 60;
  std::uint64_t seed = 1;
  double train_frac = 0.1;
  double val_frac = 0.1;
  E2gclConfig e2gcl;
  GraceConfig grace;
  DgiConfig dgi;
  BgrlConfig bgrl;
  MvgrlConfig mvgrl;
  GaeConfig gae;
  DeepWalkConfig deepwalk;
  SupervisedConfig supervised;
  LinearProbeConfig probe;
};

/// Result of one end-to-end run.
struct RunResult {
  double accuracy = 0.0;
  double selection_seconds = 0.0;  // ST (0 for baselines)
  double total_seconds = 0.0;      // TT of pre-training
};

/// Pre-trains `kind` on `g` and returns the frozen node embedding.
/// `stats`, if non-null, receives the timing breakdown. Supervised
/// models are not embedding models and abort here.
Matrix ComputeEmbedding(ModelKind kind, const Graph& g,
                        const RunConfig& config, E2gclStats* stats = nullptr,
                        const EpochCallback& callback = nullptr);

/// Full protocol for node classification (Alg. 1): pre-train, linear
/// probe, return test accuracy + timings. Supervised models train
/// end-to-end instead.
RunResult RunNodeClassification(ModelKind kind, const Graph& g,
                                const RunConfig& config);

/// Repeats RunNodeClassification over `num_runs` seeds (seed, seed+1,
/// ...) and aggregates accuracy; timing columns are averaged.
struct AggregateResult {
  MeanStd accuracy;  // in percent
  double selection_seconds = 0.0;
  double total_seconds = 0.0;
};
AggregateResult RunRepeated(ModelKind kind, const Graph& g,
                            const RunConfig& config, int num_runs);

}  // namespace e2gcl

#endif  // E2GCL_EVAL_PROTOCOL_H_
