#ifndef E2GCL_CORE_TRAIN_LOOP_H_
#define E2GCL_CORE_TRAIN_LOOP_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/contrastive.h"
#include "core/node_selector.h"
#include "core/view_generator.h"
#include "io/serialize.h"
#include "nn/gcn.h"
#include "nn/mlp.h"
#include "obs/run_report.h"

namespace e2gcl {

/// Deterministic fault-injection hooks for robustness tests (see
/// tests/fault_tolerance_test.cc). All hooks are optional; production
/// runs leave them unset and pay nothing.
struct FaultInjector {
  /// Maps the observed per-epoch loss to the value fed into the health
  /// guard — return NaN/Inf at a chosen epoch to fake divergence.
  std::function<float(int epoch, float loss)> corrupt_loss;
  /// Called after an epoch completes (post-step, post-checkpoint).
  /// Return true to abandon training immediately, simulating a crash;
  /// Train() then returns TrainStatus::kKilled.
  std::function<bool(int epoch)> kill_after_epoch;
  /// Called right after the optimizer step with the full parameter list
  /// (encoder then projector); may mutate values in place to plant
  /// non-finite entries. Exercises the guard that checks parameter
  /// finiteness directly — the MatMul zero-skip can mask 0 * NaN into a
  /// finite loss, so a corrupted weight never shows up in the loss scalar.
  std::function<void(int epoch, std::vector<Var>& params)> corrupt_params;
};

/// Full configuration of the E2GCL pre-training pipeline (Alg. 1 lines
/// 1-5, with the node selector of Sec. III and the view generator of
/// Sec. IV). The ablation variants of Tables VI and VIII are expressed
/// through the flags below:
///   E2GCL_{A,*}: use_selector = false.
///   E2GCL_{*,U}: importance_edges = importance_features = false in
///                both view configs.
///   E2GCL\S: importance_edges = false; E2GCL\F: importance_features =
///   false.
struct E2gclConfig {
  // --- Node selector (Sec. III). -----------------------------------------
  bool use_selector = true;
  /// Node budget as a fraction r of |V| (paper default r = 0.4).
  double node_ratio = 0.4;
  SelectorConfig selector;
  /// Weight batch loss terms by the coreset weights lambda.
  bool use_coreset_weights = true;
  /// Replaces Alg. 2 with an arbitrary selection strategy (same budget
  /// and weights contract). Used by the Table VII selector ablation to
  /// plug Random/Degree/KMeans/KCG/Grain into the identical pipeline.
  std::function<SelectionResult(const Matrix& raw_aggregation,
                                const Graph& graph, const SelectorConfig&,
                                Rng&)>
      external_selector;

  // --- View generator (Sec. IV). ------------------------------------------
  /// The two positive-view channels (tau-hat/eta-hat, tau-tilde/eta-tilde).
  ViewConfig view_hat{.tau = 0.8f, .eta = 0.5f};
  ViewConfig view_tilde{.tau = 0.6f, .eta = 0.7f};

  // --- Encoder / optimization. ---------------------------------------------
  std::int64_t hidden_dim = 64;
  std::int64_t embed_dim = 64;
  int num_layers = 2;
  float dropout = 0.1f;
  float lr = 5e-3f;
  float weight_decay = 1e-5f;
  int epochs = 60;
  /// Contrastive batch size (paper: 500 for all approaches).
  std::int64_t batch_size = 500;
  float temperature = 0.5f;
  ContrastiveLossKind loss = ContrastiveLossKind::kInfoNce;
  /// Use a 2-layer projection head before the loss (GRACE-style).
  bool projection_head = true;
  std::uint64_t seed = 1;

  // --- Fault tolerance (checkpoint/restore + health guards). ---------------
  /// Directory for epoch-stamped checkpoints (created if missing).
  /// Empty disables checkpointing entirely.
  std::string checkpoint_dir;
  /// Write a checkpoint every this many completed epochs (the final
  /// epoch is always checkpointed). Must be >= 1 when checkpointing.
  int checkpoint_every = 10;
  /// Keep only the newest K checkpoint files; older ones are pruned.
  int checkpoint_keep = 3;
  /// On Train(), resume from the newest *valid* checkpoint found in
  /// checkpoint_dir; corrupted or mismatched files are skipped with a
  /// logged warning. Resumed runs are bit-identical to uninterrupted
  /// runs at the same thread count.
  bool resume = true;
  /// Divergence recovery budget: on a non-finite loss, gradient or
  /// parameter the trainer rolls back to the last checkpoint (or the
  /// initial state), halves the learning rate, reseeds its RNG streams,
  /// and retries — up to this many times before Train() fails with
  /// kDiverged.
  int max_retries = 2;
  /// Global gradient-norm clip applied before each Adam step
  /// (0 disables clipping).
  float grad_clip_norm = 0.0f;
  /// Test-only fault hooks; unset in production runs.
  FaultInjector fault_injector;

  // --- Observability. ------------------------------------------------------
  /// Where Train() writes its versioned run_report.json (schema in
  /// obs/run_report.h). Empty: defaults to
  /// `<checkpoint_dir>/run_report.json` when checkpointing, else no
  /// report is written.
  std::string report_path;
};

/// Timing breakdown of one pre-training run (Table V's ST/TT columns).
struct E2gclStats {
  double selection_seconds = 0.0;   // ST
  double view_seconds = 0.0;        // view generation share of TT
  double total_seconds = 0.0;       // TT (selection + views + optimization)
  int epochs_run = 0;
};

/// Per-epoch observation hook for time-accuracy curves (Fig. 3):
/// (epoch index, seconds elapsed since training start including
/// selection, current encoder).
using EpochCallback =
    std::function<void(int, double, const GcnEncoder&)>;

/// Why Train() returned.
enum class TrainStatus {
  kOk = 0,
  /// Loss, gradients or parameters went non-finite and the retry budget
  /// was exhausted; the encoder holds the last rolled-back (finite)
  /// state, not garbage.
  kDiverged,
  /// A FaultInjector kill hook stopped the run mid-training (tests
  /// only); state up to the last checkpoint is on disk.
  kKilled,
};

/// One structured lifecycle event of a Train() call. Replaces the old
/// stderr-only warnings so tests (and the run report) can assert on
/// exact occurrence counts instead of scraping logs.
struct TrainEvent {
  enum class Kind {
    kResume,                  ///< Resumed from an on-disk checkpoint.
    kRetry,                   ///< Non-finite loss/grad -> rollback + retry.
    kDiverged,                ///< Retry budget exhausted.
    kKilled,                  ///< FaultInjector kill hook fired.
    kCheckpointWrite,         ///< Checkpoint written successfully.
    kCheckpointWriteFailure,  ///< Checkpoint write failed (run continues).
  };
  Kind kind;
  /// Epoch the event happened at (-1 for pre-training-loop events).
  int epoch = 0;
  std::string detail;
};

/// Stable lowercase name for a TrainEvent kind (used in run reports).
const char* TrainEventKindName(TrainEvent::Kind kind);

/// Structured outcome of one Train() call.
struct TrainResult {
  TrainStatus status = TrainStatus::kOk;
  /// First epoch this call actually ran (> 0 after a resume).
  int start_epoch = 0;
  /// True when training continued from an on-disk checkpoint.
  bool resumed = false;
  /// Divergence retries consumed (across resumes).
  int retries_used = 0;
  /// Human-readable detail for kDiverged/kKilled.
  std::string message;
  /// Every lifecycle event, in occurrence order.
  std::vector<TrainEvent> events;

  bool ok() const { return status == TrainStatus::kOk; }
  /// Number of recorded events of `kind`.
  int CountEvents(TrainEvent::Kind kind) const;
};

/// Seed of a run's RNG streams after `retries` divergence retries:
/// seed ^ golden_ratio * retries, so retries = 0 is the seed itself.
std::uint64_t RetrySeed(std::uint64_t seed, std::int64_t retries);

/// FNV-1a over the config knobs that shape parameter tensors or the
/// training trajectory, followed by `layout` (the trainer's graph and
/// shard shape). The total epoch count is left out, so a finished run
/// can be resumed with a larger budget.
std::uint64_t TrainFingerprint(const E2gclConfig& config,
                               const ByteWriter& layout);

/// The pre-training loop of Alg. 1, shared by E2gclTrainer and
/// ShardedTrainer. It owns the model (encoder and optional projection
/// head, built from an Rng seeded with config.seed), the optimizer, and
/// everything about a run that does not depend on how an epoch is
/// computed: resume and the rollback anchor, the health guard with its
/// retries, gradient clipping, the FaultInjector hooks, checkpoints,
/// per-epoch records, the epoch callback and the run report. A trainer
/// supplies its selection and its epoch body.
class TrainLoop {
 public:
  /// Forward, loss and backward of one epoch: calls ZeroGrad() before
  /// its first Backward(), so the model's parameter gradients hold this
  /// epoch's alone. Adds the view-generation and loss timings to
  /// `record` and returns the epoch loss. `retries` counts the
  /// divergence retries so far (see RetrySeed).
  using EpochBody = std::function<double(int epoch, std::int64_t retries,
                                         RunReport::Epoch& record)>;

  struct Spec {
    /// Span opened around each epoch ("epoch", "shard.epoch").
    const char* epoch_span = "epoch";
    /// The calling trainer's ConfigFingerprint().
    std::uint64_t fingerprint = 0;
    /// Runs once before the first epoch (node selection). A non-empty
    /// return ends the run as kDiverged with that message.
    std::function<std::string()> prepare;
    EpochBody epoch;
    EpochCallback callback;
  };

  TrainLoop(const E2gclConfig& config, std::int64_t num_nodes,
            std::int64_t feature_dim);

  /// prepare, then epochs from 0 (or from the newest valid checkpoint
  /// when config.resume) to config.epochs. Safe to call once.
  TrainResult Run(const Spec& spec);

  /// Drops the gradients of every encoder and projector parameter. An
  /// epoch body chooses when: the point decides which buffers are live
  /// together, and so the run's peak RSS.
  void ZeroGrad();

  const E2gclConfig& config() const { return config_; }
  GcnEncoder& encoder() { return *encoder_; }
  const GcnEncoder& encoder() const { return *encoder_; }
  /// Null when config.projection_head is off.
  Mlp* projector() { return projector_.get(); }
  /// The stream model construction drew from; checkpointed, restored on
  /// resume, and reseeded on every retry.
  Rng& rng() { return rng_; }
  E2gclStats& stats() { return stats_; }
  const E2gclStats& stats() const { return stats_; }

 private:
  E2gclConfig config_;
  Rng rng_;
  std::unique_ptr<GcnEncoder> encoder_;
  std::unique_ptr<Mlp> projector_;
  E2gclStats stats_;
};

}  // namespace e2gcl

#endif  // E2GCL_CORE_TRAIN_LOOP_H_
