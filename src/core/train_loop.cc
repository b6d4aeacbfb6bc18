#include "core/train_loop.h"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>

#include "io/checkpoint.h"
#include "nn/optim.h"
#include "obs/metrics.h"
#include "obs/resource.h"
#include "obs/trace.h"
#include "parallel/thread_pool.h"
#include "tensor/check.h"

namespace e2gcl {

namespace {

/// FNV-1a over a byte buffer; stable across platforms/compilers.
std::uint64_t Fnv1a(const std::string& bytes) {
  std::uint64_t h = 1469598103934665603ull;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

/// The trainer's status as a stable report string.
const char* StatusName(TrainStatus status) {
  switch (status) {
    case TrainStatus::kOk:
      return "ok";
    case TrainStatus::kDiverged:
      return "diverged";
    case TrainStatus::kKilled:
      return "killed";
  }
  return "unknown";
}

}  // namespace

const char* TrainEventKindName(TrainEvent::Kind kind) {
  switch (kind) {
    case TrainEvent::Kind::kResume:
      return "resume";
    case TrainEvent::Kind::kRetry:
      return "retry";
    case TrainEvent::Kind::kDiverged:
      return "diverged";
    case TrainEvent::Kind::kKilled:
      return "killed";
    case TrainEvent::Kind::kCheckpointWrite:
      return "checkpoint_write";
    case TrainEvent::Kind::kCheckpointWriteFailure:
      return "checkpoint_write_failure";
  }
  return "unknown";
}

int TrainResult::CountEvents(TrainEvent::Kind kind) const {
  int count = 0;
  for (const TrainEvent& e : events) {
    if (e.kind == kind) ++count;
  }
  return count;
}

std::uint64_t RetrySeed(std::uint64_t seed, std::int64_t retries) {
  return seed ^ (0x9E3779B97F4A7C15ull * static_cast<std::uint64_t>(retries));
}

std::uint64_t TrainFingerprint(const E2gclConfig& config,
                               const ByteWriter& layout) {
  ByteWriter w;
  w.WriteU64(config.seed);
  w.WriteI64(config.hidden_dim);
  w.WriteI64(config.embed_dim);
  w.WriteI64(config.num_layers);
  w.WriteF32(config.dropout);
  w.WriteF32(config.lr);
  w.WriteF32(config.weight_decay);
  w.WriteI64(config.batch_size);
  w.WriteF32(config.temperature);
  w.WriteU32(static_cast<std::uint32_t>(config.loss));
  w.WriteU32(config.projection_head ? 1 : 0);
  w.WriteU32(config.use_selector ? 1 : 0);
  w.WriteF32(static_cast<float>(config.node_ratio));
  w.WriteU32(config.use_coreset_weights ? 1 : 0);
  w.WriteF32(config.grad_clip_norm);
  w.WriteBytes(layout.bytes().data(), layout.bytes().size());
  return Fnv1a(w.bytes());
}

TrainLoop::TrainLoop(const E2gclConfig& config, std::int64_t num_nodes,
                     std::int64_t feature_dim)
    : config_(config), rng_(config.seed) {
  E2GCL_CHECK(num_nodes > 1);
  E2GCL_CHECK(feature_dim > 0);
  GcnConfig enc;
  enc.dims.assign(config.num_layers + 1, config.hidden_dim);
  enc.dims.front() = feature_dim;
  enc.dims.back() = config.embed_dim;
  enc.dropout = config.dropout;
  encoder_ = std::make_unique<GcnEncoder>(enc, rng_);
  if (config.projection_head) {
    MlpConfig proj;
    proj.dims = {config.embed_dim, config.embed_dim, config.embed_dim};
    projector_ = std::make_unique<Mlp>(proj, rng_);
  }
}

void TrainLoop::ZeroGrad() {
  encoder_->params().ZeroGrad();
  if (projector_ != nullptr) projector_->params().ZeroGrad();
}

TrainResult TrainLoop::Run(const Spec& spec) {
  const auto t0 = std::chrono::steady_clock::now();
  const FaultInjector& faults = config_.fault_injector;

  static const Counter epochs_counter = Counter::Get("trainer.epochs");
  static const Counter retries_counter = Counter::Get("trainer.retries");
  static const Counter resumes_counter = Counter::Get("trainer.resumes");

  // Per-epoch counter snapshots in the run report are deltas from this
  // baseline, so they are independent of whatever ran earlier in the
  // process (the registry is process-global).
  const MetricsSnapshot metrics_baseline = MetricsRegistry::Get().Snapshot();
  std::vector<RunReport::Epoch> epoch_records;
  TrainResult result;
  std::int64_t retries = 0;
  float lr_scale = 1.0f;

  // Routes every exit through run-report emission. The report lands at
  // config_.report_path, or next to the checkpoints when only
  // checkpoint_dir is set; with neither, no report is written.
  auto finish = [&]() {
    result.retries_used = static_cast<int>(retries);
    stats_.total_seconds = SecondsSince(t0);
    // Sample the process high-water mark into the (determinism-exempt)
    // gauge so every run report carries its peak RSS.
    RecordPeakRssGauge();
    std::string report_path = config_.report_path;
    if (report_path.empty() && !config_.checkpoint_dir.empty()) {
      report_path = config_.checkpoint_dir + "/run_report.json";
    }
    if (!report_path.empty()) {
      RunReport report;
      char fp[24];
      std::snprintf(fp, sizeof(fp), "%016llx",
                    static_cast<unsigned long long>(spec.fingerprint));
      report.config_fingerprint = fp;
      report.seed = config_.seed;
      report.threads = GetNumThreads();
      report.status = StatusName(result.status);
      report.resumed = result.resumed;
      report.start_epoch = result.start_epoch;
      report.retries_used = result.retries_used;
      report.selection_seconds = stats_.selection_seconds;
      report.total_seconds = stats_.total_seconds;
      report.epochs = epoch_records;
      for (const TrainEvent& e : result.events) {
        report.events.push_back(
            {TrainEventKindName(e.kind), e.epoch, e.detail});
      }
      report.metrics = MetricsRegistry::Get().Snapshot().DeltaFrom(
          metrics_baseline);
      report.spans = TraceRegistry::Get().Snapshot();
      if (!SaveRunReport(report_path, report)) {
        std::fprintf(stderr,
                     "[e2gcl] warning: failed to write run report %s\n",
                     report_path.c_str());
      }
    }
    return std::move(result);
  };

  if (std::string error = spec.prepare(); !error.empty()) {
    result.status = TrainStatus::kDiverged;
    result.message = std::move(error);
    return finish();
  }

  std::vector<Var> params = encoder_->params().params();
  if (projector_ != nullptr) {
    for (const Var& p : projector_->params().params()) params.push_back(p);
  }
  Adam::Options opts;
  opts.lr = config_.lr;
  opts.weight_decay = config_.weight_decay;
  Adam adam(params, opts);

  // Snapshots all mutable training state as of completed epoch `epoch`.
  auto capture = [&](std::int64_t epoch) {
    TrainerCheckpoint c;
    c.epoch = epoch;
    c.config_fingerprint = spec.fingerprint;
    c.retries_used = retries;
    c.lr_scale = lr_scale;
    c.rng_state = rng_.SerializeState();
    c.encoder_params = encoder_->params().CloneValues();
    if (projector_ != nullptr) {
      c.projector_params = projector_->params().CloneValues();
    }
    AdamState state = adam.CloneState();
    c.adam_m = std::move(state.m);
    c.adam_v = std::move(state.v);
    c.adam_t = state.t;
    return c;
  };
  // Restores a snapshot's model, optimizer and RNG state; false on a
  // shape/count mismatch. Everything is validated before anything is
  // applied, so a mismatched checkpoint never half-restores.
  auto restore = [&](const TrainerCheckpoint& ckpt) {
    if (!encoder_->params().ShapesMatch(ckpt.encoder_params)) return false;
    if (projector_ != nullptr
            ? !projector_->params().ShapesMatch(ckpt.projector_params)
            : !ckpt.projector_params.empty()) {
      return false;
    }
    AdamState state;
    state.m = ckpt.adam_m;
    state.v = ckpt.adam_v;
    state.t = ckpt.adam_t;
    if (!rng_.RestoreState(ckpt.rng_state)) return false;
    if (!adam.LoadState(state)) return false;
    encoder_->params().LoadValues(ckpt.encoder_params);
    if (projector_ != nullptr) {
      projector_->params().LoadValues(ckpt.projector_params);
    }
    return true;
  };

  // Rollback anchor for divergence recovery: the initial (epoch -1)
  // state until the first checkpoint replaces it.
  TrainerCheckpoint rollback = capture(-1);

  const bool checkpointing = !config_.checkpoint_dir.empty();
  if (checkpointing) {
    E2GCL_CHECK(config_.checkpoint_every >= 1);
    E2GCL_CHECK(config_.checkpoint_keep >= 1);
    std::error_code ec;
    std::filesystem::create_directories(config_.checkpoint_dir, ec);
    if (config_.resume) {
      TrainerCheckpoint ckpt;
      std::string from;
      if (FindNewestValidCheckpoint(config_.checkpoint_dir, spec.fingerprint,
                                    &ckpt, &from)) {
        if (restore(ckpt)) {
          retries = ckpt.retries_used;
          lr_scale = ckpt.lr_scale;
          adam.set_lr(config_.lr * lr_scale);
          result.resumed = true;
          result.start_epoch = static_cast<int>(ckpt.epoch) + 1;
          resumes_counter.Increment();
          result.events.push_back({TrainEvent::Kind::kResume,
                                   static_cast<int>(ckpt.epoch),
                                   "resumed from " + from});
          rollback = std::move(ckpt);
        } else {
          std::fprintf(stderr,
                       "[e2gcl] warning: checkpoint %s does not match the "
                       "current model; starting fresh\n",
                       from.c_str());
        }
      }
    }
  }

  for (int epoch = result.start_epoch; epoch < config_.epochs; ++epoch) {
    TraceSpan epoch_span(spec.epoch_span);
    RunReport::Epoch record;
    record.epoch = epoch;

    const double loss = spec.epoch(epoch, retries, record);
    stats_.view_seconds += record.view_seconds;

    // --- Training health guard. ------------------------------------------
    // Loss and gradient norm are checked before the step, so a
    // non-finite gradient never reaches the Adam moments. Parameters are
    // checked after the step and before any checkpoint captures them:
    // the zero-skip fast path in MatMul/MatMulTransposedA evaluates
    // 0 * NaN as 0, so a non-finite weight multiplied only by zero
    // activations produces a finite loss AND a zero gradient, and would
    // otherwise become the rollback anchor.
    const double guarded_loss =
        faults.corrupt_loss
            ? faults.corrupt_loss(epoch, static_cast<float>(loss))
            : loss;
    double grad_sq = 0.0;
    for (const Var& p : params) {
      const Matrix& g = p.grad();
      for (std::int64_t j = 0; j < g.size(); ++j) {
        const double gj = g.data()[j];
        grad_sq += gj * gj;
      }
    }
    const double grad_norm = std::sqrt(grad_sq);
    bool healthy = std::isfinite(guarded_loss) && std::isfinite(grad_norm);
    const auto ts = std::chrono::steady_clock::now();
    if (healthy) {
      // Global gradient-norm clipping (0 = off).
      if (config_.grad_clip_norm > 0.0f &&
          grad_norm > static_cast<double>(config_.grad_clip_norm)) {
        const float scale =
            config_.grad_clip_norm / static_cast<float>(grad_norm);
        for (Var& p : params) {
          if (p.grad().empty()) continue;
          Matrix& g = p.mutable_grad();
          for (std::int64_t j = 0; j < g.size(); ++j) g.data()[j] *= scale;
        }
      }
      adam.Step();
      if (faults.corrupt_params) faults.corrupt_params(epoch, params);
      for (const Var& p : params) healthy = healthy && AllFinite(p.value());
    }
    record.step_seconds = SecondsSince(ts);

    if (!healthy) {
      if (retries >= config_.max_retries) {
        // Leave the encoder at the last finite state, not garbage.
        restore(rollback);
        result.status = TrainStatus::kDiverged;
        char msg[160];
        std::snprintf(msg, sizeof(msg),
                      "non-finite loss/gradient/parameters at epoch %d after "
                      "%lld retries (lr scale %.4g)",
                      epoch, static_cast<long long>(retries), lr_scale);
        result.message = msg;
        result.events.push_back(
            {TrainEvent::Kind::kDiverged, epoch, result.message});
        return finish();
      }
      ++retries;
      retries_counter.Increment();
      lr_scale *= 0.5f;
      if (!restore(rollback)) {
        // The in-memory anchor always matches; this cannot fail, but
        // never continue on a half-restored state.
        result.status = TrainStatus::kDiverged;
        result.message = "rollback failed";
        result.events.push_back(
            {TrainEvent::Kind::kDiverged, epoch, result.message});
        return finish();
      }
      adam.set_lr(config_.lr * lr_scale);
      // Reseed so the retry explores a different augmentation trajectory
      // instead of replaying the one that diverged: this stream here,
      // and any stream an epoch body derives from (seed, retries).
      rng_ = Rng(RetrySeed(config_.seed, retries));
      char detail[160];
      std::snprintf(detail, sizeof(detail),
                    "non-finite loss/gradient/parameters; rolled back to "
                    "epoch %lld, lr scale %.4g (retry %lld/%d)",
                    static_cast<long long>(rollback.epoch), lr_scale,
                    static_cast<long long>(retries), config_.max_retries);
      result.events.push_back({TrainEvent::Kind::kRetry, epoch, detail});
      std::fprintf(stderr,
                   "[e2gcl] warning: non-finite loss/gradient/parameters at "
                   "epoch %d; rolled back to epoch %lld, lr scale %.4g "
                   "(retry %lld/%d)\n",
                   epoch, static_cast<long long>(rollback.epoch), lr_scale,
                   static_cast<long long>(retries), config_.max_retries);
      // Drop per-epoch records from the abandoned trajectory.
      while (!epoch_records.empty() &&
             epoch_records.back().epoch > static_cast<int>(rollback.epoch)) {
        epoch_records.pop_back();
      }
      epoch = static_cast<int>(rollback.epoch);  // ++ resumes at epoch + 1
      continue;
    }
    stats_.epochs_run = epoch + 1;
    epochs_counter.Increment();

    // --- Checkpointing (atomic write, keep-last-K). -----------------------
    if (checkpointing && ((epoch + 1) % config_.checkpoint_every == 0 ||
                          epoch + 1 == config_.epochs)) {
      const auto tc = std::chrono::steady_clock::now();
      TrainerCheckpoint ckpt = capture(epoch);
      const std::string path = CheckpointPath(config_.checkpoint_dir, epoch);
      if (SaveTrainerCheckpoint(path, ckpt)) {
        PruneCheckpoints(config_.checkpoint_dir, config_.checkpoint_keep);
        rollback = std::move(ckpt);
        result.events.push_back(
            {TrainEvent::Kind::kCheckpointWrite, epoch, path});
      } else {
        result.events.push_back(
            {TrainEvent::Kind::kCheckpointWriteFailure, epoch, path});
        std::fprintf(stderr,
                     "[e2gcl] warning: failed to write checkpoint %s\n",
                     path.c_str());
      }
      record.checkpoint_seconds = SecondsSince(tc);
    }

    record.loss = loss;
    record.counters =
        MetricsRegistry::Get().Snapshot().DeltaFrom(metrics_baseline).counters;
    epoch_records.push_back(std::move(record));

    if (spec.callback) spec.callback(epoch, SecondsSince(t0), *encoder_);

    if (faults.kill_after_epoch && faults.kill_after_epoch(epoch)) {
      result.status = TrainStatus::kKilled;
      char msg[96];
      std::snprintf(msg, sizeof(msg),
                    "killed by fault injector after epoch %d", epoch);
      result.message = msg;
      result.events.push_back(
          {TrainEvent::Kind::kKilled, epoch, result.message});
      return finish();
    }
  }
  return finish();
}

}  // namespace e2gcl
