// Fault-injection harness for the pre-training loop: kill-and-resume
// bit-identity, corrupted/truncated checkpoint recovery, NaN-divergence
// rollback with lr backoff and reseeding, gradient clipping, and
// checkpoint pruning. Every case runs against both trainers that share
// the loop: the resident E2gclTrainer and a two-shard ShardedTrainer.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "core/trainer.h"
#include "graph/generators.h"
#include "io/checkpoint.h"
#include "obs/run_report.h"
#include "shard/sharded_trainer.h"
#include "test_util.h"

namespace e2gcl {
namespace {

namespace fs = std::filesystem;

Graph FaultGraph(std::uint64_t seed = 1) {
  SbmSpec spec;
  spec.num_nodes = 120;
  spec.num_classes = 3;
  spec.feature_dim = 16;
  spec.avg_degree = 6;
  spec.informative_dims_per_class = 4;
  return GenerateSbm(spec, seed);
}

E2gclConfig FaultConfig() {
  E2gclConfig cfg;
  cfg.epochs = 8;
  cfg.hidden_dim = 12;
  cfg.embed_dim = 8;
  cfg.batch_size = 48;
  cfg.selector.num_clusters = 6;
  cfg.selector.sample_size = 24;
  cfg.selector.auto_sample_size = false;
  cfg.checkpoint_every = 2;
  return cfg;
}

/// The two trainers under test, both built from (graph, E2gclConfig).
struct ResidentTrainer : E2gclTrainer {
  using E2gclTrainer::E2gclTrainer;
};
struct TwoShardTrainer : ShardedTrainer {
  TwoShardTrainer(const Graph& g, const E2gclConfig& cfg)
      : ShardedTrainer(g, {.base = cfg, .num_shards = 2}) {}
};

class FaultToleranceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = (fs::temp_directory_path() /
            ("e2gcl_ft_" + std::string(info->name()) + "_" +
             std::to_string(::getpid())))
               .string();
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  /// Runs `test` (a lambda templated on the trainer type) once per
  /// trainer, each from an empty checkpoint directory; a failure names
  /// the trainer it happened under.
  template <typename Test>
  void ForEachTrainer(const Test& test) {
    {
      SCOPED_TRACE("resident E2gclTrainer");
      test.template operator()<ResidentTrainer>();
    }
    fs::remove_all(dir_);
    {
      SCOPED_TRACE("two-shard ShardedTrainer");
      test.template operator()<TwoShardTrainer>();
    }
  }

  std::string dir_;
};

/// Reference run: same config, no checkpointing, no faults.
template <typename Trainer>
Matrix UninterruptedEmbedding(const Graph& g, E2gclConfig cfg) {
  cfg.checkpoint_dir.clear();
  cfg.fault_injector = {};
  Trainer trainer(g, cfg);
  TrainResult r = trainer.Train();
  EXPECT_TRUE(r.ok());
  EXPECT_FALSE(r.resumed);
  EXPECT_EQ(r.start_epoch, 0);
  return trainer.encoder().Encode(g);
}

/// Fault hook: a NaN loss the first time `at` is reached, the true loss
/// otherwise. `*injections` counts the NaNs handed out.
std::function<float(int, float)> NanOnceAt(int at, int* injections) {
  return [at, injections](int epoch, float loss) {
    if (epoch == at && *injections == 0) {
      ++*injections;
      return std::numeric_limits<float>::quiet_NaN();
    }
    return loss;
  };
}

/// Per-epoch losses of the run report `Train()` left at `path`.
std::vector<double> ReportLosses(const std::string& path) {
  RunReport report;
  std::string error;
  EXPECT_TRUE(LoadRunReport(path, &report, &error)) << error;
  std::vector<double> losses;
  for (const RunReport::Epoch& e : report.epochs) {
    EXPECT_EQ(e.epoch, static_cast<int>(losses.size()));
    losses.push_back(e.loss);
  }
  return losses;
}

TEST_F(FaultToleranceTest, CheckpointingDoesNotPerturbTraining) {
  ForEachTrainer([&]<typename Trainer>() {
    Graph g = FaultGraph();
    E2gclConfig cfg = FaultConfig();
    Matrix reference = UninterruptedEmbedding<Trainer>(g, cfg);

    cfg.checkpoint_dir = dir_;
    Trainer trainer(g, cfg);
    TrainResult r = trainer.Train();
    ASSERT_TRUE(r.ok());
    // Observing state (checkpoint capture + atomic write) must not change
    // the trajectory: embeddings are bit-identical with and without it.
    EXPECT_TRUE(trainer.encoder().Encode(g) == reference);
  });
}

TEST_F(FaultToleranceTest, WritesEpochStampedCheckpointsAndPrunes) {
  ForEachTrainer([&]<typename Trainer>() {
    Graph g = FaultGraph();
    E2gclConfig cfg = FaultConfig();
    cfg.checkpoint_dir = dir_;
    cfg.checkpoint_keep = 2;
    Trainer trainer(g, cfg);
    TrainResult tr = trainer.Train();
    ASSERT_TRUE(tr.ok());
    // All four writes (epochs 1,3,5,7) are events even though pruning
    // keeps only the last two files.
    EXPECT_EQ(tr.CountEvents(TrainEvent::Kind::kCheckpointWrite), 4);
    EXPECT_EQ(tr.CountEvents(TrainEvent::Kind::kCheckpointWriteFailure), 0);

    // checkpoint_every=2 over 8 epochs → epochs 1,3,5,7; keep-last-2 → 5,7.
    std::vector<std::string> files = ListCheckpointFiles(dir_);
    ASSERT_EQ(files.size(), 2u);
    EXPECT_NE(files[0].find("ckpt-000005"), std::string::npos);
    EXPECT_NE(files[1].find("ckpt-000007"), std::string::npos);

    TrainerCheckpoint ckpt;
    ASSERT_TRUE(LoadTrainerCheckpoint(files[1], &ckpt));
    EXPECT_EQ(ckpt.epoch, 7);
    EXPECT_EQ(ckpt.config_fingerprint, trainer.ConfigFingerprint());
    EXPECT_FALSE(ckpt.encoder_params.empty());
    EXPECT_EQ(ckpt.adam_m.size(), ckpt.adam_v.size());
    EXPECT_GT(ckpt.adam_t, 0);
  });
}

// The headline acceptance test: a run killed mid-training and resumed
// from its checkpoint produces bit-identical final embeddings to an
// uninterrupted run with the same seed and thread count.
TEST_F(FaultToleranceTest, KillAndResumeIsBitIdentical) {
  ForEachTrainer([&]<typename Trainer>() {
    Graph g = FaultGraph();
    E2gclConfig cfg = FaultConfig();
    Matrix reference = UninterruptedEmbedding<Trainer>(g, cfg);

    // Phase 1: crash after epoch 4 (checkpoints exist for epochs 1 and 3).
    E2gclConfig crash_cfg = cfg;
    crash_cfg.checkpoint_dir = dir_;
    crash_cfg.fault_injector.kill_after_epoch = [](int epoch) {
      return epoch == 4;
    };
    {
      Trainer trainer(g, crash_cfg);
      TrainResult r = trainer.Train();
      EXPECT_EQ(r.status, TrainStatus::kKilled);
      EXPECT_FALSE(r.message.empty());
      // Structured events mirror the outcome: two checkpoint writes
      // (epochs 1 and 3) and exactly one kill, no retries.
      EXPECT_EQ(r.CountEvents(TrainEvent::Kind::kCheckpointWrite), 2);
      EXPECT_EQ(r.CountEvents(TrainEvent::Kind::kKilled), 1);
      EXPECT_EQ(r.CountEvents(TrainEvent::Kind::kRetry), 0);
    }
    ASSERT_FALSE(ListCheckpointFiles(dir_).empty());

    // Phase 2: a fresh trainer resumes from epoch 3's checkpoint and
    // replays epoch 4 onward from identical state.
    E2gclConfig resume_cfg = cfg;
    resume_cfg.checkpoint_dir = dir_;
    Trainer trainer(g, resume_cfg);
    TrainResult r = trainer.Train();
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r.resumed);
    EXPECT_EQ(r.start_epoch, 4);
    EXPECT_EQ(r.CountEvents(TrainEvent::Kind::kResume), 1);
    EXPECT_TRUE(trainer.encoder().Encode(g) == reference);
  });
}

// Second acceptance test: startup skips a corrupted newest checkpoint
// with a warning and recovers from the previous one — never a crash.
TEST_F(FaultToleranceTest, CorruptedNewestCheckpointIsSkipped) {
  ForEachTrainer([&]<typename Trainer>() {
    Graph g = FaultGraph();
    E2gclConfig cfg = FaultConfig();
    Matrix reference = UninterruptedEmbedding<Trainer>(g, cfg);

    E2gclConfig crash_cfg = cfg;
    crash_cfg.checkpoint_dir = dir_;
    crash_cfg.fault_injector.kill_after_epoch = [](int epoch) {
      return epoch == 4;
    };
    {
      Trainer trainer(g, crash_cfg);
      trainer.Train();
    }
    std::vector<std::string> files = ListCheckpointFiles(dir_);
    ASSERT_EQ(files.size(), 2u);  // epochs 1 and 3

    // Flip a byte in the middle of the newest checkpoint's payload.
    {
      std::fstream f(files[1],
                     std::ios::in | std::ios::out | std::ios::binary);
      f.seekg(0, std::ios::end);
      const auto size = static_cast<long long>(f.tellg());
      f.seekp(size / 2);
      char byte = 0;
      f.seekg(size / 2);
      f.read(&byte, 1);
      byte = static_cast<char>(byte ^ 0xFF);
      f.seekp(size / 2);
      f.write(&byte, 1);
    }

    E2gclConfig resume_cfg = cfg;
    resume_cfg.checkpoint_dir = dir_;
    Trainer trainer(g, resume_cfg);
    TrainResult r = trainer.Train();
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r.resumed);
    EXPECT_EQ(r.start_epoch, 2);  // fell back to the epoch-1 checkpoint
    EXPECT_TRUE(trainer.encoder().Encode(g) == reference);
  });
}

TEST_F(FaultToleranceTest, TruncatedNewestCheckpointIsSkipped) {
  ForEachTrainer([&]<typename Trainer>() {
    Graph g = FaultGraph();
    E2gclConfig cfg = FaultConfig();
    Matrix reference = UninterruptedEmbedding<Trainer>(g, cfg);

    E2gclConfig crash_cfg = cfg;
    crash_cfg.checkpoint_dir = dir_;
    crash_cfg.fault_injector.kill_after_epoch = [](int epoch) {
      return epoch == 4;
    };
    {
      Trainer trainer(g, crash_cfg);
      trainer.Train();
    }
    std::vector<std::string> files = ListCheckpointFiles(dir_);
    ASSERT_EQ(files.size(), 2u);

    // Simulate a torn write the atomic rename should normally prevent:
    // chop the newest file in half.
    {
      std::ifstream in(files[1], std::ios::binary);
      std::string bytes((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
      in.close();
      std::ofstream out(files[1], std::ios::binary | std::ios::trunc);
      out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 2));
    }

    E2gclConfig resume_cfg = cfg;
    resume_cfg.checkpoint_dir = dir_;
    Trainer trainer(g, resume_cfg);
    TrainResult r = trainer.Train();
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r.resumed);
    EXPECT_EQ(r.start_epoch, 2);
    EXPECT_TRUE(trainer.encoder().Encode(g) == reference);
  });
}

TEST_F(FaultToleranceTest, AllCheckpointsInvalidFallsBackToFreshRun) {
  ForEachTrainer([&]<typename Trainer>() {
    Graph g = FaultGraph();
    E2gclConfig cfg = FaultConfig();
    Matrix reference = UninterruptedEmbedding<Trainer>(g, cfg);

    fs::create_directories(dir_);
    std::ofstream(dir_ + "/ckpt-000003.e2gcl") << "not a checkpoint at all";

    cfg.checkpoint_dir = dir_;
    Trainer trainer(g, cfg);
    TrainResult r = trainer.Train();
    ASSERT_TRUE(r.ok());
    EXPECT_FALSE(r.resumed);
    EXPECT_EQ(r.start_epoch, 0);
    EXPECT_TRUE(trainer.encoder().Encode(g) == reference);
  });
}

TEST_F(FaultToleranceTest, InjectedNanLossRollsBackAndRecovers) {
  ForEachTrainer([&]<typename Trainer>() {
    Graph g = FaultGraph();
    E2gclConfig cfg = FaultConfig();
    cfg.checkpoint_dir = dir_;
    cfg.max_retries = 2;
    int injections = 0;
    cfg.fault_injector.corrupt_loss = NanOnceAt(5, &injections);
    Trainer trainer(g, cfg);
    TrainResult r = trainer.Train();
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.retries_used, 1);
    EXPECT_EQ(injections, 1);
    EXPECT_EQ(trainer.stats().epochs_run, cfg.epochs);
    EXPECT_TRUE(AllFinite(trainer.encoder().Encode(g)));
    // The rollback is a structured event, not just a stderr line: exactly
    // one retry at the injected epoch, carrying the rollback detail.
    ASSERT_EQ(r.CountEvents(TrainEvent::Kind::kRetry), 1);
    EXPECT_EQ(r.CountEvents(TrainEvent::Kind::kDiverged), 0);
    for (const TrainEvent& e : r.events) {
      if (e.kind != TrainEvent::Kind::kRetry) continue;
      EXPECT_EQ(e.epoch, 5);
      EXPECT_NE(e.detail.find("rolled back"), std::string::npos);
    }
  });
}

TEST_F(FaultToleranceTest, NanRecoveryWorksWithoutCheckpointDir) {
  ForEachTrainer([&]<typename Trainer>() {
    Graph g = FaultGraph();
    E2gclConfig cfg = FaultConfig();
    cfg.max_retries = 1;
    int injections = 0;
    cfg.fault_injector.corrupt_loss = [&injections](int epoch, float loss) {
      if (epoch == 2 && injections == 0) {
        ++injections;
        return std::numeric_limits<float>::infinity();
      }
      return loss;
    };
    // No checkpoint_dir: rollback target is the in-memory initial state.
    Trainer trainer(g, cfg);
    TrainResult r = trainer.Train();
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.retries_used, 1);
    EXPECT_TRUE(AllFinite(trainer.encoder().Encode(g)));
  });
}

/// Feature graph whose last column is zero in every view: a NaN planted
/// in the matching row of the first encoder weight only ever multiplies
/// zeros, and MatMul's zero-skip evaluates 0 * NaN as 0 (feature masking
/// in the views multiplies by 0/1, so the column stays zero).
Graph DeadColumnGraph() {
  Graph g = FaultGraph();
  for (std::int64_t v = 0; v < g.num_nodes; ++v) {
    g.features(v, g.feature_dim() - 1) = 0.0f;
  }
  return g;
}

/// Fault hook: the first time `at` is reached, plants a NaN in the dead
/// row of params[0] (the first encoder weight, feature_dim x hidden).
std::function<void(int, std::vector<Var>&)> MaskedNanOnceAt(
    int at, std::int64_t dead_row, bool* corrupted) {
  return [=](int epoch, std::vector<Var>& params) {
    if (epoch == at && !*corrupted) {
      *corrupted = true;
      params[0].mutable_value()(dead_row, 0) =
          std::numeric_limits<float>::quiet_NaN();
    }
  };
}

// Regression for the masked-NaN escape: the NaN planted below yields a
// perfectly finite loss AND zero gradient for its row. A guard that only
// watches the loss/grad scalars lets the corrupted parameters sail
// through to the final model; the guard must check parameter finiteness
// directly (AllFinite over the param list).
TEST_F(FaultToleranceTest, MaskedNanParameterTriggersRollback) {
  ForEachTrainer([&]<typename Trainer>() {
    Graph g = DeadColumnGraph();
    E2gclConfig cfg = FaultConfig();
    cfg.max_retries = 1;
    bool corrupted = false;
    cfg.fault_injector.corrupt_params =
        MaskedNanOnceAt(2, g.feature_dim() - 1, &corrupted);
    // No checkpoint_dir: rollback target is the in-memory initial state.
    Trainer trainer(g, cfg);
    TrainResult r = trainer.Train();
    // Pre-fix behaviour: the run "succeeds" with zero retries and a NaN
    // baked into the shipped weights. Post-fix: one rollback + retry, and
    // every parameter of the final model is finite.
    ASSERT_TRUE(r.ok()) << r.message;
    EXPECT_EQ(r.CountEvents(TrainEvent::Kind::kRetry), 1);
    for (const Var& p : trainer.encoder().params().params()) {
      EXPECT_TRUE(AllFinite(p.value()));
    }
    EXPECT_TRUE(AllFinite(trainer.encoder().Encode(g)));
  });
}

// Regression: a masked NaN that appears at a checkpoint epoch must be
// caught before the checkpoint captures it. Otherwise the poisoned
// checkpoint becomes the rollback anchor, every retry restarts from the
// NaN, and the run ends kDiverged with non-finite weights.
TEST_F(FaultToleranceTest, MaskedNanAtCheckpointEpochNeverBecomesTheAnchor) {
  ForEachTrainer([&]<typename Trainer>() {
    Graph g = DeadColumnGraph();
    E2gclConfig cfg = FaultConfig();  // checkpoints after epochs 1,3,5,7
    cfg.checkpoint_dir = dir_;
    cfg.max_retries = 2;
    bool corrupted = false;
    cfg.fault_injector.corrupt_params =
        MaskedNanOnceAt(3, g.feature_dim() - 1, &corrupted);
    Trainer trainer(g, cfg);
    TrainResult r = trainer.Train();
    ASSERT_TRUE(r.ok()) << r.message;
    EXPECT_EQ(r.retries_used, 1);
    ASSERT_EQ(r.CountEvents(TrainEvent::Kind::kRetry), 1);
    for (const TrainEvent& e : r.events) {
      if (e.kind != TrainEvent::Kind::kRetry) continue;
      EXPECT_EQ(e.epoch, 3);
      EXPECT_NE(e.detail.find("rolled back to epoch 1"), std::string::npos)
          << e.detail;
    }
    for (const Var& p : trainer.encoder().params().params()) {
      EXPECT_TRUE(AllFinite(p.value()));
    }
    // No checkpoint on disk holds the NaN.
    for (const std::string& file : ListCheckpointFiles(dir_)) {
      TrainerCheckpoint ckpt;
      ASSERT_TRUE(LoadTrainerCheckpoint(file, &ckpt)) << file;
      for (const Matrix& m : ckpt.encoder_params) {
        EXPECT_TRUE(AllFinite(m)) << file;
      }
    }
  });
}

TEST_F(FaultToleranceTest, ExhaustedRetriesFailStructuredNotSilent) {
  ForEachTrainer([&]<typename Trainer>() {
    Graph g = FaultGraph();
    E2gclConfig cfg = FaultConfig();
    cfg.max_retries = 2;
    cfg.fault_injector.corrupt_loss = [](int, float) {
      return std::numeric_limits<float>::quiet_NaN();
    };
    Trainer trainer(g, cfg);
    TrainResult r = trainer.Train();
    EXPECT_EQ(r.status, TrainStatus::kDiverged);
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.retries_used, 2);
    EXPECT_NE(r.message.find("non-finite"), std::string::npos);
    // Exact event trail: one retry per budget use, then one divergence.
    EXPECT_EQ(r.CountEvents(TrainEvent::Kind::kRetry), 2);
    EXPECT_EQ(r.CountEvents(TrainEvent::Kind::kDiverged), 1);
    // The encoder was rolled back to the last finite state — no garbage
    // embeddings escape a failed run.
    EXPECT_TRUE(AllFinite(trainer.encoder().Encode(g)));
  });
}

TEST_F(FaultToleranceTest, RetriesReseedRngAndBackOffLearningRate) {
  ForEachTrainer([&]<typename Trainer>() {
    Graph g = FaultGraph();
    E2gclConfig cfg = FaultConfig();
    cfg.checkpoint_dir = dir_;
    cfg.max_retries = 3;
    // Inject NaN at epoch 4 twice; the third visit passes. Each retry must
    // take a different (reseeded) trajectory rather than replaying the
    // failing one.
    int injections = 0;
    cfg.fault_injector.corrupt_loss = [&injections](int epoch, float loss) {
      if (epoch == 4 && injections < 2) {
        ++injections;
        return std::numeric_limits<float>::quiet_NaN();
      }
      return loss;
    };
    Trainer trainer(g, cfg);
    TrainResult r = trainer.Train();
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.retries_used, 2);
    EXPECT_EQ(injections, 2);
    EXPECT_TRUE(AllFinite(trainer.encoder().Encode(g)));
    EXPECT_EQ(r.CountEvents(TrainEvent::Kind::kRetry), 2);
  });
}

// The retried epoch starts from the epoch-3 checkpoint, whose parameters
// and Adam state are exactly those the clean run had after epoch 3, and
// the halved lr only acts at the step after the loss is taken. So the
// retried epoch 4 can report a different loss only if the RNG streams
// were reseeded.
TEST_F(FaultToleranceTest, RetriedEpochRunsOnReseededStreams) {
  ForEachTrainer([&]<typename Trainer>() {
    Graph g = FaultGraph();
    E2gclConfig cfg = FaultConfig();
    cfg.checkpoint_dir = dir_ + "/clean";
    {
      Trainer trainer(g, cfg);
      ASSERT_TRUE(trainer.Train().ok());
    }
    const std::vector<double> clean =
        ReportLosses(cfg.checkpoint_dir + "/run_report.json");

    cfg.checkpoint_dir = dir_ + "/faulted";
    int injections = 0;
    cfg.fault_injector.corrupt_loss = NanOnceAt(4, &injections);
    {
      Trainer trainer(g, cfg);
      TrainResult r = trainer.Train();
      ASSERT_TRUE(r.ok());
      ASSERT_EQ(r.retries_used, 1);
    }
    const std::vector<double> faulted =
        ReportLosses(cfg.checkpoint_dir + "/run_report.json");

    ASSERT_EQ(clean.size(), static_cast<std::size_t>(cfg.epochs));
    ASSERT_EQ(faulted.size(), clean.size());
    for (int e = 0; e < 4; ++e) EXPECT_EQ(faulted[e], clean[e]) << e;
    EXPECT_NE(faulted[4], clean[4]);
  });
}

// retries_used rides the checkpoint and keys the RNG streams, so a run
// killed after a retry resumes onto the same reseeded trajectory.
TEST_F(FaultToleranceTest, ResumeAfterRetryIsBitIdentical) {
  ForEachTrainer([&]<typename Trainer>() {
    Graph g = FaultGraph();
    E2gclConfig cfg = FaultConfig();
    cfg.checkpoint_dir = dir_ + "/reference";
    int injections = 0;
    cfg.fault_injector.corrupt_loss = NanOnceAt(4, &injections);
    Matrix reference;
    {
      Trainer trainer(g, cfg);
      TrainResult r = trainer.Train();
      ASSERT_TRUE(r.ok());
      ASSERT_EQ(r.retries_used, 1);
      reference = trainer.encoder().Encode(g);
    }

    cfg.checkpoint_dir = dir_ + "/killed";
    injections = 0;
    cfg.fault_injector.kill_after_epoch = [](int epoch) {
      return epoch == 5;
    };
    {
      Trainer trainer(g, cfg);
      TrainResult r = trainer.Train();
      ASSERT_EQ(r.status, TrainStatus::kKilled);
      ASSERT_EQ(r.retries_used, 1);
    }

    cfg.fault_injector.kill_after_epoch = nullptr;
    Trainer trainer(g, cfg);
    TrainResult r = trainer.Train();
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r.resumed);
    EXPECT_EQ(r.start_epoch, 6);
    EXPECT_EQ(r.retries_used, 1);
    EXPECT_TRUE(trainer.encoder().Encode(g) == reference);
  });
}

TEST_F(FaultToleranceTest, GradientClippingKeepsTrainingFinite) {
  ForEachTrainer([&]<typename Trainer>() {
    Graph g = FaultGraph();
    E2gclConfig cfg = FaultConfig();
    cfg.grad_clip_norm = 0.05f;  // aggressively tight clip
    Trainer trainer(g, cfg);
    TrainResult r = trainer.Train();
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(AllFinite(trainer.encoder().Encode(g)));

    // Clipping is part of the deterministic trajectory: same config, same
    // result.
    Trainer again(g, cfg);
    ASSERT_TRUE(again.Train().ok());
    EXPECT_TRUE(again.encoder().Encode(g) == trainer.encoder().Encode(g));

    // And it is honoured: an unclipped run lands elsewhere.
    EXPECT_FALSE(UninterruptedEmbedding<Trainer>(g, FaultConfig()) ==
                 trainer.encoder().Encode(g));
  });
}

TEST_F(FaultToleranceTest, MismatchedConfigRefusesResume) {
  ForEachTrainer([&]<typename Trainer>() {
    Graph g = FaultGraph();
    E2gclConfig cfg = FaultConfig();
    cfg.checkpoint_dir = dir_;
    {
      Trainer trainer(g, cfg);
      ASSERT_TRUE(trainer.Train().ok());
    }
    ASSERT_FALSE(ListCheckpointFiles(dir_).empty());

    // A different seed is a different trajectory; its checkpoints must be
    // refused rather than silently blended in.
    E2gclConfig other = cfg;
    other.seed = 99;
    Trainer trainer(g, other);
    TrainResult r = trainer.Train();
    ASSERT_TRUE(r.ok());
    EXPECT_FALSE(r.resumed);
    EXPECT_EQ(r.start_epoch, 0);
  });
}

TEST_F(FaultToleranceTest, ResumeWithExtendedEpochBudgetContinues) {
  ForEachTrainer([&]<typename Trainer>() {
    Graph g = FaultGraph();
    E2gclConfig cfg = FaultConfig();
    cfg.checkpoint_dir = dir_;
    {
      Trainer trainer(g, cfg);
      ASSERT_TRUE(trainer.Train().ok());  // completes epochs 0..7
    }
    // Re-open with a larger epoch budget: training continues at epoch 8
    // instead of redoing the whole run (epoch count is excluded from the
    // config fingerprint for exactly this workflow).
    E2gclConfig longer = cfg;
    longer.epochs = 12;
    Trainer trainer(g, longer);
    TrainResult r = trainer.Train();
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r.resumed);
    EXPECT_EQ(r.start_epoch, 8);
    EXPECT_EQ(trainer.stats().epochs_run, 12);
  });
}

}  // namespace
}  // namespace e2gcl
