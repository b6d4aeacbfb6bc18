#ifndef E2GCL_CORE_TRAINER_H_
#define E2GCL_CORE_TRAINER_H_

#include <cstdint>
#include <memory>

#include "core/node_selector.h"
#include "core/train_loop.h"
#include "core/view_generator.h"
#include "nn/gcn.h"

namespace e2gcl {

/// The E2GCL pre-trainer on a resident graph. Train() selects the
/// coreset, then runs the shared TrainLoop with an epoch body that
/// encodes both global views of the whole graph and contrasts a batch
/// of selected rows; it leaves the encoder ready for linear-probe
/// evaluation.
class E2gclTrainer {
 public:
  E2gclTrainer(const Graph& graph, const E2gclConfig& config);

  /// Runs selection + contrastive pre-training. Safe to call once.
  /// When config.checkpoint_dir is set, resumes from the newest valid
  /// checkpoint (if config.resume) and writes epoch-stamped checkpoints
  /// every config.checkpoint_every epochs.
  TrainResult Train(const EpochCallback& callback = nullptr);

  const GcnEncoder& encoder() const { return loop_.encoder(); }
  GcnEncoder& encoder() { return loop_.encoder(); }
  const E2gclStats& stats() const { return loop_.stats(); }
  /// Selection result (empty nodes when use_selector is false).
  const SelectionResult& selection() const { return selection_; }
  const E2gclConfig& config() const { return loop_.config(); }

  /// Hash of the config knobs + graph shape that determine training
  /// state layout and trajectory; stamped into checkpoints so a resume
  /// under a different setup is refused.
  std::uint64_t ConfigFingerprint() const;

 private:
  const Graph* graph_;
  TrainLoop loop_;
  std::unique_ptr<ViewGenerator> generator_;
  SelectionResult selection_;
};

}  // namespace e2gcl

#endif  // E2GCL_CORE_TRAINER_H_
