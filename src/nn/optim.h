#ifndef E2GCL_NN_OPTIM_H_
#define E2GCL_NN_OPTIM_H_

#include <vector>

#include "autograd/variable.h"

namespace e2gcl {

/// Snapshot of an Adam optimizer's mutable state: first/second moment
/// buffers (in parameter order) and the step counter. Checkpointing
/// round-trips this so resumed runs are bit-identical to uninterrupted
/// ones.
struct AdamState {
  std::vector<Matrix> m;
  std::vector<Matrix> v;
  std::int64_t t = 0;
};

/// Adam optimizer (Kingma & Ba) over a fixed parameter list. The
/// parameter Vars are shared handles into the model, so Step() mutates
/// the model weights in place.
class Adam {
 public:
  struct Options {
    float lr = 1e-2f;
    float beta1 = 0.9f;
    float beta2 = 0.999f;
    float eps = 1e-8f;
    /// Decoupled L2 weight decay (AdamW style).
    float weight_decay = 0.0f;
  };

  Adam(std::vector<Var> params, const Options& opts);

  /// Applies one update from the gradients accumulated by Backward().
  void Step();

  /// Zeroes gradients of all managed parameters.
  void ZeroGrad();

  float lr() const { return opts_.lr; }
  void set_lr(float lr) { opts_.lr = lr; }

  /// Deep copy of the moment buffers and step counter.
  AdamState CloneState() const;

  /// Restores state cloned by CloneState(). Returns false (leaving the
  /// optimizer untouched) when buffer counts or shapes do not match the
  /// managed parameters.
  bool LoadState(const AdamState& state);

 private:
  std::vector<Var> params_;
  Options opts_;
  std::vector<Matrix> m_;
  std::vector<Matrix> v_;
  std::int64_t t_ = 0;
};

}  // namespace e2gcl

#endif  // E2GCL_NN_OPTIM_H_
