#ifndef E2GCL_NN_INIT_H_
#define E2GCL_NN_INIT_H_

#include <cstdint>
#include <vector>

#include "autograd/variable.h"
#include "tensor/rng.h"

namespace e2gcl {

/// Glorot/Xavier-uniform weight matrix: U(-a, a), a = sqrt(6/(fi+fo)).
Matrix GlorotUniform(std::int64_t fan_in, std::int64_t fan_out, Rng& rng);

/// Owns the trainable parameters of a model. Modules call Create() for
/// each weight; optimizers consume params().
class ParamSet {
 public:
  ParamSet() = default;
  ParamSet(const ParamSet&) = delete;
  ParamSet& operator=(const ParamSet&) = delete;
  ParamSet(ParamSet&&) = default;
  ParamSet& operator=(ParamSet&&) = default;

  /// Registers a new trainable parameter initialized to `init`.
  Var Create(Matrix init);

  /// Adopts parameters from another set (for composite models).
  void Absorb(ParamSet&& other);

  const std::vector<Var>& params() const { return params_; }

  /// Zeroes all gradients.
  void ZeroGrad();

  /// Deep copy of all parameter values (for snapshots / target networks).
  std::vector<Matrix> CloneValues() const;

  /// True when `values` has one matrix per parameter, each of that
  /// parameter's shape (what LoadValues requires).
  bool ShapesMatch(const std::vector<Matrix>& values) const;

  /// Loads values cloned by CloneValues(); shapes must match.
  void LoadValues(const std::vector<Matrix>& values);

  /// Exponential moving average update toward `online`:
  /// p_target = decay * p_target + (1 - decay) * p_online.
  /// Used by BGRL's target encoder.
  void EmaUpdateFrom(const ParamSet& online, float decay);

 private:
  std::vector<Var> params_;
};

}  // namespace e2gcl

#endif  // E2GCL_NN_INIT_H_
