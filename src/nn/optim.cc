#include "nn/optim.h"

#include <cmath>

#include "tensor/check.h"

namespace e2gcl {

Adam::Adam(std::vector<Var> params, const Options& opts)
    : params_(std::move(params)), opts_(opts) {
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (const Var& p : params_) {
    E2GCL_CHECK(p.defined() && p.requires_grad());
    m_.emplace_back(p.value().rows(), p.value().cols());
    v_.emplace_back(p.value().rows(), p.value().cols());
  }
}

void Adam::Step() {
  ++t_;
  const float bc1 = 1.0f - std::pow(opts_.beta1, static_cast<float>(t_));
  const float bc2 = 1.0f - std::pow(opts_.beta2, static_cast<float>(t_));
  for (std::size_t i = 0; i < params_.size(); ++i) {
    Matrix& w = params_[i].mutable_value();
    const Matrix& g = params_[i].grad();
    if (g.empty()) continue;  // No gradient flowed this step.
    Matrix& m = m_[i];
    Matrix& v = v_[i];
    for (std::int64_t j = 0; j < w.size(); ++j) {
      const float gj = g.data()[j];
      m.data()[j] = opts_.beta1 * m.data()[j] + (1.0f - opts_.beta1) * gj;
      v.data()[j] = opts_.beta2 * v.data()[j] + (1.0f - opts_.beta2) * gj * gj;
      const float mhat = m.data()[j] / bc1;
      const float vhat = v.data()[j] / bc2;
      float upd = mhat / (std::sqrt(vhat) + opts_.eps);
      if (opts_.weight_decay > 0.0f) upd += opts_.weight_decay * w.data()[j];
      w.data()[j] -= opts_.lr * upd;
    }
  }
}

void Adam::ZeroGrad() {
  for (Var& p : params_) p.ZeroGrad();
}

AdamState Adam::CloneState() const {
  AdamState state;
  state.m = m_;
  state.v = v_;
  state.t = t_;
  return state;
}

bool Adam::LoadState(const AdamState& state) {
  if (state.m.size() != params_.size() || state.v.size() != params_.size() ||
      state.t < 0) {
    return false;
  }
  for (std::size_t i = 0; i < params_.size(); ++i) {
    const Matrix& w = params_[i].value();
    if (state.m[i].rows() != w.rows() || state.m[i].cols() != w.cols() ||
        state.v[i].rows() != w.rows() || state.v[i].cols() != w.cols()) {
      return false;
    }
  }
  m_ = state.m;
  v_ = state.v;
  t_ = state.t;
  return true;
}

}  // namespace e2gcl
