#include "nn/init.h"

#include <cmath>

#include "tensor/check.h"

namespace e2gcl {

Matrix GlorotUniform(std::int64_t fan_in, std::int64_t fan_out, Rng& rng) {
  const float a =
      std::sqrt(6.0f / static_cast<float>(fan_in + fan_out));
  return Matrix::RandomUniform(fan_in, fan_out, -a, a, rng);
}

Var ParamSet::Create(Matrix init) {
  Var p = Var::Param(std::move(init));
  params_.push_back(p);
  return p;
}

void ParamSet::Absorb(ParamSet&& other) {
  for (Var& p : other.params_) params_.push_back(std::move(p));
  other.params_.clear();
}

void ParamSet::ZeroGrad() {
  for (Var& p : params_) p.ZeroGrad();
}

std::vector<Matrix> ParamSet::CloneValues() const {
  std::vector<Matrix> out;
  out.reserve(params_.size());
  for (const Var& p : params_) out.push_back(p.value());
  return out;
}

bool ParamSet::ShapesMatch(const std::vector<Matrix>& values) const {
  if (values.size() != params_.size()) return false;
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (values[i].rows() != params_[i].value().rows() ||
        values[i].cols() != params_[i].value().cols()) {
      return false;
    }
  }
  return true;
}

void ParamSet::LoadValues(const std::vector<Matrix>& values) {
  E2GCL_CHECK(ShapesMatch(values));
  for (std::size_t i = 0; i < values.size(); ++i) {
    params_[i].mutable_value() = values[i];
  }
}

void ParamSet::EmaUpdateFrom(const ParamSet& online, float decay) {
  E2GCL_CHECK(params_.size() == online.params_.size());
  for (std::size_t i = 0; i < params_.size(); ++i) {
    Matrix& t = params_[i].mutable_value();
    const Matrix& o = online.params_[i].value();
    E2GCL_CHECK(t.rows() == o.rows() && t.cols() == o.cols());
    for (std::int64_t j = 0; j < t.size(); ++j) {
      t.data()[j] = decay * t.data()[j] + (1.0f - decay) * o.data()[j];
    }
  }
}

}  // namespace e2gcl
