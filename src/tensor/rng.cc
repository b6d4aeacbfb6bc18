#include "tensor/rng.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>
#include <string>

#include "tensor/check.h"

namespace e2gcl {

float Rng::Uniform(float lo, float hi) {
  return std::uniform_real_distribution<float>(lo, hi)(engine_);
}

std::int64_t Rng::UniformInt(std::int64_t n) {
  E2GCL_CHECK(n > 0);
  return std::uniform_int_distribution<std::int64_t>(0, n - 1)(engine_);
}

float Rng::Normal() {
  return std::normal_distribution<float>(0.0f, 1.0f)(engine_);
}

float Rng::Normal(float mean, float stddev) {
  return std::normal_distribution<float>(mean, stddev)(engine_);
}

std::vector<std::int64_t> Rng::SampleWithoutReplacement(std::int64_t n,
                                                        std::int64_t k) {
  E2GCL_CHECK(k >= 0 && k <= n);
  if (k == 0) return {};
  // Floyd's algorithm: O(k) expected work, no O(n) allocation when k << n.
  std::vector<std::int64_t> result;
  result.reserve(k);
  // For k close to n a partial Fisher-Yates over an index vector is
  // simpler and not slower.
  if (k * 2 >= n) {
    std::vector<std::int64_t> idx(n);
    std::iota(idx.begin(), idx.end(), 0);
    for (std::int64_t i = 0; i < k; ++i) {
      std::int64_t j = i + UniformInt(n - i);
      std::swap(idx[i], idx[j]);
    }
    idx.resize(k);
    return idx;
  }
  std::vector<std::int64_t> chosen;
  chosen.reserve(k);
  for (std::int64_t j = n - k; j < n; ++j) {
    std::int64_t t = UniformInt(j + 1);
    if (std::find(chosen.begin(), chosen.end(), t) == chosen.end()) {
      chosen.push_back(t);
    } else {
      chosen.push_back(j);
    }
  }
  return chosen;
}

std::vector<std::int64_t> Rng::WeightedSampleWithoutReplacement(
    const std::vector<float>& weights, std::int64_t k) {
  const std::int64_t n = static_cast<std::int64_t>(weights.size());
  if (k <= 0 || n == 0) return {};
  if (k > n) k = n;

  // Exponential-sort trick (Efraimidis-Spirakis): draw key
  // u^(1/w) per item and take the top-k keys; equivalent to sequential
  // weighted sampling without replacement. We use -log(u)/w and take the
  // k smallest, which is numerically friendlier.
  std::vector<std::pair<float, std::int64_t>> keys;
  keys.reserve(n);
  bool any_positive = false;
  for (std::int64_t i = 0; i < n; ++i) {
    E2GCL_CHECK(weights[i] >= 0.0f);
    if (weights[i] > 0.0f) any_positive = true;
  }
  for (std::int64_t i = 0; i < n; ++i) {
    float w = weights[i];
    if (!any_positive) w = 1.0f;  // Degenerate case: uniform fallback.
    if (w <= 0.0f) continue;
    float u = Uniform();
    // Guard against log(0).
    u = std::max(u, 1e-12f);
    keys.emplace_back(-std::log(u) / w, i);
  }
  if (static_cast<std::int64_t>(keys.size()) < k) {
    k = static_cast<std::int64_t>(keys.size());
  }
  std::partial_sort(keys.begin(), keys.begin() + k, keys.end());
  std::vector<std::int64_t> result(k);
  for (std::int64_t i = 0; i < k; ++i) result[i] = keys[i].second;
  return result;
}

void Rng::Shuffle(std::vector<std::int64_t>& values) {
  const std::int64_t n = static_cast<std::int64_t>(values.size());
  for (std::int64_t i = n - 1; i > 0; --i) {
    std::int64_t j = UniformInt(i + 1);
    std::swap(values[i], values[j]);
  }
}

Rng Rng::Fork() {
  std::uint64_t child_seed = engine_();
  return Rng(child_seed);
}

std::string Rng::SerializeState() const {
  std::ostringstream os;
  os << engine_;
  return os.str();
}

bool Rng::RestoreState(const std::string& state) {
  std::istringstream is(state);
  std::mt19937_64 restored;
  is >> restored;
  if (is.fail()) return false;
  engine_ = restored;
  return true;
}

}  // namespace e2gcl
