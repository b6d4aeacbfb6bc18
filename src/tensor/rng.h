#ifndef E2GCL_TENSOR_RNG_H_
#define E2GCL_TENSOR_RNG_H_

#include <cstdint>
#include <random>
#include <string>
#include <vector>

namespace e2gcl {

/// Deterministic random number generator used by every randomized
/// component (generators, augmentation, initialization, optimizers).
///
/// All stochastic behaviour in the library flows through an explicitly
/// seeded Rng so experiments are reproducible bit-for-bit given a seed.
class Rng {
 public:
  /// Creates a generator from a 64-bit seed. Equal seeds yield equal
  /// streams.
  explicit Rng(std::uint64_t seed) : engine_(seed) {}

  Rng(const Rng&) = delete;
  Rng& operator=(const Rng&) = delete;
  Rng(Rng&&) = default;
  Rng& operator=(Rng&&) = default;

  /// Uniform float in [0, 1). Defined inline: dropout, feature
  /// perturbation and the generators draw millions per epoch. The formula
  /// is libstdc++'s generate_canonical<float, 24> for a 64-bit engine (one
  /// draw scaled by 2^-64, a result that rounds up to 1 clamped to the
  /// largest float below 1), so the stream equals
  /// std::uniform_real_distribution<float>(0, 1) on the same engine.
  float Uniform() {
    const float f = static_cast<float>(engine_()) * 0x1p-64f;
    return f >= 1.0f ? 0x1.fffffep-1f : f;
  }

  /// Uniform float in [lo, hi).
  float Uniform(float lo, float hi);

  /// Uniform integer in [0, n). Requires n > 0.
  std::int64_t UniformInt(std::int64_t n);

  /// Standard normal sample.
  float Normal();

  /// Normal sample with the given mean and standard deviation.
  float Normal(float mean, float stddev);

  /// Bernoulli draw with success probability p (clamped to [0, 1]): no
  /// draw outside (0, 1), else one draw compared as the double
  /// generate_canonical<double, 53> that std::bernoulli_distribution uses,
  /// so both consume and decide identically.
  bool Bernoulli(float p) {
    if (p <= 0.0f) return false;
    if (p >= 1.0f) return true;
    return static_cast<double>(engine_()) * 0x1p-64 < static_cast<double>(p);
  }

  /// Samples `k` distinct values from {0, ..., n-1} uniformly, in
  /// unspecified order. Requires 0 <= k <= n.
  std::vector<std::int64_t> SampleWithoutReplacement(std::int64_t n,
                                                     std::int64_t k);

  /// Samples `k` indices from {0, ..., weights.size()-1} *without*
  /// replacement with probability proportional to `weights` (weights must
  /// be non-negative; zero-weight entries are never picked unless all
  /// weights are zero, in which case sampling falls back to uniform).
  /// If k exceeds the number of positive-weight entries, returns fewer
  /// than k indices.
  std::vector<std::int64_t> WeightedSampleWithoutReplacement(
      const std::vector<float>& weights, std::int64_t k);

  /// Fisher-Yates shuffle of `values`.
  void Shuffle(std::vector<std::int64_t>& values);

  /// Serializes the full engine state (position included) to a portable
  /// text form, so a restored generator continues the exact stream.
  std::string SerializeState() const;

  /// Restores a state produced by SerializeState(). Returns false (and
  /// leaves the generator untouched) when `state` does not parse.
  bool RestoreState(const std::string& state);

  /// Access to the raw engine for std:: distributions.
  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
};

}  // namespace e2gcl

#endif  // E2GCL_TENSOR_RNG_H_
