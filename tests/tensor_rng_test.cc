#include "tensor/rng.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace e2gcl {
namespace {

TEST(Rng, DeterministicGivenSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Uniform(), b.Uniform());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 50; ++i) {
    if (a.Uniform() == b.Uniform()) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(Rng, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const float u = rng.Uniform();
    EXPECT_GE(u, 0.0f);
    EXPECT_LT(u, 1.0f);
  }
}

TEST(Rng, UniformIntCoversDomain) {
  Rng rng(8);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 300; ++i) seen.insert(rng.UniformInt(5));
  EXPECT_EQ(seen.size(), 5u);
  for (std::int64_t v : seen) {
    EXPECT_GE(v, 0);
    EXPECT_LT(v, 5);
  }
}

TEST(Rng, BernoulliEdgeCases) {
  Rng rng(9);
  for (int i = 0; i < 20; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0f));
    EXPECT_TRUE(rng.Bernoulli(1.0f));
    EXPECT_FALSE(rng.Bernoulli(-0.5f));
    EXPECT_TRUE(rng.Bernoulli(1.5f));
  }
}

TEST(Rng, BernoulliRoughRate) {
  Rng rng(10);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) {
    if (rng.Bernoulli(0.3f)) ++hits;
  }
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

TEST(Rng, NormalRoughMoments) {
  Rng rng(11);
  double sum = 0.0, sum2 = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const float x = rng.Normal(2.0f, 3.0f);
    sum += x;
    sum2 += x * x;
  }
  const double mean = sum / n;
  const double var = sum2 / n - mean * mean;
  EXPECT_NEAR(mean, 2.0, 0.1);
  EXPECT_NEAR(var, 9.0, 0.5);
}

TEST(SampleWithoutReplacement, DistinctAndInRange) {
  Rng rng(12);
  for (std::int64_t n : {5, 50, 500}) {
    for (std::int64_t k : {std::int64_t{0}, std::int64_t{1}, n / 2, n}) {
      auto s = rng.SampleWithoutReplacement(n, k);
      EXPECT_EQ(static_cast<std::int64_t>(s.size()), k);
      std::set<std::int64_t> uniq(s.begin(), s.end());
      EXPECT_EQ(static_cast<std::int64_t>(uniq.size()), k);
      for (std::int64_t v : s) {
        EXPECT_GE(v, 0);
        EXPECT_LT(v, n);
      }
    }
  }
}

TEST(SampleWithoutReplacement, RoughlyUniform) {
  Rng rng(13);
  std::vector<int> counts(10, 0);
  for (int t = 0; t < 3000; ++t) {
    for (std::int64_t v : rng.SampleWithoutReplacement(10, 3)) ++counts[v];
  }
  for (int c : counts) EXPECT_NEAR(c, 900, 150);
}

TEST(WeightedSample, ZeroWeightNeverPicked) {
  Rng rng(14);
  std::vector<float> w = {1.0f, 0.0f, 1.0f, 0.0f};
  for (int t = 0; t < 100; ++t) {
    for (std::int64_t v : rng.WeightedSampleWithoutReplacement(w, 2)) {
      EXPECT_TRUE(v == 0 || v == 2);
    }
  }
}

TEST(WeightedSample, AllZeroFallsBackToUniform) {
  Rng rng(15);
  std::vector<float> w = {0.0f, 0.0f, 0.0f};
  auto s = rng.WeightedSampleWithoutReplacement(w, 2);
  EXPECT_EQ(s.size(), 2u);
}

TEST(WeightedSample, HeavyWeightDominates) {
  Rng rng(16);
  std::vector<float> w = {100.0f, 1.0f, 1.0f};
  int first = 0;
  for (int t = 0; t < 500; ++t) {
    auto s = rng.WeightedSampleWithoutReplacement(w, 1);
    ASSERT_EQ(s.size(), 1u);
    if (s[0] == 0) ++first;
  }
  EXPECT_GT(first, 450);
}

TEST(WeightedSample, RequestMoreThanPositiveEntries) {
  Rng rng(17);
  std::vector<float> w = {1.0f, 0.0f, 2.0f};
  auto s = rng.WeightedSampleWithoutReplacement(w, 3);
  EXPECT_EQ(s.size(), 2u);  // Only two positive-weight entries exist.
}

TEST(Shuffle, IsPermutation) {
  Rng rng(18);
  std::vector<std::int64_t> v = {0, 1, 2, 3, 4, 5, 6, 7};
  auto sorted = v;
  rng.Shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

// Uniform() and Bernoulli() are inline formulas, not calls into the std
// distributions; these tests pin them to the distributions they replace,
// driven from a copy of the same engine, so the RNG stream (and every
// seeded result) stays what it was.

TEST(RngStream, UniformMatchesStdDistributionIncludingClamp) {
  Rng rng(20240601);
  std::mt19937_64 reference = rng.engine();
  std::mt19937_64 raw = rng.engine();
  std::uniform_real_distribution<float> dist(0.0f, 1.0f);
  // A draw whose top 25 bits are all ones rounds to 2^64 as a float and
  // is clamped below 1: probability 2^-25 per draw, so 2^27 draws hit the
  // clamp a few times (the count is asserted, not assumed).
  const std::int64_t draws = std::int64_t{1} << 27;
  std::int64_t clamped = 0;
  std::int64_t mismatches = 0;
  for (std::int64_t i = 0; i < draws; ++i) {
    if (static_cast<float>(raw()) * 0x1p-64f >= 1.0f) ++clamped;
    const float got = rng.Uniform();
    const float want = dist(reference);
    if (got != want || std::signbit(got) != std::signbit(want)) ++mismatches;
  }
  EXPECT_EQ(mismatches, 0);
  EXPECT_GT(clamped, 0);
  EXPECT_EQ(rng.engine(), reference);
}

TEST(RngStream, BernoulliMatchesStdDistributionOverPGrid) {
  const std::vector<float> grid = {
      -1.0f, 0.0f, std::numeric_limits<float>::denorm_min(), 1e-30f, 1e-7f,
      0.001f, 0.05f, 0.1f, 0.25f, 1.0f / 3.0f, 0.5f, 0.6f, 0.9f, 0.95f,
      0.999f, std::nextafterf(1.0f, 0.0f), 1.0f, 2.0f};
  Rng rng(77);
  std::mt19937_64 reference = rng.engine();
  std::int64_t mismatches = 0;
  for (int round = 0; round < (1 << 16); ++round) {
    for (float p : grid) {
      const bool got = rng.Bernoulli(p);
      // The std distribution rejects p outside [0, 1]; the Rng contract
      // clamps without drawing.
      const bool want =
          p <= 0.0f ? false
          : p >= 1.0f
              ? true
              : std::bernoulli_distribution(static_cast<double>(p))(reference);
      if (got != want) ++mismatches;
    }
  }
  EXPECT_EQ(mismatches, 0);
  EXPECT_EQ(rng.engine(), reference);
}

TEST(RngStream, SerializeRestoreContinuesMidSequence) {
  Rng rng(123);
  for (int i = 0; i < 1001; ++i) {
    rng.Uniform();
    rng.Bernoulli(0.3f);
  }
  const std::string state = rng.SerializeState();
  std::vector<float> uniforms;
  std::vector<bool> coins;
  for (int i = 0; i < 5000; ++i) {
    uniforms.push_back(rng.Uniform());
    coins.push_back(rng.Bernoulli(0.7f));
  }
  Rng restored(999);
  ASSERT_TRUE(restored.RestoreState(state));
  std::mt19937_64 reference = restored.engine();
  std::uniform_real_distribution<float> dist(0.0f, 1.0f);
  for (int i = 0; i < 5000; ++i) {
    ASSERT_EQ(restored.Uniform(), uniforms[i]) << "draw " << i;
    ASSERT_EQ(restored.Bernoulli(0.7f), coins[i]) << "draw " << i;
    ASSERT_EQ(dist(reference), uniforms[i]) << "draw " << i;
    ASSERT_EQ(std::bernoulli_distribution(double{0.7f})(reference), coins[i])
        << "draw " << i;
  }
  EXPECT_EQ(restored.engine(), rng.engine());
}

}  // namespace
}  // namespace e2gcl
