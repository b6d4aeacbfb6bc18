#include "tensor/csr.h"

#include <gtest/gtest.h>

#include <cmath>
#include <algorithm>
#include <cstring>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "parallel/thread_pool.h"
#include "tensor/rng.h"

namespace e2gcl {
namespace {

CsrMatrix SampleCsr() {
  // [[0, 2, 0], [1, 0, 3], [0, 0, 0], [4, 0, 0]]
  return CsrMatrix::FromCoo(4, 3,
                            {{0, 1, 2.0f}, {1, 0, 1.0f}, {1, 2, 3.0f},
                             {3, 0, 4.0f}});
}

TEST(CsrMatrix, EmptyHasZeroNnz) {
  CsrMatrix m;
  EXPECT_EQ(m.rows(), 0);
  EXPECT_EQ(m.nnz(), 0);
}

TEST(CsrMatrix, FromCooBasic) {
  CsrMatrix m = SampleCsr();
  EXPECT_EQ(m.rows(), 4);
  EXPECT_EQ(m.cols(), 3);
  EXPECT_EQ(m.nnz(), 4);
  EXPECT_EQ(m.RowNnz(0), 1);
  EXPECT_EQ(m.RowNnz(1), 2);
  EXPECT_EQ(m.RowNnz(2), 0);
  EXPECT_EQ(m.RowNnz(3), 1);
}

TEST(CsrMatrix, DuplicateTripletsAreSummed) {
  CsrMatrix m = CsrMatrix::FromCoo(2, 2, {{0, 0, 1.0f}, {0, 0, 2.5f}});
  EXPECT_EQ(m.nnz(), 1);
  EXPECT_FLOAT_EQ(m.ToDense()(0, 0), 3.5f);
}

TEST(CsrMatrix, UnsortedTripletsAccepted) {
  CsrMatrix m =
      CsrMatrix::FromCoo(3, 3, {{2, 1, 5.0f}, {0, 2, 1.0f}, {1, 0, 2.0f}});
  Matrix d = m.ToDense();
  EXPECT_FLOAT_EQ(d(2, 1), 5.0f);
  EXPECT_FLOAT_EQ(d(0, 2), 1.0f);
  EXPECT_FLOAT_EQ(d(1, 0), 2.0f);
}

TEST(CsrMatrix, ToDenseMatchesLayout) {
  Matrix d = SampleCsr().ToDense();
  EXPECT_FLOAT_EQ(d(0, 1), 2.0f);
  EXPECT_FLOAT_EQ(d(1, 0), 1.0f);
  EXPECT_FLOAT_EQ(d(1, 2), 3.0f);
  EXPECT_FLOAT_EQ(d(3, 0), 4.0f);
  EXPECT_FLOAT_EQ(d(2, 2), 0.0f);
}

TEST(CsrMatrix, TransposedMatchesDenseTranspose) {
  CsrMatrix m = SampleCsr();
  EXPECT_LT(MaxAbsDiff(m.Transposed().ToDense(), Transpose(m.ToDense())),
            1e-7f);
}

TEST(Spmm, MatchesDenseProduct) {
  CsrMatrix a = SampleCsr();
  Rng rng(1);
  Matrix b = Matrix::RandomNormal(3, 5, 0, 1, rng);
  Matrix sparse = Spmm(a, b);
  Matrix dense = MatMul(a.ToDense(), b);
  EXPECT_LT(MaxAbsDiff(sparse, dense), 1e-5f);
}

TEST(Spmm, TransposedAMatchesDense) {
  CsrMatrix a = SampleCsr();
  Rng rng(2);
  Matrix b = Matrix::RandomNormal(4, 6, 0, 1, rng);
  Matrix sparse = SpmmTransposedA(a, b);
  Matrix dense = MatMul(Transpose(a.ToDense()), b);
  EXPECT_LT(MaxAbsDiff(sparse, dense), 1e-5f);
}

TEST(Spmm, EmptyRowsGiveZeroOutput) {
  CsrMatrix a = CsrMatrix::FromCoo(3, 2, {});
  Matrix b = Matrix::FromRows({{1, 2}, {3, 4}});
  Matrix c = Spmm(a, b);
  EXPECT_EQ(c.rows(), 3);
  for (std::int64_t i = 0; i < c.size(); ++i) EXPECT_EQ(c.data()[i], 0.0f);
}

// Randomized property check across shapes and densities.
class SpmmRandom : public ::testing::TestWithParam<std::tuple<int, int, int>> {
};

TEST_P(SpmmRandom, AgreesWithDenseReference) {
  const auto [rows, cols, nnz] = GetParam();
  Rng rng(rows * 31 + cols * 7 + nnz);
  std::vector<std::tuple<std::int64_t, std::int64_t, float>> trip;
  for (int i = 0; i < nnz; ++i) {
    trip.emplace_back(rng.UniformInt(rows), rng.UniformInt(cols),
                      rng.Normal());
  }
  CsrMatrix a = CsrMatrix::FromCoo(rows, cols, trip);
  Matrix b = Matrix::RandomNormal(cols, 4, 0, 1, rng);
  EXPECT_LT(MaxAbsDiff(Spmm(a, b), MatMul(a.ToDense(), b)), 1e-4f);
  Matrix c = Matrix::RandomNormal(rows, 4, 0, 1, rng);
  EXPECT_LT(
      MaxAbsDiff(SpmmTransposedA(a, c), MatMul(Transpose(a.ToDense()), c)),
      1e-4f);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SpmmRandom,
    ::testing::Values(std::tuple{1, 1, 1}, std::tuple{5, 5, 10},
                      std::tuple{10, 3, 25}, std::tuple{3, 10, 25},
                      std::tuple{20, 20, 100}));

/// A random symmetric n x n matrix: ~`degree` off-diagonal entries per
/// row with one value per mirrored pair, a diagonal, and a share of
/// tiny values whose products underflow (signed-zero paths).
std::vector<std::tuple<std::int64_t, std::int64_t, float>> SymmetricTriplets(
    std::int64_t n, int degree, Rng& rng) {
  std::vector<std::tuple<std::int64_t, std::int64_t, float>> trip;
  // Repeated pairs would be summed by FromCoo, in an order that need not
  // match their mirrors'; draw each pair once.
  std::set<std::pair<std::int64_t, std::int64_t>> drawn;
  for (std::int64_t r = 0; r < n; ++r) {
    trip.emplace_back(r, r, rng.Uniform(0.1f, 1.0f));
    for (int d = 0; d < degree / 2; ++d) {
      const std::int64_t c = rng.UniformInt(n);
      if (c == r || !drawn.emplace(std::min(r, c), std::max(r, c)).second) {
        continue;
      }
      float v = rng.Uniform(-1.0f, 1.0f);
      if (rng.Uniform() < 0.05f) v *= 1e-38f;
      trip.emplace_back(r, c, v);
      trip.emplace_back(c, r, v);
    }
  }
  return trip;
}

TEST(CsrSymmetry, MarkAcceptsOnlyExactlySymmetricMatrices) {
  Rng rng(3);
  CsrMatrix sym = CsrMatrix::FromCoo(50, 50, SymmetricTriplets(50, 6, rng));
  EXPECT_FALSE(sym.symmetric());  // FromCoo never marks.
  EXPECT_TRUE(sym.MarkSymmetricIfExact());
  EXPECT_TRUE(sym.symmetric());
  EXPECT_TRUE(CsrMatrix(sym).symmetric());  // Copies keep the mark.

  // One value off by an ulp, one mirror missing, a non-square matrix.
  auto trip = SymmetricTriplets(50, 6, rng);
  trip.emplace_back(3, 7, 0.5f);
  trip.emplace_back(7, 3, std::nextafterf(0.5f, 1.0f));
  EXPECT_FALSE(CsrMatrix::FromCoo(50, 50, trip).MarkSymmetricIfExact());
  trip = SymmetricTriplets(50, 6, rng);
  trip.emplace_back(49, 0, 0.25f);
  EXPECT_FALSE(CsrMatrix::FromCoo(50, 50, trip).MarkSymmetricIfExact());
  EXPECT_FALSE(SampleCsr().MarkSymmetricIfExact());
  CsrMatrix empty;
  EXPECT_TRUE(empty.MarkSymmetricIfExact());
}

TEST(CsrSymmetry, OnlyTheSymmetricNormalizationIsMarked) {
  // Degrees 1..4 on a path-plus-star graph, so row and column scalings
  // really differ.
  Rng rng(4);
  const Graph g =
      BuildGraph(6, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {0, 3}, {0, 5}},
                 Matrix::RandomUniform(6, 3, 0.0f, 1.0f, rng));
  EXPECT_TRUE(NormalizedAdjacency(g).symmetric());
  EXPECT_FALSE(RowNormalizedAdjacency(g).symmetric());
  // GAT-style attention: a softmax over each row's neighbors has the
  // graph's (symmetric) structure but not its values.
  std::vector<std::tuple<std::int64_t, std::int64_t, float>> attention;
  for (std::int64_t v = 0; v < g.num_nodes; ++v) {
    float denom = 0.0f;
    for (std::int32_t u : g.Neighbors(v)) denom += std::exp(0.3f * u - 0.1f * v);
    for (std::int32_t u : g.Neighbors(v)) {
      attention.emplace_back(v, u, std::exp(0.3f * u - 0.1f * v) / denom);
    }
  }
  CsrMatrix gat = CsrMatrix::FromCoo(6, 6, attention);
  EXPECT_FALSE(gat.MarkSymmetricIfExact());
  EXPECT_FALSE(gat.symmetric());
}

TEST(CsrSymmetry, GatherBackwardMatchesChunkedScatterBitForBit) {
  // The marked matrix takes the gather path, an unmarked copy the
  // chunked scatter, at widths off the 8/32 tiles. 511 rows are one
  // scatter chunk; 513 rows are two at widths 33 and 41 (grain 512);
  // 5000 rows are several at every width.
  for (std::int64_t rows : {511L, 513L, 5000L}) {
    Rng rng(static_cast<std::uint64_t>(rows));
    const auto trip = SymmetricTriplets(rows, 8, rng);
    const CsrMatrix scatter = CsrMatrix::FromCoo(rows, rows, trip);
    CsrMatrix gather = CsrMatrix::FromCoo(rows, rows, trip);
    ASSERT_TRUE(gather.MarkSymmetricIfExact());
    for (std::int64_t n : {1L, 7L, 33L, 41L}) {
      const Matrix b = Matrix::RandomNormal(rows, n, 0, 1, rng);
      SetNumThreads(1);
      const Matrix want = SpmmTransposedA(scatter, b);
      for (int threads : {1, 2, 7}) {
        SetNumThreads(threads);
        const Matrix got = SpmmTransposedA(gather, b);
        ASSERT_EQ(got.size(), want.size());
        EXPECT_EQ(std::memcmp(got.data(), want.data(),
                              sizeof(float) * static_cast<std::size_t>(
                                                  want.size())),
                  0)
            << "rows=" << rows << " n=" << n << " threads=" << threads;
        EXPECT_TRUE(SpmmTransposedA(scatter, b) == want)
            << "scatter, rows=" << rows << " threads=" << threads;
      }
      SetNumThreads(1);
    }
  }
}

TEST(CsrMatrixDeathTest, FromCooRejectsColumnCountBeyondInt32) {
  // Column ids are stored as int32; before the explicit guard, a bare
  // static_cast silently wrapped ids >= 2^31 into negative indices.
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_DEATH(CsrMatrix::FromCoo(1, (std::int64_t{1} << 31), {}),
               "int32");
}

}  // namespace
}  // namespace e2gcl
