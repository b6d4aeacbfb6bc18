#include "tensor/matrix.h"

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "tensor/rng.h"

namespace e2gcl {
namespace {

TEST(Matrix, DefaultIsEmpty) {
  Matrix m;
  EXPECT_EQ(m.rows(), 0);
  EXPECT_EQ(m.cols(), 0);
  EXPECT_TRUE(m.empty());
}

TEST(Matrix, ConstructZeroInitialized) {
  Matrix m(3, 4);
  EXPECT_EQ(m.rows(), 3);
  EXPECT_EQ(m.cols(), 4);
  for (std::int64_t i = 0; i < m.size(); ++i) EXPECT_EQ(m.data()[i], 0.0f);
}

TEST(Matrix, ConstructFilled) {
  Matrix m(2, 2, 3.5f);
  EXPECT_EQ(m(0, 0), 3.5f);
  EXPECT_EQ(m(1, 1), 3.5f);
}

TEST(Matrix, FromRowsRoundTrip) {
  Matrix m = Matrix::FromRows({{1, 2, 3}, {4, 5, 6}});
  EXPECT_EQ(m.rows(), 2);
  EXPECT_EQ(m.cols(), 3);
  EXPECT_EQ(m(0, 2), 3.0f);
  EXPECT_EQ(m(1, 0), 4.0f);
}

TEST(Matrix, IdentityDiagonal) {
  Matrix id = Matrix::Identity(3);
  for (std::int64_t r = 0; r < 3; ++r) {
    for (std::int64_t c = 0; c < 3; ++c) {
      EXPECT_EQ(id(r, c), r == c ? 1.0f : 0.0f);
    }
  }
}

TEST(Matrix, RowExtraction) {
  Matrix m = Matrix::FromRows({{1, 2}, {3, 4}});
  Matrix r = m.Row(1);
  EXPECT_EQ(r.rows(), 1);
  EXPECT_EQ(r(0, 0), 3.0f);
  EXPECT_EQ(r(0, 1), 4.0f);
}

TEST(Matrix, EqualityIsExact) {
  Matrix a = Matrix::FromRows({{1, 2}});
  Matrix b = Matrix::FromRows({{1, 2}});
  Matrix c = Matrix::FromRows({{1, 2.0001f}});
  EXPECT_TRUE(a == b);
  EXPECT_FALSE(a == c);
}

TEST(MatMul, SmallKnownProduct) {
  Matrix a = Matrix::FromRows({{1, 2}, {3, 4}});
  Matrix b = Matrix::FromRows({{5, 6}, {7, 8}});
  Matrix c = MatMul(a, b);
  EXPECT_EQ(c(0, 0), 19.0f);
  EXPECT_EQ(c(0, 1), 22.0f);
  EXPECT_EQ(c(1, 0), 43.0f);
  EXPECT_EQ(c(1, 1), 50.0f);
}

TEST(MatMul, IdentityIsNeutral) {
  Rng rng(1);
  Matrix a = Matrix::RandomNormal(4, 4, 0, 1, rng);
  EXPECT_LT(MaxAbsDiff(MatMul(a, Matrix::Identity(4)), a), 1e-6f);
  EXPECT_LT(MaxAbsDiff(MatMul(Matrix::Identity(4), a), a), 1e-6f);
}

TEST(MatMul, TransposedVariantsAgree) {
  Rng rng(2);
  Matrix a = Matrix::RandomNormal(3, 5, 0, 1, rng);
  Matrix b = Matrix::RandomNormal(5, 4, 0, 1, rng);
  Matrix direct = MatMul(a, b);
  EXPECT_LT(MaxAbsDiff(MatMulTransposedB(a, Transpose(b)), direct), 1e-5f);
  EXPECT_LT(MaxAbsDiff(MatMulTransposedA(Transpose(a), b), direct), 1e-5f);
}

TEST(ElementwiseOps, AddSubHadamard) {
  Matrix a = Matrix::FromRows({{1, 2}, {3, 4}});
  Matrix b = Matrix::FromRows({{5, 6}, {7, 8}});
  EXPECT_EQ(Add(a, b)(1, 1), 12.0f);
  EXPECT_EQ(Sub(a, b)(0, 0), -4.0f);
  EXPECT_EQ(Hadamard(a, b)(1, 0), 21.0f);
  EXPECT_EQ(Scale(a, 2.0f)(0, 1), 4.0f);
}

TEST(ElementwiseOps, AxpyInPlace) {
  Matrix a = Matrix::FromRows({{1, 1}});
  Matrix b = Matrix::FromRows({{2, 3}});
  AxpyInPlace(a, 0.5f, b);
  EXPECT_EQ(a(0, 0), 2.0f);
  EXPECT_EQ(a(0, 1), 2.5f);
}

TEST(Reductions, SumMeanNorm) {
  Matrix a = Matrix::FromRows({{1, 2}, {3, 4}});
  EXPECT_FLOAT_EQ(SumAll(a), 10.0f);
  EXPECT_FLOAT_EQ(MeanAll(a), 2.5f);
  EXPECT_FLOAT_EQ(FrobeniusNorm(a), std::sqrt(30.0f));
}

TEST(Reductions, RowColSums) {
  Matrix a = Matrix::FromRows({{1, 2}, {3, 4}});
  Matrix cs = ColSums(a);
  EXPECT_FLOAT_EQ(cs(0, 0), 4.0f);
  EXPECT_FLOAT_EQ(cs(0, 1), 6.0f);
}

TEST(Normalize, RowsHaveUnitNorm) {
  Rng rng(3);
  Matrix a = Matrix::RandomNormal(5, 7, 0, 2, rng);
  Matrix n = NormalizeRowsL2(a);
  Matrix norms = RowL2Norms(n);
  for (std::int64_t r = 0; r < 5; ++r) EXPECT_NEAR(norms(r, 0), 1.0f, 1e-5f);
}

TEST(Normalize, ZeroRowStaysZero) {
  Matrix a(2, 3);
  a(1, 0) = 5.0f;
  Matrix n = NormalizeRowsL2(a);
  EXPECT_EQ(n(0, 0), 0.0f);
  EXPECT_EQ(n(0, 1), 0.0f);
  EXPECT_FLOAT_EQ(n(1, 0), 1.0f);
}

TEST(RowDistance, MatchesManual) {
  Matrix a = Matrix::FromRows({{0, 0}, {3, 4}});
  EXPECT_FLOAT_EQ(RowSquaredDistance(a, 0, a, 1), 25.0f);
  EXPECT_FLOAT_EQ(RowDistance(a, 0, a, 1), 5.0f);
  EXPECT_FLOAT_EQ(RowDistance(a, 1, a, 1), 0.0f);
}

TEST(GatherRows, RepeatsAllowed) {
  Matrix a = Matrix::FromRows({{1, 1}, {2, 2}, {3, 3}});
  Matrix g = GatherRows(a, {2, 0, 2});
  EXPECT_EQ(g.rows(), 3);
  EXPECT_EQ(g(0, 0), 3.0f);
  EXPECT_EQ(g(1, 0), 1.0f);
  EXPECT_EQ(g(2, 1), 3.0f);
}

TEST(SoftmaxRows, RowsSumToOneAndOrderPreserved) {
  Matrix a = Matrix::FromRows({{1, 2, 3}, {-5, 0, 5}});
  Matrix s = SoftmaxRows(a);
  for (std::int64_t r = 0; r < 2; ++r) {
    float total = 0.0f;
    for (std::int64_t c = 0; c < 3; ++c) total += s(r, c);
    EXPECT_NEAR(total, 1.0f, 1e-5f);
    EXPECT_LT(s(r, 0), s(r, 1));
    EXPECT_LT(s(r, 1), s(r, 2));
  }
}

TEST(SoftmaxRows, StableForLargeLogits) {
  Matrix a = Matrix::FromRows({{1000, 1001}});
  Matrix s = SoftmaxRows(a);
  EXPECT_TRUE(std::isfinite(s(0, 0)));
  EXPECT_NEAR(s(0, 0) + s(0, 1), 1.0f, 1e-5f);
}

TEST(Transpose, TwiceIsIdentity) {
  Rng rng(4);
  Matrix a = Matrix::RandomNormal(3, 6, 0, 1, rng);
  EXPECT_LT(MaxAbsDiff(Transpose(Transpose(a)), a), 1e-7f);
}

TEST(RandomMatrices, UniformRespectRange) {
  Rng rng(5);
  Matrix u = Matrix::RandomUniform(20, 20, -2.0f, 3.0f, rng);
  for (std::int64_t i = 0; i < u.size(); ++i) {
    EXPECT_GE(u.data()[i], -2.0f);
    EXPECT_LT(u.data()[i], 3.0f);
  }
}

TEST(RandomMatrices, NormalRoughMoments) {
  Rng rng(6);
  Matrix n = Matrix::RandomNormal(100, 100, 1.0f, 2.0f, rng);
  EXPECT_NEAR(MeanAll(n), 1.0f, 0.1f);
}

// Property sweep: MatMul shapes compose correctly across sizes.
class MatMulShapes
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(MatMulShapes, ProducesCorrectShapeAndMatchesTransposedForm) {
  const auto [m, k, n] = GetParam();
  Rng rng(m * 100 + k * 10 + n);
  Matrix a = Matrix::RandomNormal(m, k, 0, 1, rng);
  Matrix b = Matrix::RandomNormal(k, n, 0, 1, rng);
  Matrix c = MatMul(a, b);
  EXPECT_EQ(c.rows(), m);
  EXPECT_EQ(c.cols(), n);
  EXPECT_LT(MaxAbsDiff(c, MatMulTransposedB(a, Transpose(b))), 1e-4f);
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, MatMulShapes,
    ::testing::Values(std::tuple{1, 1, 1}, std::tuple{1, 5, 3},
                      std::tuple{4, 1, 4}, std::tuple{7, 3, 2},
                      std::tuple{5, 8, 5}, std::tuple{16, 16, 16}));


TEST(AllFinite, DetectsNanAndInf) {
  Matrix m(3, 4, 1.0f);
  EXPECT_TRUE(AllFinite(m));
  m(1, 2) = std::numeric_limits<float>::quiet_NaN();
  EXPECT_FALSE(AllFinite(m));
  m(1, 2) = std::numeric_limits<float>::infinity();
  EXPECT_FALSE(AllFinite(m));
  m(1, 2) = -std::numeric_limits<float>::infinity();
  EXPECT_FALSE(AllFinite(m));
  EXPECT_TRUE(AllFinite(Matrix()));
}

TEST(AllFinite, ZeroSkipMasksNanFromMatMulProducts) {
  // The reason AllFinite exists: MatMul's zero-skip fast path evaluates
  // 0 * NaN as 0, so a NaN weight whose input column is all zero yields
  // a fully finite product (and, through MatMulTransposedA, an exactly
  // zero gradient row). Finiteness of downstream activations therefore
  // proves nothing about the parameters themselves.
  Matrix x(2, 3);  // column 2 is all zero
  x(0, 0) = 1.0f;
  x(1, 1) = 2.0f;
  Matrix w(3, 2, 1.0f);
  w(2, 0) = std::numeric_limits<float>::quiet_NaN();
  EXPECT_TRUE(AllFinite(MatMul(x, w)));  // NaN silently masked
  EXPECT_TRUE(AllFinite(MatMulTransposedA(x, Matrix(2, 2, 1.0f))));
  EXPECT_FALSE(AllFinite(w));  // only the direct check sees it
}

}  // namespace
}  // namespace e2gcl
