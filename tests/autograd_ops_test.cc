#include "autograd/ops.h"

#include <memory>

#include <gtest/gtest.h>

#include "tensor/csr.h"
#include "test_util.h"

namespace e2gcl {
namespace {

using testing_util::CheckGradients;

Matrix RandM(std::int64_t r, std::int64_t c, std::uint64_t seed) {
  Rng rng(seed);
  return Matrix::RandomNormal(r, c, 0.0f, 1.0f, rng);
}

TEST(AutogradBasics, ConstantHasNoGrad) {
  Var c = Var::Constant(RandM(2, 2, 1));
  EXPECT_FALSE(c.requires_grad());
  Var p = Var::Param(RandM(2, 2, 2));
  EXPECT_TRUE(p.requires_grad());
}

TEST(AutogradBasics, BackwardAccumulatesThroughSharedNode) {
  // loss = sum(p + p): dL/dp = 2 everywhere.
  Var p = Var::Param(RandM(2, 3, 3));
  Var loss = ag::SumAll(ag::Add(p, p));
  loss.Backward();
  for (std::int64_t i = 0; i < p.grad().size(); ++i) {
    EXPECT_FLOAT_EQ(p.grad().data()[i], 2.0f);
  }
}

TEST(AutogradBasics, ZeroGradClears) {
  Var p = Var::Param(RandM(2, 2, 4));
  ag::SumAll(p).Backward();
  EXPECT_FALSE(p.grad().empty());
  p.ZeroGrad();
  EXPECT_TRUE(p.grad().empty());
}

TEST(AutogradBasics, GradientDoesNotFlowIntoConstants) {
  Var p = Var::Param(RandM(2, 2, 5));
  Var c = Var::Constant(RandM(2, 2, 6));
  Var loss = ag::SumAll(ag::Hadamard(p, c));
  loss.Backward();
  EXPECT_TRUE(c.grad().empty());
  EXPECT_FALSE(p.grad().empty());
}

TEST(GradCheck, MatMul) {
  CheckGradients({RandM(3, 4, 10), RandM(4, 2, 11)},
                 [](const std::vector<Var>& p) {
                   return ag::SumAll(ag::MatMul(p[0], p[1]));
                 });
}

TEST(GradCheck, MatMulChained) {
  CheckGradients({RandM(2, 3, 12), RandM(3, 3, 13), RandM(3, 2, 14)},
                 [](const std::vector<Var>& p) {
                   return ag::SumAll(
                       ag::MatMul(ag::MatMul(p[0], p[1]), p[2]));
                 });
}

TEST(GradCheck, MatMulTransposedB) {
  CheckGradients({RandM(3, 4, 15), RandM(5, 4, 16)},
                 [](const std::vector<Var>& p) {
                   return ag::SumAll(ag::MatMulTransposedB(p[0], p[1]));
                 });
}

TEST(GradCheck, Spmm) {
  auto s = std::make_shared<const CsrMatrix>(CsrMatrix::FromCoo(
      3, 3, {{0, 1, 2.0f}, {1, 0, -1.0f}, {2, 2, 0.5f}, {0, 2, 1.0f}}));
  CheckGradients({RandM(3, 4, 17)}, [s](const std::vector<Var>& p) {
    return ag::SumAll(ag::Spmm(s, p[0]));
  });
}

TEST(GradCheck, AddSubHadamardScale) {
  CheckGradients({RandM(3, 3, 18), RandM(3, 3, 19)},
                 [](const std::vector<Var>& p) {
                   Var mixed = ag::Sub(ag::Add(p[0], p[1]),
                                       ag::Scale(ag::Hadamard(p[0], p[1]),
                                                 0.3f));
                   return ag::SumAll(ag::Hadamard(mixed, mixed));
                 });
}

TEST(GradCheck, AddRowBroadcast) {
  CheckGradients({RandM(4, 3, 20), RandM(1, 3, 21)},
                 [](const std::vector<Var>& p) {
                   Var y = ag::AddRowBroadcast(p[0], p[1]);
                   return ag::SumAll(ag::Hadamard(y, y));
                 });
}

TEST(GradCheck, Relu) {
  // Keep inputs away from the kink for finite differences.
  Matrix x = RandM(4, 4, 22);
  for (std::int64_t i = 0; i < x.size(); ++i) {
    if (std::fabs(x.data()[i]) < 0.05f) x.data()[i] = 0.2f;
  }
  CheckGradients({x}, [](const std::vector<Var>& p) {
    return ag::SumAll(ag::Hadamard(ag::Relu(p[0]), ag::Relu(p[0])));
  });
}

TEST(GradCheck, PRelu) {
  Matrix x = RandM(4, 4, 23);
  for (std::int64_t i = 0; i < x.size(); ++i) {
    if (std::fabs(x.data()[i]) < 0.05f) x.data()[i] = -0.2f;
  }
  Matrix slope(1, 1);
  slope(0, 0) = 0.3f;
  CheckGradients({x, slope}, [](const std::vector<Var>& p) {
    Var y = ag::PRelu(p[0], p[1]);
    return ag::SumAll(ag::Hadamard(y, y));
  });
}

TEST(GradCheck, SigmoidTanhExp) {
  CheckGradients({RandM(3, 3, 24)}, [](const std::vector<Var>& p) {
    Var y = ag::Sigmoid(p[0]);
    Var w = ag::Exp(ag::Scale(p[0], 0.5f));
    return ag::SumAll(ag::Add(ag::Hadamard(y, y), w));
  });
}

TEST(GradCheck, Log) {
  Rng rng(25);
  Matrix x = Matrix::RandomUniform(3, 3, 0.5f, 2.0f, rng);
  CheckGradients({x}, [](const std::vector<Var>& p) {
    return ag::SumAll(ag::Log(p[0]));
  });
}

TEST(GradCheck, NormalizeRowsL2) {
  CheckGradients({RandM(4, 5, 26)}, [](const std::vector<Var>& p) {
    Var n = ag::NormalizeRowsL2(p[0]);
    // Weighted sum so the gradient is row-dependent.
    Rng rng(27);
    Var w = Var::Constant(Matrix::RandomNormal(4, 5, 0, 1, rng));
    return ag::SumAll(ag::Hadamard(n, w));
  });
}

TEST(NormalizeRowsL2, ForwardUnitNorm) {
  Var x = Var::Param(RandM(6, 8, 28));
  Var n = ag::NormalizeRowsL2(x);
  Matrix norms = RowL2Norms(n.value());
  for (std::int64_t r = 0; r < norms.rows(); ++r) {
    EXPECT_NEAR(norms(r, 0), 1.0f, 1e-5f);
  }
}

TEST(GradCheck, Transpose) {
  CheckGradients({RandM(3, 5, 29)}, [](const std::vector<Var>& p) {
    Var t = ag::Transpose(p[0]);
    return ag::SumAll(ag::Hadamard(t, t));
  });
}

TEST(GradCheck, MeanAllAndMeanRows) {
  CheckGradients({RandM(4, 3, 30)}, [](const std::vector<Var>& p) {
    Var m = ag::MeanRows(p[0]);
    return ag::Add(ag::MeanAll(ag::Hadamard(p[0], p[0])),
                   ag::SumAll(ag::Hadamard(m, m)));
  });
}

TEST(GradCheck, GatherRows) {
  CheckGradients({RandM(5, 3, 31)}, [](const std::vector<Var>& p) {
    Var g = ag::GatherRows(p[0], {0, 2, 2, 4});
    return ag::SumAll(ag::Hadamard(g, g));
  });
}

TEST(GatherRows, ForwardSelectsRows) {
  Var x = Var::Param(Matrix::FromRows({{1, 2}, {3, 4}, {5, 6}}));
  Var g = ag::GatherRows(x, {2, 0});
  EXPECT_FLOAT_EQ(g.value()(0, 0), 5.0f);
  EXPECT_FLOAT_EQ(g.value()(1, 1), 2.0f);
}

TEST(Dropout, IdentityWhenNotTraining) {
  Rng rng(33);
  Var x = Var::Param(RandM(4, 4, 32));
  Var y = ag::Dropout(x, 0.5f, rng, /*training=*/false);
  EXPECT_LT(MaxAbsDiff(y.value(), x.value()), 1e-7f);
}

TEST(Dropout, MaskAndScaleConsistentInBackward) {
  Rng rng(34);
  Var x = Var::Param(Matrix(1, 1000, 1.0f));
  Var y = ag::Dropout(x, 0.25f, rng, /*training=*/true);
  // Kept entries scaled by 1/(1-p).
  std::int64_t kept = 0;
  for (std::int64_t i = 0; i < y.value().size(); ++i) {
    const float v = y.value().data()[i];
    EXPECT_TRUE(v == 0.0f || std::fabs(v - 1.0f / 0.75f) < 1e-5f);
    if (v != 0.0f) ++kept;
  }
  EXPECT_NEAR(static_cast<double>(kept), 750.0, 60.0);
  ag::SumAll(y).Backward();
  for (std::int64_t i = 0; i < x.grad().size(); ++i) {
    const float g = x.grad().data()[i];
    const float v = y.value().data()[i];
    EXPECT_FLOAT_EQ(g, v == 0.0f ? 0.0f : 1.0f / 0.75f);
  }
}

TEST(GradCheck, BatchNormColumns) {
  Matrix x = RandM(6, 4, 40);
  Matrix gamma(1, 4, 1.0f);
  Matrix beta(1, 4);
  CheckGradients({x, gamma, beta},
                 [](const std::vector<Var>& p) {
                   Var y = ag::BatchNormColumns(p[0], p[1], p[2]);
                   Rng rng(41);
                   Var w = Var::Constant(Matrix::RandomNormal(6, 4, 0, 1, rng));
                   return ag::SumAll(ag::Hadamard(y, w));
                 },
                 /*h=*/1e-2f, /*tol=*/4e-2f);
}

TEST(BatchNormColumns, NormalizesColumns) {
  Rng rng(42);
  Var x = Var::Param(Matrix::RandomNormal(50, 3, 5.0f, 2.0f, rng));
  Var gamma = Var::Param(Matrix(1, 3, 1.0f));
  Var beta = Var::Param(Matrix(1, 3));
  Var y = ag::BatchNormColumns(x, gamma, beta);
  Matrix cs = ColSums(y.value());
  for (std::int64_t j = 0; j < 3; ++j) {
    EXPECT_NEAR(cs(0, j) / 50.0f, 0.0f, 1e-4f);
  }
  // Unit variance per column.
  for (std::int64_t j = 0; j < 3; ++j) {
    double v = 0.0;
    for (std::int64_t i = 0; i < 50; ++i) {
      v += y.value()(i, j) * y.value()(i, j);
    }
    EXPECT_NEAR(v / 50.0, 1.0, 1e-3);
  }
}

TEST(Backward, DiamondGraphAccumulates) {
  // loss = sum(relu(p) + sigmoid(p)) exercises two paths to p.
  Matrix x = RandM(3, 3, 35);
  for (std::int64_t i = 0; i < x.size(); ++i) {
    if (std::fabs(x.data()[i]) < 0.05f) x.data()[i] = 0.3f;
  }
  CheckGradients({x}, [](const std::vector<Var>& p) {
    return ag::SumAll(ag::Add(ag::Relu(p[0]), ag::Sigmoid(p[0])));
  });
}

}  // namespace
}  // namespace e2gcl
