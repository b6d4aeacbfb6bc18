#include <cmath>
#include <memory>

#include <gtest/gtest.h>

#include "autograd/loss.h"
#include "nn/gcn.h"
#include "nn/mlp.h"
#include "nn/optim.h"
#include "test_util.h"

namespace e2gcl {
namespace {

using testing_util::SmallGraph;

TEST(GlorotUniform, RespectsLimit) {
  Rng rng(1);
  Matrix w = GlorotUniform(30, 50, rng);
  const float limit = std::sqrt(6.0f / 80.0f);
  for (std::int64_t i = 0; i < w.size(); ++i) {
    EXPECT_LE(std::fabs(w.data()[i]), limit + 1e-6f);
  }
}

TEST(ParamSet, CreateTracksParams) {
  ParamSet ps;
  Var a = ps.Create(Matrix(2, 2, 1.0f));
  Var b = ps.Create(Matrix(1, 3, 2.0f));
  EXPECT_EQ(ps.params().size(), 2u);
  EXPECT_TRUE(a.requires_grad());
  EXPECT_TRUE(b.requires_grad());
}

TEST(ParamSet, CloneAndLoadRoundTrip) {
  Rng rng(2);
  ParamSet ps;
  Var a = ps.Create(Matrix::RandomNormal(3, 3, 0, 1, rng));
  auto snapshot = ps.CloneValues();
  a.mutable_value()(0, 0) = 99.0f;
  ps.LoadValues(snapshot);
  EXPECT_NE(a.value()(0, 0), 99.0f);
}

TEST(ParamSet, EmaUpdateMovesTowardOnline) {
  ParamSet target, online;
  Var t = target.Create(Matrix(1, 1, 0.0f));
  online.Create(Matrix(1, 1, 10.0f));
  target.EmaUpdateFrom(online, 0.9f);
  EXPECT_NEAR(t.value()(0, 0), 1.0f, 1e-6f);
  target.EmaUpdateFrom(online, 0.9f);
  EXPECT_NEAR(t.value()(0, 0), 1.9f, 1e-6f);
}

TEST(Adam, MinimizesQuadratic) {
  // minimize ||w - c||^2.
  Rng rng(3);
  ParamSet ps;
  Var w = ps.Create(Matrix::RandomNormal(1, 4, 0, 1, rng));
  Matrix c = Matrix::FromRows({{1, -2, 3, 0.5}});
  Adam::Options opts;
  opts.lr = 0.1f;
  Adam adam(ps.params(), opts);
  for (int step = 0; step < 200; ++step) {
    Var loss = ag::MseLoss(w, Var::Constant(c));
    adam.ZeroGrad();
    loss.Backward();
    adam.Step();
  }
  EXPECT_LT(MaxAbsDiff(w.value(), c), 0.05f);
}

TEST(Adam, WeightDecayShrinksUnusedParams) {
  ParamSet ps;
  Var w = ps.Create(Matrix(1, 1, 1.0f));
  Var u = ps.Create(Matrix(1, 1, 5.0f));
  Adam::Options opts;
  opts.lr = 0.05f;
  opts.weight_decay = 0.1f;
  Adam adam(ps.params(), opts);
  for (int i = 0; i < 50; ++i) {
    Var loss = ag::MseLoss(w, Var::Constant(Matrix(1, 1, 1.0f)));
    adam.ZeroGrad();
    loss.Backward();
    adam.Step();
  }
  // u received no gradient: Adam's decoupled decay only applies with a
  // gradient flowing, so it must be unchanged.
  EXPECT_FLOAT_EQ(u.value()(0, 0), 5.0f);
}

TEST(GcnEncoder, OutputShape) {
  Graph g = SmallGraph();
  Rng rng(4);
  GcnConfig cfg;
  cfg.dims = {4, 8, 3};
  GcnEncoder enc(cfg, rng);
  Matrix h = enc.Encode(g);
  EXPECT_EQ(h.rows(), 6);
  EXPECT_EQ(h.cols(), 3);
  EXPECT_TRUE(AllFinite(h));
}

TEST(GcnEncoder, DeterministicWithoutDropout) {
  Graph g = SmallGraph();
  Rng rng(5);
  GcnConfig cfg;
  cfg.dims = {4, 8, 3};
  GcnEncoder enc(cfg, rng);
  EXPECT_LT(MaxAbsDiff(enc.Encode(g), enc.Encode(g)), 1e-7f);
}

TEST(GcnEncoder, PropagatesNeighborInformation) {
  // A node with zero features must still get nonzero embedding input
  // through its neighbors' aggregation.
  Graph g = BuildGraph(
      2, {{0, 1}},
      Matrix::FromRows({{1.0f, 1.0f}, {0.0f, 0.0f}}));
  Rng rng(6);
  GcnConfig cfg;
  cfg.dims = {2, 4};
  cfg.bias = false;
  GcnEncoder enc(cfg, rng);
  Matrix h = enc.Encode(g);
  float norm1 = 0.0f;
  for (std::int64_t c = 0; c < 4; ++c) norm1 += std::fabs(h(1, c));
  EXPECT_GT(norm1, 0.0f);
}

TEST(GcnEncoder, TrainsUnderCrossEntropy) {
  Graph g = SmallGraph();
  Rng rng(7);
  GcnConfig cfg;
  cfg.dims = {4, 8, 2};
  GcnEncoder enc(cfg, rng);
  auto adj = std::make_shared<const CsrMatrix>(NormalizedAdjacency(g));
  Adam::Options opts;
  opts.lr = 0.05f;
  Adam adam(enc.params().params(), opts);
  float first = 0.0f, last = 0.0f;
  for (int i = 0; i < 60; ++i) {
    Var logits = enc.Forward(adj, Var::Constant(g.features), rng, true);
    Var loss = ag::SoftmaxCrossEntropy(logits, g.labels);
    if (i == 0) first = loss.value()(0, 0);
    last = loss.value()(0, 0);
    adam.ZeroGrad();
    loss.Backward();
    adam.Step();
  }
  EXPECT_LT(last, first * 0.5f);
}

TEST(GcnEncoder, PreluVariantRuns) {
  Graph g = SmallGraph();
  Rng rng(8);
  GcnConfig cfg;
  cfg.dims = {4, 6};
  cfg.prelu = true;
  cfg.final_activation = true;
  GcnEncoder enc(cfg, rng);
  EXPECT_TRUE(AllFinite(enc.Encode(g)));
  // PReLU slope is a parameter.
  EXPECT_EQ(enc.params().params().size(), 3u);  // W, b, slope
}

TEST(Mlp, OutputShapeAndTraining) {
  Rng rng(9);
  MlpConfig cfg;
  cfg.dims = {4, 16, 2};
  Mlp mlp(cfg, rng);
  Matrix x = Matrix::RandomNormal(20, 4, 0, 1, rng);
  std::vector<std::int64_t> y(20);
  for (int i = 0; i < 20; ++i) y[i] = (x(i, 0) > 0) ? 1 : 0;
  Adam::Options opts;
  opts.lr = 0.05f;
  Adam adam(mlp.params().params(), opts);
  float first = 0.0f, last = 0.0f;
  for (int i = 0; i < 80; ++i) {
    Var logits = mlp.Forward(Var::Constant(x), rng, true);
    EXPECT_EQ(logits.cols(), 2);
    Var loss = ag::SoftmaxCrossEntropy(logits, y);
    if (i == 0) first = loss.value()(0, 0);
    last = loss.value()(0, 0);
    adam.ZeroGrad();
    loss.Backward();
    adam.Step();
  }
  EXPECT_LT(last, first * 0.5f);
}

TEST(GcnEncoder, LayerCountMatchesDims) {
  Rng rng(10);
  GcnConfig cfg;
  cfg.dims = {4, 8, 8, 8, 2};
  GcnEncoder enc(cfg, rng);
  EXPECT_EQ(enc.num_layers(), 4);
}

}  // namespace
}  // namespace e2gcl
