// ThreadPool smoke tests plus the determinism contract: every parallel
// kernel must produce bit-identical output at any thread count, because
// chunking is fixed and size-based and per-chunk partials are reduced in
// chunk order (see DESIGN.md "Threading model"). Thread counts 1, 2, and
// 7 are used: 1 exercises the inline path, 2 the smallest real pool, and
// the odd 7 catches chunk-boundary bugs that even splits mask.

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "autograd/loss.h"
#include "autograd/ops.h"
#include "cluster/kmeans.h"
#include "core/contrastive.h"
#include "core/node_selector.h"
#include "parallel/parallel_for.h"
#include "parallel/thread_pool.h"
#include "tensor/csr.h"
#include "tensor/matrix.h"

namespace e2gcl {
namespace {

constexpr int kThreadCounts[] = {1, 2, 7};

/// Runs `compute` once per thread count and checks that every result is
/// bit-identical to the 1-thread result via the provided exact-equality
/// comparator.
template <typename Result, typename Compute>
void ExpectSameAtAllThreadCounts(const Compute& compute) {
  SetNumThreads(1);
  const Result baseline = compute();
  for (int threads : kThreadCounts) {
    SetNumThreads(threads);
    const Result got = compute();
    EXPECT_TRUE(got == baseline) << "result differs at " << threads
                                 << " threads";
  }
  SetNumThreads(1);
}

Matrix RandomMatrix(std::int64_t r, std::int64_t c, std::uint64_t seed) {
  Rng rng(seed);
  return Matrix::RandomNormal(r, c, 0.0f, 1.0f, rng);
}

CsrMatrix RandomSparse(std::int64_t rows, std::int64_t cols,
                       std::int64_t nnz, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::tuple<std::int64_t, std::int64_t, float>> triplets;
  triplets.reserve(nnz);
  for (std::int64_t i = 0; i < nnz; ++i) {
    triplets.emplace_back(rng.UniformInt(rows), rng.UniformInt(cols),
                          rng.Uniform(-1.0f, 1.0f));
  }
  return CsrMatrix::FromCoo(rows, cols, std::move(triplets));
}

// ---------------------------------------------------------------------------
// ThreadPool smoke tests.
// ---------------------------------------------------------------------------

TEST(ThreadPool, RunsEveryChunkExactlyOnce) {
  ThreadPool pool(4);
  constexpr std::int64_t kChunks = 1000;
  std::vector<std::atomic<int>> hits(kChunks);
  pool.Run(kChunks, [&](std::int64_t c) { hits[c].fetch_add(1); });
  for (std::int64_t c = 0; c < kChunks; ++c) {
    EXPECT_EQ(hits[c].load(), 1) << "chunk " << c;
  }
}

TEST(ThreadPool, ZeroAndNegativeChunksAreNoOps) {
  ThreadPool pool(3);
  int calls = 0;
  pool.Run(0, [&](std::int64_t) { ++calls; });
  pool.Run(-5, [&](std::int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ThreadPool, ReusableAcrossJobs) {
  ThreadPool pool(4);
  for (int job = 0; job < 50; ++job) {
    std::atomic<std::int64_t> sum{0};
    pool.Run(17, [&](std::int64_t c) { sum.fetch_add(c); });
    EXPECT_EQ(sum.load(), 17 * 16 / 2);
  }
}

TEST(ThreadPool, NestedRunExecutesInline) {
  ThreadPool pool(4);
  std::atomic<int> inner_total{0};
  pool.Run(8, [&](std::int64_t) {
    // Nested call must not deadlock; it runs inline on this worker.
    pool.Run(4, [&](std::int64_t) { inner_total.fetch_add(1); });
  });
  EXPECT_EQ(inner_total.load(), 8 * 4);
}

TEST(ThreadPool, PropagatesFirstException) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.Run(64,
               [&](std::int64_t c) {
                 if (c == 13) throw std::runtime_error("boom");
               }),
      std::runtime_error);
  // Pool stays usable after an exception.
  std::atomic<int> ok{0};
  pool.Run(8, [&](std::int64_t) { ok.fetch_add(1); });
  EXPECT_EQ(ok.load(), 8);
}

TEST(ThreadPool, SetNumThreadsResizesGlobalPool) {
  SetNumThreads(7);
  EXPECT_EQ(GetNumThreads(), 7);
  EXPECT_EQ(GlobalThreadPool().num_threads(), 7);
  SetNumThreads(2);
  EXPECT_EQ(GlobalThreadPool().num_threads(), 2);
  SetNumThreads(1);
}

TEST(ParallelForChunks, FixedChunkingCoversRangeInOrder) {
  SetNumThreads(1);  // single thread => chunks arrive in index order
  std::vector<std::int64_t> seen;
  ParallelForChunks(3, 50, 10,
                    [&](std::int64_t chunk, std::int64_t b, std::int64_t e) {
                      EXPECT_EQ(b, 3 + chunk * 10);
                      EXPECT_EQ(e, std::min<std::int64_t>(50, b + 10));
                      for (std::int64_t i = b; i < e; ++i) seen.push_back(i);
                    });
  ASSERT_EQ(seen.size(), 47u);
  for (std::int64_t i = 0; i < 47; ++i) EXPECT_EQ(seen[i], i + 3);
  EXPECT_EQ(NumChunks(47, 10), 5);
  EXPECT_EQ(NumChunks(0, 10), 0);
  EXPECT_EQ(NumChunks(1, 0), 1);  // grain clamps to >= 1
}

// ---------------------------------------------------------------------------
// Bit-identical kernel outputs across thread counts. Sizes are chosen to
// exceed every chunking floor, so the multi-chunk reduction paths are
// genuinely exercised (not just the single-chunk serial fallbacks).
// ---------------------------------------------------------------------------

TEST(ParallelDeterminism, MatMul) {
  const Matrix a = RandomMatrix(517, 96, 0xa);
  const Matrix b = RandomMatrix(96, 73, 0xb);
  ExpectSameAtAllThreadCounts<Matrix>([&] { return MatMul(a, b); });
}

TEST(ParallelDeterminism, MatMulTransposedB) {
  const Matrix a = RandomMatrix(301, 64, 0xc);
  const Matrix b = RandomMatrix(211, 64, 0xd);
  ExpectSameAtAllThreadCounts<Matrix>(
      [&] { return MatMulTransposedB(a, b); });
}

TEST(ParallelDeterminism, MatMulTransposedAMultiChunk) {
  // k = 1700 rows > the 512-row floor: the per-chunk partial reduction
  // path runs with several chunks.
  const Matrix a = RandomMatrix(1700, 23, 0xe);
  const Matrix b = RandomMatrix(1700, 31, 0xf);
  ExpectSameAtAllThreadCounts<Matrix>(
      [&] { return MatMulTransposedA(a, b); });
}

TEST(ParallelDeterminism, Spmm) {
  const CsrMatrix a = RandomSparse(900, 700, 12000, 0x10);
  const Matrix b = RandomMatrix(700, 48, 0x11);
  ExpectSameAtAllThreadCounts<Matrix>([&] { return Spmm(a, b); });
}

TEST(ParallelDeterminism, SpmmTransposedAMultiChunk) {
  // 1500 input rows > the 512-row scatter floor => per-chunk partials.
  const CsrMatrix a = RandomSparse(1500, 400, 18000, 0x12);
  const Matrix b = RandomMatrix(1500, 40, 0x13);
  ExpectSameAtAllThreadCounts<Matrix>([&] { return SpmmTransposedA(a, b); });
}

TEST(ParallelDeterminism, Reductions) {
  const Matrix a = RandomMatrix(450, 300, 0x14);  // 135k elements, multi-chunk
  const Matrix b = RandomMatrix(450, 300, 0x15);
  struct Result {
    float sum, fro, mad;
    Matrix colsums;
    bool operator==(const Result& o) const {
      return sum == o.sum && fro == o.fro && mad == o.mad &&
             colsums == o.colsums;
    }
  };
  ExpectSameAtAllThreadCounts<Result>([&] {
    return Result{SumAll(a), FrobeniusNorm(a), MaxAbsDiff(a, b), ColSums(a)};
  });
}

TEST(ParallelDeterminism, RowKernels) {
  const Matrix a = RandomMatrix(700, 120, 0x16);
  struct Result {
    Matrix normalized, softmax, norms;
    bool operator==(const Result& o) const {
      return normalized == o.normalized && softmax == o.softmax &&
             norms == o.norms;
    }
  };
  ExpectSameAtAllThreadCounts<Result>([&] {
    return Result{NormalizeRowsL2(a), SoftmaxRows(a), RowL2Norms(a)};
  });
}

TEST(ParallelDeterminism, KMeans) {
  const Matrix points = RandomMatrix(1400, 24, 0x17);
  KMeansOptions opts;
  opts.num_clusters = 13;
  opts.max_iters = 12;
  struct Result {
    Matrix centers;
    std::vector<std::int64_t> assignment;
    double inertia;
    bool operator==(const Result& o) const {
      return centers == o.centers && assignment == o.assignment &&
             inertia == o.inertia;
    }
  };
  ExpectSameAtAllThreadCounts<Result>([&] {
    Rng rng(0x18);  // fresh stream per run => identical sampling
    KMeansResult res = KMeans(points, opts, rng);
    return Result{res.centers, res.assignment, res.inertia};
  });
}

TEST(ParallelDeterminism, SelectCoreset) {
  const Matrix r = RandomMatrix(900, 32, 0x19);
  SelectorConfig cfg;
  cfg.budget = 60;
  cfg.num_clusters = 12;
  struct Result {
    std::vector<std::int64_t> nodes;
    std::vector<float> weights;
    double representativity;
    bool operator==(const Result& o) const {
      return nodes == o.nodes && weights == o.weights &&
             representativity == o.representativity;
    }
  };
  ExpectSameAtAllThreadCounts<Result>([&] {
    Rng rng(0x1a);
    SelectionResult res = SelectCoreset(r, cfg, rng);
    return Result{res.nodes, res.weights, res.representativity};
  });
}

TEST(ParallelDeterminism, InfoNceLossAndGradients) {
  // n = 300 anchors > the 64-row loss floor => several loss chunks.
  const Matrix z1 = NormalizeRowsL2(RandomMatrix(300, 40, 0x1b));
  const Matrix z2 = NormalizeRowsL2(RandomMatrix(300, 40, 0x1c));
  struct Result {
    float loss;
    Matrix da, db;
    bool operator==(const Result& o) const {
      return loss == o.loss && da == o.da && db == o.db;
    }
  };
  ExpectSameAtAllThreadCounts<Result>([&] {
    Var a = Var::Param(z1);
    Var b = Var::Param(z2);
    Var loss = ag::InfoNce(a, b, 0.5f);
    loss.Backward();
    return Result{loss.value()(0, 0), a.grad(), b.grad()};
  });
}

TEST(ParallelDeterminism, EuclideanContrastiveLoss) {
  const Matrix z1 = RandomMatrix(500, 32, 0x1d);
  const Matrix z2 = RandomMatrix(500, 32, 0x1e);
  ExpectSameAtAllThreadCounts<float>([&] {
    Rng rng(0x1f);
    auto perm = SampleNegativePermutation(z1.rows(), rng);
    Var loss = ag::EuclideanContrastive(Var::Constant(z1), Var::Constant(z2),
                                        perm);
    return loss.value()(0, 0);
  });
}

}  // namespace
}  // namespace e2gcl
