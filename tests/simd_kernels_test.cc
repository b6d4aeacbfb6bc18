// Kernel layer parity: the dispatched simd:: backend against the
// always-compiled simd::portable:: reference, on awkward shapes (0, 1,
// 7, 33, non-multiple-of-8 columns) and at 1/2/7 threads. In a
// portable build the two are the same code, so every comparison is
// exact; in an AVX2 build fp32 reductions may differ in the last ulps
// (FMA contraction, lane-wise accumulation) and are compared with a
// tight relative tolerance, while the contracts that hold bit-exactly
// in EVERY backend — SpmmRows == Axpy-per-edge, the GemmRows zero-skip,
// integer kernels, thread-count invariance of the routed Matrix ops —
// are always EXPECT_EQ.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <tuple>
#include <vector>

#include "parallel/parallel_for.h"
#include "parallel/thread_pool.h"
#include "tensor/csr.h"
#include "tensor/matrix.h"
#include "tensor/rng.h"
#include "tensor/simd/simd.h"

namespace e2gcl {
namespace {

// Shapes that stress every vector-tail path: empty, scalar-only, below
// one lane (7), one lane + tail (9..15), 32-tile + 8-tile + tail (33,
// 41), and a multiple-of-8-but-not-32 width (48).
constexpr std::int64_t kLengths[] = {0, 1, 7, 8, 9, 15, 31, 32, 33, 41, 48};
constexpr int kThreadCounts[] = {1, 2, 7};

bool IsPortableBuild() {
  return std::string(simd::BackendName()) == "portable";
}

std::vector<float> RandomVec(std::int64_t n, Rng& rng) {
  std::vector<float> v(static_cast<std::size_t>(n));
  for (float& x : v) x = rng.Uniform(-2.0f, 2.0f);
  return v;
}

/// Exact in a portable build; tight relative tolerance under AVX2.
void ExpectScalarParity(float got, float want) {
  if (IsPortableBuild()) {
    EXPECT_EQ(got, want);
  } else {
    const float tol = 1e-5f * std::max(1.0f, std::fabs(want));
    EXPECT_NEAR(got, want, tol);
  }
}

void ExpectVectorParity(const std::vector<float>& got,
                        const std::vector<float>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (IsPortableBuild()) {
      EXPECT_EQ(got[i], want[i]) << "index " << i;
    } else {
      const float tol = 1e-5f * std::max(1.0f, std::fabs(want[i]));
      EXPECT_NEAR(got[i], want[i], tol) << "index " << i;
    }
  }
}

TEST(SimdParity, DotMatchesPortableOnAwkwardLengths) {
  Rng rng(1);
  for (std::int64_t n : kLengths) {
    const std::vector<float> a = RandomVec(n, rng);
    const std::vector<float> b = RandomVec(n, rng);
    ExpectScalarParity(simd::Dot(a.data(), b.data(), n),
                       simd::portable::Dot(a.data(), b.data(), n));
  }
}

TEST(SimdParity, SquaredDistanceMatchesPortable) {
  Rng rng(2);
  for (std::int64_t n : kLengths) {
    const std::vector<float> a = RandomVec(n, rng);
    const std::vector<float> b = RandomVec(n, rng);
    ExpectScalarParity(
        simd::SquaredDistance(a.data(), b.data(), n),
        simd::portable::SquaredDistance(a.data(), b.data(), n));
  }
}

TEST(SimdParity, DoubleReductionsMatchPortable) {
  Rng rng(3);
  for (std::int64_t n : kLengths) {
    const std::vector<float> a = RandomVec(n, rng);
    const double norm = simd::SquaredNormD(a.data(), n);
    const double norm_ref = simd::portable::SquaredNormD(a.data(), n);
    const double sum = simd::SumD(a.data(), n);
    const double sum_ref = simd::portable::SumD(a.data(), n);
    if (IsPortableBuild()) {
      EXPECT_EQ(norm, norm_ref);
      EXPECT_EQ(sum, sum_ref);
    } else {
      EXPECT_NEAR(norm, norm_ref, 1e-10 * std::max(1.0, std::fabs(norm_ref)));
      EXPECT_NEAR(sum, sum_ref, 1e-10 * std::max(1.0, std::fabs(sum_ref)));
    }
  }
}

TEST(SimdParity, AxpyAndScaleMatchPortable) {
  Rng rng(4);
  for (std::int64_t n : kLengths) {
    const std::vector<float> x = RandomVec(n, rng);
    std::vector<float> y = RandomVec(n, rng);
    std::vector<float> y_ref = y;
    simd::Axpy(y.data(), 0.37f, x.data(), n);
    simd::portable::Axpy(y_ref.data(), 0.37f, x.data(), n);
    ExpectVectorParity(y, y_ref);
    // Scale is a bare multiply per element: exact in every backend.
    std::vector<float> s = x;
    std::vector<float> s_ref = x;
    simd::Scale(s.data(), -1.5f, n);
    simd::portable::Scale(s_ref.data(), -1.5f, n);
    EXPECT_EQ(s, s_ref) << "n=" << n;
  }
}

TEST(SimdParity, NormalizeRowL2MatchesPortableAndHandlesZeroRows) {
  Rng rng(5);
  for (std::int64_t n : kLengths) {
    const std::vector<float> src = RandomVec(n, rng);
    std::vector<float> dst(static_cast<std::size_t>(n), -9.0f);
    std::vector<float> dst_ref(static_cast<std::size_t>(n), -9.0f);
    simd::NormalizeRowL2(dst.data(), src.data(), n, 1e-12f);
    simd::portable::NormalizeRowL2(dst_ref.data(), src.data(), n, 1e-12f);
    ExpectVectorParity(dst, dst_ref);
    // A zero row is copied unchanged, never divided.
    const std::vector<float> zeros(static_cast<std::size_t>(n), 0.0f);
    std::vector<float> out(static_cast<std::size_t>(n), -9.0f);
    simd::NormalizeRowL2(out.data(), zeros.data(), n, 1e-12f);
    EXPECT_EQ(out, zeros) << "n=" << n;
  }
}

TEST(SimdParity, GemmRowsMatchesPortableOnAwkwardShapes) {
  Rng rng(6);
  for (std::int64_t k : {1L, 7L, 33L}) {
    for (std::int64_t n : kLengths) {
      const std::int64_t m = 3;
      const std::vector<float> a = RandomVec(m * k, rng);
      const std::vector<float> b = RandomVec(k * n, rng);
      std::vector<float> c(static_cast<std::size_t>(m * n), 0.0f);
      std::vector<float> c_ref = c;
      simd::GemmRows(a.data(), b.data(), c.data(), 0, m, k, n);
      simd::portable::GemmRows(a.data(), b.data(), c_ref.data(), 0, m, k, n);
      ExpectVectorParity(c, c_ref);

      // Gram matrix b * b^T: a (k x k) output with inner width n, so the
      // dot-form kernel sees every tail length too.
      std::vector<float> t(static_cast<std::size_t>(k * k), 0.0f);
      std::vector<float> t_ref = t;
      simd::GemmTransBRows(b.data(), b.data(), t.data(), 0, k, n, k);
      simd::portable::GemmTransBRows(b.data(), b.data(), t_ref.data(), 0, k,
                                     n, k);
      ExpectVectorParity(t, t_ref);
    }
  }
}

TEST(SimdContract, GemmRowsZeroSkipMasksNaN) {
  // a[0][0] == 0 against b rows holding NaN: the zero-skip contract says
  // the product contributes nothing (0 * NaN never evaluated), in every
  // backend. This is what AllFinite's documentation relies on.
  const std::int64_t k = 2, n = 11;
  std::vector<float> a = {0.0f, 2.0f};
  std::vector<float> b(static_cast<std::size_t>(k * n), 1.0f);
  for (std::int64_t j = 0; j < n; ++j) {
    b[static_cast<std::size_t>(j)] = std::numeric_limits<float>::quiet_NaN();
  }
  std::vector<float> c(static_cast<std::size_t>(n), 0.0f);
  simd::GemmRows(a.data(), b.data(), c.data(), 0, 1, k, n);
  for (std::int64_t j = 0; j < n; ++j) {
    EXPECT_EQ(c[static_cast<std::size_t>(j)], 2.0f) << "col " << j;
  }
}

TEST(SimdContract, SpmmRowsIsBitIdenticalToAxpyPerEdge) {
  // The serving bit-identity contract: the blocked SpmmRows kernel must
  // produce exactly what one Axpy call per edge produces, in every
  // backend and for every tail shape — GcnEncoder::EncodeRows replays
  // subsets with Axpy and must match the full-graph Spmm bit for bit.
  Rng rng(7);
  for (std::int64_t n : kLengths) {
    const std::int64_t rows = 5, cols = 6;
    std::vector<std::tuple<std::int64_t, std::int64_t, float>> coo;
    for (std::int64_t r = 0; r < rows; ++r) {
      for (std::int64_t c = 0; c < cols; ++c) {
        if (rng.Uniform(0.0f, 1.0f) < 0.6f) {
          coo.emplace_back(r, c, rng.Uniform(-1.0f, 1.0f));
        }
      }
    }
    const CsrMatrix csr = CsrMatrix::FromCoo(rows, cols, coo);
    const std::vector<float> dense = RandomVec(cols * n, rng);
    std::vector<float> via_kernel(static_cast<std::size_t>(rows * n), 0.0f);
    simd::SpmmRows(csr.row_ptr().data(), csr.col_idx().data(),
                   csr.values().data(), dense.data(), via_kernel.data(), 0,
                   rows, n);
    std::vector<float> via_axpy(static_cast<std::size_t>(rows * n), 0.0f);
    for (std::int64_t r = 0; r < rows; ++r) {
      for (std::int64_t e = csr.row_ptr()[r]; e < csr.row_ptr()[r + 1]; ++e) {
        simd::Axpy(via_axpy.data() + r * n, csr.values()[e],
                   dense.data() + static_cast<std::int64_t>(
                                      csr.col_idx()[e]) * n,
                   n);
      }
    }
    EXPECT_EQ(via_kernel, via_axpy) << "n=" << n;
  }
}

// The transposed GEMMs carry the weight and input gradients of every
// MatMul; their contracts are per element and hold bit for bit in every
// backend. Shapes: odd m on both sides of the 8-row block, shared and
// output widths that are not multiples of 8 or 32.
constexpr std::int64_t kOddRows[] = {1, 7, 9, 13};
constexpr std::int64_t kInnerWidths[] = {1, 5, 9, 37};
constexpr std::int64_t kOutWidths[] = {1, 7, 9, 33, 41, 70};

/// The pre-kernel weight-gradient loop: one Axpy per nonzero (p, i) over
/// rows [rb, re) of C and shared rows [pb, pe), p ascending.
void TransAAxpyLoop(const std::vector<float>& a, const std::vector<float>& b,
                    std::vector<float>& c, std::int64_t rb, std::int64_t re,
                    std::int64_t pb, std::int64_t pe, std::int64_t m,
                    std::int64_t n) {
  for (std::int64_t p = pb; p < pe; ++p) {
    for (std::int64_t i = rb; i < re; ++i) {
      const float av = a[static_cast<std::size_t>(p * m + i)];
      if (av == 0.0f) continue;
      simd::Axpy(c.data() + i * n, av, b.data() + p * n, n);
    }
  }
}

TEST(SimdContract, GemmTransARowsMatchesAxpyLoopAndMasksNaN) {
  Rng rng(10);
  for (std::int64_t m : kOddRows) {
    for (std::int64_t k : kInnerWidths) {
      for (std::int64_t n : kOutWidths) {
        std::vector<float> a = RandomVec(k * m, rng);
        std::vector<float> b = RandomVec(k * n, rng);
        // A third of A is zero; shared row 0 of A is all zero and its B
        // row is NaN, which the zero skip must keep out of C.
        for (float& x : a) {
          if (rng.Uniform() < 0.33f) x = 0.0f;
        }
        for (std::int64_t i = 0; i < m; ++i) a[static_cast<std::size_t>(i)] = 0;
        for (std::int64_t j = 0; j < n; ++j) {
          b[static_cast<std::size_t>(j)] =
              std::numeric_limits<float>::quiet_NaN();
        }
        // Accumulates into a non-zero C, over the full and a partial
        // range of rows and shared rows.
        const std::vector<float> c0 = RandomVec(m * n, rng);
        for (const auto& [rb, re, pb, pe] :
             {std::tuple{std::int64_t{0}, m, std::int64_t{0}, k},
              std::tuple{m / 3, m - m / 4, k / 2, k}}) {
          std::vector<float> got = c0;
          std::vector<float> want = c0;
          simd::GemmTransARows(a.data(), b.data(), got.data(), rb, re, pb, pe,
                               m, n);
          TransAAxpyLoop(a, b, want, rb, re, pb, pe, m, n);
          EXPECT_EQ(got, want) << "m=" << m << " k=" << k << " n=" << n
                               << " rows [" << rb << "," << re << ")";
        }
      }
    }
  }
}

TEST(SimdContract, GemmTransBRowsMatchesPerElementDot) {
  Rng rng(11);
  for (std::int64_t m : {1L, 3L, 5L}) {
    for (std::int64_t k : {1L, 7L, 8L, 9L, 33L, 41L, 64L, 100L}) {
      for (std::int64_t n : kOutWidths) {
        const std::vector<float> a = RandomVec(m * k, rng);
        const std::vector<float> b = RandomVec(n * k, rng);
        std::vector<float> got(static_cast<std::size_t>(m * n), -1.0f);
        simd::GemmTransBRows(a.data(), b.data(), got.data(), 0, m, k, n);
        std::vector<float> want(got.size());
        for (std::int64_t i = 0; i < m; ++i) {
          for (std::int64_t j = 0; j < n; ++j) {
            want[static_cast<std::size_t>(i * n + j)] =
                simd::Dot(a.data() + i * k, b.data() + j * k, k);
          }
        }
        EXPECT_EQ(got, want) << "m=" << m << " k=" << k << " n=" << n;
      }
    }
  }
}

TEST(SimdThreads, TransposedMatMulsMatchTheirReferencesAtAnyThreadCount) {
  // MatMulTransposedA cuts the shared dimension into chunks of
  // max(512, GrainForCost(m * n), ceil(k / 64)) rows, sums each from zero
  // and adds the partials in chunk order; k = 300 is one chunk, 1100 three.
  Rng rng(12);
  for (std::int64_t k : {300L, 1100L}) {
    for (std::int64_t n : {7L, 33L}) {
      const std::int64_t m = 13;
      Matrix a = Matrix::RandomUniform(k, m, -1.0f, 1.0f, rng);
      for (std::int64_t i = 0; i < a.size(); ++i) {
        if (rng.Uniform() < 0.25f) a.data()[i] = 0.0f;
      }
      const Matrix b = Matrix::RandomUniform(k, n, -1.0f, 1.0f, rng);
      const std::int64_t grain =
          std::max({std::int64_t{512}, GrainForCost(m * n), (k + 63) / 64});
      Matrix want_ta(m, n);
      std::vector<float> part;
      for (std::int64_t pb = 0; pb < k; pb += grain) {
        part.assign(static_cast<std::size_t>(m * n), 0.0f);
        TransAAxpyLoop(std::vector<float>(a.data(), a.data() + a.size()),
                       std::vector<float>(b.data(), b.data() + b.size()), part,
                       0, m, pb, std::min(k, pb + grain), m, n);
        if (grain >= k) {
          std::copy(part.begin(), part.end(), want_ta.data());
        } else {
          simd::Axpy(want_ta.data(), 1.0f, part.data(), m * n);
        }
      }
      // A * bt^T: k x n outputs, each a Dot of width m = 13.
      const Matrix bt = Matrix::RandomUniform(n, m, -1.0f, 1.0f, rng);
      Matrix want_tb(k, n);
      for (std::int64_t i = 0; i < k; ++i) {
        for (std::int64_t j = 0; j < n; ++j) {
          want_tb(i, j) = simd::Dot(a.RowPtr(i), bt.RowPtr(j), m);
        }
      }
      for (int threads : kThreadCounts) {
        SetNumThreads(threads);
        EXPECT_TRUE(MatMulTransposedA(a, b) == want_ta)
            << "threads=" << threads << " k=" << k << " n=" << n;
        EXPECT_TRUE(MatMulTransposedB(a, bt) == want_tb)
            << "threads=" << threads << " k=" << k << " n=" << n;
      }
      SetNumThreads(1);
    }
  }
}

TEST(SimdContract, DotI8IsExactAcrossBackends) {
  Rng rng(8);
  for (std::int64_t n : kLengths) {
    std::vector<std::int8_t> a(static_cast<std::size_t>(n));
    std::vector<std::int8_t> b(static_cast<std::size_t>(n));
    for (std::int64_t i = 0; i < n; ++i) {
      a[static_cast<std::size_t>(i)] =
          static_cast<std::int8_t>(rng.UniformInt(255) - 127);
      b[static_cast<std::size_t>(i)] =
          static_cast<std::int8_t>(rng.UniformInt(255) - 127);
    }
    EXPECT_EQ(simd::DotI8(a.data(), b.data(), n),
              simd::portable::DotI8(a.data(), b.data(), n))
        << "n=" << n;
  }
  // Extremes: +/-127 codes at a length that exercises vector + tail.
  std::vector<std::int8_t> lo(33, std::int8_t{-127});
  std::vector<std::int8_t> hi(33, std::int8_t{127});
  EXPECT_EQ(simd::DotI8(lo.data(), hi.data(), 33), -127 * 127 * 33);
}

TEST(SimdContract, QuantizeRowI8RoundTripsAndClampsSymmetrically) {
  const std::vector<float> row = {-1.0f, -0.5f, 0.0f, 0.25f, 1.0f};
  std::vector<std::int8_t> codes(row.size());
  const float scale = simd::QuantizeRowI8(
      codes.data(), row.data(), static_cast<std::int64_t>(row.size()));
  EXPECT_FLOAT_EQ(scale, 1.0f / 127.0f);
  EXPECT_EQ(codes[0], -127);  // maxabs maps to the symmetric extreme
  EXPECT_EQ(codes[2], 0);
  EXPECT_EQ(codes[4], 127);
  // All-zero rows quantize to scale 0 / all-zero codes (no 0/0).
  const std::vector<float> zeros(9, 0.0f);
  std::vector<std::int8_t> zcodes(zeros.size(), std::int8_t{5});
  EXPECT_EQ(simd::QuantizeRowI8(zcodes.data(), zeros.data(), 9), 0.0f);
  for (std::int8_t c : zcodes) EXPECT_EQ(c, 0);
}

TEST(SimdThreads, RoutedMatrixKernelsAreThreadCountInvariant) {
  // The Matrix/Csr entry points that now route through the kernel layer
  // must stay bit-identical at any thread count (DESIGN.md "Threading
  // model") — including at awkward widths.
  Rng rng(9);
  for (std::int64_t n : {7L, 33L, 48L}) {
    const Matrix a = Matrix::RandomUniform(65, 19, -1.0f, 1.0f, rng);
    const Matrix b = Matrix::RandomUniform(19, n, -1.0f, 1.0f, rng);
    std::vector<std::tuple<std::int64_t, std::int64_t, float>> coo;
    for (std::int64_t r = 0; r < 40; ++r) {
      for (std::int64_t c = 0; c < 65; ++c) {
        if (rng.Uniform(0.0f, 1.0f) < 0.15f) {
          coo.emplace_back(r, c, rng.Uniform(-1.0f, 1.0f));
        }
      }
    }
    const CsrMatrix adj = CsrMatrix::FromCoo(40, 65, coo);

    SetNumThreads(1);
    const Matrix mm = MatMul(a, b);
    const Matrix mtb = MatMulTransposedB(a, a);
    const Matrix sp = Spmm(adj, Add(a, a));
    const Matrix nrm = NormalizeRowsL2(mm);
    const float fro = FrobeniusNorm(mm);
    for (int threads : kThreadCounts) {
      SetNumThreads(threads);
      EXPECT_TRUE(MatMul(a, b) == mm) << "threads=" << threads << " n=" << n;
      EXPECT_TRUE(MatMulTransposedB(a, a) == mtb)
          << "threads=" << threads << " n=" << n;
      EXPECT_TRUE(Spmm(adj, Add(a, a)) == sp)
          << "threads=" << threads << " n=" << n;
      EXPECT_TRUE(NormalizeRowsL2(mm) == nrm)
          << "threads=" << threads << " n=" << n;
      EXPECT_EQ(FrobeniusNorm(mm), fro) << "threads=" << threads;
    }
    SetNumThreads(1);
  }
}

TEST(SimdBackend, NameIsOneOfTheBuildOptions) {
  const std::string name = simd::BackendName();
  EXPECT_TRUE(name == "avx2" || name == "portable") << name;
}

}  // namespace
}  // namespace e2gcl
