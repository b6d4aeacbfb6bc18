#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "eval/io.h"
#include "eval/projection.h"
#include "test_util.h"

namespace e2gcl {
namespace {

// --- IO. -----------------------------------------------------------------------

TEST(MatrixCsv, RoundTrip) {
  Rng rng(4);
  Matrix m = Matrix::RandomNormal(7, 5, 0, 2, rng);
  const std::string path = ::testing::TempDir() + "/e2gcl_matrix.csv";
  ASSERT_TRUE(SaveMatrixCsv(m, path));
  // One line per row, one comma-separated float per column.
  std::ifstream in(path);
  std::string line;
  std::int64_t r = 0;
  for (; std::getline(in, line); ++r) {
    ASSERT_LT(r, m.rows());
    const char* cell = line.c_str();
    for (std::int64_t c = 0; c < m.cols(); ++c) {
      char* end = nullptr;
      const float value = std::strtof(cell, &end);
      ASSERT_NE(end, cell) << "row " << r << " col " << c;
      EXPECT_NEAR(value, m(r, c), 1e-4f) << "row " << r << " col " << c;
      ASSERT_EQ(*end, c + 1 < m.cols() ? ',' : '\0');
      cell = end + 1;
    }
  }
  EXPECT_EQ(r, m.rows());
  std::remove(path.c_str());
}

// --- Projection. -----------------------------------------------------------------

TEST(PcaProject, SeparatesWellSeparatedClusters) {
  // Two tight clusters along one axis: the first principal component
  // must separate them linearly.
  Rng rng(5);
  Matrix pts(60, 6);
  for (std::int64_t i = 0; i < 60; ++i) {
    const float center = i < 30 ? -5.0f : 5.0f;
    pts(i, 0) = center + rng.Normal(0, 0.3f);
    for (std::int64_t c = 1; c < 6; ++c) pts(i, c) = rng.Normal(0, 0.3f);
  }
  Matrix proj = PcaProject(pts, 2, rng);
  // Signs within each cluster must agree on component 0.
  int agree = 0;
  for (std::int64_t i = 0; i < 30; ++i) {
    for (std::int64_t j = 30; j < 60; ++j) {
      if ((proj(i, 0) < 0) != (proj(j, 0) < 0)) ++agree;
    }
  }
  EXPECT_EQ(agree, 900);
}

TEST(PcaProject, OutputShape) {
  Rng rng(6);
  Matrix pts = Matrix::RandomNormal(20, 10, 0, 1, rng);
  Matrix proj = PcaProject(pts, 3, rng);
  EXPECT_EQ(proj.rows(), 20);
  EXPECT_EQ(proj.cols(), 3);
  EXPECT_TRUE(AllFinite(proj));
}

TEST(AsciiScatter, MarksLandInCanvas) {
  Matrix pts = Matrix::FromRows({{0, 0}, {1, 1}, {0.5f, 0.5f}});
  std::string art = AsciiScatter(pts, {'a', 'b', 'c'}, 11, 5);
  EXPECT_NE(art.find('a'), std::string::npos);
  EXPECT_NE(art.find('b'), std::string::npos);
  EXPECT_NE(art.find('c'), std::string::npos);
  // 5 lines of 11 chars + newlines.
  EXPECT_EQ(art.size(), 5u * 12u);
}

}  // namespace
}  // namespace e2gcl
