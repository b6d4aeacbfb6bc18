// Tests for the bench_compare regression gate (obs/report_compare):
// equal telemetry passes with exit code 0, timings past the threshold
// regress with exit code 1, and missing/corrupt/mismatched files report
// a clear error with exit code 2. Covers both supported formats —
// run_report.json objects and BENCH_*.json micro-benchmark arrays — and
// the rule on run sets (directories of runs, paired run by run).

#include <gtest/gtest.h>
#include <unistd.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "obs/report_compare.h"
#include "obs/run_report.h"
#include "tensor/rng.h"

namespace e2gcl {
namespace {

namespace fs = std::filesystem;

class BenchCompareTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (fs::temp_directory_path() /
            ("e2gcl_bench_compare_test_" + std::to_string(::getpid())))
               .string();
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string WriteFile(const std::string& name, const std::string& text) {
    const std::string path = dir_ + "/" + name;
    std::ofstream out(path);
    out << text;
    return path;
  }

  /// Writes a run report whose timings are `scale`× the base values.
  std::string WriteReport(const std::string& name, double scale,
                          std::uint64_t counter_value = 100) {
    RunReport r;
    r.config_fingerprint = "0123456789abcdef";
    r.seed = 1;
    r.threads = 4;
    r.status = "ok";
    r.selection_seconds = 0.5 * scale;
    r.total_seconds = 10.0 * scale;
    for (int i = 0; i < 3; ++i) {
      RunReport::Epoch e;
      e.epoch = i;
      e.loss = 0.5;
      e.view_seconds = 0.1 * scale;
      e.loss_seconds = 0.2 * scale;
      e.step_seconds = 0.3 * scale;
      e.checkpoint_seconds = 0.05 * scale;
      e.counters = {{"matmul.calls", counter_value}};
      r.epochs.push_back(e);
    }
    r.metrics.counters = {{"matmul.calls", counter_value}};
    const std::string path = dir_ + "/" + name;
    EXPECT_TRUE(SaveRunReport(path, r));
    return path;
  }

  std::string WriteBench(const std::string& name, double ns_a, double ns_b) {
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "[\n"
        "  {\"kernel\": \"matmul\", \"name\": \"matmul_256\", \"size\": 256,"
        " \"threads\": 4, \"ns_per_iter\": %.17g},\n"
        "  {\"kernel\": \"spmm\", \"name\": \"spmm_1k\", \"size\": 1000,"
        " \"threads\": 4, \"ns_per_iter\": %.17g}\n"
        "]\n",
        ns_a, ns_b);
    return WriteFile(name, buf);
  }

  /// Writes a run set: directory `name` with one bench file per run,
  /// where run r holds record "rec_<i>" (threads 1) at values[i][r].
  std::string WriteRunSet(const std::string& name,
                          const std::vector<std::vector<double>>& values) {
    const std::string set = dir_ + "/" + name;
    fs::create_directories(set);
    for (std::size_t r = 0; r < values.front().size(); ++r) {
      std::string text = "[\n";
      for (std::size_t i = 0; i < values.size(); ++i) {
        char buf[128];
        std::snprintf(buf, sizeof(buf),
                      "  {\"name\": \"rec_%03zu\", \"threads\": 1,"
                      " \"ns_per_iter\": %.17g}%s\n",
                      i, values[i][r], i + 1 < values.size() ? "," : "");
        text += buf;
      }
      char file[32];
      std::snprintf(file, sizeof(file), "/run-%02zu.json", r + 1);
      std::ofstream(set + file) << text << "]\n";
    }
    return set;
  }

  /// Compares one-record run sets at bound 0.25 and returns the row.
  CompareRow JudgeOne(const std::vector<double>& parent,
                      const std::vector<double>& change) {
    const CompareResult r = CompareReportFiles(
        WriteRunSet("parent", {parent}), WriteRunSet("change", {change}),
        CompareOptions());
    fs::remove_all(dir_ + "/parent");
    fs::remove_all(dir_ + "/change");
    EXPECT_TRUE(r.error.empty()) << r.error;
    EXPECT_EQ(r.rows.size(), 1u);
    return r.rows.empty() ? CompareRow() : r.rows.front();
  }

  std::string dir_;
};

// ---------------------------------------------------------------------------
// Run-report comparisons.
// ---------------------------------------------------------------------------

TEST_F(BenchCompareTest, IdenticalReportsPassWithExitZero) {
  const std::string base = WriteReport("base.json", 1.0);
  const std::string cand = WriteReport("cand.json", 1.0);
  const CompareResult r = CompareReportFiles(base, cand, CompareOptions());
  EXPECT_TRUE(r.ok);
  EXPECT_TRUE(r.error.empty());
  EXPECT_TRUE(r.regressions.empty());
  EXPECT_EQ(CompareExitCode(r), 0);
}

TEST_F(BenchCompareTest, TwoTimesSlowdownIsFlagged) {
  const std::string base = WriteReport("base.json", 1.0);
  const std::string cand = WriteReport("cand.json", 2.0);
  const CompareResult r = CompareReportFiles(base, cand, CompareOptions());
  EXPECT_FALSE(r.ok);
  EXPECT_TRUE(r.error.empty());
  // Every timed dimension regressed: total, selection, and the four
  // per-epoch stage sums.
  EXPECT_EQ(r.regressions.size(), 6u);
  EXPECT_EQ(CompareExitCode(r), 1);
}

TEST_F(BenchCompareTest, ThresholdIsConfigurable) {
  const std::string base = WriteReport("base.json", 1.0);
  const std::string cand = WriteReport("cand.json", 2.0);
  CompareOptions lenient;
  lenient.threshold = 3.0;  // 2x slower is tolerated
  const CompareResult r = CompareReportFiles(base, cand, lenient);
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(CompareExitCode(r), 0);
}

TEST_F(BenchCompareTest, ImprovementIsANoteNotARegression) {
  const std::string base = WriteReport("base.json", 2.0);
  const std::string cand = WriteReport("cand.json", 1.0);
  const CompareResult r = CompareReportFiles(base, cand, CompareOptions());
  EXPECT_TRUE(r.ok);
  EXPECT_TRUE(r.regressions.empty());
  EXPECT_FALSE(r.notes.empty());
}

TEST_F(BenchCompareTest, CounterMismatchRegressesOnlyWhenRequired) {
  const std::string base = WriteReport("base.json", 1.0, 100);
  const std::string cand = WriteReport("cand.json", 1.0, 101);
  EXPECT_TRUE(CompareReportFiles(base, cand, CompareOptions()).ok);

  CompareOptions strict;
  strict.require_equal_counters = true;
  const CompareResult r = CompareReportFiles(base, cand, strict);
  EXPECT_FALSE(r.ok);
  ASSERT_EQ(r.regressions.size(), 1u);
  EXPECT_NE(r.regressions[0].find("matmul.calls"), std::string::npos);
  EXPECT_EQ(CompareExitCode(r), 1);
}

// ---------------------------------------------------------------------------
// BENCH_*.json array comparisons.
// ---------------------------------------------------------------------------

TEST_F(BenchCompareTest, EqualBenchArraysPass) {
  const std::string base = WriteBench("base.json", 1000.0, 2000.0);
  const std::string cand = WriteBench("cand.json", 1000.0, 2000.0);
  const CompareResult r = CompareReportFiles(base, cand, CompareOptions());
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(CompareExitCode(r), 0);
}

TEST_F(BenchCompareTest, SlowerBenchKernelIsFlagged) {
  const std::string base = WriteBench("base.json", 1000.0, 2000.0);
  const std::string cand = WriteBench("cand.json", 2000.0, 2000.0);
  const CompareResult r = CompareReportFiles(base, cand, CompareOptions());
  EXPECT_FALSE(r.ok);
  ASSERT_EQ(r.regressions.size(), 1u);
  EXPECT_NE(r.regressions[0].find("matmul_256"), std::string::npos);
  EXPECT_EQ(CompareExitCode(r), 1);
}

TEST_F(BenchCompareTest, MissingBenchRecordIsANote) {
  const std::string base = WriteBench("base.json", 1000.0, 2000.0);
  const std::string cand = WriteFile(
      "cand.json",
      "[{\"kernel\": \"matmul\", \"name\": \"matmul_256\", \"size\": 256,"
      " \"threads\": 4, \"ns_per_iter\": 1000.0}]");
  const CompareResult r = CompareReportFiles(base, cand, CompareOptions());
  EXPECT_TRUE(r.ok);  // absence is informational, not a regression
  ASSERT_EQ(r.notes.size(), 1u);
  EXPECT_NE(r.notes[0].find("spmm_1k"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Error handling: missing, corrupt, and mismatched inputs.
// ---------------------------------------------------------------------------

TEST_F(BenchCompareTest, MissingFileIsAnError) {
  const std::string base = WriteReport("base.json", 1.0);
  const CompareResult r = CompareReportFiles(base, dir_ + "/nope.json",
                                             CompareOptions());
  EXPECT_FALSE(r.ok);
  EXPECT_FALSE(r.error.empty());
  EXPECT_EQ(CompareExitCode(r), 2);
}

TEST_F(BenchCompareTest, CorruptJsonIsAnError) {
  const std::string base = WriteReport("base.json", 1.0);
  const std::string corrupt = WriteFile("corrupt.json", "{\"schema\": ");
  const CompareResult r =
      CompareReportFiles(base, corrupt, CompareOptions());
  EXPECT_FALSE(r.ok);
  EXPECT_FALSE(r.error.empty());
  EXPECT_EQ(CompareExitCode(r), 2);
}

TEST_F(BenchCompareTest, MismatchedFormatsAreAnError) {
  const std::string report = WriteReport("report.json", 1.0);
  const std::string bench = WriteBench("bench.json", 1000.0, 2000.0);
  const CompareResult r =
      CompareReportFiles(report, bench, CompareOptions());
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("formats differ"), std::string::npos);
  EXPECT_EQ(CompareExitCode(r), 2);
}

TEST_F(BenchCompareTest, UnrecognizedJsonShapeIsAnError) {
  const std::string a = WriteFile("a.json", "{\"what\": 1}");
  const std::string b = WriteFile("b.json", "{\"what\": 1}");
  const CompareResult r = CompareReportFiles(a, b, CompareOptions());
  EXPECT_FALSE(r.ok);
  EXPECT_FALSE(r.error.empty());
  EXPECT_EQ(CompareExitCode(r), 2);
}

TEST_F(BenchCompareTest, NonPositiveThresholdIsAnError) {
  const std::string base = WriteReport("base.json", 1.0);
  CompareOptions bad;
  bad.threshold = 0.0;
  const CompareResult r = CompareReportFiles(base, base, bad);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("threshold"), std::string::npos);
  EXPECT_EQ(CompareExitCode(r), 2);
}

// ---------------------------------------------------------------------------
// The rule on run sets: 10 runs a side, run i of each side a pair.
// ---------------------------------------------------------------------------

/// `trials` records of 10 runs, each run drawn by `draw`.
std::vector<std::vector<double>> Draw(int trials,
                                      const std::function<double()>& draw) {
  std::vector<std::vector<double>> values(trials, std::vector<double>(10));
  for (auto& runs : values) {
    for (double& v : runs) v = draw();
  }
  return values;
}

TEST_F(BenchCompareTest, TwoDrawsOfOneSetNeverRegress) {
  // Host-like noise shapes: tight jitter, rare and frequent slow
  // outliers (a descheduled thread), and a wide log-normal spread.
  Rng rng(7);
  const std::vector<std::function<double()>> shapes = {
      [&rng] { return 1000.0 * rng.Uniform(0.95f, 1.05f); },
      [&rng] {
        return 1000.0 * (rng.Bernoulli(0.1f) ? rng.Uniform(2.0f, 6.0f)
                                             : rng.Uniform(0.97f, 1.03f));
      },
      [&rng] {
        return 1000.0 * (rng.Bernoulli(0.3f) ? rng.Uniform(1.5f, 5.0f)
                                             : rng.Uniform(0.97f, 1.03f));
      },
      [&rng] { return 1000.0 * std::exp(0.6 * rng.Normal()); },
  };
  for (std::size_t i = 0; i < shapes.size(); ++i) {
    const std::string shape = std::to_string(i);
    SCOPED_TRACE(shape + ": noise shape");
    const std::string parent =
        WriteRunSet(shape + "_parent", Draw(200, shapes[i]));
    const std::string change =
        WriteRunSet(shape + "_change", Draw(200, shapes[i]));
    const CompareResult r =
        CompareReportFiles(parent, change, CompareOptions());
    ASSERT_TRUE(r.error.empty()) << r.error;
    ASSERT_EQ(r.rows.size(), 200u);
    EXPECT_TRUE(r.regressions.empty()) << r.regressions.front();
    EXPECT_EQ(CompareExitCode(r), 0);
    for (const CompareRow& row : r.rows) EXPECT_EQ(row.pairs, 10);
  }
}

TEST_F(BenchCompareTest, ShiftedSetRegressesAtBoundQuarter) {
  Rng rng(11);
  const std::vector<std::vector<double>> parent =
      Draw(50, [&rng] { return 1000.0 * rng.Uniform(0.95f, 1.05f); });
  std::vector<std::vector<double>> change = parent;
  for (auto& runs : change) {
    for (double& v : runs) v *= 1.3;
  }
  const CompareResult r = CompareReportFiles(
      WriteRunSet("parent", parent), WriteRunSet("change", change),
      CompareOptions());
  ASSERT_TRUE(r.error.empty()) << r.error;
  ASSERT_EQ(r.rows.size(), 50u);
  for (const CompareRow& row : r.rows) {
    EXPECT_EQ(row.verdict, Verdict::kRegressed) << row.key;
  }
  EXPECT_EQ(r.regressions.size(), 50u);
  EXPECT_EQ(CompareExitCode(r), 1);
}

TEST_F(BenchCompareTest, WideSpreadIsUnresolvedUnlessEveryRunIsSlower) {
  const std::vector<double> parent = {100, 100, 100, 150, 200,
                                      100, 250, 100, 300, 100};
  std::vector<double> slower = parent;
  for (double& v : slower) v *= 1.3;  // same noise, 1.3x: overlaps parent
  const CompareRow wide = JudgeOne(parent, slower);
  EXPECT_GT(wide.baseline.Spread(), 0.25);
  EXPECT_GT(wide.candidate.median, 1.25 * wide.baseline.median);
  EXPECT_EQ(wide.verdict, Verdict::kUnresolved);

  std::vector<double> dominated = parent;
  for (double& v : dominated) v += 300.0;  // every run past the slowest
  EXPECT_EQ(JudgeOne(parent, dominated).verdict, Verdict::kRegressed);
}

TEST_F(BenchCompareTest, NineOfTenPairWinsPastTheQuartileDistanceIsBetter) {
  const std::vector<double> parent = {100, 102, 98, 101, 99,
                                      100, 103, 97, 100, 101};
  std::vector<double> faster = parent;
  for (double& v : faster) v *= 0.8;
  faster[4] = 120;  // one pair lost
  const CompareRow better = JudgeOne(parent, faster);
  EXPECT_EQ(better.wins, 9);
  EXPECT_EQ(better.verdict, Verdict::kBetter);

  faster[6] = 120;  // 8 of 10 is not enough
  EXPECT_EQ(JudgeOne(parent, faster).verdict, Verdict::kOk);

  // 10 of 10 wins, but by less than the parent's quartile distance (2.5).
  std::vector<double> barely = parent;
  for (double& v : barely) v -= 1.0;
  const CompareRow small = JudgeOne(parent, barely);
  EXPECT_EQ(small.wins, 10);
  EXPECT_EQ(small.verdict, Verdict::kOk);
}

TEST_F(BenchCompareTest, QuartilesMatchPythonStatistics) {
  // statistics.median and statistics.quantiles(values, n=4), Python 3;
  // equal to within 4 ulps, since the build may fuse a multiply-add.
  const struct {
    std::vector<double> values;
    double median, q1, q3;
  } kCases[] = {
      {{3.0, 1.0}, 2.0, 0.5, 3.5},
      {{5.0, 1.0, 3.0}, 3.0, 1.0, 5.0},
      {{4.0, 1.0, 3.0, 2.0}, 2.5, 1.25, 3.75},
      {{2.5, 9.0, 1.0, 7.0, 4.0}, 4.0, 1.75, 8.0},
      {{100, 102, 98, 101, 99, 100, 103, 97, 100, 101}, 100.0, 98.75, 101.25},
      {{1.5, 0.25, 8.0, 3.0, 2.0, 5.5, 0.75, 13.0, 1.0, 2.5, 4.0},
       2.5, 1.0, 5.5},
      {{0.1, 0.7, 0.3, 1.9, 2.3, 0.2, 1.1}, 0.7, 0.2, 1.9},
      {{0.1, 0.7, 0.3, 1.9, 2.3, 0.2, 1.1, 0.9},
       0.8, 0.22500000000000003, 1.6999999999999997},
  };
  for (const auto& c : kCases) {
    const SampleStats s = Summarize(c.values);
    EXPECT_DOUBLE_EQ(s.median, c.median);
    EXPECT_DOUBLE_EQ(s.q1, c.q1);
    EXPECT_DOUBLE_EQ(s.q3, c.q3);
  }
  const SampleStats one = Summarize({42.0});
  EXPECT_EQ(one.median, 42.0);
  EXPECT_EQ(one.Spread(), 0.0);
}

TEST_F(BenchCompareTest, NoPairedRecordIsAnError) {
  const std::string base = WriteBench("base.json", 1000.0, 2000.0);
  const std::string other = WriteFile(
      "other.json",
      "[{\"name\": \"gemm_512\", \"threads\": 4, \"ns_per_iter\": 5.0}]");
  const CompareResult r = CompareReportFiles(base, other, CompareOptions());
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("no record pairs up"), std::string::npos);
  EXPECT_EQ(CompareExitCode(r), 2);

  const std::string empty = WriteFile("empty.json", "[]");
  EXPECT_EQ(CompareExitCode(CompareReportFiles(empty, empty, CompareOptions())),
            2);
  fs::create_directories(dir_ + "/no_runs");
  EXPECT_EQ(CompareExitCode(CompareReportFiles(dir_ + "/no_runs", base,
                                               CompareOptions())),
            2);
}

}  // namespace
}  // namespace e2gcl
