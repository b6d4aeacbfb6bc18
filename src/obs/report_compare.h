#ifndef E2GCL_OBS_REPORT_COMPARE_H_
#define E2GCL_OBS_REPORT_COMPARE_H_

#include <string>
#include <vector>

namespace e2gcl {

/// Options for comparing two sets of telemetry runs (run reports or
/// BENCH_*.json micro-benchmark dumps).
struct CompareOptions {
  /// The bound is `threshold - 1` (default: 25% slower); see Verdict.
  double threshold = 1.25;
  /// For run reports: also require the run-level counter maps of each
  /// pair to be identical (the determinism contract). Counter mismatches
  /// are reported as regressions.
  bool require_equal_counters = false;
};

/// The one rule every record is judged by, with b = threshold - 1 and
/// spread = (Q3 - Q1) / median per side. REGRESSED: the candidate median
/// exceeds baseline median * threshold, and both spreads are <= b or
/// every candidate run is slower than every baseline run. Better: the
/// candidate wins >= 9/10 of the pairs and the medians differ by more
/// than the baseline's Q3 - Q1. Unresolved: a spread exceeds b and
/// neither holds. Ok: everything else. One run per side has zero
/// spread, so it regresses iff candidate > baseline * threshold.
enum class Verdict { kOk, kBetter, kUnresolved, kRegressed };

const char* VerdictName(Verdict verdict);

/// Median and quartiles of one side's runs, as Python's
/// `statistics.median` and `statistics.quantiles(n=4)` (the default
/// "exclusive" method) compute them; one run is its own quartiles.
struct SampleStats {
  double median = 0.0;
  double q1 = 0.0;
  double q3 = 0.0;
  double Spread() const;  // (q3 - q1) / median
};

SampleStats Summarize(std::vector<double> values);

/// One judged record.
struct CompareRow {
  std::string key;  // "name#t<threads>", or a run-report timing label
  SampleStats baseline;
  SampleStats candidate;
  int wins = 0;   // pairs (run i of each side) the candidate was faster in
  int pairs = 0;  // min(baseline runs, candidate runs)
  Verdict verdict = Verdict::kOk;
};

/// `error` is non-empty for usage-level failures (missing, corrupt or
/// mismatched files, no record in common); `regressions` lists REGRESSED
/// rows and counter mismatches; `notes` the records on one side only and
/// the better and unresolved rows.
struct CompareResult {
  bool ok = false;  // true iff no error and no regressions
  std::vector<CompareRow> rows;
  std::vector<std::string> regressions;
  std::vector<std::string> notes;
  std::string error;
};

/// Compares the baseline runs at `baseline_path` with the candidate runs
/// at `candidate_path`. Each path is one run file or a directory whose
/// `*.json` files, in name order, are one run each; run i of one side
/// pairs with run i of the other. Every file must have the same format
/// (run_report.json object or BENCH array, auto-detected).
CompareResult CompareReportFiles(const std::string& baseline_path,
                                 const std::string& candidate_path,
                                 const CompareOptions& options);

/// Process exit code for a result: 0 ok, 1 regression(s), 2 error.
int CompareExitCode(const CompareResult& result);

}  // namespace e2gcl

#endif  // E2GCL_OBS_REPORT_COMPARE_H_
