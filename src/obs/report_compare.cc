#include "obs/report_compare.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <map>
#include <system_error>

#include "io/json.h"
#include "obs/run_report.h"

namespace e2gcl {

namespace {

namespace fs = std::filesystem;

/// Timings below this are clock noise; never judge them.
constexpr double kMinComparableSeconds = 1e-6;
constexpr double kMinComparableNs = 1.0;

enum class Format { kRunReport, kBench, kOther };

/// One side: per record key, one timing per run in run order.
struct RunSet {
  Format format = Format::kOther;
  std::map<std::string, std::vector<double>> timings;
  std::vector<std::map<std::string, std::uint64_t>> counters;
  std::string config_fingerprint;  // of the first run report
};

std::string FormatRatio(double baseline, double candidate) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g -> %.6g (%.2fx)", baseline, candidate,
                candidate / baseline);
  return buf;
}

double SumStage(const RunReport& report, double RunReport::Epoch::* field) {
  double total = 0.0;
  for (const RunReport::Epoch& e : report.epochs) total += e.*field;
  return total;
}

void AddReportRun(const RunReport& r, RunSet* side) {
  const std::pair<const char*, double> timings[] = {
      {"total_seconds", r.total_seconds},
      {"selection_seconds", r.selection_seconds},
      {"epoch view_seconds", SumStage(r, &RunReport::Epoch::view_seconds)},
      {"epoch loss_seconds", SumStage(r, &RunReport::Epoch::loss_seconds)},
      {"epoch step_seconds", SumStage(r, &RunReport::Epoch::step_seconds)},
      {"epoch checkpoint_seconds",
       SumStage(r, &RunReport::Epoch::checkpoint_seconds)},
  };
  for (const auto& [label, seconds] : timings) {
    side->timings[label].push_back(seconds);
  }
  if (side->counters.empty()) side->config_fingerprint = r.config_fingerprint;
  side->counters.emplace_back(r.metrics.counters.begin(),
                              r.metrics.counters.end());
}

bool AddBenchRun(const JsonValue& root, const std::string& path,
                 RunSet* side, std::string* error) {
  for (const JsonValue& item : root.items()) {
    const JsonValue* name = item.Find("name");
    const JsonValue* threads = item.Find("threads");
    const JsonValue* ns = item.Find("ns_per_iter");
    if (name == nullptr || !name->is_string() || threads == nullptr ||
        !threads->is_number() || ns == nullptr || !ns->is_number()) {
      *error = path + ": malformed bench record";
      return false;
    }
    // `name` already encodes the size sweep; threads disambiguates the
    // thread sweep runs that share a name.
    side->timings[name->AsString() + "#t" + std::to_string(threads->AsInt())]
        .push_back(ns->AsDouble());
  }
  return true;
}

bool IsRunReportJson(const JsonValue& v) {
  if (!v.is_object()) return false;
  const JsonValue* schema = v.Find("schema");
  return schema != nullptr && schema->is_string() &&
         schema->AsString() == "e2gcl.run_report";
}

/// Loads every run `path` names: the file, or a directory's `*.json`.
bool LoadSide(const std::string& path, RunSet* side, std::string* error) {
  std::vector<std::string> files;
  std::error_code ec;
  if (!fs::is_directory(path, ec)) files.push_back(path);
  for (const auto& entry : fs::directory_iterator(path, ec)) {
    if (entry.path().extension() == ".json") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  if (files.empty()) {
    *error = "'" + path + "' holds no readable *.json run";
    return false;
  }
  for (const std::string& file : files) {
    JsonValue doc;
    if (!LoadJsonFile(file, &doc, error)) return false;
    const Format format = IsRunReportJson(doc) ? Format::kRunReport
                          : doc.is_array()     ? Format::kBench
                                               : Format::kOther;
    if (file != files.front() && format != side->format) {
      *error = "file formats differ ('" + files.front() + "' vs '" + file +
               "')";
      return false;
    }
    side->format = format;
    if (format == Format::kRunReport) {
      RunReport report;
      if (!LoadRunReport(file, &report, error)) return false;
      AddReportRun(report, side);
    } else if (format == Format::kBench) {
      if (!AddBenchRun(doc, file, side, error)) return false;
    }
  }
  return true;
}

CompareRow Judge(const std::string& key, const std::vector<double>& base,
                 const std::vector<double>& cand, double threshold) {
  CompareRow row;
  row.key = key;
  row.baseline = Summarize(base);
  row.candidate = Summarize(cand);
  row.pairs = static_cast<int>(std::min(base.size(), cand.size()));
  for (int i = 0; i < row.pairs; ++i) row.wins += cand[i] < base[i] ? 1 : 0;
  const double bound = std::max(0.0, threshold - 1.0);
  const bool tight =
      row.baseline.Spread() <= bound && row.candidate.Spread() <= bound;
  // Every candidate run slower than every baseline run: 1 in C(20, 10)
  // by chance at 10 runs a side, so a wide spread cannot excuse it.
  const bool dominated = *std::min_element(cand.begin(), cand.end()) >
                         *std::max_element(base.begin(), base.end());
  const double gain = row.baseline.median - row.candidate.median;
  if (row.candidate.median > row.baseline.median * threshold &&
      (tight || dominated)) {
    row.verdict = Verdict::kRegressed;
  } else if (row.wins * 10 >= row.pairs * 9 &&
             gain > row.baseline.q3 - row.baseline.q1) {
    row.verdict = Verdict::kBetter;
  } else if (!tight) {
    row.verdict = Verdict::kUnresolved;
  }
  return row;
}

void CompareCounters(const std::map<std::string, std::uint64_t>& counters_a,
                     const std::map<std::string, std::uint64_t>& counters_b,
                     CompareResult* result) {
  for (const auto& [name, value] : counters_a) {
    const auto it = counters_b.find(name);
    if (it == counters_b.end()) {
      result->regressions.push_back("counter '" + name +
                                    "' missing from candidate");
    } else if (it->second != value) {
      result->regressions.push_back(
          "counter '" + name + "' differs: " + std::to_string(value) +
          " vs " + std::to_string(it->second));
    }
  }
  for (const auto& [name, value] : counters_b) {
    if (counters_a.find(name) == counters_a.end()) {
      result->regressions.push_back("counter '" + name +
                                    "' missing from baseline");
    }
  }
}

}  // namespace

const char* VerdictName(Verdict verdict) {
  constexpr const char* kNames[] = {"ok", "better", "unresolved",
                                    "REGRESSED"};
  return kNames[static_cast<int>(verdict)];
}

double SampleStats::Spread() const {
  return median > 0.0 ? (q3 - q1) / median : 0.0;
}

SampleStats Summarize(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  SampleStats s;
  if (n == 0) return s;
  s.median = n % 2 == 1 ? values[n / 2]
                        : (values[n / 2 - 1] + values[n / 2]) / 2.0;
  // statistics.quantiles' exclusive method: cut point i sits at
  // position i * (n + 1) / 4, clamped to the data and interpolated
  // linearly between its neighbours.
  const auto cut = [&values, n](std::int64_t i) {
    if (n == 1) return values[0];
    const std::int64_t m = static_cast<std::int64_t>(n) + 1;
    const std::int64_t j = std::clamp<std::int64_t>(
        i * m / 4, 1, static_cast<std::int64_t>(n) - 1);
    const std::int64_t delta = i * m - j * 4;
    return (values[j - 1] * static_cast<double>(4 - delta) +
            values[j] * static_cast<double>(delta)) / 4.0;
  };
  s.q1 = cut(1);
  s.q3 = cut(3);
  return s;
}

CompareResult CompareReportFiles(const std::string& baseline_path,
                                 const std::string& candidate_path,
                                 const CompareOptions& options) {
  CompareResult result;
  if (!(options.threshold > 0.0)) {
    result.error = "threshold must be positive";
    return result;
  }

  RunSet a;
  RunSet b;
  if (!LoadSide(baseline_path, &a, &result.error)) return result;
  if (!LoadSide(candidate_path, &b, &result.error)) return result;
  if (a.format != b.format) {
    result.error = "file formats differ ('" + baseline_path + "' vs '" +
                   candidate_path + "')";
    return result;
  }
  if (a.format == Format::kOther) {
    result.error = "'" + baseline_path +
                   "' is neither a run report nor a BENCH array";
    return result;
  }

  const bool bench = a.format == Format::kBench;
  const std::string prefix = bench ? "bench " : "";
  const double min_comparable =
      bench ? kMinComparableNs : kMinComparableSeconds;
  if (!bench && a.config_fingerprint != b.config_fingerprint) {
    result.notes.push_back("config fingerprints differ (" +
                           a.config_fingerprint + " vs " +
                           b.config_fingerprint + ")");
  }
  int paired = 0;
  for (const auto& [key, base] : a.timings) {
    const auto it = b.timings.find(key);
    if (it == b.timings.end()) {
      result.notes.push_back(prefix + "'" + key + "' missing from candidate");
      continue;
    }
    ++paired;
    CompareRow row = Judge(key, base, it->second, options.threshold);
    if (row.baseline.median < min_comparable) continue;
    const std::string ratio =
        FormatRatio(row.baseline.median, row.candidate.median);
    if (row.verdict == Verdict::kRegressed) {
      result.regressions.push_back(prefix + key + ": " + ratio);
    } else if (row.verdict != Verdict::kOk) {
      result.notes.push_back(prefix + key + " " + VerdictName(row.verdict) +
                             ": " + ratio);
    }
    result.rows.push_back(std::move(row));
  }
  for (const auto& [key, cand] : b.timings) {
    if (a.timings.find(key) == a.timings.end()) {
      result.notes.push_back(prefix + "'" + key + "' missing from baseline");
    }
  }
  if (paired == 0) {
    result.error = "no record pairs up between '" + baseline_path +
                   "' and '" + candidate_path + "'";
    return result;
  }

  if (options.require_equal_counters) {
    const std::size_t pairs = std::min(a.counters.size(), b.counters.size());
    for (std::size_t i = 0; i < pairs; ++i) {
      CompareCounters(a.counters[i], b.counters[i], &result);
    }
  }

  result.ok = result.regressions.empty();
  return result;
}

int CompareExitCode(const CompareResult& result) {
  if (!result.error.empty()) return 2;
  return result.regressions.empty() ? 0 : 1;
}

}  // namespace e2gcl
