// Compares two sets of telemetry runs — run_report.json objects or
// BENCH_*.json micro-benchmark arrays, one file or a directory of run
// files per side — by the rule in obs/report_compare.h, and exits
// nonzero when the candidate regressed. tools/check_perf.sh drives it.
//
//   bench_compare [--threshold 1.25] [--require-equal-counters]
//                 [--json [--commits PARENT,CHANGE]] <baseline> <candidate>
//
// Prints one row per record (both medians, how much worse, both
// spreads, pair wins, verdict); --json prints the comparison as a JSON
// summary under a host header instead.
//
// Exit codes: 0 = no regression, 1 = regression(s), 2 = usage or file
// error, or no record in common.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "io/json.h"
#include "obs/report_compare.h"
#include "tensor/simd/simd.h"

namespace {

using e2gcl::JsonValue;

void Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--threshold X] [--require-equal-counters] "
      "[--json [--commits PARENT,CHANGE]] <baseline> <candidate>\n"
      "  <baseline>, <candidate>   a run file, or a directory of *.json "
      "runs\n"
      "  --threshold X             flag medians slower than baseline*X "
      "(default 1.25; must be > 0)\n"
      "  --require-equal-counters  run reports only: counter maps must "
      "match exactly\n"
      "  --json                    print a JSON summary with a host header\n"
      "  --commits PARENT,CHANGE   commit ids recorded in the JSON summary\n",
      argv0);
}

/// The machine and build, with the field names of bench/e2e's header.
JsonValue HostJson() {
  std::string cpu = "unknown";
  std::ifstream in("/proc/cpuinfo");
  for (std::string line; std::getline(in, line);) {
    const std::size_t colon = line.find(": ");
    if (line.rfind("model name", 0) == 0 && colon != std::string::npos) {
      cpu = line.substr(colon + 2);
      break;
    }
  }
  JsonValue h = JsonValue::Object();
  h.Set("nproc", JsonValue::Int(std::thread::hardware_concurrency()));
  h.Set("cpu_model", JsonValue::Str(cpu));
#if defined(__clang__)
  h.Set("compiler", JsonValue::Str("clang " __clang_version__));
#else
  h.Set("compiler", JsonValue::Str("gcc " __VERSION__));
#endif
  h.Set("build_type", JsonValue::Str(E2GCL_BUILD_TYPE));
  h.Set("simd_backend", JsonValue::Str(e2gcl::simd::BackendName()));
  return h;
}

JsonValue SummaryJson(const e2gcl::CompareResult& result, double bound,
                      const std::string& commits) {
  const std::size_t comma = std::min(commits.find(','), commits.size());
  JsonValue doc = JsonValue::Object();
  doc.Set("schema", JsonValue::Str("e2gcl.bench_compare"));
  doc.Set("host", HostJson());
  doc.Set("parent_commit", JsonValue::Str(commits.substr(0, comma)));
  doc.Set("change_commit",
          JsonValue::Str(commits.substr(std::min(comma + 1, commits.size()))));
  doc.Set("pairs",
          JsonValue::Int(result.rows.empty() ? 0 : result.rows[0].pairs));
  doc.Set("bound", JsonValue::Double(bound));
  JsonValue records = JsonValue::Array();
  for (const e2gcl::CompareRow& row : result.rows) {
    JsonValue r = JsonValue::Object();
    r.Set("record", JsonValue::Str(row.key));
    for (const auto& [side, s] : {std::pair{"parent", row.baseline},
                                  std::pair{"change", row.candidate}}) {
      JsonValue stats = JsonValue::Object();
      stats.Set("median", JsonValue::Double(s.median));
      stats.Set("q1", JsonValue::Double(s.q1));
      stats.Set("q3", JsonValue::Double(s.q3));
      r.Set(side, std::move(stats));
    }
    r.Set("wins", JsonValue::Int(row.wins));
    r.Set("verdict", JsonValue::Str(e2gcl::VerdictName(row.verdict)));
    records.Append(std::move(r));
  }
  doc.Set("records", std::move(records));
  return doc;
}

void PrintTable(const e2gcl::CompareResult& result) {
  std::size_t width = 6;
  for (const e2gcl::CompareRow& row : result.rows) {
    width = std::max(width, row.key.size());
  }
  const int w = static_cast<int>(width);
  std::printf("%-*s %12s %12s %8s %8s %8s %5s  verdict\n", w, "record",
              "parent", "change", "worse", "spread p", "spread c", "wins");
  for (const e2gcl::CompareRow& row : result.rows) {
    const e2gcl::SampleStats& p = row.baseline;
    const e2gcl::SampleStats& c = row.candidate;
    std::printf("%-*s %12.6g %12.6g %+7.1f%% %7.1f%% %7.1f%% %2d/%-2d  %s\n",
                w, row.key.c_str(), p.median, c.median,
                100.0 * (c.median / p.median - 1.0), 100.0 * p.Spread(),
                100.0 * c.Spread(), row.wins, row.pairs,
                e2gcl::VerdictName(row.verdict));
  }
}

}  // namespace

int main(int argc, char** argv) {
  e2gcl::CompareOptions options;
  bool json = false;
  std::string commits;
  std::vector<std::string> files;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool valued = arg == "--threshold" || arg == "--commits";
    if (valued && i + 1 >= argc) {
      std::fprintf(stderr, "bench_compare: %s needs a value\n", argv[i]);
      Usage(argv[0]);
      return 2;
    }
    if (arg == "--threshold") {
      char* end = nullptr;
      options.threshold = std::strtod(argv[++i], &end);
      if (end == nullptr || *end != '\0' || !(options.threshold > 0.0)) {
        std::fprintf(stderr, "bench_compare: bad threshold '%s'\n", argv[i]);
        return 2;
      }
    } else if (arg == "--commits") {
      commits = argv[++i];
    } else if (arg == "--require-equal-counters") {
      options.require_equal_counters = true;
    } else if (arg == "--json") {
      json = true;
    } else if (arg == "--help" || arg == "-h") {
      Usage(argv[0]);
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "bench_compare: unknown flag '%s'\n", arg.c_str());
      Usage(argv[0]);
      return 2;
    } else {
      files.push_back(arg);
    }
  }
  if (files.size() != 2) {
    Usage(argv[0]);
    return 2;
  }

  const e2gcl::CompareResult result =
      e2gcl::CompareReportFiles(files[0], files[1], options);
  if (!result.error.empty()) {
    std::fprintf(stderr, "bench_compare: error: %s\n", result.error.c_str());
  } else if (json) {
    const JsonValue doc = SummaryJson(result, options.threshold - 1, commits);
    std::printf("%s\n", e2gcl::DumpJson(doc).c_str());
  } else {
    PrintTable(result);
    for (const std::string& note : result.notes) {
      std::printf("note: %s\n", note.c_str());
    }
    for (const std::string& regression : result.regressions) {
      std::printf("REGRESSION: %s\n", regression.c_str());
    }
    if (result.ok) {
      std::printf("ok: no regressions past %.3gx threshold\n",
                  options.threshold);
    } else {
      std::printf("%zu regression(s) past %.3gx threshold\n",
                  result.regressions.size(), options.threshold);
    }
  }
  return e2gcl::CompareExitCode(result);
}
