// e2gcl_lint — project-invariant static analysis over src/, tools/ and
// tests/. See tools/lint/lint.h and DESIGN.md "Static analysis &
// invariants" for the rule table and suppression syntax.
//
//   e2gcl_lint [--root DIR] [--json] [--list-rules] [paths...]
//
// Paths are repo-relative files or directories (default: src tools
// tests). Exit codes: 0 = no unsuppressed findings, 1 = findings,
// 2 = usage or I/O error — the same contract as bench_compare.

#include <cstdio>
#include <string>
#include <vector>

#include "tools/lint/lint.h"
#include "tools/lint/rules.h"

namespace {

void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--root DIR] [--json] [--list-rules] [paths...]\n"
               "  --root DIR    repository root to scan (default: .)\n"
               "  --json        emit a machine-readable JSON report\n"
               "  --list-rules  print every rule with its severity\n",
               argv0);
}

}  // namespace

int main(int argc, char** argv) {
  std::string root = ".";
  bool json = false;
  std::vector<std::string> paths;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--root") {
      if (i + 1 >= argc) {
        Usage(argv[0]);
        return 2;
      }
      root = argv[++i];
    } else if (arg == "--json") {
      json = true;
    } else if (arg == "--list-rules") {
      for (const e2gcl::lint::RuleInfo& r : e2gcl::lint::Rules()) {
        std::printf("%-26s %-8s %s\n", r.name.c_str(),
                    e2gcl::lint::SeverityName(r.severity), r.summary.c_str());
      }
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      Usage(argv[0]);
      return 2;
    } else {
      paths.push_back(arg);
    }
  }

  std::vector<e2gcl::lint::Finding> findings;
  std::string error;
  if (!e2gcl::lint::LintTree(root, paths, &findings, &error)) {
    std::fprintf(stderr, "e2gcl_lint: %s\n", error.c_str());
    return 2;
  }
  if (json) {
    std::printf("%s\n",
                e2gcl::DumpJson(e2gcl::lint::FindingsToJson(findings)).c_str());
  } else {
    std::printf("%s", e2gcl::lint::FindingsToText(findings).c_str());
  }
  return e2gcl::lint::ExitCode(findings);
}
