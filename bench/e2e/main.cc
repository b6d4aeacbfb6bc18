// e2gcl_e2e: one run of one workload of the end-to-end benchmark.
//
//   e2gcl_e2e --workload NAME --workdir DIR [--seed S] [--seconds T]
//             [--trace] [--toy] [--out FILE]
//
// Prints a host/build header, then every metric by name with its unit
// and sample count, and writes the whole result as JSON to FILE. Without
// --trace the metrics are the end-to-end ones (measured with no
// benchmark spans); with it, the per-layer ones. DIR is scratch space
// for stores, checkpoints and run reports, emptied before and removed
// after the run. The whole process runs on one CPU with a one-thread
// kernel pool (see PinToOneCpu). bench/e2e/run.py builds this binary,
// runs each workload in its own process, and compares result sets; see
// README.md.

#include <sched.h>
#include <sys/utsname.h>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <thread>

#include "e2e.h"
#include "io/json.h"
#include "parallel/thread_pool.h"
#include "tensor/simd/simd.h"

#ifndef E2GCL_E2E_BUILD_TYPE
#define E2GCL_E2E_BUILD_TYPE "unknown"
#endif

namespace e2gcl {
namespace e2e {
namespace {

// Why each workload exists is in README.md.
constexpr Workload kWorkloads[] = {
    {"train-cora", Kind::kTrainResident, "cora", 20},
    {"train-sharded", Kind::kTrainSharded, "arxiv", 1},
    {"serve-lookup", Kind::kServeLookup, "arxiv", 0},
    {"serve-topk", Kind::kServeTopK, "arxiv", 0},
};

/// Toy sizes for the smoke test: every code path, a fraction of the time.
constexpr Scale kToyScale = {.graph = 0.1,
                             .max_epochs = 3,
                             .replay_epochs = 3,
                             .warmup_s = 0.05,
                             .burst_s = 0.2,
                             .setup_reps = 2};

/// Restricts the process to the last CPU it may run on, before any
/// thread starts, so that every thread it creates inherits that one CPU.
/// On a few shared vCPUs, a kernel pool spread over all of them waits at
/// each join for whichever vCPU the host is running slowest, and every
/// hand-off between the serving threads wakes a halted vCPU; both swing
/// timings by tens of percent from one run to the next. On one CPU the
/// threads hand off by plain context switches and the timings follow
/// only that CPU's speed. Returns the CPU, or -1 when pinning failed.
int PinToOneCpu() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return -1;
  int cpu = -1;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpu = c;
  }
  if (cpu < 0) return -1;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return sched_setaffinity(0, sizeof(set), &set) == 0 ? cpu : -1;
}

/// Keeps freed memory in the heap instead of handing it back to the OS,
/// so repeated ops and set-ups reuse pages already mapped rather than
/// faulting fresh ones in. On a VM a page fault costs the host work whose
/// price swings with the host's load: without this, the median set-up
/// time of one run differed from the next by up to a third. ResetPeakRss
/// still trims the heap once before each measured phase.
void KeepFreedMemory() {
#if defined(__GLIBC__)
  mallopt(M_MMAP_THRESHOLD, 32 << 20);  // glibc's ceiling for it
  mallopt(M_TRIM_THRESHOLD, std::numeric_limits<int>::max());
#endif
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos && colon + 2 <= line.size()) {
        return line.substr(colon + 2);
      }
    }
  }
  return "unknown";
}

JsonValue HostInfo(int pinned_cpu) {
  utsname u{};
  const std::string kernel = uname(&u) == 0 ? u.release : "unknown";
#if defined(__clang__)
  const char* compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
  const char* compiler = "gcc " __VERSION__;
#else
  const char* compiler = "unknown";
#endif
  JsonValue h = JsonValue::Object();
  h.Set("nproc",
        JsonValue::Int(static_cast<std::int64_t>(
            std::thread::hardware_concurrency())));
  h.Set("cpu_model", JsonValue::Str(CpuModel()));
  h.Set("kernel", JsonValue::Str(kernel));
  h.Set("compiler", JsonValue::Str(compiler));
  h.Set("build_type", JsonValue::Str(E2GCL_E2E_BUILD_TYPE));
  h.Set("simd_backend", JsonValue::Str(simd::BackendName()));
  h.Set("threads", JsonValue::Int(GetNumThreads()));
  h.Set("pinned_cpu", JsonValue::Int(pinned_cpu));
  return h;
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload NAME --workdir DIR [--seed S] "
               "[--seconds T] [--trace] [--toy] [--out FILE]\n"
               "workloads:",
               argv0);
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

int Main(int argc, char** argv) {
  Options opt;
  std::string out_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    char* end = nullptr;
    if (arg == "--trace") {
      opt.trace = true;
    } else if (arg == "--toy") {
      opt.scale = kToyScale;
    } else if (value == nullptr) {
      return Usage(argv[0]);
    } else if (arg == "--workload") {
      for (const Workload& w : kWorkloads) {
        if (std::strcmp(w.name, value) == 0) opt.workload = &w;
      }
      ++i;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return Usage(argv[0]);
      ++i;
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(opt.seconds > 0.0)) return Usage(argv[0]);
      ++i;
    } else if (arg == "--workdir") {
      opt.workdir = value;
      ++i;
    } else if (arg == "--out") {
      out_path = value;
      ++i;
    } else {
      return Usage(argv[0]);
    }
  }
  if (opt.workload == nullptr || opt.workdir.empty()) return Usage(argv[0]);

  const int pinned_cpu = PinToOneCpu();
  SetNumThreads(1);
  KeepFreedMemory();
  const JsonValue host = HostInfo(pinned_cpu);
  std::printf("# %s seed %llu, %.3g s, %s\n# host %s\n", opt.workload->name,
              static_cast<unsigned long long>(opt.seed), opt.seconds,
              opt.trace ? "per-layer trace" : "end to end",
              DumpJson(host, false).c_str());
  std::fflush(stdout);

  ResetDir(opt.workdir);
  Result result;
  JsonValue spans = JsonValue::Object();
  if (opt.trace) {
    const Graph g = MakeGraph(opt);
    const std::unique_ptr<GcnEncoder> encoder =
        TraceTraining(opt, g, &result, &spans);
    TraceServing(opt, g, *encoder, &result);
  } else if (opt.workload->kind == Kind::kTrainResident ||
             opt.workload->kind == Kind::kTrainSharded) {
    RunTrain(opt, &result);
  } else {
    RunServe(opt, &result);
  }
  std::error_code ec;
  std::filesystem::remove_all(opt.workdir, ec);
  result.Print();

  if (!out_path.empty()) {
    JsonValue doc = JsonValue::Object();
    doc.Set("workload", JsonValue::Str(opt.workload->name));
    doc.Set("seed", JsonValue::Int(static_cast<std::int64_t>(opt.seed)));
    doc.Set("seconds", JsonValue::Double(opt.seconds));
    doc.Set("trace", JsonValue::Bool(opt.trace));
    doc.Set("host", host);
    result.ToJson(&doc);
    if (opt.trace) doc.Set("spans", std::move(spans));
    if (!WriteJsonFile(out_path, doc)) {
      std::fprintf(stderr, "e2gcl_e2e: cannot write %s\n", out_path.c_str());
      return 1;
    }
  }
  return 0;
}

}  // namespace
}  // namespace e2e
}  // namespace e2gcl

int main(int argc, char** argv) { return e2gcl::e2e::Main(argc, argv); }
