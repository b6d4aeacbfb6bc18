// Shared pieces of the end-to-end benchmark (see README.md): workload
// table, run options, result collection, timing statistics, and the
// span log the traced runs record from outside the library.

#ifndef E2GCL_BENCH_E2E_E2E_H_
#define E2GCL_BENCH_E2E_E2E_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/trainer.h"
#include "graph/graph.h"
#include "io/json.h"
#include "nn/gcn.h"
#include "obs/metrics.h"

namespace e2gcl {
namespace e2e {

enum class Kind { kTrainResident, kTrainSharded, kServeLookup, kServeTopK };

struct Workload {
  const char* name;
  Kind kind;
  /// Stand-in dataset (graph/datasets.h) the workload's graph comes from.
  const char* dataset;
  /// Epochs of one timed pre-training run (train-* only).
  int epochs;
};

/// Sizes that differ between a real run and the toy-size smoke run.
struct Scale {
  double graph = 1.0;        // LoadDatasetScaled factor
  int max_epochs = 1 << 20;  // cap on any training run's epochs
  int replay_epochs = 6;     // epochs the traced replay runs (>= 3)
  double warmup_s = 1.0;     // serving warm-up before the measured phase
  double burst_s = 1.0;      // each serving burst of the traced run
  int setup_reps = 5;        // least set-ups per run (see RepeatSetup)
};

struct Options {
  const Workload* workload = nullptr;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  Scale scale;
  /// Scratch directory for stores, checkpoints and run reports.
  std::string workdir;
};

/// Shards of every sharded run, and the closed-loop connections of every
/// serving phase: two, so one request waits while another is served and
/// the server's batching is exercised, without the queueing of more
/// callers than the one CPU the process runs on can serve.
inline constexpr int kShards = 4;
inline constexpr int kConnections = 2;

/// Metrics, op counts and failures of one run.
class Result {
 public:
  /// A metric the benchmark reports. `samples` is how many measurements
  /// the value summarizes.
  void Add(const std::string& name, double value, const std::string& unit,
           std::int64_t samples);
  /// A number that is printed and saved but not one of the benchmark's
  /// metrics (e.g. a serving p99, which does not repeat well enough to
  /// gate).
  void Info(const std::string& name, double value, const std::string& unit,
            std::int64_t samples);
  /// Counts one attempted operation; a failed one is recorded with
  /// `what` (the first few messages are kept).
  void Op(bool ok, const std::string& what = "");
  /// Counts a batch of operations and the messages of its failures.
  void Ops(std::int64_t attempted, std::int64_t failed,
           const std::vector<std::string>& failures);

  std::int64_t attempted() const { return attempted_; }
  std::int64_t failed() const { return failed_; }

  /// Prints every metric and info line by name with its unit and
  /// sample count.
  void Print() const;
  /// {"metrics": {...}, "info": {...}, "attempted", "failed", "failures"}
  void ToJson(JsonValue* out) const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
    std::int64_t samples;
  };
  std::vector<Entry> metrics_;
  std::vector<Entry> info_;
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
  std::vector<std::string> failures_;
};

// --- Timing. -------------------------------------------------------------

class Stopwatch {
 public:
  Stopwatch() : t0_(std::chrono::steady_clock::now()) {}
  double Seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point t0_;
};

/// Conventional median (mean of the middle pair for even counts).
double Median(std::vector<double> v);

/// Fixed-memory latency histogram: 256 log-spaced buckets per doubling
/// (0.27% wide) from 1 ns to ~17 s. Memory never grows with the sample
/// count, so a long serving phase does not move the peak-RSS metric.
/// Percentiles interpolate inside the bucket by rank.
class LatencyHistogram {
 public:
  LatencyHistogram();
  void Record(double seconds);
  void Merge(const LatencyHistogram& other);
  std::int64_t count() const { return count_; }
  /// Nearest-rank percentile in seconds, q in (0, 100].
  double Percentile(double q) const;

 private:
  std::vector<std::int64_t> buckets_;
  std::int64_t count_ = 0;
};

/// Spans recorded by the benchmark around calls into the library: a
/// root per unit of work (one epoch) with one level of children.
class SpanLog {
 public:
  struct Span {
    const char* name;
    int root;  // index of the enclosing root span; -1 for a root
    double start_s;
    double end_s;
  };

  /// Spans opened while the log is disabled are not recorded.
  void set_enabled(bool enabled) { enabled_ = enabled; }

  /// RAII span: a root when no root is open, else a child of it.
  class Scope {
   public:
    Scope(SpanLog* log, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog* log_;
    int index_;
  };

  /// Summed duration of children named `name`, per root, in root order.
  std::vector<double> ChildSeconds(const char* name) const;
  /// Share of each root covered by its children, in order.
  std::vector<double> Coverage() const;
  /// {name: {count, seconds, self_seconds}} — a root's self time is the
  /// part of it no child covers.
  void ToJson(JsonValue* out) const;

 private:
  double Now() const { return clock_.Seconds(); }
  Stopwatch clock_;
  std::vector<Span> spans_;
  int open_root_ = -1;
  bool enabled_ = true;
};

// --- Shared helpers. -----------------------------------------------------

/// Times `setup` (after an untimed `reset`) at least scale.setup_reps
/// times, and again while the set-ups add up to under 1.5 s (a cheap one
/// is noisy), at most 25 times; adds their median as setup_s. False as
/// soon as a set-up fails.
bool RepeatSetup(const Scale& scale, const std::function<void()>& reset,
                 const std::function<bool()>& setup, Result* result);

/// The workload's graph at the run's seed.
Graph MakeGraph(const Options& opt);

/// Paper-default pre-training config (r = 0.4, batch 500) at `epochs`.
E2gclConfig PaperConfig(const Options& opt, int epochs);

/// How much the library's counter `name` grew between two snapshots.
double CounterDelta(const MetricsSnapshot& before, const MetricsSnapshot& after,
                    const char* name);

/// Deletes and recreates `dir`.
void ResetDir(const std::string& dir);

/// Releases freed heap to the OS and restarts the VmHWM high-water mark
/// (/proc/self/clear_refs), so a later PeakRssMb() covers only what
/// follows.
void ResetPeakRss();
/// VmHWM in MiB.
double PeakRssMb();

/// Linear-probe test accuracy (%) of `embeddings` under the split and
/// probe seeds eval/protocol.cc uses for `seed`.
double ProbeAccuracy(const Matrix& embeddings, const Graph& g,
                     std::uint64_t seed);

// --- Workloads. ----------------------------------------------------------

/// The end-to-end run of a train-* workload (tracing off).
void RunTrain(const Options& opt, Result* result);
/// The end-to-end run of a serve-* workload (tracing off).
void RunServe(const Options& opt, Result* result);

/// Per-layer numbers from the traced replay of resident training, the
/// standalone kernels, the probe, and the sharded path. Returns the
/// replay's trained encoder for the serving ledger.
std::unique_ptr<GcnEncoder> TraceTraining(const Options& opt, const Graph& g,
                                          Result* result, JsonValue* spans);
/// Per-layer numbers of the serving and network layers, measured on
/// `encoder` serving `g` with the workload's request mix.
void TraceServing(const Options& opt, const Graph& g,
                  const GcnEncoder& encoder, Result* result);

}  // namespace e2e
}  // namespace e2gcl

#endif  // E2GCL_BENCH_E2E_E2E_H_
