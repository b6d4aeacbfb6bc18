// Result collection, statistics, spans and shared helpers (e2e.h).

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "e2e.h"
#include "eval/linear_probe.h"
#include "graph/datasets.h"
#include "graph/splits.h"
#include "obs/resource.h"

namespace e2gcl {
namespace e2e {

// --- Result. -------------------------------------------------------------

void Result::Add(const std::string& name, double value,
                 const std::string& unit, std::int64_t samples) {
  metrics_.push_back({name, value, unit, samples});
}

void Result::Info(const std::string& name, double value,
                  const std::string& unit, std::int64_t samples) {
  info_.push_back({name, value, unit, samples});
}

void Result::Op(bool ok, const std::string& what) {
  if (ok) {
    Ops(1, 0, {});
  } else {
    Ops(1, 1, {what});
  }
}

void Result::Ops(std::int64_t attempted, std::int64_t failed,
                 const std::vector<std::string>& failures) {
  attempted_ += attempted;
  failed_ += failed;
  for (const std::string& f : failures) {
    if (failures_.size() < 8) failures_.push_back(f);
  }
}

void Result::Print() const {
  auto line = [](const Entry& e, const char* tag) {
    std::printf("  %-28s %16.6f %-6s (n=%lld)%s\n", e.name.c_str(), e.value,
                e.unit.c_str(), static_cast<long long>(e.samples), tag);
  };
  for (const Entry& e : metrics_) line(e, "");
  for (const Entry& e : info_) line(e, "  [info, not gated]");
  std::printf("  ops attempted %lld, failed %lld\n",
              static_cast<long long>(attempted_),
              static_cast<long long>(failed_));
  for (const std::string& f : failures_) {
    std::printf("  failure: %s\n", f.c_str());
  }
}

void Result::ToJson(JsonValue* out) const {
  auto group = [](const std::vector<Entry>& entries) {
    JsonValue obj = JsonValue::Object();
    for (const Entry& e : entries) {
      JsonValue m = JsonValue::Object();
      m.Set("value", JsonValue::Double(e.value));
      m.Set("unit", JsonValue::Str(e.unit));
      m.Set("samples", JsonValue::Int(e.samples));
      obj.Set(e.name, std::move(m));
    }
    return obj;
  };
  out->Set("attempted", JsonValue::Int(attempted_));
  out->Set("failed", JsonValue::Int(failed_));
  JsonValue failures = JsonValue::Array();
  for (const std::string& f : failures_) failures.Append(JsonValue::Str(f));
  out->Set("failures", std::move(failures));
  out->Set("metrics", group(metrics_));
  out->Set("info", group(info_));
}

// --- Statistics. ---------------------------------------------------------

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

namespace {
constexpr int kBucketsPerOctave = 256;
constexpr int kOctaves = 34;  // 1 ns * 2^34 ~ 17 s
constexpr double kMinSeconds = 1e-9;
}  // namespace

LatencyHistogram::LatencyHistogram()
    : buckets_(static_cast<std::size_t>(kBucketsPerOctave * kOctaves), 0) {}

void LatencyHistogram::Record(double seconds) {
  const double x = std::max(seconds, kMinSeconds) / kMinSeconds;
  const auto b = static_cast<std::int64_t>(std::log2(x) * kBucketsPerOctave);
  ++buckets_[static_cast<std::size_t>(
      std::clamp<std::int64_t>(b, 0, std::ssize(buckets_) - 1))];
  ++count_;
}

void LatencyHistogram::Merge(const LatencyHistogram& other) {
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    buckets_[i] += other.buckets_[i];
  }
  count_ += other.count_;
}

double LatencyHistogram::Percentile(double q) const {
  if (count_ == 0) return 0.0;
  const auto rank = std::clamp<std::int64_t>(
      static_cast<std::int64_t>(std::ceil(q / 100.0 * count_)), 1, count_);
  std::int64_t below = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    if (below + buckets_[i] >= rank) {
      // Geometric interpolation by rank inside the bucket.
      const double frac = (static_cast<double>(rank - below) - 0.5) /
                          static_cast<double>(buckets_[i]);
      const double log2x = (static_cast<double>(i) + frac) / kBucketsPerOctave;
      return kMinSeconds * std::exp2(log2x);
    }
    below += buckets_[i];
  }
  return kMinSeconds * std::exp2(static_cast<double>(kOctaves));
}

// --- Spans. --------------------------------------------------------------

SpanLog::Scope::Scope(SpanLog* log, const char* name) : log_(log), index_(-1) {
  if (!log_->enabled_) return;
  index_ = static_cast<int>(log_->spans_.size());
  log_->spans_.push_back({name, log_->open_root_, log_->Now(), 0.0});
  if (log_->open_root_ < 0) log_->open_root_ = index_;
}

SpanLog::Scope::~Scope() {
  if (index_ < 0) return;
  log_->spans_[static_cast<std::size_t>(index_)].end_s = log_->Now();
  if (log_->open_root_ == index_) log_->open_root_ = -1;
}

std::vector<double> SpanLog::ChildSeconds(const char* name) const {
  std::vector<double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].root >= 0) continue;
    double sum = 0.0;
    for (std::size_t j = i + 1;
         j < spans_.size() && spans_[j].root == static_cast<int>(i); ++j) {
      if (std::string(spans_[j].name) == name) {
        sum += spans_[j].end_s - spans_[j].start_s;
      }
    }
    out.push_back(sum);
  }
  return out;
}

std::vector<double> SpanLog::Coverage() const {
  std::vector<double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].root >= 0) continue;
    double covered = 0.0;
    for (std::size_t j = i + 1;
         j < spans_.size() && spans_[j].root == static_cast<int>(i); ++j) {
      covered += spans_[j].end_s - spans_[j].start_s;
    }
    const double total = spans_[i].end_s - spans_[i].start_s;
    out.push_back(total > 0.0 ? covered / total : 1.0);
  }
  return out;
}

void SpanLog::ToJson(JsonValue* out) const {
  struct Totals {
    std::int64_t count = 0;
    double seconds = 0.0;
    double self = 0.0;
  };
  std::vector<std::pair<std::string, Totals>> by_name;
  auto slot = [&](const char* name) -> Totals& {
    for (auto& [n, t] : by_name) {
      if (n == name) return t;
    }
    by_name.emplace_back(name, Totals{});
    return by_name.back().second;
  };
  const std::vector<double> coverage = Coverage();
  std::size_t root_index = 0;
  for (const Span& s : spans_) {
    Totals& t = slot(s.name);
    const double d = s.end_s - s.start_s;
    ++t.count;
    t.seconds += d;
    t.self += s.root < 0 ? d * (1.0 - coverage[root_index++]) : d;
  }
  *out = JsonValue::Object();
  for (const auto& [name, t] : by_name) {
    JsonValue v = JsonValue::Object();
    v.Set("count", JsonValue::Int(t.count));
    v.Set("seconds", JsonValue::Double(t.seconds));
    v.Set("self_seconds", JsonValue::Double(t.self));
    out->Set(name, std::move(v));
  }
}

// --- Shared helpers. -----------------------------------------------------

bool RepeatSetup(const Scale& scale, const std::function<void()>& reset,
                 const std::function<bool()>& setup, Result* result) {
  constexpr int kMaxReps = 25;
  constexpr double kBudgetS = 1.5;
  std::vector<double> t;
  double total_s = 0.0;
  while (std::ssize(t) < scale.setup_reps ||
         (total_s < kBudgetS && std::ssize(t) < kMaxReps)) {
    reset();
    const Stopwatch sw;
    if (!setup()) return false;
    t.push_back(sw.Seconds());
    total_s += t.back();
  }
  result->Add("setup_s", Median(t), "s", std::ssize(t));
  return true;
}

Graph MakeGraph(const Options& opt) {
  return LoadDatasetScaled(opt.workload->dataset, opt.scale.graph, opt.seed);
}

E2gclConfig PaperConfig(const Options& opt, int epochs) {
  E2gclConfig cfg;  // r = 0.4, batch 500, InfoNCE, projection head
  cfg.seed = opt.seed;
  cfg.epochs = std::min(epochs, opt.scale.max_epochs);
  return cfg;
}

double CounterDelta(const MetricsSnapshot& before, const MetricsSnapshot& after,
                    const char* name) {
  return static_cast<double>(after.counter(name) - before.counter(name));
}

void ResetDir(const std::string& dir) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(dir, ec);
}

void ResetPeakRss() {
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
  std::ofstream("/proc/self/clear_refs") << "5";
}

double PeakRssMb() {
  return static_cast<double>(PeakRssBytes()) / (1024.0 * 1024.0);
}

double ProbeAccuracy(const Matrix& embeddings, const Graph& g,
                     std::uint64_t seed) {
  Rng split_rng(seed * 7919 + 13);
  const NodeSplit split = RandomNodeSplit(g.num_nodes, 0.1, 0.1, split_rng);
  LinearProbeConfig probe;
  probe.seed = seed * 31 + 5;
  return 100.0 *
         LinearProbeAccuracy(embeddings, g.labels, g.num_classes, split, probe);
}

}  // namespace e2e
}  // namespace e2gcl
