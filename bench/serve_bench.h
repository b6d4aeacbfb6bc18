#ifndef E2GCL_BENCH_SERVE_BENCH_H_
#define E2GCL_BENCH_SERVE_BENCH_H_

// What bench_serve and bench_serve_net share: the 1024-node SBM model
// both serve, and their record schema
//   {"name", "threads", "batch", "ns_per_iter", "p50_us", "p99_us",
//    "qps"}
// keyed for tools/bench_compare (name + "#t" + threads), which judges
// ns_per_iter.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "graph/generators.h"
#include "io/checkpoint.h"
#include "io/json.h"
#include "nn/gcn.h"
#include "tensor/rng.h"

namespace e2gcl {

struct BenchRecord {
  std::string name;
  int threads;
  std::int64_t batch;
  double ns_per_iter;
  double p50_us;
  double p99_us;
  double qps;
};

inline Graph BenchGraph() {
  SbmSpec spec;
  spec.num_nodes = 1024;
  spec.num_classes = 4;
  spec.feature_dim = 32;
  spec.avg_degree = 8;
  spec.informative_dims_per_class = 6;
  return GenerateSbm(spec, 1);
}

inline TrainerCheckpoint BenchCheckpoint(const Graph& g) {
  GcnConfig cfg;
  cfg.dims = {g.feature_dim(), 64, 32};
  Rng rng(2);
  GcnEncoder encoder(cfg, rng);
  TrainerCheckpoint ckpt;
  ckpt.epoch = 0;
  ckpt.config_fingerprint = 1;
  ckpt.encoder_params = encoder.params().CloneValues();
  return ckpt;
}

/// One record from the pooled per-request latencies of a timed pass.
inline BenchRecord Summarize(const std::string& name, int threads,
                             std::int64_t batch,
                             std::vector<double> latencies_us,
                             double wall_seconds) {
  std::sort(latencies_us.begin(), latencies_us.end());
  const std::size_t n = latencies_us.size();
  return {name,
          threads,
          batch,
          wall_seconds * 1e9 / static_cast<double>(n),
          latencies_us[n / 2],
          latencies_us[std::min(n - 1, n * 99 / 100)],
          static_cast<double>(n) / wall_seconds};
}

inline void PrintHeader() {
  std::printf("%-28s %8s %6s %12s %9s %9s %10s\n", "config", "threads",
              "batch", "ns/req", "p50(us)", "p99(us)", "qps");
}

inline void PrintRecord(const BenchRecord& r) {
  std::printf("%-28s %8d %6lld %12.0f %9.1f %9.1f %10.0f\n", r.name.c_str(),
              r.threads, static_cast<long long>(r.batch), r.ns_per_iter,
              r.p50_us, r.p99_us, r.qps);
}

/// Writes `records` to $E2GCL_BENCH_JSON, or to `default_path`.
inline void WriteJson(const std::vector<BenchRecord>& records,
                      const char* default_path) {
  const char* env = std::getenv("E2GCL_BENCH_JSON");
  const std::string path = env != nullptr ? env : default_path;
  JsonValue doc = JsonValue::Array();
  for (const BenchRecord& r : records) {
    JsonValue obj = JsonValue::Object();
    obj.Set("name", JsonValue::Str(r.name));
    obj.Set("threads", JsonValue::Int(r.threads));
    obj.Set("batch", JsonValue::Int(r.batch));
    obj.Set("ns_per_iter", JsonValue::Double(r.ns_per_iter));
    obj.Set("p50_us", JsonValue::Double(r.p50_us));
    obj.Set("p99_us", JsonValue::Double(r.p99_us));
    obj.Set("qps", JsonValue::Double(r.qps));
    doc.Append(std::move(obj));
  }
  if (!WriteJsonFile(path, doc)) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    std::exit(1);
  }
  std::fprintf(stderr, "wrote %zu records to %s\n", records.size(),
               path.c_str());
}

}  // namespace e2gcl

#endif  // E2GCL_BENCH_SERVE_BENCH_H_
