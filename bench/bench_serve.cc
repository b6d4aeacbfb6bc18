// Serving-path micro-benchmark: GetEmbedding throughput and latency
// through the micro-batching queue, swept over compute thread count and
// batch size, for both cache-cold (lazy, evicting) and cache-hot
// regimes plus the precompute mode.
//
// Writes BENCH_serve.json — an array of
//   {"name", "threads", "batch", "ns_per_iter", "p50_us", "p99_us",
//    "qps"}
// records keyed for tools/bench_compare (name + "#t" + threads), which
// tools/check_serve.sh gates at a 1.25x regression threshold. Set
// E2GCL_BENCH_JSON to change the output path.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "graph/generators.h"
#include "io/checkpoint.h"
#include "nn/gcn.h"
#include "parallel/thread_pool.h"
#include "serve/embedding_server.h"
#include "tensor/rng.h"

namespace e2gcl {
namespace {

constexpr int kClientThreads = 4;
constexpr int kQueriesPerClient = 400;

struct BenchRecord {
  std::string name;
  int threads;
  std::int64_t batch;
  double ns_per_iter;
  double p50_us;
  double p99_us;
  double qps;
};

Graph BenchGraph() {
  SbmSpec spec;
  spec.num_nodes = 1024;
  spec.num_classes = 4;
  spec.feature_dim = 32;
  spec.avg_degree = 8;
  spec.informative_dims_per_class = 6;
  return GenerateSbm(spec, 1);
}

TrainerCheckpoint BenchCheckpoint(const Graph& g) {
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

/// Fires kClientThreads concurrent clients at the server and returns the
/// pooled per-request wall latencies in microseconds.
std::vector<double> DriveClients(EmbeddingServer& server,
                                 std::int64_t num_nodes) {
  std::vector<std::vector<double>> per_client(kClientThreads);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClientThreads; ++c) {
    clients.emplace_back([&, c] {
      Rng rng(100 + static_cast<std::uint64_t>(c));
      per_client[c].reserve(kQueriesPerClient);
      for (int q = 0; q < kQueriesPerClient; ++q) {
        const std::int64_t node = rng.UniformInt(num_nodes);
        const auto t0 = std::chrono::steady_clock::now();
        const EmbeddingResponse r =
            server.GetEmbedding(node, ServeRequestOptions{});
        const auto t1 = std::chrono::steady_clock::now();
        if (r.status != ServeStatus::kOk || r.row.empty()) std::abort();
        per_client[c].push_back(
            std::chrono::duration<double, std::micro>(t1 - t0).count());
      }
    });
  }
  for (std::thread& t : clients) t.join();
  std::vector<double> all;
  for (const auto& v : per_client) all.insert(all.end(), v.begin(), v.end());
  return all;
}

BenchRecord Summarize(const std::string& name, int threads,
                      std::int64_t batch, std::vector<double> latencies_us,
                      double wall_seconds) {
  std::sort(latencies_us.begin(), latencies_us.end());
  const std::size_t n = latencies_us.size();
  BenchRecord rec;
  rec.name = name;
  rec.threads = threads;
  rec.batch = batch;
  rec.p50_us = latencies_us[n / 2];
  rec.p99_us = latencies_us[std::min(n - 1, n * 99 / 100)];
  rec.qps = static_cast<double>(n) / wall_seconds;
  rec.ns_per_iter = wall_seconds * 1e9 / static_cast<double>(n);
  return rec;
}

/// TopKSimilar variant of DriveClients: each query asks for the 8
/// nearest nodes, the answer set that the int8 path approximates and
/// then rescores.
std::vector<double> DriveTopKClients(EmbeddingServer& server,
                                     std::int64_t num_nodes) {
  std::vector<std::vector<double>> per_client(kClientThreads);
  std::vector<std::thread> clients;
  ServeRequestOptions exact;
  exact.allow_degraded = false;
  for (int c = 0; c < kClientThreads; ++c) {
    clients.emplace_back([&, c] {
      Rng rng(200 + static_cast<std::uint64_t>(c));
      per_client[c].reserve(kQueriesPerClient);
      for (int q = 0; q < kQueriesPerClient; ++q) {
        const std::int64_t node = rng.UniformInt(num_nodes);
        const auto t0 = std::chrono::steady_clock::now();
        const TopKResponse top = server.TopKSimilar(node, 8, exact);
        const auto t1 = std::chrono::steady_clock::now();
        if (top.status != ServeStatus::kOk || top.result.nodes.empty()) {
          std::abort();
        }
        per_client[c].push_back(
            std::chrono::duration<double, std::micro>(t1 - t0).count());
      }
    });
  }
  for (std::thread& t : clients) t.join();
  std::vector<double> all;
  for (const auto& v : per_client) all.insert(all.end(), v.begin(), v.end());
  return all;
}

BenchRecord RunTopKConfig(const Graph& g, const TrainerCheckpoint& ckpt,
                          const std::string& name, int threads,
                          const ServeOptions& options) {
  SetNumThreads(threads);
  std::string error;
  auto server = EmbeddingServer::FromCheckpoint(g, ckpt, options, &error);
  if (server == nullptr) {
    std::fprintf(stderr, "bench_serve: %s\n", error.c_str());
    std::exit(1);
  }
  DriveTopKClients(*server, g.num_nodes);  // warm-up pass
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<double> lat = DriveTopKClients(*server, g.num_nodes);
  const auto t1 = std::chrono::steady_clock::now();
  return Summarize(name, threads, options.max_batch, std::move(lat),
                   std::chrono::duration<double>(t1 - t0).count());
}

/// Overload scenario: twice as many clients as admission slots, so the
/// max_queue_depth watermark sheds a fraction of admissions and
/// RetryWithBackoff recovers them. ns_per_iter is wall time per *served*
/// request — the end-to-end cost of a query under saturation, retries
/// and backoff included. The shed count goes to stderr so a silent
/// no-shedding run is visible.
BenchRecord RunOverloadConfig(const Graph& g, const TrainerCheckpoint& ckpt,
                              const std::string& name, int threads) {
  SetNumThreads(threads);
  ServeOptions options;
  options.max_batch = 16;
  options.cache_capacity = 256;  // cold regime: batches are slow enough
                                 // for the queue to actually fill
  options.max_queue_depth = 4;
  std::string error;
  auto server = EmbeddingServer::FromCheckpoint(g, ckpt, options, &error);
  if (server == nullptr) {
    std::fprintf(stderr, "bench_serve: %s\n", error.c_str());
    std::exit(1);
  }
  constexpr int kOverloadClients = 8;
  constexpr int kServedPerClient = 200;
  std::atomic<std::int64_t> shed{0};
  const auto drive = [&] {
    std::vector<std::vector<double>> per_client(kOverloadClients);
    std::vector<std::thread> clients;
    for (int c = 0; c < kOverloadClients; ++c) {
      clients.emplace_back([&, c] {
        Rng rng(300 + static_cast<std::uint64_t>(c));
        RetryPolicy policy;
        policy.max_attempts = 8;
        policy.initial_backoff_us = 50;
        per_client[c].reserve(kServedPerClient);
        for (int q = 0; q < kServedPerClient; ++q) {
          const std::int64_t node = rng.UniformInt(g.num_nodes);
          const auto t0 = std::chrono::steady_clock::now();
          EmbeddingResponse r;
          do {
            r = RetryWithBackoff(policy, [&] {
              EmbeddingResponse resp =
                  server->GetEmbedding(node, ServeRequestOptions{});
              if (resp.status == ServeStatus::kOverloaded) {
                shed.fetch_add(1, std::memory_order_relaxed);
              }
              return resp;
            });
          } while (!r.served());
          const auto t1 = std::chrono::steady_clock::now();
          if (r.row.empty()) std::abort();  // keep the call observable
          per_client[c].push_back(
              std::chrono::duration<double, std::micro>(t1 - t0).count());
        }
      });
    }
    for (std::thread& t : clients) t.join();
    std::vector<double> all;
    for (const auto& v : per_client) {
      all.insert(all.end(), v.begin(), v.end());
    }
    return all;
  };
  drive();  // warm-up pass
  shed.store(0);
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<double> lat = drive();
  const auto t1 = std::chrono::steady_clock::now();
  std::fprintf(stderr, "bench_serve: %s shed %lld of %d admissions\n",
               name.c_str(), static_cast<long long>(shed.load()),
               kOverloadClients * kServedPerClient);
  return Summarize(name, threads, options.max_batch, std::move(lat),
                   std::chrono::duration<double>(t1 - t0).count());
}

BenchRecord RunConfig(const Graph& g, const TrainerCheckpoint& ckpt,
                      const std::string& name, int threads,
                      const ServeOptions& options, bool warm) {
  SetNumThreads(threads);
  std::string error;
  auto server = EmbeddingServer::FromCheckpoint(g, ckpt, options, &error);
  if (server == nullptr) {
    std::fprintf(stderr, "bench_serve: %s\n", error.c_str());
    std::exit(1);
  }
  if (warm) DriveClients(*server, g.num_nodes);  // populate the cache
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<double> lat = DriveClients(*server, g.num_nodes);
  const auto t1 = std::chrono::steady_clock::now();
  return Summarize(name, threads, options.max_batch, std::move(lat),
                   std::chrono::duration<double>(t1 - t0).count());
}

void WriteJson(const std::vector<BenchRecord>& records, const char* path) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_serve: cannot write %s\n", path);
    std::exit(1);
  }
  std::fprintf(f, "[\n");
  for (std::size_t i = 0; i < records.size(); ++i) {
    const BenchRecord& r = records[i];
    std::fprintf(f,
                 "  {\"name\": \"%s\", \"threads\": %d, \"batch\": %lld, "
                 "\"ns_per_iter\": %.3f, \"p50_us\": %.3f, "
                 "\"p99_us\": %.3f, \"qps\": %.1f}%s\n",
                 r.name.c_str(), r.threads,
                 static_cast<long long>(r.batch), r.ns_per_iter, r.p50_us,
                 r.p99_us, r.qps, i + 1 < records.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  std::fclose(f);
  std::fprintf(stderr, "bench_serve: wrote %zu records to %s\n",
               records.size(), path);
}

}  // namespace
}  // namespace e2gcl

int main() {
  using namespace e2gcl;
  const Graph g = BenchGraph();
  const TrainerCheckpoint ckpt = BenchCheckpoint(g);
  std::vector<BenchRecord> records;

  std::printf("%-28s %8s %6s %12s %9s %9s %10s\n", "config", "threads",
              "batch", "ns/req", "p50(us)", "p99(us)", "qps");
  for (int threads : {1, 2, 4}) {
    for (std::int64_t batch : {std::int64_t{1}, std::int64_t{16},
                               std::int64_t{64}}) {
      ServeOptions lazy;
      lazy.max_batch = batch;
      // Cache below the working set: steady-state eviction + recompute.
      lazy.cache_capacity = 256;
      records.push_back(RunConfig(
          g, ckpt, "serve/lazy_cold/b" + std::to_string(batch), threads,
          lazy, /*warm=*/false));

      ServeOptions hot = lazy;
      hot.cache_capacity = 2 * g.num_nodes;  // whole graph stays resident
      records.push_back(RunConfig(
          g, ckpt, "serve/lazy_hot/b" + std::to_string(batch), threads,
          hot, /*warm=*/true));
    }
    ServeOptions pre;
    pre.precompute = true;
    pre.max_batch = 16;
    records.push_back(RunConfig(g, ckpt, "serve/precompute/b16", threads,
                                pre, /*warm=*/false));

    // Top-k similarity: exact fp32 scan vs the int8 path (approximate
    // int8 scan then exact rescore of an 8*4 candidate pool).
    ServeOptions topk = pre;
    records.push_back(
        RunTopKConfig(g, ckpt, "serve/topk_fp32/b16", threads, topk));
    topk.quantize_int8 = true;  // rescore_factor stays at the default 4
    records.push_back(
        RunTopKConfig(g, ckpt, "serve/topk_int8/b16", threads, topk));
    topk.rescore_factor = 0;  // approximate-only ranking
    records.push_back(
        RunTopKConfig(g, ckpt, "serve/topk_int8_approx/b16", threads, topk));
    for (std::size_t i = records.size() - 10; i < records.size(); ++i) {
      const BenchRecord& r = records[i];
      std::printf("%-28s %8d %6lld %12.0f %9.1f %9.1f %10.0f\n",
                  r.name.c_str(), r.threads,
                  static_cast<long long>(r.batch), r.ns_per_iter, r.p50_us,
                  r.p99_us, r.qps);
    }
  }

  // Saturated-admission scenario (load shedding + bounded retry).
  records.push_back(RunOverloadConfig(g, ckpt, "serve/overload/b16", 4));
  {
    const BenchRecord& r = records.back();
    std::printf("%-28s %8d %6lld %12.0f %9.1f %9.1f %10.0f\n",
                r.name.c_str(), r.threads, static_cast<long long>(r.batch),
                r.ns_per_iter, r.p50_us, r.p99_us, r.qps);
  }

  const char* path = std::getenv("E2GCL_BENCH_JSON");
  WriteJson(records, path != nullptr ? path : "BENCH_serve.json");
  return 0;
}
