// Serving-path micro-benchmark: GetEmbedding throughput and latency
// through the micro-batching queue, swept over compute thread count and
// batch size, for both cache-cold (lazy, evicting) and cache-hot
// regimes plus the precompute mode; and TopKSimilar on the exact fp32
// path (the norm-ordered scan, which stops a query once no unscanned
// row can enter its answer) against the int8 scan, which reads every
// row to pick a 4k candidate pool and rescores it exactly.
//
// Writes BENCH_serve.json, an array of the serve_bench.h records, which
// tools/check_perf.sh's serve suite gates at a 50% bound over 10
// alternating pairs. Set E2GCL_BENCH_JSON to change the output path.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "parallel/thread_pool.h"
#include "serve/embedding_server.h"
#include "serve_bench.h"
#include "tensor/rng.h"

namespace e2gcl {
namespace {

constexpr int kClientThreads = 4;
constexpr int kQueriesPerClient = 400;

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

/// TopKSimilar variant of DriveClients: each query asks for the 8
/// nearest nodes.
std::vector<double> DriveTopKClients(EmbeddingServer& server,
                                     std::int64_t num_nodes) {
  std::vector<std::vector<double>> per_client(kClientThreads);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClientThreads; ++c) {
    clients.emplace_back([&, c] {
      Rng rng(200 + static_cast<std::uint64_t>(c));
      per_client[c].reserve(kQueriesPerClient);
      for (int q = 0; q < kQueriesPerClient; ++q) {
        const std::int64_t node = rng.UniformInt(num_nodes);
        const auto t0 = std::chrono::steady_clock::now();
        const TopKResponse top =
            server.TopKSimilar(node, 8, ServeRequestOptions{});
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

}  // namespace
}  // namespace e2gcl

int main() {
  using namespace e2gcl;
  const Graph g = BenchGraph();
  const TrainerCheckpoint ckpt = BenchCheckpoint(g);
  std::vector<BenchRecord> records;

  PrintHeader();
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

    // Top-k similarity: exact fp32 scan vs the int8 path (int8 scan
    // then exact rescore of an 8*4 candidate pool).
    ServeOptions topk = pre;
    records.push_back(
        RunTopKConfig(g, ckpt, "serve/topk_fp32/b16", threads, topk));
    topk.quantize_int8 = true;
    records.push_back(
        RunTopKConfig(g, ckpt, "serve/topk_int8/b16", threads, topk));
    for (std::size_t i = records.size() - 9; i < records.size(); ++i) {
      PrintRecord(records[i]);
    }
  }

  // Saturated-admission scenario (load shedding + bounded retry).
  records.push_back(RunOverloadConfig(g, ckpt, "serve/overload/b16", 4));
  PrintRecord(records.back());
  WriteJson(records, "BENCH_serve.json");
  return 0;
}
