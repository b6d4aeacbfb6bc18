// End-to-end network serving benchmark: closed-loop clients speaking
// the binary protocol over loopback TCP against a NetServer, measuring
// what the wire adds on top of the in-process serving path that
// bench_serve times (framing, CRC, syscalls, the event loop, the
// flusher's handoff back to the loop).
//
// By default the benchmark self-hosts: it builds the same 1024-node SBM
// model as bench_serve, starts an EmbeddingServer + NetServer on an
// ephemeral loopback port, and drives it. Set E2GCL_NET_TARGET to
// "host:port" to aim the client fleet at an already-running
// `e2gcl_serve --listen` instead — the records then measure that
// server's configuration, so baseline and candidate must come from
// the same flow (tools/check_net.sh keeps the two in lockstep).
//
// Writes the same BenchRecord schema as bench_serve —
//   {"name", "threads", "batch", "ns_per_iter", "p50_us", "p99_us",
//    "qps"}
// — to E2GCL_BENCH_JSON (default BENCH_serve_net.json), so
// tools/bench_compare can gate net/ records against the committed
// bench/BENCH_serve.json alongside the in-process ones.
//
// With --merge-into PATH the fresh net/ records are spliced into an
// existing bench JSON array (replacing any previous net/ records,
// leaving the serve/ ones untouched); tools/check_net.sh --rebaseline
// uses this to refresh the committed baseline in place.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "graph/generators.h"
#include "io/checkpoint.h"
#include "io/json.h"
#include "net/client.h"
#include "net/server.h"
#include "nn/gcn.h"
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

enum class Op { kEmbed, kScore, kTopK };

/// One closed-loop client fleet: `threads` threads, each with its own
/// NetClient (the client is intentionally not thread-safe), firing
/// kQueriesPerClient requests of `op` back to back. Returns the pooled
/// per-request wall latencies in microseconds.
std::vector<double> DriveNetClients(const std::string& host, int port,
                                    Op op, int threads,
                                    std::int64_t num_nodes) {
  std::vector<std::vector<double>> per_client(
      static_cast<std::size_t>(threads));
  std::vector<std::thread> clients;
  for (int c = 0; c < threads; ++c) {
    clients.emplace_back([&, c] {
      std::string error;
      net::NetClientOptions copts;
      auto client = net::NetClient::Connect(host, port, copts, &error);
      if (client == nullptr) {
        std::fprintf(stderr, "bench_serve_net: connect: %s\n",
                     error.c_str());
        std::abort();
      }
      Rng rng(400 + static_cast<std::uint64_t>(c));
      auto& lat = per_client[static_cast<std::size_t>(c)];
      lat.reserve(kQueriesPerClient);
      for (int q = 0; q < kQueriesPerClient; ++q) {
        const std::int64_t node = rng.UniformInt(num_nodes);
        const auto t0 = std::chrono::steady_clock::now();
        bool ok = false;
        switch (op) {
          case Op::kEmbed: {
            const EmbeddingResponse r = client->GetEmbedding(node);
            ok = r.served() && !r.row.empty();
            break;
          }
          case Op::kScore: {
            const std::int64_t other = rng.UniformInt(num_nodes);
            const ScoreResponse r = client->ScoreLink(node, other);
            ok = r.served();
            break;
          }
          case Op::kTopK: {
            const TopKResponse r = client->TopKSimilar(node, 8);
            ok = r.served() && !r.result.nodes.empty();
            break;
          }
        }
        const auto t1 = std::chrono::steady_clock::now();
        if (!ok) {
          std::fprintf(stderr, "bench_serve_net: request failed: %s\n",
                       client->last_error().c_str());
          std::abort();
        }
        lat.push_back(
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

BenchRecord RunScenario(const std::string& host, int port,
                        const std::string& name, Op op, int threads,
                        std::int64_t num_nodes) {
  DriveNetClients(host, port, op, threads, num_nodes);  // warm-up pass
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<double> lat =
      DriveNetClients(host, port, op, threads, num_nodes);
  const auto t1 = std::chrono::steady_clock::now();
  return Summarize(name, threads, /*batch=*/16, std::move(lat),
                   std::chrono::duration<double>(t1 - t0).count());
}

void WriteJson(const std::vector<BenchRecord>& records, const char* path) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_serve_net: cannot write %s\n", path);
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
  std::fprintf(stderr, "bench_serve_net: wrote %zu records to %s\n",
               records.size(), path);
}

/// Splices the fresh net/ records into the bench JSON at `path`:
/// existing records keep their order, previous net/ records are
/// replaced, and anything else (the serve/ sweep) is untouched.
int MergeInto(const std::vector<BenchRecord>& records,
              const std::string& path) {
  JsonValue doc;
  std::string error;
  if (!LoadJsonFile(path, &doc, &error) || !doc.is_array()) {
    std::fprintf(stderr, "bench_serve_net: --merge-into %s: %s\n",
                 path.c_str(), error.empty() ? "not an array" : error.c_str());
    return 1;
  }
  JsonValue merged = JsonValue::Array();
  for (const JsonValue& item : doc.items()) {
    const JsonValue* name = item.Find("name");
    if (name != nullptr && name->is_string() &&
        name->AsString().rfind("net/", 0) == 0) {
      continue;  // replaced below
    }
    merged.Append(item);
  }
  for (const BenchRecord& r : records) {
    JsonValue obj = JsonValue::Object();
    obj.Set("name", JsonValue::Str(r.name));
    obj.Set("threads", JsonValue::Int(r.threads));
    obj.Set("batch", JsonValue::Int(r.batch));
    obj.Set("ns_per_iter", JsonValue::Double(r.ns_per_iter));
    obj.Set("p50_us", JsonValue::Double(r.p50_us));
    obj.Set("p99_us", JsonValue::Double(r.p99_us));
    obj.Set("qps", JsonValue::Double(r.qps));
    merged.Append(std::move(obj));
  }
  if (!WriteJsonFile(path, merged)) {
    std::fprintf(stderr, "bench_serve_net: cannot rewrite %s\n",
                 path.c_str());
    return 1;
  }
  std::fprintf(stderr, "bench_serve_net: merged %zu net/ records into %s\n",
               records.size(), path.c_str());
  return 0;
}

}  // namespace
}  // namespace e2gcl

int main(int argc, char** argv) {
  using namespace e2gcl;

  std::string merge_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--merge-into") == 0 && i + 1 < argc) {
      merge_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--merge-into BENCH.json]\n", argv[0]);
      return 2;
    }
  }

  const Graph g = BenchGraph();

  // Self-host unless E2GCL_NET_TARGET says otherwise.
  std::string host = "127.0.0.1";
  int port = 0;
  std::unique_ptr<EmbeddingServer> server;
  std::unique_ptr<net::NetServer> netsrv;
  const char* target = std::getenv("E2GCL_NET_TARGET");
  if (target != nullptr && target[0] != '\0') {
    const std::string spec(target);
    const std::size_t colon = spec.rfind(':');
    if (colon == std::string::npos) {
      std::fprintf(stderr,
                   "bench_serve_net: E2GCL_NET_TARGET must be host:port\n");
      return 2;
    }
    host = spec.substr(0, colon);
    port = std::atoi(spec.c_str() + colon + 1);
  } else {
    const TrainerCheckpoint ckpt = BenchCheckpoint(g);
    ServeOptions options;
    options.precompute = true;  // measure the wire, not the encoder
    options.max_batch = 16;
    std::string error;
    server = EmbeddingServer::FromCheckpoint(g, ckpt, options, &error);
    if (server == nullptr) {
      std::fprintf(stderr, "bench_serve_net: %s\n", error.c_str());
      return 1;
    }
    netsrv = net::NetServer::Start(server.get(), net::NetServerOptions{},
                                   &error);
    if (netsrv == nullptr) {
      std::fprintf(stderr, "bench_serve_net: %s\n", error.c_str());
      return 1;
    }
    port = netsrv->port();
  }

  std::vector<BenchRecord> records;
  std::printf("%-28s %8s %6s %12s %9s %9s %10s\n", "config", "threads",
              "batch", "ns/req", "p50(us)", "p99(us)", "qps");
  const struct {
    const char* name;
    Op op;
    int threads;
  } kScenarios[] = {
      {"net/embed/b16", Op::kEmbed, 1},
      {"net/embed/b16", Op::kEmbed, kClientThreads},
      {"net/score/b16", Op::kScore, kClientThreads},
      {"net/topk/b16", Op::kTopK, kClientThreads},
  };
  for (const auto& s : kScenarios) {
    records.push_back(
        RunScenario(host, port, s.name, s.op, s.threads, g.num_nodes));
    const BenchRecord& r = records.back();
    std::printf("%-28s %8d %6lld %12.0f %9.1f %9.1f %10.0f\n",
                r.name.c_str(), r.threads,
                static_cast<long long>(r.batch), r.ns_per_iter, r.p50_us,
                r.p99_us, r.qps);
  }

  if (netsrv != nullptr) netsrv->BeginShutdown();
  netsrv.reset();
  if (server != nullptr) server->BeginShutdown();

  if (!merge_path.empty()) return MergeInto(records, merge_path);
  const char* path = std::getenv("E2GCL_BENCH_JSON");
  WriteJson(records, path != nullptr ? path : "BENCH_serve_net.json");
  return 0;
}
