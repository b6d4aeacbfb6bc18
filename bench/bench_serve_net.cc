// End-to-end network serving benchmark: closed-loop clients speaking
// the binary protocol over loopback TCP against a NetServer, measuring
// what the wire adds on top of the in-process serving path that
// bench_serve times (framing, CRC, syscalls, the event loop, the
// flusher's handoff back to the loop).
//
// By default the benchmark self-hosts: it builds bench_serve's 1024-node
// SBM model, starts an EmbeddingServer + NetServer on an ephemeral
// loopback port, and drives it. Set E2GCL_NET_TARGET to
// "host:port" to aim the client fleet at an already-running
// `e2gcl_serve --listen` instead — the records then measure that
// server's configuration (tools/check_perf.sh's net suite starts one
// per run from each side's own build), and query ids are drawn from
// the node count the server reports in its stats.
//
// Writes the serve_bench.h records to E2GCL_BENCH_JSON (default
// BENCH_serve_net.json).

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "io/json.h"
#include "net/client.h"
#include "net/server.h"
#include "serve/embedding_server.h"
#include "serve_bench.h"
#include "tensor/rng.h"

namespace e2gcl {
namespace {

constexpr int kClientThreads = 4;
constexpr int kQueriesPerClient = 400;

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

/// |V| of the server at host:port, from its stats JSON; 0 on failure.
std::int64_t ServedNodeCount(const std::string& host, int port) {
  std::string error;
  auto client =
      net::NetClient::Connect(host, port, net::NetClientOptions{}, &error);
  net::StatsResponse stats;
  JsonValue json;
  if (client == nullptr) {
    std::fprintf(stderr, "bench_serve_net: connect: %s\n", error.c_str());
    return 0;
  }
  if (!client->Stats(&stats)) {
    std::fprintf(stderr, "bench_serve_net: stats: %s\n",
                 client->last_error().c_str());
    return 0;
  }
  if (!ParseJson(stats.json, &json, &error)) {
    std::fprintf(stderr, "bench_serve_net: stats: %s\n", error.c_str());
    return 0;
  }
  const JsonValue* num_nodes = json.Find("num_nodes");
  return num_nodes != nullptr ? num_nodes->AsInt() : 0;
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

}  // namespace
}  // namespace e2gcl

int main(int argc, char** argv) {
  using namespace e2gcl;

  if (argc > 1) {
    std::fprintf(stderr, "usage: %s (no arguments)\n", argv[0]);
    return 2;
  }

  // Self-host unless E2GCL_NET_TARGET says otherwise. The graph outlives
  // the server that serves it.
  std::string host = "127.0.0.1";
  int port = 0;
  std::int64_t num_nodes = 0;
  Graph g;
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
    num_nodes = ServedNodeCount(host, port);
    if (num_nodes <= 0) {
      std::fprintf(stderr, "bench_serve_net: no node count from %s\n",
                   target);
      return 1;
    }
  } else {
    g = BenchGraph();
    num_nodes = g.num_nodes;
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
  PrintHeader();
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
        RunScenario(host, port, s.name, s.op, s.threads, num_nodes));
    PrintRecord(records.back());
  }

  if (netsrv != nullptr) netsrv->BeginShutdown();
  netsrv.reset();
  if (server != nullptr) server->BeginShutdown();

  WriteJson(records, "BENCH_serve_net.json");
  return 0;
}
