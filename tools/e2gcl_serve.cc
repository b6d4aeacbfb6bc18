// Embedding-serving driver: load (or freshly pre-train) a checkpoint,
// stand up an EmbeddingServer, and answer ad-hoc queries from the
// command line.
//
// Usage:
//   e2gcl_serve --checkpoint ckpt.e2gcl [--dataset cora] --embed 12
//   e2gcl_serve --train --epochs 20 --topk 12,5 --score 3,77 --stats
//
// The server path is the same one the tests and bench_serve exercise:
// queries flow through the micro-batching queue and (in lazy mode) the
// sharded LRU row cache, and answers are bit-identical to the offline
// Encode() rows.

#include <csignal>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/trainer.h"
#include "flag_parse.h"
#include "graph/datasets.h"
#include "io/checkpoint.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "serve/embedding_server.h"

namespace {

void Usage(const char* prog) {
  std::fprintf(
      stderr,
      "usage: %s [options]\n"
      "model source (exactly one):\n"
      "  --checkpoint <path>      serve this trainer checkpoint "
      "(validated: magic/version/CRC)\n"
      "  --train                  pre-train a fresh E2GCL encoder first\n"
      "graph:\n"
      "  --dataset <name>         cora|citeseer|photo|computers|cs|arxiv|"
      "products (default cora)\n"
      "  --scale <float>          dataset size multiplier in (0, 1] "
      "(default 1.0)\n"
      "  --seed <uint64>          RNG seed (default 1)\n"
      "  --epochs <int>           pre-training epochs with --train "
      "(default 20)\n"
      "serving:\n"
      "  --precompute             materialize all embeddings at load time\n"
      "  --cache-capacity <int>   lazy-mode row cache budget (default "
      "4096)\n"
      "  --cache-shards <int>     cache shard count (default 8)\n"
      "  --max-batch <int>        micro-batch size bound (default 32)\n"
      "  --quantize-int8          serve TopKSimilar from a 4x-smaller "
      "int8 table\n"
      "  --rescore-factor <int>   exact-rescore pool = k * this "
      "(>= 1; default 4)\n"
      "  --fingerprint <uint64>   refuse checkpoints with a different "
      "config fingerprint\n"
      "robustness:\n"
      "  --max-queue-depth <int>  admission watermark; requests beyond it "
      "fail fast as overloaded (default 4096)\n"
      "  --degrade-watermark <int> answer TopK approximately (flagged "
      "degraded) at this queue depth; 0 = off, needs --quantize-int8\n"
      "  --request-deadline-us <int> per-query deadline; expired queries "
      "fail fast as deadline_exceeded (0 = wait; default 0)\n"
      "  --no-degraded            never accept degraded TopK answers\n"
      "network (see DESIGN.md \"Network protocol\"):\n"
      "  --listen <port>          serve the binary protocol + HTTP "
      "/healthz,/metrics over TCP until SIGINT/SIGTERM (port 0 = "
      "ephemeral; the bound port is printed on stdout). Incompatible "
      "with one-shot query flags\n"
      "  --bind <addr>            listen address (default 127.0.0.1)\n"
      "  --max-conns <int>        simultaneous-connection cap (default "
      "1024; needs --listen)\n"
      "  --rate-limit-qps <float> per-connection sustained request rate; "
      "0 = unlimited (default 0; needs --listen)\n"
      "queries (repeatable, answered in order):\n"
      "  --embed <node>           print the node's embedding row\n"
      "  --score <u,v>            print the dot-product link score\n"
      "  --topk <node,k>          print the k most similar nodes\n"
      "  --reload-checkpoint <path> hot-reload this checkpoint (zero "
      "downtime), then keep answering\n"
      "  --stats                  print serve.* metrics before exit\n",
      prog);
}

/// Parses "a,b" into two non-negative integers.
bool ParsePair(const char* s, long long* a, long long* b) {
  if (s == nullptr) return false;
  const char* comma = std::strchr(s, ',');
  if (comma == nullptr) return false;
  const std::string first(s, comma);
  return ParseInt(first.c_str(), 0, (1ll << 62), a) &&
         ParseInt(comma + 1, 0, (1ll << 62), b);
}

struct Query {
  enum class Kind { kEmbed, kScore, kTopK, kReload } kind;
  long long a = 0;
  long long b = 0;
  std::string path;  // kReload only.
};

volatile std::sig_atomic_t g_stop = 0;

void HandleStop(int) { g_stop = 1; }

}  // namespace

int main(int argc, char** argv) {
  using e2gcl::EmbeddingServer;
  std::string checkpoint_path;
  bool train = false;
  std::string dataset = "cora";
  double scale = 1.0;
  std::uint64_t seed = 1;
  long long epochs = 20;
  bool stats = false;
  long long deadline_us = 0;
  bool allow_degraded = true;
  e2gcl::ServeOptions options;
  std::vector<Query> queries;
  long long listen_port = -1;  // -1 = no --listen
  e2gcl::net::NetServerOptions net_options;
  bool net_flags_used = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return (i + 1 < argc) ? argv[++i] : nullptr;
    };
    long long v = 0, w = 0;
    if (arg == "--checkpoint" && (checkpoint_path = next() ? argv[i] : "",
                                  !checkpoint_path.empty())) {
    } else if (arg == "--train") {
      train = true;
    } else if (arg == "--dataset" &&
               (dataset = next() ? argv[i] : "",
                e2gcl::FindDatasetSpec(dataset).has_value())) {
    } else if (arg == "--scale" && ParseDouble(next(), &scale) &&
               scale > 0 && scale <= 1.0) {
    } else if (arg == "--seed" && ParseU64(next(), &seed)) {
    } else if (arg == "--epochs" && ParseInt(next(), 1, 100000, &epochs)) {
    } else if (arg == "--precompute") {
      options.precompute = true;
    } else if (arg == "--cache-capacity" &&
               ParseInt(next(), 1, (1ll << 40), &v)) {
      options.cache_capacity = v;
    } else if (arg == "--cache-shards" && ParseInt(next(), 1, 4096, &v)) {
      options.cache_shards = static_cast<int>(v);
    } else if (arg == "--max-batch" && ParseInt(next(), 1, 100000, &v)) {
      options.max_batch = v;
    } else if (arg == "--quantize-int8") {
      options.quantize_int8 = true;
    } else if (arg == "--rescore-factor") {
      if (!ParseInt(next(), -100000, 100000, &v) || v < 1) {
        std::fprintf(stderr, "--rescore-factor must be an integer >= 1\n");
        Usage(argv[0]);
        return 2;
      }
      options.rescore_factor = v;
    } else if (arg == "--max-queue-depth" &&
               ParseInt(next(), 1, (1ll << 40), &v)) {
      options.max_queue_depth = v;
    } else if (arg == "--degrade-watermark" &&
               ParseInt(next(), 0, (1ll << 40), &v)) {
      options.degrade_watermark = v;
    } else if (arg == "--request-deadline-us" &&
               ParseInt(next(), 0, (1ll << 40), &v)) {
      deadline_us = v;
    } else if (arg == "--no-degraded") {
      allow_degraded = false;
    } else if (arg == "--reload-checkpoint") {
      const char* path = next();
      if (path == nullptr || *path == '\0') {
        std::fprintf(stderr, "--reload-checkpoint needs a file path\n");
        Usage(argv[0]);
        return 2;
      }
      queries.push_back({Query::Kind::kReload, 0, 0, path});
    } else if (arg == "--fingerprint" &&
               ParseU64(next(), &options.expected_fingerprint)) {
    } else if (arg == "--embed" && ParseInt(next(), 0, (1ll << 62), &v)) {
      queries.push_back({Query::Kind::kEmbed, v, 0, {}});
    } else if (arg == "--score" && ParsePair(next(), &v, &w)) {
      queries.push_back({Query::Kind::kScore, v, w, {}});
    } else if (arg == "--topk" && ParsePair(next(), &v, &w)) {
      queries.push_back({Query::Kind::kTopK, v, w, {}});
    } else if (arg == "--stats") {
      stats = true;
    } else if (arg == "--listen") {
      if (!ParseInt(next(), 0, 65535, &listen_port)) {
        std::fprintf(stderr, "--listen needs a port in [0, 65535]\n");
        Usage(argv[0]);
        return 2;
      }
    } else if (arg == "--bind") {
      const char* addr = next();
      if (addr == nullptr || *addr == '\0') {
        std::fprintf(stderr, "--bind needs an IPv4 address\n");
        Usage(argv[0]);
        return 2;
      }
      net_options.bind_address = addr;
      net_flags_used = true;
    } else if (arg == "--max-conns") {
      if (!ParseInt(next(), 1, (1ll << 30), &v)) {
        std::fprintf(stderr, "--max-conns must be an integer >= 1\n");
        Usage(argv[0]);
        return 2;
      }
      net_options.max_conns = v;
      net_flags_used = true;
    } else if (arg == "--rate-limit-qps") {
      double qps = 0.0;
      if (!ParseDouble(next(), &qps) || qps < 0.0) {
        std::fprintf(stderr,
                     "--rate-limit-qps must be a non-negative number "
                     "(0 = unlimited)\n");
        Usage(argv[0]);
        return 2;
      }
      net_options.rate_limit_qps = qps;
      net_flags_used = true;
    } else {
      std::fprintf(stderr, "bad or incomplete flag: %s\n", arg.c_str());
      Usage(argv[0]);
      return 2;
    }
  }
  if (train == !checkpoint_path.empty()) {
    std::fprintf(stderr,
                 "exactly one of --train / --checkpoint is required\n");
    Usage(argv[0]);
    return 2;
  }
  if (listen_port < 0 && net_flags_used) {
    std::fprintf(stderr,
                 "--bind/--max-conns/--rate-limit-qps require --listen\n");
    Usage(argv[0]);
    return 2;
  }
  if (listen_port >= 0 && (!queries.empty() || stats)) {
    std::fprintf(stderr,
                 "--listen runs as a network server; one-shot query flags "
                 "(--embed/--score/--topk/--reload-checkpoint/--stats) "
                 "cannot be combined with it\n");
    Usage(argv[0]);
    return 2;
  }
  if (options.degrade_watermark > 0 && !options.quantize_int8) {
    std::fprintf(stderr,
                 "--degrade-watermark requires --quantize-int8 (degraded "
                 "answers come from the int8 table)\n");
    Usage(argv[0]);
    return 2;
  }

  const e2gcl::Graph graph =
      e2gcl::LoadDatasetScaled(dataset, scale, seed);
  std::fprintf(stderr, "loaded %s: %lld nodes, %lld features\n",
               dataset.c_str(), static_cast<long long>(graph.num_nodes),
               static_cast<long long>(graph.feature_dim()));

  std::string error;
  std::unique_ptr<EmbeddingServer> server;
  if (train) {
    e2gcl::E2gclConfig config;
    config.epochs = static_cast<int>(epochs);
    config.seed = seed;
    e2gcl::E2gclTrainer trainer(graph, config);
    const e2gcl::TrainResult result = trainer.Train();
    if (!result.ok()) {
      std::fprintf(stderr, "pre-training failed: %s\n",
                   result.message.c_str());
      return 1;
    }
    e2gcl::TrainerCheckpoint ckpt;
    ckpt.epoch = config.epochs - 1;
    ckpt.config_fingerprint = trainer.ConfigFingerprint();
    ckpt.encoder_params = trainer.encoder().params().CloneValues();
    server = EmbeddingServer::FromCheckpoint(graph, ckpt, options, &error);
  } else {
    server = EmbeddingServer::Load(graph, checkpoint_path, options, &error);
  }
  if (server == nullptr) {
    std::fprintf(stderr, "failed to start server: %s\n", error.c_str());
    return 1;
  }
  std::printf("serving %lld nodes, embed_dim=%lld, mode=%s\n",
              static_cast<long long>(server->num_nodes()),
              static_cast<long long>(server->embed_dim()),
              options.precompute ? "precompute" : "lazy");

  if (listen_port >= 0) {
    net_options.port = static_cast<int>(listen_port);
    std::unique_ptr<e2gcl::net::NetServer> net =
        e2gcl::net::NetServer::Start(server.get(), net_options, &error);
    if (net == nullptr) {
      std::fprintf(stderr, "failed to listen: %s\n", error.c_str());
      return 1;
    }
    std::signal(SIGINT, HandleStop);
    std::signal(SIGTERM, HandleStop);
    // The port line is the machine-readable startup handshake
    // (check_net.sh and the tests parse it), hence stdout + flush.
    std::printf("listening on port %d\n", net->port());
    std::fflush(stdout);
    while (g_stop == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    std::fprintf(stderr, "shutting down\n");
    net->BeginShutdown();
    net.reset();           // drains connections, joins net threads
    server->BeginShutdown();
    return 0;
  }

  e2gcl::ServeRequestOptions request;
  request.deadline_us = deadline_us;
  request.allow_degraded = allow_degraded;
  for (const Query& q : queries) {
    if (q.kind != Query::Kind::kReload &&
        (q.a >= server->num_nodes() ||
         (q.kind == Query::Kind::kScore && q.b >= server->num_nodes()))) {
      std::fprintf(stderr, "query node out of range (have %lld nodes)\n",
                   static_cast<long long>(server->num_nodes()));
      return 1;
    }
    switch (q.kind) {
      case Query::Kind::kEmbed: {
        const e2gcl::EmbeddingResponse r = server->GetEmbedding(q.a, request);
        if (!r.served()) {
          std::printf("embed %lld: !%s\n", q.a, ServeStatusName(r.status));
          break;
        }
        std::printf("embed %lld:", q.a);
        for (float x : r.row) std::printf(" %.6g", static_cast<double>(x));
        std::printf("\n");
        break;
      }
      case Query::Kind::kScore: {
        const e2gcl::ScoreResponse r = server->ScoreLink(q.a, q.b, request);
        if (!r.served()) {
          std::printf("score %lld,%lld: !%s\n", q.a, q.b,
                      ServeStatusName(r.status));
          break;
        }
        std::printf("score %lld,%lld: %.6g\n", q.a, q.b,
                    static_cast<double>(r.score));
        break;
      }
      case Query::Kind::kTopK: {
        const e2gcl::TopKResponse r = server->TopKSimilar(q.a, q.b, request);
        if (!r.served()) {
          std::printf("topk %lld (k=%lld): !%s\n", q.a, q.b,
                      ServeStatusName(r.status));
          break;
        }
        std::printf("topk %lld (k=%lld)%s:", q.a, q.b,
                    r.status == e2gcl::ServeStatus::kDegraded ? " [degraded]"
                                                              : "");
        for (std::size_t i = 0; i < r.result.nodes.size(); ++i) {
          std::printf(" %lld=%.6g",
                      static_cast<long long>(r.result.nodes[i]),
                      static_cast<double>(r.result.scores[i]));
        }
        std::printf("\n");
        break;
      }
      case Query::Kind::kReload: {
        const e2gcl::ServeStatus status =
            server->ReloadFromFile(q.path, &error);
        if (status != e2gcl::ServeStatus::kOk) {
          std::fprintf(stderr, "reload %s failed (%s): %s\n", q.path.c_str(),
                       ServeStatusName(status), error.c_str());
          return 1;
        }
        std::printf("reloaded %s: generation=%llu\n", q.path.c_str(),
                    static_cast<unsigned long long>(server->generation()));
        break;
      }
    }
  }

  if (stats) {
    const e2gcl::MetricsSnapshot snap =
        e2gcl::MetricsRegistry::Get().Snapshot();
    for (const auto& [name, value] : snap.counters) {
      if (name.rfind("serve.", 0) == 0) {
        std::printf("%s %llu\n", name.c_str(),
                    static_cast<unsigned long long>(value));
      }
    }
  }
  return 0;
}
