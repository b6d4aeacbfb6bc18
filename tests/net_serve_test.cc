// End-to-end serving over TCP: responses fetched through the NetClient
// must be byte-identical to direct in-process EmbeddingServer calls —
// across serving configs (lazy, precompute, int8+rescore), under
// concurrent client threads, and through a hot checkpoint reload with
// zero failed queries. Load-shedding (per-connection rate limits, the
// connection cap) must be observable through typed responses and net.*
// counters.
// Registered as a TSAN/ASAN target in check_sanitizers.sh.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "graph/generators.h"
#include "io/checkpoint.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "nn/gcn.h"
#include "obs/metrics.h"
#include "serve/embedding_server.h"
#include "serve_test_util.h"

namespace e2gcl {
namespace net {
namespace {

Graph ServeGraph(std::uint64_t seed = 7) {
  SbmSpec spec;
  spec.num_nodes = 120;
  spec.num_classes = 3;
  spec.feature_dim = 16;
  spec.avg_degree = 6;
  spec.informative_dims_per_class = 4;
  return GenerateSbm(spec, seed);
}

GcnConfig ServeEncoderConfig(const Graph& g) {
  GcnConfig cfg;
  cfg.dims = {g.feature_dim(), 12, 8};
  return cfg;
}

/// Different seeds give different-weight checkpoints with the same
/// fingerprint — the raw material for hot-reload tests.
TrainerCheckpoint MakeCheckpoint(const Graph& g, std::uint64_t seed = 3) {
  Rng rng(seed);
  GcnEncoder encoder(ServeEncoderConfig(g), rng);
  TrainerCheckpoint ckpt;
  ckpt.epoch = 0;
  ckpt.config_fingerprint = 0xfeedULL;
  ckpt.encoder_params = encoder.params().CloneValues();
  return ckpt;
}

std::uint64_t CounterValue(const std::string& name) {
  return MetricsRegistry::Get().Snapshot().counter(name);
}

/// Serving stack builder: EmbeddingServer (per ServeOptions) fronted by
/// a NetServer on an ephemeral loopback port.
struct Stack {
  std::unique_ptr<Graph> graph;
  std::unique_ptr<EmbeddingServer> server;
  std::unique_ptr<NetServer> net;

  Stack() = default;
  Stack(Stack&&) = default;
  Stack& operator=(Stack&&) = default;

  ~Stack() {
    net.reset();  // the net front-end must die before the server
    server.reset();
  }
};

Stack MakeStack(const ServeOptions& serve_options = {},
                NetServerOptions net_options = {}) {
  Stack s;
  s.graph = std::make_unique<Graph>(ServeGraph());
  std::string error;
  s.server = EmbeddingServer::FromCheckpoint(
      *s.graph, MakeCheckpoint(*s.graph), serve_options, &error);
  EXPECT_NE(s.server, nullptr) << error;
  if (s.server == nullptr) return s;
  s.net = NetServer::Start(s.server.get(), net_options, &error);
  EXPECT_NE(s.net, nullptr) << error;
  return s;
}

std::unique_ptr<NetClient> Dial(const Stack& s) {
  std::string error;
  auto client = NetClient::Connect("127.0.0.1", s.net->port(), {}, &error);
  EXPECT_NE(client, nullptr) << error;
  return client;
}

/// Every query type through the wire vs the same server called
/// directly: rows, scores, and TopK results must match bit for bit
/// (same instance, same generation, so exact equality is the spec).
void ExpectByteIdentical(const Stack& s) {
  auto client = Dial(s);
  ASSERT_NE(client, nullptr);
  const ServeRequestOptions options;
  for (std::int64_t node = 0; node < 24; ++node) {
    const EmbeddingResponse got = client->GetEmbedding(node, options);
    const EmbeddingResponse want = s.server->GetEmbedding(node, options);
    ASSERT_EQ(got.status, ServeStatus::kOk) << client->last_error();
    ASSERT_EQ(want.status, ServeStatus::kOk);
    ASSERT_EQ(got.generation, want.generation);
    ASSERT_EQ(got.row.size(), want.row.size());
    ASSERT_EQ(std::memcmp(got.row.data(), want.row.data(),
                          got.row.size() * sizeof(float)),
              0)
        << "node " << node;
  }
  for (std::int64_t u = 0; u < 12; ++u) {
    const ScoreResponse got = client->ScoreLink(u, u + 1, options);
    const ScoreResponse want = s.server->ScoreLink(u, u + 1, options);
    ASSERT_EQ(got.status, ServeStatus::kOk) << client->last_error();
    ASSERT_EQ(std::memcmp(&got.score, &want.score, sizeof(float)), 0)
        << "edge " << u;
  }
  for (std::int64_t node = 0; node < 12; ++node) {
    const TopKResponse got = client->TopKSimilar(node, 5, options);
    const TopKResponse want = s.server->TopKSimilar(node, 5, options);
    ASSERT_TRUE(got.served()) << client->last_error();
    ASSERT_EQ(got.status, want.status);
    ASSERT_EQ(got.result.nodes, want.result.nodes) << "node " << node;
    ASSERT_EQ(got.result.scores.size(), want.result.scores.size());
    ASSERT_EQ(std::memcmp(got.result.scores.data(),
                          want.result.scores.data(),
                          got.result.scores.size() * sizeof(float)),
              0)
        << "node " << node;
  }
}

// --- Byte identity across serving configs. ---------------------------------

TEST(NetServe, ByteIdenticalLazyMode) {
  Stack s = MakeStack();
  ASSERT_NE(s.net, nullptr);
  ExpectByteIdentical(s);
}

TEST(NetServe, ByteIdenticalPrecomputeMode) {
  ServeOptions options;
  options.precompute = true;
  Stack s = MakeStack(options);
  ASSERT_NE(s.net, nullptr);
  ExpectByteIdentical(s);
}

TEST(NetServe, ByteIdenticalInt8RescoreMode) {
  ServeOptions options;
  options.precompute = true;
  options.quantize_int8 = true;
  Stack s = MakeStack(options);
  ASSERT_NE(s.net, nullptr);
  ExpectByteIdentical(s);
}

TEST(NetServe, ByteIdenticalOnPollBackend) {
  // poll(2) is the server's only event loop, so the default stack is
  // the poll backend.
  Stack s = MakeStack();
  ASSERT_NE(s.net, nullptr);
  ExpectByteIdentical(s);
}

// --- Stats over the wire. --------------------------------------------------

TEST(NetServe, StatsCarriesModelShapeAndCounters) {
  Stack s = MakeStack();
  ASSERT_NE(s.net, nullptr);
  auto client = Dial(s);
  ASSERT_NE(client, nullptr);
  StatsResponse stats;
  ASSERT_TRUE(client->Stats(&stats)) << client->last_error();
  EXPECT_EQ(stats.status, ServeStatus::kOk);
  EXPECT_NE(stats.json.find("\"num_nodes\":120"), std::string::npos)
      << stats.json;
  EXPECT_NE(stats.json.find("\"embed_dim\":8"), std::string::npos)
      << stats.json;
  EXPECT_NE(stats.json.find("\"generation\""), std::string::npos);
  EXPECT_NE(stats.json.find("net.requests"), std::string::npos);
}

// --- Concurrency. ----------------------------------------------------------

TEST(NetServe, ConcurrentClientsAllByteIdentical) {
  Stack s = MakeStack();
  ASSERT_NE(s.net, nullptr);
  constexpr int kThreads = 8;
  constexpr int kQueriesPerThread = 40;
  // Direct answers first; the server is deterministic per generation,
  // so these are the byte-exact expectations for every thread.
  std::vector<EmbeddingResponse> want_embed;
  std::vector<TopKResponse> want_topk;
  for (std::int64_t node = 0; node < 10; ++node) {
    want_embed.push_back(s.server->GetEmbedding(node, {}));
    want_topk.push_back(s.server->TopKSimilar(node, 4, {}));
  }
  std::atomic<int> mismatches{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto client = Dial(s);
      if (client == nullptr) {
        failures.fetch_add(1);
        return;
      }
      for (int q = 0; q < kQueriesPerThread; ++q) {
        const std::int64_t node = (t * 7 + q) % 10;
        if (q % 2 == 0) {
          const EmbeddingResponse got = client->GetEmbedding(node);
          if (got.status != ServeStatus::kOk) {
            failures.fetch_add(1);
            return;
          }
          if (got.row != want_embed[node].row) mismatches.fetch_add(1);
        } else {
          const TopKResponse got = client->TopKSimilar(node, 4);
          if (got.status != ServeStatus::kOk) {
            failures.fetch_add(1);
            return;
          }
          if (got.result.nodes != want_topk[node].result.nodes ||
              got.result.scores != want_topk[node].result.scores) {
            mismatches.fetch_add(1);
          }
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
}

// --- Load shedding, observable. --------------------------------------------

TEST(NetServe, RateLimitedRequestsGetOverloadedAndAreCounted) {
  NetServerOptions net_options;
  // Refill is ~1 token per 1000s: deterministically, exactly the burst
  // (max(1, qps) = 1) is served and everything after is shed at the
  // socket layer.
  net_options.rate_limit_qps = 0.001;
  Stack s = MakeStack({}, net_options);
  ASSERT_NE(s.net, nullptr);
  const std::uint64_t limited_before = CounterValue("net.rate_limited");
  auto client = Dial(s);
  ASSERT_NE(client, nullptr);
  int served = 0;
  int overloaded = 0;
  for (int i = 0; i < 10; ++i) {
    const EmbeddingResponse r = client->GetEmbedding(3);
    if (r.status == ServeStatus::kOk) ++served;
    if (r.status == ServeStatus::kOverloaded) ++overloaded;
  }
  EXPECT_EQ(served, 1);
  EXPECT_EQ(overloaded, 9);
  EXPECT_EQ(CounterValue("net.rate_limited") - limited_before, 9u);
  // The rejections are per-connection: a fresh connection gets a fresh
  // bucket and is served again.
  auto fresh = Dial(s);
  ASSERT_NE(fresh, nullptr);
  EXPECT_EQ(fresh->GetEmbedding(3).status, ServeStatus::kOk);
}

TEST(NetServe, ConnectionCapRejectsWithTypedErrorFrame) {
  NetServerOptions net_options;
  net_options.max_conns = 2;
  Stack s = MakeStack({}, net_options);
  ASSERT_NE(s.net, nullptr);
  const std::uint64_t rejected_before = CounterValue("net.conn.rejected");
  auto first = Dial(s);
  auto second = Dial(s);
  ASSERT_NE(first, nullptr);
  ASSERT_NE(second, nullptr);
  // Make both connections real (accepted, not just SYN-queued).
  ASSERT_EQ(first->GetEmbedding(1).status, ServeStatus::kOk);
  ASSERT_EQ(second->GetEmbedding(1).status, ServeStatus::kOk);
  // The third connects at the TCP level (backlog) but the server
  // answers with one kConnectionLimit error frame and closes.
  auto third = Dial(s);
  ASSERT_NE(third, nullptr);
  const EmbeddingResponse r = third->GetEmbedding(1);
  EXPECT_EQ(r.status, ServeStatus::kTransportError);
  EXPECT_EQ(third->last_wire_error(), WireError::kConnectionLimit)
      << third->last_error();
  EXPECT_GE(CounterValue("net.conn.rejected") - rejected_before, 1u);
  // Capacity frees up once a connection leaves.
  first.reset();
  for (int attempt = 0; attempt < 100; ++attempt) {
    auto retry = Dial(s);
    ASSERT_NE(retry, nullptr);
    if (retry->GetEmbedding(1).status == ServeStatus::kOk) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  FAIL() << "connection slot never freed after a client disconnected";
}

// --- Hot reload under live traffic. ----------------------------------------

TEST(NetServe, HotReloadMidTrafficZeroFailedQueries) {
  Stack s = MakeStack();
  ASSERT_NE(s.net, nullptr);
  const std::uint64_t gen_before = s.server->generation();
  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::atomic<int> mismatches{0};
  std::atomic<std::int64_t> queries{0};
  constexpr int kThreads = 4;
  // Expected rows for both generations, fetched directly. Generation
  // tags pair each network answer with its reference.
  std::vector<EmbeddingResponse> want_old;
  for (std::int64_t node = 0; node < 8; ++node) {
    want_old.push_back(s.server->GetEmbedding(node, {}));
    EXPECT_EQ(want_old.back().generation, gen_before);
  }
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  std::vector<std::vector<EmbeddingResponse>> seen(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto client = Dial(s);
      if (client == nullptr) {
        failures.fetch_add(1);
        return;
      }
      while (!stop.load(std::memory_order_acquire)) {
        const std::int64_t node = queries.fetch_add(1) % 8;
        const EmbeddingResponse r = client->GetEmbedding(node);
        if (r.status != ServeStatus::kOk) {
          failures.fetch_add(1);
          return;
        }
        if (r.generation == gen_before &&
            r.row != want_old[node].row) {
          mismatches.fetch_add(1);
        }
        seen[t].push_back(r);
      }
    });
  }
  // Let traffic flow, then hot-swap the model under it.
  while (queries.load() < 50) std::this_thread::yield();
  std::string error;
  const ServeStatus reload_status =
      s.server->ReloadCheckpoint(MakeCheckpoint(*s.graph, 99), &error);
  ASSERT_EQ(reload_status, ServeStatus::kOk) << error;
  while (queries.load() < 400) std::this_thread::yield();
  stop.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();

  ASSERT_EQ(failures.load(), 0) << "a query failed across the reload";
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(s.server->generation(), gen_before + 1);
  // New-generation answers must match the reloaded model, fetched
  // directly after the fact.
  std::vector<EmbeddingResponse> want_new;
  for (std::int64_t node = 0; node < 8; ++node) {
    want_new.push_back(s.server->GetEmbedding(node, {}));
    EXPECT_EQ(want_new.back().generation, gen_before + 1);
  }
  bool saw_new_generation = false;
  for (const auto& responses : seen) {
    for (std::size_t i = 0; i < responses.size(); ++i) {
      const EmbeddingResponse& r = responses[i];
      if (r.generation == gen_before) continue;
      saw_new_generation = true;
      ASSERT_EQ(r.generation, gen_before + 1);
      // Recover which node this was: rows are per-node unique enough
      // to match against the 8 references.
      bool matched = false;
      for (const EmbeddingResponse& want : want_new) {
        if (r.row == want.row) {
          matched = true;
          break;
        }
      }
      EXPECT_TRUE(matched) << "a post-reload answer matches neither "
                              "generation's reference rows";
    }
  }
  EXPECT_TRUE(saw_new_generation)
      << "reload finished before any traffic saw the new generation";
}

// --- Shutdown. -------------------------------------------------------------

TEST(NetServe, ShutdownAnswersInFlightThenRefusesNewConnections) {
  Stack s = MakeStack();
  ASSERT_NE(s.net, nullptr);
  auto client = Dial(s);
  ASSERT_NE(client, nullptr);
  ASSERT_EQ(client->GetEmbedding(2).status, ServeStatus::kOk);
  s.net->BeginShutdown();
  // A request racing shutdown gets a typed kShutdown response or a
  // clean close (if the drain finished first) — never a hang or a
  // protocol violation.
  const EmbeddingResponse r = client->GetEmbedding(2);
  EXPECT_TRUE(r.status == ServeStatus::kShutdown ||
              r.status == ServeStatus::kTransportError)
      << ServeStatusName(r.status);
  // The listener refuses new connections once the loop observes
  // shutdown (bounded wait for the 50ms poll tick).
  std::string error;
  bool refused = false;
  for (int attempt = 0; attempt < 100 && !refused; ++attempt) {
    auto late = NetClient::Connect("127.0.0.1", s.net->port(), {}, &error);
    if (late == nullptr) {
      refused = true;
      break;
    }
    // Accepted during the race window: must still be answered with a
    // typed rejection, not served.
    const EmbeddingResponse late_r = late->GetEmbedding(1);
    EXPECT_NE(late_r.status, ServeStatus::kOk);
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(refused) << "listener still accepting after BeginShutdown";
  // Drained connections close on the loop's housekeeping tick; give it
  // a bounded window.
  for (int attempt = 0; attempt < 200 && s.net->num_connections() > 0;
       ++attempt) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(s.net->num_connections(), 0);
}

TEST(NetServe, DestructorDrainsWithoutHanging) {
  Stack s = MakeStack();
  ASSERT_NE(s.net, nullptr);
  auto client = Dial(s);
  ASSERT_NE(client, nullptr);
  ASSERT_EQ(client->GetEmbedding(0).status, ServeStatus::kOk);
  s.net.reset();  // joins the loop; must not deadlock
  s.server.reset();
}

// --- A wedged flusher. ------------------------------------------------------

/// Serving options whose flusher blocks in `gate` at every batch, one
/// request per batch.
ServeOptions GatedOptions(FlusherGate* gate) {
  ServeOptions options;
  options.max_batch = 1;
  options.fault_injector.stall_batch = [gate](std::int64_t) {
    gate->Block();
  };
  return options;
}

TEST(NetServe, WedgedFlusherNeverStallsTheLoop) {
  FlusherGate gate;
  Stack s = MakeStack(GatedOptions(&gate));
  ASSERT_NE(s.net, nullptr);
  auto wedged = Dial(s);
  ASSERT_NE(wedged, nullptr);
  std::thread blocked(
      [&] { EXPECT_EQ(wedged->GetEmbedding(1).status, ServeStatus::kOk); });
  gate.AwaitBlocked();
  // The flusher is stuck mid-batch; what the loop answers itself must
  // still come back on another connection.
  auto other = Dial(s);
  if (other != nullptr) {
    StatsResponse stats;
    EXPECT_TRUE(other->Stats(&stats)) << other->last_error();
    EXPECT_EQ(stats.status, ServeStatus::kOk);
    EXPECT_EQ(other->GetEmbedding(-1).status, ServeStatus::kInvalidArgument);
  }
  gate.Release();
  blocked.join();
}

TEST(NetServe, DeadlineBehindAWedgedFlusherKeepsItsGeneration) {
  FlusherGate gate;
  Stack s = MakeStack(GatedOptions(&gate));
  ASSERT_NE(s.net, nullptr);
  auto client = Dial(s);
  ASSERT_NE(client, nullptr);
  const std::uint64_t expired_before = CounterValue("serve.rejected.deadline");
  std::thread blocker([&] {
    EXPECT_EQ(s.server->GetEmbedding(0, {}).status, ServeStatus::kOk);
  });
  gate.AwaitBlocked();

  ServeRequestOptions deadline;
  deadline.deadline_us = 1;
  // In process: released at the deadline, tagged with the generation it
  // was admitted under.
  const EmbeddingResponse direct = s.server->GetEmbedding(1, deadline);
  EXPECT_EQ(direct.status, ServeStatus::kDeadlineExceeded);
  EXPECT_EQ(direct.generation, 1u);
  // Over TCP: queued behind the wedge too, answered once it lifts.
  std::thread remote([&] {
    const EmbeddingResponse r = client->GetEmbedding(2, deadline);
    EXPECT_EQ(r.status, ServeStatus::kDeadlineExceeded)
        << ServeStatusName(r.status) << " " << client->last_error();
    EXPECT_EQ(r.generation, 1u);
  });
  AwaitQueueDepth(*s.server, 2);
  gate.Release();
  remote.join();
  blocker.join();
  EXPECT_EQ(CounterValue("serve.rejected.deadline") - expired_before, 2u);
}

TEST(NetServe, DestructorWaitsForRequestsStillInTheServingQueue) {
  FlusherGate gate;
  Stack s = MakeStack(GatedOptions(&gate));
  ASSERT_NE(s.net, nullptr);
  const int port = s.net->port();
  std::thread blocker([&] {
    EXPECT_EQ(s.server->GetEmbedding(0, {}).status, ServeStatus::kOk);
  });
  gate.AwaitBlocked();
  {
    // The client sends, gives up on the answer and leaves while its
    // request is still queued behind the wedge.
    NetClientOptions impatient;
    impatient.timeout_ms = 1;
    std::string error;
    auto client = NetClient::Connect("127.0.0.1", port, impatient, &error);
    ASSERT_NE(client, nullptr) << error;
    EXPECT_EQ(client->GetEmbedding(1).status, ServeStatus::kTransportError);
    AwaitQueueDepth(*s.server, 1);
  }
  std::unique_ptr<NetServer> net = std::move(s.net);
  std::thread destroyer([&] { net.reset(); });
  // The destructor has started once the listener refuses connections.
  for (;;) {
    std::string error;
    if (NetClient::Connect("127.0.0.1", port, {}, &error) == nullptr) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  gate.Release();
  destroyer.join();
  blocker.join();
}

}  // namespace
}  // namespace net
}  // namespace e2gcl
