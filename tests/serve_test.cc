// Embedding-serving layer: bit-identity across {cold, cached} x {solo,
// batched} x thread counts, the norm-ordered TopK scan against the
// id-order slab scan it replaced, LRU cache semantics, deadline/size
// batch flushing, checkpoint validation, and concurrent-client
// correctness (the latter is the TSAN target registered in
// check_sanitizers.sh).

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <future>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "graph/generators.h"
#include "graph/graph.h"
#include "io/checkpoint.h"
#include "nn/gcn.h"
#include "obs/metrics.h"
#include "parallel/parallel_for.h"
#include "parallel/thread_pool.h"
#include "serve/embedding_server.h"
#include "serve/lru_cache.h"
#include "serve/quantized_table.h"
#include "serve_test_util.h"
#include "tensor/kernel_bounds.h"
#include "tensor/simd/simd.h"

namespace e2gcl {
namespace {

namespace fs = std::filesystem;

constexpr int kThreadCounts[] = {1, 2, 7};

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

/// A checkpoint holding a freshly initialized (deterministic) encoder.
TrainerCheckpoint MakeCheckpoint(const Graph& g, std::uint64_t seed = 3) {
  Rng rng(seed);
  GcnEncoder encoder(ServeEncoderConfig(g), rng);
  TrainerCheckpoint ckpt;
  ckpt.epoch = 0;
  ckpt.config_fingerprint = 0xfeedULL;
  ckpt.encoder_params = encoder.params().CloneValues();
  return ckpt;
}

/// Reference embeddings computed by the offline full-graph path.
Matrix ReferenceEmbeddings(const Graph& g, const TrainerCheckpoint& ckpt) {
  Rng rng(0);
  GcnEncoder encoder(ServeEncoderConfig(g), rng);
  encoder.params().LoadValues(ckpt.encoder_params);
  return encoder.Encode(g);
}

std::vector<float> RowOf(const Matrix& m, std::int64_t r) {
  return std::vector<float>(m.RowPtr(r), m.RowPtr(r) + m.cols());
}

/// `got` is exactly the first `k` entries of `want`, a (score, node)
/// list sorted by (score desc, node id asc).
void ExpectRanking(const TopKResult& got,
                   const std::vector<std::pair<float, std::int64_t>>& want,
                   std::int64_t k) {
  ASSERT_EQ(got.nodes.size(), static_cast<std::size_t>(k));
  ASSERT_EQ(got.scores.size(), static_cast<std::size_t>(k));
  for (std::int64_t i = 0; i < k; ++i) {
    EXPECT_EQ(got.nodes[i], want[i].second) << "rank " << i << " of " << k;
    EXPECT_EQ(got.scores[i], want[i].first) << "rank " << i << " of " << k;
  }
}

// --- EncodeRows (the lazy-serving primitive). ------------------------------

TEST(EncodeRows, MatchesFullEncodeBitIdentically) {
  Graph g = ServeGraph();
  Rng rng(11);
  GcnEncoder encoder(ServeEncoderConfig(g), rng);
  const Matrix full = encoder.Encode(g);
  const CsrMatrix adj = NormalizedAdjacency(g);

  // Unsorted, repeated indices; every row must equal the full-encode row.
  const std::vector<std::int64_t> nodes = {5, 0, 119, 5, 42, 7, 7, 64};
  const Matrix rows = encoder.EncodeRows(adj, g.features, nodes);
  ASSERT_EQ(rows.rows(), static_cast<std::int64_t>(nodes.size()));
  ASSERT_EQ(rows.cols(), full.cols());
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    EXPECT_EQ(RowOf(rows, static_cast<std::int64_t>(i)),
              RowOf(full, nodes[i]))
        << "node " << nodes[i];
  }
}

TEST(EncodeRows, BitIdenticalAtAllThreadCounts) {
  Graph g = ServeGraph();
  Rng rng(11);
  GcnEncoder encoder(ServeEncoderConfig(g), rng);
  const CsrMatrix adj = NormalizedAdjacency(g);
  const std::vector<std::int64_t> nodes = {3, 77, 41, 0, 118};

  SetNumThreads(1);
  const Matrix baseline = encoder.EncodeRows(adj, g.features, nodes);
  for (int threads : kThreadCounts) {
    SetNumThreads(threads);
    EXPECT_TRUE(encoder.EncodeRows(adj, g.features, nodes) == baseline)
        << "threads=" << threads;
  }
  SetNumThreads(1);
}

TEST(EncodeRows, CoversEveryNodeAtOnce) {
  Graph g = ServeGraph();
  Rng rng(11);
  GcnEncoder encoder(ServeEncoderConfig(g), rng);
  const CsrMatrix adj = NormalizedAdjacency(g);
  std::vector<std::int64_t> all(g.num_nodes);
  for (std::int64_t i = 0; i < g.num_nodes; ++i) all[i] = i;
  EXPECT_TRUE(encoder.EncodeRows(adj, g.features, all) == encoder.Encode(g));
}

// --- RowCache. -------------------------------------------------------------

TEST(RowCache, EvictsLeastRecentlyUsed) {
  // Two slots: deterministic LRU order.
  RowCache cache(2);
  cache.Put(1, {1.0f});
  cache.Put(2, {2.0f});
  std::vector<float> row;
  ASSERT_TRUE(cache.Get(1, &row));  // 1 is now most recent
  EXPECT_EQ(row, std::vector<float>{1.0f});
  cache.Put(3, {3.0f});  // evicts 2, the LRU entry
  EXPECT_FALSE(cache.Contains(2));
  EXPECT_TRUE(cache.Contains(1));
  EXPECT_TRUE(cache.Contains(3));
  EXPECT_EQ(cache.Size(), 2);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 0u);
  EXPECT_FALSE(cache.Get(2, &row));
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(RowCache, PutRefreshesExistingEntry) {
  RowCache cache(2);
  cache.Put(1, {1.0f});
  cache.Put(2, {2.0f});
  cache.Put(1, {1.5f});  // refresh: 2 becomes LRU
  cache.Put(3, {3.0f});
  EXPECT_FALSE(cache.Contains(2));
  std::vector<float> row;
  ASSERT_TRUE(cache.Get(1, &row));
  EXPECT_EQ(row, std::vector<float>{1.5f});
}

// --- EmbeddingServer. ------------------------------------------------------

TEST(EmbeddingServer, ColdCachedSoloAndBatchedRowsAreBitIdentical) {
  Graph g = ServeGraph();
  TrainerCheckpoint ckpt = MakeCheckpoint(g);
  const Matrix reference = ReferenceEmbeddings(g, ckpt);

  for (bool precompute : {false, true}) {
    ServeOptions opt;
    opt.precompute = precompute;
    opt.max_batch = 1;  // solo
    std::string error;
    auto server = EmbeddingServer::FromCheckpoint(g, ckpt, opt, &error);
    ASSERT_NE(server, nullptr) << error;
    for (std::int64_t node : {0, 17, 64, 119}) {
      const std::vector<float> cold = ServedRow(*server, node);
      const std::vector<float> cached = ServedRow(*server, node);
      EXPECT_EQ(cold, RowOf(reference, node))
          << "precompute=" << precompute << " node=" << node;
      EXPECT_EQ(cold, cached);
    }
  }

  // Batched: one client per node, large batch budget.
  ServeOptions opt;
  opt.max_batch = 64;
  std::string error;
  auto server = EmbeddingServer::FromCheckpoint(g, ckpt, opt, &error);
  ASSERT_NE(server, nullptr) << error;
  std::vector<std::thread> clients;
  std::vector<std::vector<float>> rows(static_cast<std::size_t>(g.num_nodes));
  for (std::int64_t node = 0; node < g.num_nodes; ++node) {
    clients.emplace_back(
        [&, node] { rows[node] = ServedRow(*server, node); });
  }
  for (std::thread& t : clients) t.join();
  for (std::int64_t node = 0; node < g.num_nodes; ++node) {
    EXPECT_EQ(rows[node], RowOf(reference, node)) << "node=" << node;
  }
}

TEST(EmbeddingServer, BitIdenticalAtAllThreadCounts) {
  Graph g = ServeGraph();
  TrainerCheckpoint ckpt = MakeCheckpoint(g);
  SetNumThreads(1);
  const Matrix reference = ReferenceEmbeddings(g, ckpt);

  for (int threads : kThreadCounts) {
    SetNumThreads(threads);
    for (bool precompute : {false, true}) {
      ServeOptions opt;
      opt.precompute = precompute;
      opt.max_batch = 8;
      std::string error;
      auto server = EmbeddingServer::FromCheckpoint(g, ckpt, opt, &error);
      ASSERT_NE(server, nullptr) << error;
      for (std::int64_t node : {2, 59, 113}) {
        EXPECT_EQ(ServedRow(*server, node), RowOf(reference, node))
            << "threads=" << threads << " precompute=" << precompute;
      }
    }
  }
  SetNumThreads(1);
}

TEST(EmbeddingServer, ScoreLinkEqualsDotOfEmbeddingRows) {
  Graph g = ServeGraph();
  TrainerCheckpoint ckpt = MakeCheckpoint(g);
  const Matrix reference = ReferenceEmbeddings(g, ckpt);
  ServeOptions opt;
  std::string error;
  auto server = EmbeddingServer::FromCheckpoint(g, ckpt, opt, &error);
  ASSERT_NE(server, nullptr) << error;

  const std::vector<std::pair<std::int64_t, std::int64_t>> pairs = {
      {0, 1}, {5, 90}, {119, 119}};
  for (const auto& [u, v] : pairs) {
    // Expected through the same simd::Dot kernel the server uses; a
    // hand-rolled serial loop would differ in the last ulps under the
    // AVX2 backend (per-build-config determinism contract).
    const float expected =
        simd::Dot(reference.RowPtr(u), reference.RowPtr(v), reference.cols());
    EXPECT_EQ(ServedScore(*server, u, v), expected) << u << "," << v;
  }
}

TEST(EmbeddingServer, TopKSimilarMatchesBruteForceAndExcludesSelf) {
  Graph g = ServeGraph();
  TrainerCheckpoint ckpt = MakeCheckpoint(g);
  const Matrix reference = ReferenceEmbeddings(g, ckpt);
  ServeOptions opt;
  std::string error;
  auto server = EmbeddingServer::FromCheckpoint(g, ckpt, opt, &error);
  ASSERT_NE(server, nullptr) << error;

  const std::int64_t query = 31;
  const std::int64_t k = 5;
  TopKResult got = ServedTopK(*server, query, k);
  ASSERT_EQ(got.nodes.size(), static_cast<std::size_t>(k));
  ASSERT_EQ(got.scores.size(), static_cast<std::size_t>(k));

  // Brute force (via the server's dot kernel) with the same total order
  // (score desc, id asc).
  std::vector<std::pair<float, std::int64_t>> all;
  for (std::int64_t i = 0; i < g.num_nodes; ++i) {
    if (i == query) continue;
    all.push_back({simd::Dot(reference.RowPtr(query), reference.RowPtr(i),
                             reference.cols()),
                   i});
  }
  std::sort(all.begin(), all.end(), [](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first > b.first;
    return a.second < b.second;
  });
  for (std::int64_t i = 0; i < k; ++i) {
    EXPECT_EQ(got.nodes[i], all[i].second) << "rank " << i;
    EXPECT_EQ(got.scores[i], all[i].first) << "rank " << i;
  }
  // k = 0 is an empty answer; k >= |V| ranks every other node.
  for (const std::int64_t edge_k : {0L, g.num_nodes, g.num_nodes + 5}) {
    const TopKResult edge = ServedTopK(*server, query, edge_k);
    ExpectRanking(edge, all, std::min<std::int64_t>(edge_k, g.num_nodes - 1));
  }

  // Lazy and precompute TopK agree bit-for-bit.
  ServeOptions pre = opt;
  pre.precompute = true;
  auto server2 = EmbeddingServer::FromCheckpoint(g, ckpt, pre, &error);
  ASSERT_NE(server2, nullptr) << error;
  TopKResult got2 = ServedTopK(*server2, query, k);
  EXPECT_EQ(got.nodes, got2.nodes);
  EXPECT_EQ(got.scores, got2.scores);
}

// --- Int8 quantized serving. -----------------------------------------------

TEST(QuantizedEmbeddingTable, RoundTripsWithinOneQuantizationStep) {
  Graph g = ServeGraph();
  TrainerCheckpoint ckpt = MakeCheckpoint(g);
  const Matrix reference = ReferenceEmbeddings(g, ckpt);
  const QuantizedEmbeddingTable table = QuantizedEmbeddingTable::Build(
      reference);
  ASSERT_EQ(table.rows(), reference.rows());
  ASSERT_EQ(table.cols(), reference.cols());
  // Memory: one byte per coefficient + one float per row, ~4x under fp32.
  EXPECT_EQ(table.MemoryBytes(),
            reference.rows() * reference.cols() +
                reference.rows() * static_cast<std::int64_t>(sizeof(float)));
  for (std::int64_t r = 0; r < reference.rows(); ++r) {
    const float scale = table.scale(r);
    for (std::int64_t c = 0; c < reference.cols(); ++c) {
      const float back = static_cast<float>(table.RowPtr(r)[c]) * scale;
      // Symmetric rounding: off by at most half a step.
      EXPECT_NEAR(back, reference(r, c), scale * 0.5f + 1e-7f)
          << r << "," << c;
    }
  }
}

TEST(QuantizedEmbeddingTable, ScoreRowsIsThreadCountInvariant) {
  Graph g = ServeGraph();
  TrainerCheckpoint ckpt = MakeCheckpoint(g);
  const Matrix reference = ReferenceEmbeddings(g, ckpt);
  const QuantizedEmbeddingTable table = QuantizedEmbeddingTable::Build(
      reference);
  // Two queries scored together, as a batch's int8 scan scores them.
  const std::int64_t n = table.rows();
  std::vector<std::int8_t> codes;
  std::vector<float> scales;
  for (const std::int64_t node : {17L, 64L}) {
    std::vector<std::int8_t> q;
    scales.push_back(table.QuantizeQuery(reference.RowPtr(node), &q));
    codes.insert(codes.end(), q.begin(), q.end());
  }
  // One serial call over every row: scores[q * n + r].
  std::vector<float> serial(static_cast<std::size_t>(2 * n));
  table.ScoreRows(codes.data(), scales.data(), 2, 0, n, serial.data());
  for (int threads : kThreadCounts) {
    SetNumThreads(threads);
    std::vector<float> scores(serial.size());
    ParallelFor(0, n, 16, [&](std::int64_t rb, std::int64_t re) {
      std::vector<float> block(static_cast<std::size_t>(2 * (re - rb)));
      table.ScoreRows(codes.data(), scales.data(), 2, rb, re, block.data());
      for (std::int64_t q = 0; q < 2; ++q) {
        std::copy(block.begin() + q * (re - rb),
                  block.begin() + (q + 1) * (re - rb),
                  scores.begin() + q * n + rb);
      }
    });
    EXPECT_EQ(scores, serial) << "threads=" << threads;
  }
  SetNumThreads(1);
}

TEST(EmbeddingServer, QuantizedTopKWithRescoreMatchesFp32Exactly) {
  Graph g = ServeGraph();
  TrainerCheckpoint ckpt = MakeCheckpoint(g);
  ServeOptions fp32;
  std::string error;
  auto exact_server = EmbeddingServer::FromCheckpoint(g, ckpt, fp32, &error);
  ASSERT_NE(exact_server, nullptr) << error;
  ServeOptions quant;
  quant.quantize_int8 = true;  // rescores a pool of min(4k, |V| - 1)
  auto quant_server = EmbeddingServer::FromCheckpoint(g, ckpt, quant, &error);
  ASSERT_NE(quant_server, nullptr) << error;
  EXPECT_FALSE(quant_server->quantized().empty());

  // With the exact fp32 rescore, the quantized path must return the same
  // node sets AND the same exact scores as the fp32 scan on every query
  // here (the true top-k comfortably survives into the k*4 candidate
  // pool on this fixture).
  for (std::int64_t query : {0L, 17L, 31L, 64L, 119L}) {
    const TopKResult want = ServedTopK(*exact_server, query, 5);
    const TopKResult got = ServedTopK(*quant_server, query, 5);
    EXPECT_EQ(got.nodes, want.nodes) << "query " << query;
    EXPECT_EQ(got.scores, want.scores) << "query " << query;
  }
  // k = 0 is an empty answer; k >= |V| rescores every other node, so it
  // is the full fp32 ranking.
  const std::int64_t query = 31;
  for (const std::int64_t k : {0L, g.num_nodes, g.num_nodes + 5}) {
    const TopKResult want = ServedTopK(*exact_server, query, k);
    const TopKResult got = ServedTopK(*quant_server, query, k);
    EXPECT_EQ(got.nodes.size(),
              static_cast<std::size_t>(
                  std::min<std::int64_t>(k, g.num_nodes - 1)))
        << "k " << k;
    EXPECT_EQ(std::count(got.nodes.begin(), got.nodes.end(), query), 0)
        << "k " << k;
    EXPECT_EQ(got.nodes, want.nodes) << "k " << k;
    EXPECT_EQ(got.scores, want.scores) << "k " << k;
  }
}

// --- The TopK selector and the one-pass batch scan. -------------------------

std::vector<std::uint32_t> Bits(const std::vector<float>& v) {
  std::vector<std::uint32_t> bits(v.size());
  if (!v.empty()) std::memcpy(bits.data(), v.data(), v.size() * sizeof(float));
  return bits;
}

TopKResult Select(std::int64_t k, std::int64_t exclude,
                  const std::vector<std::vector<float>>& slabs) {
  TopKSelector best(k, exclude);
  std::int64_t first = 0;
  for (const std::vector<float>& slab : slabs) {
    best.OfferRun(slab.data(), first, static_cast<std::int64_t>(slab.size()));
    first += static_cast<std::int64_t>(slab.size());
  }
  return best.Take();
}

TEST(TopKSelector, TiesAcrossASlabBoundaryResolveByAscendingId) {
  // Score 5 at ids 1, 2 (first slab) and 4, 5 (second slab).
  const std::vector<std::vector<float>> slabs = {{1, 5, 5, 2}, {5, 5, 3, 0}};
  TopKResult top = Select(3, -1, slabs);
  EXPECT_EQ(top.nodes, (std::vector<std::int64_t>{1, 2, 4}));
  EXPECT_EQ(top.scores, (std::vector<float>{5, 5, 5}));
  top = Select(5, -1, slabs);
  EXPECT_EQ(top.nodes, (std::vector<std::int64_t>{1, 2, 4, 5, 6}));
  // The order candidates arrive in does not matter.
  TopKSelector reversed(3, -1);
  for (std::int64_t node = 7; node >= 0; --node) {
    reversed.Offer(slabs[node / 4][node % 4], node);
  }
  EXPECT_EQ(reversed.Take().nodes, (std::vector<std::int64_t>{1, 2, 4}));
}

TEST(TopKSelector, PositiveAndNegativeZeroTie) {
  TopKResult top = Select(1, -1, {{-0.0f}, {0.0f}});
  ASSERT_EQ(top.nodes, (std::vector<std::int64_t>{0}));
  EXPECT_TRUE(std::signbit(top.scores[0]));
  top = Select(1, -1, {{0.0f}, {-0.0f}});
  ASSERT_EQ(top.nodes, (std::vector<std::int64_t>{0}));
  EXPECT_FALSE(std::signbit(top.scores[0]));
  top = Select(2, -1, {{0.0f, -0.0f, 1.0f}});
  EXPECT_EQ(top.nodes, (std::vector<std::int64_t>{2, 0}));
}

TEST(TopKSelector, ExcludesTheQueryNode) {
  const TopKResult top = Select(2, 1, {{0.5f, 9.0f}, {0.25f, 1.0f}});
  EXPECT_EQ(top.nodes, (std::vector<std::int64_t>{3, 0}));
  EXPECT_EQ(top.scores, (std::vector<float>{1.0f, 0.5f}));
}

TEST(TopKSelector, ZeroKAndKBeyondTheCandidates) {
  const std::vector<std::vector<float>> slabs = {{3, 1}, {2}};
  EXPECT_TRUE(Select(0, -1, slabs).nodes.empty());
  EXPECT_TRUE(Select(0, -1, slabs).scores.empty());
  // k >= candidates ranks every candidate but the excluded one.
  for (const std::int64_t k : {2L, 3L, 100L}) {
    const TopKResult top = Select(k, 0, slabs);
    EXPECT_EQ(top.nodes, (std::vector<std::int64_t>{2, 1})) << "k " << k;
    EXPECT_EQ(top.scores, (std::vector<float>{2, 1})) << "k " << k;
  }
}

TEST(TopKSelector, NanRanksAsNegativeInfinity) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  TopKResult top = Select(3, -1, {{nan, -1.0f}, {nan, 2.0f}});
  EXPECT_EQ(top.nodes, (std::vector<std::int64_t>{3, 1, 0}));
  EXPECT_TRUE(std::isnan(top.scores[2]));
  // Tied with -infinity, so the lower id ranks first.
  top = Select(3, -1, {{-inf, nan}, {-1.0f}});
  EXPECT_EQ(top.nodes, (std::vector<std::int64_t>{2, 0, 1}));
}

/// |V| = 5003 spans two 4096-row scan slabs, and at width 33 a slab
/// splits into 992-row chunks and a short one: neither divides |V|.
Graph ScanGraph() {
  SbmSpec spec;
  spec.num_nodes = 5003;
  spec.num_classes = 3;
  spec.feature_dim = 16;
  spec.avg_degree = 6;
  spec.informative_dims_per_class = 4;
  return GenerateSbm(spec, 5);
}

GcnConfig ScanEncoderConfig(const Graph& g) {
  GcnConfig cfg;
  cfg.dims = {g.feature_dim(), 24, 33};
  return cfg;
}

TrainerCheckpoint ScanCheckpoint(const Graph& g) {
  Rng rng(9);
  GcnEncoder encoder(ScanEncoderConfig(g), rng);
  TrainerCheckpoint ckpt;
  ckpt.encoder_params = encoder.params().CloneValues();
  return ckpt;
}

/// The best `k` of `scores` but `exclude` by a full sort under (score
/// desc, id asc).
TopKResult SortedTopK(const std::vector<float>& scores, std::int64_t exclude,
                      std::int64_t k) {
  std::vector<std::int64_t> ids;
  for (std::int64_t i = 0; i < static_cast<std::int64_t>(scores.size()); ++i) {
    if (i != exclude) ids.push_back(i);
  }
  std::sort(ids.begin(), ids.end(), [&](std::int64_t x, std::int64_t y) {
    const float sx = scores[static_cast<std::size_t>(x)];
    const float sy = scores[static_cast<std::size_t>(y)];
    return sx != sy ? sx > sy : x < y;
  });
  ids.resize(static_cast<std::size_t>(
      std::min<std::int64_t>(k, static_cast<std::int64_t>(ids.size()))));
  TopKResult top;
  for (const std::int64_t id : ids) {
    top.nodes.push_back(id);
    top.scores.push_back(scores[static_cast<std::size_t>(id)]);
  }
  return top;
}

struct Query {
  enum Kind { kRow, kScore, kTopK } kind;
  std::int64_t a;
  std::int64_t b;  // kScore: v. kTopK: k.
};

/// A response reduced to what byte identity is about: the status, TopK
/// node ids, and the bits of the row, the score or the TopK scores.
struct Answer {
  ServeStatus status = ServeStatus::kOk;
  std::vector<std::int64_t> nodes;
  std::vector<std::uint32_t> bits;
};

/// Submits `q` through the asynchronous API.
std::future<Answer> Send(EmbeddingServer& server, const Query& q) {
  auto promise = std::make_shared<std::promise<Answer>>();
  std::future<Answer> answer = promise->get_future();
  ServeStatus admitted = ServeStatus::kOk;
  switch (q.kind) {
    case Query::kRow:
      admitted = server.GetEmbedding(
          q.a, ServeRequestOptions{}, [promise](EmbeddingResponse r) {
            promise->set_value({r.status, {}, Bits(r.row)});
          });
      break;
    case Query::kScore:
      admitted = server.ScoreLink(
          q.a, q.b, ServeRequestOptions{}, [promise](ScoreResponse r) {
            promise->set_value({r.status, {}, Bits({r.score})});
          });
      break;
    case Query::kTopK:
      admitted = server.TopKSimilar(
          q.a, q.b, ServeRequestOptions{}, [promise](TopKResponse r) {
            promise->set_value(
                {r.status, std::move(r.result.nodes), Bits(r.result.scores)});
          });
      break;
  }
  EXPECT_EQ(admitted, ServeStatus::kOk);
  return answer;
}

TEST(EmbeddingServer, BatchedAnswersEqualSoloAnswers) {
  const Graph g = ScanGraph();
  const TrainerCheckpoint ckpt = ScanCheckpoint(g);
  const std::int64_t n = g.num_nodes;
  Rng rng(0);
  GcnEncoder encoder(ScanEncoderConfig(g), rng);
  encoder.params().LoadValues(ckpt.encoder_params);
  const Matrix reference = encoder.Encode(g);
  // Repeated and distinct nodes, both slabs, k from 0 past |V|.
  const std::vector<Query> queries = {
      {Query::kTopK, 17, 10},       {Query::kRow, 17, 0},
      {Query::kTopK, 17, 10},       {Query::kTopK, 17, 0},
      {Query::kTopK, 4096, 1},      {Query::kScore, 17, 4096},
      {Query::kTopK, n - 1, n - 1}, {Query::kTopK, 0, n + 5},
      {Query::kRow, 4095, 0},       {Query::kTopK, 4095, 10},
      {Query::kScore, 3, n - 1},    {Query::kTopK, 2500, 10},
  };
  for (int threads : kThreadCounts) {
    SetNumThreads(threads);
    for (bool precompute : {false, true}) {
      for (bool int8 : {false, true}) {
        SCOPED_TRACE(std::string(int8 ? "int8" : "fp32") + " precompute=" +
                     std::to_string(precompute) +
                     " threads=" + std::to_string(threads));
        FlusherGate gate;
        std::vector<std::int64_t> batch_sizes;  // flusher-written
        ServeOptions opt;
        opt.precompute = precompute;
        opt.quantize_int8 = int8;
        opt.fault_injector.stall_batch = [&](std::int64_t size) {
          batch_sizes.push_back(size);
          if (batch_sizes.size() == 1) gate.Block();
        };
        std::string error;
        auto server = EmbeddingServer::FromCheckpoint(g, ckpt, opt, &error);
        ASSERT_NE(server, nullptr) << error;

        // The blocker holds the flusher while the batch queues behind it.
        std::future<Answer> blocker = Send(*server, {Query::kRow, 0, 0});
        gate.AwaitBlocked();
        std::vector<std::future<Answer>> batched;
        for (const Query& q : queries) batched.push_back(Send(*server, q));
        gate.Release();
        EXPECT_EQ(blocker.get().status, ServeStatus::kOk);
        std::vector<Answer> got;
        for (std::future<Answer>& f : batched) got.push_back(f.get());
        ASSERT_EQ(batch_sizes.size(), 2u);
        EXPECT_EQ(batch_sizes[1], static_cast<std::int64_t>(queries.size()));

        for (std::size_t i = 0; i < queries.size(); ++i) {
          const Query& q = queries[i];
          const Answer solo = Send(*server, q).get();
          EXPECT_EQ(solo.status, ServeStatus::kOk) << "query " << i;
          EXPECT_EQ(got[i].status, ServeStatus::kOk) << "query " << i;
          EXPECT_EQ(got[i].nodes, solo.nodes) << "query " << i;
          EXPECT_EQ(got[i].bits, solo.bits) << "query " << i;
          if (q.kind != Query::kTopK) continue;
          EXPECT_EQ(static_cast<std::int64_t>(got[i].nodes.size()),
                    std::min(q.b, n - 1))
              << "query " << i;
          // The unbatched, unslabbed fp32 scan is the fp32 path's
          // reference; the int8 pool may miss a true top-k row.
          if (int8) continue;
          std::vector<float> scores;
          for (std::int64_t v = 0; v < n; ++v) {
            scores.push_back(simd::Dot(reference.RowPtr(q.a),
                                       reference.RowPtr(v), reference.cols()));
          }
          const TopKResult want = SortedTopK(scores, q.a, q.b);
          EXPECT_EQ(solo.nodes, want.nodes) << "query " << i;
          EXPECT_EQ(solo.bits, Bits(want.scores)) << "query " << i;
        }
      }
    }
  }
  SetNumThreads(1);
}

TEST(EmbeddingServer, QuantizedModeKeepsEmbeddingAndScoreExact) {
  Graph g = ServeGraph();
  TrainerCheckpoint ckpt = MakeCheckpoint(g);
  const Matrix reference = ReferenceEmbeddings(g, ckpt);
  ServeOptions quant;
  quant.quantize_int8 = true;
  std::string error;
  auto server = EmbeddingServer::FromCheckpoint(g, ckpt, quant, &error);
  ASSERT_NE(server, nullptr) << error;
  EXPECT_EQ(ServedRow(*server, 42), RowOf(reference, 42));
  EXPECT_EQ(ServedScore(*server, 3, 99),
            simd::Dot(reference.RowPtr(3), reference.RowPtr(99),
                      reference.cols()));
}

TEST(EmbeddingServer, DeadlineFlushesPartialBatch) {
  Graph g = ServeGraph();
  TrainerCheckpoint ckpt = MakeCheckpoint(g);
  ServeOptions opt;
  opt.max_batch = 1000;  // can never fill from one client: a partial
                         // batch must ship
  std::string error;
  auto server = EmbeddingServer::FromCheckpoint(g, ckpt, opt, &error);
  ASSERT_NE(server, nullptr) << error;
  const Matrix reference = ReferenceEmbeddings(g, ckpt);
  EXPECT_EQ(ServedRow(*server, 42), RowOf(reference, 42));
}

TEST(EmbeddingServer, FullBatchFlushesBeforeDeadline) {
  Graph g = ServeGraph();
  TrainerCheckpoint ckpt = MakeCheckpoint(g);
  ServeOptions opt;
  opt.max_batch = 4;
  std::string error;
  auto server = EmbeddingServer::FromCheckpoint(g, ckpt, opt, &error);
  ASSERT_NE(server, nullptr) << error;
  const Matrix reference = ReferenceEmbeddings(g, ckpt);
  // 8 clients at max_batch 4: full batches ship and every client is
  // served, whatever batches the requests land in.
  std::vector<std::thread> clients;
  std::vector<std::vector<float>> rows(8);
  for (int i = 0; i < 8; ++i) {
    clients.emplace_back([&, i] { rows[i] = ServedRow(*server, i * 13); });
  }
  for (std::thread& t : clients) t.join();
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(rows[i], RowOf(reference, i * 13));
  }
}

TEST(EmbeddingServer, LruCacheEvictsButServesCorrectRows) {
  Graph g = ServeGraph();
  TrainerCheckpoint ckpt = MakeCheckpoint(g);
  const Matrix reference = ReferenceEmbeddings(g, ckpt);
  ServeOptions opt;
  opt.cache_capacity = 4;
  opt.max_batch = 1;
  std::string error;
  auto server = EmbeddingServer::FromCheckpoint(g, ckpt, opt, &error);
  ASSERT_NE(server, nullptr) << error;
  ASSERT_NE(server->cache(), nullptr);
  // Sweep far more rows than the cache holds, twice; every row must stay
  // correct through evictions and recomputation.
  for (int pass = 0; pass < 2; ++pass) {
    for (std::int64_t node = 0; node < 32; ++node) {
      EXPECT_EQ(ServedRow(*server, node), RowOf(reference, node))
          << "pass=" << pass << " node=" << node;
    }
  }
  EXPECT_LE(server->cache()->Size(), 4);
  EXPECT_GT(server->cache()->misses(), 0u);
}

TEST(EmbeddingServer, ConcurrentMixedClientsSeeConsistentResults) {
  Graph g = ServeGraph();
  TrainerCheckpoint ckpt = MakeCheckpoint(g);
  const Matrix reference = ReferenceEmbeddings(g, ckpt);
  ServeOptions opt;
  opt.cache_capacity = 64;  // force eviction churn under load
  opt.max_batch = 16;
  std::string error;
  auto server = EmbeddingServer::FromCheckpoint(g, ckpt, opt, &error);
  ASSERT_NE(server, nullptr) << error;

  constexpr int kClients = 8;
  constexpr int kQueriesPerClient = 40;
  std::vector<std::thread> clients;
  std::vector<int> failures(kClients, 0);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Rng rng(1000 + static_cast<std::uint64_t>(c));
      for (int q = 0; q < kQueriesPerClient; ++q) {
        const std::int64_t node = rng.UniformInt(g.num_nodes);
        const std::int64_t other = rng.UniformInt(g.num_nodes);
        switch (q % 3) {
          case 0: {
            if (ServedRow(*server, node) != RowOf(reference, node)) {
              ++failures[c];
            }
            break;
          }
          case 1: {
            const float expected = simd::Dot(
                reference.RowPtr(node), reference.RowPtr(other),
                reference.cols());
            if (ServedScore(*server, node, other) != expected) ++failures[c];
            break;
          }
          default: {
            TopKResult r = ServedTopK(*server, node, 3);
            if (r.nodes.size() != 3u) ++failures[c];
            break;
          }
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  for (int c = 0; c < kClients; ++c) {
    EXPECT_EQ(failures[c], 0) << "client " << c;
  }
}

TEST(EmbeddingServer, RecordsCacheAndBatchMetrics) {
  Graph g = ServeGraph();
  TrainerCheckpoint ckpt = MakeCheckpoint(g);
  SetObsEnabled(true);
  MetricsRegistry::Get().ResetValuesForTest();
  {
    ServeOptions opt;
    opt.max_batch = 1;
    std::string error;
    auto server = EmbeddingServer::FromCheckpoint(g, ckpt, opt, &error);
    ASSERT_NE(server, nullptr) << error;
    ServedRow(*server, 1);  // cold: miss + compute
    ServedRow(*server, 1);  // hot: hit
  }
  const MetricsSnapshot snap = MetricsRegistry::Get().Snapshot();
  EXPECT_EQ(snap.counter("serve.requests"), 2u);
  EXPECT_EQ(snap.counter("serve.batches"), 2u);
  EXPECT_EQ(snap.counter("serve.cache.misses"), 1u);
  EXPECT_EQ(snap.counter("serve.cache.hits"), 1u);
  EXPECT_EQ(snap.counter("serve.rows_computed"), 1u);
}

TEST(EmbeddingServer, RecordsOneTopKScanPerBatch) {
  Graph g = ServeGraph();
  TrainerCheckpoint ckpt = MakeCheckpoint(g);
  SetObsEnabled(true);
  MetricsRegistry::Get().ResetValuesForTest();
  {
    FlusherGate gate;
    bool first = true;  // flusher-only
    ServeOptions opt;
    opt.fault_injector.stall_batch = [&](std::int64_t) {
      if (first) gate.Block();
      first = false;
    };
    std::string error;
    auto server = EmbeddingServer::FromCheckpoint(g, ckpt, opt, &error);
    ASSERT_NE(server, nullptr) << error;
    std::future<Answer> blocker = Send(*server, {Query::kRow, 0, 0});
    gate.AwaitBlocked();
    std::vector<std::future<Answer>> batch;
    batch.push_back(Send(*server, {Query::kTopK, 3, 5}));
    batch.push_back(Send(*server, {Query::kRow, 4, 0}));
    batch.push_back(Send(*server, {Query::kTopK, 3, 1}));
    batch.push_back(Send(*server, {Query::kTopK, 90, 5}));
    gate.Release();
    blocker.get();
    for (std::future<Answer>& f : batch) {
      EXPECT_EQ(f.get().status, ServeStatus::kOk);
    }
  }
  const MetricsSnapshot snap = MetricsRegistry::Get().Snapshot();
  EXPECT_EQ(snap.counter("serve.batches"), 2u);
  EXPECT_EQ(snap.counter("serve.requests"), 5u);
  EXPECT_EQ(snap.counter("serve.topk.scans"), 1u);
  const auto hist = std::find_if(
      snap.histograms.begin(), snap.histograms.end(),
      [](const auto& h) { return h.name == "serve.topk.queries_per_scan"; });
  ASSERT_NE(hist, snap.histograms.end());
  EXPECT_EQ(hist->bounds, (std::vector<std::int64_t>{1, 2, 4, 8, 16, 32, 64}));
  EXPECT_EQ(hist->total, 1u);
  EXPECT_EQ(hist->counts[2], 1u);  // 3 queries: the (2, 4] bucket
}

// --- The norm-ordered exact scan. -------------------------------------------

/// The id-order slab scan the norm-ordered scan replaced, verbatim: the
/// reference every ordered answer must equal byte for byte.
void ReferenceSlabScan(const Matrix& z, const Matrix& queries,
                       std::vector<TopKSelector>* best) {
  constexpr std::int64_t kSlabRows = 4096;
  const std::int64_t n = z.rows();
  const std::int64_t d = queries.cols();
  const std::int64_t b = queries.rows();
  const std::int64_t grain = GrainForCost(d);
  std::vector<float> slab(
      static_cast<std::size_t>(b * std::min(kSlabRows, n)));
  for (std::int64_t s0 = 0; s0 < n; s0 += kSlabRows) {
    const std::int64_t s1 = std::min(n, s0 + kSlabRows);
    ParallelFor(s0, s1, grain, [&](std::int64_t rb, std::int64_t re) {
      float* out = slab.data() + b * (rb - s0);
      simd::GemmTransBRows(queries.data(), z.RowPtr(rb), out, 0, b, d,
                           re - rb);
    });
    // ParallelFor's chunks start at s0, every `grain` rows.
    for (std::int64_t c0 = s0; c0 < s1; c0 += grain) {
      const std::int64_t rows = std::min(s1, c0 + grain) - c0;
      const float* chunk = slab.data() + b * (c0 - s0);
      for (std::int64_t q = 0; q < b; ++q) {
        (*best)[static_cast<std::size_t>(q)].OfferRun(chunk + q * rows, c0,
                                                      rows);
      }
    }
  }
}

/// The k values every scan table is queried with, in one mixed batch.
std::vector<std::int64_t> ScanKs(std::int64_t n) {
  return {0, 1, 10, n - 1, n + 5};
}

/// A batch of TopK queries over one table: query rows, the node each
/// excludes (-1: none), and k.
struct ScanBatch {
  Matrix queries;
  std::vector<std::int64_t> exclude;
  std::vector<std::int64_t> k;
};

/// Every k of ScanKs for each of `nodes`, whose own rows are the queries.
ScanBatch RowQueries(const Matrix& z, const std::vector<std::int64_t>& nodes) {
  ScanBatch batch;
  const std::vector<std::int64_t> ks = ScanKs(z.rows());
  batch.queries = Matrix(static_cast<std::int64_t>(nodes.size() * ks.size()),
                         z.cols());
  std::int64_t q = 0;
  for (const std::int64_t node : nodes) {
    for (const std::int64_t k : ks) {
      std::copy(z.RowPtr(node), z.RowPtr(node) + z.cols(),
                batch.queries.RowPtr(q++));
      batch.exclude.push_back(node);
      batch.k.push_back(k);
    }
  }
  return batch;
}

std::vector<TopKSelector> Selectors(const ScanBatch& batch) {
  std::vector<TopKSelector> best;
  for (std::size_t q = 0; q < batch.k.size(); ++q) {
    best.emplace_back(batch.k[q], batch.exclude[q]);
  }
  return best;
}

/// Runs the ordered scan over a sorted copy of `z` and the reference
/// over `z` at 1, 2 and 7 threads, expects equal node ids and score
/// bytes per query, and returns the rows the ordered scan scored.
std::int64_t ExpectOrderedScanMatches(const Matrix& z,
                                      const ScanBatch& batch) {
  Matrix sorted = z;
  const NormOrder order = SortRowsByNorm(&sorted);
  std::int64_t scored = -1;
  for (int threads : kThreadCounts) {
    SetNumThreads(threads);
    std::vector<TopKSelector> want = Selectors(batch);
    std::vector<TopKSelector> got = Selectors(batch);
    ReferenceSlabScan(z, batch.queries, &want);
    const std::int64_t rows =
        ScanNormOrdered(sorted, order, batch.queries, &got);
    if (scored >= 0) {
      EXPECT_EQ(rows, scored) << "threads " << threads;
    }
    scored = rows;
    for (std::size_t q = 0; q < want.size(); ++q) {
      SCOPED_TRACE(::testing::Message()
                   << "threads " << threads << " query " << q << " k "
                   << batch.k[q]);
      const TopKResult a = want[q].Take();
      const TopKResult b = got[q].Take();
      EXPECT_EQ(b.nodes, a.nodes);
      EXPECT_EQ(Bits(b.scores), Bits(a.scores));
    }
  }
  SetNumThreads(1);
  return scored;
}

/// Random rows with every `hub_every`-th row `hub_scale` times longer:
/// the norm profile of a trained model, whose answers sit among its
/// largest rows.
Matrix HubTable(std::int64_t n, std::int64_t d, std::int64_t hub_every,
                float hub_scale, std::uint64_t seed) {
  Rng rng(seed);
  Matrix z = Matrix::RandomNormal(n, d, 0, 1, rng);
  for (std::int64_t v = 0; v < n; v += hub_every) {
    simd::Scale(z.RowPtr(v), hub_scale, d);
  }
  return z;
}

/// Rows that are signed permutations of 1/8, 2/8, ..., d/8: their
/// squares and every partial sum of them are exact, so every row has
/// the same norm bits and nothing can be pruned.
Matrix EqualNormTable(std::int64_t n, std::int64_t d, std::uint64_t seed) {
  Rng rng(seed);
  Matrix z(n, d);
  std::vector<float> base(static_cast<std::size_t>(d));
  for (std::int64_t j = 0; j < d; ++j) {
    base[static_cast<std::size_t>(j)] = static_cast<float>(j + 1) / 8.0f;
  }
  for (std::int64_t v = 0; v < n; ++v) {
    std::vector<float> row = base;
    for (std::int64_t j = d - 1; j > 0; --j) {
      std::swap(row[static_cast<std::size_t>(j)],
                row[static_cast<std::size_t>(rng.UniformInt(j + 1))]);
    }
    for (std::int64_t j = 0; j < d; ++j) {
      z(v, j) = (rng.UniformInt(2) == 0 ? 1.0f : -1.0f) *
                row[static_cast<std::size_t>(j)];
    }
  }
  return z;
}

TEST(SortRowsByNorm, ReordersRowsInPlaceByDescendingNormBound) {
  const Matrix z = HubTable(700, 9, 7, 5.0f, 1);
  Matrix sorted = z;
  const NormOrder order = SortRowsByNorm(&sorted);
  ASSERT_EQ(order.ids.size(), 700u);
  ASSERT_EQ(order.norms.size(), 700u);
  std::vector<bool> seen(700, false);
  for (std::int64_t r = 0; r < 700; ++r) {
    const std::int64_t v = order.ids[static_cast<std::size_t>(r)];
    ASSERT_FALSE(seen[static_cast<std::size_t>(v)]) << "row " << r;
    seen[static_cast<std::size_t>(v)] = true;
    EXPECT_EQ(Bits(RowOf(sorted, r)), Bits(RowOf(z, v))) << "row " << r;
    long double exact = 0.0L;
    for (std::int64_t j = 0; j < z.cols(); ++j) {
      exact += static_cast<long double>(z(v, j)) * z(v, j);
    }
    EXPECT_GE(static_cast<long double>(order.norms[r]), std::sqrt(exact));
    if (r > 0) {
      const float prev = order.norms[static_cast<std::size_t>(r - 1)];
      EXPECT_GE(prev, order.norms[r]) << "row " << r;
      if (prev == order.norms[r]) {
        EXPECT_LT(order.ids[static_cast<std::size_t>(r - 1)], v);
      }
    }
  }
  // Equal norms keep ascending id order.
  Matrix flat = EqualNormTable(50, 6, 2);
  const NormOrder identity = SortRowsByNorm(&flat);
  for (std::int32_t r = 0; r < 50; ++r) EXPECT_EQ(identity.ids[r], r);
}

TEST(KernelDotBound, BoundsTheKernelAndTheExactDot) {
  // Parallel rows meet Cauchy–Schwarz with equality, so the kernel's
  // rounding alone decides whether it lands above the norms' product;
  // opposite-signed halves make the dot cancel; tiny and subnormal rows
  // exercise the absolute term; huge rows approach overflow, where the
  // bound holds only below FLT_MAX.
  Rng rng(23);
  const double flt_max = std::numeric_limits<float>::max();
  for (const std::int64_t dim : {1, 2, 7, 33, 64, 128, 1000}) {
    const KernelDotBound bound(dim);
    for (int trial = 0; trial < 300; ++trial) {
      const float bases[] = {1e17f, 1.0f, 1e-22f, 1e-41f, 3.0f};
      const float base = bases[trial % 5];
      Matrix rows(2, dim);
      for (std::int64_t j = 0; j < dim; ++j) {
        const float x = base * rng.Normal(0, 1.0f);
        rows(0, j) = x;
        switch (trial % 4) {
          case 0:  // parallel: an exact multiple
            rows(1, j) = 2.0f * x;
            break;
          case 1:  // cancelling: the second half flips sign
            rows(1, j) = 2 * j < dim ? x : -x;
            break;
          case 2:  // nearly parallel
            rows(1, j) = x * (1.0f + 1e-3f * rng.Normal(0, 1.0f));
            break;
          default:
            rows(1, j) = base * rng.Normal(0, 1.0f);
            break;
        }
      }
      const float* a = rows.RowPtr(0);
      const float* b = rows.RowPtr(1);
      long double exact = 0.0L;
      long double norm_a = 0.0L;
      long double norm_b = 0.0L;
      for (std::int64_t j = 0; j < dim; ++j) {
        exact += static_cast<long double>(a[j]) * b[j];
        norm_a += static_cast<long double>(a[j]) * a[j];
        norm_b += static_cast<long double>(b[j]) * b[j];
      }
      SCOPED_TRACE(::testing::Message() << "dim " << dim << " trial " << trial);
      const float upper_a = KernelDotBound::NormUpper(a, dim);
      const float upper_b = KernelDotBound::NormUpper(b, dim);
      EXPECT_GE(static_cast<long double>(upper_a), std::sqrt(norm_a));
      EXPECT_GE(static_cast<long double>(upper_b), std::sqrt(norm_b));
      const double upper = bound.Upper(upper_a, upper_b);
      EXPECT_GE(static_cast<long double>(upper), std::fabs(exact));
      if (upper < flt_max) {
        EXPECT_GE(upper, std::fabs(static_cast<double>(simd::Dot(a, b, dim))));
        EXPECT_GE(upper, std::fabs(static_cast<double>(simd::Dot(b, a, dim))));
      }
    }
  }
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float big[] = {3e38f, 3e38f};
  EXPECT_EQ(KernelDotBound::NormUpper(big, 2), inf);
  const float with_nan[] = {1.0f, nan};
  EXPECT_EQ(KernelDotBound::NormUpper(with_nan, 2), inf);
  const float zero[] = {0.0f, -0.0f};
  EXPECT_EQ(KernelDotBound::NormUpper(zero, 2), 0.0f);
}

TEST(TopKSelector, OfferRowsRanksByScoreThenId) {
  const std::vector<float> scores = {5, 1, 5, 7, 5};
  const std::vector<std::int32_t> ids = {9, 0, 3, 8, 4};
  TopKSelector best(3, 8);
  best.OfferRows(scores.data(), ids.data(), 5);
  const TopKResult top = best.Take();
  EXPECT_EQ(top.nodes, (std::vector<std::int64_t>{3, 4, 9}));
  EXPECT_EQ(top.scores, (std::vector<float>{5, 5, 5}));
}

TEST(TopKSelector, ExcludesOnlyBoundsStrictlyBelowAFullAnswer) {
  const float inf = std::numeric_limits<float>::infinity();
  EXPECT_TRUE(TopKSelector(0, -1).Excludes(1e300));
  TopKSelector best(2, -1);
  best.Offer(3.0f, 0);
  EXPECT_FALSE(best.Excludes(-1.0));  // one kept of two: anything enters
  best.Offer(2.0f, 1);
  // A row scoring exactly 2 with a lower id would still enter.
  EXPECT_FALSE(best.Excludes(2.0));
  EXPECT_TRUE(best.Excludes(std::nextafter(2.0, 0.0)));
  // A kept +infinity could tie an unscanned row whose dot overflowed.
  TopKSelector overflowed(1, -1);
  overflowed.Offer(inf, 5);
  EXPECT_FALSE(overflowed.Excludes(1e300));
  // A non-positive k-th score never excludes a (non-negative) bound.
  TopKSelector negative(1, -1);
  negative.Offer(-1.0f, 0);
  EXPECT_FALSE(negative.Excludes(0.0));
  EXPECT_TRUE(negative.Excludes(-2.0));
}

TEST(OrderedScan, HubTableMatchesTheSlabScanAndStopsEarly) {
  const Matrix z = HubTable(3000, 16, 100, 20.0f, 3);
  EXPECT_GT(ExpectOrderedScanMatches(z, RowQueries(z, {5, 1000, 2999, 200})),
            0);
  // A single k = 10 query stops within the first blocks.
  ScanBatch one;
  one.queries = Matrix(1, z.cols());
  std::copy(z.RowPtr(1234), z.RowPtr(1234) + z.cols(), one.queries.RowPtr(0));
  one.exclude = {1234};
  one.k = {10};
  EXPECT_LE(ExpectOrderedScanMatches(z, one), 3000 / 10);
}

TEST(OrderedScan, EqualNormsScanEveryRow) {
  const Matrix z = EqualNormTable(1500, 12, 4);
  const ScanBatch batch = RowQueries(z, {0, 777, 1499});
  // Nothing is pruned: every query with k > 0 scores every row.
  const std::int64_t scanning = 3 * 4;
  EXPECT_EQ(ExpectOrderedScanMatches(z, batch), scanning * 1500);
}

TEST(OrderedScan, DuplicatedRowsTieByAscendingId) {
  // 30 distinct rows, each at ~80 scattered ids: every answer is a run
  // of ties that the node id decides.
  const Matrix distinct = HubTable(30, 8, 6, 4.0f, 5);
  Rng rng(6);
  Matrix z(2400, 8);
  for (std::int64_t v = 0; v < z.rows(); ++v) {
    const std::int64_t src = rng.UniformInt(distinct.rows());
    std::copy(distinct.RowPtr(src), distinct.RowPtr(src) + 8, z.RowPtr(v));
  }
  ExpectOrderedScanMatches(z, RowQueries(z, {0, 1, 1200, 2399}));
}

TEST(OrderedScan, EqualNormsStraddlingABlockBoundary) {
  // Sorted, 60 long rows come first, then a 10-row group of one norm
  // across the 64-row boundary, shorter rows, a second group across the
  // 192-row boundary, then short rows; ids are shuffled.
  const std::int64_t n = 2000;
  const std::int64_t d = 6;
  const Matrix group = EqualNormTable(20, d, 7);
  Rng rng(8);
  std::vector<std::int64_t> ids(static_cast<std::size_t>(n));
  for (std::int64_t v = 0; v < n; ++v) ids[static_cast<std::size_t>(v)] = v;
  for (std::int64_t v = n - 1; v > 0; --v) {
    std::swap(ids[static_cast<std::size_t>(v)],
              ids[static_cast<std::size_t>(rng.UniformInt(v + 1))]);
  }
  Matrix z(n, d);
  for (std::int64_t r = 0; r < n; ++r) {
    float* row = z.RowPtr(ids[static_cast<std::size_t>(r)]);
    if ((r >= 60 && r < 70) || (r >= 187 && r < 197)) {
      const std::int64_t src = r < 70 ? r - 60 : r - 187 + 10;
      const float scale = r < 70 ? 30.0f : 8.0f;
      for (std::int64_t j = 0; j < d; ++j) row[j] = scale * group(src, j);
    } else {
      const float scale = r < 60 ? 40.0f : (r < 187 ? 10.0f : 0.5f);
      for (std::int64_t j = 0; j < d; ++j) {
        row[j] = scale * (0.5f + 0.1f * rng.Uniform());
      }
    }
  }
  Matrix sorted = z;
  const NormOrder order = SortRowsByNorm(&sorted);
  EXPECT_EQ(order.norms[60], order.norms[69]);
  EXPECT_EQ(order.norms[187], order.norms[196]);
  ExpectOrderedScanMatches(
      z, RowQueries(z, {ids[0], ids[63], ids[64], ids[190], ids[1500]}));
}

TEST(OrderedScan, AllNegativeScoresNeverStop) {
  Rng rng(9);
  Matrix z = Matrix::RandomNormal(1200, 10, 0, 1, rng);
  for (std::int64_t v = 0; v < z.rows(); ++v) {
    for (std::int64_t j = 0; j < z.cols(); ++j) z(v, j) = std::fabs(z(v, j));
  }
  ScanBatch batch;
  const std::vector<std::int64_t> ks = ScanKs(z.rows());
  batch.queries = Matrix(static_cast<std::int64_t>(ks.size()), z.cols());
  for (std::size_t q = 0; q < ks.size(); ++q) {
    for (std::int64_t j = 0; j < z.cols(); ++j) {
      batch.queries(static_cast<std::int64_t>(q), j) = -1.0f - z(17, j);
    }
    batch.exclude.push_back(-1);
    batch.k.push_back(ks[q]);
  }
  EXPECT_EQ(ExpectOrderedScanMatches(z, batch), 4 * z.rows());
}

TEST(OrderedScan, KthScoreTiedWithALaterRowKeepsScanning) {
  // The query is e1. 191 long rows score -1 and fill the first two
  // blocks; row A (id 250, norm sqrt(13)) ends block two with score 2.
  // Rows B and C (ids 7 and 3, norm 2) start block three with score 2 as
  // well: their bound only reaches 2, so the scan must go on to them,
  // and they win the tie on id.
  const std::int64_t n = 600;
  Matrix z(n, 4);
  Rng rng(10);
  std::int64_t next_long = 0;
  for (std::int64_t v = 0; v < n; ++v) {
    if (v == 250 || v == 7 || v == 3) continue;
    if (next_long < 191 && v % 3 == 0) {
      z(v, 0) = -1.0f;
      z(v, 1) = 10.0f + static_cast<float>(next_long++);
    } else {
      z(v, 0) = 0.1f * rng.Uniform();
      z(v, 2) = 0.1f * rng.Uniform();
    }
  }
  ASSERT_EQ(next_long, 191);
  z(250, 0) = 2.0f;
  z(250, 1) = 3.0f;
  z(7, 0) = 2.0f;
  z(3, 0) = 2.0f;
  Matrix sorted = z;
  const NormOrder order = SortRowsByNorm(&sorted);
  ASSERT_EQ(order.ids[191], 250);
  ASSERT_EQ(order.ids[192], 3);
  ASSERT_EQ(order.ids[193], 7);
  ScanBatch batch;
  batch.queries = Matrix(3, 4);
  for (std::int64_t q = 0; q < 3; ++q) batch.queries(q, 0) = 1.0f;
  batch.exclude = {-1, -1, 3};
  batch.k = {1, 2, 1};
  ExpectOrderedScanMatches(z, batch);
  std::vector<TopKSelector> best = Selectors(batch);
  ScanNormOrdered(sorted, order, batch.queries, &best);
  EXPECT_EQ(best[0].Take().nodes, (std::vector<std::int64_t>{3}));
  EXPECT_EQ(best[1].Take().nodes, (std::vector<std::int64_t>{3, 7}));
  EXPECT_EQ(best[2].Take().nodes, (std::vector<std::int64_t>{7}));
}

/// A graph with no edges whose features are `table`: under the
/// identity-weight checkpoint below, its served embeddings are the table.
Graph TableGraph(const Matrix& table) {
  return BuildGraph(table.rows(), {}, table);
}

/// A one-layer, weight-only encoder checkpoint with weight `w`.
TrainerCheckpoint WeightCheckpoint(const Matrix& w) {
  TrainerCheckpoint ckpt;
  ckpt.encoder_params = {w};
  return ckpt;
}

Matrix Identity(std::int64_t d) {
  Matrix w(d, d);
  for (std::int64_t j = 0; j < d; ++j) w(j, j) = 1.0f;
  return w;
}

/// The table `server` serves for `g` under `ckpt`, in node order.
Matrix ServedTable(const Graph& g, const TrainerCheckpoint& ckpt) {
  GcnConfig cfg;
  cfg.dims = {g.feature_dim(), ckpt.encoder_params[0].cols()};
  cfg.bias = false;
  Rng rng(0);
  GcnEncoder encoder(cfg, rng);
  encoder.params().LoadValues(ckpt.encoder_params);
  return encoder.Encode(g);
}

/// The reference answer of node `node`'s TopK over `z`.
TopKResult ReferenceTopK(const Matrix& z, std::int64_t node, std::int64_t k) {
  Matrix query(1, z.cols());
  std::copy(z.RowPtr(node), z.RowPtr(node) + z.cols(), query.RowPtr(0));
  std::vector<TopKSelector> best;
  best.emplace_back(std::min(k, z.rows() - 1), node);
  ReferenceSlabScan(z, query, &best);
  return best[0].Take();
}

TEST(EmbeddingServer, OrderedScanServesTheSlabScanAnswer) {
  const Matrix tables[] = {HubTable(2500, 12, 50, 10.0f, 11),
                           EqualNormTable(2500, 12, 12)};
  for (const Matrix& table : tables) {
    const Graph g = TableGraph(table);
    const TrainerCheckpoint ckpt = WeightCheckpoint(Identity(table.cols()));
    const Matrix z = ServedTable(g, ckpt);
    const std::int64_t n = z.rows();
    for (int threads : kThreadCounts) {
      SetNumThreads(threads);
      for (bool precompute : {false, true}) {
        SCOPED_TRACE(::testing::Message() << "precompute " << precompute
                                          << " threads " << threads);
        FlusherGate gate;
        bool first = true;  // flusher-only
        ServeOptions opt;
        opt.precompute = precompute;
        opt.fault_injector.stall_batch = [&](std::int64_t) {
          if (first) gate.Block();
          first = false;
        };
        std::string error;
        auto server = EmbeddingServer::FromCheckpoint(g, ckpt, opt, &error);
        ASSERT_NE(server, nullptr) << error;
        // Rows and scores before the generation's first TopK, served in
        // the batch that sorts the table, and after it.
        const std::vector<Query> lookups = {{Query::kRow, 0, 0},
                                            {Query::kRow, n - 1, 0},
                                            {Query::kRow, 1234, 0},
                                            {Query::kScore, 3, 2000},
                                            {Query::kScore, n - 1, 50}};
        std::future<Answer> blocker = Send(*server, lookups[0]);
        gate.AwaitBlocked();
        std::vector<std::future<Answer>> batch;
        for (const Query& q : lookups) batch.push_back(Send(*server, q));
        for (const std::int64_t k : ScanKs(n)) {
          batch.push_back(Send(*server, {Query::kTopK, 1234, k}));
        }
        batch.push_back(Send(*server, {Query::kTopK, 50, 10}));
        gate.Release();
        EXPECT_EQ(blocker.get().status, ServeStatus::kOk);
        std::vector<Answer> got;
        for (std::future<Answer>& f : batch) got.push_back(f.get());
        for (std::size_t i = 0; i < lookups.size(); ++i) {
          const Query& q = lookups[i];
          const std::vector<float> want =
              q.kind == Query::kRow
                  ? RowOf(z, q.a)
                  : std::vector<float>{simd::Dot(z.RowPtr(q.a), z.RowPtr(q.b),
                                                 z.cols())};
          EXPECT_EQ(got[i].bits, Bits(want)) << "lookup " << i;
          EXPECT_EQ(Send(*server, q).get().bits, Bits(want))
              << "lookup " << i << " after the first TopK";
        }
        std::size_t at = lookups.size();
        for (const std::int64_t k : ScanKs(n)) {
          const TopKResult want = ReferenceTopK(z, 1234, k);
          EXPECT_EQ(got[at].nodes, want.nodes) << "k " << k;
          EXPECT_EQ(got[at].bits, Bits(want.scores)) << "k " << k;
          ++at;
        }
        for (const std::int64_t node : {50L, 0L, n - 1, 777L}) {
          const TopKResult want = ReferenceTopK(z, node, 10);
          const Answer solo = Send(*server, {Query::kTopK, node, 10}).get();
          EXPECT_EQ(solo.nodes, want.nodes) << "node " << node;
          EXPECT_EQ(solo.bits, Bits(want.scores)) << "node " << node;
          if (node == 50) {
            EXPECT_EQ(got[at].nodes, want.nodes);
            EXPECT_EQ(got[at].bits, Bits(want.scores));
          }
        }
      }
    }
  }
  SetNumThreads(1);
}

TEST(EmbeddingServer, RecordsRowsScoredPerQuery) {
  SetObsEnabled(true);
  const Matrix hubs = HubTable(3000, 16, 50, 30.0f, 13);
  const Matrix flat = EqualNormTable(3000, 16, 14);
  const std::int64_t nodes[] = {1, 500, 2999};
  for (const Matrix* table : {&hubs, &flat}) {
    const Graph g = TableGraph(*table);
    const TrainerCheckpoint ckpt = WeightCheckpoint(Identity(table->cols()));
    ServeOptions opt;
    opt.precompute = true;
    std::string error;
    auto server = EmbeddingServer::FromCheckpoint(g, ckpt, opt, &error);
    ASSERT_NE(server, nullptr) << error;
    MetricsRegistry::Get().ResetValuesForTest();
    for (const std::int64_t node : nodes) ServedTopK(*server, node, 10);
    const std::uint64_t scored =
        MetricsRegistry::Get().Snapshot().counter("serve.topk.rows_scored");
    if (table == &flat) {
      EXPECT_EQ(scored, 3u * 3000u);  // one full pass per query
    } else {
      // The 60 hubs hold every answer: each query stops within the
      // first two blocks (64 + 128 rows).
      EXPECT_GT(scored, 0u);
      EXPECT_LE(scored, 3u * 192u);
    }
  }
}

TEST(EmbeddingServer, ReloadedGenerationSortsItsOwnTable) {
  const Matrix table = HubTable(2000, 8, 40, 8.0f, 15);
  const Graph g = TableGraph(table);
  const TrainerCheckpoint first = WeightCheckpoint(Identity(8));
  // The second model stretches one column, so its rows sort otherwise.
  Matrix stretch = Identity(8);
  stretch(5, 5) = 30.0f;
  const TrainerCheckpoint second = WeightCheckpoint(stretch);
  const Matrix z1 = ServedTable(g, first);
  const Matrix z2 = ServedTable(g, second);
  for (bool precompute : {false, true}) {
    SCOPED_TRACE(::testing::Message() << "precompute " << precompute);
    ServeOptions opt;
    opt.precompute = precompute;
    std::string error;
    auto server = EmbeddingServer::FromCheckpoint(g, first, opt, &error);
    ASSERT_NE(server, nullptr) << error;
    const auto expect_generation = [&](const Matrix& z, std::uint64_t gen) {
      for (const std::int64_t node : {3L, 40L, 1999L}) {
        const TopKResponse top =
            server->TopKSimilar(node, 10, ServeRequestOptions{});
        ASSERT_EQ(top.status, ServeStatus::kOk);
        EXPECT_EQ(top.generation, gen);
        const TopKResult want = ReferenceTopK(z, node, 10);
        EXPECT_EQ(top.result.nodes, want.nodes) << "node " << node;
        EXPECT_EQ(Bits(top.result.scores), Bits(want.scores));
        const EmbeddingResponse row =
            server->GetEmbedding(node, ServeRequestOptions{});
        EXPECT_EQ(row.generation, gen);
        EXPECT_EQ(Bits(row.row), Bits(RowOf(z, node))) << "node " << node;
      }
    };
    expect_generation(z1, 1);
    const std::shared_ptr<const ModelState> old = server->state();
    ASSERT_EQ(server->ReloadCheckpoint(second, &error), ServeStatus::kOk)
        << error;
    EXPECT_TRUE(server->state()->order.ids.empty());
    expect_generation(z2, 2);
    EXPECT_NE(server->state()->order.ids, old->order.ids);
  }
}

/// {serve.rows_computed, serve.cache.misses}, read together.
std::pair<std::uint64_t, std::uint64_t> RowCounters() {
  const MetricsSnapshot snap = MetricsRegistry::Get().Snapshot();
  return {snap.counter("serve.rows_computed"),
          snap.counter("serve.cache.misses")};
}

/// Every row and score `server` serves for `nodes` carries the bytes of
/// `z`, the offline Encode() of its generation.
void ExpectServesTable(EmbeddingServer& server, const Matrix& z,
                       const std::vector<std::int64_t>& nodes) {
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const std::int64_t u = nodes[i];
    const std::int64_t v = nodes[(i + 1) % nodes.size()];
    EXPECT_EQ(Bits(ServedRow(server, u)), Bits(RowOf(z, u))) << "node " << u;
    EXPECT_EQ(Bits({ServedScore(server, u, v)}),
              Bits({simd::Dot(z.RowPtr(u), z.RowPtr(v), z.cols())}))
        << "link " << u << "," << v;
  }
}

TEST(EmbeddingServer, LazyGenerationReadsRowsFromItsTableAfterItsFirstTopK) {
  const Graph g = ServeGraph();
  const TrainerCheckpoint ckpt = MakeCheckpoint(g);
  const Matrix reference = ReferenceEmbeddings(g, ckpt);
  SetObsEnabled(true);
  for (int threads : kThreadCounts) {
    SetNumThreads(threads);
    SCOPED_TRACE(::testing::Message() << "threads " << threads);
    ServeOptions opt;  // lazy, fp32
    std::string error;
    auto server = EmbeddingServer::FromCheckpoint(g, ckpt, opt, &error);
    ASSERT_NE(server, nullptr) << error;
    MetricsRegistry::Get().ResetValuesForTest();
    // The first TopK computes its query row behind the cache, then
    // materializes the table.
    const TopKResult top = ServedTopK(*server, 31, 5);
    EXPECT_EQ(top.nodes.size(), 5u);
    EXPECT_EQ(server->state()->full.rows(), g.num_nodes);
    const auto after_topk = RowCounters();
    EXPECT_EQ(after_topk, std::make_pair(std::uint64_t{1}, std::uint64_t{1}));
    // Nodes never fetched before come from the table: Encode()'s bytes,
    // with nothing computed and the cache untouched.
    ExpectServesTable(*server, reference, {0, 17, 64, 119, 90});
    EXPECT_EQ(RowCounters(), after_topk);
    EXPECT_EQ(server->cache()->Size(), 1);
  }
  SetNumThreads(1);
}

TEST(EmbeddingServer, ReloadedLazyGenerationComputesRowsUntilItsOwnFirstTopK) {
  const Graph g = ServeGraph();
  const TrainerCheckpoint first = MakeCheckpoint(g, /*seed=*/3);
  const TrainerCheckpoint second = MakeCheckpoint(g, /*seed=*/4);
  const Matrix z2 = ReferenceEmbeddings(g, second);
  SetObsEnabled(true);
  ServeOptions opt;  // lazy, fp32
  std::string error;
  auto server = EmbeddingServer::FromCheckpoint(g, first, opt, &error);
  ASSERT_NE(server, nullptr) << error;
  ServedTopK(*server, 31, 5);  // generation 1 materializes its table
  ASSERT_EQ(server->ReloadCheckpoint(second, &error), ServeStatus::kOk)
      << error;
  EXPECT_EQ(server->state()->full.rows(), 0);
  MetricsRegistry::Get().ResetValuesForTest();
  // Generation 2 holds no table yet: each new row is computed once,
  // behind its own cache.
  ExpectServesTable(*server, z2, {7, 50});
  const auto before_topk = RowCounters();
  EXPECT_EQ(before_topk, std::make_pair(std::uint64_t{2}, std::uint64_t{2}));
  // Its first TopK (query row cached) materializes its own table, which
  // then serves every row.
  const TopKResponse top = server->TopKSimilar(50, 5, ServeRequestOptions{});
  ASSERT_EQ(top.status, ServeStatus::kOk);
  EXPECT_EQ(top.generation, 2u);
  EXPECT_EQ(server->state()->full.rows(), g.num_nodes);
  ExpectServesTable(*server, z2, {8, 99, 7, 119});
  EXPECT_EQ(RowCounters(), before_topk);
}

TEST(EmbeddingServer, ConcurrentLookupsChurnTheLazyCache) {
  const Graph g = ServeGraph();
  const TrainerCheckpoint ckpt = MakeCheckpoint(g);
  const Matrix reference = ReferenceEmbeddings(g, ckpt);
  ServeOptions opt;
  opt.cache_capacity = 16;  // far below |V|: rows are evicted and recomputed
  opt.max_batch = 16;
  std::string error;
  auto server = EmbeddingServer::FromCheckpoint(g, ckpt, opt, &error);
  ASSERT_NE(server, nullptr) << error;

  // Lookups only: no TopK materializes the table, so every row comes
  // through the cache for the whole run.
  constexpr int kClients = 8;
  constexpr int kQueriesPerClient = 40;
  std::vector<std::thread> clients;
  std::vector<int> failures(kClients, 0);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Rng rng(2000 + static_cast<std::uint64_t>(c));
      for (int q = 0; q < kQueriesPerClient; ++q) {
        const std::int64_t node = rng.UniformInt(g.num_nodes);
        const std::int64_t other = rng.UniformInt(g.num_nodes);
        if (q % 2 == 0) {
          if (ServedRow(*server, node) != RowOf(reference, node)) {
            ++failures[c];
          }
        } else if (ServedScore(*server, node, other) !=
                   simd::Dot(reference.RowPtr(node), reference.RowPtr(other),
                             reference.cols())) {
          ++failures[c];
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  for (int c = 0; c < kClients; ++c) {
    EXPECT_EQ(failures[c], 0) << "client " << c;
  }
  EXPECT_EQ(server->state()->full.rows(), 0);
  EXPECT_LE(server->cache()->Size(), 16);
  // More misses than the cache holds: rows were evicted under load.
  EXPECT_GT(server->cache()->misses(), 16u);
}

// --- Checkpoint loading & validation. --------------------------------------

class ServeLoadTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (fs::temp_directory_path() /
            ("e2gcl_serve_" +
             std::string(::testing::UnitTest::GetInstance()
                             ->current_test_info()
                             ->name()) +
             "_" + std::to_string(::getpid())))
               .string();
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string dir_;
};

TEST_F(ServeLoadTest, LoadsValidCheckpointAndServes) {
  Graph g = ServeGraph();
  TrainerCheckpoint ckpt = MakeCheckpoint(g);
  const std::string path = dir_ + "/ckpt.e2gcl";
  ASSERT_TRUE(SaveTrainerCheckpoint(path, ckpt));

  ServeOptions opt;
  std::string error;
  auto server = EmbeddingServer::Load(g, path, opt, &error);
  ASSERT_NE(server, nullptr) << error;
  EXPECT_EQ(server->num_nodes(), g.num_nodes);
  EXPECT_EQ(server->embed_dim(), 8);
  const Matrix reference = ReferenceEmbeddings(g, ckpt);
  EXPECT_EQ(ServedRow(*server, 9), RowOf(reference, 9));
}

TEST_F(ServeLoadTest, RejectsCorruptedCheckpoint) {
  Graph g = ServeGraph();
  TrainerCheckpoint ckpt = MakeCheckpoint(g);
  const std::string path = dir_ + "/ckpt.e2gcl";
  ASSERT_TRUE(SaveTrainerCheckpoint(path, ckpt));
  // Flip one payload byte: the per-section CRC must catch it.
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.is_open());
    f.seekg(64);
    char byte = 0;
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x40);
    f.seekp(64);
    f.write(&byte, 1);
  }
  ServeOptions opt;
  std::string error;
  EXPECT_EQ(EmbeddingServer::Load(g, path, opt, &error), nullptr);
  EXPECT_NE(error.find("validation"), std::string::npos) << error;
}

TEST_F(ServeLoadTest, RejectsFingerprintMismatch) {
  Graph g = ServeGraph();
  TrainerCheckpoint ckpt = MakeCheckpoint(g);
  ServeOptions opt;
  opt.expected_fingerprint = ckpt.config_fingerprint + 1;
  std::string error;
  EXPECT_EQ(EmbeddingServer::FromCheckpoint(g, ckpt, opt, &error), nullptr);
  EXPECT_NE(error.find("fingerprint"), std::string::npos) << error;

  opt.expected_fingerprint = ckpt.config_fingerprint;
  EXPECT_NE(EmbeddingServer::FromCheckpoint(g, ckpt, opt, &error), nullptr)
      << error;
}

TEST_F(ServeLoadTest, RejectsGraphWithWrongFeatureDim) {
  Graph g = ServeGraph();
  TrainerCheckpoint ckpt = MakeCheckpoint(g);
  SbmSpec spec;
  spec.num_nodes = 40;
  spec.num_classes = 2;
  spec.feature_dim = 10;  // != the checkpoint's input width 16
  spec.informative_dims_per_class = 3;
  Graph other = GenerateSbm(spec, 5);
  ServeOptions opt;
  std::string error;
  EXPECT_EQ(EmbeddingServer::FromCheckpoint(other, ckpt, opt, &error),
            nullptr);
  EXPECT_NE(error.find("feature"), std::string::npos) << error;
}

TEST(InferEncoderLayout, RecognizesBiasAndWeightOnlyChains) {
  // Bias layout: W0 (16x12), b0 (1x12), W1 (12x8), b1 (1x8).
  std::vector<Matrix> with_bias;
  with_bias.emplace_back(16, 12);
  with_bias.emplace_back(1, 12);
  with_bias.emplace_back(12, 8);
  with_bias.emplace_back(1, 8);
  std::vector<std::int64_t> dims;
  bool bias = false;
  ASSERT_TRUE(InferEncoderLayout(with_bias, &dims, &bias));
  EXPECT_TRUE(bias);
  EXPECT_EQ(dims, (std::vector<std::int64_t>{16, 12, 8}));

  std::vector<Matrix> no_bias;
  no_bias.emplace_back(16, 12);
  no_bias.emplace_back(12, 8);
  ASSERT_TRUE(InferEncoderLayout(no_bias, &dims, &bias));
  EXPECT_FALSE(bias);
  EXPECT_EQ(dims, (std::vector<std::int64_t>{16, 12, 8}));

  // A broken chain (inner dims disagree) parses as neither layout.
  std::vector<Matrix> broken;
  broken.emplace_back(16, 12);
  broken.emplace_back(10, 8);
  EXPECT_FALSE(InferEncoderLayout(broken, &dims, &bias));
  EXPECT_FALSE(InferEncoderLayout({}, &dims, &bias));
}

}  // namespace
}  // namespace e2gcl
