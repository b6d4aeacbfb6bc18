// Embedding-serving layer: bit-identity across {cold, cached} x {solo,
// batched} x thread counts, LRU cache semantics, deadline/size batch
// flushing, checkpoint validation, and concurrent-client correctness
// (the latter is the TSAN target registered in check_sanitizers.sh).

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
#include "io/checkpoint.h"
#include "nn/gcn.h"
#include "obs/metrics.h"
#include "parallel/thread_pool.h"
#include "serve/embedding_server.h"
#include "serve/lru_cache.h"
#include "serve/quantized_table.h"
#include "serve_test_util.h"
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

// --- ShardedRowCache. ------------------------------------------------------

TEST(ShardedRowCache, EvictsLeastRecentlyUsedWithinShard) {
  // One shard, two slots: deterministic LRU order.
  ShardedRowCache cache(2, 1);
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

TEST(ShardedRowCache, PutRefreshesExistingEntry) {
  ShardedRowCache cache(2, 1);
  cache.Put(1, {1.0f});
  cache.Put(2, {2.0f});
  cache.Put(1, {1.5f});  // refresh: 2 becomes LRU
  cache.Put(3, {3.0f});
  EXPECT_FALSE(cache.Contains(2));
  std::vector<float> row;
  ASSERT_TRUE(cache.Get(1, &row));
  EXPECT_EQ(row, std::vector<float>{1.5f});
}

TEST(ShardedRowCache, ShardsAreIndependent) {
  // Capacity 4 over 2 shards -> 2 slots per shard; even/odd keys map to
  // different shards, so 3 even inserts evict only among even keys.
  ShardedRowCache cache(4, 2);
  EXPECT_EQ(cache.per_shard_capacity(), 2);
  cache.Put(0, {0.0f});
  cache.Put(2, {2.0f});
  cache.Put(4, {4.0f});  // evicts 0
  cache.Put(1, {1.0f});
  EXPECT_FALSE(cache.Contains(0));
  EXPECT_TRUE(cache.Contains(2));
  EXPECT_TRUE(cache.Contains(4));
  EXPECT_TRUE(cache.Contains(1));
  EXPECT_EQ(cache.Size(), 3);
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
  TopKResult got = ServedExactTopK(*server, query, k);
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
    const TopKResult edge = ServedExactTopK(*server, query, edge_k);
    ExpectRanking(edge, all, std::min<std::int64_t>(edge_k, g.num_nodes - 1));
  }

  // Lazy and precompute TopK agree bit-for-bit.
  ServeOptions pre = opt;
  pre.precompute = true;
  auto server2 = EmbeddingServer::FromCheckpoint(g, ckpt, pre, &error);
  ASSERT_NE(server2, nullptr) << error;
  TopKResult got2 = ServedExactTopK(*server2, query, k);
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

TEST(QuantizedEmbeddingTable, ScoreAllIsThreadCountInvariant) {
  Graph g = ServeGraph();
  TrainerCheckpoint ckpt = MakeCheckpoint(g);
  const Matrix reference = ReferenceEmbeddings(g, ckpt);
  const QuantizedEmbeddingTable table = QuantizedEmbeddingTable::Build(
      reference);
  std::vector<std::int8_t> q;
  const float qscale = table.QuantizeQuery(reference.RowPtr(17), &q);
  SetNumThreads(1);
  std::vector<float> baseline;
  table.ScoreAll(q.data(), qscale, &baseline);
  for (int threads : kThreadCounts) {
    SetNumThreads(threads);
    std::vector<float> scores;
    table.ScoreAll(q.data(), qscale, &scores);
    EXPECT_EQ(scores, baseline) << "threads=" << threads;
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
  quant.quantize_int8 = true;  // default rescore_factor = 4
  auto quant_server = EmbeddingServer::FromCheckpoint(g, ckpt, quant, &error);
  ASSERT_NE(quant_server, nullptr) << error;
  EXPECT_FALSE(quant_server->quantized().empty());

  // With the exact fp32 rescore, the quantized path must return the same
  // node sets AND the same exact scores as the fp32 scan on every query
  // here (the true top-k comfortably survives into the k*4 candidate
  // pool on this fixture).
  for (std::int64_t query : {0L, 17L, 31L, 64L, 119L}) {
    const TopKResult want = ServedExactTopK(*exact_server, query, 5);
    const TopKResult got = ServedExactTopK(*quant_server, query, 5);
    EXPECT_EQ(got.nodes, want.nodes) << "query " << query;
    EXPECT_EQ(got.scores, want.scores) << "query " << query;
  }
  // k = 0 is an empty answer; k >= |V| rescores every other node, so it
  // is the full fp32 ranking.
  const std::int64_t query = 31;
  for (const std::int64_t k : {0L, g.num_nodes, g.num_nodes + 5}) {
    const TopKResult want = ServedExactTopK(*exact_server, query, k);
    const TopKResult got = ServedExactTopK(*quant_server, query, k);
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

TEST(EmbeddingServer, QuantizedTopKWithoutRescoreRanksByApproxScores) {
  Graph g = ServeGraph();
  TrainerCheckpoint ckpt = MakeCheckpoint(g);
  const Matrix reference = ReferenceEmbeddings(g, ckpt);
  ServeOptions quant;
  quant.quantize_int8 = true;
  quant.rescore_factor = 0;  // approximate scores straight from int8
  std::string error;
  auto server = EmbeddingServer::FromCheckpoint(g, ckpt, quant, &error);
  ASSERT_NE(server, nullptr) << error;

  const std::int64_t query = 31;
  const TopKResult got = ServedExactTopK(*server, query, 5);
  ASSERT_EQ(got.nodes.size(), 5u);
  // Reproduce the approximate scan out-of-process.
  const QuantizedEmbeddingTable table = QuantizedEmbeddingTable::Build(
      reference);
  std::vector<std::int8_t> q;
  const float qscale = table.QuantizeQuery(reference.RowPtr(query), &q);
  std::vector<float> approx;
  table.ScoreAll(q.data(), qscale, &approx);
  std::vector<std::pair<float, std::int64_t>> all;
  for (std::int64_t i = 0; i < g.num_nodes; ++i) {
    if (i != query) all.push_back({approx[static_cast<std::size_t>(i)], i});
  }
  std::sort(all.begin(), all.end(), [](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first > b.first;
    return a.second < b.second;
  });
  for (std::size_t i = 0; i < 5u; ++i) {
    EXPECT_EQ(got.nodes[i], all[i].second) << "rank " << i;
    EXPECT_EQ(got.scores[i], all[i].first) << "rank " << i;
  }
  // k = 0 is an empty answer; k >= |V| ranks every other node.
  for (const std::int64_t k : {0L, g.num_nodes, g.num_nodes + 5}) {
    ExpectRanking(ServedExactTopK(*server, query, k), all,
                  std::min<std::int64_t>(k, g.num_nodes - 1));
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
  // Repeated and distinct nodes, both slabs, k from 0 past |V|. The
  // first request is a TopK: under degrade_watermark 1 it is admitted at
  // queue depth 0 and rescored, while the later TopKs are degraded.
  const std::vector<Query> queries = {
      {Query::kTopK, 17, 10},       {Query::kRow, 17, 0},
      {Query::kTopK, 17, 10},       {Query::kTopK, 17, 0},
      {Query::kTopK, 4096, 1},      {Query::kScore, 17, 4096},
      {Query::kTopK, n - 1, n - 1}, {Query::kTopK, 0, n + 5},
      {Query::kRow, 4095, 0},       {Query::kTopK, 4095, 10},
      {Query::kScore, 3, n - 1},    {Query::kTopK, 2500, 10},
  };
  struct Path {
    const char* name;
    bool int8;
    std::int64_t rescore_factor;
    std::int64_t degrade_watermark;
  };
  const Path paths[] = {{"fp32", false, 4, 0},
                        {"int8", true, 4, 0},
                        {"int8_approx", true, 0, 0},
                        {"degraded", true, 4, 1}};
  for (int threads : kThreadCounts) {
    SetNumThreads(threads);
    for (bool precompute : {false, true}) {
      for (const Path& path : paths) {
        SCOPED_TRACE(std::string(path.name) + " precompute=" +
                     std::to_string(precompute) +
                     " threads=" + std::to_string(threads));
        FlusherGate gate;
        std::vector<std::int64_t> batch_sizes;  // flusher-written
        ServeOptions opt;
        opt.precompute = precompute;
        opt.quantize_int8 = path.int8;
        opt.rescore_factor = path.rescore_factor;
        opt.degrade_watermark = path.degrade_watermark;
        opt.fault_injector.stall_batch = [&](std::int64_t size) {
          batch_sizes.push_back(size);
          if (batch_sizes.size() == 1) gate.Block();
        };
        std::string error;
        auto server = EmbeddingServer::FromCheckpoint(g, ckpt, opt, &error);
        ASSERT_NE(server, nullptr) << error;
        // A degraded answer is the int8 approximate scan's answer.
        ServeOptions approx_opt = opt;
        approx_opt.rescore_factor = 0;
        approx_opt.degrade_watermark = 0;
        approx_opt.fault_injector = {};
        auto approx = EmbeddingServer::FromCheckpoint(g, ckpt, approx_opt,
                                                      &error);
        ASSERT_NE(approx, nullptr) << error;

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
          const bool degraded = path.degrade_watermark > 0 &&
                                q.kind == Query::kTopK && i > 0;
          const Answer solo = Send(degraded ? *approx : *server, q).get();
          EXPECT_EQ(solo.status, ServeStatus::kOk) << "query " << i;
          EXPECT_EQ(got[i].status,
                    degraded ? ServeStatus::kDegraded : ServeStatus::kOk)
              << "query " << i;
          EXPECT_EQ(got[i].nodes, solo.nodes) << "query " << i;
          EXPECT_EQ(got[i].bits, solo.bits) << "query " << i;
          if (q.kind != Query::kTopK) continue;
          EXPECT_EQ(static_cast<std::int64_t>(got[i].nodes.size()),
                    std::min(q.b, n - 1))
              << "query " << i;
          // Unbatched, unslabbed references where the answer has one:
          // the fp32 scan and the approximate int8 scan.
          std::vector<float> scores;
          if (!path.int8) {
            for (std::int64_t v = 0; v < n; ++v) {
              scores.push_back(simd::Dot(reference.RowPtr(q.a),
                                         reference.RowPtr(v),
                                         reference.cols()));
            }
          } else if (path.rescore_factor == 0 || degraded) {
            const QuantizedEmbeddingTable& table = server->quantized();
            std::vector<std::int8_t> codes;
            const float scale =
                table.QuantizeQuery(reference.RowPtr(q.a), &codes);
            table.ScoreAll(codes.data(), scale, &scores);
          } else {
            continue;
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
  opt.cache_shards = 2;
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
            TopKResult r = ServedExactTopK(*server, node, 3);
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
