#include "graph/graph.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <tuple>
#include <utility>
#include <vector>

#include "tensor/rng.h"
#include "test_util.h"

namespace e2gcl {
namespace {

using testing_util::SmallGraph;

TEST(BuildGraph, SymmetrizesAndDedupes) {
  Graph g = BuildGraph(3, {{0, 1}, {1, 0}, {0, 1}, {1, 2}});
  EXPECT_EQ(g.num_edges(), 2);
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_TRUE(g.HasEdge(1, 0));
  EXPECT_TRUE(g.HasEdge(1, 2));
  EXPECT_FALSE(g.HasEdge(0, 2));
}

TEST(BuildGraph, DropsSelfLoops) {
  Graph g = BuildGraph(2, {{0, 0}, {0, 1}, {1, 1}});
  EXPECT_EQ(g.num_edges(), 1);
  EXPECT_FALSE(g.HasEdge(0, 0));
}

TEST(BuildGraph, DegreesMatch) {
  Graph g = SmallGraph();
  EXPECT_EQ(g.Degree(0), 2);
  EXPECT_EQ(g.Degree(2), 3);  // triangle + bridge
  EXPECT_EQ(g.Degree(3), 3);
  EXPECT_EQ(g.num_nodes, 6);
  EXPECT_EQ(g.num_edges(), 7);
}

TEST(BuildGraph, NeighborsSorted) {
  Graph g = SmallGraph();
  auto nb = g.Neighbors(2);
  for (std::size_t i = 1; i < nb.size(); ++i) EXPECT_LT(nb[i - 1], nb[i]);
}

TEST(BuildGraph, IsolatedNodeHasNoNeighbors) {
  Graph g = BuildGraph(4, {{0, 1}});
  EXPECT_EQ(g.Degree(3), 0);
  EXPECT_TRUE(g.Neighbors(3).empty());
}

TEST(NormalizedAdjacency, EntriesMatchDefinition) {
  Graph g = SmallGraph();
  Matrix dense = NormalizedAdjacency(g).ToDense();
  // Entry (v, u) = 1 / sqrt((d_v + 1)(d_u + 1)) for edges (self-loop
  // counted in the degree), e.g. edge (0, 1): d_0 = d_1 = 2.
  EXPECT_NEAR(dense(0, 1), 1.0f / 3.0f, 1e-5f);
  // Bridge (2, 3): d_2 = d_3 = 3.
  EXPECT_NEAR(dense(2, 3), 1.0f / 4.0f, 1e-5f);
  // Row sums are positive and bounded by sqrt(max-degree ratio), not 1.
  for (std::int64_t r = 0; r < dense.rows(); ++r) {
    float sum = 0.0f;
    for (std::int64_t c = 0; c < dense.cols(); ++c) sum += dense(r, c);
    EXPECT_GT(sum, 0.0f);
    EXPECT_LT(sum, 2.0f);
  }
}

TEST(NormalizedAdjacency, SymmetricMatrix) {
  Graph g = SmallGraph();
  Matrix dense = NormalizedAdjacency(g).ToDense();
  EXPECT_LT(MaxAbsDiff(dense, Transpose(dense)), 1e-6f);
}

TEST(NormalizedAdjacency, SelfLoopOnDiagonal) {
  Graph g = SmallGraph();
  Matrix dense = NormalizedAdjacency(g).ToDense();
  for (std::int64_t v = 0; v < g.num_nodes; ++v) {
    // D counts the self-loop, so the diagonal is 1 / (deg(v) + 1).
    EXPECT_EQ(dense(v, v), static_cast<float>(1.0 / (g.Degree(v) + 1.0)));
  }
}

TEST(NormalizedAdjacency, RegularGraphValues) {
  // A 4-cycle is 2-regular: with self-loops every entry is 1/3.
  Graph g = BuildGraph(4, {{0, 1}, {1, 2}, {2, 3}, {3, 0}});
  Matrix d = NormalizedAdjacency(g).ToDense();
  EXPECT_NEAR(d(0, 0), 1.0f / 3.0f, 1e-5f);
  EXPECT_NEAR(d(0, 1), 1.0f / 3.0f, 1e-5f);
  EXPECT_EQ(d(0, 2), 0.0f);
}

TEST(RowNormalizedAdjacency, RowsSumToOne) {
  Graph g = SmallGraph();
  Matrix d = RowNormalizedAdjacency(g).ToDense();
  for (std::int64_t r = 0; r < d.rows(); ++r) {
    float sum = 0.0f;
    for (std::int64_t c = 0; c < d.cols(); ++c) sum += d(r, c);
    EXPECT_NEAR(sum, 1.0f, 1e-5f);
  }
}

TEST(KHopNeighborhood, ZeroHopsIsSelf) {
  Graph g = SmallGraph();
  EXPECT_EQ(KHopNeighborhood(g, 0, 0), (std::vector<std::int64_t>{0}));
}

TEST(KHopNeighborhood, OneAndTwoHops) {
  Graph g = SmallGraph();
  EXPECT_EQ(KHopNeighborhood(g, 0, 1), (std::vector<std::int64_t>{0, 1, 2}));
  EXPECT_EQ(KHopNeighborhood(g, 0, 2),
            (std::vector<std::int64_t>{0, 1, 2, 3}));
  EXPECT_EQ(KHopNeighborhood(g, 0, 3),
            (std::vector<std::int64_t>{0, 1, 2, 3, 4, 5}));
}

TEST(InducedSubgraph, KeepsInternalEdgesOnly) {
  Graph g = SmallGraph();
  Graph sub = InducedSubgraph(g, {0, 1, 2, 3});
  EXPECT_EQ(sub.num_nodes, 4);
  EXPECT_EQ(sub.num_edges(), 4);  // triangle 0-1-2 + bridge 2-3
  EXPECT_TRUE(sub.HasEdge(2, 3));
  EXPECT_EQ(sub.labels[3], 1);
  EXPECT_FLOAT_EQ(sub.features(3, 1), 1.0f);
}

TEST(InducedSubgraph, RemapReported) {
  Graph g = SmallGraph();
  std::vector<std::pair<std::int64_t, std::int64_t>> remap;
  Graph sub = InducedSubgraph(g, {2, 4, 5}, &remap);
  EXPECT_EQ(remap.size(), 3u);
  EXPECT_EQ(remap[0], (std::pair<std::int64_t, std::int64_t>{2, 0}));
  EXPECT_EQ(remap[1], (std::pair<std::int64_t, std::int64_t>{4, 1}));
  EXPECT_TRUE(sub.HasEdge(1, 2));   // 4-5 edge survives
  EXPECT_EQ(sub.num_edges(), 1);    // 2 is not adjacent to 4 or 5
}

TEST(DegreeCentrality, LogDegreePlusOne) {
  Graph g = SmallGraph();
  auto c = DegreeCentrality(g);
  EXPECT_NEAR(c[0], std::log(3.0f), 1e-5f);
  EXPECT_NEAR(c[2], std::log(4.0f), 1e-5f);
}

TEST(UndirectedEdges, EachEdgeOnce) {
  Graph g = SmallGraph();
  auto edges = UndirectedEdges(g);
  EXPECT_EQ(edges.size(), 7u);
  for (const auto& [u, v] : edges) EXPECT_LT(u, v);
}

TEST(TwoHopCandidates, ExcludesSelfIncludesBothHops) {
  Graph g = SmallGraph();
  auto cand = TwoHopCandidates(g, 0);
  // 1-hop: {1, 2}; 2-hop via them: {0->excl, 1, 2, 3}.
  EXPECT_EQ(cand, (std::vector<std::int64_t>{1, 2, 3}));
}

TEST(AverageDegree, MatchesFormula) {
  Graph g = SmallGraph();
  EXPECT_NEAR(g.AverageDegree(), 2.0 * 7 / 6, 1e-9);
}

// Node ids are stored as int32 adjacency columns. A node count whose
// ids cannot round-trip through that type must be rejected up front
// (PR 5 guarded only CsrMatrix::FromCoo, not BuildGraph), not silently
// narrowed into negative column ids.
TEST(BuildGraph, RejectsNodeCountsBeyondInt32IdRange) {
  const std::int64_t too_many = (std::int64_t{1} << 31) + 1;
  EXPECT_DEATH(BuildGraph(too_many, {{0, too_many - 1}}), "int32");
}

// --- References: the sort-based BuildGraph and triplet-based
// NormalizedAdjacency, kept verbatim. The counting-sort and direct-row
// forms must give the same bytes.

Graph ReferenceBuildGraph(
    std::int64_t num_nodes,
    const std::vector<std::pair<std::int64_t, std::int64_t>>& edges) {
  std::vector<std::pair<std::int64_t, std::int64_t>> dir;
  dir.reserve(edges.size() * 2);
  for (const auto& [u, v] : edges) {
    if (u == v) continue;
    dir.emplace_back(u, v);
    dir.emplace_back(v, u);
  }
  std::sort(dir.begin(), dir.end());
  dir.erase(std::unique(dir.begin(), dir.end()), dir.end());
  Graph g;
  g.num_nodes = num_nodes;
  g.row_ptr.assign(num_nodes + 1, 0);
  g.col.reserve(dir.size());
  for (const auto& [u, v] : dir) {
    g.col.push_back(static_cast<std::int32_t>(v));
    g.row_ptr[u + 1] += 1;
  }
  for (std::int64_t i = 0; i < num_nodes; ++i) g.row_ptr[i + 1] += g.row_ptr[i];
  return g;
}

CsrMatrix ReferenceNormalizedAdjacency(const Graph& g) {
  const std::int64_t n = g.num_nodes;
  std::vector<double> deg(n, 1.0);
  for (std::int64_t v = 0; v < n; ++v) deg[v] += g.Degree(v);
  std::vector<std::tuple<std::int64_t, std::int64_t, float>> triplets;
  triplets.reserve(g.col.size() + n);
  for (std::int64_t v = 0; v < n; ++v) {
    const double dv = deg[v];
    triplets.emplace_back(v, v, static_cast<float>(1.0 / dv));
    for (std::int32_t u : g.Neighbors(v)) {
      triplets.emplace_back(
          v, u, static_cast<float>(1.0 / std::sqrt(dv * deg[u])));
    }
  }
  CsrMatrix adj = CsrMatrix::FromCoo(n, n, std::move(triplets));
  adj.MarkSymmetricIfExact();
  return adj;
}

void ExpectSameAsReferences(
    std::int64_t n,
    const std::vector<std::pair<std::int64_t, std::int64_t>>& edges) {
  SCOPED_TRACE(::testing::Message() << "n " << n << " edges " << edges.size());
  const Graph g = BuildGraph(n, edges);
  const Graph ref = ReferenceBuildGraph(n, edges);
  EXPECT_EQ(g.num_nodes, ref.num_nodes);
  EXPECT_EQ(g.row_ptr, ref.row_ptr);
  EXPECT_EQ(g.col, ref.col);
  const CsrMatrix a = NormalizedAdjacency(g);
  const CsrMatrix b = ReferenceNormalizedAdjacency(ref);
  EXPECT_EQ(a.rows(), b.rows());
  EXPECT_EQ(a.cols(), b.cols());
  EXPECT_EQ(a.row_ptr(), b.row_ptr());
  EXPECT_EQ(a.col_idx(), b.col_idx());
  EXPECT_TRUE(a.values().size() == b.values().size() &&
              std::memcmp(a.values().data(), b.values().data(),
                          sizeof(float) * b.values().size()) == 0);
  EXPECT_EQ(a.symmetric(), b.symmetric());
}

TEST(BuildGraphExact, MatchesSortBasedFormOnEdgeCases) {
  // Self loops, duplicate and reversed edges, isolated nodes (0, 3 and
  // the last one).
  ExpectSameAsReferences(
      7, {{1, 2}, {2, 1}, {1, 2}, {4, 4}, {2, 5}, {5, 2}, {1, 4}, {4, 1},
          {2, 2}, {5, 1}, {1, 5}, {4, 5}});
  ExpectSameAsReferences(5, {});                  // No edges at all.
  ExpectSameAsReferences(3, {{0, 0}, {2, 2}});    // Only self loops.
  ExpectSameAsReferences(0, {});                  // No nodes.
  ExpectSameAsReferences(2, {{1, 0}, {0, 1}, {1, 0}});
}

TEST(BuildGraphExact, MatchesSortBasedFormOnRandomMultigraphs) {
  Rng rng(31);
  for (const std::int64_t n : {1, 2, 17, 200}) {
    std::vector<std::pair<std::int64_t, std::int64_t>> edges;
    for (std::int64_t e = 0; e < 6 * n; ++e) {
      // Few distinct endpoints, so duplicates and self loops abound;
      // the top 10% of ids stay isolated.
      const std::int64_t span = std::max<std::int64_t>(1, n - n / 10);
      edges.emplace_back(rng.UniformInt(span), rng.UniformInt(span));
    }
    ExpectSameAsReferences(n, edges);
  }
}

TEST(CsrMatrixDeathTest, SortedRowsConstructorChecksCanonicalRows) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const std::vector<float> two(2, 1.0f);
  const CsrMatrix ok(2, 3, {0, 2, 2}, {0, 2}, two);
  EXPECT_EQ(ok.nnz(), 2);
  EXPECT_DEATH(CsrMatrix(2, 3, {0, 2, 2}, {2, 0}, two), "ascending");
  EXPECT_DEATH(CsrMatrix(2, 3, {0, 2, 2}, {1, 1}, two), "ascending");
  EXPECT_DEATH(CsrMatrix(2, 3, {0, 1, 2}, {0, 3}, two), "ascending");
  EXPECT_DEATH(CsrMatrix(2, 3, {0, 2, 1}, {0, 1}, two), "");
  EXPECT_DEATH(CsrMatrix(2, 3, {0, 2}, {0, 1}, two), "");
}

TEST(NormalizedAdjacencyDeathTest, RejectsANonCanonicalGraph) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  Graph g = BuildGraph(3, {{0, 1}, {1, 2}});
  g.col[g.row_ptr[1]] = 1;  // A self loop in row 1.
  EXPECT_DEATH(NormalizedAdjacency(g), "ascending");
}

}  // namespace
}  // namespace e2gcl
