#include "graph/graph.h"

#include <algorithm>
#include <cmath>
#include <queue>
#include <unordered_map>

#include "tensor/check.h"

namespace e2gcl {

bool Graph::HasEdge(std::int64_t u, std::int64_t v) const {
  auto nb = Neighbors(u);
  return std::binary_search(nb.begin(), nb.end(),
                            static_cast<std::int32_t>(v));
}

Graph BuildGraph(
    std::int64_t num_nodes,
    const std::vector<std::pair<std::int64_t, std::int64_t>>& edges,
    Matrix features, std::vector<std::int64_t> labels,
    std::int64_t num_classes) {
  E2GCL_CHECK(num_nodes >= 0);
  // Adjacency columns store node ids as int32; reject node counts whose
  // ids cannot round-trip before any allocation or narrowing happens.
  E2GCL_CHECK_MSG(num_nodes <= (std::int64_t{1} << 31),
                  "num_nodes %lld exceeds the int32 node-id range",
                  static_cast<long long>(num_nodes));
  E2GCL_CHECK(features.empty() || features.rows() == num_nodes);
  E2GCL_CHECK(labels.empty() ||
              static_cast<std::int64_t>(labels.size()) == num_nodes);

  // Symmetrize, drop self-loops, dedupe.
  std::vector<std::pair<std::int64_t, std::int64_t>> dir;
  dir.reserve(edges.size() * 2);
  for (const auto& [u, v] : edges) {
    E2GCL_CHECK_MSG(u >= 0 && u < num_nodes && v >= 0 && v < num_nodes,
                    "edge (%lld, %lld) out of range",
                    static_cast<long long>(u), static_cast<long long>(v));
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
  g.features = std::move(features);
  g.labels = std::move(labels);
  g.num_classes = num_classes;
  return g;
}

CsrMatrix NormalizedAdjacency(const Graph& g) {
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
  // Symmetric by construction for an undirected graph (dv * du == du * dv
  // exactly); the check keeps a hand-built asymmetric Graph correct, on
  // the scatter path.
  CsrMatrix adj = CsrMatrix::FromCoo(n, n, std::move(triplets));
  adj.MarkSymmetricIfExact();
  return adj;
}

CsrMatrix RowNormalizedAdjacency(const Graph& g) {
  const std::int64_t n = g.num_nodes;
  std::vector<std::tuple<std::int64_t, std::int64_t, float>> triplets;
  triplets.reserve(g.col.size());
  for (std::int64_t v = 0; v < n; ++v) {
    const std::int64_t dv = g.Degree(v);
    if (dv == 0) continue;
    const float w = 1.0f / static_cast<float>(dv);
    for (std::int32_t u : g.Neighbors(v)) triplets.emplace_back(v, u, w);
  }
  return CsrMatrix::FromCoo(n, n, std::move(triplets));
}

std::vector<std::int64_t> KHopNeighborhood(const Graph& g, std::int64_t root,
                                           int hops) {
  E2GCL_CHECK(root >= 0 && root < g.num_nodes);
  E2GCL_CHECK(hops >= 0);
  // `dist` is membership/depth lookup only; the reached nodes are
  // collected in BFS discovery order so no hash-ordered iteration ever
  // feeds the (sorted) output.
  std::unordered_map<std::int64_t, int> dist;
  dist[root] = 0;
  std::vector<std::int64_t> nodes{root};
  std::queue<std::int64_t> q;
  q.push(root);
  while (!q.empty()) {
    const std::int64_t v = q.front();
    q.pop();
    const int d = dist[v];
    if (d == hops) continue;
    for (std::int32_t u : g.Neighbors(v)) {
      if (dist.emplace(u, d + 1).second) {
        nodes.push_back(u);
        q.push(u);
      }
    }
  }
  std::sort(nodes.begin(), nodes.end());
  return nodes;
}

Graph InducedSubgraph(
    const Graph& g, const std::vector<std::int64_t>& nodes,
    std::vector<std::pair<std::int64_t, std::int64_t>>* old_to_new) {
  const std::int64_t m = static_cast<std::int64_t>(nodes.size());
  std::unordered_map<std::int64_t, std::int64_t> remap;
  remap.reserve(m);
  for (std::int64_t i = 0; i < m; ++i) {
    E2GCL_CHECK(nodes[i] >= 0 && nodes[i] < g.num_nodes);
    if (i > 0) E2GCL_CHECK_MSG(nodes[i] > nodes[i - 1], "nodes must be sorted unique");
    remap[nodes[i]] = i;
  }
  std::vector<std::pair<std::int64_t, std::int64_t>> edges;
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int32_t u : g.Neighbors(nodes[i])) {
      auto it = remap.find(u);
      if (it != remap.end() && it->second > i) {
        edges.emplace_back(i, it->second);
      }
    }
  }
  Matrix feats = g.features.empty() ? Matrix() : GatherRows(g.features, nodes);
  std::vector<std::int64_t> labels;
  if (!g.labels.empty()) {
    labels.reserve(m);
    for (std::int64_t v : nodes) labels.push_back(g.labels[v]);
  }
  if (old_to_new != nullptr) {
    old_to_new->clear();
    for (std::int64_t i = 0; i < m; ++i) old_to_new->emplace_back(nodes[i], i);
  }
  return BuildGraph(m, edges, std::move(feats), std::move(labels),
                    g.num_classes);
}

std::vector<float> DegreeCentrality(const Graph& g) {
  std::vector<float> c(g.num_nodes);
  for (std::int64_t v = 0; v < g.num_nodes; ++v) {
    c[v] = std::log(static_cast<float>(g.Degree(v)) + 1.0f);
  }
  return c;
}

std::vector<std::pair<std::int64_t, std::int64_t>> UndirectedEdges(
    const Graph& g) {
  std::vector<std::pair<std::int64_t, std::int64_t>> edges;
  edges.reserve(g.num_edges());
  for (std::int64_t v = 0; v < g.num_nodes; ++v) {
    for (std::int32_t u : g.Neighbors(v)) {
      if (u > v) edges.emplace_back(v, u);
    }
  }
  return edges;
}

std::vector<std::int64_t> TwoHopCandidates(const Graph& g, std::int64_t v) {
  std::vector<std::int64_t> out;
  for (std::int32_t u : g.Neighbors(v)) {
    out.push_back(u);
    for (std::int32_t w : g.Neighbors(u)) {
      if (w != v) out.push_back(w);
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace e2gcl
