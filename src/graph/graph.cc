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

  // Symmetrize and drop self-loops: count both directions per row,
  // scatter them, then sort and dedupe each row in place, which leaves
  // every row sorted and unique (the canonical CSR) at O(deg log deg)
  // per row.
  Graph g;
  g.num_nodes = num_nodes;
  g.row_ptr.assign(num_nodes + 1, 0);
  for (const auto& [u, v] : edges) {
    E2GCL_CHECK_MSG(u >= 0 && u < num_nodes && v >= 0 && v < num_nodes,
                    "edge (%lld, %lld) out of range",
                    static_cast<long long>(u), static_cast<long long>(v));
    if (u == v) continue;
    g.row_ptr[u + 1] += 1;
    g.row_ptr[v + 1] += 1;
  }
  for (std::int64_t i = 0; i < num_nodes; ++i) g.row_ptr[i + 1] += g.row_ptr[i];
  g.col.resize(g.row_ptr[num_nodes]);
  std::vector<std::int64_t> cursor(g.row_ptr.begin(), g.row_ptr.end() - 1);
  for (const auto& [u, v] : edges) {
    if (u == v) continue;
    g.col[cursor[u]++] = static_cast<std::int32_t>(v);
    g.col[cursor[v]++] = static_cast<std::int32_t>(u);
  }
  std::int64_t kept = 0;
  for (std::int64_t v = 0; v < num_nodes; ++v) {
    const auto first = g.col.begin() + g.row_ptr[v];
    std::sort(first, g.col.begin() + g.row_ptr[v + 1]);
    const auto last = std::unique(first, g.col.begin() + g.row_ptr[v + 1]);
    if (g.row_ptr[v] != kept) std::copy(first, last, g.col.begin() + kept);
    g.row_ptr[v] = kept;
    kept += last - first;
  }
  g.row_ptr[num_nodes] = kept;
  if (kept < static_cast<std::int64_t>(g.col.size())) {
    g.col.resize(kept);
    g.col.shrink_to_fit();
  }
  g.features = std::move(features);
  g.labels = std::move(labels);
  g.num_classes = num_classes;
  return g;
}

CsrMatrix NormalizedAdjacency(const Graph& g) {
  const std::int64_t n = g.num_nodes;
  std::vector<double> deg(n, 1.0);
  for (std::int64_t v = 0; v < n; ++v) deg[v] += g.Degree(v);

  // Rows are written in order, each with its diagonal at the ascending
  // slot; the constructor checks they come out strictly ascending, which
  // holds for the canonical rows BuildGraph makes.
  std::vector<std::int64_t> row_ptr(n + 1, 0);
  std::vector<std::int32_t> cols;
  std::vector<float> vals;
  cols.reserve(g.col.size() + n);
  vals.reserve(g.col.size() + n);
  for (std::int64_t v = 0; v < n; ++v) {
    const double dv = deg[v];
    bool self_placed = false;
    for (std::int32_t u : g.Neighbors(v)) {
      if (!self_placed && u > v) {
        cols.push_back(static_cast<std::int32_t>(v));
        vals.push_back(static_cast<float>(1.0 / dv));
        self_placed = true;
      }
      cols.push_back(u);
      vals.push_back(static_cast<float>(1.0 / std::sqrt(dv * deg[u])));
    }
    if (!self_placed) {
      cols.push_back(static_cast<std::int32_t>(v));
      vals.push_back(static_cast<float>(1.0 / dv));
    }
    row_ptr[v + 1] = static_cast<std::int64_t>(cols.size());
  }
  // Symmetric by construction for an undirected graph (dv * du == du * dv
  // exactly); the check keeps a hand-built asymmetric Graph correct, on
  // the scatter path.
  CsrMatrix adj(n, n, std::move(row_ptr), std::move(cols), std::move(vals));
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
