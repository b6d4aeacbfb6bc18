#ifndef E2GCL_GRAPH_GRAPH_H_
#define E2GCL_GRAPH_GRAPH_H_

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "tensor/csr.h"
#include "tensor/matrix.h"

namespace e2gcl {

/// An undirected attributed graph G(V, A, X) with optional node labels,
/// stored as a symmetric CSR adjacency (both directions present, no
/// self-loops, no duplicates), a dense feature matrix X (|V| x d_x), and
/// integer class labels (empty when unlabeled).
///
/// Graph is a passive value type; all algorithms are free functions.
struct Graph {
  std::int64_t num_nodes = 0;
  /// CSR offsets, size num_nodes + 1.
  std::vector<std::int64_t> row_ptr{0};
  /// Neighbor lists, sorted within each row.
  std::vector<std::int32_t> col;
  /// Node features, num_nodes x feature_dim (may be empty).
  Matrix features;
  /// Node labels in [0, num_classes), or empty when unlabeled.
  std::vector<std::int64_t> labels;
  std::int64_t num_classes = 0;

  /// Number of undirected edges (each stored twice in CSR).
  std::int64_t num_edges() const {
    return static_cast<std::int64_t>(col.size()) / 2;
  }

  std::int64_t feature_dim() const { return features.cols(); }

  std::int64_t Degree(std::int64_t v) const {
    return row_ptr[v + 1] - row_ptr[v];
  }

  /// Neighbors of v as a read-only span.
  std::span<const std::int32_t> Neighbors(std::int64_t v) const {
    return {col.data() + row_ptr[v],
            static_cast<std::size_t>(row_ptr[v + 1] - row_ptr[v])};
  }

  /// True iff edge {u, v} exists (binary search, O(log deg)).
  bool HasEdge(std::int64_t u, std::int64_t v) const;

  /// Average degree 2|E| / |V|.
  double AverageDegree() const {
    return num_nodes == 0
               ? 0.0
               : static_cast<double>(col.size()) / num_nodes;
  }
};

/// Builds a Graph from an undirected edge list. Self-loops and duplicate
/// edges are dropped; each surviving edge is stored in both directions.
/// `features` may be empty (then the graph is structure-only); `labels`
/// may be empty.
Graph BuildGraph(std::int64_t num_nodes,
                 const std::vector<std::pair<std::int64_t, std::int64_t>>&
                     edges,
                 Matrix features = {}, std::vector<std::int64_t> labels = {},
                 std::int64_t num_classes = 0);

/// GCN-normalized adjacency D^{-1/2} (A + I) D^{-1/2} (Kipf & Welling),
/// where D counts the self-loop.
CsrMatrix NormalizedAdjacency(const Graph& g);

/// Row-normalized adjacency D^{-1} A (random-walk normalization).
CsrMatrix RowNormalizedAdjacency(const Graph& g);

/// Nodes within L hops of `root` (including the root), sorted ascending.
std::vector<std::int64_t> KHopNeighborhood(const Graph& g, std::int64_t root,
                                           int hops);

/// Induced subgraph on `nodes` (must be sorted unique). Features/labels
/// are gathered. `old_to_new`, if non-null, receives the node index
/// remapping as pairs (old, new).
Graph InducedSubgraph(const Graph& g, const std::vector<std::int64_t>& nodes,
                      std::vector<std::pair<std::int64_t, std::int64_t>>*
                          old_to_new = nullptr);

/// Degree centrality phi_c(v) = log(D_v + 1) for every node (Sec. IV-C1).
std::vector<float> DegreeCentrality(const Graph& g);

/// All undirected edges as (u, v) with u < v.
std::vector<std::pair<std::int64_t, std::int64_t>> UndirectedEdges(
    const Graph& g);

/// Union of 1-hop and 2-hop neighbors of `v`, excluding v itself,
/// sorted ascending. These are the neighbor candidates V_u^N of Alg. 3.
std::vector<std::int64_t> TwoHopCandidates(const Graph& g, std::int64_t v);

}  // namespace e2gcl

#endif  // E2GCL_GRAPH_GRAPH_H_
