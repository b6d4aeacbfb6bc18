#ifndef E2GCL_SHARD_GRAPH_STORE_H_
#define E2GCL_SHARD_GRAPH_STORE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "tensor/matrix.h"

namespace e2gcl {

/// Streaming adjacency access shared by the resident Graph and the
/// on-disk GraphStore. Only the row-pointer array (8(n+1) bytes — ~10 MB
/// at 1.2M nodes) is required resident; adjacency columns are fetched in
/// caller-chosen row ranges. Every algorithm in src/shard/ (partitioner,
/// halo extraction) is written against this interface, so it runs
/// identically whether the graph is in memory or on disk.
class AdjacencySource {
 public:
  virtual ~AdjacencySource() = default;

  virtual std::int64_t num_nodes() const = 0;
  /// Resident row-pointer array, size num_nodes() + 1.
  virtual const std::vector<std::int64_t>& row_ptr() const = 0;
  /// Appends the concatenated adjacency lists of rows [rb, re) to
  /// `out` (cleared first). Returns false on I/O failure.
  virtual bool ReadCols(std::int64_t rb, std::int64_t re,
                        std::vector<std::int32_t>* out) const = 0;

  std::int64_t Degree(std::int64_t v) const {
    return row_ptr()[v + 1] - row_ptr()[v];
  }
  std::int64_t nnz() const { return row_ptr().back(); }

  /// Gathers the adjacency lists of ascending (not necessarily
  /// consecutive) `rows`. `out_offsets` has rows.size() + 1 entries;
  /// rows[i]'s list spans out_cols[out_offsets[i] .. out_offsets[i+1]).
  /// The default coalesces consecutive-row runs into ReadCols calls.
  virtual bool GatherAdjacency(const std::vector<std::int64_t>& rows,
                               std::vector<std::int32_t>* out_cols,
                               std::vector<std::int64_t>* out_offsets) const;
};

/// Zero-copy adapter presenting a resident Graph as an AdjacencySource.
class GraphAdjacency : public AdjacencySource {
 public:
  explicit GraphAdjacency(const Graph& g) : g_(&g) {}

  std::int64_t num_nodes() const override { return g_->num_nodes; }
  const std::vector<std::int64_t>& row_ptr() const override {
    return g_->row_ptr;
  }
  bool ReadCols(std::int64_t rb, std::int64_t re,
                std::vector<std::int32_t>* out) const override;

 private:
  const Graph* g_;
};

/// Out-of-core column store for one attributed graph:
///
///   <dir>/meta.e2gcl   versioned + CRC32-checked counts (state file)
///   <dir>/rowptr.bin   (n+1) raw little-endian int64
///   <dir>/col.bin      nnz raw int32 adjacency columns
///   <dir>/feat.bin     n x d raw float32 feature rows
///   <dir>/labels.bin   n raw int64 (present only when the graph has
///                      labels)
///
/// Open() loads meta + rowptr resident and validates every bin file's
/// size against the declared counts; the big arrays stay on disk and are
/// served through the AdjacencySource row-range API plus the feature/
/// label gathers below. All reads are stateless (each call opens its own
/// stream), so concurrent readers never race.
class GraphStore : public AdjacencySource {
 public:
  /// Writes `g` to `dir` (created if missing). Each file is written
  /// atomically; returns false on any I/O failure.
  static bool Write(const std::string& dir, const Graph& g);

  /// Opens a store written by Write(). Returns false (leaving the store
  /// unusable) on missing/corrupt meta or bin-size mismatches.
  bool Open(const std::string& dir);

  std::int64_t num_nodes() const override { return num_nodes_; }
  std::int64_t feature_dim() const { return feature_dim_; }
  std::int64_t num_classes() const { return num_classes_; }
  bool has_labels() const { return has_labels_; }
  const std::vector<std::int64_t>& row_ptr() const override {
    return row_ptr_;
  }

  bool ReadCols(std::int64_t rb, std::int64_t re,
                std::vector<std::int32_t>* out) const override;
  bool GatherAdjacency(const std::vector<std::int64_t>& rows,
                       std::vector<std::int32_t>* out_cols,
                       std::vector<std::int64_t>* out_offsets) const override;

  /// Gathers feature rows of ascending `nodes` into a
  /// |nodes| x feature_dim matrix.
  bool ReadFeatureRows(const std::vector<std::int64_t>& nodes,
                       Matrix* out) const;

  /// Gathers labels of ascending `nodes` (empty result when the store
  /// has no labels).
  bool ReadLabels(const std::vector<std::int64_t>& nodes,
                  std::vector<std::int64_t>* out) const;

  /// Materializes the induced subgraph over sorted-unique global
  /// `nodes` — structure, features, and labels — reading only those
  /// rows. Adjacency is bit-identical to
  /// InducedSubgraph(resident_graph, nodes).
  bool LoadInducedSubgraph(const std::vector<std::int64_t>& nodes,
                           Graph* out) const;

 private:
  std::string dir_;
  std::int64_t num_nodes_ = 0;
  std::int64_t feature_dim_ = 0;
  std::int64_t num_classes_ = 0;
  bool has_labels_ = false;
  std::vector<std::int64_t> row_ptr_;
};

}  // namespace e2gcl

#endif  // E2GCL_SHARD_GRAPH_STORE_H_
