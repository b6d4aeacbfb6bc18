#ifndef E2GCL_SHARD_PARTITION_H_
#define E2GCL_SHARD_PARTITION_H_

#include <cstdint>
#include <vector>

#include "shard/graph_store.h"

namespace e2gcl {

/// Cluster-then-pack streaming partitioning with greedy edge-cut
/// refinement: size-capped label-propagation clustering, whole-cluster
/// packing onto shards, a descending-degree balance pass, then
/// shard-level label-propagation refinement.
///
/// The pipeline is deliberately serial and streaming: every pass is an
/// ascending sweep over row ranges of an AdjacencySource, so it needs
/// only the row pointers plus O(n) labels resident and produces the
/// same partition for the resident and out-of-core graph paths.
struct PartitionOptions {
  int num_shards = 1;
  /// Label-propagation sweeps used to recover clusters before packing.
  /// Cluster growth is capped at n / num_shards so every cluster fits
  /// inside one shard whole; sweeps stop early once no label changes.
  int cluster_passes = 8;
  /// Greedy label-propagation passes after the balance pass. Each pass
  /// moves a node to the shard holding the plurality of its neighbors
  /// when that strictly reduces the cut and respects the balance caps.
  int refine_passes = 3;
  /// Per-shard node-count and degree-load caps are
  /// ceil(avg * (1 + balance_slack)).
  double balance_slack = 0.10;
  /// Reserved for tie-breaking policies; the current pipeline is fully
  /// deterministic from (adjacency, options) and does not consume it.
  std::uint64_t seed = 0;
};

struct Partition {
  int num_shards = 0;
  /// Shard id per node.
  std::vector<std::int32_t> shard_of;
  /// Undirected edges whose endpoints land in different shards.
  std::int64_t cut_edges = 0;
  /// Total undirected edges (for CutFraction).
  std::int64_t total_edges = 0;
  /// Per-shard node lists, each ascending — the canonical "core" order
  /// every downstream merge policy keys on.
  std::vector<std::vector<std::int64_t>> shard_nodes;

  double CutFraction() const {
    return total_edges > 0
               ? static_cast<double>(cut_edges) /
                     static_cast<double>(total_edges)
               : 0.0;
  }
};

/// Deterministic function of (adjacency, options): size-capped label
/// propagation recovers clusters, whole clusters pack largest-first
/// onto the emptiest shard, then a descending-degree balance pass and
/// `refine_passes` ascending-order greedy passes polish the boundary.
/// Thread count never enters the computation.
Partition PartitionGraph(const AdjacencySource& adj,
                         const PartitionOptions& options);

}  // namespace e2gcl

#endif  // E2GCL_SHARD_PARTITION_H_
