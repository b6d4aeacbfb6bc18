#ifndef E2GCL_SHARD_SHARDED_TRAINER_H_
#define E2GCL_SHARD_SHARDED_TRAINER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/train_loop.h"
#include "shard/graph_store.h"
#include "shard/halo.h"
#include "shard/partition.h"

namespace e2gcl {

/// Partition-parallel, out-of-core-capable E2GCL pre-training.
struct ShardedConfig {
  /// The underlying pipeline configuration. Every field is honored
  /// through the shared TrainLoop — checkpointing, the health guard with
  /// its retries, clipping and fault injection included — except
  /// external_selector: shards always select with Alg. 2.
  E2gclConfig base;
  int num_shards = 2;
  /// Halo rings around each shard core (see DESIGN.md "Sharded &
  /// out-of-core training" for the approximation contract).
  int halo_hops = 1;
  /// Partitioner knobs (seeded from base.seed).
  int refine_passes = 3;
  double balance_slack = 0.10;
};

/// Pre-trains one global encoder over a sharded graph.
///
/// Semantics (all deterministic in (config, graph) at any thread
/// count — see DESIGN.md):
///  * The graph is partitioned once; each shard trains and selects on
///    its core + halo ball, built fresh per use so only ONE ball is
///    ever resident in the out-of-core path.
///  * Selection runs per shard on the ball's raw aggregation restricted
///    to core rows, with budgets apportioned by largest remainder;
///    shard results merge in ascending shard order (selection order
///    preserved within a shard).
///  * Each epoch walks the shards serially: a per-(epoch, shard) RNG
///    stream derived from the seed drives batch sampling, view
///    generation, and dropout; the forward runs on the batch's
///    (L+1)-hop ball inside the shard ball; per-shard losses are
///    weighted by their batch share and gradients accumulate in shard
///    order into a single Adam step per epoch.
///  * Because all randomness is derived per (epoch, shard) from
///    RetrySeed(seed, retries), a resume needs only parameters + Adam
///    state + the epoch index + the retry count; it rides
///    TrainerCheckpoint unchanged and is bit-identical to an
///    uninterrupted run.
class ShardedTrainer {
 public:
  /// Resident-graph path (graph must outlive the trainer).
  ShardedTrainer(const Graph& graph, const ShardedConfig& config);
  /// Out-of-core path: all graph data is served from `store` (must
  /// outlive the trainer); peak memory is bounded by one shard ball
  /// plus model state, never the full feature matrix.
  ShardedTrainer(const GraphStore& store, const ShardedConfig& config);

  /// Partition + per-shard selection + epoch loop. Safe to call once.
  TrainResult Train();

  const GcnEncoder& encoder() const { return loop_.encoder(); }
  GcnEncoder& encoder() { return loop_.encoder(); }
  const Partition& partition() const { return partition_; }
  /// Merged global selection (empty nodes when use_selector is false).
  const SelectionResult& selection() const { return selection_; }
  /// Per-shard selections (local core indices), ascending shard order.
  const std::vector<SelectionResult>& shard_selections() const {
    return shard_selections_;
  }
  const E2gclStats& stats() const { return loop_.stats(); }
  const ShardedConfig& config() const { return config_; }

  /// Extends the resident trainer's fingerprint with the shard layout
  /// knobs, so sharded checkpoints never resume under a different
  /// partitioning.
  std::uint64_t ConfigFingerprint() const;

 private:
  const AdjacencySource& adj() const;
  bool MakeBall(int shard, ShardBall* ball) const;

  const Graph* graph_ = nullptr;
  const GraphStore* store_ = nullptr;
  std::unique_ptr<GraphAdjacency> resident_adj_;
  ShardedConfig config_;
  TrainLoop loop_;
  Partition partition_;
  std::vector<SelectionResult> shard_selections_;
  SelectionResult selection_;
};

}  // namespace e2gcl

#endif  // E2GCL_SHARD_SHARDED_TRAINER_H_
