// Sharded / out-of-core layer: partition determinism + balance,
// GraphStore round-trips and corruption rejection, halo-ball
// correctness, budget apportionment, and the
// merge-determinism suite — {1,2,4} shards x {1,2,7} threads
// bit-identical per shard count, resident == out-of-core, and sharded
// resume bit-identical from a mid-run checkpoint.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include "core/node_selector.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "parallel/thread_pool.h"
#include "shard/graph_store.h"
#include "shard/halo.h"
#include "shard/partition.h"
#include "shard/sharded_trainer.h"
#include "tensor/matrix.h"

namespace e2gcl {
namespace {

namespace fs = std::filesystem;

Graph ShardGraph(std::int64_t nodes = 360, std::uint64_t seed = 7) {
  SbmSpec spec;
  spec.num_nodes = nodes;
  spec.num_classes = 4;
  spec.feature_dim = 16;
  spec.avg_degree = 6;
  spec.informative_dims_per_class = 4;
  return GenerateSbm(spec, seed);
}

ShardedConfig SmallShardedConfig(int shards) {
  ShardedConfig cfg;
  cfg.num_shards = shards;
  cfg.halo_hops = 1;
  cfg.base.epochs = 2;
  cfg.base.hidden_dim = 12;
  cfg.base.embed_dim = 8;
  cfg.base.batch_size = 48;
  cfg.base.node_ratio = 0.4;
  cfg.base.selector.num_clusters = 6;
  cfg.base.selector.sample_size = 24;
  cfg.base.selector.auto_sample_size = false;
  cfg.base.seed = 11;
  return cfg;
}

class ShardTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = (fs::temp_directory_path() /
            ("e2gcl_shard_" + std::string(info->name()) + "_" +
             std::to_string(::getpid())))
               .string();
    fs::remove_all(dir_);
    threads_before_ = GetNumThreads();
  }
  void TearDown() override {
    SetNumThreads(threads_before_);
    fs::remove_all(dir_);
  }

  std::string dir_;
  int threads_before_ = 1;
};

// --- Budget apportionment + merge policy. --------------------------------

TEST(ApportionBudget, SumsExactlyAndRespectsShardSizes) {
  std::vector<std::int64_t> sizes = {100, 50, 25};
  std::vector<std::int64_t> parts = ApportionBudget(70, sizes);
  ASSERT_EQ(parts.size(), sizes.size());
  std::int64_t sum = 0;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    EXPECT_GE(parts[i], 0);
    EXPECT_LE(parts[i], sizes[i]);
    sum += parts[i];
  }
  EXPECT_EQ(sum, 70);
  // Proportional shares 40/20/10 are exact here.
  EXPECT_EQ(parts[0], 40);
  EXPECT_EQ(parts[1], 20);
  EXPECT_EQ(parts[2], 10);

  // Budget above the pool clamps to the pool.
  parts = ApportionBudget(1000, sizes);
  EXPECT_EQ(parts[0] + parts[1] + parts[2], 175);
  EXPECT_EQ(parts[0], 100);

  // Tiny shards cap their floor at the shard size and the remainder
  // flows to shards with headroom.
  parts = ApportionBudget(5, {1, 1, 100});
  EXPECT_EQ(parts[0] + parts[1] + parts[2], 5);
  EXPECT_LE(parts[0], 1);
  EXPECT_LE(parts[1], 1);
}

TEST(ApportionBudget, LargestRemainderTiesBreakTowardLowerShardId) {
  // Equal sizes, odd budget: both shards have remainder 0.5; the
  // documented policy hands the leftover unit to the lower id.
  std::vector<std::int64_t> parts = ApportionBudget(3, {10, 10});
  EXPECT_EQ(parts[0], 2);
  EXPECT_EQ(parts[1], 1);

  parts = ApportionBudget(5, {8, 8, 8, 8});
  EXPECT_EQ(parts[0], 2);
  EXPECT_EQ(parts[1], 1);
  EXPECT_EQ(parts[2], 1);
  EXPECT_EQ(parts[3], 1);
}

TEST(MergeShardSelections, ConcatenatesInShardOrderAndMapsToGlobalIds) {
  // Shard 0 core = {3, 9, 14}, shard 1 core = {0, 7}.
  std::vector<std::vector<std::int64_t>> cores = {{3, 9, 14}, {0, 7}};
  std::vector<SelectionResult> per_shard(2);
  per_shard[0].nodes = {2, 0};  // local -> global {14, 3}, order kept
  per_shard[0].weights = {2.0f, 1.0f};
  per_shard[0].representativity = 4.0;
  per_shard[0].seconds = 0.5;
  per_shard[1].nodes = {1};  // local -> global {7}
  per_shard[1].weights = {2.0f};
  per_shard[1].representativity = 1.0;
  per_shard[1].seconds = 0.25;

  SelectionResult merged = MergeShardSelections(per_shard, cores);
  ASSERT_EQ(merged.nodes.size(), 3u);
  EXPECT_EQ(merged.nodes[0], 14);
  EXPECT_EQ(merged.nodes[1], 3);
  EXPECT_EQ(merged.nodes[2], 7);
  ASSERT_EQ(merged.weights.size(), 3u);
  EXPECT_FLOAT_EQ(merged.weights[0], 2.0f);
  EXPECT_FLOAT_EQ(merged.weights[1], 1.0f);
  EXPECT_FLOAT_EQ(merged.weights[2], 2.0f);
  // Core-size-weighted mean: (3 * 4.0 + 2 * 1.0) / 5.
  EXPECT_DOUBLE_EQ(merged.representativity, 14.0 / 5.0);
  EXPECT_DOUBLE_EQ(merged.seconds, 0.75);
}

// --- Partitioner. ---------------------------------------------------------

TEST(PartitionGraph, DeterministicBalancedAndCountsCutExactly) {
  Graph g = ShardGraph();
  PartitionOptions opt;
  opt.num_shards = 4;
  opt.seed = 3;

  Partition p = PartitionGraph(GraphAdjacency(g), opt);
  Partition p2 = PartitionGraph(GraphAdjacency(g), opt);
  EXPECT_EQ(p.shard_of, p2.shard_of);
  EXPECT_EQ(p.cut_edges, p2.cut_edges);

  ASSERT_EQ(p.num_shards, 4);
  ASSERT_EQ(static_cast<std::int64_t>(p.shard_of.size()), g.num_nodes);
  EXPECT_EQ(p.total_edges, g.num_edges());

  // Node-count balance: within the documented cap.
  const std::int64_t cap =
      static_cast<std::int64_t>(
          (static_cast<double>(g.num_nodes) / opt.num_shards) *
          (1.0 + opt.balance_slack)) +
      1;
  std::vector<std::int64_t> counts(4, 0);
  for (std::int32_t s : p.shard_of) {
    ASSERT_GE(s, 0);
    ASSERT_LT(s, 4);
    ++counts[s];
  }
  for (int s = 0; s < 4; ++s) {
    EXPECT_LE(counts[s], cap) << "shard " << s;
    EXPECT_EQ(counts[s],
              static_cast<std::int64_t>(p.shard_nodes[s].size()));
    EXPECT_TRUE(std::is_sorted(p.shard_nodes[s].begin(),
                               p.shard_nodes[s].end()));
  }

  // Reported cut matches a direct recount.
  std::int64_t cut = 0;
  for (std::int64_t v = 0; v < g.num_nodes; ++v) {
    for (std::int32_t u : g.Neighbors(v)) {
      if (u > v && p.shard_of[u] != p.shard_of[v]) ++cut;
    }
  }
  EXPECT_EQ(p.cut_edges, cut);
  EXPECT_GT(p.CutFraction(), 0.0);
  EXPECT_LT(p.CutFraction(), 1.0);
}

TEST(PartitionGraph, SingleShardIsTrivialWithZeroCut) {
  Graph g = ShardGraph(120);
  PartitionOptions opt;
  opt.num_shards = 1;
  Partition p = PartitionGraph(GraphAdjacency(g), opt);
  for (std::int32_t s : p.shard_of) EXPECT_EQ(s, 0);
  EXPECT_EQ(p.cut_edges, 0);
  EXPECT_EQ(static_cast<std::int64_t>(p.shard_nodes[0].size()),
            g.num_nodes);
}

TEST_F(ShardTest, PartitionStorePathMatchesResidentPath) {
  Graph g = ShardGraph();
  ASSERT_TRUE(GraphStore::Write(dir_, g));
  GraphStore store;
  ASSERT_TRUE(store.Open(dir_));

  PartitionOptions opt;
  opt.num_shards = 3;
  opt.seed = 5;
  Partition resident = PartitionGraph(GraphAdjacency(g), opt);
  Partition streamed = PartitionGraph(store, opt);
  EXPECT_EQ(resident.shard_of, streamed.shard_of);
  EXPECT_EQ(resident.cut_edges, streamed.cut_edges);
  EXPECT_EQ(resident.shard_nodes, streamed.shard_nodes);
}

// --- GraphStore. ----------------------------------------------------------

TEST_F(ShardTest, GraphStoreRoundTripsStructureFeaturesAndLabels) {
  Graph g = ShardGraph(250);
  ASSERT_TRUE(GraphStore::Write(dir_, g));
  GraphStore store;
  ASSERT_TRUE(store.Open(dir_));

  EXPECT_EQ(store.num_nodes(), g.num_nodes);
  EXPECT_EQ(store.feature_dim(), g.feature_dim());
  EXPECT_EQ(store.num_classes(), g.num_classes);
  EXPECT_TRUE(store.has_labels());
  EXPECT_EQ(store.row_ptr(), g.row_ptr);

  std::vector<std::int32_t> cols;
  ASSERT_TRUE(store.ReadCols(0, g.num_nodes, &cols));
  EXPECT_EQ(cols, g.col);

  // Partial row range.
  ASSERT_TRUE(store.ReadCols(10, 20, &cols));
  EXPECT_EQ(cols, std::vector<std::int32_t>(g.col.begin() + g.row_ptr[10],
                                            g.col.begin() + g.row_ptr[20]));

  // Non-consecutive adjacency gather.
  std::vector<std::int64_t> rows = {0, 3, 4, 5, 17, 249};
  std::vector<std::int32_t> gcols;
  std::vector<std::int64_t> offsets;
  ASSERT_TRUE(store.GatherAdjacency(rows, &gcols, &offsets));
  ASSERT_EQ(offsets.size(), rows.size() + 1);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const std::int64_t v = rows[i];
    ASSERT_EQ(offsets[i + 1] - offsets[i], g.Degree(v));
    for (std::int64_t j = 0; j < g.Degree(v); ++j) {
      EXPECT_EQ(gcols[offsets[i] + j], g.col[g.row_ptr[v] + j]);
    }
  }

  // Feature + label gathers.
  std::vector<std::int64_t> nodes = {1, 7, 100, 248};
  Matrix feats;
  ASSERT_TRUE(store.ReadFeatureRows(nodes, &feats));
  ASSERT_EQ(feats.rows(), static_cast<std::int64_t>(nodes.size()));
  EXPECT_TRUE(feats == GatherRows(g.features, nodes));
  std::vector<std::int64_t> labels;
  ASSERT_TRUE(store.ReadLabels(nodes, &labels));
  ASSERT_EQ(labels.size(), nodes.size());
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    EXPECT_EQ(labels[i], g.labels[nodes[i]]);
  }
}

TEST_F(ShardTest, GraphStoreOpenRejectsTruncatedBin) {
  Graph g = ShardGraph(150);
  ASSERT_TRUE(GraphStore::Write(dir_, g));
  const std::string col_path = dir_ + "/col.bin";
  fs::resize_file(col_path, fs::file_size(col_path) - 4);
  GraphStore store;
  EXPECT_FALSE(store.Open(dir_));
}

TEST_F(ShardTest, LoadInducedSubgraphMatchesResidentInducedSubgraph) {
  Graph g = ShardGraph(300);
  ASSERT_TRUE(GraphStore::Write(dir_, g));
  GraphStore store;
  ASSERT_TRUE(store.Open(dir_));

  // Every third node plus a dense run: mixes isolated picks and runs.
  std::vector<std::int64_t> nodes;
  for (std::int64_t v = 0; v < g.num_nodes; v += 3) nodes.push_back(v);
  for (std::int64_t v = 100; v < 120; ++v) nodes.push_back(v);
  std::sort(nodes.begin(), nodes.end());
  nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());

  Graph resident = InducedSubgraph(g, nodes);
  Graph streamed;
  ASSERT_TRUE(store.LoadInducedSubgraph(nodes, &streamed));
  EXPECT_EQ(streamed.num_nodes, resident.num_nodes);
  EXPECT_EQ(streamed.row_ptr, resident.row_ptr);
  EXPECT_EQ(streamed.col, resident.col);
  EXPECT_TRUE(streamed.features == resident.features);
  EXPECT_EQ(streamed.labels, resident.labels);
  EXPECT_EQ(streamed.num_classes, resident.num_classes);
}

// --- Halo balls. ----------------------------------------------------------

TEST_F(ShardTest, HaloBallMatchesKHopUnionOfCore) {
  Graph g = ShardGraph(240);
  PartitionOptions opt;
  opt.num_shards = 3;
  Partition p = PartitionGraph(GraphAdjacency(g), opt);

  for (int hops : {0, 1, 2}) {
    for (int shard = 0; shard < 3; ++shard) {
      std::vector<std::int64_t> ball =
          HaloBallNodes(GraphAdjacency(g), p, shard, hops);
      std::set<std::int64_t> expect;
      for (std::int64_t v : p.shard_nodes[shard]) {
        for (std::int64_t u : KHopNeighborhood(g, v, hops)) {
          expect.insert(u);
        }
      }
      EXPECT_EQ(ball, std::vector<std::int64_t>(expect.begin(),
                                                expect.end()))
          << "shard " << shard << " hops " << hops;
    }
  }
}

TEST_F(ShardTest, LoadShardBallBitIdenticalToBuildShardBall) {
  Graph g = ShardGraph(300);
  ASSERT_TRUE(GraphStore::Write(dir_, g));
  GraphStore store;
  ASSERT_TRUE(store.Open(dir_));

  PartitionOptions opt;
  opt.num_shards = 4;
  opt.seed = 2;
  Partition p = PartitionGraph(store, opt);

  for (int shard = 0; shard < 4; ++shard) {
    ShardBall built = BuildShardBall(g, p, shard, 1);
    ShardBall loaded;
    ASSERT_TRUE(LoadShardBall(store, p, shard, 1, &loaded));
    EXPECT_EQ(loaded.nodes, built.nodes);
    EXPECT_EQ(loaded.core_local, built.core_local);
    EXPECT_EQ(loaded.num_core, built.num_core);
    EXPECT_EQ(loaded.num_core,
              static_cast<std::int64_t>(p.shard_nodes[shard].size()));
    EXPECT_EQ(loaded.graph.row_ptr, built.graph.row_ptr);
    EXPECT_EQ(loaded.graph.col, built.graph.col);
    EXPECT_TRUE(loaded.graph.features == built.graph.features);
    EXPECT_EQ(loaded.graph.labels, built.graph.labels);
    // Core-local indices point at the core's global ids.
    for (std::size_t i = 0; i < built.core_local.size(); ++i) {
      EXPECT_EQ(built.nodes[built.core_local[i]],
                p.shard_nodes[shard][i]);
    }
  }
}

// --- Merge determinism suite (satellite 4). ------------------------------

struct RunSnapshot {
  std::vector<Matrix> params;
  std::vector<std::int64_t> selected;
  std::vector<float> weights;
};

RunSnapshot RunSharded(const Graph& g, const ShardedConfig& cfg,
                       int threads) {
  SetNumThreads(threads);
  ShardedTrainer trainer(g, cfg);
  TrainResult r = trainer.Train();
  EXPECT_TRUE(r.ok());
  RunSnapshot snap;
  snap.params = trainer.encoder().params().CloneValues();
  snap.selected = trainer.selection().nodes;
  snap.weights = trainer.selection().weights;
  return snap;
}

TEST_F(ShardTest, TrainingIsThreadCountInvariantPerShardCount) {
  Graph g = ShardGraph();
  for (int shards : {1, 2, 4}) {
    ShardedConfig cfg = SmallShardedConfig(shards);
    RunSnapshot base = RunSharded(g, cfg, 1);
    ASSERT_FALSE(base.params.empty());
    ASSERT_FALSE(base.selected.empty());
    for (int threads : {2, 7}) {
      RunSnapshot other = RunSharded(g, cfg, threads);
      EXPECT_EQ(other.selected, base.selected)
          << shards << " shards, " << threads << " threads";
      EXPECT_EQ(other.weights, base.weights)
          << shards << " shards, " << threads << " threads";
      ASSERT_EQ(other.params.size(), base.params.size());
      for (std::size_t i = 0; i < base.params.size(); ++i) {
        EXPECT_TRUE(other.params[i] == base.params[i])
            << shards << " shards, " << threads << " threads, param " << i;
      }
    }
  }
}

TEST_F(ShardTest, MergedSelectionFollowsDocumentedPolicy) {
  Graph g = ShardGraph();
  ShardedConfig cfg = SmallShardedConfig(3);
  ShardedTrainer trainer(g, cfg);
  ASSERT_TRUE(trainer.Train().ok());

  const Partition& p = trainer.partition();
  const auto& per_shard = trainer.shard_selections();
  ASSERT_EQ(per_shard.size(), 3u);

  // Per-shard budgets are the largest-remainder apportionment of the
  // global budget over core sizes.
  std::vector<std::int64_t> core_sizes;
  for (const auto& core : p.shard_nodes) {
    core_sizes.push_back(static_cast<std::int64_t>(core.size()));
  }
  const std::int64_t k_total = static_cast<std::int64_t>(
      trainer.selection().nodes.size());
  std::vector<std::int64_t> budgets = ApportionBudget(k_total, core_sizes);
  for (int s = 0; s < 3; ++s) {
    EXPECT_EQ(static_cast<std::int64_t>(per_shard[s].nodes.size()),
              budgets[s]);
  }

  // The published merged selection IS the documented merge of the
  // per-shard results.
  SelectionResult remerged = MergeShardSelections(per_shard, p.shard_nodes);
  EXPECT_EQ(remerged.nodes, trainer.selection().nodes);
  EXPECT_EQ(remerged.weights, trainer.selection().weights);

  // Selected ids are valid, unique, and each lives in the shard that
  // selected it; weights sum to |V| (every node has one core).
  std::set<std::int64_t> seen;
  double weight_sum = 0.0;
  for (std::size_t i = 0; i < remerged.nodes.size(); ++i) {
    const std::int64_t v = remerged.nodes[i];
    ASSERT_GE(v, 0);
    ASSERT_LT(v, g.num_nodes);
    EXPECT_TRUE(seen.insert(v).second);
    weight_sum += remerged.weights[i];
  }
  EXPECT_NEAR(weight_sum, static_cast<double>(g.num_nodes), 1e-3);
}

TEST_F(ShardTest, OutOfCoreTrainingBitIdenticalToResident) {
  Graph g = ShardGraph();
  ASSERT_TRUE(GraphStore::Write(dir_, g));
  GraphStore store;
  ASSERT_TRUE(store.Open(dir_));

  ShardedConfig cfg = SmallShardedConfig(2);
  ShardedTrainer resident(g, cfg);
  ASSERT_TRUE(resident.Train().ok());
  ShardedTrainer streamed(store, cfg);
  ASSERT_TRUE(streamed.Train().ok());

  EXPECT_EQ(resident.partition().shard_of, streamed.partition().shard_of);
  EXPECT_EQ(resident.selection().nodes, streamed.selection().nodes);
  EXPECT_EQ(resident.selection().weights, streamed.selection().weights);
  std::vector<Matrix> a = resident.encoder().params().CloneValues();
  std::vector<Matrix> b = streamed.encoder().params().CloneValues();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(a[i] == b[i]) << "param " << i;
  }
  EXPECT_EQ(resident.ConfigFingerprint(), streamed.ConfigFingerprint());
}

TEST_F(ShardTest, ShardedResumeBitIdenticalFromMidRunCheckpoint) {
  Graph g = ShardGraph();
  ShardedConfig cfg = SmallShardedConfig(2);
  cfg.base.epochs = 4;
  cfg.base.checkpoint_every = 2;

  // Reference: uninterrupted, no checkpointing.
  ShardedTrainer reference(g, cfg);
  ASSERT_TRUE(reference.Train().ok());
  std::vector<Matrix> want = reference.encoder().params().CloneValues();

  // Interrupted run: stop after 2 of 4 epochs, checkpoint on disk.
  ShardedConfig partial = cfg;
  partial.base.checkpoint_dir = dir_;
  partial.base.epochs = 2;
  {
    ShardedTrainer first(g, partial);
    ASSERT_TRUE(first.Train().ok());
  }

  // Fresh trainer resumes from the mid-run checkpoint and must land on
  // bit-identical parameters.
  ShardedConfig full = cfg;
  full.base.checkpoint_dir = dir_;
  ShardedTrainer resumed(g, full);
  TrainResult r = resumed.Train();
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.resumed);
  EXPECT_EQ(r.start_epoch, 2);

  std::vector<Matrix> got = resumed.encoder().params().CloneValues();
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_TRUE(got[i] == want[i]) << "param " << i;
  }
}

}  // namespace
}  // namespace e2gcl
