// Million-node scale benchmark for the sharded, out-of-core
// pre-training path (src/shard/). Two phases, run as SEPARATE
// processes so the training process's VmHWM — the number the peak-RSS
// gate reads — never includes graph generation:
//
//   bench_scale --prepare <store_dir> [--scale F] [--seed S]
//       Generates the `synthetic-1m` SBM (optionally scaled down for
//       smokes) and writes it as a GraphStore.
//
//   bench_scale --train <store_dir> [--shards N] [--epochs E]
//               [--max-rss-mb M]
//       Opens the store and runs sharded out-of-core pre-training
//       end-to-end (partition -> per-shard coreset selection ->
//       contrastive epochs). Writes BENCH_scale.json — an array of
//       {"name", "threads", "ns_per_iter", "wall_s", "peak_rss_bytes"}
//       records keyed for tools/bench_compare, which
//       tools/check_scale.sh gates at a 1.25x threshold. With
//       --max-rss-mb the process exits 3 when its peak RSS exceeds the
//       budget — the out-of-core guarantee, enforced where a
//       fully-resident run provably cannot pass (see DESIGN.md).
//       Set E2GCL_BENCH_JSON to change the output path.
//
// The coreset budget is a small absolute fraction with a fixed sample
// size. A greedy round computes each candidate's exact distances to its
// own cluster (~core / n_c rows) plus one center distance per cluster
// whose largest best distance still exceeds its radius, and visits only
// the members of clusters its threshold cuts: O(n_s x (core / n_c +
// n_c)) kernel distances, not O(n_s x core). At the paper-default
// r = 0.4 the 1M nodes still take ~420k rounds. At this budget
// `scale/select` measured 11.9 s at one thread (19.8 s with unpruned
// k-means and greedy loops; 8 shards, 32 clusters, n_s = 8, on a 4-vCPU
// Intel Xeon host). A scale benchmark wants wall-clock dominated by the
// streaming and training machinery it gates, not by selector rounds.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "graph/datasets.h"
#include "obs/resource.h"
#include "parallel/thread_pool.h"
#include "shard/graph_store.h"
#include "shard/sharded_trainer.h"

namespace e2gcl {
namespace {

struct BenchRecord {
  std::string name;
  int threads;
  double ns_per_iter;
  double wall_s;
  std::int64_t peak_rss_bytes;
};

void WriteJson(const std::vector<BenchRecord>& records, const char* path) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_scale: cannot write %s\n", path);
    std::exit(1);
  }
  std::fprintf(f, "[\n");
  for (std::size_t i = 0; i < records.size(); ++i) {
    const BenchRecord& r = records[i];
    std::fprintf(f,
                 "  {\"name\": \"%s\", \"threads\": %d, "
                 "\"ns_per_iter\": %.3f, \"wall_s\": %.3f, "
                 "\"peak_rss_bytes\": %lld}%s\n",
                 r.name.c_str(), r.threads, r.ns_per_iter, r.wall_s,
                 static_cast<long long>(r.peak_rss_bytes),
                 i + 1 < records.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  std::fclose(f);
  std::fprintf(stderr, "bench_scale: wrote %zu records to %s\n",
               records.size(), path);
}

int Prepare(const std::string& dir, double scale, std::uint64_t seed) {
  std::printf("bench_scale: generating synthetic-1m (scale %.3f)...\n",
              scale);
  Graph g = LoadDatasetScaled("synthetic-1m", scale, seed);
  std::printf("bench_scale: %lld nodes, %lld edges, %lld features\n",
              static_cast<long long>(g.num_nodes),
              static_cast<long long>(g.num_edges()),
              static_cast<long long>(g.feature_dim()));
  if (!GraphStore::Write(dir, g)) {
    std::fprintf(stderr, "bench_scale: cannot write store to %s\n",
                 dir.c_str());
    return 1;
  }
  std::printf("bench_scale: store written to %s (prepare peak rss %.1f MB)\n",
              dir.c_str(), PeakRssBytes() / (1024.0 * 1024.0));
  return 0;
}

int TrainPhase(const std::string& dir, int shards, int epochs,
               std::int64_t max_rss_mb) {
#if defined(__GLIBC__)
  // Pin the malloc mmap threshold so matrix-sized blocks are mmap'd and
  // returned to the OS the moment they are freed. glibc's default
  // dynamic threshold promotes them to the sbrk heap after the first
  // few frees, where freed working sets linger and inflate VmHWM far
  // above live memory — this gate measures the trainer, not the
  // allocator's retention policy.
  mallopt(M_MMAP_THRESHOLD, 1 << 20);
#endif
  GraphStore store;
  if (!store.Open(dir)) {
    std::fprintf(stderr,
                 "bench_scale: cannot open store %s (run --prepare first)\n",
                 dir.c_str());
    return 1;
  }
  const std::int64_t n = store.num_nodes();

  ShardedConfig cfg;
  cfg.num_shards = shards;
  cfg.halo_hops = 1;
  cfg.base.epochs = epochs;
  cfg.base.hidden_dim = 64;
  cfg.base.embed_dim = 64;
  // Batch anchors per shard. The batch ball the (L+1)-hop forward runs
  // on grows ~8^3 nodes per anchor at synthetic-1m degree, and the
  // retained forward tape is linear in the ball, so the anchor count is
  // the lever that keeps one training step inside the peak-RSS budget.
  cfg.base.batch_size = 16;
  cfg.base.seed = 1;
  // Small absolute coreset with a fixed sample size (see header note);
  // floor of 64 keeps heavily scaled-down smokes meaningful.
  cfg.base.node_ratio =
      std::max(64.0 / static_cast<double>(n), 0.002);
  cfg.base.selector.num_clusters = 32;
  cfg.base.selector.sample_size = 8;
  cfg.base.selector.auto_sample_size = false;

  std::printf("bench_scale: training on %lld nodes, %d shards, %d epochs\n",
              static_cast<long long>(n), shards, epochs);
  ShardedTrainer trainer(store, cfg);
  TrainResult result = trainer.Train();
  if (!result.ok()) {
    std::fprintf(stderr, "bench_scale: training failed (status %d)\n",
                 static_cast<int>(result.status));
    return 1;
  }

  const E2gclStats& stats = trainer.stats();
  const std::int64_t peak = PeakRssBytes();
  const int threads = GetNumThreads();
  std::printf(
      "bench_scale: cut %.2f%%, selected %zu, selection %.2fs, "
      "total %.2fs, peak rss %.1f MB\n",
      100.0 * trainer.partition().CutFraction(),
      trainer.selection().nodes.size(), stats.selection_seconds,
      stats.total_seconds, peak / (1024.0 * 1024.0));

  std::vector<BenchRecord> records;
  records.push_back({"scale/select", threads,
                     stats.selection_seconds * 1e9, stats.selection_seconds,
                     peak});
  records.push_back({"scale/pretrain", threads,
                     stats.total_seconds * 1e9 /
                         std::max(1, stats.epochs_run),
                     stats.total_seconds, peak});
  const char* out = std::getenv("E2GCL_BENCH_JSON");
  WriteJson(records, out != nullptr ? out : "BENCH_scale.json");

  if (max_rss_mb > 0 && peak > max_rss_mb * 1024 * 1024) {
    std::fprintf(stderr,
                 "bench_scale: PEAK RSS BUDGET EXCEEDED: %.1f MB > %lld MB\n",
                 peak / (1024.0 * 1024.0),
                 static_cast<long long>(max_rss_mb));
    return 3;
  }
  if (max_rss_mb > 0) {
    std::printf("bench_scale: peak rss %.1f MB within %lld MB budget\n",
                peak / (1024.0 * 1024.0),
                static_cast<long long>(max_rss_mb));
  }
  return 0;
}

int Usage() {
  std::fprintf(stderr,
               "usage: bench_scale --prepare <store_dir> [--scale F] "
               "[--seed S]\n"
               "       bench_scale --train <store_dir> [--shards N] "
               "[--epochs E] [--max-rss-mb M]\n");
  return 2;
}

int Main(int argc, char** argv) {
  std::string mode;
  std::string dir;
  double scale = 1.0;
  std::uint64_t seed = 1;
  int shards = 8;
  int epochs = 2;
  std::int64_t max_rss_mb = 0;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "bench_scale: %s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--prepare" || arg == "--train") {
      mode = arg;
      dir = next();
    } else if (arg == "--scale") {
      scale = std::atof(next());
    } else if (arg == "--seed") {
      seed = static_cast<std::uint64_t>(std::atoll(next()));
    } else if (arg == "--shards") {
      shards = std::atoi(next());
    } else if (arg == "--epochs") {
      epochs = std::atoi(next());
    } else if (arg == "--max-rss-mb") {
      max_rss_mb = std::atoll(next());
    } else {
      return Usage();
    }
  }
  if (dir.empty() || (mode != "--prepare" && mode != "--train")) {
    return Usage();
  }
  if (mode == "--prepare") {
    if (scale <= 0.0 || scale > 1.0) return Usage();
    return Prepare(dir, scale, seed);
  }
  if (shards < 1 || epochs < 1) return Usage();
  return TrainPhase(dir, shards, epochs, max_rss_mb);
}

}  // namespace
}  // namespace e2gcl

int main(int argc, char** argv) { return e2gcl::Main(argc, argv); }
