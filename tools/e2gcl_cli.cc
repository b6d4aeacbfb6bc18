// Command-line runner: pre-train any model on any named dataset
// stand-in and report linear-probe accuracy plus timings.
//
// Usage:
//   e2gcl_cli [--dataset cora] [--model e2gcl] [--epochs 40]
//             [--ratio 0.4] [--scale 1.0] [--runs 2] [--seed 1]
//             [--save-embedding path.csv]
//             [--checkpoint-dir dir] [--resume] [--max-retries 2]
//             [--checkpoint-every 10]
//             [--obs-report report.json] [--obs-off]
//
// Models: mlp gcn deepwalk node2vec gae vgae dgi bgrl afgrl mvgrl grace
//         gca e2gcl.
// Datasets: cora citeseer photo computers cs arxiv products.
//
// Fault tolerance (e2gcl model only): --checkpoint-dir enables atomic
// epoch-stamped checkpoints; --resume continues from the newest valid
// one; --max-retries bounds the NaN-recovery retry budget.

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <numeric>
#include <string>
#include <vector>

#include "eval/io.h"
#include "eval/protocol.h"
#include "flag_parse.h"
#include "graph/datasets.h"
#include "obs/metrics.h"
#include "obs/resource.h"
#include "shard/sharded_trainer.h"
#include "tensor/check.h"

namespace {

void Usage(const char* prog) {
  std::fprintf(
      stderr,
      "usage: %s [options]\n"
      "  --dataset <name>         cora|citeseer|photo|computers|cs|arxiv|"
      "products (default cora)\n"
      "  --model <name>           mlp|gcn|deepwalk|node2vec|gae|vgae|dgi|"
      "bgrl|afgrl|mvgrl|grace|gca|e2gcl (default e2gcl)\n"
      "  --epochs <int>           pre-training epochs (default 40)\n"
      "  --ratio <float>          e2gcl node budget r (default 0.4)\n"
      "  --scale <float>          dataset size multiplier in (0, 1] "
      "(default 1.0)\n"
      "  --runs <int>             repeated runs to aggregate (default 2)\n"
      "  --seed <uint64>          base RNG seed (default 1)\n"
      "  --save-embedding <path>  write the final embedding as CSV\n"
      "  --checkpoint-dir <dir>   write atomic training checkpoints here "
      "(e2gcl only; forces --runs 1)\n"
      "  --resume                 resume from the newest valid checkpoint\n"
      "  --max-retries <int>      NaN-divergence retry budget (default 2)\n"
      "  --checkpoint-every <int> epochs between checkpoints (default 10)\n"
      "  --obs-report <path>      write a versioned run_report.json for the "
      "training run (e2gcl only; forces --runs 1)\n"
      "  --obs-off                disable metric/span recording "
      "(counters in any report read 0)\n"
      "  --shards <int>           partition-parallel sharded pre-training "
      "with this many shards (e2gcl only; skips the linear probe)\n"
      "  --halo-hops <int>        halo rings around each shard core "
      "(default 1)\n"
      "  --out-of-core            serve the graph from an on-disk store "
      "instead of keeping it resident (requires --shards)\n"
      "  --store-dir <dir>        graph-store directory for --out-of-core/"
      "--prepare-store (default e2gcl_graph_store)\n"
      "  --prepare-store          generate the dataset, write the graph "
      "store to --store-dir, and exit (run training in a separate process "
      "so its peak RSS excludes generation)\n",
      prog);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace e2gcl;

  std::string dataset = "cora";
  std::string model = "e2gcl";
  std::string save_embedding;
  std::string checkpoint_dir;
  std::string obs_report;
  bool resume = false;
  bool obs_off = false;
  long long epochs = 40;
  long long runs = 2;
  long long max_retries = 2;
  long long checkpoint_every = 10;
  double ratio = 0.4;
  double scale = 1.0;
  std::uint64_t seed = 1;
  long long shards = 1;
  long long halo_hops = 1;
  bool out_of_core = false;
  bool prepare_store = false;
  std::string store_dir = "e2gcl_graph_store";

  for (int i = 1; i < argc; ++i) {
    const char* flag = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: missing value for %s\n", argv[0], flag);
        Usage(argv[0]);
        std::exit(2);
      }
      return argv[++i];
    };
    auto invalid = [&](const char* v) {
      std::fprintf(stderr, "%s: invalid value for %s: '%s'\n", argv[0], flag,
                   v);
      Usage(argv[0]);
      std::exit(2);
    };
    if (std::strcmp(flag, "--dataset") == 0) {
      const char* v = value();
      if (!FindDatasetSpec(v)) invalid(v);
      dataset = v;
    } else if (std::strcmp(flag, "--model") == 0) {
      const char* v = value();
      if (!FindModelKind(v)) invalid(v);
      model = v;
    } else if (std::strcmp(flag, "--epochs") == 0) {
      const char* v = value();
      if (!ParseInt(v, 1, 1000000, &epochs)) invalid(v);
    } else if (std::strcmp(flag, "--ratio") == 0) {
      const char* v = value();
      if (!ParseDouble(v, &ratio) || ratio <= 0.0 || ratio > 1.0) invalid(v);
    } else if (std::strcmp(flag, "--scale") == 0) {
      const char* v = value();
      if (!ParseDouble(v, &scale) || scale <= 0.0 || scale > 1.0) invalid(v);
    } else if (std::strcmp(flag, "--runs") == 0) {
      const char* v = value();
      if (!ParseInt(v, 1, 10000, &runs)) invalid(v);
    } else if (std::strcmp(flag, "--seed") == 0) {
      const char* v = value();
      if (!ParseU64(v, &seed)) invalid(v);
    } else if (std::strcmp(flag, "--save-embedding") == 0) {
      save_embedding = value();
    } else if (std::strcmp(flag, "--checkpoint-dir") == 0) {
      checkpoint_dir = value();
    } else if (std::strcmp(flag, "--resume") == 0) {
      resume = true;
    } else if (std::strcmp(flag, "--max-retries") == 0) {
      const char* v = value();
      if (!ParseInt(v, 0, 1000, &max_retries)) invalid(v);
    } else if (std::strcmp(flag, "--checkpoint-every") == 0) {
      const char* v = value();
      if (!ParseInt(v, 1, 1000000, &checkpoint_every)) invalid(v);
    } else if (std::strcmp(flag, "--obs-report") == 0) {
      obs_report = value();
      if (obs_report.empty()) invalid("");
    } else if (std::strcmp(flag, "--obs-off") == 0) {
      obs_off = true;
    } else if (std::strcmp(flag, "--shards") == 0) {
      const char* v = value();
      if (!ParseInt(v, 1, 4096, &shards)) invalid(v);
    } else if (std::strcmp(flag, "--halo-hops") == 0) {
      const char* v = value();
      if (!ParseInt(v, 0, 8, &halo_hops)) invalid(v);
    } else if (std::strcmp(flag, "--out-of-core") == 0) {
      out_of_core = true;
    } else if (std::strcmp(flag, "--store-dir") == 0) {
      store_dir = value();
      if (store_dir.empty()) invalid("");
    } else if (std::strcmp(flag, "--prepare-store") == 0) {
      prepare_store = true;
    } else if (std::strcmp(flag, "--help") == 0 ||
               std::strcmp(flag, "-h") == 0) {
      Usage(argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "%s: unknown flag: %s\n", argv[0], flag);
      Usage(argv[0]);
      return 2;
    }
  }

  ModelKind kind = ModelKindFromName(model);

  if (!checkpoint_dir.empty()) {
    if (kind != ModelKind::kE2gcl) {
      std::fprintf(stderr,
                   "%s: --checkpoint-dir is only supported for --model "
                   "e2gcl\n",
                   argv[0]);
      return 2;
    }
    if (runs != 1) {
      std::fprintf(stderr,
                   "note: --checkpoint-dir forces --runs 1 (checkpoints "
                   "track a single training trajectory)\n");
      runs = 1;
    }
  }
  if (resume && checkpoint_dir.empty()) {
    std::fprintf(stderr, "%s: --resume requires --checkpoint-dir\n", argv[0]);
    return 2;
  }
  if (!obs_report.empty()) {
    if (kind != ModelKind::kE2gcl) {
      std::fprintf(stderr,
                   "%s: --obs-report is only supported for --model e2gcl\n",
                   argv[0]);
      return 2;
    }
    if (runs != 1) {
      std::fprintf(stderr,
                   "note: --obs-report forces --runs 1 (the report records a "
                   "single training trajectory)\n");
      runs = 1;
    }
  }
  if (obs_off) SetObsEnabled(false);

  if (prepare_store) {
    Graph g = LoadDatasetScaled(dataset, scale, 0x5eed);
    std::printf("dataset %s (scale %.2f): %lld nodes, %lld edges\n",
                dataset.c_str(), scale, (long long)g.num_nodes,
                (long long)g.num_edges());
    if (!GraphStore::Write(store_dir, g)) {
      std::fprintf(stderr, "%s: failed to write graph store %s\n", argv[0],
                   store_dir.c_str());
      return 1;
    }
    std::printf("graph store written to %s\n", store_dir.c_str());
    return 0;
  }

  if (shards > 1 || out_of_core) {
    if (kind != ModelKind::kE2gcl) {
      std::fprintf(stderr,
                   "%s: --shards/--out-of-core are only supported for "
                   "--model e2gcl\n",
                   argv[0]);
      return 2;
    }
    ShardedConfig scfg;
    scfg.base.epochs = static_cast<int>(epochs);
    scfg.base.seed = seed;
    scfg.base.node_ratio = ratio;
    scfg.base.checkpoint_dir = checkpoint_dir;
    scfg.base.checkpoint_every = static_cast<int>(checkpoint_every);
    scfg.base.resume = resume;
    scfg.base.max_retries = static_cast<int>(max_retries);
    scfg.base.report_path = obs_report;
    scfg.num_shards = static_cast<int>(shards);
    scfg.halo_hops = static_cast<int>(halo_hops);

    // `load_graph` supplies the whole graph for --save-embedding only, so
    // an out-of-core run stays out of core unless an embedding is asked
    // for.
    auto run_sharded = [&](ShardedTrainer& trainer,
                           const std::function<Graph()>& load_graph) -> int {
      TrainResult res = trainer.Train();
      const E2gclStats& st = trainer.stats();
      std::printf(
          "sharded e2gcl: status %s, shards %lld, cut %.2f%%, epochs %d, "
          "selection %.2fs, total %.2fs, peak rss %.1f MB\n",
          res.ok() ? "ok" : res.message.c_str(), shards,
          100.0 * trainer.partition().CutFraction(), st.epochs_run,
          st.selection_seconds, st.total_seconds,
          static_cast<double>(PeakRssBytes()) / (1024.0 * 1024.0));
      if (!res.ok()) return 1;
      if (!save_embedding.empty()) {
        if (!SaveMatrixCsv(trainer.encoder().Encode(load_graph()),
                           save_embedding)) {
          std::fprintf(stderr, "failed to write %s\n", save_embedding.c_str());
          return 1;
        }
        std::printf("embedding written to %s\n", save_embedding.c_str());
      }
      return 0;
    };
    if (out_of_core) {
      GraphStore store;
      if (!store.Open(store_dir)) {
        std::printf("graph store %s not found; generating %s\n",
                    store_dir.c_str(), dataset.c_str());
        {
          Graph g = LoadDatasetScaled(dataset, scale, 0x5eed);
          if (!GraphStore::Write(store_dir, g)) {
            std::fprintf(stderr, "%s: failed to write graph store %s\n",
                         argv[0], store_dir.c_str());
            return 1;
          }
        }
        if (!store.Open(store_dir)) {
          std::fprintf(stderr, "%s: failed to open graph store %s\n",
                       argv[0], store_dir.c_str());
          return 1;
        }
      }
      std::printf("out-of-core: %lld nodes, %lld dims from %s\n",
                  (long long)store.num_nodes(), (long long)store.feature_dim(),
                  store_dir.c_str());
      ShardedTrainer trainer(store, scfg);
      return run_sharded(trainer, [&] {
        std::vector<std::int64_t> all(store.num_nodes());
        std::iota(all.begin(), all.end(), std::int64_t{0});
        Graph full;
        E2GCL_CHECK_MSG(store.LoadInducedSubgraph(all, &full),
                        "failed to read graph store %s", store_dir.c_str());
        return full;
      });
    }
    Graph g = LoadDatasetScaled(dataset, scale, 0x5eed);
    std::printf("dataset %s (scale %.2f): %lld nodes, %lld edges\n",
                dataset.c_str(), scale, (long long)g.num_nodes,
                (long long)g.num_edges());
    ShardedTrainer trainer(g, scfg);
    return run_sharded(trainer, [&] { return g; });
  }

  Graph g = LoadDatasetScaled(dataset, scale, 0x5eed);
  std::printf("dataset %s (scale %.2f): %lld nodes, %lld edges, %lld dims, "
              "%lld classes\n",
              dataset.c_str(), scale, (long long)g.num_nodes,
              (long long)g.num_edges(), (long long)g.feature_dim(),
              (long long)g.num_classes);

  RunConfig cfg;
  cfg.epochs = static_cast<int>(epochs);
  cfg.seed = seed;
  cfg.supervised.epochs = 3 * static_cast<int>(epochs);
  cfg.e2gcl.node_ratio = ratio;
  cfg.e2gcl.checkpoint_dir = checkpoint_dir;
  cfg.e2gcl.checkpoint_every = static_cast<int>(checkpoint_every);
  cfg.e2gcl.resume = resume;
  cfg.e2gcl.max_retries = static_cast<int>(max_retries);
  cfg.e2gcl.report_path = obs_report;

  AggregateResult agg = RunRepeated(kind, g, cfg, static_cast<int>(runs));
  std::printf("%s: accuracy %.2f%% ± %.2f  (selection %.2fs, total %.2fs)\n",
              ModelKindName(kind).c_str(), agg.accuracy.mean,
              agg.accuracy.std, agg.selection_seconds, agg.total_seconds);

  if (!save_embedding.empty() && kind != ModelKind::kMlp &&
      kind != ModelKind::kGcn) {
    Matrix emb = ComputeEmbedding(kind, g, cfg);
    if (SaveMatrixCsv(emb, save_embedding)) {
      std::printf("embedding written to %s\n", save_embedding.c_str());
    } else {
      std::fprintf(stderr, "failed to write %s\n", save_embedding.c_str());
      return 1;
    }
  }
  return 0;
}
