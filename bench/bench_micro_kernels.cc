// Engineering micro-benchmarks (google-benchmark) for the kernels every
// experiment leans on: SpMM (GCN propagation), dense GEMM, KMeans, the
// coreset selector, the contrastive loss, and view generation throughput.
//
// Kernels that go through the thread pool run a thread-scaling sweep
// (1/2/4/8 via SetNumThreads, the same knob E2GCL_NUM_THREADS controls);
// the size-swept kernels after them run at the pool size the process
// started with. BM_TopKScan times the serving TopK scan over a
// norm-ordered table against BM_TopKScanReference, the id-order slab
// scan it replaced, on a hub-dominated table and on a flat one where the
// scan cannot stop early.
// Besides the usual console table, the binary writes BENCH_kernels.json —
// one record per run: {kernel, size, threads, ns_per_iter} — so the perf
// trajectory is machine-trackable across commits. Set E2GCL_BENCH_JSON to
// change the output path.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <tuple>
#include <vector>

#include "autograd/loss.h"
#include "cluster/kmeans.h"
#include "core/node_selector.h"
#include "core/raw_aggregation.h"
#include "core/view_generator.h"
#include "graph/generators.h"
#include "parallel/parallel_for.h"
#include "parallel/thread_pool.h"
#include "serve/embedding_server.h"
#include "tensor/csr.h"
#include "tensor/simd/simd.h"

namespace e2gcl {
namespace {

constexpr std::int64_t kThreadSweep[] = {1, 2, 4, 8};

/// The pool size the process started with, read by main() before the
/// thread sweeps resize the pool.
int g_start_threads = 1;

void ThreadSweep(benchmark::internal::Benchmark* b) {
  for (std::int64_t t : kThreadSweep) b->Arg(t);
}

Graph BenchGraph(std::int64_t n) {
  SbmSpec spec;
  spec.num_nodes = n;
  spec.num_classes = 8;
  spec.feature_dim = 128;
  spec.avg_degree = 12;
  spec.informative_dims_per_class = 8;
  return GenerateSbm(spec, 0xbe7c);
}

// --------------------------------------------------------------------------
// Fixed-shape kernels swept over thread counts (arg 0 = threads).
// --------------------------------------------------------------------------

// The acceptance kernel: 512 x 512 x 512 dense GEMM.
void BM_Gemm512Cube(benchmark::State& state) {
  SetNumThreads(static_cast<int>(state.range(0)));
  Rng rng(1);
  Matrix a = Matrix::RandomNormal(512, 512, 0, 1, rng);
  Matrix b = Matrix::RandomNormal(512, 512, 0, 1, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MatMul(a, b));
  }
  state.counters["threads"] = static_cast<double>(state.range(0));
  state.counters["size"] = 512;
  state.SetItemsProcessed(state.iterations() * 512 * 512 * 512);
}
BENCHMARK(BM_Gemm512Cube)->Apply(ThreadSweep)->UseRealTime();

// Arxiv-scale SpMM: ~20k nodes at avg degree 12 (plus self loops) matches
// the arxiv-like dataset's nnz within a few percent.
void BM_SpmmArxivScale(benchmark::State& state) {
  SetNumThreads(static_cast<int>(state.range(0)));
  const std::int64_t n = 20000;
  Graph g = BenchGraph(n);
  CsrMatrix an = NormalizedAdjacency(g);
  Rng rng(2);
  Matrix x = Matrix::RandomNormal(n, 64, 0, 1, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Spmm(an, x));
  }
  state.counters["threads"] = static_cast<double>(state.range(0));
  state.counters["size"] = static_cast<double>(n);
  state.counters["nnz"] = static_cast<double>(an.nnz());
  state.SetItemsProcessed(state.iterations() * an.nnz() * 64);
}
BENCHMARK(BM_SpmmArxivScale)->Apply(ThreadSweep)->UseRealTime();

void BM_SpmmTransposedAArxivScale(benchmark::State& state) {
  SetNumThreads(static_cast<int>(state.range(0)));
  const std::int64_t n = 20000;
  Graph g = BenchGraph(n);
  CsrMatrix an = NormalizedAdjacency(g);
  Rng rng(2);
  Matrix x = Matrix::RandomNormal(n, 64, 0, 1, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SpmmTransposedA(an, x));
  }
  state.counters["threads"] = static_cast<double>(state.range(0));
  state.counters["size"] = static_cast<double>(n);
  state.SetItemsProcessed(state.iterations() * an.nnz() * 64);
}
BENCHMARK(BM_SpmmTransposedAArxivScale)->Apply(ThreadSweep)->UseRealTime();

// The same product on an unmarked copy of the matrix: the chunked
// scatter that asymmetric operands still take, next to the gather form
// the symmetric (marked) normalized adjacency above runs.
void BM_SpmmTransposedAScatterArxivScale(benchmark::State& state) {
  SetNumThreads(static_cast<int>(state.range(0)));
  const std::int64_t n = 20000;
  Graph g = BenchGraph(n);
  const CsrMatrix an = NormalizedAdjacency(g);
  std::vector<std::tuple<std::int64_t, std::int64_t, float>> triplets;
  for (std::int64_t r = 0; r < n; ++r) {
    for (std::int64_t e = an.row_ptr()[r]; e < an.row_ptr()[r + 1]; ++e) {
      triplets.emplace_back(r, an.col_idx()[e], an.values()[e]);
    }
  }
  const CsrMatrix unmarked = CsrMatrix::FromCoo(n, n, std::move(triplets));
  Rng rng(2);
  Matrix x = Matrix::RandomNormal(n, 64, 0, 1, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SpmmTransposedA(unmarked, x));
  }
  state.counters["threads"] = static_cast<double>(state.range(0));
  state.counters["size"] = static_cast<double>(n);
  state.SetItemsProcessed(state.iterations() * an.nnz() * 64);
}
BENCHMARK(BM_SpmmTransposedAScatterArxivScale)
    ->Apply(ThreadSweep)
    ->UseRealTime();

// The backward GEMMs of a GCN layer at the cora shapes (2,708 nodes, 128
// features, 64 hidden): the weight gradient X^T G (MatMulTransposedA,
// zero-skipping the sparse features) and the input gradient G W^T
// (MatMulTransposedB, dot form of width 64).
void BM_MatMulTransposedA(benchmark::State& state) {
  SetNumThreads(static_cast<int>(state.range(0)));
  const Graph g = BenchGraph(2708);
  Rng rng(8);
  const Matrix grad = Matrix::RandomNormal(2708, 64, 0, 1, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MatMulTransposedA(g.features, grad));
  }
  state.counters["threads"] = static_cast<double>(state.range(0));
  state.counters["size"] = 2708;
  state.SetItemsProcessed(state.iterations() * 2708 * 128 * 64);
}
BENCHMARK(BM_MatMulTransposedA)->Apply(ThreadSweep)->UseRealTime();

void BM_MatMulTransposedB(benchmark::State& state) {
  SetNumThreads(static_cast<int>(state.range(0)));
  Rng rng(9);
  const Matrix grad = Matrix::RandomNormal(2708, 64, 0, 1, rng);
  const Matrix w = Matrix::RandomNormal(128, 64, 0, 1, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MatMulTransposedB(grad, w));
  }
  state.counters["threads"] = static_cast<double>(state.range(0));
  state.counters["size"] = 2708;
  state.SetItemsProcessed(state.iterations() * 2708 * 128 * 64);
}
BENCHMARK(BM_MatMulTransposedB)->Apply(ThreadSweep)->UseRealTime();

void BM_KMeansThreads(benchmark::State& state) {
  SetNumThreads(static_cast<int>(state.range(0)));
  Graph g = BenchGraph(4096);
  Matrix r = RawAggregation(g, 2);
  KMeansOptions opts;
  opts.num_clusters = 64;
  opts.max_iters = 10;
  for (auto _ : state) {
    Rng rng(3);
    benchmark::DoNotOptimize(KMeans(r, opts, rng));
  }
  state.counters["threads"] = static_cast<double>(state.range(0));
  state.counters["size"] = 4096;
}
BENCHMARK(BM_KMeansThreads)->Apply(ThreadSweep)->UseRealTime();

void BM_InfoNceThreads(benchmark::State& state) {
  SetNumThreads(static_cast<int>(state.range(0)));
  Rng rng(7);
  const Matrix z1 = NormalizeRowsL2(Matrix::RandomNormal(1024, 64, 0, 1, rng));
  const Matrix z2 = NormalizeRowsL2(Matrix::RandomNormal(1024, 64, 0, 1, rng));
  for (auto _ : state) {
    Var a = Var::Param(z1);
    Var b = Var::Param(z2);
    Var loss = ag::InfoNce(a, b, 0.5f);
    loss.Backward();
    benchmark::DoNotOptimize(loss.value()(0, 0));
  }
  state.counters["threads"] = static_cast<double>(state.range(0));
  state.counters["size"] = 1024;
}
BENCHMARK(BM_InfoNceThreads)->Apply(ThreadSweep)->UseRealTime();

// --------------------------------------------------------------------------
// Size-swept kernels at the default thread count (arg 0 = problem size):
// each restores the pool size the process started with.
// --------------------------------------------------------------------------

void BM_Gemm(benchmark::State& state) {
  SetNumThreads(g_start_threads);
  const std::int64_t n = state.range(0);
  Rng rng(1);
  Matrix a = Matrix::RandomNormal(n, 128, 0, 1, rng);
  Matrix b = Matrix::RandomNormal(128, 64, 0, 1, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MatMul(a, b));
  }
  state.SetItemsProcessed(state.iterations() * n * 128 * 64);
}
BENCHMARK(BM_Gemm)->Arg(1024)->Arg(4096)->Arg(16384);

void BM_Spmm(benchmark::State& state) {
  SetNumThreads(g_start_threads);
  const std::int64_t n = state.range(0);
  Graph g = BenchGraph(n);
  CsrMatrix an = NormalizedAdjacency(g);
  Rng rng(2);
  Matrix x = Matrix::RandomNormal(n, 64, 0, 1, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Spmm(an, x));
  }
  state.SetItemsProcessed(state.iterations() * an.nnz() * 64);
}
BENCHMARK(BM_Spmm)->Arg(1024)->Arg(4096)->Arg(16384);

void BM_RawAggregation(benchmark::State& state) {
  SetNumThreads(g_start_threads);
  Graph g = BenchGraph(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(RawAggregation(g, 2));
  }
}
BENCHMARK(BM_RawAggregation)->Arg(2048)->Arg(8192);

void BM_KMeans(benchmark::State& state) {
  SetNumThreads(g_start_threads);
  Graph g = BenchGraph(4096);
  Matrix r = RawAggregation(g, 2);
  KMeansOptions opts;
  opts.num_clusters = state.range(0);
  opts.max_iters = 10;
  for (auto _ : state) {
    Rng rng(3);
    benchmark::DoNotOptimize(KMeans(r, opts, rng));
  }
}
BENCHMARK(BM_KMeans)->Arg(30)->Arg(120);

void BM_SelectCoreset(benchmark::State& state) {
  SetNumThreads(g_start_threads);
  Graph g = BenchGraph(4096);
  Matrix r = RawAggregation(g, 2);
  SelectorConfig cfg;
  cfg.budget = state.range(0);
  cfg.num_clusters = 64;
  for (auto _ : state) {
    Rng rng(4);
    benchmark::DoNotOptimize(SelectCoreset(r, cfg, rng));
  }
}
BENCHMARK(BM_SelectCoreset)->Arg(128)->Arg(512)->Arg(1638);

void BM_GlobalViewGeneration(benchmark::State& state) {
  SetNumThreads(g_start_threads);
  Graph g = BenchGraph(state.range(0));
  ViewGenerator gen(g);
  ViewConfig cfg{.tau = 0.8f, .eta = 0.4f};
  Rng rng(5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gen.GenerateGlobalView(cfg, rng));
  }
}
BENCHMARK(BM_GlobalViewGeneration)->Arg(2048)->Arg(8192);

void BM_PerNodeViewGeneration(benchmark::State& state) {
  SetNumThreads(g_start_threads);
  Graph g = BenchGraph(4096);
  ViewGenerator gen(g);
  ViewConfig cfg{.tau = 0.8f, .eta = 0.4f};
  Rng rng(6);
  std::int64_t root = 0;
  for (auto _ : state) {
    std::int64_t root_idx;
    benchmark::DoNotOptimize(
        gen.GeneratePerNodeView(root, 2, cfg, rng, &root_idx));
    root = (root + 1) % g.num_nodes;
  }
}
BENCHMARK(BM_PerNodeViewGeneration);

// The serving TopK scan: 20,000 x 64 rows, as many as the arxiv stand-in
// serves, 2 queries (rows of the table, excluded from their own
// answers), k = 10. `hubs`: every 100th row is 10x longer, as the
// largest rows of a trained model stand out. `flat`: every row has norm
// 1, so the bound prunes nothing and the ordered scan reads every row.
constexpr std::int64_t kTopKRows = 20000;
constexpr std::int64_t kTopKQueries[] = {17, 4242};
constexpr std::int64_t kTopK = 10;

Matrix TopKTable(bool flat) {
  Rng rng(7);
  Matrix z = Matrix::RandomNormal(kTopKRows, 64, 0, 1, rng);
  for (std::int64_t v = 0; v < z.rows(); ++v) {
    const float scale =
        flat ? static_cast<float>(
                   1.0 / std::sqrt(simd::SquaredNormD(z.RowPtr(v), z.cols())))
             : (v % 100 == 0 ? 10.0f : 1.0f);
    simd::Scale(z.RowPtr(v), scale, z.cols());
  }
  return z;
}

Matrix TopKQueries(const Matrix& z) {
  Matrix queries(std::size(kTopKQueries), z.cols());
  for (std::size_t q = 0; q < std::size(kTopKQueries); ++q) {
    std::copy(z.RowPtr(kTopKQueries[q]), z.RowPtr(kTopKQueries[q]) + z.cols(),
              queries.RowPtr(static_cast<std::int64_t>(q)));
  }
  return queries;
}

std::vector<TopKSelector> TopKSelectors() {
  std::vector<TopKSelector> best;
  for (const std::int64_t node : kTopKQueries) best.emplace_back(kTopK, node);
  return best;
}

void BM_TopKScan(benchmark::State& state, bool flat) {
  SetNumThreads(g_start_threads);
  Matrix z = TopKTable(flat);
  const Matrix queries = TopKQueries(z);
  const NormOrder order = SortRowsByNorm(&z);
  std::int64_t scored = 0;
  for (auto _ : state) {
    std::vector<TopKSelector> best = TopKSelectors();
    scored = ScanNormOrdered(z, order, queries, &best);
    for (TopKSelector& b : best) benchmark::DoNotOptimize(b.Take());
  }
  state.counters["size"] = kTopKRows;
  state.counters["rows_scored"] = static_cast<double>(scored);
}
BENCHMARK_CAPTURE(BM_TopKScan, hubs, false)->UseRealTime();
BENCHMARK_CAPTURE(BM_TopKScan, flat, true)->UseRealTime();

/// The id-order slab scan the norm-ordered scan replaced, verbatim.
void ReferenceSlabScan(const Matrix& z, const Matrix& queries,
                       std::vector<TopKSelector>* best) {
  constexpr std::int64_t kSlabRows = 4096;
  const std::int64_t n = z.rows();
  const std::int64_t d = queries.cols();
  const std::int64_t b = queries.rows();
  const std::int64_t grain = GrainForCost(d);
  std::vector<float> slab(
      static_cast<std::size_t>(b * std::min(kSlabRows, n)));
  for (std::int64_t s0 = 0; s0 < n; s0 += kSlabRows) {
    const std::int64_t s1 = std::min(n, s0 + kSlabRows);
    ParallelFor(s0, s1, grain, [&](std::int64_t rb, std::int64_t re) {
      float* out = slab.data() + b * (rb - s0);
      simd::GemmTransBRows(queries.data(), z.RowPtr(rb), out, 0, b, d,
                           re - rb);
    });
    // ParallelFor's chunks start at s0, every `grain` rows.
    for (std::int64_t c0 = s0; c0 < s1; c0 += grain) {
      const std::int64_t rows = std::min(s1, c0 + grain) - c0;
      const float* chunk = slab.data() + b * (c0 - s0);
      for (std::int64_t q = 0; q < b; ++q) {
        (*best)[static_cast<std::size_t>(q)].OfferRun(chunk + q * rows, c0,
                                                      rows);
      }
    }
  }
}

void BM_TopKScanReference(benchmark::State& state, bool flat) {
  SetNumThreads(g_start_threads);
  const Matrix z = TopKTable(flat);
  const Matrix queries = TopKQueries(z);
  for (auto _ : state) {
    std::vector<TopKSelector> best = TopKSelectors();
    ReferenceSlabScan(z, queries, &best);
    for (TopKSelector& b : best) benchmark::DoNotOptimize(b.Take());
  }
  state.counters["size"] = kTopKRows;
}
BENCHMARK_CAPTURE(BM_TopKScanReference, hubs, false)->UseRealTime();
BENCHMARK_CAPTURE(BM_TopKScanReference, flat, true)->UseRealTime();

// --------------------------------------------------------------------------
// JSON emission: tee every finished run into BENCH_kernels.json.
// --------------------------------------------------------------------------

struct RunRecord {
  std::string kernel;  // benchmark name up to the first '/'
  std::string name;    // full run name
  std::int64_t size;   // first numeric arg (or 0)
  std::int64_t threads;
  double ns_per_iter;
};

/// Console reporter that also captures per-run records for the JSON dump.
class JsonTeeReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.error_occurred) continue;
      RunRecord rec;
      rec.name = run.benchmark_name();
      const auto slash = rec.name.find('/');
      rec.kernel = rec.name.substr(0, slash);
      // Thread-swept benches report their fixed problem size via a
      // counter; size-swept benches encode it as the first arg.
      const auto size_it = run.counters.find("size");
      if (size_it != run.counters.end()) {
        rec.size = static_cast<std::int64_t>(size_it->second.value);
      } else if (slash != std::string::npos) {
        rec.size = std::strtoll(rec.name.c_str() + slash + 1, nullptr, 10);
      } else {
        rec.size = 0;
      }
      const auto it = run.counters.find("threads");
      rec.threads = it != run.counters.end()
                        ? static_cast<std::int64_t>(it->second.value)
                        : GetNumThreads();
      rec.ns_per_iter = run.iterations > 0
                            ? run.real_accumulated_time /
                                  static_cast<double>(run.iterations) * 1e9
                            : 0.0;
      records_.push_back(std::move(rec));
    }
    ConsoleReporter::ReportRuns(runs);
  }

  const std::vector<RunRecord>& records() const { return records_; }

 private:
  std::vector<RunRecord> records_;
};

void WriteJson(const std::vector<RunRecord>& records, const char* path) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_micro_kernels: cannot write %s\n", path);
    return;
  }
  std::fprintf(f, "[\n");
  for (std::size_t i = 0; i < records.size(); ++i) {
    const RunRecord& r = records[i];
    std::fprintf(f,
                 "  {\"kernel\": \"%s\", \"name\": \"%s\", \"size\": %lld, "
                 "\"threads\": %lld, \"ns_per_iter\": %.3f}%s\n",
                 r.kernel.c_str(), r.name.c_str(),
                 static_cast<long long>(r.size),
                 static_cast<long long>(r.threads), r.ns_per_iter,
                 i + 1 < records.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  std::fclose(f);
  std::fprintf(stderr, "bench_micro_kernels: wrote %zu records to %s\n",
               records.size(), path);
}

}  // namespace
}  // namespace e2gcl

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  e2gcl::g_start_threads = e2gcl::GetNumThreads();
  e2gcl::JsonTeeReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  const char* path = std::getenv("E2GCL_BENCH_JSON");
  e2gcl::WriteJson(reporter.records(), path != nullptr ? path
                                                       : "BENCH_kernels.json");
  benchmark::Shutdown();
  return 0;
}
