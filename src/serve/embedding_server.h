#ifndef E2GCL_SERVE_EMBEDDING_SERVER_H_
#define E2GCL_SERVE_EMBEDDING_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/thread_annotations.h"
#include "graph/graph.h"
#include "io/checkpoint.h"
#include "nn/gcn.h"
#include "serve/fault_injector.h"
#include "serve/lru_cache.h"
#include "serve/quantized_table.h"
#include "serve/reload.h"
#include "serve/serve_status.h"
#include "tensor/csr.h"
#include "tensor/matrix.h"

namespace e2gcl {

/// Configuration of an EmbeddingServer instance.
struct ServeOptions {
  /// Precompute every node's embedding at load time (O(1) reads, |V| x d
  /// resident memory) instead of computing L-hop frontiers lazily behind
  /// the row cache. Both modes return bit-identical rows.
  bool precompute = false;
  /// Total row budget of the lazy-mode cache and its shard count (the
  /// budget is split evenly across shards; see ShardedRowCache).
  std::int64_t cache_capacity = 4096;
  int cache_shards = 8;
  /// Micro-batching is greedy: whatever is queued when the flusher is
  /// free ships at once, up to `max_batch` requests. Under load batches
  /// form naturally while the previous batch is being served, and a lone
  /// request never waits for batch-mates. max_batch = 1 disables
  /// batching (every request served solo).
  std::int64_t max_batch = 32;
  /// Serve TopKSimilar from a symmetric int8 per-row quantized copy of
  /// the embedding table (built once per model generation; ~4x smaller
  /// than the fp32 matrix that lazy TopK would otherwise materialize).
  /// The approximate scan picks k * rescore_factor candidates, which are
  /// re-scored with exact fp32 rows before the final top-k cut;
  /// rescore_factor = 0 skips the rescore and returns approximate
  /// scores. GetEmbedding/ScoreLink always stay exact fp32.
  bool quantize_int8 = false;
  std::int64_t rescore_factor = 4;
  /// Admission-control watermark: a request arriving while this many
  /// requests are already queued is rejected immediately with
  /// kOverloaded (load shedding) instead of growing the queue without
  /// bound. The bounded-retry helper (RetryWithBackoff) is the intended
  /// client response.
  std::int64_t max_queue_depth = 4096;
  /// Graceful degradation: when a TopKSimilar request that allows it
  /// arrives while at least this many requests are queued (pressure),
  /// it is answered from the int8 approximate scan with the exact
  /// rescore skipped and flagged kDegraded. 0 disables degradation.
  /// Requires quantize_int8 (without a table there is nothing cheaper
  /// to answer from, and the request is served exactly).
  std::int64_t degrade_watermark = 0;
  /// When nonzero, loading refuses a checkpoint whose config fingerprint
  /// differs (same contract as trainer resume). Hot reloads revalidate
  /// against the same fingerprint.
  std::uint64_t expected_fingerprint = 0;
  /// Encoder architecture. When `encoder.dims` is empty (the serving
  /// default — note GcnConfig's own default dims are non-empty) the
  /// widths and bias flag are inferred from the checkpoint parameter
  /// shapes (InferEncoderLayout) and the remaining knobs keep the
  /// trainer defaults (ReLU, linear final layer, no PReLU).
  GcnConfig encoder = {.dims = {}};
  /// Test-only fault hooks; unset in production (fault_injector.h).
  ServeFaultInjector fault_injector;
};

/// The best `k` TopK candidates under the serving order: score
/// descending, node id ascending on ties. A NaN score ranks as -infinity
/// and +0.0 ties -0.0, so the order is total and the answer does not
/// depend on the order candidates are offered in. It streams: a bounded
/// heap whose front is the worst kept candidate, so a scan keeps O(k)
/// state per query however many rows it offers. Every TopK answer is cut
/// by one: the fp32 scan, the int8 scan, the int8 candidate pool and its
/// exact rescore.
class TopKSelector {
 public:
  /// Keeps the best `k` (>= 0) candidates other than `exclude` (the
  /// query's own node).
  TopKSelector(std::int64_t k, std::int64_t exclude);

  void Offer(float score, std::int64_t node);
  /// Offers nodes first, first + 1, ..., first + count - 1 with
  /// scores[0], ..., scores[count - 1].
  void OfferRun(const float* scores, std::int64_t first, std::int64_t count);

  /// The kept candidates, best first. Leaves the selector empty.
  TopKResult Take();

 private:
  struct Entry {
    float key;  // the score, or -infinity for a NaN score
    float score;
    std::int64_t node;
  };
  /// True iff `a` ranks before `b`.
  static bool Before(const Entry& a, const Entry& b);

  std::int64_t k_;
  std::int64_t exclude_;
  /// A heap under Before: front() is the worst kept candidate.
  std::vector<Entry> heap_;
};

/// Serves frozen-encoder embedding queries over one graph + checkpoint.
///
/// Three APIs — GetEmbedding, ScoreLink (dot score of the two rows, the
/// deployable analogue of the Hadamard link probe), TopKSimilar — all
/// funnel through a micro-batching queue drained by a single flusher
/// thread; the flusher computes missing rows in one frontier-batched
/// GcnEncoder::EncodeRows call per batch (riding the global thread
/// pool), scores every TopK request of the batch in one pass over the
/// table, and completes each request through its callback. Any number
/// of threads may query concurrently.
///
/// Robustness layer (DESIGN.md "Serving robustness model"):
///  * Every call carries ServeRequestOptions with a deadline, which the
///    flusher owns: a request still queued at its deadline, or answered
///    after it, completes kDeadlineExceeded, and an expired queued
///    request is dropped without paying its compute. A blocking caller
///    is released at its deadline even if the flusher is wedged.
///  * Admission control sheds load at the max_queue_depth watermark
///    (kOverloaded) and degrades eligible TopK requests under pressure
///    (kDegraded, int8 approximate scan, always flagged and counted).
///  * Hot checkpoint reload: ReloadCheckpoint/ReloadFromFile build and
///    validate a fresh generation off the serving path, then swap it in
///    RCU-style. In-flight requests stay pinned to the generation they
///    were admitted under; every response is tagged with its
///    generation.
///  * Shutdown drains deterministically: queued requests are served (or
///    deadline-failed), new ones are rejected with kShutdown, and no
///    caller stays blocked past the destructor.
///
/// Determinism contract: within one model generation a row is
/// bit-identical whether it is served cold, from the cache, solo, or
/// inside any batch composition, at any E2GCL_NUM_THREADS — see
/// DESIGN.md "Serving architecture". Degraded responses are exactly the
/// approximate-scan answers (themselves deterministic), never a mix.
class EmbeddingServer {
 public:
  /// Loads + validates an on-disk checkpoint (magic/version/per-section
  /// CRC32 via LoadTrainerCheckpoint, then fingerprint and shape checks)
  /// and builds a server. Returns nullptr with `*error` set on failure.
  static std::unique_ptr<EmbeddingServer> Load(const Graph& graph,
                                               const std::string& path,
                                               const ServeOptions& options,
                                               std::string* error);

  /// Same, from an in-memory checkpoint (e.g. freshly trained).
  static std::unique_ptr<EmbeddingServer> FromCheckpoint(
      const Graph& graph, const TrainerCheckpoint& ckpt,
      const ServeOptions& options, std::string* error);

  /// Prefer the factories: this constructor trusts that `state` was
  /// built by BuildModelState for `graph` + `options`.
  EmbeddingServer(const Graph& graph, std::shared_ptr<ModelState> state,
                  const ServeOptions& options);

  /// BeginShutdown() + drain (every admitted request completes or fails
  /// its deadline) + join the flusher thread. Never blocks on callers.
  ~EmbeddingServer();

  EmbeddingServer(const EmbeddingServer&) = delete;
  EmbeddingServer& operator=(const EmbeddingServer&) = delete;

  // --- Status-typed API (deadline/admission aware). ------------------------
  //
  // Each query comes in two forms. The asynchronous one returns kOk when
  // the request was admitted: `done` then runs exactly once, on the
  // flusher thread with no lock held, with the response. Any other
  // status is the admission rejection (kInvalidArgument for a node id
  // outside [0, num_nodes()) or a negative k, kShutdown, kOverloaded),
  // and `done` never runs. `done` must not wait on this server; it may
  // submit further requests. The blocking form is the asynchronous one
  // plus a wait: it returns the response, or kDeadlineExceeded at the
  // request's deadline (never, when deadline_us == 0).

  /// The embedding row of `node`.
  EmbeddingResponse GetEmbedding(std::int64_t node,
                                 const ServeRequestOptions& request);
  ServeStatus GetEmbedding(std::int64_t node,
                           const ServeRequestOptions& request,
                           std::function<void(EmbeddingResponse)> done);

  /// Dot-product link score <z_u, z_v>.
  ScoreResponse ScoreLink(std::int64_t u, std::int64_t v,
                          const ServeRequestOptions& request);
  ServeStatus ScoreLink(std::int64_t u, std::int64_t v,
                        const ServeRequestOptions& request,
                        std::function<void(ScoreResponse)> done);

  /// The k most similar nodes to `node` by dot-product score. May be
  /// answered degraded (see ServeOptions::degrade_watermark) when
  /// `request.allow_degraded` is set.
  TopKResponse TopKSimilar(std::int64_t node, std::int64_t k,
                           const ServeRequestOptions& request);
  ServeStatus TopKSimilar(std::int64_t node, std::int64_t k,
                          const ServeRequestOptions& request,
                          std::function<void(TopKResponse)> done);

  // --- Hot checkpoint reload. ----------------------------------------------

  /// Zero-downtime reload: validates `ckpt` with exactly the checks the
  /// initial load performs, builds the next generation (encoder +
  /// fresh cache + quantized table) off the serving path, then swaps it
  /// in atomically. Queries keep being served from the old generation
  /// for the whole build; requests already admitted finish on the
  /// generation they started on. Returns kOk (swapped), kReloading
  /// (another reload in flight), kShutdown, or kInvalidArgument
  /// (validation failed; `*error` says why and serving is untouched).
  ServeStatus ReloadCheckpoint(const TrainerCheckpoint& ckpt,
                               std::string* error = nullptr);

  /// ReloadCheckpoint from a checkpoint file (full magic/version/CRC
  /// validation; a torn or corrupt file is rejected without touching
  /// the serving state).
  ServeStatus ReloadFromFile(const std::string& path,
                             std::string* error = nullptr);

  /// Stops admitting new requests (they fail fast with kShutdown) and
  /// lets the flusher drain what was already admitted. Idempotent; the
  /// destructor calls it implicitly.
  void BeginShutdown();

  // --- Introspection. ------------------------------------------------------

  std::int64_t num_nodes() const { return graph_->num_nodes; }
  std::int64_t embed_dim() const;
  /// Current model generation (1 = initial checkpoint).
  std::uint64_t generation() const;
  /// Pins and returns the current generation (tests; survives reloads).
  std::shared_ptr<const ModelState> state() const;
  /// Requests currently queued (scheduling-dependent; tests only).
  std::int64_t queue_depth() const;
  /// Current generation's lazy-mode row cache (nullptr in precompute
  /// mode). The pointer is invalidated by a reload — use state() when
  /// reloads may run concurrently.
  const ShardedRowCache* cache() const;
  /// Current generation's int8 table (empty unless
  /// options.quantize_int8). Same reload caveat as cache().
  const QuantizedEmbeddingTable& quantized() const;

 private:
  struct Request;

  /// Argument check, admission control and enqueue of `req`, whose
  /// completion hands a `Response` to `done`.
  /// kOk = admitted: the flusher then runs `done` exactly once, and
  /// `*generation` (when non-null) holds the generation the request is
  /// pinned to. Any other status is the rejection. Acquires mu_
  /// internally.
  template <typename Response>
  ServeStatus Submit(std::unique_ptr<Request> req,
                     std::function<void(Response)> done,
                     std::uint64_t* generation = nullptr) E2GCL_EXCLUDES(mu_);
  /// The blocking form of a query: Submit, then wait for the response,
  /// at most until the request's deadline.
  template <typename Response>
  Response Await(std::unique_ptr<Request> req);
  /// Single-threaded flusher: batches by size/deadline/generation,
  /// serves, completes.
  void FlusherLoop() E2GCL_EXCLUDES(mu_);
  /// Pops the next batch off queue_ (size/generation bounded). Requests
  /// already past their deadline go to `*expired` instead.
  std::vector<std::unique_ptr<Request>> PopBatchLocked(
      std::vector<std::unique_ptr<Request>>* expired) E2GCL_REQUIRES(mu_);
  /// Serves one popped batch (runs on the flusher thread, outside mu_).
  /// Every request in the batch is pinned to the same generation.
  void ProcessBatch(const std::vector<std::unique_ptr<Request>>& batch);
  /// Rows for sorted-unique `nodes`, aligned with `nodes` — cache/lazy
  /// or precomputed, depending on the mode.
  std::vector<std::vector<float>> FetchRows(
      ModelState& state, const std::vector<std::int64_t>& nodes);
  /// The generation's full |V| x d embedding matrix (precomputed, or
  /// materialized on first fp32 TopK in lazy mode).
  const Matrix& FullEmbeddings(ModelState& state);
  /// Serves a batch's TopK requests, whose query rows are `queries`
  /// (row q for batch[q]), in one pass over the table: the fp32 scan,
  /// or the int8 scan with an exact rescore of each candidate pool
  /// (skipped when rescore_factor is 0 or the request is degraded).
  void ServeTopK(ModelState& state, const std::vector<Request*>& batch,
                 const Matrix& queries);

  const Graph* graph_;
  CsrMatrix adj_;
  ServeOptions options_;

  mutable Mutex mu_;
  /// Current generation; swapped under mu_ by ReloadCheckpoint. Requests
  /// pin their own shared_ptr copy at admission.
  std::shared_ptr<ModelState> state_ E2GCL_GUARDED_BY(mu_);
  CondVar queue_cv_ E2GCL_GUARDED_BY(mu_);  // wakes the flusher
  std::deque<std::unique_ptr<Request>> queue_ E2GCL_GUARDED_BY(mu_);
  bool shutdown_ E2GCL_GUARDED_BY(mu_) = false;
  /// Single-reload gate (kReloading for the losers of the race).
  std::atomic<bool> reload_in_flight_{false};
  std::thread flusher_;
};

}  // namespace e2gcl

#endif  // E2GCL_SERVE_EMBEDDING_SERVER_H_
