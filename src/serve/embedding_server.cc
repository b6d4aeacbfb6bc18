#include "serve/embedding_server.h"

#include <algorithm>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "parallel/parallel_for.h"
#include "tensor/check.h"
#include "tensor/simd/simd.h"

namespace e2gcl {

namespace {

void RecordRequestMetrics(std::int64_t latency_us) {
  if (!ObsEnabled()) return;
  static const Counter requests = Counter::Get("serve.requests");
  static const Histogram latency = Histogram::Get(
      "serve.latency_us",
      {50, 100, 250, 500, 1000, 2500, 5000, 10000, 50000, 200000});
  requests.Increment();
  latency.Record(latency_us);
}

void RecordBatchMetrics(std::int64_t size) {
  if (!ObsEnabled()) return;
  static const Counter batches = Counter::Get("serve.batches");
  static const Histogram batch_size =
      Histogram::Get("serve.batch_size", {1, 2, 4, 8, 16, 32, 64, 128});
  batches.Increment();
  batch_size.Record(size);
}

void RecordCacheMetrics(std::int64_t hits, std::int64_t misses) {
  if (!ObsEnabled()) return;
  static const Counter hit_counter = Counter::Get("serve.cache.hits");
  static const Counter miss_counter = Counter::Get("serve.cache.misses");
  if (hits > 0) hit_counter.Add(static_cast<std::uint64_t>(hits));
  if (misses > 0) miss_counter.Add(static_cast<std::uint64_t>(misses));
}

void RecordCorruptDropped(std::uint64_t dropped) {
  if (!ObsEnabled() || dropped == 0) return;
  static const Counter corrupt =
      Counter::Get("serve.cache.corrupt_dropped");
  corrupt.Add(dropped);
}

void RecordRowsComputed(std::int64_t rows) {
  if (!ObsEnabled()) return;
  static const Counter computed = Counter::Get("serve.rows_computed");
  computed.Add(static_cast<std::uint64_t>(rows));
}

void UpdateQueueGauge(std::int64_t depth) {
  if (!ObsEnabled()) return;
  static const Gauge gauge = Gauge::Get("serve.queue_depth");
  gauge.Set(depth);
}

/// One counter per fail-fast rejection class (the load-shedding story
/// is only auditable if every shed request is counted somewhere).
void RecordRejected(ServeStatus status) {
  if (!ObsEnabled()) return;
  static const Counter overloaded =
      Counter::Get("serve.rejected.overloaded");
  static const Counter deadline = Counter::Get("serve.rejected.deadline");
  static const Counter shutdown = Counter::Get("serve.rejected.shutdown");
  switch (status) {
    case ServeStatus::kOverloaded: overloaded.Increment(); break;
    case ServeStatus::kDeadlineExceeded: deadline.Increment(); break;
    case ServeStatus::kShutdown: shutdown.Increment(); break;
    default: break;
  }
}

void RecordDegraded() {
  if (!ObsEnabled()) return;
  static const Counter degraded = Counter::Get("serve.degraded");
  degraded.Increment();
}

void RecordReload(ServeStatus status) {
  if (!ObsEnabled()) return;
  static const Counter success = Counter::Get("serve.reload.success");
  static const Counter failed = Counter::Get("serve.reload.failed");
  static const Counter rejected = Counter::Get("serve.reload.rejected");
  switch (status) {
    case ServeStatus::kOk: success.Increment(); break;
    case ServeStatus::kReloading: rejected.Increment(); break;
    default: failed.Increment(); break;
  }
}

void UpdateGenerationGauge(std::uint64_t gen) {
  if (!ObsEnabled()) return;
  static const Gauge gauge = Gauge::Get("serve.generation");
  gauge.Set(static_cast<std::int64_t>(gen));
}

/// The best `k` of `candidates` by (score desc, node id asc), where
/// `scores[node]` is a node's score. The order is total, so ties never
/// depend on scheduling or on the order of `candidates`.
TopKResult RankTopK(std::vector<std::int64_t> candidates,
                    const std::vector<float>& scores, std::int64_t k) {
  const auto score = [&](std::int64_t node) {
    return scores[static_cast<std::size_t>(node)];
  };
  k = std::min<std::int64_t>(k, static_cast<std::int64_t>(candidates.size()));
  std::partial_sort(candidates.begin(), candidates.begin() + k,
                    candidates.end(), [&](std::int64_t x, std::int64_t y) {
                      const float sx = score(x);
                      const float sy = score(y);
                      return sx != sy ? sx > sy : x < y;
                    });
  TopKResult top;
  top.nodes.assign(candidates.begin(), candidates.begin() + k);
  top.scores.reserve(top.nodes.size());
  for (const std::int64_t node : top.nodes) top.scores.push_back(score(node));
  return top;
}

}  // namespace

struct EmbeddingServer::Request {
  enum class Kind { kEmbedding, kScore, kTopK };
  Kind kind = Kind::kEmbedding;
  /// kEmbedding/kTopK: the query node. kScore: u.
  std::int64_t a = 0;
  /// kScore: v. kTopK: k.
  std::int64_t b = 0;
  /// The model generation this request was admitted under (pinned: a
  /// concurrent reload cannot change the model mid-request).
  std::shared_ptr<ModelState> state;
  std::vector<float> row;
  float score = 0.0f;
  TopKResult topk;
  /// Written by the flusher OUTSIDE mu_ while serving (the flusher is
  /// the only writer before `done`); promoted into `status` under mu_.
  ServeStatus result_status = ServeStatus::kOk;
  /// Final caller-visible status. Only ever written under mu_: by the
  /// flusher when it completes/expires the request, or by the caller
  /// when it abandons at its deadline.
  ServeStatus status = ServeStatus::kOk;
  /// Serve this TopK request from the approximate scan (load shedding).
  bool degrade = false;
  /// Written under mu_ after the results above; readers observe the
  /// results through the same lock (release/acquire on mu_).
  bool done = false;
  /// The caller gave up at its deadline and will never read the result.
  bool abandoned = false;
  bool has_deadline = false;
  std::chrono::steady_clock::time_point deadline;
  std::chrono::steady_clock::time_point enqueue;
};

std::unique_ptr<EmbeddingServer> EmbeddingServer::Load(
    const Graph& graph, const std::string& path, const ServeOptions& options,
    std::string* error) {
  TrainerCheckpoint ckpt;
  std::string why;
  if (!LoadTrainerCheckpoint(path, &ckpt, &why)) {
    if (error != nullptr) *error = "checkpoint " + path + " " + why;
    return nullptr;
  }
  return FromCheckpoint(graph, ckpt, options, error);
}

std::unique_ptr<EmbeddingServer> EmbeddingServer::FromCheckpoint(
    const Graph& graph, const TrainerCheckpoint& ckpt,
    const ServeOptions& options, std::string* error) {
  std::shared_ptr<ModelState> state =
      BuildModelState(graph, ckpt, options, /*generation=*/1, error);
  if (state == nullptr) return nullptr;
  return std::make_unique<EmbeddingServer>(graph, std::move(state), options);
}

EmbeddingServer::EmbeddingServer(const Graph& graph,
                                 std::shared_ptr<ModelState> state,
                                 const ServeOptions& options)
    : graph_(&graph),
      adj_(NormalizedAdjacency(graph)),
      options_(options),
      state_(std::move(state)) {
  E2GCL_CHECK(options_.max_batch >= 1);
  E2GCL_CHECK(options_.batch_deadline_us >= 0);
  E2GCL_CHECK(options_.batch_gap_us >= 0);
  E2GCL_CHECK(options_.rescore_factor >= 0);
  E2GCL_CHECK(options_.max_queue_depth >= 1);
  E2GCL_CHECK(options_.degrade_watermark >= 0);
  E2GCL_CHECK(state_ != nullptr && state_->encoder != nullptr);
  UpdateGenerationGauge(state_->generation);
  // Started last: everything above happens-before the flusher's first
  // instruction via the thread launch.
  flusher_ = std::thread([this] { FlusherLoop(); });
}

EmbeddingServer::~EmbeddingServer() {
  BeginShutdown();
  if (flusher_.joinable()) flusher_.join();
}

void EmbeddingServer::BeginShutdown() {
  MutexLock lock(mu_);
  shutdown_ = true;
  // Notified under the lock (project convention): wait-morphing keeps
  // this cheap and the thread-safety analysis can pair the notify with
  // the guarded shutdown_ write.
  queue_cv_.NotifyAll();
}

// --- Status-typed API. -----------------------------------------------------

EmbeddingResponse EmbeddingServer::GetEmbedding(
    std::int64_t node, const ServeRequestOptions& request) {
  E2GCL_CHECK_MSG(node >= 0 && node < graph_->num_nodes,
                  "GetEmbedding: node %lld out of range",
                  static_cast<long long>(node));
  auto req = std::make_shared<Request>();
  req->kind = Request::Kind::kEmbedding;
  req->a = node;
  EmbeddingResponse response;
  response.status = Submit(req, request);
  response.generation = req->state != nullptr ? req->state->generation : 0;
  if (response.served()) response.row = std::move(req->row);
  return response;
}

ScoreResponse EmbeddingServer::ScoreLink(std::int64_t u, std::int64_t v,
                                         const ServeRequestOptions& request) {
  E2GCL_CHECK_MSG(u >= 0 && u < graph_->num_nodes && v >= 0 &&
                      v < graph_->num_nodes,
                  "ScoreLink: node pair (%lld, %lld) out of range",
                  static_cast<long long>(u), static_cast<long long>(v));
  auto req = std::make_shared<Request>();
  req->kind = Request::Kind::kScore;
  req->a = u;
  req->b = v;
  ScoreResponse response;
  response.status = Submit(req, request);
  response.generation = req->state != nullptr ? req->state->generation : 0;
  if (response.served()) response.score = req->score;
  return response;
}

TopKResponse EmbeddingServer::TopKSimilar(std::int64_t node, std::int64_t k,
                                          const ServeRequestOptions& request) {
  E2GCL_CHECK_MSG(node >= 0 && node < graph_->num_nodes,
                  "TopKSimilar: node %lld out of range",
                  static_cast<long long>(node));
  E2GCL_CHECK(k >= 0);
  auto req = std::make_shared<Request>();
  req->kind = Request::Kind::kTopK;
  req->a = node;
  req->b = k;
  TopKResponse response;
  response.status = Submit(req, request);
  response.generation = req->state != nullptr ? req->state->generation : 0;
  if (response.served()) response.result = std::move(req->topk);
  return response;
}

// --- Hot reload. -----------------------------------------------------------

ServeStatus EmbeddingServer::ReloadCheckpoint(const TrainerCheckpoint& ckpt,
                                              std::string* error) {
  TraceSpan span("serve_reload");
  bool expected = false;
  if (!reload_in_flight_.compare_exchange_strong(expected, true)) {
    if (error != nullptr) *error = "another checkpoint reload is in flight";
    RecordReload(ServeStatus::kReloading);
    return ServeStatus::kReloading;
  }
  std::uint64_t next_generation = 0;
  {
    MutexLock lock(mu_);
    if (shutdown_) {
      if (error != nullptr) *error = "server is shutting down";
      reload_in_flight_.store(false);
      return ServeStatus::kShutdown;
    }
    next_generation = state_->generation + 1;
  }
  // The expensive part — validation + full rebuild of encoder, cache,
  // precompute/quantized tables — runs on the reloading thread with no
  // server lock held: queries keep flowing against the old generation.
  std::string why;
  std::shared_ptr<ModelState> fresh =
      BuildModelState(*graph_, ckpt, options_, next_generation, &why);
  if (fresh == nullptr) {
    if (error != nullptr) *error = why;
    RecordReload(ServeStatus::kInvalidArgument);
    reload_in_flight_.store(false);
    return ServeStatus::kInvalidArgument;
  }
  if (options_.fault_injector.before_reload_swap) {
    options_.fault_injector.before_reload_swap(next_generation);
  }
  {
    // RCU swap: requests admitted before this line hold their own
    // shared_ptr to the old generation and finish on it; requests
    // admitted after see only the new one. Nothing is ever torn.
    MutexLock lock(mu_);
    state_ = std::move(fresh);
  }
  UpdateGenerationGauge(next_generation);
  RecordReload(ServeStatus::kOk);
  reload_in_flight_.store(false);
  return ServeStatus::kOk;
}

ServeStatus EmbeddingServer::ReloadFromFile(const std::string& path,
                                            std::string* error) {
  TrainerCheckpoint ckpt;
  std::string why;
  if (!LoadTrainerCheckpoint(path, &ckpt, &why)) {
    if (error != nullptr) *error = "checkpoint " + path + " " + why;
    RecordReload(ServeStatus::kInvalidArgument);
    return ServeStatus::kInvalidArgument;
  }
  return ReloadCheckpoint(ckpt, error);
}

// --- Introspection. --------------------------------------------------------

std::int64_t EmbeddingServer::embed_dim() const {
  MutexLock lock(mu_);
  return state_->encoder->config().dims.back();
}

std::uint64_t EmbeddingServer::generation() const {
  MutexLock lock(mu_);
  return state_->generation;
}

std::shared_ptr<const ModelState> EmbeddingServer::state() const {
  MutexLock lock(mu_);
  return state_;
}

std::int64_t EmbeddingServer::queue_depth() const {
  MutexLock lock(mu_);
  return static_cast<std::int64_t>(queue_.size());
}

const ShardedRowCache* EmbeddingServer::cache() const {
  MutexLock lock(mu_);
  return state_->cache.get();
}

const QuantizedEmbeddingTable& EmbeddingServer::quantized() const {
  MutexLock lock(mu_);
  return state_->quantized;
}

// --- Queue plumbing. -------------------------------------------------------

ServeStatus EmbeddingServer::Submit(const std::shared_ptr<Request>& req,
                                    const ServeRequestOptions& request) {
  TraceSpan span("serve_request");
  const auto t0 = std::chrono::steady_clock::now();
  ServeStatus status = ServeStatus::kOk;
  {
    MutexLock lock(mu_);
    if (shutdown_) {
      RecordRejected(ServeStatus::kShutdown);
      return ServeStatus::kShutdown;
    }
    if (static_cast<std::int64_t>(queue_.size()) >=
        options_.max_queue_depth) {
      // Admission control: shed the request instead of growing an
      // unbounded queue behind a slow flusher.
      RecordRejected(ServeStatus::kOverloaded);
      return ServeStatus::kOverloaded;
    }
    // Pin the generation at admission: a reload swapping state_ after
    // this line does not affect this request.
    req->state = state_;
    if (req->kind == Request::Kind::kTopK && request.allow_degraded &&
        options_.degrade_watermark > 0 && !req->state->quantized.empty() &&
        static_cast<std::int64_t>(queue_.size()) >=
            options_.degrade_watermark) {
      req->degrade = true;
    }
    req->enqueue = t0;
    if (request.deadline_us > 0) {
      req->has_deadline = true;
      req->deadline = t0 + std::chrono::microseconds(request.deadline_us);
    }
    queue_.push_back(req);
    UpdateQueueGauge(static_cast<std::int64_t>(queue_.size()));
    queue_cv_.NotifyOne();
    if (req->has_deadline) {
      while (!req->done) {
        if (done_cv_.WaitUntil(lock, req->deadline) ==
                std::cv_status::timeout &&
            !req->done) {
          // Deadline expired with the request still unserved (queued or
          // mid-batch): release the caller NOW. The flusher discards the
          // request when it reaches it; the shared_ptr keeps it alive.
          req->abandoned = true;
          req->status = ServeStatus::kDeadlineExceeded;
          RecordRejected(ServeStatus::kDeadlineExceeded);
          return ServeStatus::kDeadlineExceeded;
        }
      }
    } else {
      while (!req->done) done_cv_.Wait(lock);
    }
    status = req->status;
  }
  RecordRequestMetrics(std::chrono::duration_cast<std::chrono::microseconds>(
                           std::chrono::steady_clock::now() - t0)
                           .count());
  return status;
}

void EmbeddingServer::FlusherLoop() {
  MutexLock lock(mu_);
  for (;;) {
    while (!shutdown_ && queue_.empty()) queue_cv_.Wait(lock);
    if (queue_.empty()) {
      if (shutdown_) return;
      continue;
    }
    // Micro-batching: keep collecting until the batch is full, but never
    // hold the oldest request past its deadline. With the default greedy
    // gap (batch_gap_us == 0) an idle flusher ships whatever is queued
    // right away — batches still form under load because requests pile
    // up while the previous batch is served. A positive gap lets the
    // flusher linger that long for stragglers, deadline-capped. A
    // shutdown flushes whatever is queued immediately.
    if (options_.batch_gap_us > 0 && !shutdown_) {
      const auto deadline =
          queue_.front()->enqueue +
          std::chrono::microseconds(options_.batch_deadline_us);
      const auto linger = std::min(
          deadline, std::chrono::steady_clock::now() +
                        std::chrono::microseconds(options_.batch_gap_us));
      while (!shutdown_ &&
             static_cast<std::int64_t>(queue_.size()) < options_.max_batch &&
             queue_cv_.WaitUntil(lock, linger) != std::cv_status::timeout) {
      }
    }
    bool expired_any = false;
    std::vector<std::shared_ptr<Request>> batch = PopBatchLocked(&expired_any);
    UpdateQueueGauge(static_cast<std::int64_t>(queue_.size()));
    if (expired_any) done_cv_.NotifyAll();
    if (batch.empty()) continue;
    // The batch is served with mu_ dropped — compute never blocks
    // admission, introspection, or reload swaps. The fault hook below
    // likewise runs unlocked (hold-lock-across-callback contract).
    lock.Unlock();
    if (options_.fault_injector.stall_batch) {
      options_.fault_injector.stall_batch(
          static_cast<std::int64_t>(batch.size()));
    }
    ProcessBatch(batch);
    lock.Lock();
    for (const auto& r : batch) {
      if (!r->abandoned) r->status = r->result_status;
      r->done = true;
    }
    done_cv_.NotifyAll();
  }
}

std::vector<std::shared_ptr<EmbeddingServer::Request>>
EmbeddingServer::PopBatchLocked(bool* expired_any) E2GCL_REQUIRES(mu_) {
  // Pop a batch: skip abandoned requests, fail already-expired ones
  // fast (their compute would be wasted — the caller is gone or about
  // to give up), and stop at a generation boundary so one batch never
  // mixes models (each batch computes rows with exactly one encoder).
  std::vector<std::shared_ptr<Request>> batch;
  const auto now = std::chrono::steady_clock::now();
  *expired_any = false;
  while (static_cast<std::int64_t>(batch.size()) < options_.max_batch &&
         !queue_.empty()) {
    std::shared_ptr<Request>& front = queue_.front();
    if (front->abandoned) {
      front->done = true;
      queue_.pop_front();
      continue;
    }
    if (front->has_deadline && now >= front->deadline) {
      front->status = ServeStatus::kDeadlineExceeded;
      front->done = true;
      RecordRejected(ServeStatus::kDeadlineExceeded);
      *expired_any = true;
      queue_.pop_front();
      continue;
    }
    if (!batch.empty() && front->state.get() != batch.front()->state.get()) {
      break;
    }
    batch.push_back(std::move(front));
    queue_.pop_front();
  }
  return batch;
}

void EmbeddingServer::ProcessBatch(
    const std::vector<std::shared_ptr<Request>>& batch) {
  TraceSpan span("serve_batch");
  RecordBatchMetrics(static_cast<std::int64_t>(batch.size()));
  // Every request in the batch shares one pinned generation.
  ModelState& state = *batch.front()->state;
  // One frontier-batched row fetch covers every node the batch touches.
  std::vector<std::int64_t> needed;
  needed.reserve(batch.size() * 2);
  for (const auto& r : batch) {
    needed.push_back(r->a);
    if (r->kind == Request::Kind::kScore) needed.push_back(r->b);
  }
  std::sort(needed.begin(), needed.end());
  needed.erase(std::unique(needed.begin(), needed.end()), needed.end());
  const std::vector<std::vector<float>> rows = FetchRows(state, needed);
  const auto row_of = [&](std::int64_t node) -> const std::vector<float>& {
    const auto it = std::lower_bound(needed.begin(), needed.end(), node);
    return rows[static_cast<std::size_t>(it - needed.begin())];
  };
  for (const auto& r : batch) {
    switch (r->kind) {
      case Request::Kind::kEmbedding:
        r->row = row_of(r->a);
        break;
      case Request::Kind::kScore: {
        const std::vector<float>& u = row_of(r->a);
        const std::vector<float>& v = row_of(r->b);
        r->score = simd::Dot(u.data(), v.data(),
                             static_cast<std::int64_t>(u.size()));
        break;
      }
      case Request::Kind::kTopK:
        ServeTopK(state, r.get(), row_of(r->a));
        break;
    }
  }
}

void EmbeddingServer::ServeTopK(ModelState& state, Request* req,
                                const std::vector<float>& query) {
  TraceSpan span("serve_topk");
  // Scan: one score per node, written to its own slot (deterministic at
  // any thread count). The int8 table scores by exact integer dot plus
  // one float rescale per row, identical in every SIMD backend.
  const bool quantized = !state.quantized.empty();
  std::vector<float> scores;
  if (quantized) {
    std::vector<std::int8_t> qcodes;
    const float qscale = state.quantized.QuantizeQuery(query.data(), &qcodes);
    state.quantized.ScoreAll(qcodes.data(), qscale, &scores);
  } else {
    const Matrix& z = FullEmbeddings(state);
    scores.resize(static_cast<std::size_t>(z.rows()));
    ParallelFor(0, z.rows(), GrainForCost(z.cols()),
                [&](std::int64_t rb, std::int64_t re) {
                  for (std::int64_t i = rb; i < re; ++i) {
                    scores[static_cast<std::size_t>(i)] =
                        simd::Dot(query.data(), z.RowPtr(i), z.cols());
                  }
                });
  }
  const std::int64_t n = static_cast<std::int64_t>(scores.size());
  std::vector<std::int64_t> others;
  others.reserve(scores.size());
  for (std::int64_t i = 0; i < n; ++i) {
    if (i != req->a) others.push_back(i);
  }
  // Clamped here, not only in RankTopK, so the pool size below cannot
  // overflow for a huge requested k.
  const std::int64_t k = std::min<std::int64_t>(req->b, n - 1);
  // The fp32 scan is exact. The int8 scan answers directly when the
  // rescore is off (rescore_factor == 0) or skipped under load (a
  // degraded request); otherwise it only picks k * rescore_factor
  // candidates.
  if (!quantized || req->degrade || options_.rescore_factor == 0) {
    req->topk = RankTopK(std::move(others), scores, k);
    if (req->degrade) {
      req->result_status = ServeStatus::kDegraded;
      RecordDegraded();
    }
    return;
  }
  // Exact fp32 rescore of the candidate pool: fetch the candidates' fp32
  // rows through the normal cache/precompute path (one frontier-batched
  // EncodeRows for the misses) and rank by exact dot score. As long as
  // the true top-k survives into the pool, the result matches the fp32
  // scan exactly — rows, scores, and tie-breaks.
  std::vector<std::int64_t> pool =
      RankTopK(std::move(others), scores, k * options_.rescore_factor).nodes;
  std::sort(pool.begin(), pool.end());
  const std::vector<std::vector<float>> rows = FetchRows(state, pool);
  for (std::size_t i = 0; i < pool.size(); ++i) {
    scores[static_cast<std::size_t>(pool[i])] =
        simd::Dot(query.data(), rows[i].data(),
                  static_cast<std::int64_t>(rows[i].size()));
  }
  req->topk = RankTopK(std::move(pool), scores, k);
}

std::vector<std::vector<float>> EmbeddingServer::FetchRows(
    ModelState& state, const std::vector<std::int64_t>& nodes) {
  std::vector<std::vector<float>> rows(nodes.size());
  if (options_.precompute) {
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      const float* r = state.full.RowPtr(nodes[i]);
      rows[i].assign(r, r + state.full.cols());
    }
    return rows;
  }
  ShardedRowCache& cache = *state.cache;
  const std::uint64_t corrupt_before = cache.corrupt_dropped();
  std::vector<std::int64_t> missing;
  std::vector<std::size_t> missing_slot;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (!cache.Get(nodes[i], &rows[i])) {
      missing.push_back(nodes[i]);
      missing_slot.push_back(i);
    }
  }
  RecordCacheMetrics(
      static_cast<std::int64_t>(nodes.size() - missing.size()),
      static_cast<std::int64_t>(missing.size()));
  RecordCorruptDropped(cache.corrupt_dropped() - corrupt_before);
  if (!missing.empty()) {
    // `missing` is sorted (nodes is), so one EncodeRows call computes all
    // cold rows over a single shared frontier.
    const Matrix computed =
        state.encoder->EncodeRows(adj_, graph_->features, missing);
    RecordRowsComputed(static_cast<std::int64_t>(missing.size()));
    for (std::size_t j = 0; j < missing.size(); ++j) {
      const float* r = computed.RowPtr(static_cast<std::int64_t>(j));
      rows[missing_slot[j]].assign(r, r + computed.cols());
      cache.Put(missing[j], rows[missing_slot[j]]);
      if (options_.fault_injector.corrupt_row_after_put &&
          options_.fault_injector.corrupt_row_after_put(missing[j])) {
        cache.CorruptEntryForTest(missing[j]);
      }
    }
  }
  return rows;
}

const Matrix& EmbeddingServer::FullEmbeddings(ModelState& state) {
  // Precomputed at generation build time, or materialized by the
  // flusher on the first fp32 TopK; only the flusher thread reaches
  // this path afterwards, so no lock is needed.
  if (state.full.rows() == 0) {
    state.full = state.encoder->Encode(*graph_);
  }
  return state.full;
}

}  // namespace e2gcl
