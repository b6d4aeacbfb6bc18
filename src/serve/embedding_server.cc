#include "serve/embedding_server.h"

#include <algorithm>
#include <future>
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
      "serve.latency_us", {2, 5, 10, 20, 50, 100, 250, 500, 1000, 2500, 5000,
                           10000, 50000, 200000});
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
  using Clock = std::chrono::steady_clock;
  enum class Kind { kEmbedding, kScore, kTopK };

  Request(Kind kind, std::int64_t a, std::int64_t b,
          const ServeRequestOptions& options)
      : kind(kind),
        a(a),
        b(b),
        allow_degraded(options.allow_degraded),
        enqueue(Clock::now()) {
    // deadline_us may come off the wire unbounded: one beyond the
    // clock's range is no deadline, not an overflow.
    const std::int64_t range_us =
        std::chrono::duration_cast<std::chrono::microseconds>(
            Clock::time_point::max() - enqueue)
            .count();
    if (options.deadline_us > 0 && options.deadline_us < range_us) {
      deadline = enqueue + std::chrono::microseconds(options.deadline_us);
    }
  }

  void MoveResultTo(EmbeddingResponse* out) { out->row = std::move(row); }
  void MoveResultTo(ScoreResponse* out) { out->score = score; }
  void MoveResultTo(TopKResponse* out) { out->result = std::move(topk); }

  /// Runs on the flusher with no lock held. The flusher owns the
  /// deadline: a request answered after it completes kDeadlineExceeded,
  /// the status its blocking caller has already left with, and is
  /// counted here, once.
  void Complete() {
    const Clock::time_point now = Clock::now();
    if (now >= deadline) status = ServeStatus::kDeadlineExceeded;
    RecordRejected(status);
    RecordRequestMetrics(
        std::chrono::duration_cast<std::chrono::microseconds>(now - enqueue)
            .count());
    done(*this);
  }

  Kind kind;
  /// kEmbedding/kTopK: the query node. kScore: u.
  std::int64_t a = 0;
  /// kScore: v. kTopK: k.
  std::int64_t b = 0;
  bool allow_degraded = true;
  Clock::time_point enqueue;
  /// time_point::max() when the request has no deadline.
  Clock::time_point deadline = Clock::time_point::max();
  /// The model generation this request was admitted under (pinned: a
  /// concurrent reload cannot change the model mid-request).
  std::shared_ptr<ModelState> state;
  /// Serve this TopK request from the approximate scan (load shedding).
  bool degrade = false;
  /// Written only by the flusher, before `done` runs.
  ServeStatus status = ServeStatus::kOk;
  std::vector<float> row;
  float score = 0.0f;
  TopKResult topk;
  /// Hands the response on; see Submit.
  std::function<void(Request&)> done;
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
  return Await<EmbeddingResponse>(
      std::make_unique<Request>(Request::Kind::kEmbedding, node, 0, request));
}

ServeStatus EmbeddingServer::GetEmbedding(
    std::int64_t node, const ServeRequestOptions& request,
    std::function<void(EmbeddingResponse)> done) {
  return Submit(
      std::make_unique<Request>(Request::Kind::kEmbedding, node, 0, request),
      std::move(done));
}

ScoreResponse EmbeddingServer::ScoreLink(std::int64_t u, std::int64_t v,
                                         const ServeRequestOptions& request) {
  return Await<ScoreResponse>(
      std::make_unique<Request>(Request::Kind::kScore, u, v, request));
}

ServeStatus EmbeddingServer::ScoreLink(
    std::int64_t u, std::int64_t v, const ServeRequestOptions& request,
    std::function<void(ScoreResponse)> done) {
  return Submit(
      std::make_unique<Request>(Request::Kind::kScore, u, v, request),
      std::move(done));
}

TopKResponse EmbeddingServer::TopKSimilar(std::int64_t node, std::int64_t k,
                                          const ServeRequestOptions& request) {
  return Await<TopKResponse>(
      std::make_unique<Request>(Request::Kind::kTopK, node, k, request));
}

ServeStatus EmbeddingServer::TopKSimilar(
    std::int64_t node, std::int64_t k, const ServeRequestOptions& request,
    std::function<void(TopKResponse)> done) {
  return Submit(
      std::make_unique<Request>(Request::Kind::kTopK, node, k, request),
      std::move(done));
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

template <typename Response>
ServeStatus EmbeddingServer::Submit(std::unique_ptr<Request> req,
                                    std::function<void(Response)> done,
                                    std::uint64_t* generation) {
  // NetServer validates remote arguments before they get here.
  const std::int64_t n = graph_->num_nodes;
  E2GCL_CHECK_MSG(req->a >= 0 && req->a < n && req->b >= 0 &&
                      (req->kind != Request::Kind::kScore || req->b < n),
                  "query arguments (%lld, %lld) out of range",
                  static_cast<long long>(req->a),
                  static_cast<long long>(req->b));
  req->done = [done = std::move(done)](Request& r) {
    Response response;
    response.status = r.status;
    response.generation = r.state->generation;
    if (response.served()) r.MoveResultTo(&response);
    done(std::move(response));
  };
  MutexLock lock(mu_);
  if (shutdown_) {
    RecordRejected(ServeStatus::kShutdown);
    return ServeStatus::kShutdown;
  }
  if (static_cast<std::int64_t>(queue_.size()) >= options_.max_queue_depth) {
    // Admission control: shed the request instead of growing an
    // unbounded queue behind a slow flusher.
    RecordRejected(ServeStatus::kOverloaded);
    return ServeStatus::kOverloaded;
  }
  // Pin the generation at admission: a reload swapping state_ after
  // this line does not affect this request.
  req->state = state_;
  if (generation != nullptr) *generation = state_->generation;
  req->degrade = req->kind == Request::Kind::kTopK && req->allow_degraded &&
                 options_.degrade_watermark > 0 &&
                 !req->state->quantized.empty() &&
                 static_cast<std::int64_t>(queue_.size()) >=
                     options_.degrade_watermark;
  queue_.push_back(std::move(req));
  UpdateQueueGauge(static_cast<std::int64_t>(queue_.size()));
  queue_cv_.NotifyOne();
  return ServeStatus::kOk;
}

template <typename Response>
Response EmbeddingServer::Await(std::unique_ptr<Request> req) {
  TraceSpan span("serve_request");
  const Request::Clock::time_point deadline = req->deadline;
  auto answer = std::make_shared<std::promise<Response>>();
  std::future<Response> future = answer->get_future();
  std::uint64_t generation = 0;
  Response response;
  response.status = Submit<Response>(
      std::move(req), [answer](Response r) { answer->set_value(std::move(r)); },
      &generation);
  if (response.status != ServeStatus::kOk) return response;
  if (deadline == Request::Clock::time_point::max() ||
      future.wait_until(deadline) == std::future_status::ready) {
    return future.get();
  }
  // Released at the deadline with the request still queued or mid-batch.
  // The flusher completes it kDeadlineExceeded, and counts it, when it
  // gets there.
  response.status = ServeStatus::kDeadlineExceeded;
  response.generation = generation;
  return response;
}

void EmbeddingServer::FlusherLoop() {
  MutexLock lock(mu_);
  for (;;) {
    while (!shutdown_ && queue_.empty()) queue_cv_.Wait(lock);
    if (queue_.empty()) return;  // shut down and drained
    // Greedy micro-batching: whatever is queued ships now. Batches still
    // form under load because requests pile up while the previous batch
    // is served.
    std::vector<std::unique_ptr<Request>> expired;
    std::vector<std::unique_ptr<Request>> batch = PopBatchLocked(&expired);
    UpdateQueueGauge(static_cast<std::int64_t>(queue_.size()));
    // Compute and completions run with mu_ dropped: they never block
    // admission, introspection, or reload swaps, and the callbacks and
    // the fault hook run unlocked (hold-lock-across-callback contract).
    lock.Unlock();
    for (const auto& r : expired) r->Complete();
    if (!batch.empty()) {
      if (options_.fault_injector.stall_batch) {
        options_.fault_injector.stall_batch(
            static_cast<std::int64_t>(batch.size()));
      }
      ProcessBatch(batch);
      for (const auto& r : batch) r->Complete();
    }
    // Freed unlocked too: a request may hold the last reference to its
    // callback's state or to a replaced generation.
    expired.clear();
    batch.clear();
    lock.Lock();
  }
}

std::vector<std::unique_ptr<EmbeddingServer::Request>>
EmbeddingServer::PopBatchLocked(std::vector<std::unique_ptr<Request>>* expired)
    E2GCL_REQUIRES(mu_) {
  // Pop a batch: set aside already-expired requests (their compute would
  // be wasted: the caller is gone or about to give up), and stop at a
  // generation boundary so one batch never mixes models (each batch
  // computes rows with exactly one encoder).
  std::vector<std::unique_ptr<Request>> batch;
  const auto now = std::chrono::steady_clock::now();
  while (static_cast<std::int64_t>(batch.size()) < options_.max_batch &&
         !queue_.empty()) {
    std::unique_ptr<Request>& front = queue_.front();
    if (now >= front->deadline) {
      expired->push_back(std::move(front));
    } else if (!batch.empty() && front->state != batch.front()->state) {
      break;
    } else {
      batch.push_back(std::move(front));
    }
    queue_.pop_front();
  }
  return batch;
}

void EmbeddingServer::ProcessBatch(
    const std::vector<std::unique_ptr<Request>>& batch) {
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
      req->status = ServeStatus::kDegraded;
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
