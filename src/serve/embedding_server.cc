#include "serve/embedding_server.h"

#include <algorithm>
#include <cmath>
#include <future>
#include <limits>
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

/// One table pass serves every TopK request of a batch.
void RecordTopKScan(std::int64_t queries) {
  if (!ObsEnabled()) return;
  static const Counter scans = Counter::Get("serve.topk.scans");
  static const Histogram queries_per_scan = Histogram::Get(
      "serve.topk.queries_per_scan", {1, 2, 4, 8, 16, 32, 64});
  scans.Increment();
  queries_per_scan.Record(queries);
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
  static const Counter invalid = Counter::Get("serve.rejected.invalid");
  switch (status) {
    case ServeStatus::kOverloaded: overloaded.Increment(); break;
    case ServeStatus::kDeadlineExceeded: deadline.Increment(); break;
    case ServeStatus::kShutdown: shutdown.Increment(); break;
    case ServeStatus::kInvalidArgument: invalid.Increment(); break;
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

/// Rows of the table scored per step of a TopK scan. The score buffer
/// is (TopK requests in the batch) x kSlabRows, whatever |V| is.
constexpr std::int64_t kSlabRows = 4096;

}  // namespace

TopKSelector::TopKSelector(std::int64_t k, std::int64_t exclude)
    : k_(k), exclude_(exclude) {
  E2GCL_CHECK(k >= 0);
  heap_.reserve(static_cast<std::size_t>(k));
}

bool TopKSelector::Before(const Entry& a, const Entry& b) {
  return a.key != b.key ? a.key > b.key : a.node < b.node;
}

void TopKSelector::Offer(float score, std::int64_t node) {
  if (node == exclude_ || k_ == 0) return;
  const Entry entry{
      std::isnan(score) ? -std::numeric_limits<float>::infinity() : score,
      score, node};
  if (static_cast<std::int64_t>(heap_.size()) < k_) {
    heap_.push_back(entry);
    std::push_heap(heap_.begin(), heap_.end(),
                   [](const Entry& a, const Entry& b) { return Before(a, b); });
    return;
  }
  if (!Before(entry, heap_.front())) return;
  // Replace the worst kept candidate: the newcomer sinks from the front
  // past every child that ranks after it.
  const std::size_t n = heap_.size();
  std::size_t i = 0;
  for (std::size_t c = 1; c < n; c = 2 * i + 1) {
    if (c + 1 < n && Before(heap_[c], heap_[c + 1])) ++c;  // the worse child
    if (!Before(entry, heap_[c])) break;
    heap_[i] = heap_[c];
    i = c;
  }
  heap_[i] = entry;
}

void TopKSelector::OfferRun(const float* scores, std::int64_t first,
                            std::int64_t count) {
  std::int64_t i = 0;
  for (; i < count && static_cast<std::int64_t>(heap_.size()) < k_; ++i) {
    Offer(scores[i], first + i);
  }
  if (i == count || k_ == 0) return;
  // Full: a candidate scoring below the worst kept one loses on one
  // compare. Ties and NaNs (whose compare is false) take Offer's path.
  float worst = heap_.front().key;
  for (; i < count; ++i) {
    if (scores[i] < worst) continue;
    Offer(scores[i], first + i);
    worst = heap_.front().key;
  }
}

TopKResult TopKSelector::Take() {
  std::sort_heap(heap_.begin(), heap_.end(),
                 [](const Entry& a, const Entry& b) { return Before(a, b); });
  TopKResult top;
  top.nodes.reserve(heap_.size());
  top.scores.reserve(heap_.size());
  for (const Entry& entry : heap_) {
    top.nodes.push_back(entry.node);
    top.scores.push_back(entry.score);
  }
  heap_.clear();
  return top;
}

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
  // Arguments may come off the wire: out of range is a typed rejection.
  const std::int64_t n = graph_->num_nodes;
  if (req->a < 0 || req->a >= n || req->b < 0 ||
      (req->kind == Request::Kind::kScore && req->b >= n)) {
    RecordRejected(ServeStatus::kInvalidArgument);
    return ServeStatus::kInvalidArgument;
  }
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
  std::vector<Request*> topk;
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
        topk.push_back(r.get());
        break;
    }
  }
  if (topk.empty()) return;
  Matrix queries(static_cast<std::int64_t>(topk.size()),
                 static_cast<std::int64_t>(rows.front().size()));
  for (std::size_t q = 0; q < topk.size(); ++q) {
    const std::vector<float>& row = row_of(topk[q]->a);
    std::copy(row.begin(), row.end(),
              queries.RowPtr(static_cast<std::int64_t>(q)));
  }
  ServeTopK(state, topk, queries);
}

void EmbeddingServer::ServeTopK(ModelState& state,
                                const std::vector<Request*>& batch,
                                const Matrix& queries) {
  TraceSpan span("serve_topk");
  // One pass over the table scores every query of the batch. The int8
  // table scores by exact integer dot plus one float rescale per row,
  // identical in every SIMD backend; the fp32 scan is GemmTransBRows,
  // whose every score is Dot(query, row) bit for bit. So a query's
  // scores, and its answer, do not depend on its batch-mates.
  const QuantizedEmbeddingTable& table = state.quantized;
  const bool quantized = !table.empty();
  const Matrix* z = quantized ? nullptr : &FullEmbeddings(state);
  const std::int64_t n = quantized ? table.rows() : z->rows();
  const std::int64_t d = queries.cols();
  const std::int64_t b = queries.rows();
  RecordTopKScan(b);
  std::vector<std::int8_t> codes;
  std::vector<float> query_scales;
  if (quantized) {
    codes.resize(static_cast<std::size_t>(b * d));
    std::vector<std::int8_t> one;
    for (std::int64_t q = 0; q < b; ++q) {
      query_scales.push_back(table.QuantizeQuery(queries.RowPtr(q), &one));
      std::copy(one.begin(), one.end(), codes.begin() + q * d);
    }
  }
  // The fp32 scan is exact. The int8 scan answers directly when the
  // rescore is off (rescore_factor == 0) or skipped under load (a
  // degraded request); otherwise it only picks k * rescore_factor
  // candidates.
  const auto rescored = [&](const Request* r) {
    return quantized && !r->degrade && options_.rescore_factor > 0;
  };
  const auto answer_size = [&](const Request* r) {
    return std::min<std::int64_t>(r->b, n - 1);
  };
  std::vector<TopKSelector> best;
  best.reserve(static_cast<std::size_t>(b));
  for (const Request* r : batch) {
    const std::int64_t k = answer_size(r);
    const std::int64_t f = options_.rescore_factor;
    // min(k * f, n - 1), without overflow for a huge factor.
    const std::int64_t keep =
        !rescored(r) ? k : (k > (n - 1) / f ? n - 1 : k * f);
    best.emplace_back(keep, r->a);
  }
  // Fixed slabs of rows bound the score buffer, and each query's
  // selector carries across them. A slab's row chunks are scored in
  // parallel, every score into its own slot: chunk c's b x rows block
  // starts at b * (its first row - s0).
  const std::int64_t grain = GrainForCost(d);
  std::vector<float> slab(
      static_cast<std::size_t>(b * std::min(kSlabRows, n)));
  for (std::int64_t s0 = 0; s0 < n; s0 += kSlabRows) {
    const std::int64_t s1 = std::min(n, s0 + kSlabRows);
    ParallelFor(s0, s1, grain, [&](std::int64_t rb, std::int64_t re) {
      float* out = slab.data() + b * (rb - s0);
      if (quantized) {
        table.ScoreRows(codes.data(), query_scales.data(), b, rb, re, out);
      } else {
        simd::GemmTransBRows(queries.data(), z->RowPtr(rb), out, 0, b, d,
                             re - rb);
      }
    });
    // ParallelFor's chunks start at s0, every `grain` rows.
    for (std::int64_t c0 = s0; c0 < s1; c0 += grain) {
      const std::int64_t rows = std::min(s1, c0 + grain) - c0;
      const float* chunk = slab.data() + b * (c0 - s0);
      for (std::int64_t q = 0; q < b; ++q) {
        best[static_cast<std::size_t>(q)].OfferRun(chunk + q * rows, c0,
                                                   rows);
      }
    }
  }
  for (std::int64_t q = 0; q < b; ++q) {
    Request* r = batch[static_cast<std::size_t>(q)];
    TopKResult top = best[static_cast<std::size_t>(q)].Take();
    if (!rescored(r)) {
      r->topk = std::move(top);
      if (r->degrade) {
        r->status = ServeStatus::kDegraded;
        RecordDegraded();
      }
      continue;
    }
    // Exact fp32 rescore of the candidate pool: fetch the candidates'
    // fp32 rows through the normal cache/precompute path (one
    // frontier-batched EncodeRows for the misses) and rank by exact dot
    // score. As long as the true top-k survives into the pool, the
    // result matches the fp32 scan exactly — rows, scores, and
    // tie-breaks.
    std::vector<std::int64_t> pool = std::move(top.nodes);
    std::sort(pool.begin(), pool.end());
    const std::vector<std::vector<float>> rows = FetchRows(state, pool);
    TopKSelector exact(answer_size(r), r->a);
    for (std::size_t i = 0; i < pool.size(); ++i) {
      exact.Offer(simd::Dot(queries.RowPtr(q), rows[i].data(), d), pool[i]);
    }
    r->topk = exact.Take();
  }
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
