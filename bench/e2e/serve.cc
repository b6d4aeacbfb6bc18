// Serving workloads (serve-lookup, serve-topk) and the traced ledger of
// the serving and network layers.
//
// Serving runs closed-loop: kConnections callers, each sending its next
// request only after the previous reply arrives. An open-loop generator
// on a few shared cores measures the scheduler's timer wake-ups more
// than the server, so it is not used here.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/trainer.h"
#include "e2e.h"
#include "io/checkpoint.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "serve/embedding_server.h"

namespace e2gcl {
namespace e2e {
namespace {

constexpr std::int64_t kTopK = 10;
/// Every 16th TopK answer of a caller, up to 64 of them, is checked
/// against an exact double-precision scan after the phase (each scan
/// costs more than the request it checks).
constexpr int kTopKCheckEvery = 16;
constexpr std::size_t kTopKChecksPerCaller = 64;
/// Tolerance of score checks, relative to |u| |v| (which bounds the sum
/// of |u_i v_i| that float rounding error scales with).
constexpr double kScoreTol = 1e-5;

enum class Mix {
  kLookup,  // GetEmbedding : ScoreLink at 3 : 1
  kTopK,    // TopKSimilar, k = 10
};

Mix MixOf(const Options& opt) {
  return opt.workload->kind == Kind::kServeTopK ? Mix::kTopK : Mix::kLookup;
}

/// Reference answers: the rows of GcnEncoder::Encode, which served rows
/// must equal byte for byte (the serving determinism contract).
struct Reference {
  explicit Reference(Matrix rows) : z(std::move(rows)) {
    for (std::int64_t i = 0; i < z.rows(); ++i) {
      norms.push_back(std::sqrt(Dot(i, i)));
    }
  }
  double Dot(std::int64_t u, std::int64_t v) const {
    double s = 0.0;
    for (std::int64_t j = 0; j < z.cols(); ++j) {
      s += static_cast<double>(z(u, j)) * z(v, j);
    }
    return s;
  }
  double Tol(std::int64_t u, std::int64_t v) const {
    return kScoreTol * norms[u] * norms[v];
  }

  Matrix z;
  std::vector<double> norms;
};

std::string Describe(const char* what, std::int64_t node, ServeStatus s) {
  return std::string(what) + " node " + std::to_string(node) + ": " +
         ServeStatusName(s);
}

std::string CheckEmbedding(const EmbeddingResponse& r, std::int64_t node,
                           const Reference& ref) {
  if (r.status != ServeStatus::kOk) {
    return Describe("embedding", node, r.status);
  }
  const std::size_t bytes = static_cast<std::size_t>(ref.z.cols()) * 4;
  if (r.row.size() * 4 != bytes ||
      std::memcmp(r.row.data(), ref.z.RowPtr(node), bytes) != 0) {
    return "embedding node " + std::to_string(node) +
           ": row differs from GcnEncoder::Encode";
  }
  return "";
}

std::string CheckScore(const ScoreResponse& r, std::int64_t u, std::int64_t v,
                       const Reference& ref) {
  if (r.status != ServeStatus::kOk) return Describe("score", u, r.status);
  if (std::abs(r.score - ref.Dot(u, v)) > ref.Tol(u, v)) {
    return "score (" + std::to_string(u) + ", " + std::to_string(v) +
           ") off the double-precision dot product";
  }
  return "";
}

std::string CheckTopKShape(const TopKResponse& r, std::int64_t node,
                           std::int64_t n) {
  if (r.status != ServeStatus::kOk) return Describe("topk", node, r.status);
  const auto want = static_cast<std::size_t>(std::min(kTopK, n - 1));
  if (r.result.nodes.size() != want || r.result.scores.size() != want) {
    return "topk node " + std::to_string(node) + ": wrong result size";
  }
  return "";
}

/// A valid exact top-k under (score desc, id asc): distinct in-range ids
/// other than the query, reported scores in that order, and every id's
/// exact score at or above the exact k-th best score.
std::string CheckTopKExact(std::int64_t q, const TopKResult& r,
                           const Reference& ref) {
  const std::int64_t n = ref.z.rows();
  std::vector<double> exact;
  exact.reserve(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    if (i != q) exact.push_back(ref.Dot(q, i));
  }
  const auto k = static_cast<std::ptrdiff_t>(r.nodes.size());
  std::nth_element(exact.begin(), exact.begin() + (k - 1), exact.end(),
                   std::greater<double>());
  const double kth = exact[static_cast<std::size_t>(k - 1)];
  std::vector<std::int64_t> seen;
  for (std::ptrdiff_t i = 0; i < k; ++i) {
    const std::int64_t id = r.nodes[i];
    const bool ordered =
        i == 0 || r.scores[i] < r.scores[i - 1] ||
        (r.scores[i] == r.scores[i - 1] && id > r.nodes[i - 1]);
    if (id < 0 || id >= n || id == q || !ordered ||
        std::find(seen.begin(), seen.end(), id) != seen.end() ||
        ref.Dot(q, id) < kth - ref.Tol(q, id)) {
      return "topk node " + std::to_string(q) + ": not a valid exact top-" +
             std::to_string(k);
    }
    seen.push_back(id);
  }
  return "";
}

/// What one closed-loop caller saw.
struct CallerStats {
  LatencyHistogram latency;
  std::int64_t measured = 0;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> failures;
  std::vector<std::pair<std::int64_t, TopKResult>> topk_samples;
  /// Timed requests completed in each second after the warm-up.
  std::vector<std::int64_t> per_second;
  double finish_s = 0.0;

  void Check(const std::string& bad) {
    if (bad.empty()) return;
    ++failed;
    if (failures.size() < 4) failures.push_back(bad);
  }
};

/// One caller: requests from its own seeded stream until `end_s` on
/// `clock`; those sent after `warm_end_s` are timed. `Client` is either
/// an EmbeddingServer (in-process) or a NetClient (TCP) — both expose
/// the same status-typed calls.
template <typename Client>
void CallerLoop(Client* client, Mix mix, const Reference& ref,
                std::uint64_t stream, const Stopwatch& clock,
                double warm_end_s, double end_s, CallerStats* st) {
  Rng rng(stream);
  const std::int64_t n = ref.z.rows();
  const ServeRequestOptions req;  // shipped defaults: no deadline
  std::int64_t topk_measured = 0;
  for (double start = clock.Seconds(); start < end_s; start = clock.Seconds()) {
    const bool measured = start >= warm_end_s;
    const std::int64_t node = rng.UniformInt(n);
    double stop = 0.0;
    if (mix == Mix::kTopK) {
      TopKResponse r = client->TopKSimilar(node, kTopK, req);
      stop = clock.Seconds();
      const std::string bad = CheckTopKShape(r, node, n);
      st->Check(bad);
      if (bad.empty() && measured && ++topk_measured % kTopKCheckEvery == 0 &&
          st->topk_samples.size() < kTopKChecksPerCaller) {
        st->topk_samples.emplace_back(node, std::move(r.result));
      }
    } else if (rng.UniformInt(4) < 3) {
      const EmbeddingResponse r = client->GetEmbedding(node, req);
      stop = clock.Seconds();
      st->Check(CheckEmbedding(r, node, ref));
    } else {
      const std::int64_t v = rng.UniformInt(n);
      const ScoreResponse r = client->ScoreLink(node, v, req);
      stop = clock.Seconds();
      st->Check(CheckScore(r, node, v, ref));
    }
    ++st->attempted;
    if (measured) {
      st->latency.Record(stop - start);
      ++st->measured;
      const auto second = static_cast<std::size_t>(stop - warm_end_s);
      if (second >= st->per_second.size()) st->per_second.resize(second + 1);
      ++st->per_second[second];
    }
    st->finish_s = stop;
  }
}

struct LoopOutcome {
  LatencyHistogram latency;
  std::int64_t measured = 0;
  double ops_per_s = 0.0;
};

/// Closed loop: one thread per client, `warmup_s` untimed, then
/// `measure_s` timed. Every answer is checked; the ops and failures go
/// to `result`.
template <typename Client>
LoopOutcome DriveClosedLoop(const std::vector<Client*>& clients, Mix mix,
                            const Reference& ref, std::uint64_t seed,
                            double warmup_s, double measure_s,
                            Result* result) {
  std::vector<CallerStats> stats(clients.size());
  const Stopwatch clock;
  const double end_s = warmup_s + measure_s;
  {
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < clients.size(); ++c) {
      threads.emplace_back([&, c] {
        CallerLoop(clients[c], mix, ref, seed * 1000003 + c, clock, warmup_s,
                   end_s, &stats[c]);
      });
    }
    for (std::thread& t : threads) t.join();
  }
  LoopOutcome out;
  double finish_s = end_s;
  // Requests completed in each whole second of the timed phase.
  std::vector<double> per_second(static_cast<std::size_t>(measure_s), 0.0);
  for (CallerStats& st : stats) {
    for (const auto& [q, topk] : st.topk_samples) {
      st.Check(CheckTopKExact(q, topk, ref));
    }
    result->Ops(st.attempted, st.failed, st.failures);
    out.latency.Merge(st.latency);
    out.measured += st.measured;
    finish_s = std::max(finish_s, st.finish_s);
    for (std::size_t s = 0;
         s < std::min(per_second.size(), st.per_second.size()); ++s) {
      per_second[s] += static_cast<double>(st.per_second[s]);
    }
  }
  // The median second, so that a few seconds in which the host stalled
  // the process do not move the throughput; a phase shorter than a
  // second (the smoke run) counts as a whole.
  out.ops_per_s = per_second.empty() ? static_cast<double>(out.measured) /
                                           (finish_s - warmup_s)
                                     : Median(per_second);
  return out;
}

/// Starts a NetServer (shipped defaults, ephemeral loopback port) in
/// front of `server` and connects kConnections clients to it.
bool StartNet(EmbeddingServer* server, std::unique_ptr<net::NetServer>* net,
              std::vector<std::unique_ptr<net::NetClient>>* clients,
              std::string* error) {
  *net = net::NetServer::Start(server, net::NetServerOptions{}, error);
  if (*net == nullptr) return false;
  for (int c = 0; c < kConnections; ++c) {
    auto client = net::NetClient::Connect("127.0.0.1", (*net)->port(),
                                          net::NetClientOptions{}, error);
    if (client == nullptr) return false;
    clients->push_back(std::move(client));
  }
  return true;
}

template <typename T>
std::vector<T*> Pointers(const std::vector<std::unique_ptr<T>>& owned) {
  std::vector<T*> out;
  for (const auto& p : owned) out.push_back(p.get());
  return out;
}

/// A served deployment: graph, checkpoint-loaded server, TCP front and
/// connected clients. Torn down in dependency order.
class ServeStack {
 public:
  ServeStack() = default;
  ~ServeStack() { Reset(); }
  ServeStack(const ServeStack&) = delete;
  ServeStack& operator=(const ServeStack&) = delete;

  bool Start(const Options& opt, const std::string& checkpoint,
             std::string* error) {
    graph_ = std::make_unique<Graph>(MakeGraph(opt));
    ServeOptions options;  // shipped defaults, precomputed rows
    options.precompute = true;
    server_ = EmbeddingServer::Load(*graph_, checkpoint, options, error);
    return server_ != nullptr &&
           StartNet(server_.get(), &net_, &clients_, error);
  }

  void Reset() {
    clients_.clear();
    net_.reset();
    server_.reset();
    graph_.reset();
  }

  std::vector<net::NetClient*> clients() const { return Pointers(clients_); }

 private:
  std::unique_ptr<Graph> graph_;
  std::unique_ptr<EmbeddingServer> server_;
  std::unique_ptr<net::NetServer> net_;
  std::vector<std::unique_ptr<net::NetClient>> clients_;
};

/// Adds `name`: the median latency (us) of TopK requests sent one at a
/// time, so no batching or queueing is in it.
void SoloTopK(const char* name, EmbeddingServer* server, const Reference& ref,
              bool exact, std::uint64_t seed, double budget_s,
              Result* result) {
  Rng rng(seed);
  const std::int64_t n = ref.z.rows();
  std::vector<double> t;
  CallerStats st;
  const Stopwatch total;
  while (t.size() < 200 && (t.size() < 5 || total.Seconds() < budget_s)) {
    const std::int64_t node = rng.UniformInt(n);
    const Stopwatch sw;
    const TopKResponse r = server->TopKSimilar(node, kTopK, {});
    t.push_back(sw.Seconds());
    std::string bad = CheckTopKShape(r, node, n);
    if (bad.empty() && exact && t.size() % kTopKCheckEvery == 0) {
      bad = CheckTopKExact(node, r.result, ref);
    }
    st.Check(bad);
  }
  result->Ops(std::ssize(t), st.failed, st.failures);
  result->Add(name, 1e6 * Median(t), "us", std::ssize(t));
}

bool DecodeFrame(const std::string& frame, net::FrameHeader* header,
                 std::string* payload) {
  net::WireError error;
  if (net::TryDecodeHeader(frame, header, &error) != net::HeaderStatus::kOk) {
    return false;
  }
  *payload = frame.substr(net::kFrameHeaderSize, header->payload_len);
  return net::VerifyPayload(*header, *payload);
}

/// ns to encode and decode one request/response pair of the mix's main
/// request type (net/protocol.h), both directions, CRCs included.
double CodecNs(Mix mix, const Reference& ref, Result* result) {
  constexpr int kPairs = 2000;
  constexpr int kBatches = 5;
  EmbeddingResponse embed;
  embed.generation = 1;
  embed.row.assign(ref.z.RowPtr(0), ref.z.RowPtr(0) + ref.z.cols());
  TopKResponse topk;
  topk.generation = 1;
  for (std::int64_t i = 0; i < kTopK; ++i) {
    topk.result.nodes.push_back(i + 1);
    topk.result.scores.push_back(ref.z(0, i % ref.z.cols()));
  }
  bool ok = true;
  std::vector<double> t;
  for (int b = 0; b < kBatches; ++b) {
    const Stopwatch sw;
    for (int i = 0; i < kPairs; ++i) {
      net::FrameHeader h;
      std::string payload;
      net::Request req;
      if (mix == Mix::kTopK) {
        net::TopKSimilarRequest q;
        q.node = i;
        q.k = kTopK;
        TopKResponse back;
        ok &= DecodeFrame(net::EncodeTopKSimilar(i, q), &h, &payload) &&
              net::DecodeRequest(h, payload, &req) &&
              DecodeFrame(net::EncodeTopKResponse(i, topk), &h, &payload) &&
              net::DecodeTopKResponse(payload, &back) &&
              back.result.nodes == topk.result.nodes;
      } else {
        net::GetEmbeddingRequest q;
        q.node = i;
        EmbeddingResponse back;
        ok &= DecodeFrame(net::EncodeGetEmbedding(i, q), &h, &payload) &&
              net::DecodeRequest(h, payload, &req) &&
              DecodeFrame(net::EncodeEmbeddingResponse(i, embed), &h,
                          &payload) &&
              net::DecodeEmbeddingResponse(payload, &back) &&
              back.row == embed.row;
      }
    }
    t.push_back(sw.Seconds() / kPairs);
  }
  result->Op(ok, "protocol round trip changed a message");
  return 1e9 * Median(t);
}

}  // namespace

void RunServe(const Options& opt, Result* result) {
  const Mix mix = MixOf(opt);

  // The served model: one epoch of the resident trainer, saved by its
  // own checkpoint writer. Untimed — it is the artifact a deployment
  // loads, and serving cost does not depend on the weights.
  const std::string model_dir = opt.workdir + "/model";
  ResetDir(model_dir);
  std::string checkpoint;
  std::unique_ptr<Reference> ref;
  {
    const Graph g = MakeGraph(opt);
    E2gclConfig cfg = PaperConfig(opt, 1);
    cfg.use_selector = false;
    cfg.checkpoint_dir = model_dir;
    E2gclTrainer trainer(g, cfg);
    const TrainResult tr = trainer.Train();
    const std::vector<std::string> files = ListCheckpointFiles(model_dir);
    if (!tr.ok() || files.empty()) {
      result->Op(false, "serving model training failed");
      return;
    }
    checkpoint = files.back();
    ref = std::make_unique<Reference>(trainer.encoder().Encode(g));
  }

  // Set-up: graph generation, checkpoint Load (CRC and shape checks,
  // every row precomputed), NetServer start, client connects.
  ServeStack stack;
  const bool set_up = RepeatSetup(
      opt.scale, [&] { stack.Reset(); },
      [&] {
        std::string error;
        if (stack.Start(opt, checkpoint, &error)) return true;
        result->Op(false, "serving set-up failed: " + error);
        return false;
      },
      result);
  if (!set_up) return;

  ResetPeakRss();
  const LoopOutcome lo =
      DriveClosedLoop(stack.clients(), mix, *ref, opt.seed,
                      opt.scale.warmup_s, opt.seconds, result);
  const double peak_mb = PeakRssMb();
  result->Add("op_p50_ms", 1e3 * lo.latency.Percentile(50.0), "ms",
              lo.measured);
  result->Info("op_p99_ms", 1e3 * lo.latency.Percentile(99.0), "ms",
               lo.measured);
  result->Info("op_p999_ms", 1e3 * lo.latency.Percentile(99.9), "ms",
               lo.measured);
  result->Add("ops_per_s", lo.ops_per_s, "1/s", lo.measured);
  result->Add("peak_rss_mb", peak_mb, "MB", 1);
}

void TraceServing(const Options& opt, const Graph& g,
                  const GcnEncoder& encoder, Result* result) {
  const Mix mix = MixOf(opt);
  const Reference ref(encoder.Encode(g));
  TrainerCheckpoint ckpt;
  ckpt.epoch = 0;
  ckpt.encoder_params = encoder.params().CloneValues();
  ServeOptions options;
  options.precompute = true;
  std::string error;
  std::unique_ptr<EmbeddingServer> server =
      EmbeddingServer::FromCheckpoint(g, ckpt, options, &error);
  if (server == nullptr) {
    result->Op(false, "serving model load failed: " + error);
    return;
  }
  const double burst_s = opt.scale.burst_s;
  const double warm_s = burst_s / 4;

  // The same request streams, first straight to the server, then over
  // TCP: the difference is what the wire and event loop add.
  const MetricsSnapshot m0 = MetricsRegistry::Get().Snapshot();
  const std::vector<EmbeddingServer*> direct(
      static_cast<std::size_t>(kConnections), server.get());
  const LoopOutcome inproc =
      DriveClosedLoop(direct, mix, ref, opt.seed, warm_s, burst_s, result);
  const MetricsSnapshot m1 = MetricsRegistry::Get().Snapshot();
  LoopOutcome tcp;
  {
    std::unique_ptr<net::NetServer> net;
    std::vector<std::unique_ptr<net::NetClient>> clients;
    if (!StartNet(server.get(), &net, &clients, &error)) {
      result->Op(false, "network set-up failed: " + error);
      return;
    }
    tcp = DriveClosedLoop(Pointers(clients), mix, ref, opt.seed, warm_s,
                          burst_s, result);
  }
  const MetricsSnapshot m2 = MetricsRegistry::Get().Snapshot();

  const double inproc_p50_us = 1e6 * inproc.latency.Percentile(50.0);
  const double inproc_requests = CounterDelta(m0, m1, "serve.requests");
  const double inproc_jobs = CounterDelta(m0, m1, "parallel.jobs");
  const double tcp_requests = CounterDelta(m1, m2, "serve.requests");
  const double tcp_batches = CounterDelta(m1, m2, "serve.batches");
  result->Add("serve.inproc_p50_us", inproc_p50_us, "us", inproc.measured);
  result->Add("serve.inproc_p99_us", 1e6 * inproc.latency.Percentile(99.0),
              "us", inproc.measured);
  result->Add("serve.mean_batch", tcp_requests / std::max(tcp_batches, 1.0),
              "count", static_cast<std::int64_t>(tcp_batches));
  result->Add("parallel.jobs_per_request",
              inproc_jobs / std::max(inproc_requests, 1.0), "count",
              static_cast<std::int64_t>(inproc_requests));
  result->Add("net.added_p50_us",
              1e6 * tcp.latency.Percentile(50.0) - inproc_p50_us, "us",
              tcp.measured);

  SoloTopK("serve.topk_solo_us", server.get(), ref, /*exact=*/true, opt.seed,
           burst_s / 2, result);
  ServeOptions int8 = options;
  int8.quantize_int8 = true;
  std::unique_ptr<EmbeddingServer> quantized =
      EmbeddingServer::FromCheckpoint(g, ckpt, int8, &error);
  if (quantized == nullptr) {
    result->Op(false, "int8 serving model load failed: " + error);
    return;
  }
  // The int8 scan's rescore pool can miss a true top-k row, so only the
  // answer's shape is checked here.
  SoloTopK("serve.topk_int8_solo_us", quantized.get(), ref, /*exact=*/false,
           opt.seed, burst_s / 2, result);
  result->Add("net.codec_ns", CodecNs(mix, ref, result), "ns", 5);
}

}  // namespace e2e
}  // namespace e2gcl
