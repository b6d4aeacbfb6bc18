// Serving-path robustness: deadlines fail fast while the flusher is
// wedged, admission control sheds load at the queue watermark, degraded
// TopK answers are flagged and exactly the approximate-scan result,
// corrupted cache rows are detected and self-repaired, shutdown drains
// deterministically, and hot checkpoint reloads never tear an answer —
// every response is bit-identical to the model generation it is tagged
// with. Registered as a TSAN/ASAN target in check_sanitizers.sh; every
// test uses fault-injection gates, never sleeps, for determinism.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <limits>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "graph/generators.h"
#include "io/checkpoint.h"
#include "nn/gcn.h"
#include "obs/metrics.h"
#include "serve/embedding_server.h"
#include "serve/quantized_table.h"
#include "serve/serve_status.h"
#include "serve_test_util.h"
#include "tensor/simd/simd.h"

namespace e2gcl {
namespace {

Graph ServeGraph(std::uint64_t seed = 7) {
  SbmSpec spec;
  spec.num_nodes = 120;
  spec.num_classes = 3;
  spec.feature_dim = 16;
  spec.avg_degree = 6;
  spec.informative_dims_per_class = 4;
  return GenerateSbm(spec, seed);
}

GcnConfig ServeEncoderConfig(const Graph& g) {
  GcnConfig cfg;
  cfg.dims = {g.feature_dim(), 12, 8};
  return cfg;
}

/// A checkpoint holding a freshly initialized (deterministic) encoder;
/// different seeds give different-weight checkpoints with the same
/// fingerprint, the raw material for hot-reload tests.
TrainerCheckpoint MakeCheckpoint(const Graph& g, std::uint64_t seed = 3) {
  Rng rng(seed);
  GcnEncoder encoder(ServeEncoderConfig(g), rng);
  TrainerCheckpoint ckpt;
  ckpt.epoch = 0;
  ckpt.config_fingerprint = 0xfeedULL;
  ckpt.encoder_params = encoder.params().CloneValues();
  return ckpt;
}

Matrix ReferenceEmbeddings(const Graph& g, const TrainerCheckpoint& ckpt) {
  Rng rng(0);
  GcnEncoder encoder(ServeEncoderConfig(g), rng);
  encoder.params().LoadValues(ckpt.encoder_params);
  return encoder.Encode(g);
}

std::vector<float> RowOf(const Matrix& m, std::int64_t r) {
  return std::vector<float>(m.RowPtr(r), m.RowPtr(r) + m.cols());
}

std::unique_ptr<EmbeddingServer> MakeServer(const Graph& g,
                                            const TrainerCheckpoint& ckpt,
                                            const ServeOptions& opt) {
  std::string error;
  std::unique_ptr<EmbeddingServer> server =
      EmbeddingServer::FromCheckpoint(g, ckpt, opt, &error);
  EXPECT_NE(server, nullptr) << error;
  return server;
}

// --- Deadlines. ------------------------------------------------------------

TEST(ServeDeadline, ExpiresFastWhileFlusherIsStalled) {
  Graph g = ServeGraph();
  TrainerCheckpoint ckpt = MakeCheckpoint(g);
  FlusherGate gate;
  ServeOptions opt;
  opt.max_batch = 1;  // The stalled batch holds exactly the blocker.
  opt.fault_injector.stall_batch = [&](std::int64_t) { gate.Block(); };
  auto server = MakeServer(g, ckpt, opt);

  std::thread blocker([&] { ServedRow(*server, 0); });
  gate.AwaitBlocked();

  // The flusher is provably wedged; a deadlined request must still
  // return, released by its own wait, not by the flusher.
  ServeRequestOptions deadline;
  deadline.deadline_us = 20000;
  EmbeddingResponse response = server->GetEmbedding(1, deadline);
  EXPECT_EQ(response.status, ServeStatus::kDeadlineExceeded);
  EXPECT_FALSE(response.served());
  EXPECT_TRUE(response.row.empty());

  gate.Release();
  blocker.join();
}

TEST(ServeDeadline, ZeroDeadlineBlocksUntilServed) {
  Graph g = ServeGraph();
  TrainerCheckpoint ckpt = MakeCheckpoint(g);
  auto server = MakeServer(g, ckpt, ServeOptions{});
  const Matrix ref = ReferenceEmbeddings(g, ckpt);

  EmbeddingResponse response = server->GetEmbedding(5, ServeRequestOptions{});
  EXPECT_EQ(response.status, ServeStatus::kOk);
  EXPECT_EQ(response.generation, 1u);
  EXPECT_EQ(response.row, RowOf(ref, 5));
}

TEST(ServeDeadline, DeadlineBeyondTheClockRangeNeverExpires) {
  Graph g = ServeGraph();
  TrainerCheckpoint ckpt = MakeCheckpoint(g);
  auto server = MakeServer(g, ckpt, ServeOptions{});
  const Matrix ref = ReferenceEmbeddings(g, ckpt);

  // The wire accepts any non-negative deadline_us; microseconds this
  // large overflow a nanosecond clock unless the server saturates them.
  ServeRequestOptions unreachable;
  unreachable.deadline_us = std::numeric_limits<std::int64_t>::max();
  EmbeddingResponse response = server->GetEmbedding(5, unreachable);
  EXPECT_EQ(response.status, ServeStatus::kOk);
  EXPECT_EQ(response.row, RowOf(ref, 5));
}

TEST(ServeDeadline, AbandonedRequestIsDiscardedWithoutBlockingOthers) {
  Graph g = ServeGraph();
  TrainerCheckpoint ckpt = MakeCheckpoint(g);
  FlusherGate gate;
  ServeOptions opt;
  opt.max_batch = 1;
  opt.fault_injector.stall_batch = [&](std::int64_t) { gate.Block(); };
  auto server = MakeServer(g, ckpt, opt);
  const Matrix ref = ReferenceEmbeddings(g, ckpt);

  std::thread blocker([&] { ServedRow(*server, 0); });
  gate.AwaitBlocked();

  // Expire a queued request, then release: the flusher must skip the
  // abandoned entry and keep serving what follows.
  ServeRequestOptions deadline;
  deadline.deadline_us = 1;
  EXPECT_EQ(server->GetEmbedding(1, deadline).status,
            ServeStatus::kDeadlineExceeded);
  gate.Release();
  blocker.join();

  EmbeddingResponse after = server->GetEmbedding(2, ServeRequestOptions{});
  EXPECT_EQ(after.status, ServeStatus::kOk);
  EXPECT_EQ(after.row, RowOf(ref, 2));
}

// --- Admission control / load shedding. ------------------------------------

TEST(ServeAdmission, RejectsAtMaxQueueDepthWatermark) {
  Graph g = ServeGraph();
  TrainerCheckpoint ckpt = MakeCheckpoint(g);
  FlusherGate gate;
  ServeOptions opt;
  opt.max_batch = 1;
  opt.max_queue_depth = 2;
  opt.fault_injector.stall_batch = [&](std::int64_t) { gate.Block(); };
  auto server = MakeServer(g, ckpt, opt);

  std::thread blocker([&] { ServedRow(*server, 0); });
  gate.AwaitBlocked();
  // Saturate the queue behind the wedged flusher.
  std::vector<std::thread> queued;
  for (int i = 1; i <= 2; ++i) {
    queued.emplace_back([&, i] {
      EXPECT_EQ(server->GetEmbedding(i, ServeRequestOptions{}).status,
                ServeStatus::kOk);
    });
  }
  AwaitQueueDepth(*server, 2);

  // The watermark is hit: shed, don't queue. Rejected at the door, so
  // no generation was ever pinned.
  EmbeddingResponse shed = server->GetEmbedding(50, ServeRequestOptions{});
  EXPECT_EQ(shed.status, ServeStatus::kOverloaded);
  EXPECT_EQ(shed.generation, 0u);
  EXPECT_TRUE(ServeStatusRetryable(shed.status));

  gate.Release();
  blocker.join();
  for (std::thread& t : queued) t.join();
}

TEST(ServeAdmission, OutOfRangeArgumentsAreRejectedInvalidArgument) {
  Graph g = ServeGraph();
  TrainerCheckpoint ckpt = MakeCheckpoint(g);
  SetObsEnabled(true);
  MetricsRegistry::Get().ResetValuesForTest();
  auto server = MakeServer(g, ckpt, ServeOptions{});
  const std::int64_t n = g.num_nodes;
  const ServeRequestOptions request;

  // Blocking forms: a typed rejection at the door, no generation pinned.
  const EmbeddingResponse row = server->GetEmbedding(-1, request);
  EXPECT_EQ(row.status, ServeStatus::kInvalidArgument);
  EXPECT_EQ(row.generation, 0u);
  EXPECT_TRUE(row.row.empty());
  const ScoreResponse score = server->ScoreLink(0, n, request);
  EXPECT_EQ(score.status, ServeStatus::kInvalidArgument);
  EXPECT_EQ(score.generation, 0u);
  const TopKResponse topk = server->TopKSimilar(n, 1, request);
  EXPECT_EQ(topk.status, ServeStatus::kInvalidArgument);
  EXPECT_EQ(topk.generation, 0u);
  EXPECT_TRUE(topk.result.nodes.empty());
  EXPECT_EQ(server->TopKSimilar(0, -1, request).status,
            ServeStatus::kInvalidArgument);

  // Asynchronous forms: the status is the rejection; `done` never runs.
  std::atomic<int> completions{0};
  EXPECT_EQ(server->GetEmbedding(-1, request,
                                 [&](EmbeddingResponse) { ++completions; }),
            ServeStatus::kInvalidArgument);
  EXPECT_EQ(server->ScoreLink(0, n, request,
                              [&](ScoreResponse) { ++completions; }),
            ServeStatus::kInvalidArgument);
  EXPECT_EQ(server->TopKSimilar(n, 1, request,
                                [&](TopKResponse) { ++completions; }),
            ServeStatus::kInvalidArgument);

  // The server is unharmed, and the rejections were counted.
  EXPECT_EQ(ServedRow(*server, n - 1), RowOf(ReferenceEmbeddings(g, ckpt),
                                              n - 1));
  server.reset();
  EXPECT_EQ(completions.load(), 0);
  const MetricsSnapshot snap = MetricsRegistry::Get().Snapshot();
  EXPECT_EQ(snap.counter("serve.rejected.invalid"), 7u);
  EXPECT_EQ(snap.counter("serve.requests"), 1u);
}

TEST(ServeAdmission, DegradesTopKUnderPressureToExactApproximateScan) {
  Graph g = ServeGraph();
  TrainerCheckpoint ckpt = MakeCheckpoint(g);
  FlusherGate gate;
  ServeOptions opt;
  opt.max_batch = 1;
  opt.quantize_int8 = true;
  opt.rescore_factor = 4;
  opt.degrade_watermark = 1;
  opt.fault_injector.stall_batch = [&](std::int64_t) { gate.Block(); };
  auto server = MakeServer(g, ckpt, opt);
  const Matrix ref = ReferenceEmbeddings(g, ckpt);
  const std::shared_ptr<const ModelState> state = server->state();

  std::thread blocker([&] { ServedRow(*server, 0); });
  gate.AwaitBlocked();
  std::thread queued([&] { ServedRow(*server, 1); });
  AwaitQueueDepth(*server, 1);

  // Admitted at queue depth 1 >= degrade_watermark: served approximate.
  constexpr std::int64_t kQuery = 7;
  constexpr std::int64_t kK = 5;
  std::thread degraded_client([&] {
    TopKResponse response =
        server->TopKSimilar(kQuery, kK, ServeRequestOptions{});
    EXPECT_EQ(response.status, ServeStatus::kDegraded);
    EXPECT_TRUE(response.served());
    EXPECT_EQ(response.generation, 1u);

    // A degraded answer is exactly the int8 approximate scan — computed
    // here from the pinned generation's own table, no rescore.
    std::vector<std::int8_t> qcodes;
    const float qscale =
        state->quantized.QuantizeQuery(ref.RowPtr(kQuery), &qcodes);
    std::vector<float> approx;
    state->quantized.ScoreAll(qcodes.data(), qscale, &approx);
    std::vector<std::int64_t> order;
    for (std::int64_t i = 0; i < g.num_nodes; ++i) {
      if (i != kQuery) order.push_back(i);
    }
    std::partial_sort(order.begin(), order.begin() + kK, order.end(),
                      [&](std::int64_t x, std::int64_t y) {
                        const float sx = approx[static_cast<std::size_t>(x)];
                        const float sy = approx[static_cast<std::size_t>(y)];
                        if (sx != sy) return sx > sy;
                        return x < y;
                      });
    ASSERT_EQ(response.result.nodes.size(), static_cast<std::size_t>(kK));
    for (std::int64_t i = 0; i < kK; ++i) {
      EXPECT_EQ(response.result.nodes[static_cast<std::size_t>(i)],
                order[static_cast<std::size_t>(i)]);
      EXPECT_EQ(response.result.scores[static_cast<std::size_t>(i)],
                approx[static_cast<std::size_t>(
                    order[static_cast<std::size_t>(i)])]);
    }
  });
  AwaitQueueDepth(*server, 2);

  gate.Release();
  blocker.join();
  queued.join();
  degraded_client.join();

  // Off pressure, the same request is exact again.
  TopKResponse exact = server->TopKSimilar(kQuery, kK, ServeRequestOptions{});
  EXPECT_EQ(exact.status, ServeStatus::kOk);
  for (std::size_t i = 0; i < exact.result.nodes.size(); ++i) {
    EXPECT_EQ(exact.result.scores[i],
              simd::Dot(ref.RowPtr(kQuery), ref.RowPtr(exact.result.nodes[i]),
                        ref.cols()));
  }
}

TEST(ServeAdmission, DegradationRespectsAllowDegradedFalse) {
  Graph g = ServeGraph();
  TrainerCheckpoint ckpt = MakeCheckpoint(g);
  FlusherGate gate;
  ServeOptions opt;
  opt.max_batch = 1;
  opt.quantize_int8 = true;
  opt.degrade_watermark = 1;
  opt.fault_injector.stall_batch = [&](std::int64_t) { gate.Block(); };
  auto server = MakeServer(g, ckpt, opt);

  std::thread blocker([&] { ServedRow(*server, 0); });
  gate.AwaitBlocked();
  std::thread queued([&] { ServedRow(*server, 1); });
  AwaitQueueDepth(*server, 1);

  ServeRequestOptions exact_only;
  exact_only.allow_degraded = false;
  std::thread exact_client([&] {
    EXPECT_EQ(server->TopKSimilar(7, 5, exact_only).status, ServeStatus::kOk);
  });
  AwaitQueueDepth(*server, 2);

  gate.Release();
  blocker.join();
  queued.join();
  exact_client.join();
}

// --- Retry helper. ---------------------------------------------------------

TEST(RetryWithBackoff, RetriesTransientRejectionsThenSucceeds) {
  int calls = 0;
  RetryPolicy policy;
  policy.max_attempts = 5;
  policy.initial_backoff_us = 1;
  EmbeddingResponse response = RetryWithBackoff(policy, [&] {
    ++calls;
    EmbeddingResponse r;
    r.status = calls < 3 ? ServeStatus::kOverloaded : ServeStatus::kOk;
    return r;
  });
  EXPECT_EQ(response.status, ServeStatus::kOk);
  EXPECT_EQ(calls, 3);
}

TEST(RetryWithBackoff, StopsAtMaxAttemptsAndOnNonRetryableStatus) {
  int calls = 0;
  RetryPolicy policy;
  policy.max_attempts = 4;
  policy.initial_backoff_us = 1;
  EmbeddingResponse response = RetryWithBackoff(policy, [&] {
    ++calls;
    EmbeddingResponse r;
    r.status = ServeStatus::kOverloaded;
    return r;
  });
  EXPECT_EQ(response.status, ServeStatus::kOverloaded);
  EXPECT_EQ(calls, 4);

  calls = 0;
  response = RetryWithBackoff(policy, [&] {
    ++calls;
    EmbeddingResponse r;
    r.status = ServeStatus::kDeadlineExceeded;  // Caller's call, not ours.
    return r;
  });
  EXPECT_EQ(calls, 1);
}

TEST(RetryWithBackoff, TotalDeadlineBoundsRetryBudget) {
  int calls = 0;
  RetryPolicy policy;
  policy.max_attempts = 100;
  policy.initial_backoff_us = 100;
  policy.max_backoff_us = 100;
  policy.total_deadline_us = 250;
  const auto start = std::chrono::steady_clock::now();
  EmbeddingResponse response = RetryWithBackoff(policy, [&] {
    ++calls;
    EmbeddingResponse r;
    r.status = ServeStatus::kOverloaded;
    return r;
  });
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_EQ(response.status, ServeStatus::kOverloaded);
  // Every backoff sleeps >= 100us, so the 250us budget admits at most
  // two of them — nowhere near the 100-attempt unbounded schedule.
  EXPECT_GE(calls, 1);
  EXPECT_LE(calls, 3);
  // And the budget bounds wall clock (very generous ceiling so
  // scheduler jitter cannot flake the test).
  EXPECT_LT(
      std::chrono::duration_cast<std::chrono::microseconds>(elapsed).count(),
      1000000);
}

TEST(RetryWithBackoff, TerminalStatusesNeverRetry) {
  for (ServeStatus terminal :
       {ServeStatus::kShutdown, ServeStatus::kInvalidArgument}) {
    int calls = 0;
    RetryPolicy policy;
    policy.max_attempts = 8;
    policy.initial_backoff_us = 1;
    EmbeddingResponse response = RetryWithBackoff(policy, [&] {
      ++calls;
      EmbeddingResponse r;
      r.status = terminal;
      return r;
    });
    EXPECT_EQ(response.status, terminal);
    EXPECT_EQ(calls, 1);
  }
}

TEST(RetryWithBackoff, DeadlineIsRespectedAcrossGrowingBackoffs) {
  // Backoff doubles 500 -> 1000 -> 2000; the 2ms budget stops the
  // schedule before the third sleep even though max_attempts allows
  // three orders of magnitude more calls.
  int calls = 0;
  RetryPolicy policy;
  policy.max_attempts = 1000;
  policy.initial_backoff_us = 500;
  policy.max_backoff_us = 4000;
  policy.total_deadline_us = 2000;
  EmbeddingResponse response = RetryWithBackoff(policy, [&] {
    ++calls;
    EmbeddingResponse r;
    r.status = ServeStatus::kOverloaded;
    return r;
  });
  EXPECT_EQ(response.status, ServeStatus::kOverloaded);
  EXPECT_GE(calls, 1);
  EXPECT_LE(calls, 3);
}

// --- Cache corruption (checksummed rows). ----------------------------------

TEST(ServeCorruption, CorruptedCacheRowIsDetectedAndRecomputed) {
  Graph g = ServeGraph();
  TrainerCheckpoint ckpt = MakeCheckpoint(g);
  std::atomic<int> corruptions{0};
  ServeOptions opt;
  // Corrupt node 9's cached copy exactly once, right after first Put.
  opt.fault_injector.corrupt_row_after_put = [&](std::int64_t node) {
    if (node != 9) return false;
    int expected = 0;
    return corruptions.compare_exchange_strong(expected, 1);
  };
  auto server = MakeServer(g, ckpt, opt);
  const Matrix ref = ReferenceEmbeddings(g, ckpt);
  const std::shared_ptr<const ModelState> state = server->state();

  // First serve computed the row before the cached copy was corrupted.
  EXPECT_EQ(ServedRow(*server, 9), RowOf(ref, 9));
  EXPECT_EQ(state->cache->corrupt_dropped(), 0u);

  // Second serve hits the poisoned entry: the checksum drops it and the
  // recompute self-repairs — the caller still gets the exact row.
  EXPECT_EQ(ServedRow(*server, 9), RowOf(ref, 9));
  EXPECT_EQ(state->cache->corrupt_dropped(), 1u);

  // Third serve is a clean cache hit of the repaired entry.
  EXPECT_EQ(ServedRow(*server, 9), RowOf(ref, 9));
  EXPECT_EQ(state->cache->corrupt_dropped(), 1u);
}

// --- Shutdown drain. -------------------------------------------------------

TEST(ServeShutdown, DrainsQueuedRequestsAndRejectsNewOnes) {
  Graph g = ServeGraph();
  TrainerCheckpoint ckpt = MakeCheckpoint(g);
  FlusherGate gate;
  ServeOptions opt;
  opt.max_batch = 1;
  opt.fault_injector.stall_batch = [&](std::int64_t) { gate.Block(); };
  auto server = MakeServer(g, ckpt, opt);
  const Matrix ref = ReferenceEmbeddings(g, ckpt);

  std::thread blocker([&] {
    EXPECT_EQ(ServedRow(*server, 0), RowOf(ref, 0));
  });
  gate.AwaitBlocked();
  std::vector<std::thread> queued;
  for (int i = 1; i <= 3; ++i) {
    queued.emplace_back([&, i] {
      // Admitted before shutdown: must be drained, not dropped.
      EmbeddingResponse r = server->GetEmbedding(i, ServeRequestOptions{});
      EXPECT_EQ(r.status, ServeStatus::kOk);
      EXPECT_EQ(r.row, RowOf(ref, i));
    });
  }
  AwaitQueueDepth(*server, 3);

  server->BeginShutdown();
  // Admission is closed immediately, even while the drain is pending.
  EXPECT_EQ(server->GetEmbedding(7, ServeRequestOptions{}).status,
            ServeStatus::kShutdown);

  gate.Release();
  blocker.join();
  for (std::thread& t : queued) t.join();
  EXPECT_EQ(server->GetEmbedding(8, ServeRequestOptions{}).status,
            ServeStatus::kShutdown);
}

TEST(ServeShutdown, DestructorNeverBlocksOnQueuedCallers) {
  Graph g = ServeGraph();
  TrainerCheckpoint ckpt = MakeCheckpoint(g);
  FlusherGate gate;
  ServeOptions opt;
  opt.max_batch = 1;
  opt.fault_injector.stall_batch = [&](std::int64_t) { gate.Block(); };
  auto server = MakeServer(g, ckpt, opt);

  std::thread blocker([&] { ServedRow(*server, 0); });
  gate.AwaitBlocked();
  std::thread queued([&] {
    EXPECT_TRUE(ServeStatusServed(
        server->GetEmbedding(1, ServeRequestOptions{}).status));
  });
  AwaitQueueDepth(*server, 1);

  gate.Release();
  // Destroying the server with callers still in flight must drain them
  // (both threads join below because their requests completed).
  server.reset();
  blocker.join();
  queued.join();
}

// --- Hot checkpoint reload. ------------------------------------------------

TEST(ServeReload, SwapsGenerationsWithBitIdenticalAnswersPerPhase) {
  Graph g = ServeGraph();
  TrainerCheckpoint ckpt_a = MakeCheckpoint(g, /*seed=*/3);
  TrainerCheckpoint ckpt_b = MakeCheckpoint(g, /*seed=*/11);
  const Matrix ref_a = ReferenceEmbeddings(g, ckpt_a);
  const Matrix ref_b = ReferenceEmbeddings(g, ckpt_b);
  ASSERT_NE(RowOf(ref_a, 0), RowOf(ref_b, 0));

  ServeOptions opt;
  opt.quantize_int8 = true;
  auto server = MakeServer(g, ckpt_a, opt);
  EXPECT_EQ(server->generation(), 1u);

  // Phase 1: generation 1 answers, cold then cached.
  for (std::int64_t node : {4, 9, 4}) {
    EmbeddingResponse r = server->GetEmbedding(node, ServeRequestOptions{});
    EXPECT_EQ(r.status, ServeStatus::kOk);
    EXPECT_EQ(r.generation, 1u);
    EXPECT_EQ(r.row, RowOf(ref_a, node));
  }

  std::string error;
  ASSERT_EQ(server->ReloadCheckpoint(ckpt_b, &error), ServeStatus::kOk)
      << error;
  EXPECT_EQ(server->generation(), 2u);

  // Phase 2: every answer is the new model's — including node 4, which
  // the old generation had cached (the reload started cold).
  for (std::int64_t node : {4, 9, 77}) {
    EmbeddingResponse r = server->GetEmbedding(node, ServeRequestOptions{});
    EXPECT_EQ(r.status, ServeStatus::kOk);
    EXPECT_EQ(r.generation, 2u);
    EXPECT_EQ(r.row, RowOf(ref_b, node));
  }
  ScoreResponse s = server->ScoreLink(3, 8, ServeRequestOptions{});
  EXPECT_EQ(s.generation, 2u);
  EXPECT_EQ(s.score, simd::Dot(ref_b.RowPtr(3), ref_b.RowPtr(8),
                               ref_b.cols()));
  TopKResponse t = server->TopKSimilar(3, 5, ServeRequestOptions{});
  EXPECT_EQ(t.generation, 2u);
  for (std::size_t i = 0; i < t.result.nodes.size(); ++i) {
    EXPECT_EQ(t.result.scores[i],
              simd::Dot(ref_b.RowPtr(3), ref_b.RowPtr(t.result.nodes[i]),
                        ref_b.cols()));
  }
}

TEST(ServeReload, InFlightRequestsStayPinnedToAdmissionGeneration) {
  Graph g = ServeGraph();
  TrainerCheckpoint ckpt_a = MakeCheckpoint(g, /*seed=*/3);
  TrainerCheckpoint ckpt_b = MakeCheckpoint(g, /*seed=*/11);
  const Matrix ref_a = ReferenceEmbeddings(g, ckpt_a);
  const Matrix ref_b = ReferenceEmbeddings(g, ckpt_b);

  FlusherGate flusher_gate;
  FlusherGate reload_gate;
  ServeOptions opt;
  opt.max_batch = 1;
  opt.fault_injector.stall_batch = [&](std::int64_t) {
    flusher_gate.Block();
  };
  opt.fault_injector.before_reload_swap = [&](std::uint64_t) {
    reload_gate.Block();
  };
  auto server = MakeServer(g, ckpt_a, opt);

  std::thread blocker([&] { ServedRow(*server, 0); });
  flusher_gate.AwaitBlocked();
  // Admitted under generation 1, still queued when the swap happens.
  std::thread pinned([&] {
    EmbeddingResponse r = server->GetEmbedding(33, ServeRequestOptions{});
    EXPECT_EQ(r.status, ServeStatus::kOk);
    EXPECT_EQ(r.generation, 1u);
    EXPECT_EQ(r.row, RowOf(ref_a, 33));
  });
  AwaitQueueDepth(*server, 1);

  std::thread reloader([&] {
    EXPECT_EQ(server->ReloadCheckpoint(ckpt_b), ServeStatus::kOk);
  });
  reload_gate.AwaitBlocked();
  // The new generation is fully built but not yet swapped in; a second
  // reload attempt must be turned away, not stacked.
  EXPECT_EQ(server->ReloadCheckpoint(ckpt_b), ServeStatus::kReloading);
  reload_gate.Release();
  reloader.join();

  flusher_gate.Release();
  blocker.join();
  pinned.join();

  // Post-swap admissions see generation 2.
  EmbeddingResponse after = server->GetEmbedding(33, ServeRequestOptions{});
  EXPECT_EQ(after.generation, 2u);
  EXPECT_EQ(after.row, RowOf(ref_b, 33));
}

TEST(ServeReload, RejectsInvalidCheckpointWithoutTouchingServing) {
  Graph g = ServeGraph();
  TrainerCheckpoint ckpt = MakeCheckpoint(g);
  ServeOptions opt;
  opt.expected_fingerprint = 0xfeedULL;
  auto server = MakeServer(g, ckpt, opt);
  const Matrix ref = ReferenceEmbeddings(g, ckpt);

  TrainerCheckpoint wrong = MakeCheckpoint(g, /*seed=*/11);
  wrong.config_fingerprint = 0xdeadULL;
  std::string error;
  EXPECT_EQ(server->ReloadCheckpoint(wrong, &error),
            ServeStatus::kInvalidArgument);
  EXPECT_NE(error.find("fingerprint"), std::string::npos) << error;
  EXPECT_EQ(server->generation(), 1u);
  EXPECT_EQ(ServedRow(*server, 12), RowOf(ref, 12));

  // A second, valid reload still goes through (the gate was released).
  TrainerCheckpoint good = MakeCheckpoint(g, /*seed=*/11);
  EXPECT_EQ(server->ReloadCheckpoint(good), ServeStatus::kOk);
  EXPECT_EQ(server->generation(), 2u);
}

TEST(ServeReload, RefusesNonFiniteCheckpointsAtLoadAndReload) {
  Graph g = ServeGraph();
  const TrainerCheckpoint good = MakeCheckpoint(g);
  // A CRC-valid file can carry a diverged weight.
  TrainerCheckpoint nan_weight = MakeCheckpoint(g, /*seed=*/11);
  nan_weight.encoder_params.back()(0, 0) =
      std::numeric_limits<float>::quiet_NaN();
  // Finite weights whose encoded rows overflow to infinity: seen where a
  // table is encoded at load (precompute, or the int8 copy).
  TrainerCheckpoint overflow = MakeCheckpoint(g, /*seed=*/11);
  for (Matrix& param : overflow.encoder_params) {
    for (std::int64_t i = 0; i < param.size(); ++i) param.data()[i] *= 1e30f;
  }
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("e2gcl_nonfinite_" + std::to_string(::getpid()) + ".e2gcl"))
          .string();
  ASSERT_TRUE(SaveTrainerCheckpoint(path, nan_weight));
  SetObsEnabled(true);
  MetricsRegistry::Get().ResetValuesForTest();

  for (const auto& [precompute, int8] :
       {std::pair{false, false}, std::pair{false, true},
        std::pair{true, false}}) {
    SCOPED_TRACE(std::string(precompute ? "precompute" : "lazy") +
                 (int8 ? " int8" : ""));
    ServeOptions opt;
    opt.precompute = precompute;
    opt.quantize_int8 = int8;
    std::string error;
    EXPECT_EQ(EmbeddingServer::FromCheckpoint(g, nan_weight, opt, &error),
              nullptr);
    EXPECT_NE(error.find("encoder parameter"), std::string::npos) << error;
    error.clear();
    EXPECT_EQ(EmbeddingServer::Load(g, path, opt, &error), nullptr);
    EXPECT_NE(error.find("non-finite"), std::string::npos) << error;

    auto server = MakeServer(g, good, opt);
    ASSERT_NE(server, nullptr);
    const Matrix ref = ReferenceEmbeddings(g, good);
    error.clear();
    EXPECT_EQ(server->ReloadCheckpoint(nan_weight, &error),
              ServeStatus::kInvalidArgument);
    EXPECT_NE(error.find("encoder parameter"), std::string::npos) << error;
    EXPECT_EQ(server->ReloadFromFile(path), ServeStatus::kInvalidArgument);
    if (precompute || int8) {
      error.clear();
      EXPECT_EQ(EmbeddingServer::FromCheckpoint(g, overflow, opt, &error),
                nullptr);
      EXPECT_NE(error.find("embedding row"), std::string::npos) << error;
      EXPECT_EQ(server->ReloadCheckpoint(overflow),
                ServeStatus::kInvalidArgument);
    }
    // The old generation keeps serving.
    EXPECT_EQ(server->generation(), 1u);
    EXPECT_EQ(ServedRow(*server, 12), RowOf(ref, 12));
  }
  std::filesystem::remove(path);
  EXPECT_EQ(
      MetricsRegistry::Get().Snapshot().counter("serve.reload.failed"), 8u);
}

TEST(ServeReload, ConcurrentMixedClientsAlwaysMatchTaggedGeneration) {
  Graph g = ServeGraph();
  TrainerCheckpoint ckpt_a = MakeCheckpoint(g, /*seed=*/3);
  TrainerCheckpoint ckpt_b = MakeCheckpoint(g, /*seed=*/11);
  // Generations alternate: odd = A (initial load), even = B.
  const Matrix ref_a = ReferenceEmbeddings(g, ckpt_a);
  const Matrix ref_b = ReferenceEmbeddings(g, ckpt_b);
  const auto ref_of = [&](std::uint64_t gen) -> const Matrix& {
    return gen % 2 == 1 ? ref_a : ref_b;
  };

  ServeOptions opt;
  opt.quantize_int8 = true;
  opt.cache_capacity = 64;  // Small: keeps cold and cached paths mixed.
  auto server = MakeServer(g, ckpt_a, opt);

  constexpr int kClients = 4;
  constexpr int kQueriesPerClient = 120;
  std::atomic<std::int64_t> failed{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int q = 0; q < kQueriesPerClient; ++q) {
        const std::int64_t node = (c * 37 + q * 11) % g.num_nodes;
        switch (q % 3) {
          case 0: {
            EmbeddingResponse r =
                server->GetEmbedding(node, ServeRequestOptions{});
            if (r.status != ServeStatus::kOk) { ++failed; break; }
            const Matrix& ref = ref_of(r.generation);
            if (r.row != RowOf(ref, node)) ++failed;
            break;
          }
          case 1: {
            const std::int64_t other = (node + 13) % g.num_nodes;
            ScoreResponse r =
                server->ScoreLink(node, other, ServeRequestOptions{});
            if (r.status != ServeStatus::kOk) { ++failed; break; }
            const Matrix& ref = ref_of(r.generation);
            if (r.score != simd::Dot(ref.RowPtr(node), ref.RowPtr(other),
                                     ref.cols())) {
              ++failed;
            }
            break;
          }
          case 2: {
            TopKResponse r =
                server->TopKSimilar(node, 5, ServeRequestOptions{});
            if (r.status != ServeStatus::kOk) { ++failed; break; }
            // Scores must be exact dot products within ONE generation —
            // a torn reload would mix models and break equality.
            const Matrix& ref = ref_of(r.generation);
            for (std::size_t i = 0; i < r.result.nodes.size(); ++i) {
              if (r.result.scores[i] !=
                  simd::Dot(ref.RowPtr(node), ref.RowPtr(r.result.nodes[i]),
                            ref.cols())) {
                ++failed;
              }
            }
            break;
          }
        }
      }
    });
  }

  // Mid-stream reloads while the clients hammer the server.
  for (int r = 0; r < 4; ++r) {
    const TrainerCheckpoint& next = (r % 2 == 0) ? ckpt_b : ckpt_a;
    ASSERT_EQ(server->ReloadCheckpoint(next), ServeStatus::kOk);
  }
  for (std::thread& t : clients) t.join();

  // Zero failed queries across every mid-stream swap.
  EXPECT_EQ(failed.load(), 0);
  EXPECT_EQ(server->generation(), 5u);
}

}  // namespace
}  // namespace e2gcl
