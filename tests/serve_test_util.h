#ifndef E2GCL_TESTS_SERVE_TEST_UTIL_H_
#define E2GCL_TESTS_SERVE_TEST_UTIL_H_

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "serve/embedding_server.h"

namespace e2gcl {

// Blocking requests through the status-typed EmbeddingServer API, for
// tests that need the served value: a request the server does not
// answer kOk fails the calling test. EXPECT rather than ASSERT, so
// client threads may call them too.

inline std::vector<float> ServedRow(EmbeddingServer& server,
                                    std::int64_t node) {
  EmbeddingResponse r = server.GetEmbedding(node, ServeRequestOptions{});
  EXPECT_EQ(r.status, ServeStatus::kOk)
      << ServeStatusName(r.status) << " for node " << node;
  return std::move(r.row);
}

inline float ServedScore(EmbeddingServer& server, std::int64_t u,
                         std::int64_t v) {
  const ScoreResponse r = server.ScoreLink(u, v, ServeRequestOptions{});
  EXPECT_EQ(r.status, ServeStatus::kOk)
      << ServeStatusName(r.status) << " for " << u << "," << v;
  return r.score;
}

inline TopKResult ServedTopK(EmbeddingServer& server, std::int64_t node,
                             std::int64_t k) {
  TopKResponse r = server.TopKSimilar(node, k, ServeRequestOptions{});
  EXPECT_EQ(r.status, ServeStatus::kOk)
      << ServeStatusName(r.status) << " for node " << node;
  return std::move(r.result);
}

/// Spins until the server's queue holds exactly `depth` requests (the
/// flusher must be gated for this to be stable).
inline void AwaitQueueDepth(const EmbeddingServer& server,
                            std::int64_t depth) {
  while (server.queue_depth() < depth) std::this_thread::yield();
}

/// Two-phase gate wired into ServeFaultInjector::stall_batch: Block()
/// freezes the flusher inside the hook until Release(); the test waits
/// on AwaitBlocked() so "the flusher is wedged mid-batch" is a proven
/// state, not a race. After Release() later batches pass through.
class FlusherGate {
 public:
  void Block() {
    std::unique_lock<std::mutex> lock(mu_);
    blocked_ = true;
    cv_.notify_all();
    cv_.wait(lock, [&] { return released_; });
  }
  void AwaitBlocked() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return blocked_; });
  }
  void Release() {
    std::lock_guard<std::mutex> lock(mu_);
    released_ = true;
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool blocked_ = false;
  bool released_ = false;
};

}  // namespace e2gcl

#endif  // E2GCL_TESTS_SERVE_TEST_UTIL_H_
