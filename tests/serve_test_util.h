#ifndef E2GCL_TESTS_SERVE_TEST_UTIL_H_
#define E2GCL_TESTS_SERVE_TEST_UTIL_H_

#include <cstdint>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "serve/embedding_server.h"

namespace e2gcl {

// Blocking, exact-only requests through the status-typed EmbeddingServer
// API, for tests that need the served value: a request the server does
// not answer kOk fails the calling test. EXPECT rather than ASSERT, so
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

/// TopK on the exact path only: never answered degraded.
inline TopKResult ServedExactTopK(EmbeddingServer& server, std::int64_t node,
                                  std::int64_t k) {
  ServeRequestOptions exact;
  exact.allow_degraded = false;
  TopKResponse r = server.TopKSimilar(node, k, exact);
  EXPECT_EQ(r.status, ServeStatus::kOk)
      << ServeStatusName(r.status) << " for node " << node;
  return std::move(r.result);
}

}  // namespace e2gcl

#endif  // E2GCL_TESTS_SERVE_TEST_UTIL_H_
