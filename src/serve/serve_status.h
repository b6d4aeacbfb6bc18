#ifndef E2GCL_SERVE_SERVE_STATUS_H_
#define E2GCL_SERVE_SERVE_STATUS_H_

#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

namespace e2gcl {

/// Typed outcome of a serving call. Every response carries one, so
/// callers can distinguish a served answer (kOk) from a fast-failed one
/// without parsing error strings. See DESIGN.md "Serving robustness
/// model".
enum class ServeStatus : std::uint8_t {
  /// Served: rows and scores are bit-identical to the offline encode of
  /// the response's model generation, and a TopK answer is the exact
  /// fp32 ranking of its candidates (every row, or the int8 candidate
  /// pool; see ServeOptions::quantize_int8).
  kOk = 0,
  /// The request's deadline_us elapsed before the flusher served it.
  /// The caller has already been released; no result was produced.
  kDeadlineExceeded = 1,
  /// Admission control rejected the request at the max_queue_depth
  /// watermark. Transient: retryable.
  kOverloaded = 2,
  /// A checkpoint reload could not start because another reload is
  /// already in flight. Transient: retryable.
  kReloading = 3,
  /// The server is draining for shutdown and no longer admits work.
  kShutdown = 4,
  /// The argument (e.g. a reload checkpoint) failed validation.
  kInvalidArgument = 5,
  /// Client-side only: the transport failed (connect/send/recv error,
  /// timeout, malformed or mismatched response frame). Never valid on
  /// the wire — ServeStatusFromByte rejects it, so a server cannot
  /// fabricate one.
  kTransportError = 6,
};

/// Stable lowercase name for logs/CLI output.
inline const char* ServeStatusName(ServeStatus status) {
  switch (status) {
    case ServeStatus::kOk: return "ok";
    case ServeStatus::kDeadlineExceeded: return "deadline_exceeded";
    case ServeStatus::kOverloaded: return "overloaded";
    case ServeStatus::kReloading: return "reloading";
    case ServeStatus::kShutdown: return "shutdown";
    case ServeStatus::kInvalidArgument: return "invalid_argument";
    case ServeStatus::kTransportError: return "transport_error";
  }
  return "unknown";
}

/// Validated narrowing from an untrusted byte (the network protocol
/// carries ServeStatus values on the wire). Returns false when `byte`
/// is not a status a server may legitimately send — undefined values
/// and the client-side kTransportError — leaving `*out` untouched.
inline bool ServeStatusFromByte(std::uint8_t byte, ServeStatus* out) {
  if (byte > static_cast<std::uint8_t>(ServeStatus::kInvalidArgument)) {
    return false;
  }
  *out = static_cast<ServeStatus>(byte);
  return true;
}

/// True for rejections that a bounded retry can reasonably turn into a
/// success. Deadline expiry is not retryable here: the deadline belongs
/// to the caller, who must decide whether a later answer is still
/// useful.
inline bool ServeStatusRetryable(ServeStatus status) {
  return status == ServeStatus::kOverloaded ||
         status == ServeStatus::kReloading;
}

/// Per-request options carried by every serving call.
struct ServeRequestOptions {
  /// Fail the request with kDeadlineExceeded once this many microseconds
  /// have elapsed since submission (admission + queueing + compute).
  /// 0 = no deadline: block until served (the pre-robustness contract).
  std::int64_t deadline_us = 0;
};

/// Query result of TopKSimilar: up to k nodes ordered by descending
/// dot-product score (node id ascending on ties), query node excluded.
struct TopKResult {
  std::vector<std::int64_t> nodes;
  std::vector<float> scores;
};

/// Responses: status + the model generation that produced the answer
/// (0 when the request was never admitted — rejected at the door by
/// admission control or shutdown). Within one generation every
/// served row/score is bit-identical to that generation's offline
/// encode — the tag is what makes that testable across hot reloads.
struct EmbeddingResponse {
  ServeStatus status = ServeStatus::kOk;
  std::uint64_t generation = 0;
  std::vector<float> row;
  bool served() const { return status == ServeStatus::kOk; }
};

struct ScoreResponse {
  ServeStatus status = ServeStatus::kOk;
  std::uint64_t generation = 0;
  float score = 0.0f;
  bool served() const { return status == ServeStatus::kOk; }
};

struct TopKResponse {
  ServeStatus status = ServeStatus::kOk;
  std::uint64_t generation = 0;
  TopKResult result;
  bool served() const { return status == ServeStatus::kOk; }
};

/// Bounded-retry policy for transient rejects (kOverloaded/kReloading):
/// exponential backoff starting at initial_backoff_us, doubling per
/// attempt, capped at max_backoff_us.
struct RetryPolicy {
  int max_attempts = 4;
  std::int64_t initial_backoff_us = 100;
  std::int64_t max_backoff_us = 10000;
  /// Total wall-clock budget across every attempt *and* backoff sleep,
  /// measured from the first call. When the budget would be exceeded by
  /// the next backoff, the helper stops retrying and returns the last
  /// response instead of sleeping into a deadline it cannot meet.
  /// 0 = unbounded (the attempts-only contract).
  std::int64_t total_deadline_us = 0;
};

/// Client helper: calls `fn` (returning any *Response type) up to
/// policy.max_attempts times, sleeping the backoff between attempts,
/// until the status stops being retryable (so terminal rejections —
/// kShutdown, kInvalidArgument, kDeadlineExceeded — are returned after
/// exactly one attempt). Returns the last response.
template <typename Fn>
auto RetryWithBackoff(const RetryPolicy& policy, Fn&& fn) -> decltype(fn()) {
  const auto start = std::chrono::steady_clock::now();
  auto response = fn();
  std::int64_t backoff_us = policy.initial_backoff_us;
  for (int attempt = 1; attempt < policy.max_attempts &&
                        ServeStatusRetryable(response.status);
       ++attempt) {
    if (policy.total_deadline_us > 0) {
      const std::int64_t elapsed_us =
          std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::steady_clock::now() - start)
              .count();
      // Give up rather than start a sleep that lands past the budget:
      // the caller gets the transient status back while there is still
      // time to act on it.
      if (elapsed_us + backoff_us >= policy.total_deadline_us) break;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(backoff_us));
    backoff_us = std::min(policy.max_backoff_us, backoff_us * 2);
    response = fn();
  }
  return response;
}

}  // namespace e2gcl

#endif  // E2GCL_SERVE_SERVE_STATUS_H_
