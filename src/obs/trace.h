#ifndef E2GCL_OBS_TRACE_H_
#define E2GCL_OBS_TRACE_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.h"  // ObsEnabled / SetObsEnabled

namespace e2gcl {

/// One aggregated node of the span tree, flattened to a '/'-joined path
/// (e.g. "train/epoch/views"). `count` is the number of completed spans
/// at this position; `seconds` their summed wall time (steady clock).
struct SpanSnapshot {
  std::string path;
  std::uint64_t count = 0;
  double seconds = 0.0;
};

/// Process-wide span-tree registry. Nodes are keyed (parent, name) and
/// permanent for the process lifetime; totals can be zeroed with
/// ResetValuesForTest(). Aggregation is per-node integer nanosecond
/// sums, so merged totals do not depend on completion order.
///
/// Locking: one annotated internal mutex (core/thread_annotations.h)
/// guards the tree *shape*; per-node totals are relaxed atomics, so
/// completing a span never takes a lock.
class TraceRegistry {
 public:
  /// Opaque state; defined in trace.cc (public so that file's helper
  /// functions can name it).
  struct Impl;

  static TraceRegistry& Get();

  /// Pre-order flattening of the tree (children in creation order).
  std::vector<SpanSnapshot> Snapshot() const;

  /// Zeroes all counts/durations; the tree structure survives.
  /// Test-only: must not race with concurrent span completion.
  void ResetValuesForTest();

 private:
  friend class TraceSpan;
  TraceRegistry();
  Impl* impl_;
};

/// RAII scoped timer. Nesting is tracked per thread: a span constructed
/// while another span on the same thread is open becomes its child in
/// the tree. When observability is disabled the constructor returns
/// after one relaxed load — no clock read, no lock, no allocation.
///
///   {
///     TraceSpan span("epoch");
///     ...
///   }  // duration recorded here
class TraceSpan {
 public:
  explicit TraceSpan(const char* name);
  ~TraceSpan();

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  void* node_ = nullptr;    // TraceRegistry::Impl::Node*; null when disabled
  void* parent_ = nullptr;  // previous thread-local current span node
  std::int64_t start_ns_ = 0;
};

/// Wall seconds (steady clock) elapsed since `t0`.
inline double SecondsSince(const std::chrono::steady_clock::time_point& t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace e2gcl

#endif  // E2GCL_OBS_TRACE_H_
