#ifndef E2GCL_OBS_RESOURCE_H_
#define E2GCL_OBS_RESOURCE_H_

#include <cstdint>

namespace e2gcl {

/// Process resource sampling for the scale-out memory story.
///
/// PeakRssBytes() is the process-LIFETIME high-water mark (VmHWM): it
/// never decreases, so a phase that wants a clean peak measurement must
/// run in its own process (bench_scale generates the graph store and
/// trains in two separate processes for exactly this reason).

/// Peak resident-set size of the calling process in bytes, from
/// /proc/self/status VmHWM, falling back to getrusage(ru_maxrss).
/// Returns 0 when neither source is available.
std::int64_t PeakRssBytes();

/// Current resident-set size in bytes (/proc/self/status VmRSS;
/// 0 when unavailable).
std::int64_t CurrentRssBytes();

/// Samples PeakRssBytes() into the `process.peak_rss_bytes` gauge
/// (atomic max, so repeated samples only ever raise it). Gauges are
/// excluded from determinism comparisons, which is exactly right for a
/// scheduling- and allocator-dependent quantity.
void RecordPeakRssGauge();

}  // namespace e2gcl

#endif  // E2GCL_OBS_RESOURCE_H_
