#ifndef E2GCL_SERVE_LRU_CACHE_H_
#define E2GCL_SERVE_LRU_CACHE_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/thread_annotations.h"
#include "io/serialize.h"
#include "tensor/check.h"

namespace e2gcl {

/// LRU cache for lazily-computed embedding rows, keyed by node id: one
/// recency list plus an unordered index into it. The EmbeddingServer
/// reads and writes it only on its flusher thread; the mutex lets other
/// threads inspect it (Size, Contains) while it serves. The cache
/// stores *values* (copies in, copies out) — callers never see
/// references into the cache, so eviction can never invalidate a served
/// row.
///
/// Every entry carries a CRC32 of its row bytes, computed at Put time
/// and re-verified on Get: a corrupted entry (bit rot, stray write) is
/// dropped and reported as a miss, so the caller recomputes the row
/// instead of serving garbage. Detections are counted in
/// `corrupt_dropped()` and the `serve.cache.corrupt_dropped` counter.
class RowCache {
 public:
  /// Holds at most `capacity` (>= 1) rows.
  explicit RowCache(std::int64_t capacity) : capacity_(capacity) {
    E2GCL_CHECK(capacity >= 1);
  }

  RowCache(const RowCache&) = delete;
  RowCache& operator=(const RowCache&) = delete;

  /// Copies the cached row for `node` into `*out` and marks it most
  /// recently used. Returns false (leaving `*out` untouched) on a miss
  /// or when the entry fails its checksum (the entry is dropped so the
  /// caller's recompute repairs the cache).
  bool Get(std::int64_t node, std::vector<float>* out) {
    MutexLock lock(mu_);
    const auto it = index_.find(node);
    if (it == index_.end()) {
      misses_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    if (RowCrc(it->second->row) != it->second->crc) {
      lru_.erase(it->second);
      index_.erase(it);
      corrupt_dropped_.fetch_add(1, std::memory_order_relaxed);
      misses_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    lru_.splice(lru_.begin(), lru_, it->second);
    *out = it->second->row;
    hits_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }

  /// Inserts (or refreshes) the row for `node`, evicting the
  /// least-recently-used entry when the cache is full.
  void Put(std::int64_t node, std::vector<float> row) {
    const std::uint32_t crc = RowCrc(row);
    MutexLock lock(mu_);
    const auto it = index_.find(node);
    if (it != index_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);
      it->second->row = std::move(row);
      it->second->crc = crc;
      return;
    }
    lru_.push_front(Entry{node, std::move(row), crc});
    index_.emplace(node, lru_.begin());
    if (static_cast<std::int64_t>(lru_.size()) > capacity_) {
      index_.erase(lru_.back().node);
      lru_.pop_back();
    }
  }

  /// Test-only: flips one byte of the cached row for `node` (checksum
  /// left stale) to plant the corruption the next Get must detect.
  /// Returns false when the node is not cached or its row is empty.
  bool CorruptEntryForTest(std::int64_t node) {
    MutexLock lock(mu_);
    const auto it = index_.find(node);
    if (it == index_.end() || it->second->row.empty()) return false;
    auto* bytes = reinterpret_cast<unsigned char*>(it->second->row.data());
    bytes[0] = static_cast<unsigned char>(bytes[0] ^ 0x5a);
    return true;
  }

  /// True iff `node` is currently cached (no recency update, no
  /// checksum verification; test/debug).
  bool Contains(std::int64_t node) const {
    MutexLock lock(mu_);
    return index_.find(node) != index_.end();
  }

  /// Rows currently cached.
  std::int64_t Size() const {
    MutexLock lock(mu_);
    return static_cast<std::int64_t>(lru_.size());
  }

  std::uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  std::uint64_t misses() const {
    return misses_.load(std::memory_order_relaxed);
  }
  /// Entries dropped because their stored CRC no longer matched.
  std::uint64_t corrupt_dropped() const {
    return corrupt_dropped_.load(std::memory_order_relaxed);
  }

 private:
  struct Entry {
    std::int64_t node;
    std::vector<float> row;
    std::uint32_t crc;
  };

  static std::uint32_t RowCrc(const std::vector<float>& row) {
    return Crc32(row.data(), row.size() * sizeof(float));
  }

  const std::int64_t capacity_;
  mutable Mutex mu_;
  /// Front = most recently used. The index maps node id -> list node.
  std::list<Entry> lru_ E2GCL_GUARDED_BY(mu_);
  std::unordered_map<std::int64_t, std::list<Entry>::iterator> index_
      E2GCL_GUARDED_BY(mu_);
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> corrupt_dropped_{0};
};

}  // namespace e2gcl

#endif  // E2GCL_SERVE_LRU_CACHE_H_
