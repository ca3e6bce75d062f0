// Durable side of the per-point warm-up cache (--checkpoint-dir).
//
// Spills each warm-up image to a sim::CheckpointFile and loads it back
// in later processes (or later jobs of the same sweep service).
// Strictly a cache: every failure path — missing file, corruption,
// stale snapshot version, recipe mismatch, write error — degrades to
// rebuilding the warm-up in memory, never to a wrong restore.
//
// Degradation policy: per-FILE problems (corruption, recipe mismatch)
// warn per file and miss; a STORE-level spill failure (read-only or
// full directory) warns exactly once and disables further spill
// attempts for the rest of the run — loads keep working, because a
// read-only directory can still serve hits.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace btsc::runner {

/// A point's warm-up, frozen: the snapshot bytes plus the seed whose
/// construction path produced the system (creation retries can perturb
/// it), which the per-replication scaffold must replay.
struct SystemImage {
  std::vector<std::uint8_t> bytes;
  std::uint64_t construction_seed = 0;
};

/// Process-global counters over every WarmupStore, for service
/// telemetry (warm-cache hit ratio) and tests.
struct WarmupStoreStats {
  std::uint64_t hits = 0;            // try_load served an image
  std::uint64_t misses = 0;          // no file / mismatch / corrupt
  std::uint64_t spills = 0;          // save wrote a checkpoint
  std::uint64_t spill_failures = 0;  // save failed (store disabled)
};
WarmupStoreStats warmup_store_stats();
void reset_warmup_store_stats();

class WarmupStore {
 public:
  WarmupStore(std::string dir, std::string scenario);

  /// The cached image for (point, warm_seed) with a matching recipe, or
  /// nullopt on any miss. A hit touches the file's mtime so LRU
  /// eviction (sweep service --cache-budget) tracks last use.
  std::optional<SystemImage> try_load(
      std::size_t point, std::uint64_t warm_seed,
      const std::vector<std::uint8_t>& config) const;

  /// Spills one warm-up image; never throws. The first failure warns
  /// once (naming the fallback) and disables the store for the rest of
  /// the run — a full or read-only directory must not produce one
  /// warning per point.
  void save(std::size_t point, std::uint64_t warm_seed,
            const std::vector<std::uint8_t>& config,
            const SystemImage& image) const;

  /// True once a spill failure has disabled further saves.
  bool disabled() const { return disabled_.load(std::memory_order_relaxed); }

 private:
  std::string path_for(std::size_t point, std::uint64_t warm_seed) const;

  std::string dir_;
  std::string scenario_;
  mutable std::atomic<bool> disabled_{false};
  mutable std::once_flag warn_once_;
};

}  // namespace btsc::runner
