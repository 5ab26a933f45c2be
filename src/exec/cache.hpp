// Content-addressed on-disk result cache for simulation cases.
//
// A cache entry maps a *key string* — the full reproducible description of a
// case: its config repro string, the machine preset fingerprint, and the
// code-version salt — to an opaque payload (the case's serialized result).
// Keys are hashed (2 x 64-bit FNV-1a lanes) into the file name; the full key
// is stored as the entry's first line and compared on load, so a hash
// collision degrades to a miss, never to a wrong result.
//
// Entries are written to a unique temp file and atomically renamed into
// place, so concurrent cases (and concurrent processes) can share one cache
// directory without torn or partial entries.
//
// Invalidation is by key content only: bump kCacheSalt whenever a change to
// the simulator, the collectives, or the model alters any simulated
// observable — every old entry then misses and is re-simulated.
//
// A long-running process (the what-if query service) can optionally cap the
// on-disk footprint: with `max_bytes` set, a store that pushes the cache past
// the cap triggers oldest-first pruning (by entry write time; ties broken by
// path so concurrent processes prune the same victims). Pruning removes whole
// entry files — the same atomicity unit as the temp+rename writes — so a
// reader racing a prune sees a miss, never a torn entry.
//
// Traffic is counted once, process-wide, in the metrics registry:
// `exec.cache_{hits,misses,stores,pruned}` (see src/obs/metrics.hpp).
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>

namespace isoee::sim {
struct MachineSpec;
}

namespace isoee::exec {

/// Code-version salt mixed into every cache key. Bump on any change that
/// alters simulated results (engine timing, collective schedules, energy
/// accounting, kernel numerics, ...).
inline constexpr const char* kCacheSalt = "isoee-exec-v1";

/// Deterministic full-field dump of a machine description, for cache keys.
/// Two specs with any differing field (including noise seed and topology)
/// produce different strings.
std::string machine_fingerprint(const sim::MachineSpec& spec);

class ResultCache {
 public:
  /// Opens (and creates, once, up front) the cache directory. On failure the
  /// cache logs a warning and stays disabled: load always misses, store is a
  /// no-op — callers never have to special-case an unusable cache dir.
  /// `max_bytes` caps the on-disk footprint (0 = unbounded): when a store
  /// pushes past the cap, the oldest entries are pruned until the total fits.
  explicit ResultCache(std::string dir, std::uint64_t max_bytes = 0);

  bool enabled() const { return enabled_; }
  const std::string& dir() const { return dir_; }
  std::uint64_t max_bytes() const { return max_bytes_; }

  /// Returns the payload stored under `key`, or nullopt (miss, corrupt entry,
  /// or key-collision mismatch).
  std::optional<std::string> load(const std::string& key) const;

  /// Stores `payload` under `key` (temp file + atomic rename). Returns false
  /// on I/O failure (logged, non-fatal: the result is simply not reused).
  bool store(const std::string& key, const std::string& payload) const;

  /// Current on-disk footprint estimate (exact after construction and after
  /// every prune; between prunes it grows by this process's stores only, so
  /// concurrent writers may overshoot the cap by one prune cycle).
  std::uint64_t approx_bytes() const { return approx_bytes_.load(); }

 private:
  std::string entry_path(const std::string& key) const;

  /// Rescans the directory and removes oldest entries until the footprint is
  /// back under max_bytes_. Serialized per instance; safe against concurrent
  /// loads/stores (removal is whole-file, a racing reader just misses).
  void prune() const;

  std::string dir_;
  bool enabled_ = false;
  std::uint64_t max_bytes_ = 0;
  mutable std::atomic<std::uint64_t> approx_bytes_{0};
  mutable std::mutex prune_mu_;
};

}  // namespace isoee::exec
