#pragma once
// Versioned, content-addressed on-disk artifact store: the disk tier
// behind runner::FlowCache.
//
// Each flow-stage artifact (pack, place, route, activity — see
// core/stage_graph.hpp) is one file named <kind>-<16-hex-key>.taf, where
// the key is the stage's chained input hash (spec + seed + arch +
// options, folded through every upstream stage). Files carry the
// util/codec.hpp envelope {magic, codec version, kind, size, checksum};
// a corrupt, truncated, foreign or stale-version file is rejected by the
// envelope check and degrades to a clean cache miss with one warning per
// file — never a crash, and the recomputed artifact overwrites it.
//
// Writes are atomic (temp file + rename), so a killed process never
// leaves a half-written artifact under the final name: a rerun of
// bench_all against the same directory reloads every artifact the killed
// run completed and recomputes only the rest (checkpoint/resume).
//
// Thread-safe: hits/misses/writes are atomics, per-file warning dedup is
// under a mutex, and concurrent save() calls for the same key are
// idempotent (both write identical bytes; rename wins last).

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_set>

namespace taf::runner {

/// Per-thread disk-tier counters, in the mold of spice::thread_counters():
/// the runner snapshots them around each task (TaskCounterScope).
struct ArtifactCounters {
  std::uint64_t disk_hits = 0;
  std::uint64_t disk_misses = 0;
  std::uint64_t disk_writes = 0;

  ArtifactCounters operator-(const ArtifactCounters& rhs) const {
    ArtifactCounters d;
    d.disk_hits = disk_hits - rhs.disk_hits;
    d.disk_misses = disk_misses - rhs.disk_misses;
    d.disk_writes = disk_writes - rhs.disk_writes;
    return d;
  }
};

/// Counters of the calling thread (thread-local; never contended).
ArtifactCounters& thread_artifact_counters();

class ArtifactStore {
 public:
  struct Stats {
    std::uint64_t disk_hits = 0;
    std::uint64_t disk_misses = 0;   ///< includes rejected (corrupt) files
    std::uint64_t disk_writes = 0;
    std::uint64_t disk_errors = 0;   ///< rejected files (subset of misses)
  };

  /// Opens (and creates, if needed) the store directory. Throws
  /// std::runtime_error when the directory cannot be created.
  explicit ArtifactStore(std::string root);
  ArtifactStore(const ArtifactStore&) = delete;
  ArtifactStore& operator=(const ArtifactStore&) = delete;

  /// Store rooted at $TAF_ARTIFACT_DIR, or nullptr when the variable is
  /// unset/empty (the disk tier is opt-in).
  static std::unique_ptr<ArtifactStore> from_env();

  const std::string& root() const { return root_; }

  /// Fetch the payload stored under (kind, key). Returns false on a
  /// miss; a present-but-invalid file (truncated, corrupt, version or
  /// kind mismatch) warns once per file, counts as disk_errors + a miss,
  /// and returns false.
  bool load(std::string_view kind, std::uint64_t key, std::string& payload);

  /// Atomically store a payload under (kind, key), wrapping it in the
  /// codec envelope. IO failures warn and are otherwise ignored (the
  /// store is a cache, not a system of record).
  void save(std::string_view kind, std::uint64_t key, std::string_view payload);

  Stats stats() const;

 private:
  std::string path_for(std::string_view kind, std::uint64_t key) const;
  void warn_once(const std::string& path, const char* what);

  std::string root_;
  mutable std::mutex warned_mutex_;
  std::unordered_set<std::string> warned_;  // guarded by warned_mutex_
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> writes_{0};
  std::atomic<std::uint64_t> errors_{0};
};

}  // namespace taf::runner
