#include "runner/artifact_store.hpp"

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "util/codec.hpp"
#include "util/log.hpp"

namespace taf::runner {

namespace fs = std::filesystem;

ArtifactCounters& thread_artifact_counters() {
  thread_local ArtifactCounters counters;
  return counters;
}

ArtifactStore::ArtifactStore(std::string root) : root_(std::move(root)) {
  std::error_code ec;
  fs::create_directories(root_, ec);
  if (ec || !fs::is_directory(root_)) {
    throw std::runtime_error("ArtifactStore: cannot create directory '" + root_ +
                             "': " + ec.message());
  }
}

std::string ArtifactStore::path_for(std::string_view kind, std::uint64_t key) const {
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx", static_cast<unsigned long long>(key));
  std::string path = root_;
  path += '/';
  path.append(kind);
  path += '-';
  path += hex;
  path += ".taf";
  return path;
}

void ArtifactStore::warn_once(const std::string& path, const char* what) {
  {
    const std::lock_guard<std::mutex> lock(warned_mutex_);
    if (!warned_.insert(path).second) return;
  }
  util::log_warn("artifact store: rejecting %s (%s); treating as cache miss",
                 path.c_str(), what);
}

bool ArtifactStore::load(std::string_view kind, std::uint64_t key,
                         std::string& payload) {
  const std::string path = path_for(kind, key);
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    ++thread_artifact_counters().disk_misses;
    return false;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  if (!in.good() && !in.eof()) {
    warn_once(path, "read error");
    errors_.fetch_add(1, std::memory_order_relaxed);
    misses_.fetch_add(1, std::memory_order_relaxed);
    ++thread_artifact_counters().disk_misses;
    return false;
  }
  const std::string file = buf.str();  // unwrap returns a view into this
  try {
    payload = std::string(util::codec::unwrap(file, kind));
  } catch (const util::codec::Error& e) {
    warn_once(path, e.what());
    errors_.fetch_add(1, std::memory_order_relaxed);
    misses_.fetch_add(1, std::memory_order_relaxed);
    ++thread_artifact_counters().disk_misses;
    return false;
  }
  hits_.fetch_add(1, std::memory_order_relaxed);
  ++thread_artifact_counters().disk_hits;
  return true;
}

void ArtifactStore::save(std::string_view kind, std::uint64_t key,
                         std::string_view payload) {
  const std::string path = path_for(kind, key);
  // Unique temp name per writer: concurrent saves of the same key write
  // identical bytes, and whichever rename lands last wins.
  static std::atomic<std::uint64_t> temp_seq{0};
  const std::string tmp =
      path + ".tmp" + std::to_string(temp_seq.fetch_add(1, std::memory_order_relaxed));
  const std::string file = util::codec::wrap(kind, payload);
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    out.write(file.data(), static_cast<std::streamsize>(file.size()));
    if (!out.good()) {
      util::log_warn("artifact store: write to %s failed; artifact not stored",
                     tmp.c_str());
      std::error_code ec;
      fs::remove(tmp, ec);
      return;
    }
  }
  std::error_code ec;
  fs::rename(tmp, path, ec);
  if (ec) {
    util::log_warn("artifact store: rename %s -> %s failed (%s); artifact not stored",
                   tmp.c_str(), path.c_str(), ec.message().c_str());
    fs::remove(tmp, ec);
    return;
  }
  writes_.fetch_add(1, std::memory_order_relaxed);
  ++thread_artifact_counters().disk_writes;
}

ArtifactStore::Stats ArtifactStore::stats() const {
  Stats s;
  s.disk_hits = hits_.load(std::memory_order_relaxed);
  s.disk_misses = misses_.load(std::memory_order_relaxed);
  s.disk_writes = writes_.load(std::memory_order_relaxed);
  s.disk_errors = errors_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace taf::runner
