#pragma once
// Thread-safe, process-wide cache of the expensive flow artifacts:
// characterizers, characterized device models, and implemented (packed/
// placed/routed) benchmarks. Concurrent sweep tasks — and the different
// experiments of one bench_all run — share work instead of redoing it.
//
// Keys:
//  * characterizers: {tech-hash, arch-hash}
//  * device models:  {tech-hash, arch-hash, quantize_t_opt(t_opt_c)} —
//    the corner is quantized to millidegrees, never compared as a raw
//    double (26.999999999 and 27.0 hit the same entry)
//  * implementations: the final stage's chained input_hash of
//    core::FlowGraph::standard(scaled spec, arch, options) — the stage
//    graph is the one place that says which options shape a build
//
// Entries are built exactly once: concurrent requests for the same key
// block until the first builder finishes, requests for different keys
// build in parallel. Entries are heap-pinned and never evicted, so the
// returned references stay valid for the cache's lifetime.

#include <atomic>
#include <cstdint>
#include <memory>

#include "coffe/device_model.hpp"
#include "core/flow.hpp"
#include "netlist/benchmarks.hpp"
#include "util/build_once_map.hpp"
#include "tech/technology.hpp"

namespace taf::runner {

class ArtifactStore;

/// Order-sensitive FNV-1a style hash of the architecture parameters.
std::uint64_t arch_hash(const arch::ArchParams& arch);
/// Hash of the technology corner.
std::uint64_t tech_hash(const tech::Technology& tech);

class FlowCache {
 public:
  struct Stats {
    std::uint64_t device_hits = 0;
    std::uint64_t device_misses = 0;
    std::uint64_t impl_hits = 0;
    std::uint64_t impl_misses = 0;
    // Disk tier (all zero when no artifact store is attached). These are
    // per-*stage* counters — one implementation build probes up to five
    // storable stages — and are only ever incremented inside a build, so
    // an in-memory hit never touches them (no double counting).
    std::uint64_t disk_hits = 0;
    std::uint64_t disk_misses = 0;
    std::uint64_t disk_writes = 0;
    std::uint64_t disk_errors = 0;
  };

  FlowCache() = default;
  FlowCache(const FlowCache&) = delete;
  FlowCache& operator=(const FlowCache&) = delete;

  /// The process-wide instance shared by the bench_all experiments.
  static FlowCache& global();

  /// Millidegree quantization of a device design corner.
  static std::int64_t quantize_t_opt(double t_opt_c);

  /// Characterizer for a technology/architecture pair (its constructor
  /// synthesizes the calibration reference, so it is worth sharing).
  const coffe::Characterizer& characterizer(const tech::Technology& tech,
                                            const arch::ArchParams& arch);

  /// Characterized device model for a design corner.
  const coffe::DeviceModel& device(const tech::Technology& tech,
                                   const arch::ArchParams& arch, double t_opt_c);

  /// Implemented benchmark at `scale`. `opt.observer` (if any) only fires
  /// for the call that actually builds the entry; cache hits are silent.
  /// Throws std::invalid_argument for a feedback-edge request without a
  /// device (see core::ThermalPlaceOptions).
  /// When an artifact store is attached and `opt.stage_hooks` is unset,
  /// the build consults the disk tier stage by stage.
  const core::Implementation& implementation(const netlist::BenchmarkSpec& spec,
                                             const arch::ArchParams& arch,
                                             double scale,
                                             const core::ImplementOptions& opt = {});

  /// Attach (or detach, with nullptr) the disk tier. Not owned; must
  /// outlive the cache's use. The disk tier is consulted only inside
  /// implementation() builds — i.e. only after an in-memory miss — so
  /// in-memory hit/miss accounting is unchanged by attaching a store.
  void set_artifact_store(ArtifactStore* store) { store_ = store; }
  ArtifactStore* artifact_store() const { return store_; }

  Stats stats() const;

  /// Drop all entries and reset the counters. Invalidates every reference
  /// previously returned — test/tooling use only.
  void clear();

 private:
  /// Keys are 64-bit hashes of program-derived inputs, never client
  /// bytes. Each builder returns its artifact on the heap (an
  /// Implementation is never copied or moved).
  template <typename V>
  using Cache = util::BuildOnceMap<std::uint64_t, std::unique_ptr<V>>;

  Cache<coffe::Characterizer> characterizers_;
  Cache<coffe::DeviceModel> devices_;
  Cache<core::Implementation> impls_;

  std::atomic<std::uint64_t> device_hits_{0};
  std::atomic<std::uint64_t> device_misses_{0};
  std::atomic<std::uint64_t> impl_hits_{0};
  std::atomic<std::uint64_t> impl_misses_{0};

  std::atomic<ArtifactStore*> store_{nullptr};  // not owned
};

}  // namespace taf::runner
