#include "runner/flow_cache.hpp"

#include <cmath>
#include <string>

#include "core/stage_graph.hpp"
#include "runner/artifact_store.hpp"
#include "util/hash.hpp"

namespace taf::runner {

// The cache's field combiner is the shared util::Fnv1a; spec and arch
// hashing live next to their structs (netlist::spec_hash,
// arch::params_hash) so the field lists cannot drift from the hashes.
using util::Fnv1a;
using Hasher = Fnv1a;

std::uint64_t arch_hash(const arch::ArchParams& arch) { return arch::params_hash(arch); }

std::uint64_t tech_hash(const tech::Technology& tech) {
  Hasher h;
  h.add(tech.vdd);
  h.add(tech.vdd_lp);
  h.add(tech.lmin_um);
  for (int f = 0; f < tech::kNumFlavors; ++f) {
    const tech::MosfetParams& m = tech.flavors[f];
    h.add(m.vth0);
    h.add(m.vth_tc);
    h.add(m.mu_exp);
    h.add(m.alpha);
    h.add(m.k_drive);
    h.add(m.i_off25);
    h.add(m.lkg_tc);
    h.add(m.c_gate);
    h.add(m.c_drain);
  }
  h.add(tech.wire_r_per_um25);
  h.add(tech.wire_r_tc);
  h.add(tech.wire_c_per_um);
  return h.state;
}

std::int64_t FlowCache::quantize_t_opt(double t_opt_c) {
  return std::llround(t_opt_c * 1000.0);
}

FlowCache& FlowCache::global() {
  static FlowCache cache;
  return cache;
}

template <typename V, typename Build>
const V& FlowCache::get_or_build(
    std::unordered_map<std::uint64_t, std::unique_ptr<Slot<V>>>& map, std::uint64_t key,
    std::atomic<std::uint64_t>* hits, std::atomic<std::uint64_t>* misses,
    const Build& build) {
  Slot<V>* slot = nullptr;
  bool builder = false;
  {
    std::lock_guard<std::mutex> lock(map_mutex_);
    auto& entry = map[key];
    if (entry == nullptr) {
      entry = std::make_unique<Slot<V>>();
      builder = true;
    }
    slot = entry.get();
  }
  if (builder) {
    if (misses != nullptr) misses->fetch_add(1, std::memory_order_relaxed);
    std::unique_ptr<V> value;
    std::exception_ptr error;
    try {
      value = build();
    } catch (...) {
      error = std::current_exception();
    }
    {
      std::lock_guard<std::mutex> lock(slot->mutex);
      slot->value = std::move(value);
      slot->error = error;
      slot->ready = true;
    }
    slot->ready_cv.notify_all();
  } else {
    if (hits != nullptr) hits->fetch_add(1, std::memory_order_relaxed);
  }
  std::unique_lock<std::mutex> lock(slot->mutex);
  slot->ready_cv.wait(lock, [slot] { return slot->ready; });
  if (slot->error) std::rethrow_exception(slot->error);
  return *slot->value;
}

const coffe::Characterizer& FlowCache::characterizer(const tech::Technology& tech,
                                                     const arch::ArchParams& arch) {
  Hasher h;
  h.add(tech_hash(tech));
  h.add(arch_hash(arch));
  return get_or_build(characterizers_, h.state, nullptr, nullptr, [&] {
    return std::make_unique<coffe::Characterizer>(tech, arch);
  });
}

const coffe::DeviceModel& FlowCache::device(const tech::Technology& tech,
                                            const arch::ArchParams& arch,
                                            double t_opt_c) {
  Hasher h;
  h.add(tech_hash(tech));
  h.add(arch_hash(arch));
  h.add(quantize_t_opt(t_opt_c));
  return get_or_build(devices_, h.state, &device_hits_, &device_misses_, [&] {
    const coffe::Characterizer& ch = characterizer(tech, arch);
    return std::make_unique<coffe::DeviceModel>(
        ch.characterize(units::Celsius{t_opt_c}));
  });
}

const core::Implementation& FlowCache::implementation(const netlist::BenchmarkSpec& spec,
                                                      const arch::ArchParams& arch,
                                                      double scale,
                                                      const core::ImplementOptions& opt) {
  // The stage graph owns implementation identity: its final stage's
  // chained input hash covers every option that shapes any stage, and
  // the scaled spec's hash covers the scale.
  const netlist::BenchmarkSpec scaled = netlist::scaled(spec, scale);
  const std::uint64_t key =
      core::FlowGraph::standard(scaled, arch, opt).stages().back().input_hash;
  return get_or_build(impls_, key, &impl_hits_, &impl_misses_, [&] {
    // Disk tier: consulted only here, inside a build — i.e. only after an
    // in-memory miss — keyed per stage by the stage graph's chained input
    // hash. A caller-supplied stage_hooks takes precedence.
    ArtifactStore* store = store_.load(std::memory_order_acquire);
    core::ImplementOptions iopt = opt;
    core::StageHooks hooks;
    if (store != nullptr && iopt.stage_hooks == nullptr) {
      hooks.fetch = [store](const core::FlowStage& s, std::string& payload) {
        return store->load(s.name, s.input_hash, payload);
      };
      hooks.store = [store](const core::FlowStage& s, const std::string& payload) {
        store->save(s.name, s.input_hash, payload);
      };
      iopt.stage_hooks = &hooks;
    }
    return core::implement(scaled, arch, iopt);
  });
}

FlowCache::Stats FlowCache::stats() const {
  Stats s;
  s.device_hits = device_hits_.load(std::memory_order_relaxed);
  s.device_misses = device_misses_.load(std::memory_order_relaxed);
  s.impl_hits = impl_hits_.load(std::memory_order_relaxed);
  s.impl_misses = impl_misses_.load(std::memory_order_relaxed);
  if (const ArtifactStore* store = store_.load(std::memory_order_acquire)) {
    const ArtifactStore::Stats d = store->stats();
    s.disk_hits = d.disk_hits;
    s.disk_misses = d.disk_misses;
    s.disk_writes = d.disk_writes;
    s.disk_errors = d.disk_errors;
  }
  return s;
}

void FlowCache::clear() {
  std::lock_guard<std::mutex> lock(map_mutex_);
  characterizers_.clear();
  devices_.clear();
  impls_.clear();
  device_hits_ = 0;
  device_misses_ = 0;
  impl_hits_ = 0;
  impl_misses_ = 0;
}

}  // namespace taf::runner
