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

const coffe::Characterizer& FlowCache::characterizer(const tech::Technology& tech,
                                                     const arch::ArchParams& arch) {
  Hasher h;
  h.add(tech_hash(tech));
  h.add(arch_hash(arch));
  return *characterizers_.get_or_build(
      h.state, [&] { return std::make_unique<coffe::Characterizer>(tech, arch); });
}

const coffe::DeviceModel& FlowCache::device(const tech::Technology& tech,
                                            const arch::ArchParams& arch,
                                            double t_opt_c) {
  Hasher h;
  h.add(tech_hash(tech));
  h.add(arch_hash(arch));
  h.add(quantize_t_opt(t_opt_c));
  return *devices_.get_or_build(
      h.state,
      [&] {
        const coffe::Characterizer& ch = characterizer(tech, arch);
        return std::make_unique<coffe::DeviceModel>(
            ch.characterize(units::Celsius{t_opt_c}));
      },
      &device_hits_, &device_misses_);
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
  return *impls_.get_or_build(key, [&] {
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
  }, &impl_hits_, &impl_misses_);
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
  characterizers_.clear();
  devices_.clear();
  impls_.clear();
  device_hits_ = 0;
  device_misses_ = 0;
  impl_hits_ = 0;
  impl_misses_ = 0;
}

}  // namespace taf::runner
