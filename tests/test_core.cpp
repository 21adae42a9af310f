// Tests for the core contribution: the guardbanding flow (Algorithm 1),
// the power model, and Eq. (1) grade selection.

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>
#include <limits>
#include <string_view>
#include <utility>
#include <vector>

#include "core/flow.hpp"
#include "reference_guardband.hpp"
#include "runner/artifact_store.hpp"
#include "runner/flow_cache.hpp"
#include "temp_dir.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace {

using namespace taf;

const arch::ArchParams& test_arch() {
  static const arch::ArchParams a = arch::scaled_arch();
  return a;
}

const coffe::Characterizer& characterizer() {
  static const coffe::Characterizer ch(tech::ptm22(), test_arch());
  return ch;
}

constexpr double kSuiteScale = 1.0 / 16;

netlist::BenchmarkSpec suite_spec(std::string_view name) {
  netlist::BenchmarkSpec spec;
  for (const auto& s : netlist::vtr_suite()) {
    if (s.name == name) spec = s;
  }
  return spec;
}

const core::Implementation& sha_impl() {
  static const auto impl =
      core::implement(netlist::scaled(suite_spec("sha"), kSuiteScale), test_arch());
  return *impl;
}

const core::Implementation& stereovision0_impl() {
  static const auto impl =
      core::implement(netlist::scaled(suite_spec("stereovision0"), kSuiteScale), test_arch());
  return *impl;
}

TEST(Power, LeakageGrowsWithTemperature) {
  const auto dev = characterizer().characterize(units::Celsius(25.0));
  const double cold =
      power::tile_leakage(dev, arch::TileKind::Clb, test_arch(), units::Celsius(0.0)).value();
  const double hot =
      power::tile_leakage(dev, arch::TileKind::Clb, test_arch(), units::Celsius(100.0)).value();
  EXPECT_GT(hot, 2.0 * cold);
}

TEST(Power, FabricTilesLeakMoreThanIoTiles) {
  // IO tiles carry only the routing inventory; logic and hard-block
  // tiles add their cores on top.
  const auto dev = characterizer().characterize(units::Celsius(25.0));
  const double io = power::tile_leakage(dev, arch::TileKind::Io, test_arch(), units::Celsius(25.0)).value();
  EXPECT_GT(io, 0.0);
  for (auto k : {arch::TileKind::Clb, arch::TileKind::Bram, arch::TileKind::Dsp}) {
    EXPECT_GT(power::tile_leakage(dev, k, test_arch(), units::Celsius(25.0)).value(), io);
  }
}

TEST(Power, DynamicScalesWithFrequency) {
  const auto& impl = sha_impl();
  const auto dev = characterizer().characterize(units::Celsius(25.0));
  const std::vector<double> temps(static_cast<std::size_t>(impl.grid.num_tiles()), 25.0);
  const auto p100 =
      power::compute_power(dev, impl.nl, impl.packed, impl.placement, impl.rr,
                           impl.routes, impl.activity, units::Megahertz(100.0), temps, impl.grid);
  const auto p200 =
      power::compute_power(dev, impl.nl, impl.packed, impl.placement, impl.rr,
                           impl.routes, impl.activity, units::Megahertz(200.0), temps, impl.grid);
  EXPECT_NEAR(p200.dynamic_w.value(), 2.0 * p100.dynamic_w.value(), 1e-9);
  EXPECT_NEAR(p200.leakage_w.value(), p100.leakage_w.value(), 1e-12);  // leakage is f-independent
}

TEST(Power, TilePowersSumToTotals) {
  const auto& impl = sha_impl();
  const auto dev = characterizer().characterize(units::Celsius(25.0));
  const std::vector<double> temps(static_cast<std::size_t>(impl.grid.num_tiles()), 25.0);
  const auto p =
      power::compute_power(dev, impl.nl, impl.packed, impl.placement, impl.rr,
                           impl.routes, impl.activity, units::Megahertz(150.0), temps, impl.grid);
  double sum = 0.0;
  for (double w : p.tile_w) sum += w;
  EXPECT_NEAR(sum, p.total_w().value(), 1e-9);
  EXPECT_GT(p.leakage_w.value(), 0.0);
  EXPECT_GT(p.dynamic_w.value(), 0.0);
}

/// compute_power without its leakage memo: tile_leakage evaluated at
/// every tile; then every dynamic term's activity summed per (tile, kind)
/// in term order, and each tile's sums priced in kind order. The block
/// terms are also binned by block, the way block_dynamic_power bins them.
struct ReferencePower {
  power::PowerBreakdown map;
  std::vector<double> block_w;
};

ReferencePower reference_power(const coffe::DeviceModel& dev,
                               const core::Implementation& impl, units::Megahertz f,
                               const std::vector<double>& temps) {
  using coffe::ResourceKind;
  ReferencePower ref;
  power::PowerBreakdown& r = ref.map;
  r.tile_w.assign(temps.size(), 0.0);
  ref.block_w.assign(impl.packed.blocks.size(), 0.0);
  for (int y = 0; y < impl.grid.height(); ++y) {
    for (int x = 0; x < impl.grid.width(); ++x) {
      const auto i = static_cast<std::size_t>(impl.grid.index_of(x, y));
      const double w =
          power::tile_leakage(dev, impl.grid.at(x, y), dev.arch, units::Celsius{temps[i]})
              .value() *
          1e-6;
      r.tile_w[i] += w;
      r.leakage_w += units::Watts{w};
    }
  }
  std::vector<std::array<double, coffe::kNumResourceKinds>> activity(temps.size());
  auto add = [&](arch::TilePos pos, ResourceKind k, double a) {
    activity[static_cast<std::size_t>(impl.grid.index_of(pos))]
            [static_cast<std::size_t>(k)] += a;
  };
  auto density = [&](netlist::NetId n) {
    return n >= 0 && n < static_cast<netlist::NetId>(impl.activity.size())
               ? impl.activity[static_cast<std::size_t>(n)].density
               : 0.0;
  };
  for (netlist::PrimId id = 0; id < static_cast<netlist::PrimId>(impl.nl.prims().size());
       ++id) {
    const auto& p = impl.nl.prim(id);
    const int block = impl.packed.block_of_prim[static_cast<std::size_t>(id)];
    if (block < 0) continue;
    auto add_block = [&](ResourceKind k, double a) {
      add(impl.placement.pos[static_cast<std::size_t>(block)], k, a);
      ref.block_w[static_cast<std::size_t>(block)] += dev.dyn_power(k, f, a).value() * 1e-6;
    };
    const double alpha = p.output != netlist::kNoNet ? density(p.output) : 0.0;
    if (p.kind == netlist::PrimKind::Lut) {
      add_block(ResourceKind::Lut, alpha);
      double in_alpha = 0.0;
      for (netlist::NetId in : p.inputs)
        if (in != netlist::kNoNet) in_alpha += density(in);
      add_block(ResourceKind::LocalMux, in_alpha);
      add_block(ResourceKind::OutputMux, alpha);
    } else if (p.kind == netlist::PrimKind::Bram) {
      add_block(ResourceKind::Bram, 0.5 + alpha);
    } else if (p.kind == netlist::PrimKind::Dsp) {
      add_block(ResourceKind::Dsp, 0.25 + 0.5 * alpha);
    }
  }
  for (std::size_t bn = 0; bn < impl.packed.block_nets.size(); ++bn) {
    const double alpha = density(impl.packed.block_nets[bn].net);
    for (route::RrNodeId n : impl.routes.routes[bn].nodes) {
      const route::RrNode& node = impl.rr.node(n);
      if (node.kind == route::RrKind::WireH || node.kind == route::RrKind::WireV) {
        add(node.tile, ResourceKind::SbMux, alpha);
      } else if (node.kind == route::RrKind::Ipin) {
        add(node.tile, ResourceKind::CbMux, alpha);
      }
    }
  }
  for (std::size_t t = 0; t < temps.size(); ++t) {
    double w = 0.0;
    for (const ResourceKind k : coffe::all_resource_kinds()) {
      w += dev.dyn_power(k, f, 1.0).value() * 1e-6 * activity[t][static_cast<std::size_t>(k)];
    }
    r.tile_w[t] += w;
    r.dynamic_w += units::Watts{w};
  }
  return ref;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

void expect_same_bits(const power::PowerBreakdown& got, const power::PowerBreakdown& want) {
  ASSERT_EQ(got.tile_w.size(), want.tile_w.size());
  for (std::size_t i = 0; i < want.tile_w.size(); ++i) {
    ASSERT_EQ(bits(got.tile_w[i]), bits(want.tile_w[i])) << "tile " << i;
  }
  EXPECT_EQ(bits(got.dynamic_w.value()), bits(want.dynamic_w.value()));
  EXPECT_EQ(bits(got.leakage_w.value()), bits(want.leakage_w.value()));
}

TEST(Power, MatchesPerTileReferenceBitForBit) {
  // compute_power reuses a tile kind's leakage while its temperature is
  // unchanged; that must be invisible in every output bit. The NaN tile
  // comes first in scan order, where a memo that matched NaN bit patterns
  // would hand back its empty initial value instead of NaN. The one-shot
  // path, the implementation's stored activity maps and the per-block bins
  // must all reproduce the reference's sums.
  const auto& impl = sha_impl();
  const auto dev = characterizer().characterize(units::Celsius(25.0));
  const auto n = static_cast<std::size_t>(impl.grid.num_tiles());
  util::Rng rng(0x9071);
  std::vector<double> random(n);
  for (double& t : random) t = rng.uniform(25.0, 95.0);
  std::vector<double> shared(n);
  for (std::size_t i = 0; i < n; ++i) shared[i] = 40.0 + 5.0 * static_cast<double>(i % 3);
  shared[static_cast<std::size_t>(impl.grid.index_of(0, 0))] =
      std::numeric_limits<double>::quiet_NaN();
  const std::vector<std::pair<const char*, std::vector<double>>> maps = {
      {"uniform", std::vector<double>(n, 45.0)}, {"random", random}, {"shared+nan", shared}};
  for (const auto& [name, temps] : maps) {
    SCOPED_TRACE(name);
    const units::Megahertz f(180.0);
    const ReferencePower want = reference_power(dev, impl, f, temps);
    {
      SCOPED_TRACE("one-shot");
      expect_same_bits(power::compute_power(dev, impl.nl, impl.packed, impl.placement, impl.rr,
                                            impl.routes, impl.activity, f, temps, impl.grid),
                       want.map);
    }
    {
      SCOPED_TRACE("stored activity maps");
      expect_same_bits(power::compute_power(dev, impl.tile_activity, f, temps, impl.grid),
                       want.map);
    }
    const std::vector<double> block_w =
        power::block_dynamic_power(dev, impl.nl, impl.packed, impl.activity, f);
    ASSERT_EQ(block_w.size(), want.block_w.size());
    for (std::size_t b = 0; b < block_w.size(); ++b) {
      ASSERT_EQ(bits(block_w[b]), bits(want.block_w[b])) << "block " << b;
    }
  }
}

TEST(Power, UniformMapIsTheBasisCombination) {
  // At a uniform temperature the power map is the combination of the unit
  // maps that first_solve_start superposes, bit for bit: the dynamic sum
  // runs in the same kind order, and the other tile kinds' indicator terms
  // add exact zeros.
  const auto dev = characterizer().characterize(units::Celsius(25.0));
  const units::Megahertz f(180.0);
  for (const core::Implementation* impl : {&sha_impl(), &stereovision0_impl()}) {
    const auto n = static_cast<std::size_t>(impl->grid.num_tiles());
    const std::vector<std::vector<double>> basis =
        power::uniform_power_basis(impl->tile_activity, impl->grid);
    ASSERT_EQ(basis.size(), power::kNumUniformPowerTerms);
    for (const double t : {25.0, 70.0}) {
      SCOPED_TRACE(t);
      const power::UniformPowerCoefficients coef =
          power::uniform_power_coefficients(dev, f, units::Celsius(t));
      const std::vector<double> map =
          power::compute_power(dev, impl->tile_activity, f, std::vector<double>(n, t),
                               impl->grid)
              .tile_w;
      for (std::size_t i = 0; i < n; ++i) {
        double want = 0.0;
        for (std::size_t j = 0; j < basis.size(); ++j) want += coef[j] * basis[j][i];
        ASSERT_EQ(bits(map[i]), bits(want)) << "tile " << i;
      }
    }
  }
}

power::TileActivity activity_of_artifacts(const core::Implementation& impl) {
  return power::tile_activity(impl.nl, impl.packed, impl.placement, impl.rr, impl.routes,
                              impl.activity, impl.grid);
}

TEST(Power, TileActivityMatchesFinalArtifacts) {
  // The maps are built once per implementation, from the final placement
  // and routes: after thermal_place moved blocks, and after the stages
  // were reloaded from the artifact store instead of computed.
  EXPECT_FALSE(
      sha_impl().tile_activity.by_kind[static_cast<std::size_t>(coffe::ResourceKind::Lut)]
          .empty());
  EXPECT_TRUE(sha_impl().tile_activity == activity_of_artifacts(sha_impl()));

  const coffe::DeviceModel dev = coffe::Characterizer::paper_table2_reference();
  core::ImplementOptions aware;
  aware.thermal_place.enabled = true;
  aware.thermal_place.device = &dev;
  // stereovision0's re-place keeps a candidate at the default options.
  const netlist::BenchmarkSpec spec = suite_spec("stereovision0");
  const core::Implementation& blind = stereovision0_impl();
  const auto refined = core::implement(netlist::scaled(spec, kSuiteScale), test_arch(), aware);
  ASSERT_NE(refined->placement.pos, blind.placement.pos) << "thermal_place moved nothing";
  EXPECT_TRUE(refined->tile_activity == activity_of_artifacts(*refined));
  EXPECT_FALSE(refined->tile_activity == blind.tile_activity);

  const testutil::TempDir dir;
  {
    runner::ArtifactStore store(dir.path);
    runner::FlowCache cache;
    cache.set_artifact_store(&store);
    cache.implementation(spec, test_arch(), kSuiteScale, aware);
    ASSERT_EQ(cache.stats().disk_writes, 5u);
  }
  runner::ArtifactStore store(dir.path);
  runner::FlowCache cache;
  cache.set_artifact_store(&store);
  const core::Implementation& warm =
      cache.implementation(spec, test_arch(), kSuiteScale, aware);
  ASSERT_EQ(cache.stats().disk_hits, 5u);
  EXPECT_TRUE(warm.tile_activity == activity_of_artifacts(warm));
  EXPECT_TRUE(warm.tile_activity == refined->tile_activity);
}

TEST(Guardband, GainIsPositiveAtRoomAmbient) {
  const auto dev = characterizer().characterize(units::Celsius(25.0));
  core::GuardbandOptions opt;
  opt.t_amb_c = units::Celsius(25.0);
  const auto r = core::guardband(sha_impl(), dev, opt);
  EXPECT_GT(r.fmax_mhz.value(), r.baseline_fmax_mhz.value());
  // Paper Fig. 6: gains in the 30..52% band at 25C ambient.
  EXPECT_GT(r.gain(), 0.25);
  EXPECT_LT(r.gain(), 0.65);
}

TEST(Guardband, HotterAmbientShrinksGain) {
  const auto dev = characterizer().characterize(units::Celsius(25.0));
  core::GuardbandOptions cool;
  cool.t_amb_c = units::Celsius(25.0);
  core::GuardbandOptions warm;
  warm.t_amb_c = units::Celsius(70.0);
  const auto r25 = core::guardband(sha_impl(), dev, cool);
  const auto r70 = core::guardband(sha_impl(), dev, warm);
  EXPECT_GT(r70.gain(), 0.0);
  EXPECT_LT(r70.gain(), r25.gain());
  // Paper Fig. 7: ~14% average at 70C ambient.
  EXPECT_LT(r70.gain(), 0.30);
}

TEST(Guardband, ConvergesWithinTenIterations) {
  const auto dev = characterizer().characterize(units::Celsius(25.0));
  core::GuardbandOptions opt;
  opt.t_amb_c = units::Celsius(25.0);
  opt.delta_t_c = units::Kelvin(0.2);  // stricter than default to exercise the loop
  const auto r = core::guardband(sha_impl(), dev, opt);
  EXPECT_LE(r.iterations, 10);
  EXPECT_GE(r.iterations, 1);
}

TEST(Guardband, ConvergedFlagReflectsTheIterationBudget) {
  const auto dev = characterizer().characterize(units::Celsius(25.0));
  core::GuardbandOptions relaxed;
  relaxed.t_amb_c = units::Celsius(25.0);
  const auto ok = core::guardband(sha_impl(), dev, relaxed);
  EXPECT_TRUE(ok.converged);

  core::GuardbandOptions starved = relaxed;
  starved.max_iterations = 1;
  starved.delta_t_c = units::Kelvin(1e-9);  // unreachably tight fixed-point criterion
  const auto bad = core::guardband(sha_impl(), dev, starved);
  EXPECT_FALSE(bad.converged);
  EXPECT_EQ(bad.iterations, 1);
}

TEST(Guardband, PowerScaleScalesTheOperatingPoint) {
  const auto dev = characterizer().characterize(units::Celsius(25.0));
  core::GuardbandOptions opt;
  opt.t_amb_c = units::Celsius(25.0);
  core::GuardbandOptions half = opt;
  half.power_scale = 0.5;
  const auto full = core::guardband(sha_impl(), dev, opt);
  const auto dimmed = core::guardband(sha_impl(), dev, half);
  // Less heat, cooler die, faster (or equal) clock.
  EXPECT_LT(dimmed.peak_temp_c.value(), full.peak_temp_c.value());
  EXPECT_GE(dimmed.fmax_mhz.value(), full.fmax_mhz.value());
  EXPECT_LT(dimmed.power.total_w().value(), full.power.total_w().value());
}

TEST(Guardband, IncrementalStatsAreReportedAndReferenceDoesNoSessionWork) {
  const auto dev = characterizer().characterize(units::Celsius(25.0));
  core::GuardbandOptions inc;
  inc.t_amb_c = units::Celsius(25.0);
  // sha self-heats 0.085 K in iteration 1: a tighter threshold makes the
  // loop re-time that map and iterate again.
  inc.delta_t_c = units::Kelvin(0.01);
  const auto r = core::guardband(sha_impl(), dev, inc);
  ASSERT_GE(r.iterations, 2);
  EXPECT_GT(r.stats.cg_iterations, 0u);
  EXPECT_GT(r.stats.edges_reevaluated, 0u);

  // The full-recompute reference has no session; it counts only CG work.
  const auto full = reference::guardband(sha_impl(), dev, inc, reference::stencil_cold);
  EXPECT_EQ(full.iterations, r.iterations);
  EXPECT_EQ(full.stats.edges_reevaluated, 0u);
  EXPECT_EQ(full.stats.delay_cache_hits, 0u);
  EXPECT_GT(full.stats.cg_iterations, 0u);
}

TEST(Guardband, ConvergedMapIsNotRetimed) {
  // Algorithm 1 re-times a map only when another iteration prices power
  // at it: iteration 1 prices at the priming pass's clock, and the last
  // iteration's map is timed by the margin pass alone.
  const auto dev = characterizer().characterize(units::Celsius(25.0));
  std::vector<core::FlowObserver::IterationInfo> seen;
  core::FlowObserver obs;
  obs.on_iteration = [&seen](const core::FlowObserver::IterationInfo& info) {
    seen.push_back(info);
  };
  core::GuardbandOptions opt;
  opt.t_amb_c = units::Celsius(25.0);
  opt.delta_t_c = units::Kelvin(0.01);  // below sha's 0.085 K first step
  opt.observer = &obs;
  const auto r = core::guardband(sha_impl(), dev, opt);
  ASSERT_GE(r.iterations, 2);
  ASSERT_EQ(seen.size(), static_cast<std::size_t>(r.iterations));
  std::uint64_t edges = 0;
  std::uint64_t hits = 0;
  for (const auto& info : seen) {
    edges += info.edges_reevaluated;
    hits += info.delay_cache_hits;
  }
  EXPECT_EQ(edges, r.stats.edges_reevaluated);
  EXPECT_EQ(hits, r.stats.delay_cache_hits);
  EXPECT_EQ(seen.back().edges_reevaluated, 0u);
  EXPECT_EQ(seen.back().delay_cache_hits, 0u);
  EXPECT_EQ(seen.front().fmax_mhz.value(),
            sha_impl().sta->analyze_uniform(dev, opt.t_amb_c).fmax_mhz.value());
}

TEST(Guardband, TemperaturesStayAboveAmbientAndBelowWorst) {
  const auto dev = characterizer().characterize(units::Celsius(25.0));
  core::GuardbandOptions opt;
  opt.t_amb_c = units::Celsius(25.0);
  const auto r = core::guardband(sha_impl(), dev, opt);
  EXPECT_GE(r.peak_temp_c.value(), 25.0);
  EXPECT_LT(r.peak_temp_c.value(), 100.0);
  EXPECT_GE(r.mean_temp_c.value(), 25.0);
  EXPECT_LE(r.mean_temp_c.value(), r.peak_temp_c.value());
  // Paper: temperature converged after ~2C rise at these activity levels.
  EXPECT_LT(r.peak_temp_c.value() - 25.0, 12.0);
}

TEST(Guardband, BaselineMatchesWorstCaseSta) {
  const auto dev = characterizer().characterize(units::Celsius(25.0));
  core::GuardbandOptions opt;
  opt.t_amb_c = units::Celsius(25.0);
  const auto r = core::guardband(sha_impl(), dev, opt);
  const auto sta100 = sha_impl().sta->analyze_uniform(dev, units::Celsius(100.0));
  EXPECT_NEAR(r.baseline_fmax_mhz.value(), sta100.fmax_mhz.value(), 1e-9);
}

TEST(Guardband, MarginReducesFrequency) {
  // A larger delta-T margin must never increase the reported frequency.
  const auto dev = characterizer().characterize(units::Celsius(25.0));
  core::GuardbandOptions tight;
  tight.t_amb_c = units::Celsius(25.0);
  tight.delta_t_c = units::Kelvin(0.5);
  core::GuardbandOptions loose;
  loose.t_amb_c = units::Celsius(25.0);
  loose.delta_t_c = units::Kelvin(5.0);
  const auto rt = core::guardband(sha_impl(), dev, tight);
  const auto rl = core::guardband(sha_impl(), dev, loose);
  EXPECT_LE(rl.fmax_mhz.value(), rt.fmax_mhz.value());
}

TEST(Guardband, PowerIsReportedAtTheOperatingPoint) {
  // Regression: the loop used to return the power computed with the
  // *previous* iterate's fmax and pre-update temperatures. The reported
  // breakdown must match a fresh evaluation at the converged temperature
  // map and the margin-applied frequency.
  const auto dev = characterizer().characterize(units::Celsius(25.0));
  const auto& impl = sha_impl();
  core::GuardbandOptions opt;
  opt.t_amb_c = units::Celsius(25.0);
  opt.delta_t_c = units::Kelvin(0.2);  // force a couple of iterations
  const auto r = core::guardband(impl, dev, opt);
  ASSERT_EQ(r.tile_temp_c.size(), static_cast<std::size_t>(impl.grid.num_tiles()));
  const auto expected =
      power::compute_power(dev, impl.nl, impl.packed, impl.placement, impl.rr,
                           impl.routes, impl.activity, r.fmax_mhz, r.tile_temp_c,
                           impl.grid);
  EXPECT_DOUBLE_EQ(r.power.dynamic_w.value(), expected.dynamic_w.value());
  EXPECT_DOUBLE_EQ(r.power.leakage_w.value(), expected.leakage_w.value());
  EXPECT_DOUBLE_EQ(r.power.total_w().value(), expected.total_w().value());
  // The typed accessor views the same bulk payload.
  EXPECT_DOUBLE_EQ(r.tile_temp(0).value(), r.tile_temp_c[0]);
}

TEST(Guardband, ZeroIterationsStillReportsPower) {
  // Regression: with max_iterations == 0 the loop body never ran and the
  // result used to carry an all-zero PowerBreakdown.
  const auto dev = characterizer().characterize(units::Celsius(25.0));
  core::GuardbandOptions opt;
  opt.t_amb_c = units::Celsius(25.0);
  opt.max_iterations = 0;
  const auto r = core::guardband(sha_impl(), dev, opt);
  EXPECT_EQ(r.iterations, 0);
  EXPECT_GT(r.power.dynamic_w.value(), 0.0);
  EXPECT_GT(r.power.leakage_w.value(), 0.0);
}

TEST(Grade, SelectionFollowsFieldRange) {
  std::vector<coffe::DeviceModel> devices;
  for (double t : {0.0, 25.0, 70.0, 100.0}) {
    devices.push_back(characterizer().characterize(units::Celsius(t)));
  }
  // Cold field -> cold-corner device wins; hot field -> hot corner wins.
  const int cold = core::select_grade(devices, units::Celsius(0.0), units::Celsius(20.0));
  const int hot = core::select_grade(devices, units::Celsius(80.0), units::Celsius(100.0));
  EXPECT_LT(devices[static_cast<std::size_t>(cold)].t_opt_c,
            devices[static_cast<std::size_t>(hot)].t_opt_c);
}

TEST(Grade, ThrowsOnEmptyDeviceList) {
  EXPECT_THROW(core::select_grade({}, units::Celsius(0.0), units::Celsius(100.0)), std::invalid_argument);
}

TEST(Grade, SingleDeviceAlwaysSelected) {
  std::vector<coffe::DeviceModel> devices;
  devices.push_back(characterizer().characterize(units::Celsius(70.0)));
  EXPECT_EQ(core::select_grade(devices, units::Celsius(0.0), units::Celsius(100.0)), 0);
  EXPECT_EQ(core::select_grade(devices, units::Celsius(25.0), units::Celsius(25.0)), 0);
}

TEST(Grade, DegenerateRangeComparesPointDelay) {
  // t_min == t_max would divide by zero in the trapezoid expectation; the
  // contract is to compare rep_cp_delay at the single temperature, so the
  // device optimized for that exact corner must win.
  std::vector<coffe::DeviceModel> devices;
  for (double t : {0.0, 25.0, 70.0, 100.0}) {
    devices.push_back(characterizer().characterize(units::Celsius(t)));
  }
  const int at70 =
      core::select_grade(devices, units::Celsius(70.0), units::Celsius(70.0));
  int best = 0;
  double best_d = devices[0].rep_cp_delay(units::Celsius(70.0)).value();
  for (int i = 1; i < 4; ++i) {
    const double d =
        devices[static_cast<std::size_t>(i)].rep_cp_delay(units::Celsius(70.0)).value();
    if (d < best_d) {
      best_d = d;
      best = i;
    }
  }
  EXPECT_EQ(at70, best);
}

TEST(Grade, ReversedRangeIsNormalized) {
  // (t_max, t_min) in the wrong order selects the same grade as the
  // normalized range instead of hitting UB in the expectation integral.
  std::vector<coffe::DeviceModel> devices;
  for (double t : {0.0, 25.0, 70.0, 100.0}) {
    devices.push_back(characterizer().characterize(units::Celsius(t)));
  }
  EXPECT_EQ(core::select_grade(devices, units::Celsius(100.0), units::Celsius(80.0)),
            core::select_grade(devices, units::Celsius(80.0), units::Celsius(100.0)));
  EXPECT_EQ(core::select_grade(devices, units::Celsius(20.0), units::Celsius(0.0)),
            core::select_grade(devices, units::Celsius(0.0), units::Celsius(20.0)));
}

TEST(Implement, ReportsRoutedDesign) {
  const auto& impl = sha_impl();
  EXPECT_TRUE(impl.routes.success);
  EXPECT_TRUE(impl.sta != nullptr);
  EXPECT_EQ(impl.activity.size(), impl.nl.nets().size());
  EXPECT_EQ(impl.nl.validate(), "");
}

void expect_bit_identical(const core::GuardbandResult& solo,
                          const core::GuardbandResult& batch) {
  EXPECT_EQ(solo.fmax_mhz.value(), batch.fmax_mhz.value());
  EXPECT_EQ(solo.baseline_fmax_mhz.value(), batch.baseline_fmax_mhz.value());
  EXPECT_EQ(solo.iterations, batch.iterations);
  EXPECT_EQ(solo.converged, batch.converged);
  EXPECT_EQ(solo.stats.edges_reevaluated, batch.stats.edges_reevaluated);
  EXPECT_EQ(solo.stats.delay_cache_hits, batch.stats.delay_cache_hits);
  EXPECT_EQ(solo.stats.cg_iterations, batch.stats.cg_iterations);
  ASSERT_EQ(solo.tile_temp_c.size(), batch.tile_temp_c.size());
  for (std::size_t i = 0; i < solo.tile_temp_c.size(); ++i) {
    ASSERT_EQ(solo.tile_temp_c[i], batch.tile_temp_c[i]) << "tile " << i;
  }
  EXPECT_EQ(solo.peak_temp_c.value(), batch.peak_temp_c.value());
  EXPECT_EQ(solo.mean_temp_c.value(), batch.mean_temp_c.value());
  EXPECT_EQ(solo.timing.critical_path_ps.value(), batch.timing.critical_path_ps.value());
  EXPECT_EQ(solo.power.dynamic_w.value(), batch.power.dynamic_w.value());
  EXPECT_EQ(solo.power.leakage_w.value(), batch.power.leakage_w.value());
}

TEST(GuardbandBatch, WithCornerSubstitutesOnlyAmbientAndPowerScale) {
  core::GuardbandOptions base;
  base.delta_t_c = units::Kelvin(0.3);
  base.max_iterations = 7;
  base.power_scale = 2.0;
  const core::GuardbandCorner corner{units::Celsius(55.0), 0.5};
  const core::GuardbandOptions opt = core::with_corner(base, corner);
  EXPECT_EQ(opt.t_amb_c.value(), 55.0);
  EXPECT_EQ(opt.power_scale, 0.5);
  EXPECT_EQ(opt.delta_t_c.value(), base.delta_t_c.value());
  EXPECT_EQ(opt.max_iterations, base.max_iterations);
  EXPECT_EQ(opt.thermal, base.thermal);
}

TEST(GuardbandBatch, BitIdenticalToSequentialCornerLoop) {
  // The corner-batching contract (flow.hpp): results[k] must equal a
  // standalone guardband() at with_corner(base, corners[k]) bit for bit
  // — whatever the batch composition, the shared stencil traversal
  // cannot perturb any corner's arithmetic.
  const auto dev = characterizer().characterize(units::Celsius(25.0));
  core::GuardbandOptions base;
  base.delta_t_c = units::Kelvin(0.2);  // make the loop iterate
  const std::vector<core::GuardbandCorner> corners = {
      {units::Celsius(25.0), 1.0},
      {units::Celsius(55.0), 0.75},
      {units::Celsius(70.0), 1.0},
      {units::Celsius(25.0), 0.5},
  };
  const auto batch = core::guardband_batch(sha_impl(), dev, base, corners);
  ASSERT_EQ(batch.size(), corners.size());
  for (std::size_t k = 0; k < corners.size(); ++k) {
    SCOPED_TRACE("corner " + std::to_string(k));
    const auto solo = core::guardband(sha_impl(), dev, core::with_corner(base, corners[k]));
    expect_bit_identical(solo, batch[k]);
  }
}

TEST(GuardbandBatch, PhasesSumToAtMostWallTime) {
  // The shared thermal traversal is one stretch of wall time; charging
  // it to every live corner would report more phase time than elapsed.
  const auto dev = characterizer().characterize(units::Celsius(25.0));
  double phase_s = 0.0;
  core::FlowObserver obs;
  obs.on_phase = [&](core::FlowPhase, units::Seconds s) { phase_s += s.value(); };
  core::GuardbandOptions base;
  base.delta_t_c = units::Kelvin(0.2);
  base.observer = &obs;
  std::vector<core::GuardbandCorner> corners;
  for (int k = 0; k < 8; ++k) {
    corners.push_back({units::Celsius(35.0 + 20.0 * k / 7.0), k % 2 == 0 ? 1.0 : 0.5});
  }
  const util::Stopwatch wall;
  const auto batch = core::guardband_batch(sha_impl(), dev, base, corners);
  const double wall_s = wall.seconds();
  ASSERT_EQ(batch.size(), corners.size());
  EXPECT_GT(phase_s, 0.0);
  EXPECT_LE(phase_s, wall_s);
}

TEST(GuardbandBatch, EmptyAndSingletonBatches) {
  const auto dev = characterizer().characterize(units::Celsius(25.0));
  core::GuardbandOptions base;
  EXPECT_TRUE(core::guardband_batch(sha_impl(), dev, base, {}).empty());
  const std::vector<core::GuardbandCorner> one = {{units::Celsius(40.0), 1.0}};
  const auto batch = core::guardband_batch(sha_impl(), dev, base, one);
  ASSERT_EQ(batch.size(), 1u);
  expect_bit_identical(core::guardband(sha_impl(), dev, core::with_corner(base, one[0])),
                       batch[0]);
}

TEST(Implement, Fig8ArchOptimizationDirection) {
  // The paper's Fig. 8 experiment in miniature: at a 70C field, the
  // 70C-optimized device must clock at least as fast as the 25C device
  // (both thermally guardbanded). ~6.7% average in the paper.
  const auto d25 = characterizer().characterize(units::Celsius(25.0));
  const auto d70 = characterizer().characterize(units::Celsius(70.0));
  core::GuardbandOptions opt;
  opt.t_amb_c = units::Celsius(70.0);
  const auto r25 = core::guardband(sha_impl(), d25, opt);
  const auto r70 = core::guardband(sha_impl(), d70, opt);
  EXPECT_GE(r70.fmax_mhz.value(), r25.fmax_mhz.value() * 0.995);
}

}  // namespace
