// google-benchmark microbenchmarks of the flow's computational kernels:
// SPICE transient, Elmore evaluation, thermal solve, STA, power maps,
// placement, routing and the feedback edge's incremental reroute.

#include <benchmark/benchmark.h>

#include <vector>

#include "bench_common.hpp"
#include "coffe/path_eval.hpp"
#include "place/place.hpp"
#include "power/power.hpp"
#include "route/router.hpp"
#include "thermal/thermal_grid.hpp"
#include "util/rng.hpp"

namespace {

using namespace taf;

void BM_ElmoreDelay(benchmark::State& state) {
  const auto tech = tech::ptm22();
  const auto spec = coffe::lut_spec(bench::bench_arch());
  for (auto _ : state) {
    benchmark::DoNotOptimize(coffe::elmore_delay_ps(spec, tech, units::Celsius(45.0)));
  }
}
BENCHMARK(BM_ElmoreDelay);

void BM_SpiceTransientLut(benchmark::State& state) {
  const auto tech = tech::ptm22();
  const auto spec = coffe::lut_spec(bench::bench_arch());
  for (auto _ : state) {
    benchmark::DoNotOptimize(coffe::spice_delay_ps(spec, tech, units::Celsius(45.0)));
  }
}
BENCHMARK(BM_SpiceTransientLut)->Unit(benchmark::kMillisecond);

void BM_ThermalSolve(benchmark::State& state) {
  const auto n = static_cast<int>(state.range(0));
  const arch::FpgaGrid grid(n, n);
  const thermal::ThermalGrid tg(grid, {});
  std::vector<double> p(static_cast<std::size_t>(n) * n, 1e-4);
  p[static_cast<std::size_t>(n * n / 2)] = 0.05;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tg.solve(p));
  }
}
BENCHMARK(BM_ThermalSolve)->Arg(16)->Arg(32)->Unit(benchmark::kMillisecond);

/// Guardband-cell thermal workload: one cold solve plus five
/// warm-started re-solves under ~1% power perturbations — the solve
/// sequence Algorithm 1 drives per sweep cell.
void BM_ThermalGuardbandCell(benchmark::State& state) {
  const auto n = static_cast<int>(state.range(0));
  const arch::FpgaGrid grid(n, n);
  const thermal::ThermalGrid tg(grid, {});
  std::vector<double> p(static_cast<std::size_t>(n) * n, 1e-4);
  p[static_cast<std::size_t>(n * n / 2)] = 0.05;
  std::vector<double> q(p.size());
  for (auto _ : state) {
    auto temps = tg.solve(p);
    for (int iter = 1; iter <= 5; ++iter) {
      for (std::size_t i = 0; i < p.size(); ++i) {
        q[i] = p[i] * (1.0 + 0.01 * static_cast<double>((i + static_cast<std::size_t>(iter)) % 3));
      }
      temps = tg.solve(q, temps);
    }
    benchmark::DoNotOptimize(temps);
  }
}
BENCHMARK(BM_ThermalGuardbandCell)->Arg(32)->Arg(64)->Unit(benchmark::kMillisecond);

/// One uniform-map session analysis of stereovision0, alternating
/// between two temperatures so every call moves every tile: the shape of
/// Algorithm 1's worst-case baseline and priming passes.
void BM_StaSessionUniform(benchmark::State& state) {
  const auto& impl = bench::implementation_of("stereovision0");
  const auto& dev = bench::device_at(25.0);
  const auto n = static_cast<std::size_t>(impl.grid.num_tiles());
  const std::vector<double> maps[2] = {std::vector<double>(n, 45.0),
                                       std::vector<double>(n, 100.0)};
  timing::IncrementalSta session(*impl.sta, dev);
  std::size_t k = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(session.analyze(maps[k++ % 2], /*with_critical_path=*/false));
  }
}
BENCHMARK(BM_StaSessionUniform)->Unit(benchmark::kMicrosecond);

/// A seeded non-uniform temperature map.
std::vector<double> random_map(const core::Implementation& impl,
                               std::uint64_t seed = 0x90e7) {
  util::Rng rng(seed);
  std::vector<double> temps(static_cast<std::size_t>(impl.grid.num_tiles()));
  for (double& t : temps) t = rng.uniform(45.0, 85.0);
  return temps;
}

/// One non-uniform session analysis of stereovision0, alternating
/// between two seeded random maps so every call is a dense pass: the
/// shape of Algorithm 1's in-loop and margin passes.
void BM_StaSessionNonUniform(benchmark::State& state) {
  const auto& impl = bench::implementation_of("stereovision0");
  const auto& dev = bench::device_at(25.0);
  const std::vector<double> maps[2] = {random_map(impl), random_map(impl, 0x90e8)};
  timing::IncrementalSta session(*impl.sta, dev);
  std::size_t k = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(session.analyze(maps[k++ % 2], /*with_critical_path=*/false));
  }
}
BENCHMARK(BM_StaSessionNonUniform)->Unit(benchmark::kMicrosecond);

/// stereovision0's power map priced from its stored per-tile activity
/// maps, the way Algorithm 1 prices it every iteration.
void BM_PowerMap(benchmark::State& state) {
  const auto& impl = bench::implementation_of("stereovision0");
  const auto& dev = bench::device_at(25.0);
  const std::vector<double> temps = random_map(impl);
  for (auto _ : state) {
    benchmark::DoNotOptimize(power::compute_power(dev, impl.tile_activity,
                                                  units::Megahertz(150.0), temps, impl.grid));
  }
}
BENCHMARK(BM_PowerMap)->Unit(benchmark::kMicrosecond);

/// The same map with the activity maps rebuilt from the netlist and
/// routes first, the way thermal_place prices a candidate placement.
void BM_PowerMapOneShot(benchmark::State& state) {
  const auto& impl = bench::implementation_of("stereovision0");
  const auto& dev = bench::device_at(25.0);
  const std::vector<double> temps = random_map(impl);
  for (auto _ : state) {
    benchmark::DoNotOptimize(power::compute_power(dev, impl.nl, impl.packed, impl.placement,
                                                  impl.rr, impl.routes, impl.activity,
                                                  units::Megahertz(150.0), temps, impl.grid));
  }
}
BENCHMARK(BM_PowerMapOneShot)->Unit(benchmark::kMicrosecond);

void BM_GuardbandFlow(benchmark::State& state) {
  const auto& impl = bench::implementation_of("sha");
  const auto& dev = bench::device_at(25.0);
  core::GuardbandOptions opt;
  opt.t_amb_c = units::Celsius(25.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::guardband(impl, dev, opt));
  }
}
BENCHMARK(BM_GuardbandFlow)->Unit(benchmark::kMillisecond);

/// One service cache miss group: Algorithm 1 for 8 corners of sha in
/// lockstep (ambients 35-55 degC, activity alternating 1.0 / 0.5), the
/// shape GuardbandServer hands to guardband_batch.
void BM_GuardbandBatch(benchmark::State& state) {
  const auto& impl = bench::implementation_of("sha");
  const auto& dev = bench::device_at(25.0);
  const core::GuardbandOptions base;
  std::vector<core::GuardbandCorner> corners;
  for (int k = 0; k < 8; ++k) {
    corners.push_back({units::Celsius(35.0 + 20.0 * k / 7.0), k % 2 == 0 ? 1.0 : 0.5});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::guardband_batch(impl, dev, base, corners));
  }
}
BENCHMARK(BM_GuardbandBatch)->Unit(benchmark::kMillisecond);

/// One full annealing placement of a suite design at 1/16 scale, with
/// the flow's placement options. Packing and the grid come from the
/// shared implementation, built outside the timed loop.
void BM_PlaceDesign(benchmark::State& state, const char* design) {
  const auto& impl = bench::implementation_of(design);
  const core::ImplementOptions flow;
  place::PlaceOptions popt;
  popt.seed = flow.seed;
  popt.effort = flow.place_effort;
  for (auto _ : state) {
    benchmark::DoNotOptimize(place::place(impl.packed, impl.grid, popt));
  }
}
BENCHMARK_CAPTURE(BM_PlaceDesign, diffeq1, "diffeq1")->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_PlaceDesign, stereovision0, "stereovision0")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_PlaceDesign, stereovision2, "stereovision2")
    ->Unit(benchmark::kMillisecond);

/// One full PathFinder route of a suite design at 1/16 scale. Packing,
/// placement and the RR graph come from the shared implementation, built
/// outside the timed loop. diffeq1 is small enough that per-call setup
/// shows; in the stereovision pair the search itself dominates.
void BM_RouteDesign(benchmark::State& state, const char* design) {
  const auto& impl = bench::implementation_of(design);
  for (auto _ : state) {
    benchmark::DoNotOptimize(route::route(impl.rr, impl.packed, impl.placement));
  }
}
BENCHMARK_CAPTURE(BM_RouteDesign, diffeq1, "diffeq1")->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_RouteDesign, stereovision0, "stereovision0")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_RouteDesign, stereovision2, "stereovision2")
    ->Unit(benchmark::kMillisecond);

/// The first thermal_place candidate reroute of stereovision0 at 1/16
/// scale: the blind routes seed an incremental reroute of the candidate
/// placement, resumed at the present factor where the blind route
/// converged. The candidate is built outside the timed loop the way the
/// stage builds its first pass (DESIGN.md section 15): one bounded
/// refinement of the blind placement, moving above-mean-power blocks.
void BM_RerouteCandidate(benchmark::State& state) {
  const auto& impl = bench::implementation_of("stereovision0");
  core::ThermalPlaceOptions tp;
  tp.device = &bench::device_at(25.0);
  place::RefineOptions ropt;
  ropt.seed = core::ImplementOptions{}.seed;
  ropt.effort = tp.effort;
  ropt.max_rounds = tp.max_rounds;
  const place::Placement candidate = place::refine_placement(
      impl.packed, impl.grid, impl.placement,
      power::block_dynamic_power(*tp.device, impl.nl, impl.packed, impl.activity,
                                 tp.pricing_f_mhz),
      ropt);
  const route::RouteOptions resumed = route::resumed_options({}, impl.routes);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        route::reroute(impl.rr, impl.packed, impl.placement, candidate, impl.routes, resumed));
  }
}
BENCHMARK(BM_RerouteCandidate)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
