#pragma once
// Full-recompute reference for Algorithm 1, the oracle core::guardband()
// is compared against. Every iteration times the whole design from
// scratch through the reference STA of reference_sta.hpp (uniform maps
// for the worst-case baseline and the priming pass), so it shares no STA
// code with production. It prices power from the implementation's load
// table and solves thermal cold through a caller-chosen solve —
// ThermalGrid::solve (the production stencil PCG) or
// thermal_oracle::solve (plain CG). It uses only public APIs; production
// keeps no second loop.
//
// Loop semantics match guardband(): iteration 1 prices power at the
// priming pass's clock (a uniform ambient map), a map is re-timed only
// when another iteration will price at it, and the reported operating
// point is the delta-T margin pass on the final map. No STA session
// exists, so stats.edges_reevaluated and stats.delay_cache_hits stay 0;
// stats.cg_iterations counts every cold solve. The observer and the
// per-thread flow counters are not driven.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "core/flow.hpp"
#include "reference_sta.hpp"
#include "thermal_oracle.hpp"
#include "util/stats.hpp"

namespace taf::reference {

/// Cold thermal solve the reference loop calls once per iteration.
using ColdSolve = std::vector<double> (*)(const thermal::ThermalGrid&,
                                          const std::vector<double>& power_w,
                                          thermal::CgStats* stats);

inline std::vector<double> stencil_cold(const thermal::ThermalGrid& g,
                                        const std::vector<double>& power_w,
                                        thermal::CgStats* stats) {
  return g.solve(power_w, stats);
}

inline std::vector<double> cg_oracle_cold(const thermal::ThermalGrid& g,
                                          const std::vector<double>& power_w,
                                          thermal::CgStats* stats) {
  return thermal_oracle::solve(g, power_w, stats);
}

inline core::GuardbandResult guardband(const core::Implementation& impl,
                                       const coffe::DeviceModel& dev,
                                       const core::GuardbandOptions& opt,
                                       ColdSolve cold_solve) {
  const auto n_tiles = static_cast<std::size_t>(impl.grid.num_tiles());
  thermal::ThermalConfig tcfg = opt.thermal;
  tcfg.ambient_c = opt.t_amb_c;
  tcfg.tile_edge_um = impl.arch.tile_edge_um;
  const thermal::ThermalGrid tgrid(impl.grid, tcfg);

  const auto run_power = [&](double f_mhz, const std::vector<double>& t) {
    power::PowerBreakdown p =
        power::compute_power(dev, impl.tile_activity, units::Megahertz{f_mhz}, t, impl.grid);
    if (opt.power_scale != 1.0) {
      for (double& w : p.tile_w) w *= opt.power_scale;
      p.dynamic_w *= opt.power_scale;
      p.leakage_w *= opt.power_scale;
    }
    return p;
  };

  const reference_sta::Analyzer sta(impl.nl, impl.packed, impl.placement, impl.rr,
                                    impl.routes, impl.grid);
  core::GuardbandResult result;
  result.baseline_fmax_mhz = sta.analyze_uniform(dev, opt.t_worst_c).fmax_mhz;

  std::vector<double> temps(n_tiles, opt.t_amb_c.value());
  double fmax = sta.analyze(dev, temps).fmax_mhz.value();
  result.converged = opt.max_iterations <= 0;
  for (int iter = 1; iter <= opt.max_iterations; ++iter) {
    result.iterations = iter;
    const power::PowerBreakdown p = run_power(fmax, temps);
    thermal::CgStats cg;
    std::vector<double> new_temps = cold_solve(tgrid, p.tile_w, &cg);
    result.stats.cg_iterations += static_cast<std::uint64_t>(cg.iterations);
    double max_delta = 0.0;
    for (std::size_t i = 0; i < n_tiles; ++i) {
      max_delta = std::max(max_delta, std::fabs(new_temps[i] - temps[i]));
    }
    temps = std::move(new_temps);
    if (max_delta < opt.delta_t_c.value()) {
      result.converged = true;
      break;
    }
    if (iter < opt.max_iterations) fmax = sta.analyze(dev, temps).fmax_mhz.value();
  }

  std::vector<double> margin_temps = temps;
  for (double& t : margin_temps) t += opt.delta_t_c.value();
  result.timing = sta.analyze(dev, margin_temps);
  result.fmax_mhz = result.timing.fmax_mhz;
  result.power = run_power(result.fmax_mhz.value(), temps);
  result.tile_temp_c = std::move(temps);

  util::Accumulator acc;
  for (double t : result.tile_temp_c) acc.add(t);
  result.peak_temp_c = units::Celsius{acc.max()};
  result.mean_temp_c = units::Celsius{acc.mean()};
  return result;
}

}  // namespace taf::reference
