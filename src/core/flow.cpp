#include "core/flow.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/stage_graph.hpp"
#include "util/log.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"

namespace taf::core {

const char* flow_phase_name(FlowPhase phase) {
  switch (phase) {
    case FlowPhase::Pack: return "pack";
    case FlowPhase::Place: return "place";
    case FlowPhase::Route: return "route";
    case FlowPhase::Activity: return "activity";
    case FlowPhase::StaBuild: return "sta_build";
    case FlowPhase::Sta: return "sta";
    case FlowPhase::Power: return "power";
    case FlowPhase::Thermal: return "thermal";
  }
  return "unknown";
}

FlowCounters& thread_flow_counters() {
  thread_local FlowCounters counters;
  return counters;
}

std::unique_ptr<Implementation> implement(const netlist::BenchmarkSpec& spec,
                                          const arch::ArchParams& arch,
                                          const ImplementOptions& opt) {
  // The monolithic pack -> place -> route -> activity -> STA-build body
  // now lives in the stage graph (core/stage_graph.cpp), which preserves
  // its exact computation order and RNG usage; opt.stage_hooks lets the
  // runner's artifact store substitute stored artifacts per stage.
  const FlowGraph graph = FlowGraph::standard(spec, arch, opt);
  FlowBuild build(spec, arch, opt);
  graph.run(build, opt.stage_hooks);
  return std::move(build.impl);
}

namespace {

/// Per-corner state of the lockstep Algorithm 1 engine below. One corner
/// is exactly one historical guardband() call; the engine only changes
/// *when* each corner's thermal solve runs, never what it computes.
struct CornerState {
  const GuardbandOptions* opt = nullptr;
  GuardbandResult result;
  std::optional<thermal::ThermalGrid> tgrid;
  std::optional<timing::IncrementalSta> session;
  std::vector<double> temps;
  double fmax = 0.0;
  std::uint64_t last_edges = 0;
  std::uint64_t last_hits = 0;
  bool incremental = false;
  bool active = false;  ///< still inside the Algorithm 1 loop

  void emit_phase(FlowPhase phase, double seconds) const {
    if (opt->observer != nullptr && opt->observer->on_phase) {
      opt->observer->on_phase(phase, units::Seconds{seconds});
    }
  }
};

/// Algorithm 1 for a set of independent corners of one implementation,
/// advanced in lockstep. Every per-corner computation — baseline, priming,
/// power, STA, margin — is the expression-for-expression body of the
/// historical guardband() loop, so corner k's result is bit-identical to
/// a standalone guardband(impl, dev, opts[k]) call. share_thermal routes
/// the still-active corners' thermal solves through one batched stencil
/// traversal per iteration (ThermalGrid::solve_batch, itself pinned
/// bit-identical to per-corner solves); callers may only set it when every
/// corner uses the stencil backend with an incremental mode.
std::vector<GuardbandResult> guardband_lockstep(const Implementation& impl,
                                                const coffe::DeviceModel& dev,
                                                const std::vector<GuardbandOptions>& opts,
                                                bool share_thermal) {
  const auto n_tiles = static_cast<std::size_t>(impl.grid.num_tiles());
  std::vector<CornerState> corners(opts.size());
  util::Stopwatch watch;

  for (std::size_t k = 0; k < opts.size(); ++k) {
    CornerState& c = corners[k];
    const GuardbandOptions& opt = opts[k];
    c.opt = &opt;

    thermal::ThermalConfig tcfg = opt.thermal;
    tcfg.ambient_c = opt.t_amb_c;
    tcfg.tile_edge_um = impl.arch.tile_edge_um;
    c.tgrid.emplace(impl.grid, tcfg);

    c.incremental = opt.incremental != IncrementalMode::Off;
    if (c.incremental) {
      c.session.emplace(*impl.sta, dev);
    }

    // Conventional baseline: clock for the worst-case corner. Evaluated
    // through the session when incremental (the session is bit-identical
    // to analyze_uniform, and the re-derived delay tables seed the cache).
    c.result.baseline_fmax_mhz =
        c.incremental
            ? c.session
                  ->analyze(std::vector<double>(n_tiles, opt.t_worst_c.value()),
                            /*with_critical_path=*/false)
                  .fmax_mhz
            : impl.sta->analyze_uniform(dev, opt.t_worst_c).fmax_mhz;

    // Priming analysis at a uniform ambient field.
    c.temps.assign(n_tiles, opt.t_amb_c.value());
    watch.lap();
    const timing::TimingResult sta =
        c.incremental ? c.session->analyze(c.temps, /*with_critical_path=*/false)
                      : impl.sta->analyze(dev, c.temps);
    c.fmax = sta.fmax_mhz.value();
    c.emit_phase(FlowPhase::Sta, watch.lap());
    // The priming analysis evaluated every edge once; the loop stats
    // report only the incremental work the iterations themselves cost.
    if (c.session) c.session->reset_counters();

    c.result.converged = opt.max_iterations <= 0;  // vacuously, if no loop runs
    c.active = opt.max_iterations > 0;
  }

  // In-loop analyses skip critical-path reconstruction (only fmax is
  // consumed); the margin analysis below reconstructs it.
  auto run_power = [&](const CornerState& c, double f_mhz,
                       const std::vector<double>& t) {
    power::PowerBreakdown p = power::compute_power(
        dev, impl.nl, impl.packed, impl.placement, impl.rr, impl.routes,
        impl.activity, units::Megahertz{f_mhz}, t, impl.grid);
    if (c.opt->power_scale != 1.0) {
      for (double& w : p.tile_w) w *= c.opt->power_scale;
      p.dynamic_w *= c.opt->power_scale;
      p.leakage_w *= c.opt->power_scale;
    }
    return p;
  };

  // Algorithm 1, all corners in lockstep. Corners drop out as they reach
  // their own fixed point or exhaust their own iteration budget.
  std::vector<std::size_t> live;
  std::vector<power::PowerBreakdown> powers(corners.size());
  std::vector<std::vector<double>> new_temps(corners.size());
  std::vector<thermal::CgStats> cg(corners.size());
  for (int iter = 1;; ++iter) {
    live.clear();
    for (std::size_t k = 0; k < corners.size(); ++k) {
      if (corners[k].active && iter <= corners[k].opt->max_iterations) {
        live.push_back(k);
      } else {
        corners[k].active = false;
      }
    }
    if (live.empty()) break;

    for (std::size_t k : live) {
      CornerState& c = corners[k];
      c.result.iterations = iter;
      watch.lap();
      powers[k] = run_power(c, c.fmax, c.temps);
      c.emit_phase(FlowPhase::Power, watch.lap());
    }

    // Warm-starting CG from the previous iterate is safe: the system is
    // SPD, so CG converges to the same solution from any starting point.
    if (share_thermal) {
      // One blocked stencil traversal per CG iteration serves every live
      // corner; the per-corner ambients only shift the solution.
      std::vector<std::vector<double>> batch_power, batch_init;
      std::vector<double> batch_amb;
      for (std::size_t k : live) {
        batch_power.push_back(powers[k].tile_w);
        batch_init.push_back(corners[k].temps);
        batch_amb.push_back(corners[k].opt->t_amb_c.value());
      }
      std::vector<thermal::CgStats> batch_cg;
      watch.lap();
      std::vector<std::vector<double>> batch_temps =
          corners[live.front()].tgrid->solve_batch(batch_power, batch_init, batch_amb,
                                                   &batch_cg);
      const double solve_s = watch.lap();
      for (std::size_t a = 0; a < live.size(); ++a) {
        const std::size_t k = live[a];
        new_temps[k] = std::move(batch_temps[a]);
        cg[k] = batch_cg[a];
        corners[k].emit_phase(FlowPhase::Thermal, solve_s);
      }
    } else {
      for (std::size_t k : live) {
        CornerState& c = corners[k];
        watch.lap();
        new_temps[k] = c.incremental ? c.tgrid->solve(powers[k].tile_w, c.temps, &cg[k])
                                     : c.tgrid->solve(powers[k].tile_w, &cg[k]);
        c.emit_phase(FlowPhase::Thermal, watch.lap());
      }
    }

    for (std::size_t k : live) {
      CornerState& c = corners[k];
      c.result.stats.cg_iterations += static_cast<std::uint64_t>(cg[k].iterations);
      if (cg[k].preconditioned) {
        c.result.stats.precond_cg_iterations +=
            static_cast<std::uint64_t>(cg[k].iterations);
      }
      double max_delta = 0.0;
      for (std::size_t i = 0; i < n_tiles; ++i) {
        max_delta = std::max(max_delta, std::fabs(new_temps[k][i] - c.temps[i]));
      }
      c.temps = new_temps[k];
      watch.lap();
      const timing::TimingResult sta =
          c.incremental ? c.session->analyze(c.temps, /*with_critical_path=*/false)
                        : impl.sta->analyze(dev, c.temps);
      c.fmax = sta.fmax_mhz.value();
      c.emit_phase(FlowPhase::Sta, watch.lap());
      util::log_debug("guardband iter %d: fmax %.1f MHz, max dT %.3f C", iter, c.fmax,
                      max_delta);
      if (c.opt->observer != nullptr && c.opt->observer->on_iteration) {
        FlowObserver::IterationInfo info;
        info.iteration = iter;
        info.fmax_mhz = units::Megahertz{c.fmax};
        info.max_delta_c = units::Kelvin{max_delta};
        if (c.session) {
          info.edges_reevaluated = c.session->counters().edges_reevaluated - c.last_edges;
          info.delay_cache_hits = c.session->counters().delay_cache_hits - c.last_hits;
        }
        info.cg_iterations = static_cast<std::uint64_t>(cg[k].iterations);
        c.opt->observer->on_iteration(info);
      }
      if (c.session) {
        c.last_edges = c.session->counters().edges_reevaluated;
        c.last_hits = c.session->counters().delay_cache_hits;
      }
      if (max_delta < c.opt->delta_t_c.value()) {
        c.result.converged = true;
        c.active = false;
      }
    }
  }

  std::vector<GuardbandResult> results;
  results.reserve(corners.size());
  for (std::size_t k = 0; k < corners.size(); ++k) {
    CornerState& c = corners[k];
    const GuardbandOptions& opt = *c.opt;
    if (c.session) {
      c.result.stats.edges_reevaluated = c.session->counters().edges_reevaluated;
      c.result.stats.delay_cache_hits = c.session->counters().delay_cache_hits;
    }
    if (!c.result.converged) {
      util::log_warn(
          "guardband(%s): not converged after %d iterations (max dT still >= %g C); "
          "result is not a thermal fixed point",
          impl.nl.name().c_str(), opt.max_iterations, opt.delta_t_c.value());
    }

    // Final margin: re-time at T + delta_T to absorb the convergence error.
    std::vector<double> margin_temps = c.temps;
    for (double& t : margin_temps) t += opt.delta_t_c.value();
    watch.lap();
    c.result.timing = c.incremental
                          ? c.session->analyze(margin_temps, /*with_critical_path=*/true)
                          : impl.sta->analyze(dev, margin_temps);
    c.result.fmax_mhz = c.result.timing.fmax_mhz;
    c.emit_phase(FlowPhase::Sta, watch.lap());

    // Report power at the operating point actually returned: the converged
    // temperature map and the margin-applied fmax. (The loop's last power
    // map belongs to the *previous* iterate, and is never computed at all
    // when max_iterations == 0.)
    watch.lap();
    c.result.power = run_power(c, c.result.fmax_mhz.value(), c.temps);
    c.emit_phase(FlowPhase::Power, watch.lap());
    c.result.tile_temp_c = std::move(c.temps);

    FlowCounters& fc = thread_flow_counters();
    ++fc.guardband_runs;
    if (!c.result.converged) ++fc.guardband_nonconverged;
    fc.sta_edges_reevaluated += c.result.stats.edges_reevaluated;
    fc.sta_delay_cache_hits += c.result.stats.delay_cache_hits;
    fc.thermal_cg_iterations += c.result.stats.cg_iterations;
    fc.thermal_precond_iterations += c.result.stats.precond_cg_iterations;

    util::Accumulator acc;
    for (double t : c.result.tile_temp_c) acc.add(t);
    c.result.peak_temp_c = units::Celsius{acc.max()};
    c.result.mean_temp_c = units::Celsius{acc.mean()};
    results.push_back(std::move(c.result));
  }
  return results;
}

}  // namespace

GuardbandResult guardband(const Implementation& impl, const coffe::DeviceModel& dev,
                          const GuardbandOptions& opt) {
  return std::move(guardband_lockstep(impl, dev, {opt}, /*share_thermal=*/false)[0]);
}

GuardbandOptions with_corner(const GuardbandOptions& base, const GuardbandCorner& c) {
  GuardbandOptions opt = base;
  opt.t_amb_c = c.t_amb_c;
  opt.power_scale = c.power_scale;
  return opt;
}

std::vector<GuardbandResult> guardband_batch(const Implementation& impl,
                                             const coffe::DeviceModel& dev,
                                             const GuardbandOptions& base,
                                             const std::vector<GuardbandCorner>& corners) {
  std::vector<GuardbandOptions> opts;
  opts.reserve(corners.size());
  for (const GuardbandCorner& c : corners) opts.push_back(with_corner(base, c));
  // The batched thermal path needs the stencil backend (the generic
  // oracle has no shared traversal) and warm starts (an incremental
  // mode); anything else runs the same lockstep loop with per-corner
  // solves, which is the sequential corner loop in every detail.
  const bool share = base.thermal.backend == thermal::ThermalBackend::Stencil &&
                     base.incremental != IncrementalMode::Off && opts.size() > 1;
  return guardband_lockstep(impl, dev, opts, share);
}

int select_grade(const std::vector<coffe::DeviceModel>& devices, units::Celsius t_min,
                 units::Celsius t_max) {
  if (devices.empty()) throw std::invalid_argument("select_grade: no devices");
  if (t_max < t_min) std::swap(t_min, t_max);
  // Degenerate range: the uniform expectation collapses to the point
  // delay (expected_cp_delay's integral would divide by zero).
  const auto expected = [&](const coffe::DeviceModel& dev) {
    return t_min == t_max ? dev.rep_cp_delay(t_min).value()
                          : dev.expected_cp_delay(t_min, t_max).value();
  };
  int best = 0;
  double best_d = expected(devices[0]);
  for (int i = 1; i < static_cast<int>(devices.size()); ++i) {
    const double d = expected(devices[static_cast<std::size_t>(i)]);
    if (d < best_d) {
      best_d = d;
      best = i;
    }
  }
  return best;
}

}  // namespace taf::core
