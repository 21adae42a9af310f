#include "core/flow.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/stage_graph.hpp"
#include "util/hash.hpp"
#include "util/log.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"

namespace taf::core {

const char* flow_phase_name(FlowPhase phase) {
  const auto i = static_cast<std::size_t>(phase);
  return i < std::size(kFlowPhaseNames) ? kFlowPhaseNames[i] : "unknown";
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

std::size_t ThermalOperatorKeyHash::operator()(const ThermalOperatorKey& k) const {
  util::Fnv1a h;
  h.add(k.width);
  h.add(k.height);
  h.add(k.lateral_g);
  h.add(k.vertical_g);
  h.add(k.solve_tol_k);
  return static_cast<std::size_t>(h.state);
}

namespace {

/// The unit responses of `impl` under tgrid's operator: one batched cold
/// solve of the basis maps at zero ambient (an all-zero map costs no CG
/// iteration and responds with zeros), built once per
/// (implementation, operator) by whichever call or thread asks first.
/// Its CG work is therefore counted neither in a GuardbandResult nor in
/// the flow counters, which would then depend on call order; its time is
/// part of the asking call's Thermal phase.
const UnitResponses& unit_responses(const Implementation& impl,
                                    const thermal::ThermalGrid& tgrid) {
  const ThermalOperatorKey key{tgrid.width(), tgrid.height(), tgrid.lateral_g(),
                               tgrid.vertical_g(), tgrid.config().solve_tol_k.value()};
  return impl.unit_responses.get_or_build(key, [&] {
    const std::vector<std::vector<double>> basis =
        power::uniform_power_basis(impl.tile_activity, impl.grid);
    return tgrid.solve_batch(
        basis, std::vector<std::vector<double>>(basis.size(), std::vector<double>(basis[0].size())),
        std::vector<double>(basis.size(), 0.0));
  });
}

/// The thermal model of one guardband corner: opt.thermal at the
/// corner's ambient and the architecture's tile edge.
thermal::ThermalGrid guardband_thermal_grid(const Implementation& impl,
                                            const GuardbandOptions& opt) {
  thermal::ThermalConfig tcfg = opt.thermal;
  tcfg.ambient_c = opt.t_amb_c;
  tcfg.tile_edge_um = impl.arch.tile_edge_um;
  return thermal::ThermalGrid(impl.grid, tcfg);
}

/// Per-corner state of the lockstep Algorithm 1 engine below. One corner
/// is exactly one historical guardband() call; the engine only changes
/// *when* each corner's thermal solve runs, never what it computes.
struct CornerState {
  const GuardbandOptions* opt = nullptr;
  GuardbandResult result;
  std::optional<timing::IncrementalSta> session;
  std::vector<double> temps;
  double fmax = 0.0;
  std::uint64_t last_edges = 0;
  std::uint64_t last_hits = 0;
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
/// a standalone guardband(impl, dev, opts[k]) call. The still-active
/// corners' thermal solves run as one batched stencil traversal per
/// iteration (ThermalGrid::solve_batch, itself pinned bit-identical to
/// per-corner solves).
std::vector<GuardbandResult> guardband_lockstep(const Implementation& impl,
                                                const coffe::DeviceModel& dev,
                                                const std::vector<GuardbandOptions>& opts) {
  const auto n_tiles = static_cast<std::size_t>(impl.grid.num_tiles());
  std::vector<CornerState> corners(opts.size());
  util::Stopwatch watch;
  // Corners differ only in ambient and activity (with_corner), so the
  // worst-case corner and the thermal model are common to all of them:
  // one grid serves every corner, its ambient overridden per map.
  for ([[maybe_unused]] const GuardbandOptions& opt : opts) {
    assert(opt.t_worst_c == opts.front().t_worst_c);
    assert(opt.thermal == opts.front().thermal);
  }
  std::optional<thermal::ThermalGrid> tgrid;
  std::optional<units::Megahertz> baseline;

  for (std::size_t k = 0; k < opts.size(); ++k) {
    CornerState& c = corners[k];
    const GuardbandOptions& opt = opts[k];
    c.opt = &opt;

    if (!tgrid) tgrid.emplace(guardband_thermal_grid(impl, opt));
    c.session.emplace(*impl.sta, dev);

    // Conventional baseline: clock for the worst-case corner, a pure
    // function of (impl, dev, t_worst_c) and so timed once per call,
    // through the first session (bit-identical to analyze_uniform). The
    // priming pass below re-derives every tile, so the session's cache
    // does not depend on it.
    if (!baseline) {
      baseline = c.session
                     ->analyze(std::vector<double>(n_tiles, opt.t_worst_c.value()),
                               /*with_critical_path=*/false)
                     .fmax_mhz;
    }
    c.result.baseline_fmax_mhz = *baseline;

    // Priming analysis at a uniform ambient field.
    c.temps.assign(n_tiles, opt.t_amb_c.value());
    watch.lap();
    c.fmax = c.session->analyze(c.temps, /*with_critical_path=*/false).fmax_mhz.value();
    c.emit_phase(FlowPhase::Sta, watch.lap());
    // The priming analysis is iteration 1's STA and evaluated every edge
    // once; the loop stats report only the work later iterations cost.
    c.session->reset_counters();

    c.result.converged = opt.max_iterations <= 0;  // vacuously, if no loop runs
    c.active = opt.max_iterations > 0;
  }

  // In-loop analyses skip critical-path reconstruction (only fmax is
  // consumed); the margin analysis below reconstructs it.
  auto run_power = [&](const CornerState& c, double f_mhz,
                       const std::vector<double>& t) {
    power::PowerBreakdown p =
        power::compute_power(dev, impl.tile_activity, units::Megahertz{f_mhz}, t, impl.grid);
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
  std::vector<std::vector<double>> batch_power, batch_start;
  std::vector<double> batch_amb;
  std::vector<thermal::CgStats> batch_cg;
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

    batch_power.clear();
    batch_amb.clear();
    for (std::size_t k : live) {
      CornerState& c = corners[k];
      c.result.iterations = iter;
      watch.lap();
      batch_power.push_back(run_power(c, c.fmax, c.temps).tile_w);
      c.emit_phase(FlowPhase::Power, watch.lap());
      batch_amb.push_back(c.opt->t_amb_c.value());
    }

    // One blocked stencil traversal per CG iteration serves every live
    // corner; the per-corner ambients only shift the solution. CG may
    // start anywhere: the system is SPD, so it converges to the same
    // solution (within the tolerance) from any start. Iteration 1 starts
    // from the superposed unit responses, which already are that
    // solution up to the unit solves' residuals; later iterations start
    // from the previous iterate. Either way the convergence test below
    // measures against the previous iterate (c.temps), not the start.
    watch.lap();
    batch_start.clear();
    for (std::size_t k : live) {
      const CornerState& c = corners[k];
      batch_start.push_back(iter == 1
                                ? first_solve_start(impl, dev, *c.opt, units::Megahertz{c.fmax})
                                : c.temps);
    }
    std::vector<std::vector<double>> batch_temps =
        tgrid->solve_batch(batch_power, batch_start, batch_amb, &batch_cg);
    // Each live corner is charged its share of the one traversal, so
    // the phases a batch reports never exceed its wall time.
    const double share_s = watch.lap() / static_cast<double>(live.size());
    for (std::size_t k : live) corners[k].emit_phase(FlowPhase::Thermal, share_s);

    for (std::size_t a = 0; a < live.size(); ++a) {
      CornerState& c = corners[live[a]];
      const auto cg_iters = static_cast<std::uint64_t>(batch_cg[a].iterations);
      c.result.stats.cg_iterations += cg_iters;
      double max_delta = 0.0;
      for (std::size_t i = 0; i < n_tiles; ++i) {
        max_delta = std::max(max_delta, std::fabs(batch_temps[a][i] - c.temps[i]));
      }
      c.temps = std::move(batch_temps[a]);
      const double priced_fmax = c.fmax;
      const bool converged = max_delta < c.opt->delta_t_c.value();
      // Only a next iteration reads this iteration's STA: a converged or
      // exhausted corner is clocked by the margin pass below instead.
      if (!converged && iter < c.opt->max_iterations) {
        watch.lap();
        c.fmax = c.session->analyze(c.temps, /*with_critical_path=*/false).fmax_mhz.value();
        c.emit_phase(FlowPhase::Sta, watch.lap());
      }
      util::log_debug("guardband iter %d: power at %.1f MHz, max dT %.3f C", iter,
                      priced_fmax, max_delta);
      const timing::StaCounters& sc = c.session->counters();
      if (c.opt->observer != nullptr && c.opt->observer->on_iteration) {
        FlowObserver::IterationInfo info;
        info.iteration = iter;
        info.fmax_mhz = units::Megahertz{priced_fmax};
        info.max_delta_c = units::Kelvin{max_delta};
        info.edges_reevaluated = sc.edges_reevaluated - c.last_edges;
        info.delay_cache_hits = sc.delay_cache_hits - c.last_hits;
        info.cg_iterations = cg_iters;
        c.opt->observer->on_iteration(info);
      }
      c.last_edges = sc.edges_reevaluated;
      c.last_hits = sc.delay_cache_hits;
      if (converged) {
        c.result.converged = true;
        c.active = false;
      }
    }
  }

  std::vector<GuardbandResult> results;
  results.reserve(corners.size());
  for (CornerState& c : corners) {
    const GuardbandOptions& opt = *c.opt;
    c.result.stats.edges_reevaluated = c.session->counters().edges_reevaluated;
    c.result.stats.delay_cache_hits = c.session->counters().delay_cache_hits;
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
    c.result.timing = c.session->analyze(margin_temps, /*with_critical_path=*/true);
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
  return std::move(guardband_lockstep(impl, dev, {opt})[0]);
}

std::vector<double> first_solve_start(const Implementation& impl,
                                      const coffe::DeviceModel& dev,
                                      const GuardbandOptions& opt, units::Megahertz f) {
  const UnitResponses& responses = unit_responses(impl, guardband_thermal_grid(impl, opt));
  const power::UniformPowerCoefficients coef =
      power::uniform_power_coefficients(dev, f, opt.t_amb_c);
  // Every tile sits at the ambient, so the power map run_power() prices
  // is power_scale * sum_j coef_j * basis_j, and its temperature rise is
  // the same combination of the unit responses.
  std::vector<double> start(static_cast<std::size_t>(impl.grid.num_tiles()), 0.0);
  for (std::size_t j = 0; j < responses.size(); ++j) {
    for (std::size_t i = 0; i < start.size(); ++i) start[i] += coef[j] * responses[j][i];
  }
  for (double& t : start) t = opt.t_amb_c.value() + opt.power_scale * t;
  return start;
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
  return guardband_lockstep(impl, dev, opts);
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
