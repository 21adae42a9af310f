// Differential tests for the incremental Algorithm 1 engine: for every
// registered benchmark and both ambient corners the paper sweeps,
// core::guardband() (incremental STA session + warm-started thermal PCG)
// must reproduce the full-recompute reference of
// tests/reference_guardband.hpp — identical iteration counts,
// bitwise-equal baseline, fmax within 1e-9 MHz and tile temperatures
// within 1e-9 degC against the reference with cold stencil solves (the
// reference with cold plain-CG solves is checked in
// test_thermal_differential.cpp). Plus the superposed start of the first
// thermal solve against a cold solve on every benchmark, its memo's key,
// the metamorphic zero-power check (one iteration, zero incremental work)
// and the non-convergence flag/counter satellite. The STA-level differential drives one
// IncrementalSta session through every frontier shape (all, some and no
// tiles moved) against the full-recompute reference of
// tests/reference_sta.hpp.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "core/flow.hpp"
#include "reference_guardband.hpp"
#include "reference_sta.hpp"
#include "util/rng.hpp"

namespace {

using namespace taf;

const arch::ArchParams& test_arch() {
  static const arch::ArchParams a = arch::scaled_arch();
  return a;
}

const coffe::DeviceModel& device() {
  static const coffe::DeviceModel dev =
      coffe::Characterizer(tech::ptm22(), test_arch()).characterize(units::Celsius(25.0));
  return dev;
}

const std::vector<netlist::BenchmarkSpec>& suite() {
  static const std::vector<netlist::BenchmarkSpec> s = netlist::vtr_suite();
  return s;
}

core::GuardbandOptions base_options(double t_amb_c) {
  core::GuardbandOptions opt;
  opt.t_amb_c = units::Celsius(t_amb_c);
  opt.delta_t_c = units::Kelvin(0.2);  // stricter than default so the loop actually iterates
  return opt;
}

void expect_equivalent(const core::GuardbandResult& full,
                       const core::GuardbandResult& inc, const char* label) {
  SCOPED_TRACE(label);
  EXPECT_EQ(full.iterations, inc.iterations);
  EXPECT_EQ(full.converged, inc.converged);
  // guardband() times the baseline through its session, which must equal
  // the reference's analyze_uniform bit for bit.
  EXPECT_DOUBLE_EQ(full.baseline_fmax_mhz.value(), inc.baseline_fmax_mhz.value());
  EXPECT_NEAR(full.fmax_mhz.value(), inc.fmax_mhz.value(), 1e-9);
  EXPECT_NEAR(full.timing.critical_path_ps.value(), inc.timing.critical_path_ps.value(), 1e-9);
  ASSERT_EQ(full.tile_temp_c.size(), inc.tile_temp_c.size());
  for (std::size_t i = 0; i < full.tile_temp_c.size(); ++i) {
    ASSERT_NEAR(full.tile_temp_c[i], inc.tile_temp_c[i], 1e-9)
        << "tile " << i;
  }
  EXPECT_NEAR(full.peak_temp_c.value(), inc.peak_temp_c.value(), 1e-9);
  EXPECT_NEAR(full.mean_temp_c.value(), inc.mean_temp_c.value(), 1e-9);
  // Power feels the (tolerance-bounded) temperature difference only
  // through leakage; agreement is far tighter than physical relevance.
  EXPECT_NEAR(full.power.dynamic_w.value(), inc.power.dynamic_w.value(),
              1e-8 * std::max(1.0, full.power.dynamic_w.value()));
  EXPECT_NEAR(full.power.leakage_w.value(), inc.power.leakage_w.value(),
              1e-8 * std::max(1.0, full.power.leakage_w.value()));
}

class IncrementalDifferential : public ::testing::TestWithParam<int> {};

TEST_P(IncrementalDifferential, ExactMatchesFullRecomputeAtBothAmbients) {
  const netlist::BenchmarkSpec spec =
      netlist::scaled(suite()[static_cast<std::size_t>(GetParam())], 1.0 / 16);
  const auto impl = core::implement(spec, test_arch());
  // The reference walks the route trees itself and must find the same
  // (net, sink) connections the production topology was built from.
  EXPECT_EQ(reference_sta::Analyzer(impl->nl, impl->packed, impl->placement, impl->rr,
                                    impl->routes, impl->grid)
                .num_connections(),
            impl->sta->num_connections());
  for (double t_amb : {25.0, 70.0}) {
    const core::GuardbandOptions opt = base_options(t_amb);
    const auto inc = core::guardband(*impl, device(), opt);
    const auto full = reference::guardband(*impl, device(), opt, reference::stencil_cold);
    const std::string label = spec.name + " @ " + std::to_string(t_amb) + "C";
    expect_equivalent(full, inc, label.c_str());
    // The session records the loop's STA work, and the loop re-times a
    // map only when another iteration reads it: STA work happens iff the
    // run iterated again.
    EXPECT_EQ(inc.stats.delay_cache_hits + inc.stats.edges_reevaluated > 0u,
              inc.iterations >= 2);
    // Production starts iteration 1 from the superposed unit responses
    // (often needing no CG iteration at all) and later iterations from
    // the previous iterate; the reference solves every iteration cold.
    if (inc.iterations > 0) {
      EXPECT_LT(inc.stats.cg_iterations, full.stats.cg_iterations);
    }
  }
}

/// Max |a - b| over two maps of one size.
double max_abs_diff(const std::vector<double>& a, const std::vector<double>& b) {
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) worst = std::max(worst, std::fabs(a[i] - b[i]));
  return worst;
}

/// Cold solve of Algorithm 1's first power map (every tile at the
/// ambient, priced at clock f) under opt's thermal model.
std::vector<double> cold_first_solve(const core::Implementation& impl,
                                     const core::GuardbandOptions& opt, units::Megahertz f) {
  const auto n = static_cast<std::size_t>(impl.grid.num_tiles());
  std::vector<double> power =
      power::compute_power(device(), impl.tile_activity, f,
                           std::vector<double>(n, opt.t_amb_c.value()), impl.grid)
          .tile_w;
  for (double& w : power) w *= opt.power_scale;
  thermal::ThermalConfig tcfg = opt.thermal;
  tcfg.ambient_c = opt.t_amb_c;
  tcfg.tile_edge_um = impl.arch.tile_edge_um;
  return thermal::ThermalGrid(impl.grid, tcfg).solve(power);
}

// The superposed start is the cold solve of the first power map up to the
// solver's own error bound, sqrt(n_tiles) * solve_tol_k, at every ambient
// and activity; at zero activity it is the ambient field bitwise.
TEST_P(IncrementalDifferential, SuperposedStartMatchesAColdFirstSolve) {
  const netlist::BenchmarkSpec spec =
      netlist::scaled(suite()[static_cast<std::size_t>(GetParam())], 1.0 / 16);
  const auto impl = core::implement(spec, test_arch());
  const double bound =
      std::sqrt(static_cast<double>(impl->grid.num_tiles())) *
      core::GuardbandOptions{}.thermal.solve_tol_k.value();
  for (double t_amb : {25.0, 70.0}) {
    const units::Megahertz f =
        impl->sta->analyze_uniform(device(), units::Celsius(t_amb)).fmax_mhz;
    for (double scale : {0.0, 0.25, 1.0}) {
      SCOPED_TRACE(spec.name + " @ " + std::to_string(t_amb) + "C, power_scale " +
                   std::to_string(scale));
      core::GuardbandOptions opt = base_options(t_amb);
      opt.power_scale = scale;
      const std::vector<double> start = core::first_solve_start(*impl, device(), opt, f);
      EXPECT_LE(max_abs_diff(start, cold_first_solve(*impl, opt, f)), bound);
      if (scale == 0.0) {
        for (double t : start) ASSERT_EQ(t, t_amb);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, IncrementalDifferential,
                         ::testing::Range(0, static_cast<int>(netlist::vtr_suite().size())),
                         [](const auto& name_info) {
                           return netlist::vtr_suite()[static_cast<std::size_t>(
                                                           name_info.param)]
                               .name;
                         });

class StaSessionDifferential : public ::testing::TestWithParam<const char*> {
 protected:
  std::unique_ptr<core::Implementation> implement_param() const {
    netlist::BenchmarkSpec spec;
    for (const auto& s : suite()) {
      if (s.name == GetParam()) spec = netlist::scaled(s, 1.0 / 16);
    }
    return core::implement(spec, test_arch());
  }
};

// Drives one session through every frontier shape against the
// full-recompute reference: bitwise results and exact counter deltas on
// every call. `ref` walks the same routes as `sta`.
//
// Seeded map sequence: a uniform map as the first call and again at a
// new temperature, then every tile moves, then a uniform map right
// after it, then a tenth of the tiles, then none, and so on. A uniform
// map moves every tile, so it takes the dense pass priced by hop count.
// Uniform temperatures come from their own stream, so the other shapes
// pick the same tiles as without them.
void expect_session_matches_analyzer(const timing::TimingAnalyzer& sta,
                                     const reference_sta::Analyzer& ref, std::size_t n_tiles) {
  const std::uint64_t n_conns = sta.num_connections();
  ASSERT_EQ(ref.num_connections(), n_conns);
  enum class Moved { All, Uniform, Some, None };
  util::Rng rng(0x5eed0017);
  util::Rng uniform_rng(0x5eed0018);
  std::vector<double> temps(n_tiles, 0.0);
  timing::IncrementalSta session(sta, device());
  for (const Moved moved :
       {Moved::Uniform, Moved::Uniform, Moved::All, Moved::Uniform, Moved::Some, Moved::None,
        Moved::All, Moved::Some, Moved::None, Moved::All}) {
    if (moved == Moved::All) {
      for (double& t : temps) t = rng.uniform(25.0, 95.0);
    } else if (moved == Moved::Uniform) {
      const double t = uniform_rng.uniform(25.0, 95.0);
      ASSERT_NE(t, temps.front());
      temps.assign(n_tiles, t);
    } else if (moved == Moved::Some) {
      for (std::size_t i = 0; i < n_tiles / 10; ++i) {
        temps[rng.next_below(static_cast<std::uint32_t>(n_tiles))] += rng.uniform(0.1, 5.0);
      }
    }
    const timing::StaCounters before = session.counters();
    const timing::TimingResult inc = session.analyze(temps, /*with_critical_path=*/true);
    const std::uint64_t edges = session.counters().edges_reevaluated - before.edges_reevaluated;
    const std::uint64_t hits = session.counters().delay_cache_hits - before.delay_cache_hits;
    const timing::TimingResult full = ref.analyze(device(), temps);

    EXPECT_EQ(inc.fmax_mhz.value(), full.fmax_mhz.value());
    EXPECT_EQ(inc.critical_path_ps.value(), full.critical_path_ps.value());
    EXPECT_EQ(inc.cp_prims, full.cp_prims);
    EXPECT_EQ(inc.cp_breakdown, full.cp_breakdown);
    if (moved == Moved::Uniform) {
      // The one-shot path: a fresh session's first call.
      const timing::TimingResult oracle =
          sta.analyze_uniform(device(), units::Celsius(temps.front()));
      EXPECT_EQ(inc.fmax_mhz.value(), oracle.fmax_mhz.value());
      EXPECT_EQ(inc.critical_path_ps.value(), oracle.critical_path_ps.value());
      EXPECT_EQ(inc.cp_prims, oracle.cp_prims);
      EXPECT_EQ(inc.cp_breakdown, oracle.cp_breakdown);
    }
    switch (moved) {
      case Moved::All:
      case Moved::Uniform:
        EXPECT_EQ(edges, n_conns);
        EXPECT_EQ(hits, 0u);
        break;
      case Moved::Some:
        EXPECT_GT(edges, 0u);
        EXPECT_LT(edges, n_conns);
        break;
      case Moved::None:
        EXPECT_EQ(edges, 0u);
        EXPECT_EQ(hits, 0u);
        break;
    }
  }
}

TEST_P(StaSessionDifferential, MatchesFullAnalyzerOnEveryFrontierShape) {
  const auto impl = implement_param();
  const timing::TimingAnalyzer& sta = *impl->sta;
  // Sinks of a net in one tile share a routed arc, so the session sums
  // fewer arcs than there are connections.
  EXPECT_LT(sta.num_arcs(), sta.num_connections());
  const reference_sta::Analyzer ref(impl->nl, impl->packed, impl->placement, impl->rr,
                                    impl->routes, impl->grid);
  expect_session_matches_analyzer(sta, ref, static_cast<std::size_t>(impl->grid.num_tiles()));
}

TEST_P(StaSessionDifferential, MatchesFullAnalyzerOnHopEstimatedArcs) {
  // With every route tree's parents cleared, no sink is found in its
  // tree, so every routed arc takes the SB-hop estimate path.
  const auto impl = implement_param();
  route::RouteResult no_parents = impl->routes;
  for (auto& nr : no_parents.routes) nr.parents.clear();
  const timing::TimingAnalyzer sta(impl->nl, impl->packed, impl->placement, impl->rr,
                                   no_parents, impl->grid);
  const reference_sta::Analyzer ref(impl->nl, impl->packed, impl->placement, impl->rr,
                                    no_parents, impl->grid);
  expect_session_matches_analyzer(sta, ref, static_cast<std::size_t>(impl->grid.num_tiles()));
}

// LUT/FF only, DSP feedback (frozen edges), BRAM launch/capture, and both.
INSTANTIATE_TEST_SUITE_P(SuiteDesigns, StaSessionDifferential,
                         ::testing::Values("sha", "diffeq1", "mkPktMerge", "or1200"),
                         [](const auto& name_info) { return std::string(name_info.param); });

// Shared small implementation for the non-parameterized checks.
const core::Implementation& sha_impl() {
  static const auto impl = [] {
    netlist::BenchmarkSpec spec;
    for (const auto& s : suite()) {
      if (s.name == "sha") spec = netlist::scaled(s, 1.0 / 16);
    }
    return core::implement(spec, test_arch());
  }();
  return *impl;
}

// sha routed on a one-track fabric: negotiation gives up with some nets
// unrouted (empty trees, timed by the SB-hop estimate) next to routed
// ones, and the session must still match the reference — also once a
// sink is cut out of every routed tree (partly routed nets).
TEST(UnroutableStaSessionDifferential, OneTrackFabricMatchesReference) {
  const core::Implementation& impl = sha_impl();
  arch::ArchParams a = test_arch();
  a.channel_tracks = 1;
  const route::RrGraph rr(impl.grid, a);
  route::RouteOptions opt;
  opt.max_iterations = 2;
  const route::RouteResult routes = route::route(rr, impl.packed, impl.placement, opt);
  ASSERT_FALSE(routes.success);
  const auto unrouted = std::count_if(routes.routes.begin(), routes.routes.end(),
                                      [](const route::NetRoute& nr) { return nr.nodes.empty(); });
  ASSERT_GT(unrouted, 0);
  ASSERT_LT(unrouted, static_cast<std::ptrdiff_t>(routes.routes.size()));
  // Each analyzer build reports its nets with sinks missing from their
  // routed trees in one warning line, not one line per net.
  const auto analyze_and_compare = [&](const route::RouteResult& rt,
                                       std::size_t expected_warning_lines) {
    testing::internal::CaptureStderr();
    const timing::TimingAnalyzer sta(impl.nl, impl.packed, impl.placement, rr, rt, impl.grid);
    const std::string log = testing::internal::GetCapturedStderr();
    std::size_t warning_lines = 0;
    for (std::size_t at = log.find("sinks missing from"); at != std::string::npos;
         at = log.find("sinks missing from", at + 1)) {
      ++warning_lines;
    }
    EXPECT_EQ(warning_lines, expected_warning_lines) << log;
    const reference_sta::Analyzer ref(impl.nl, impl.packed, impl.placement, rr, rt, impl.grid);
    expect_session_matches_analyzer(sta, ref, static_cast<std::size_t>(impl.grid.num_tiles()));
  };
  // A failed net has an empty tree: the SB-hop estimate, no warning.
  analyze_and_compare(routes, 0);
  // Cut one sink IPIN out of every routed tree: many nets with missing
  // sinks next to unrouted ones, one warning line.
  route::RouteResult partial = routes;
  std::size_t cut = 0;
  for (route::NetRoute& nr : partial.routes) {
    const auto ipin = std::find_if(nr.parents.begin(), nr.parents.end(), [&](const auto& p) {
      return rr.node(p.first).kind == route::RrKind::Ipin;
    });
    if (ipin == nr.parents.end()) continue;
    nr.parents.erase(ipin);
    ++cut;
  }
  ASSERT_GT(cut, 1u);
  analyze_and_compare(partial, 1);
}

TEST(IncrementalDifferentialDetail, CriticalPathStructureIsIdentical) {
  const auto full = reference::guardband(sha_impl(), device(), base_options(25.0),
                                         reference::stencil_cold);
  const auto inc = core::guardband(sha_impl(), device(), base_options(25.0));
  ASSERT_EQ(full.timing.cp_prims.size(), inc.timing.cp_prims.size());
  for (std::size_t i = 0; i < full.timing.cp_prims.size(); ++i) {
    EXPECT_EQ(full.timing.cp_prims[i], inc.timing.cp_prims[i]) << "hop " << i;
  }
  for (std::size_t k = 0; k < full.timing.cp_breakdown.size(); ++k) {
    EXPECT_NEAR(full.timing.cp_breakdown[k], inc.timing.cp_breakdown[k], 1e-9)
        << "kind " << k;
  }
}

TEST(IncrementalMetamorphic, ZeroPowerConvergesInOneIterationWithZeroWork) {
  // With the power map forced to zero the fixed point is the ambient
  // field itself: the first iteration must leave every temperature
  // bitwise unchanged, so the incremental STA sees an empty frontier and
  // the warm-started CG terminates without a single iteration.
  auto opt = base_options(25.0);
  opt.power_scale = 0.0;
  const auto r = core::guardband(sha_impl(), device(), opt);
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(r.iterations, 1);
  EXPECT_EQ(r.stats.edges_reevaluated, 0u);
  EXPECT_EQ(r.stats.delay_cache_hits, 0u);
  EXPECT_EQ(r.stats.cg_iterations, 0u);
  for (double t : r.tile_temp_c) EXPECT_EQ(t, 25.0);
  EXPECT_EQ(r.power.dynamic_w.value(), 0.0);
  EXPECT_EQ(r.power.leakage_w.value(), 0.0);
}

// The unit responses are keyed by the thermal operator alone: another
// ambient or activity reuses an entry, another package resistance or
// tolerance builds its own, and Algorithm 1 under that model still
// matches the cold reference.
TEST(SuperposedStart, EachThermalOperatorGetsItsOwnMemoEntry) {
  netlist::BenchmarkSpec spec;
  for (const auto& s : suite()) {
    if (s.name == "diffeq1") spec = netlist::scaled(s, 1.0 / 16);
  }
  const auto impl = core::implement(spec, test_arch());
  const units::Megahertz f =
      impl->sta->analyze_uniform(device(), units::Celsius(25.0)).fmax_mhz;
  EXPECT_EQ(impl->unit_responses.size(), 0u);
  core::first_solve_start(*impl, device(), base_options(25.0), f);
  EXPECT_EQ(impl->unit_responses.size(), 1u);
  core::GuardbandOptions warm = base_options(70.0);
  warm.power_scale = 0.5;
  core::first_solve_start(*impl, device(), warm, f);
  EXPECT_EQ(impl->unit_responses.size(), 1u);

  core::GuardbandOptions tuned = base_options(25.0);
  tuned.thermal.package_r_k_per_w = 6.0;
  tuned.thermal.solve_tol_k = units::Kelvin(1e-12);
  const std::vector<double> start = core::first_solve_start(*impl, device(), tuned, f);
  EXPECT_EQ(impl->unit_responses.size(), 2u);
  EXPECT_LE(max_abs_diff(start, cold_first_solve(*impl, tuned, f)),
            std::sqrt(static_cast<double>(impl->grid.num_tiles())) * 1e-12);
  expect_equivalent(reference::guardband(*impl, device(), tuned, reference::stencil_cold),
                    core::guardband(*impl, device(), tuned), "diffeq1, tuned thermal model");
}

TEST(IncrementalNonConvergence, ExhaustedLoopIsFlaggedAndCounted) {
  const core::FlowCounters before = core::thread_flow_counters();
  auto opt = base_options(25.0);
  opt.max_iterations = 1;
  opt.delta_t_c = units::Kelvin(1e-6);  // unreachable in one iteration from ambient
  const auto r = core::guardband(sha_impl(), device(), opt);
  EXPECT_FALSE(r.converged);
  EXPECT_EQ(r.iterations, 1);
  const core::FlowCounters d = core::thread_flow_counters() - before;
  EXPECT_EQ(d.guardband_runs, 1u);
  EXPECT_EQ(d.guardband_nonconverged, 1u);
}

TEST(IncrementalNonConvergence, ConvergedRunIsNotCounted) {
  const core::FlowCounters before = core::thread_flow_counters();
  const auto r = core::guardband(sha_impl(), device(),
                                 base_options(25.0));
  EXPECT_TRUE(r.converged);
  const core::FlowCounters d = core::thread_flow_counters() - before;
  EXPECT_EQ(d.guardband_runs, 1u);
  EXPECT_EQ(d.guardband_nonconverged, 0u);
  EXPECT_EQ(d.sta_edges_reevaluated, r.stats.edges_reevaluated);
  EXPECT_EQ(d.thermal_cg_iterations, r.stats.cg_iterations);
}

TEST(IncrementalNonConvergence, ZeroIterationBudgetIsVacuouslyConverged) {
  auto opt = base_options(25.0);
  opt.max_iterations = 0;
  const auto r = core::guardband(sha_impl(), device(), opt);
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(r.iterations, 0);
}

}  // namespace
