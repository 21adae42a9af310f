// Transient thermal engine suite (ISSUE 8): physical sanity (zero-power
// decay to ambient is monotone), numerical order (backward Euler's
// global error halves with the step), determinism (identical advances
// are bitwise identical), and the differential anchor — a long
// constant-power dwell must land on the steady state within
// kTransientSteadyContractC, per tile, on every suite benchmark's fabric,
// as solved by both ThermalGrid::solve() and the plain-CG oracle.

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/flow.hpp"
#include "thermal/transient.hpp"
#include "thermal_oracle.hpp"
#include "util/rng.hpp"

namespace {

using namespace taf;
using thermal::ThermalConfig;
using thermal::ThermalGrid;
using thermal::TransientEngine;
using thermal::TransientOptions;
using thermal::TransientStats;

ThermalConfig config_at(double t_amb_c = 25.0) {
  ThermalConfig cfg;
  cfg.ambient_c = units::Celsius(t_amb_c);
  return cfg;
}

TEST(TransientEngine, RejectsMalformedOptionsAndInputs) {
  const arch::FpgaGrid fg(4, 4);
  const ThermalGrid grid(fg, config_at());

  TransientOptions bad = {};
  bad.dt_init_frac = 0.0;
  EXPECT_THROW(TransientEngine(grid, bad), std::invalid_argument);
  bad = {};
  bad.dt_min_frac = 0.5;
  bad.dt_max_frac = 0.25;
  EXPECT_THROW(TransientEngine(grid, bad), std::invalid_argument);
  bad = {};
  bad.grow = 0.5;
  EXPECT_THROW(TransientEngine(grid, bad), std::invalid_argument);
  bad = {};
  bad.target_step_k = units::Kelvin{0.0};
  EXPECT_THROW(TransientEngine(grid, bad), std::invalid_argument);

  const TransientEngine engine(grid);
  std::vector<double> temps(16, 25.0);
  std::vector<double> short_power(15, 0.0);
  EXPECT_THROW(engine.advance(short_power, units::Seconds{1.0}, temps),
               std::invalid_argument);
  std::vector<double> power(16, 0.0);
  std::vector<double> short_temps(15, 25.0);
  EXPECT_THROW(engine.advance(power, units::Seconds{1.0}, short_temps),
               std::invalid_argument);
  EXPECT_THROW(engine.advance(power, units::Seconds{-1.0}, temps),
               std::invalid_argument);
  const double nan = std::nan("");
  EXPECT_THROW(engine.advance(power, units::Seconds{nan}, temps),
               std::invalid_argument);

  // Zero duration is a no-op, not an error.
  std::vector<double> before = temps;
  TransientStats stats;
  engine.advance(power, units::Seconds{0.0}, temps, &stats);
  EXPECT_EQ(temps, before);
  EXPECT_EQ(stats.steps, 0u);
}

TEST(TransientEngine, ZeroPowerDecaysMonotonicallyToAmbient) {
  util::Rng rng(13);
  const double ambient = 25.0;
  const arch::FpgaGrid fg(9, 4);
  const ThermalGrid grid(fg, config_at(ambient));
  const TransientEngine engine(grid);
  const double tau = grid.tile_time_constant().value();

  // Heat the fabric with a hotspot map, then cut the power.
  std::vector<double> power(9 * 4, 1e-4);
  power[13] = 0.4;
  power[27] = 0.2 * rng.next_double() + 0.1;
  std::vector<double> temps = grid.solve(power);
  const double excursion = ThermalGrid::peak(temps).value() - ambient;
  ASSERT_GT(excursion, 0.0);

  const std::vector<double> zero(9 * 4, 0.0);
  double prev_peak = ThermalGrid::peak(temps).value();
  for (int k = 0; k < 20; ++k) {
    engine.advance(zero, units::Seconds{0.5 * tau}, temps);
    const double peak = ThermalGrid::peak(temps).value();
    // Backward Euler is unconditionally stable and the operator is an
    // M-matrix: the peak can never rise without power.
    EXPECT_LE(peak, prev_peak + 1e-9) << "sub-advance " << k;
    EXPECT_GE(peak, ambient - 1e-9) << "sub-advance " << k;
    prev_peak = peak;
  }
  // After 10 time constants the excursion has decayed by ~e^-10.
  EXPECT_NEAR(prev_peak, ambient, excursion * 1e-3 + 1e-9);
}

TEST(TransientEngine, FixedStepConvergesAtFirstOrder) {
  // 1x1 fabric: no lateral coupling, so the exact solution is the RC
  // charging curve T(t) = T_amb + (P/g)(1 - e^{-t/tau}). Backward Euler
  // is order 1: pinning dt via dt_min_frac == dt_max_frac, the error at
  // t = tau must halve (within slack) each time the step halves.
  const arch::FpgaGrid fg(1, 1);
  const ThermalGrid grid(fg, config_at());
  const double g = grid.vertical_g();
  const double tau = grid.tile_time_constant().value();
  const double ambient = 25.0;
  const std::vector<double> power{0.3};
  const double exact = ambient + (0.3 / g) * (1.0 - std::exp(-1.0));

  std::vector<double> errs;
  for (const double frac : {1.0 / 16.0, 1.0 / 32.0, 1.0 / 64.0}) {
    TransientOptions opt;
    opt.dt_init_frac = frac;
    opt.dt_min_frac = frac;
    opt.dt_max_frac = frac;
    opt.steady_tol_k = units::Kelvin{0.0};  // no hold: integrate every step
    const TransientEngine engine(grid, opt);
    std::vector<double> temps{ambient};
    TransientStats stats;
    engine.advance(power, units::Seconds{tau}, temps, &stats);
    // 1/frac equal steps, plus possibly one clipped sliver when the
    // accumulated float subtraction leaves a remainder.
    const auto expected = static_cast<std::uint64_t>(std::lround(1.0 / frac));
    EXPECT_GE(stats.steps, expected);
    EXPECT_LE(stats.steps, expected + 1);
    errs.push_back(std::abs(temps[0] - exact));
  }
  ASSERT_EQ(errs.size(), 3u);
  for (std::size_t k = 0; k + 1 < errs.size(); ++k) {
    const double ratio = errs[k] / errs[k + 1];
    EXPECT_GT(ratio, 1.7) << "halving step " << k;
    EXPECT_LT(ratio, 2.3) << "halving step " << k;
  }
}

TEST(TransientEngine, IdenticalAdvancesAreBitwiseIdentical) {
  util::Rng rng(71);
  const arch::FpgaGrid fg(17, 9);
  const ThermalGrid grid(fg, config_at());
  const TransientEngine engine(grid);
  const double tau = grid.tile_time_constant().value();
  std::vector<double> power(17 * 9);
  for (double& w : power) w = 2e-3 * rng.next_double();

  std::vector<double> a(17 * 9, 25.0), b(17 * 9, 25.0);
  TransientStats sa, sb;
  engine.advance(power, units::Seconds{3.0 * tau}, a, &sa);
  engine.advance(power, units::Seconds{3.0 * tau}, b, &sb);
  EXPECT_EQ(sa.steps, sb.steps);
  EXPECT_EQ(sa.holds, sb.holds);
  EXPECT_EQ(sa.cg_iterations, sb.cg_iterations);
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i], b[i]) << "tile " << i;  // bitwise, not approximate
  }
  EXPECT_GT(sa.steps, 0u);
}

TEST(TransientEngine, DwellHoldFreezesAtTheFixedPoint) {
  // Once the controller saturates at dt_max and the per-step delta drops
  // under steady_tol_k, the remaining dwell is fast-forwarded: steps stop
  // growing with the dwell length and holds is reported.
  const arch::FpgaGrid fg(9, 4);
  const ThermalGrid grid(fg, config_at());
  const TransientEngine engine(grid);
  const double tau = grid.tile_time_constant().value();
  std::vector<double> power(9 * 4, 1e-4);
  power[20] = 0.3;

  std::vector<double> t_short(9 * 4, 25.0), t_long(9 * 4, 25.0);
  TransientStats s_short, s_long;
  engine.advance(power, units::Seconds{400.0 * tau}, t_short, &s_short);
  engine.advance(power, units::Seconds{400000.0 * tau}, t_long, &s_long);
  EXPECT_EQ(s_short.holds, 1u);
  EXPECT_EQ(s_long.holds, 1u);
  EXPECT_EQ(s_short.steps, s_long.steps);  // the extra dwell costs nothing
  for (std::size_t i = 0; i < t_short.size(); ++i) {
    ASSERT_EQ(t_short[i], t_long[i]) << "tile " << i;
  }
}

// ---------- the long-dwell differential anchor ----------

class TransientSteadyDifferential : public ::testing::TestWithParam<int> {};

TEST_P(TransientSteadyDifferential, LongDwellMatchesSteadySolveOnBothBackends) {
  // On every suite benchmark's implemented fabric: advancing 60 time
  // constants at constant power must agree tile by tile, within the
  // transient/steady contract bound, with the steady state as both
  // ThermalGrid::solve() and the plain-CG oracle compute it. This is the
  // anchor that keeps the adaptive integrator honest — any step-control
  // or augmented-operator bug shows up as a fixed point displaced from
  // the steady solves.
  const netlist::BenchmarkSpec spec =
      netlist::scaled(netlist::vtr_suite()[static_cast<std::size_t>(GetParam())], 1.0 / 16);
  const auto impl = core::implement(spec, arch::scaled_arch());
  const int n = impl->grid.num_tiles();

  util::Rng rng(919 + static_cast<std::uint64_t>(GetParam()));
  std::vector<double> power(static_cast<std::size_t>(n));
  for (double& w : power) w = 3e-3 * rng.next_double();
  power[static_cast<std::size_t>(n / 2)] = 0.25;

  ThermalConfig cfg = config_at(45.0);
  cfg.tile_edge_um = impl->arch.tile_edge_um;
  const ThermalGrid grid(impl->grid, cfg);
  const TransientEngine engine(grid);
  const double tau = grid.tile_time_constant().value();

  std::vector<double> temps(static_cast<std::size_t>(n), 45.0);
  TransientStats stats;
  engine.advance(power, units::Seconds{60.0 * tau}, temps, &stats);
  EXPECT_GT(stats.steps, 0u);

  const std::vector<double> steady = grid.solve(power);
  const std::vector<double> oracle = thermal_oracle::solve(grid, power);
  for (int i = 0; i < n; ++i) {
    const auto u = static_cast<std::size_t>(i);
    ASSERT_NEAR(temps[u], steady[u], thermal::kTransientSteadyContractC) << "tile " << i;
    ASSERT_NEAR(temps[u], oracle[u], thermal::kTransientSteadyContractC) << "tile " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, TransientSteadyDifferential,
                         ::testing::Range(0, static_cast<int>(netlist::vtr_suite().size())),
                         [](const auto& name_info) {
                           return netlist::vtr_suite()[static_cast<std::size_t>(
                                                           name_info.param)]
                               .name;
                         });

}  // namespace
