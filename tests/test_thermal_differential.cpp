// Differential tests for the thermal solver: ThermalGrid's blocked
// stencil PCG against the plain-CG oracle of tests/thermal_oracle.hpp —
// same role as the spice dense-LU / guardband full-recompute
// differential suites. Both honour one termination contract (squared
// true residual vs max(rr0 * 1e-20, n * (g_diag * solve_tol_k)^2)), so
// their temperature fields must agree per tile to within the sum of
// their reported residuals divided by the weakest per-tile conductance —
// the rigorous error bound the contract buys — on every grid shape,
// ambient corner, power pattern and start the flow exercises. The whole
// Algorithm 1 loop against the oracle is in
// test_guardband_incremental.cpp.

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "core/flow.hpp"
#include "reference_guardband.hpp"
#include "thermal/thermal_grid.hpp"
#include "thermal_oracle.hpp"
#include "util/rng.hpp"

namespace {

using namespace taf;
using thermal::CgStats;
using thermal::ThermalConfig;
using thermal::ThermalGrid;

ThermalConfig config_at(double t_amb_c = 25.0) {
  ThermalConfig cfg;
  cfg.ambient_c = units::Celsius(t_amb_c);
  return cfg;
}

struct Pattern {
  const char* name;
  std::vector<double> power;
};

std::vector<Pattern> patterns_for(int n, util::Rng& rng) {
  std::vector<Pattern> ps;
  ps.push_back({"uniform", std::vector<double>(static_cast<std::size_t>(n), 1e-4)});
  Pattern hotspot{"hotspot", std::vector<double>(static_cast<std::size_t>(n), 1e-5)};
  hotspot.power[static_cast<std::size_t>(n / 2)] = 0.5;
  hotspot.power[static_cast<std::size_t>(n / 3)] = 0.25;
  ps.push_back(std::move(hotspot));
  Pattern random{"random", std::vector<double>(static_cast<std::size_t>(n))};
  for (double& w : random.power) w = 2e-3 * rng.next_double();
  ps.push_back(std::move(random));
  return ps;
}

/// Per-tile bound the shared termination contract guarantees: each
/// solver's solution error is at most ||r||_2 / lambda_min, and
/// lambda_min >= the weakest per-tile conductance of the operator.
double contract_bound(const CgStats& a, const CgStats& b, double g_min) {
  return (a.residual_norm_w.value() + b.residual_norm_w.value()) / g_min + 1e-12;
}

TEST(ThermalBackendDifferential, SteadySolvesAgreeAcrossGridsAmbientsAndPatterns) {
  util::Rng rng(101);
  const int shapes[][2] = {{1, 1}, {9, 4}, {17, 9}, {32, 32}, {64, 64}};
  for (const auto& shape : shapes) {
    const int w = shape[0], h = shape[1], n = w * h;
    const arch::FpgaGrid fg(w, h);
    for (double t_amb : {25.0, 70.0}) {
      const ThermalGrid grid(fg, config_at(t_amb));
      for (const Pattern& pat : patterns_for(n, rng)) {
        SCOPED_TRACE(std::to_string(w) + "x" + std::to_string(h) + " " + pat.name +
                     " @ " + std::to_string(t_amb) + "C");
        CgStats sg, ss;
        const auto tg = thermal_oracle::solve(grid, pat.power, &sg);
        const auto ts = grid.solve(pat.power, &ss);
        const double bound = contract_bound(sg, ss, grid.vertical_g());
        for (int i = 0; i < n; ++i) {
          ASSERT_NEAR(tg[static_cast<std::size_t>(i)], ts[static_cast<std::size_t>(i)],
                      bound)
              << "tile " << i;
        }
      }
    }
  }
}

TEST(ThermalBackendDifferential, WarmStartedSolvesAgree) {
  util::Rng rng(211);
  const arch::FpgaGrid fg(32, 32);
  const int n = 32 * 32;
  const ThermalGrid grid(fg, config_at());
  const auto pats = patterns_for(n, rng);
  // Warm-start each pattern's solve from the previous pattern's field,
  // like the Algorithm 1 loop warm-starts from the prior iterate.
  std::vector<double> warm_g(static_cast<std::size_t>(n), 25.0);
  std::vector<double> warm_s = warm_g;
  for (const Pattern& pat : pats) {
    SCOPED_TRACE(pat.name);
    CgStats sg, ss;
    warm_g = thermal_oracle::solve(grid, pat.power, warm_g, &sg);
    warm_s = grid.solve(pat.power, warm_s, &ss);
    const double bound = contract_bound(sg, ss, grid.vertical_g());
    for (int i = 0; i < n; ++i) {
      ASSERT_NEAR(warm_g[static_cast<std::size_t>(i)], warm_s[static_cast<std::size_t>(i)],
                  bound)
          << "tile " << i;
    }
  }
}

TEST(ThermalBackendDifferential, TransientTracesAgree) {
  util::Rng rng(307);
  const arch::FpgaGrid fg(17, 9);
  const int n = 17 * 9;
  const ThermalGrid grid(fg, config_at());
  std::vector<double> p(static_cast<std::size_t>(n));
  for (double& w : p) w = 1e-3 * rng.next_double();
  const double tau = grid.tile_time_constant().value();
  for (double dt_frac : {1.0, 0.01}) {
    SCOPED_TRACE("dt = tau * " + std::to_string(dt_frac));
    std::vector<double> tg(static_cast<std::size_t>(n), 25.0);
    std::vector<double> ts = tg;
    const units::Seconds dt(tau * dt_frac);
    const double g_aug = grid.vertical_g() * (1.0 + 1.0 / dt_frac);
    for (int step = 0; step < 8; ++step) {
      CgStats sg, ss;
      thermal_oracle::step(grid, p, dt, tg, &sg);
      grid.step(p, dt, ts, &ss);
      // Per-step agreement through the augmented operator's conductance;
      // the per-step bounds accumulate along the trace.
      const double bound = (step + 1) * contract_bound(sg, ss, g_aug);
      for (int i = 0; i < n; ++i) {
        ASSERT_NEAR(tg[static_cast<std::size_t>(i)], ts[static_cast<std::size_t>(i)],
                    bound)
            << "step " << step << " tile " << i;
      }
    }
  }
}

TEST(ThermalBackendDifferential, BatchedSolveIsBitIdenticalToPerMapSolves) {
  // Start maps at the ambient make every batched solve a cold one.
  util::Rng rng(401);
  const arch::FpgaGrid fg(17, 9);
  const int n = 17 * 9;
  const ThermalGrid grid(fg, config_at());
  const double amb = grid.config().ambient_c.value();
  std::vector<std::vector<double>> maps;
  for (int k = 0; k < 3; ++k) {
    std::vector<double> p(static_cast<std::size_t>(n));
    for (double& w : p) w = 2e-3 * rng.next_double();
    maps.push_back(std::move(p));
  }
  const std::vector<std::vector<double>> starts(
      maps.size(), std::vector<double>(static_cast<std::size_t>(n), amb));
  std::vector<CgStats> batch_stats;
  const auto batch = grid.solve_batch(maps, starts, std::vector<double>(maps.size(), amb),
                                      &batch_stats);
  ASSERT_EQ(batch.size(), maps.size());
  ASSERT_EQ(batch_stats.size(), maps.size());
  for (std::size_t k = 0; k < maps.size(); ++k) {
    CgStats solo;
    const auto t = grid.solve(maps[k], &solo);
    EXPECT_EQ(solo.iterations, batch_stats[k].iterations) << "map " << k;
    for (int i = 0; i < n; ++i) {
      ASSERT_EQ(t[static_cast<std::size_t>(i)], batch[k][static_cast<std::size_t>(i)])
          << "map " << k << " tile " << i;
    }
  }
}

TEST(ThermalBackendDifferential, StencilNeedsFewerIterationsThanGenericOn64x64) {
  // The preconditioner must actually buy convergence on a flow-sized
  // steady solve against the plain-CG oracle, and the stats must say so.
  const ThermalGrid grid(arch::FpgaGrid(64, 64), config_at());
  std::vector<double> p(64 * 64, 1e-5);
  p[32 * 64 + 32] = 0.5;
  CgStats sg, ss;
  thermal_oracle::solve(grid, p, &sg);
  grid.solve(p, &ss);
  EXPECT_GT(sg.iterations, 0);
  EXPECT_GT(ss.iterations, 0);
  EXPECT_LT(ss.iterations, sg.iterations);
}

// ---------- guardband-level: the whole Algorithm 1 loop ----------

const arch::ArchParams& test_arch() {
  static const arch::ArchParams a = arch::scaled_arch();
  return a;
}

const coffe::DeviceModel& device() {
  static const coffe::DeviceModel dev =
      coffe::Characterizer(tech::ptm22(), test_arch()).characterize(units::Celsius(25.0));
  return dev;
}

core::GuardbandOptions guardband_options(double t_amb_c) {
  core::GuardbandOptions opt;
  opt.t_amb_c = units::Celsius(t_amb_c);
  opt.delta_t_c = units::Kelvin(0.2);  // stricter than default so the loop iterates
  return opt;
}

class ThermalBackendGuardband : public ::testing::TestWithParam<int> {};

TEST_P(ThermalBackendGuardband, GuardbandMatchesAcrossBackendsAtBothAmbients) {
  const netlist::BenchmarkSpec spec =
      netlist::scaled(netlist::vtr_suite()[static_cast<std::size_t>(GetParam())], 1.0 / 16);
  const auto impl = core::implement(spec, test_arch());
  for (double t_amb : {25.0, 70.0}) {
    SCOPED_TRACE(spec.name + " @ " + std::to_string(t_amb) + "C");
    const core::GuardbandOptions opt = guardband_options(t_amb);
    const auto cg = reference::guardband(*impl, device(), opt, reference::cg_oracle_cold);
    const auto stn = core::guardband(*impl, device(), opt);
    EXPECT_EQ(cg.iterations, stn.iterations);
    EXPECT_EQ(cg.converged, stn.converged);
    // The baseline corner does no thermal solve: bitwise equal.
    EXPECT_DOUBLE_EQ(cg.baseline_fmax_mhz.value(), stn.baseline_fmax_mhz.value());
    // Per-solve fields agree within the termination contract; the loop
    // feeds temperature back through leakage, so allow an order of
    // magnitude over the incremental suite's 1e-9 single-solver contract.
    ASSERT_EQ(cg.tile_temp_c.size(), stn.tile_temp_c.size());
    for (std::size_t i = 0; i < cg.tile_temp_c.size(); ++i) {
      ASSERT_NEAR(cg.tile_temp_c[i], stn.tile_temp_c[i], 1e-8) << "tile " << i;
    }
    EXPECT_NEAR(cg.fmax_mhz.value(), stn.fmax_mhz.value(), 1e-6);
    EXPECT_NEAR(cg.peak_temp_c.value(), stn.peak_temp_c.value(), 1e-8);
    // Production starts iteration 1 from the superposed unit responses
    // and later iterations warm; the reference solves every one cold.
    if (stn.iterations > 0) {
      EXPECT_LT(stn.stats.cg_iterations, cg.stats.cg_iterations);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, ThermalBackendGuardband,
                         ::testing::Range(0, static_cast<int>(netlist::vtr_suite().size())),
                         [](const auto& name_info) {
                           return netlist::vtr_suite()[static_cast<std::size_t>(
                                                           name_info.param)]
                               .name;
                         });

}  // namespace
