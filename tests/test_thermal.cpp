// Tests for the HotSpot-like thermal solver: conservation, superposition,
// symmetry, lateral diffusion, and the paper's cross-validation relation.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "spice/sparse.hpp"
#include "thermal/thermal_grid.hpp"
#include "thermal_oracle.hpp"

namespace {

using namespace taf;
using thermal::ThermalConfig;
using thermal::ThermalGrid;

ThermalGrid make_grid(int w = 12, int h = 12, double tamb = 25.0) {
  ThermalConfig cfg;
  cfg.ambient_c = units::Celsius(tamb);
  return ThermalGrid(arch::FpgaGrid(w, h), cfg);
}

TEST(Thermal, ZeroPowerGivesAmbient) {
  const ThermalGrid g = make_grid(10, 10, 42.0);
  const auto t = g.solve(std::vector<double>(100, 0.0));
  for (double v : t) EXPECT_NEAR(v, 42.0, 1e-9);
}

TEST(Thermal, UniformPowerGivesUniformRise) {
  // With uniform power, no lateral flow occurs: dT = P_total * R_package.
  const ThermalGrid g = make_grid(10, 10);
  const double p_tile = 5e-3;  // 5 mW per tile -> 0.5 W total
  const auto t = g.solve(std::vector<double>(100, p_tile));
  const double expected = 25.0 + 0.5 * g.config().package_r_k_per_w;
  for (double v : t) EXPECT_NEAR(v, expected, 1e-6);
}

TEST(Thermal, WarmStartMatchesColdStart) {
  // The system is SPD, so CG converges to the same fixed point from any
  // initial iterate; a warm start may only change the iteration count.
  const ThermalGrid g = make_grid(12, 12);
  std::vector<double> p(144, 0.0);
  p[5 * 12 + 7] = 0.4;
  p[3 * 12 + 2] = 0.1;
  thermal::CgStats cold_stats;
  const auto cold = g.solve(p, &cold_stats);

  // Warm-start from a perturbed copy of the solution.
  std::vector<double> x0 = cold;
  for (std::size_t i = 0; i < x0.size(); ++i) x0[i] += (i % 3 == 0) ? 0.05 : -0.02;
  thermal::CgStats warm_stats;
  const auto warm = g.solve(p, x0, &warm_stats);
  ASSERT_EQ(warm.size(), cold.size());
  for (std::size_t i = 0; i < warm.size(); ++i) {
    EXPECT_NEAR(warm[i], cold[i], 1e-9) << "tile " << i;
  }
  EXPECT_LE(warm_stats.iterations, cold_stats.iterations);
}

TEST(Thermal, WarmStartFromSolutionNeedsFarFewerIterations) {
  // Restarting from the converged field may still polish a little (the
  // cold stop can trip the relative branch of the tolerance, which sits
  // above the absolute floor) but must cost far fewer iterations than
  // the cold solve and land on the same temperatures.
  const ThermalGrid g = make_grid(10, 10);
  std::vector<double> p(100, 0.0);
  p[44] = 0.25;
  thermal::CgStats cold_stats;
  const auto sol = g.solve(p, &cold_stats);
  thermal::CgStats warm_stats;
  const auto again = g.solve(p, sol, &warm_stats);
  EXPECT_LT(warm_stats.iterations, cold_stats.iterations / 2);
  for (std::size_t i = 0; i < sol.size(); ++i) {
    EXPECT_NEAR(again[i], sol[i], 1e-9) << "tile " << i;
  }
}

TEST(Thermal, WarmStartFromAmbientMatchesColdStartBitwise) {
  // A cold solve starts CG at x = 0 (i.e. T = ambient); warm-starting
  // from the ambient map must therefore take the identical CG trajectory.
  const ThermalGrid g = make_grid(9, 9, 30.0);
  std::vector<double> p(81, 0.0);
  p[40] = 0.3;
  thermal::CgStats a_stats, b_stats;
  const auto a = g.solve(p, &a_stats);
  const auto b = g.solve(p, std::vector<double>(81, 30.0), &b_stats);
  EXPECT_EQ(a_stats.iterations, b_stats.iterations);
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]) << "tile " << i;
}

TEST(Thermal, AmbientCornerBatchMatchesPerCornerWarmSolvesBitwise) {
  // The guardband corner-batching contract: independent ambient corners
  // share one conductance operator (ambient only shifts T = Tamb + dT),
  // so the per-map-ambient solve_batch must reproduce, bit for bit, a
  // warm solve() on a grid configured at each corner's ambient — and,
  // from a start map at the ambient, a cold solve().
  const std::vector<double> ambients = {25.0, 45.0, 70.0};
  const int w = 12, h = 10;
  const std::size_t n = static_cast<std::size_t>(w * h);
  std::vector<std::vector<double>> powers, initials, cold_starts;
  for (std::size_t k = 0; k < ambients.size(); ++k) {
    std::vector<double> p(n, 0.0), x0(n, ambients[k]);
    cold_starts.push_back(x0);
    for (std::size_t i = 0; i < n; ++i) {
      p[i] = 0.01 * static_cast<double>((i * (k + 3)) % 17);
      x0[i] += 0.1 * static_cast<double>((i + k) % 5);  // off-solution warm start
    }
    powers.push_back(std::move(p));
    initials.push_back(std::move(x0));
  }

  const ThermalConfig shared_cfg;
  const ThermalGrid shared(arch::FpgaGrid(w, h), shared_cfg);
  std::vector<thermal::CgStats> batch_stats, cold_stats;
  const auto batch = shared.solve_batch(powers, initials, ambients, &batch_stats);
  const auto cold = shared.solve_batch(powers, cold_starts, ambients, &cold_stats);
  ASSERT_EQ(batch.size(), ambients.size());
  ASSERT_EQ(batch_stats.size(), ambients.size());
  ASSERT_EQ(cold_stats.size(), ambients.size());

  for (std::size_t k = 0; k < ambients.size(); ++k) {
    SCOPED_TRACE("corner " + std::to_string(k));
    ThermalConfig corner_cfg = shared_cfg;
    corner_cfg.ambient_c = units::Celsius(ambients[k]);
    const ThermalGrid solo_grid(arch::FpgaGrid(w, h), corner_cfg);
    thermal::CgStats solo_stats, solo_cold_stats;
    const auto solo = solo_grid.solve(powers[k], initials[k], &solo_stats);
    const auto solo_cold = solo_grid.solve(powers[k], &solo_cold_stats);
    ASSERT_EQ(batch[k].size(), solo.size());
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(batch[k][i], solo[i]) << "tile " << i;
      ASSERT_EQ(cold[k][i], solo_cold[i]) << "tile " << i;
    }
    EXPECT_EQ(batch_stats[k].iterations, solo_stats.iterations);
    EXPECT_EQ(cold_stats[k].iterations, solo_cold_stats.iterations);
  }
}

TEST(Thermal, HotspotIsAtThePowerSource) {
  const ThermalGrid g = make_grid(11, 11);
  std::vector<double> p(121, 0.0);
  const int center = 5 * 11 + 5;
  p[center] = 0.2;
  const auto t = g.solve(p);
  for (int i = 0; i < 121; ++i) {
    if (i == center) continue;
    EXPECT_LT(t[static_cast<size_t>(i)], t[center]);
  }
}

TEST(Thermal, TemperatureDecaysWithDistance) {
  const ThermalGrid g = make_grid(15, 15);
  std::vector<double> p(225, 0.0);
  p[7 * 15 + 7] = 0.2;
  const auto t = g.solve(p);
  // Walk right from the hotspot: monotone decay.
  for (int i = 8; i < 14; ++i) {
    EXPECT_GT(t[static_cast<size_t>(7 * 15 + i - 1)], t[static_cast<size_t>(7 * 15 + i)]);
  }
}

TEST(Thermal, Superposition) {
  // The system is linear: solve(p1 + p2) - Tamb == (solve(p1) - Tamb) +
  // (solve(p2) - Tamb).
  const ThermalGrid g = make_grid(9, 9);
  std::vector<double> p1(81, 0.0), p2(81, 0.0), sum(81, 0.0);
  p1[10] = 0.05;
  p2[70] = 0.08;
  for (int i = 0; i < 81; ++i) sum[static_cast<size_t>(i)] = p1[static_cast<size_t>(i)] + p2[static_cast<size_t>(i)];
  const auto t1 = g.solve(p1);
  const auto t2 = g.solve(p2);
  const auto ts = g.solve(sum);
  for (int i = 0; i < 81; ++i) {
    EXPECT_NEAR(ts[static_cast<size_t>(i)] - 25.0,
                (t1[static_cast<size_t>(i)] - 25.0) + (t2[static_cast<size_t>(i)] - 25.0), 1e-6);
  }
}

TEST(Thermal, MirrorSymmetry) {
  const ThermalGrid g = make_grid(9, 9);
  std::vector<double> p(81, 0.0);
  p[4 * 9 + 4] = 0.1;  // exact center
  const auto t = g.solve(p);
  for (int j = 0; j < 9; ++j) {
    for (int i = 0; i < 9; ++i) {
      EXPECT_NEAR(t[static_cast<size_t>(j * 9 + i)], t[static_cast<size_t>(j * 9 + (8 - i))], 1e-6);
      EXPECT_NEAR(t[static_cast<size_t>(j * 9 + i)], t[static_cast<size_t>((8 - j) * 9 + i)], 1e-6);
    }
  }
}

TEST(Thermal, EnergyBalance) {
  // Total heat leaving through the vertical path equals injected power:
  // sum(g_vert * dT) == sum(P). With uniform g_vert this is mean(dT) =
  // P_total * R_package.
  const ThermalGrid g = make_grid(12, 12);
  std::vector<double> p(144, 0.0);
  p[5] = 0.03;
  p[100] = 0.07;
  const auto t = g.solve(p);
  double mean_dt = 0.0;
  for (double v : t) mean_dt += v - 25.0;
  mean_dt /= 144.0;
  EXPECT_NEAR(mean_dt, 0.1 * g.config().package_r_k_per_w, 1e-6);
}

TEST(Thermal, PaperValidationRelation) {
  // Section IV-A: dT ~= 0.7 * p_design / p_base, the cross-check against
  // the Xilinx XPE spreadsheet. Our package resistance is calibrated so a
  // design drawing ~3x the base (leakage) power warms by ~2C, matching
  // the paper's observation that temperature converged after ~2C.
  const ThermalGrid g = make_grid(20, 20);
  const int n = 400;
  // Base (leakage) power chosen so p_base * R_package ~= 0.7, the point
  // the paper's rule of thumb is anchored at.
  const double p_base_tile = 0.7 / (g.config().package_r_k_per_w * n);
  std::vector<double> base(n, p_base_tile);
  std::vector<double> design(n, p_base_tile * 3.0);
  const auto t = g.solve(design);
  double mean = 0.0;
  for (double v : t) mean += v;
  mean /= n;
  const double p_design = p_base_tile * 3.0 * n;
  const double p_base = p_base_tile * n;
  const double predicted = 0.7 * p_design / p_base;
  EXPECT_NEAR(mean - 25.0, predicted, 1.2);
}

TEST(Thermal, HigherPackageResistanceRunsHotter) {
  ThermalConfig cold;
  cold.package_r_k_per_w = 2.0;
  ThermalConfig hot;
  hot.package_r_k_per_w = 8.0;
  const arch::FpgaGrid fg(10, 10);
  std::vector<double> p(100, 2e-3);
  const auto tc = ThermalGrid(fg, cold).solve(p);
  const auto th = ThermalGrid(fg, hot).solve(p);
  EXPECT_GT(ThermalGrid::peak(th).value(), ThermalGrid::peak(tc).value());
}

TEST(Thermal, AsciiHeatmapDimensions) {
  const ThermalGrid g = make_grid(8, 6);
  std::vector<double> p(48, 0.0);
  p[20] = 0.1;
  const auto t = g.solve(p);
  const std::string map = ThermalGrid::ascii_heatmap(t, 8, 6);
  EXPECT_EQ(std::count(map.begin(), map.end(), '\n'), 6);
  EXPECT_EQ(map.size(), static_cast<size_t>((8 + 1) * 6));
  EXPECT_NE(map.find('@'), std::string::npos);  // hotspot present
}

}  // namespace

namespace {

TEST(ThermalTransient, ConvergesToSteadyState) {
  const ThermalGrid g = make_grid(10, 10);
  std::vector<double> p(100, 0.0);
  p[45] = 0.05;
  const auto steady = g.solve(p);
  std::vector<double> t(100, 25.0);
  const double tau = g.tile_time_constant().value();
  for (int i = 0; i < 400; ++i) g.step(p, units::Seconds(tau), t);
  for (int i = 0; i < 100; ++i) {
    EXPECT_NEAR(t[static_cast<size_t>(i)], steady[static_cast<size_t>(i)], 0.05);
  }
}

TEST(ThermalTransient, MonotonicWarmup) {
  const ThermalGrid g = make_grid(8, 8);
  std::vector<double> p(64, 2e-3);
  std::vector<double> t(64, 25.0);
  double prev = 25.0;
  const double tau = g.tile_time_constant().value();
  for (int i = 0; i < 20; ++i) {
    g.step(p, units::Seconds(tau), t);
    const double now = ThermalGrid::peak(t).value();
    EXPECT_GE(now, prev - 1e-9);
    prev = now;
  }
  EXPECT_GT(prev, 25.0);
}

TEST(ThermalTransient, CoolsBackToAmbient) {
  const ThermalGrid g = make_grid(8, 8);
  std::vector<double> hot_p(64, 2e-3);
  std::vector<double> t(64, 25.0);
  const double tau = g.tile_time_constant().value();
  for (int i = 0; i < 200; ++i) g.step(hot_p, units::Seconds(tau), t);
  ASSERT_GT(ThermalGrid::peak(t).value(), 25.5);
  const std::vector<double> zero(64, 0.0);
  for (int i = 0; i < 800; ++i) g.step(zero, units::Seconds(tau), t);
  EXPECT_NEAR(ThermalGrid::peak(t).value(), 25.0, 0.05);
}

TEST(ThermalTransient, ZeroPowerStepStaysAtAmbient) {
  // With no power and the field at ambient, any step size is a fixed
  // point — no drift from the backward-Euler solve.
  const ThermalGrid g = make_grid(9, 9, 31.0);
  const std::vector<double> zero(81, 0.0);
  std::vector<double> t(81, 31.0);
  const double tau = g.tile_time_constant().value();
  for (double dt : {tau / 100.0, tau, 50.0 * tau}) {
    g.step(zero, units::Seconds(dt), t);
    for (double v : t) EXPECT_NEAR(v, 31.0, 1e-9);
  }
}

TEST(ThermalTransient, StepRejectsNonPositiveOrNonFiniteDt) {
  // Regression (ISSUE 8): dt == 0 used to divide into the C/dt diagonal
  // and poison the whole field with non-finite values. Every degenerate
  // dt must throw before touching the temperatures.
  const ThermalGrid g = make_grid(3, 3, 25.0);
  const std::vector<double> p(9, 1e-3);
  std::vector<double> t(9, 25.0);
  const std::vector<double> before = t;
  for (const double dt : {0.0, -1.0, std::nan(""),
                          std::numeric_limits<double>::infinity()}) {
    EXPECT_THROW(g.step(p, units::Seconds(dt), t), std::invalid_argument)
        << "dt = " << dt;
    EXPECT_EQ(t, before) << "field modified by rejected dt = " << dt;
  }
}

TEST(Thermal, OneByOneGridSolveIsPackageRise) {
  // A single tile has no lateral neighbours: dT = P * R_package exactly.
  const ThermalGrid g = make_grid(1, 1, 25.0);
  const double p = 0.125;
  const auto t = g.solve({p});
  ASSERT_EQ(t.size(), 1u);
  EXPECT_NEAR(t[0], 25.0 + p * g.config().package_r_k_per_w, 1e-9);
}

TEST(ThermalTransient, OneByOneGridStepConvergesToSolve) {
  const ThermalGrid g = make_grid(1, 1, 25.0);
  const std::vector<double> p = {0.125};
  const auto steady = g.solve(p);
  std::vector<double> t = {25.0};
  const double tau = g.tile_time_constant().value();
  for (int i = 0; i < 200; ++i) g.step(p, units::Seconds(tau), t);
  EXPECT_NEAR(t[0], steady[0], 1e-3);
}

TEST(Thermal, TwoByOneGridMatchesClosedForm) {
  // Two tiles: A = [[gv+gl, -gl], [-gl, gv+gl]]. Invert by hand and
  // compare dT = A^{-1} P component-wise.
  const ThermalGrid g = make_grid(2, 1, 25.0);
  const double gl = g.lateral_g();
  const double gv = g.vertical_g();
  const double p0 = 0.08, p1 = 0.02;
  const double det = (gv + gl) * (gv + gl) - gl * gl;
  const double dt0 = ((gv + gl) * p0 + gl * p1) / det;
  const double dt1 = (gl * p0 + (gv + gl) * p1) / det;
  const auto t = g.solve({p0, p1});
  ASSERT_EQ(t.size(), 2u);
  EXPECT_NEAR(t[0], 25.0 + dt0, 1e-9);
  EXPECT_NEAR(t[1], 25.0 + dt1, 1e-9);
}

/// Assemble the grid's conductance matrix explicitly as CSR (5-point
/// stencil) from the public conductances.
spice::CsrMatrix assemble_thermal_csr(const ThermalGrid& g) {
  const int w = g.width(), h = g.height();
  const double gl = g.lateral_g();
  const double gv = g.vertical_g();
  spice::SparsityPattern pattern;
  for (int j = 0; j < h; ++j)
    for (int i = 0; i < w; ++i) {
      const int idx = j * w + i;
      pattern.emplace_back(idx, idx);
      if (i > 0) pattern.emplace_back(idx, idx - 1);
      if (i < w - 1) pattern.emplace_back(idx, idx + 1);
      if (j > 0) pattern.emplace_back(idx, idx - w);
      if (j < h - 1) pattern.emplace_back(idx, idx + w);
    }
  spice::CsrMatrix m = spice::CsrMatrix::from_entries(w * h, pattern);
  for (int j = 0; j < h; ++j)
    for (int i = 0; i < w; ++i) {
      const int idx = j * w + i;
      int degree = 0;
      auto lateral = [&](int nb) {
        m.val[static_cast<size_t>(m.slot(idx, nb))] = -gl;
        ++degree;
      };
      if (i > 0) lateral(idx - 1);
      if (i < w - 1) lateral(idx + 1);
      if (j > 0) lateral(idx - w);
      if (j < h - 1) lateral(idx + w);
      m.val[static_cast<size_t>(m.slot(idx, idx))] = gv + degree * gl;
    }
  return m;
}

TEST(Thermal, ApplyMatchesAssembledSparseOperator) {
  // The CG oracle's matrix-free apply() and an independently assembled
  // CSR stencil must agree on arbitrary vectors.
  const ThermalGrid g = make_grid(9, 7);
  const spice::CsrMatrix m = assemble_thermal_csr(g);
  const int n = 9 * 7;
  std::vector<double> x(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) x[static_cast<size_t>(i)] = std::sin(0.7 * i) + 0.3 * i;
  std::vector<double> y_apply(static_cast<size_t>(n)), y_csr;
  thermal_oracle::apply(g, x, y_apply);
  m.multiply(x, y_csr);
  for (int i = 0; i < n; ++i)
    EXPECT_NEAR(y_apply[static_cast<size_t>(i)], y_csr[static_cast<size_t>(i)], 1e-15)
        << "tile " << i;
}

TEST(Thermal, HotspotResidualOn64x64IsTiny) {
  // CG on the 64x64 grid must actually satisfy A dT = P, verified
  // through the independent CSR operator, not CG's own residual.
  const int w = 64, h = 64, n = w * h;
  const ThermalGrid g = make_grid(w, h, 25.0);
  std::vector<double> p(static_cast<size_t>(n), 1e-5);
  p[static_cast<size_t>(32 * w + 32)] = 0.5;  // hotspot
  p[static_cast<size_t>(10 * w + 50)] = 0.25;
  thermal::CgStats stats;
  const auto t = g.solve(p, &stats);

  const spice::CsrMatrix m = assemble_thermal_csr(g);
  std::vector<double> dt(static_cast<size_t>(n)), adt;
  for (int i = 0; i < n; ++i) dt[static_cast<size_t>(i)] = t[static_cast<size_t>(i)] - 25.0;
  m.multiply(dt, adt);
  double res2 = 0.0, p2 = 0.0;
  for (int i = 0; i < n; ++i) {
    const double r = adt[static_cast<size_t>(i)] - p[static_cast<size_t>(i)];
    res2 += r * r;
    p2 += p[static_cast<size_t>(i)] * p[static_cast<size_t>(i)];
  }
  EXPECT_LT(std::sqrt(res2), 1e-8 * std::sqrt(p2)) << "CG left a large residual";
  EXPECT_GT(stats.iterations, 0);
  EXPECT_LT(stats.iterations, 4 * n) << "CG hit its iteration cap";
}

TEST(Thermal, NearZeroPowerTerminatesOnAbsoluteFloor) {
  // Residuals already below the absolute tolerance floor must terminate
  // immediately instead of iterating on rounding noise (the old
  // relative-only criterion ran the full 4n iterations here).
  const ThermalGrid g = make_grid(32, 32, 25.0);
  std::vector<double> p(32 * 32, 1e-18);
  thermal::CgStats stats;
  const auto t = g.solve(p, &stats);
  EXPECT_EQ(stats.iterations, 0);
  for (double v : t) EXPECT_NEAR(v, 25.0, 1e-6);
}

TEST(ThermalTransient, StepReportsConvergence) {
  const ThermalGrid g = make_grid(8, 8, 25.0);
  std::vector<double> p(64, 2e-3);
  std::vector<double> t(64, 25.0);
  thermal::CgStats stats;
  g.step(p, g.tile_time_constant(), t, &stats);
  EXPECT_LT(stats.iterations, 4 * 64);
  EXPECT_LT(stats.residual_norm_w.value(), 1e-6);
}

TEST(Thermal, AsciiHeatmapValidatesDimensions) {
  const std::vector<double> temps(48, 25.0);
  EXPECT_THROW(ThermalGrid::ascii_heatmap({}, 8, 6), std::invalid_argument);
  EXPECT_THROW(ThermalGrid::ascii_heatmap(temps, 7, 6), std::invalid_argument);
  EXPECT_THROW(ThermalGrid::ascii_heatmap(temps, 48, 0), std::invalid_argument);
  EXPECT_THROW(ThermalGrid::ascii_heatmap(temps, -8, -6), std::invalid_argument);
  EXPECT_NO_THROW(ThermalGrid::ascii_heatmap(temps, 8, 6));
}

TEST(Thermal, PeakRejectsEmptyMap) {
  EXPECT_THROW(ThermalGrid::peak({}), std::invalid_argument);
}

TEST(Thermal, SolveThrowsOnCgBreakdownInsteadOfSilentNan) {
  // An infinite package resistance zeroes the vertical conductance; with
  // uniform power the first CG direction is the lateral operator's
  // nullspace (the constant vector), dot(p, Ap) == 0, and alpha would be
  // a silent NaN poisoning every temperature downstream. The solver and
  // the CG oracle must refuse loudly instead — in release builds too
  // (same contract as util::fit_exponential).
  ThermalConfig cfg;
  cfg.package_r_k_per_w = std::numeric_limits<double>::infinity();
  const ThermalGrid g(arch::FpgaGrid(6, 6), cfg);
  const std::vector<double> p(36, 1e-3);
  EXPECT_THROW(g.solve(p), std::runtime_error);
  EXPECT_THROW(thermal_oracle::solve(g, p), std::runtime_error);
}

TEST(Thermal, SolveRejectsNonFinitePower) {
  const ThermalGrid g = make_grid(4, 4);
  std::vector<double> p(16, 1e-3);
  p[5] = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(g.solve(p), std::invalid_argument);
  EXPECT_THROW(thermal_oracle::solve(g, p), std::invalid_argument);
}

TEST(ThermalTransient, StepWithHugeDtMatchesSolve) {
  // step() and solve() share one CG core parameterized by the C/dt
  // diagonal; as dt -> infinity the transient system degenerates to the
  // steady-state one, so a huge-dt step from ambient must land on the
  // solve() result to within the termination tolerance. This is the
  // regression test for the hand-copied CG loop step() used to carry.
  const ThermalGrid g = make_grid(12, 12);
  std::vector<double> p(144, 1e-4);
  p[70] = 0.2;
  const auto steady = g.solve(p);
  std::vector<double> stepped(144, g.config().ambient_c.value());
  g.step(p, units::Seconds(1e12 * g.tile_time_constant().value()), stepped);
  for (std::size_t i = 0; i < stepped.size(); ++i) {
    ASSERT_NEAR(stepped[i], steady[i], 1e-6) << "tile " << i;
  }
}

TEST(ThermalTransient, SmallDtWarmTraceStopsOnAugmentedFloor) {
  // Regression for the transient-CG tolerance floor. The absolute floor
  // must be derived from the conductance of the operator being solved:
  // g_vert + C/dt for the backward-Euler system, not the steady-state
  // g_vert. The two differ by C/dt, which for a small step is enormous
  // (tile_time_constant / dt times g_vert) — so the old g_vert-only floor
  // demanded a residual about (1 + C/(dt g_vert))-fold smaller than the
  // augmented-diagonal criterion proves necessary for the same per-tile
  // temperature accuracy. Symptom: a warm transient trace (every step
  // after the first starts essentially at its own solution, so the
  // relative criterion is powerless) burned CG iterations on every step
  // chasing floating-point noise, and still exited with a true residual
  // above what the floor claimed to guarantee. With the augmented floor
  // the criterion recognizes the warm start instantly: zero iterations.
  // The CG oracle shares the criterion, so it is held to the same bar.
  const ThermalGrid g = make_grid(16, 16);
  std::vector<double> p(256, 1e-4);
  p[120] = 0.3;
  const units::Seconds dt(g.tile_time_constant().value() / 10000.0);
  // The augmented per-tile conductance: g_vert + C/dt = g_vert (1 + tau/dt).
  const double g_aug = g.vertical_g() * (1.0 + g.tile_time_constant().value() / dt.value());
  const double floor_w = std::sqrt(256.0) * g_aug * g.config().solve_tol_k.value();
  for (const bool oracle : {false, true}) {
    SCOPED_TRACE(oracle ? "CG oracle" : "stencil PCG");
    thermal::CgStats stats;
    auto temps = g.solve(p, &stats);
    int trace_iterations = 0;
    for (int step = 0; step < 5; ++step) {
      if (oracle) {
        thermal_oracle::step(g, p, dt, temps, &stats);
      } else {
        g.step(p, dt, temps, &stats);
      }
      trace_iterations += stats.iterations;
      // Each step's termination must honour the augmented-diagonal
      // accuracy contract, not merely stop.
      EXPECT_LE(stats.residual_norm_w.value(), 2.0 * floor_w) << "step " << step;
    }
    // Under the old g_vert-only floor every one of these steps ground
    // through several iterations (the floor sat orders of magnitude below
    // anything the criterion needed); the augmented floor sees the warm
    // start is already converged.
    EXPECT_LE(trace_iterations, 2);
  }
}

TEST(ThermalTransient, SmallStepTracksExponential) {
  // Uniform power on a grid behaves as one RC: dT(t) = dT_inf (1 - e^{-t/tau_pkg}).
  const ThermalGrid g = make_grid(6, 6);
  const int n = 36;
  std::vector<double> p(n, 1e-3);
  std::vector<double> t(n, 25.0);
  const double dt_inf = 1e-3 * n * g.config().package_r_k_per_w;
  // Package time constant: C_total * R_package = (n * c_tile) * R.
  const double tau = g.tile_time_constant().value();  // = c_tile / g_vert = c_tile * R * n
  const int steps = 50;
  for (int i = 0; i < steps; ++i) g.step(p, units::Seconds(tau / steps), t);
  // After one time constant: 1 - 1/e of the final rise (BE slightly under).
  const double expected = 25.0 + dt_inf * (1.0 - std::exp(-1.0));
  EXPECT_NEAR(t[0], expected, dt_inf * 0.05);
}

}  // namespace
