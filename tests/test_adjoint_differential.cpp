// Differential test for ThermalGrid::solve_adjoint (DESIGN.md section
// 15): the adjoint gradient d(smooth peak T)/d(tile power) must match a
// central finite difference of the smooth-max peak on every VTR suite
// benchmark's real routed power map, and the adjoint solve must agree
// with the plain-CG oracle of tests/thermal_oracle.hpp. The smooth peak
// S(P) = Tmax + tau * log sum exp((Ti - Tmax)/tau) over
// T = Tamb + A^-1 P is nearly linear in P, so central differences at a
// small step agree with the exact gradient to the curvature term
// O((eps * lambda / tau)^2) plus solver noise O(tol / eps) — both far
// below the 1e-3 relative tolerance asserted here.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include "core/flow.hpp"
#include "netlist/benchmarks.hpp"
#include "power/power.hpp"
#include "runner/flow_cache.hpp"
#include "thermal/thermal_grid.hpp"
#include "thermal_oracle.hpp"

namespace {

using namespace taf;
using thermal::ThermalConfig;
using thermal::ThermalGrid;

constexpr double kScale = 1.0 / 16;
constexpr double kTauK = 0.05;

const arch::ArchParams& test_arch() {
  static const arch::ArchParams a = arch::scaled_arch();
  return a;
}

/// Tiles to probe: the peak-power tile, the minimum, the die centre, and
/// two index strides — gradient checks at hot, cold and ordinary sites.
std::vector<int> probe_tiles(const std::vector<double>& power) {
  const int n = static_cast<int>(power.size());
  std::vector<int> tiles;
  tiles.push_back(static_cast<int>(
      std::max_element(power.begin(), power.end()) - power.begin()));
  tiles.push_back(static_cast<int>(
      std::min_element(power.begin(), power.end()) - power.begin()));
  tiles.push_back(n / 2);
  tiles.push_back(n / 3);
  tiles.push_back((2 * n) / 3);
  std::sort(tiles.begin(), tiles.end());
  tiles.erase(std::unique(tiles.begin(), tiles.end()), tiles.end());
  return tiles;
}

class AdjointSuiteDifferential : public ::testing::TestWithParam<int> {};

TEST_P(AdjointSuiteDifferential, MatchesCentralFiniteDifference) {
  auto& cache = runner::FlowCache::global();
  const tech::Technology tech = tech::ptm22();
  const coffe::DeviceModel& dev = cache.device(tech, test_arch(), 25.0);
  const netlist::BenchmarkSpec spec =
      netlist::vtr_suite()[static_cast<std::size_t>(GetParam())];

  const core::Implementation& impl = cache.implementation(spec, test_arch(), kScale);
  const std::vector<double> temps(static_cast<std::size_t>(impl.grid.num_tiles()), 60.0);
  const power::PowerBreakdown power =
      power::compute_power(dev, impl.nl, impl.packed, impl.placement, impl.rr, impl.routes,
                           impl.activity, units::Megahertz(100.0), temps, impl.grid);

  SCOPED_TRACE(spec.name);
  const ThermalGrid grid(impl.grid, ThermalConfig{});

  const thermal::AdjointResult adj = grid.solve_adjoint(power.tile_w, units::Kelvin(kTauK));
  ASSERT_EQ(adj.dpeak_dp_k_per_w.size(), power.tile_w.size());

  // Softmax weights sum to one, so the gradient's total mass through
  // the (diagonally dominant SPD) operator is bounded by the package
  // path: 0 < dS/dP_i, and sum_i g_vert * dS/dP_i >= ... — assert the
  // cheap invariants before the expensive FD probes.
  for (double g : adj.dpeak_dp_k_per_w) {
    ASSERT_GT(g, 0.0);
    ASSERT_TRUE(std::isfinite(g));
  }

  // The adjoint solve A lambda = w against the CG oracle, within the
  // shared termination contract.
  const double t_max = *std::max_element(adj.temp_c.begin(), adj.temp_c.end());
  std::vector<double> w(adj.temp_c.size());
  double sum = 0.0;
  for (std::size_t i = 0; i < w.size(); ++i) {
    w[i] = std::exp((adj.temp_c[i] - t_max) / kTauK);
    sum += w[i];
  }
  for (double& wi : w) wi /= sum;
  std::vector<double> lambda(w.size(), 0.0);
  thermal::CgStats oracle_stats;
  thermal_oracle::cg(grid, lambda, w, 0.0, &oracle_stats);
  const double bound = (adj.adjoint.residual_norm_w.value() +
                        oracle_stats.residual_norm_w.value()) / grid.vertical_g() + 1e-12;
  for (std::size_t i = 0; i < lambda.size(); ++i) {
    ASSERT_NEAR(adj.dpeak_dp_k_per_w[i], lambda[i], bound) << "tile " << i;
  }

  const double eps = 1e-4;  // watts
  for (int tile : probe_tiles(power.tile_w)) {
    std::vector<double> plus = power.tile_w, minus = power.tile_w;
    plus[static_cast<std::size_t>(tile)] += eps;
    minus[static_cast<std::size_t>(tile)] -= eps;
    const double s_plus =
        grid.solve_adjoint(plus, units::Kelvin(kTauK)).smooth_peak_c.value();
    const double s_minus =
        grid.solve_adjoint(minus, units::Kelvin(kTauK)).smooth_peak_c.value();
    const double fd = (s_plus - s_minus) / (2.0 * eps);
    const double exact = adj.dpeak_dp_k_per_w[static_cast<std::size_t>(tile)];
    EXPECT_NEAR(exact, fd, 1e-4 + 1e-3 * std::abs(fd)) << "tile " << tile;
  }
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, AdjointSuiteDifferential,
                         ::testing::Range(0, static_cast<int>(netlist::vtr_suite().size())),
                         [](const auto& name_info) {
                           return netlist::vtr_suite()[static_cast<std::size_t>(
                                                           name_info.param)]
                               .name;
                         });

TEST(AdjointDifferential, SmoothPeakDominatesTruePeak) {
  // LSE smooth-max upper-bounds the true max and approaches it as tau->0.
  const arch::FpgaGrid fg(17, 9);
  ThermalConfig cfg;
  const ThermalGrid grid(fg, cfg);
  std::vector<double> p(static_cast<std::size_t>(fg.num_tiles()), 1e-4);
  p[40] = 0.3;

  const auto adj = grid.solve_adjoint(p, units::Kelvin(kTauK));
  const double t_max =
      *std::max_element(adj.temp_c.begin(), adj.temp_c.end());
  EXPECT_GE(adj.smooth_peak_c.value(), t_max);
  const auto tighter = grid.solve_adjoint(p, units::Kelvin(0.005));
  EXPECT_LE(tighter.smooth_peak_c.value() - t_max,
            adj.smooth_peak_c.value() - t_max);
}

TEST(AdjointDifferential, RejectsInvalidTau) {
  const arch::FpgaGrid fg(9, 4);
  const ThermalGrid grid(fg, ThermalConfig{});
  const std::vector<double> p(static_cast<std::size_t>(fg.num_tiles()), 1e-3);
  for (double tau : {0.0, -1.0, std::nan(""),
                     std::numeric_limits<double>::infinity()}) {
    EXPECT_THROW(grid.solve_adjoint(p, units::Kelvin(tau)), std::invalid_argument)
        << "tau = " << tau;
  }
}

}  // namespace
