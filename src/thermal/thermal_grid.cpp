#include "thermal/thermal_grid.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <string>

#include "thermal/stencil_solver.hpp"

namespace taf::thermal {

ThermalGrid::ThermalGrid(const arch::FpgaGrid& grid, ThermalConfig config)
    : width_(grid.width()), height_(grid.height()), config_(config) {
  g_lat_ = config_.lateral_g_w_per_k();
  const int n = width_ * height_;
  assert(n > 0);
  // The package resistance is shared by all tiles in parallel.
  g_vert_ = 1.0 / (config_.package_r_k_per_w * n);
  const double tile_vol_m3 = config_.tile_edge_um * config_.tile_edge_um *
                             config_.die_thickness_um * 1e-18;
  c_tile_ = config_.volumetric_c_j_m3k * tile_vol_m3;
}

double ThermalGrid::cg_tolerance(double g_diag) const {
  // A per-tile residual of g_diag * solve_tol_k watts maps to a
  // temperature error of solve_tol_k kelvin through the weakest per-tile
  // conductance of the operator being solved (g_vert_ steady-state,
  // g_vert_ + C/dt transient) — far below physical significance, but a
  // hard absolute floor; see the header for why both the floor and its
  // conductance matter.
  const int n = width_ * height_;
  const double floor_per_tile = g_diag * config_.solve_tol_k.value();
  return n * floor_per_tile * floor_per_tile;
}

void ThermalGrid::stencil_solve(const std::vector<double>& rhs, std::vector<double>& x,
                                double g_c, CgStats* stats) const {
  const StencilOp op(width_, height_, g_lat_, g_vert_, g_c);
  const StencilSolveInfo info = StencilSolver(op).solve(
      rhs.data(), x.data(), 1e-20, cg_tolerance(g_vert_ + g_c));
  if (stats != nullptr) {
    stats->iterations = info.iterations;
    stats->residual_norm_w = units::Watts{std::sqrt(info.rr)};
  }
}

std::vector<double> ThermalGrid::solve(const std::vector<double>& power_w,
                                       CgStats* stats) const {
  const int n = width_ * height_;
  assert(static_cast<int>(power_w.size()) == n);

  // Cold start: x = 0, so r = P exactly (no operator application needed).
  std::vector<double> x(static_cast<size_t>(n), 0.0);
  stencil_solve(power_w, x, 0.0, stats);

  for (double& t : x) t += config_.ambient_c.value();
  return x;
}

std::vector<double> ThermalGrid::solve(const std::vector<double>& power_w,
                                       const std::vector<double>& initial_temp_c,
                                       CgStats* stats) const {
  const int n = width_ * height_;
  assert(static_cast<int>(power_w.size()) == n);
  assert(static_cast<int>(initial_temp_c.size()) == n);

  // Warm start from the given field: x0 = T0 - Tamb, r0 = P - A x0.
  std::vector<double> x(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i)
    x[static_cast<size_t>(i)] =
        initial_temp_c[static_cast<size_t>(i)] - config_.ambient_c.value();
  stencil_solve(power_w, x, 0.0, stats);

  for (double& t : x) t += config_.ambient_c.value();
  return x;
}

std::vector<std::vector<double>> ThermalGrid::solve_batch(
    const std::vector<std::vector<double>>& power_w,
    const std::vector<std::vector<double>>& initial_temp_c,
    const std::vector<double>& ambient_c, std::vector<CgStats>* stats) const {
  const int n = width_ * height_;
  const auto un = static_cast<std::size_t>(n);
  const auto nrhs = power_w.size();
  assert(initial_temp_c.size() == nrhs);
  assert(ambient_c.size() == nrhs);
  if (stats != nullptr) stats->assign(nrhs, CgStats{});
  std::vector<std::vector<double>> temps(nrhs);
  std::vector<double> b(un * nrhs);
  std::vector<double> x(un * nrhs);
  for (std::size_t k = 0; k < nrhs; ++k) {
    assert(power_w[k].size() == un);
    assert(initial_temp_c[k].size() == un);
    std::copy(power_w[k].begin(), power_w[k].end(),
              b.begin() + static_cast<std::ptrdiff_t>(k * un));
    for (std::size_t i = 0; i < un; ++i) {
      x[k * un + i] = initial_temp_c[k][i] - ambient_c[k];
    }
  }
  const StencilOp op(width_, height_, g_lat_, g_vert_, 0.0);
  const std::vector<StencilSolveInfo> info = StencilSolver(op).solve_batch(
      static_cast<int>(nrhs), b.data(), x.data(), 1e-20, cg_tolerance(g_vert_));
  for (std::size_t k = 0; k < nrhs; ++k) {
    temps[k].assign(x.begin() + static_cast<std::ptrdiff_t>(k * un),
                    x.begin() + static_cast<std::ptrdiff_t>((k + 1) * un));
    for (double& t : temps[k]) t += ambient_c[k];
    if (stats != nullptr) {
      (*stats)[k].iterations = info[k].iterations;
      (*stats)[k].residual_norm_w = units::Watts{std::sqrt(info[k].rr)};
    }
  }
  return temps;
}

void ThermalGrid::step(const std::vector<double>& power_w, units::Seconds dt,
                       std::vector<double>& temps, CgStats* stats) const {
  const int n = width_ * height_;
  assert(static_cast<int>(power_w.size()) == n);
  assert(static_cast<int>(temps.size()) == n);
  // Backward Euler: (C/dt + A) dT_next = P + (C/dt) dT_now. The system
  // stays SPD, so the same CG machinery applies with an extra diagonal —
  // stencil_solve parameterized by g_c, including the
  // termination floor, which must be derived from the augmented
  // diagonal g_vert_ + C/dt (see cg_tolerance).
  if (!(dt.value() > 0.0) || !std::isfinite(dt.value())) {
    // dt == 0 used to sail through and divide straight into the C/dt
    // diagonal, poisoning the whole field with inf/NaN.
    throw std::invalid_argument(
        "ThermalGrid::step: dt must be a positive finite duration, got " +
        std::to_string(dt.value()) + " s");
  }
  const double g_c = c_tile_ / dt.value();

  std::vector<double> x(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i)
    x[static_cast<std::size_t>(i)] =
        temps[static_cast<std::size_t>(i)] - config_.ambient_c.value();

  std::vector<double> rhs(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i)
    rhs[static_cast<std::size_t>(i)] =
        power_w[static_cast<std::size_t>(i)] + g_c * x[static_cast<std::size_t>(i)];

  stencil_solve(rhs, x, g_c, stats);
  for (int i = 0; i < n; ++i)
    temps[static_cast<std::size_t>(i)] =
        x[static_cast<std::size_t>(i)] + config_.ambient_c.value();
}

units::Seconds ThermalGrid::tile_time_constant() const {
  return units::Seconds{c_tile_ / g_vert_};
}

units::Celsius ThermalGrid::peak(const std::vector<double>& temps) {
  if (temps.empty()) {
    throw std::invalid_argument("ThermalGrid::peak: empty temperature map");
  }
  return units::Celsius{*std::max_element(temps.begin(), temps.end())};
}

std::string ThermalGrid::ascii_heatmap(const std::vector<double>& temps, int width,
                                       int height) {
  if (width <= 0 || height <= 0 ||
      temps.size() != static_cast<std::size_t>(width) * static_cast<std::size_t>(height)) {
    throw std::invalid_argument(
        "ThermalGrid::ascii_heatmap: temps.size() = " + std::to_string(temps.size()) +
        " does not match " + std::to_string(width) + "x" + std::to_string(height) +
        " grid");
  }
  static const char kRamp[] = " .:-=+*#%@";
  const double lo = *std::min_element(temps.begin(), temps.end());
  const double hi = *std::max_element(temps.begin(), temps.end());
  const double span = std::max(hi - lo, 1e-9);
  std::string out;
  for (int j = height - 1; j >= 0; --j) {  // y grows upward
    for (int i = 0; i < width; ++i) {
      const double t = temps[static_cast<size_t>(j * width + i)];
      const int level =
          std::min(9, static_cast<int>(std::floor((t - lo) / span * 9.999)));
      out += kRamp[level];
    }
    out += '\n';
  }
  return out;
}

}  // namespace taf::thermal
