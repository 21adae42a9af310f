#pragma once
// Reference thermal solver for the differential tests: plain
// (unpreconditioned) conjugate gradients over the five-point conductance
// operator, with one per-element traversal and one CG loop shared by the
// steady-state and backward-Euler systems. It is built only from
// ThermalGrid's public geometry (dimensions, conductances, config) and
// honours the production termination contract — squared true residual
// against max(rr0 * 1e-20, n * ((g_vert + g_c) * solve_tol_k)^2), capped at
// 4n iterations — so its fields and ThermalGrid's agree per tile within
// the sum of the two reported residuals over the weakest per-tile
// conductance. Nothing in src/ calls it; the production stencil PCG is
// compared against it.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <string>
#include <vector>

#include "thermal/thermal_grid.hpp"
#include "util/units.hpp"

namespace taf::thermal_oracle {

/// y = A x for the steady-state conductance operator: per tile, g_vert to
/// ambient plus g_lat to each existing neighbour (left, right, up, down).
inline void apply(const thermal::ThermalGrid& g, const std::vector<double>& x,
                  std::vector<double>& y) {
  const int w = g.width(), h = g.height();
  const double gl = g.lateral_g(), gv = g.vertical_g();
  for (int j = 0; j < h; ++j) {
    for (int i = 0; i < w; ++i) {
      const auto idx = static_cast<std::size_t>(j * w + i);
      const double xi = x[idx];
      double acc = gv * xi;
      if (i > 0) acc += gl * (xi - x[idx - 1]);
      if (i < w - 1) acc += gl * (xi - x[idx + 1]);
      if (j > 0) acc += gl * (xi - x[idx - static_cast<std::size_t>(w)]);
      if (j < h - 1) acc += gl * (xi - x[idx + static_cast<std::size_t>(w)]);
      y[idx] = acc;
    }
  }
}

/// Solves (A + g_c I) x = rhs for x = T - Tamb, starting from x; r must
/// hold the matching residual rhs - (A + g_c I) x. g_c = 0 is the
/// steady-state system.
inline void cg(const thermal::ThermalGrid& g, std::vector<double>& x, std::vector<double>& r,
               double g_c, thermal::CgStats* stats) {
  const int n = g.width() * g.height();
  std::vector<double> p = r;
  std::vector<double> ap(static_cast<std::size_t>(n));
  const auto dot = [](const std::vector<double>& a, const std::vector<double>& b) {
    double s = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
    return s;
  };

  double rr = dot(r, r);
  if (!std::isfinite(rr)) {
    throw std::invalid_argument("thermal CG oracle: non-finite right-hand side");
  }
  const double floor_per_tile = (g.vertical_g() + g_c) * g.config().solve_tol_k.value();
  const double tol = std::max(rr * 1e-20, n * floor_per_tile * floor_per_tile);
  int iters = 0;
  for (; iters < 4 * n && rr > tol; ++iters) {
    apply(g, p, ap);
    if (g_c != 0.0) {
      for (std::size_t i = 0; i < ap.size(); ++i) ap[i] += g_c * p[i];
    }
    const double pap = dot(p, ap);
    if (!(pap > 0.0)) {
      throw std::runtime_error("thermal CG oracle breakdown: dot(p, Ap) = " +
                               std::to_string(pap));
    }
    const double alpha = rr / pap;
    for (std::size_t i = 0; i < x.size(); ++i) {
      x[i] += alpha * p[i];
      r[i] -= alpha * ap[i];
    }
    const double rr_new = dot(r, r);
    const double beta = rr_new / rr;
    rr = rr_new;
    for (std::size_t i = 0; i < p.size(); ++i) p[i] = r[i] + beta * p[i];
  }
  if (stats != nullptr) {
    stats->iterations = iters;
    stats->residual_norm_w = units::Watts{std::sqrt(rr)};
  }
}

/// Cold steady-state solve: tile temperatures [degC] for a power map [W].
inline std::vector<double> solve(const thermal::ThermalGrid& g,
                                 const std::vector<double>& power_w,
                                 thermal::CgStats* stats = nullptr) {
  // x = 0, so r = P exactly.
  std::vector<double> x(power_w.size(), 0.0);
  std::vector<double> r = power_w;
  cg(g, x, r, 0.0, stats);
  for (double& t : x) t += g.config().ambient_c.value();
  return x;
}

/// Steady-state solve warm-started from a temperature field [degC].
inline std::vector<double> solve(const thermal::ThermalGrid& g,
                                 const std::vector<double>& power_w,
                                 const std::vector<double>& initial_temp_c,
                                 thermal::CgStats* stats = nullptr) {
  const double amb = g.config().ambient_c.value();
  const std::size_t n = power_w.size();
  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i) x[i] = initial_temp_c[i] - amb;
  std::vector<double> r(n);
  apply(g, x, r);
  for (std::size_t i = 0; i < n; ++i) r[i] = power_w[i] - r[i];
  cg(g, x, r, 0.0, stats);
  for (double& t : x) t += amb;
  return x;
}

/// One backward-Euler step: (C/dt + A) dT_next = P + (C/dt) dT_now, with
/// C the heat capacity of one tile as ThermalGrid derives it from the
/// config. `temps` [degC] is advanced in place.
inline void step(const thermal::ThermalGrid& g, const std::vector<double>& power_w,
                 units::Seconds dt, std::vector<double>& temps,
                 thermal::CgStats* stats = nullptr) {
  const thermal::ThermalConfig& cfg = g.config();
  const double tile_vol_m3 =
      cfg.tile_edge_um * cfg.tile_edge_um * cfg.die_thickness_um * 1e-18;
  const double g_c = cfg.volumetric_c_j_m3k * tile_vol_m3 / dt.value();
  const double amb = cfg.ambient_c.value();
  const std::size_t n = power_w.size();
  std::vector<double> x(n), rhs(n), r(n);
  for (std::size_t i = 0; i < n; ++i) x[i] = temps[i] - amb;
  for (std::size_t i = 0; i < n; ++i) rhs[i] = power_w[i] + g_c * x[i];
  apply(g, x, r);
  for (std::size_t i = 0; i < n; ++i) r[i] = rhs[i] - (r[i] + g_c * x[i]);
  cg(g, x, r, g_c, stats);
  for (std::size_t i = 0; i < n; ++i) temps[i] = x[i] + amb;
}

}  // namespace taf::thermal_oracle
