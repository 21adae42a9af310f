#pragma once
// Steady-state grid thermal model (the HotSpot role in the paper's flow).
//
// One thermal node per FPGA tile. Lateral conduction couples adjacent
// tiles through the silicon; a lumped vertical resistance (die + TIM +
// spreader + sink) connects every tile to ambient. Solving
//   (G_lateral + G_vertical) * (T - Tamb) = P
// gives the per-tile temperature map Algorithm 1 iterates on. The system
// is symmetric positive definite, solved matrix-free by blocked stencil
// conjugate gradients with an SSOR preconditioner and batched multi-RHS
// solves (thermal/stencil_solver.hpp, DESIGN.md section 11). A plain-CG
// reference lives in tests/thermal_oracle.hpp.

#include <string>
#include <vector>

#include "arch/fpga_grid.hpp"
#include "util/units.hpp"

namespace taf::thermal {

struct ThermalConfig {
  units::Celsius ambient_c{25.0};
  /// Silicon thermal conductivity [W/(m K)].
  double silicon_k_w_mk = 140.0;
  /// Die thickness [um]; lateral conductance between neighbouring tiles is
  /// k * thickness (edge lengths cancel for square tiles).
  double die_thickness_um = 300.0;
  /// Tile edge [um] (from the architecture).
  double tile_edge_um = 34.6;
  /// Junction-to-ambient thermal resistance of the whole package [K/W];
  /// distributed uniformly over the tiles. Calibrated so that a typical
  /// routed benchmark warms ~2 degC over ambient, matching the paper's
  /// convergence observation and its dT ~= 0.7 p_design/p_base rule of
  /// thumb against the XPE spreadsheet.
  double package_r_k_per_w = 12.0;
  /// Volumetric heat capacity of silicon [J/(m^3 K)] for transients.
  double volumetric_c_j_m3k = 1.63e6;
  /// Per-tile temperature accuracy the CG termination criterion targets.
  /// The absolute residual floor is (weakest per-tile conductance of the
  /// operator being solved) * solve_tol_k per tile — g_vert for the
  /// steady-state system, g_vert + C/dt for the backward-Euler transient
  /// system — which bounds the worst-case solution error by
  /// sqrt(n_tiles) * solve_tol_k. At the default, comfortably below the
  /// 1e-9 degC the incremental-vs-full guardband differential contract
  /// asserts (DESIGN.md section 8).
  units::Kelvin solve_tol_k{1e-11};

  bool operator==(const ThermalConfig&) const = default;

  double lateral_g_w_per_k() const {
    return silicon_k_w_mk * die_thickness_um * 1e-6;
  }
};

/// Convergence diagnostics of one conjugate-gradient solve.
struct CgStats {
  int iterations = 0;
  units::Watts residual_norm_w;  ///< ||P - A dT||_2 at termination
};

class ThermalGrid {
 public:
  ThermalGrid(const arch::FpgaGrid& grid, ThermalConfig config);

  /// Steady-state tile temperatures [degC] for the given per-tile power
  /// map [W]. power.size() must equal the grid tile count.
  std::vector<double> solve(const std::vector<double>& power_w,
                            CgStats* stats = nullptr) const;

  /// Steady-state solve warm-started from an initial temperature field
  /// [degC] (e.g. the previous Algorithm 1 iterate). The system is SPD,
  /// so CG converges from any starting point to the same solution (within
  /// the termination tolerance); a nearby start just gets there in far
  /// fewer iterations. initial_temp_c.size() must equal the tile count.
  std::vector<double> solve(const std::vector<double>& power_w,
                            const std::vector<double>& initial_temp_c,
                            CgStats* stats = nullptr) const;

  /// Warm-started batched solve for independent ambient corners that
  /// share this grid's conductance operator (the ambient never enters the
  /// operator, only the T = Tamb + dT shift): map k starts from
  /// initial_temp_c[k] and is solved against ambient_c[k], overriding
  /// config().ambient_c. All maps share one blocked operator traversal
  /// per CG iteration, yet result k is bit-identical to calling
  /// solve(power_w[k], initial_temp_c[k]) on a grid configured with
  /// ambient ambient_c[k] — the guardband corner-batching contract
  /// (DESIGN.md section 12). A start map filled with the ambient is a
  /// cold start. All three vectors must have one entry per map; every
  /// map must match the grid tile count. stats, when given, is resized
  /// to one entry per map.
  std::vector<std::vector<double>> solve_batch(
      const std::vector<std::vector<double>>& power_w,
      const std::vector<std::vector<double>>& initial_temp_c,
      const std::vector<double>& ambient_c,
      std::vector<CgStats>* stats = nullptr) const;

  /// Transient step: advance the temperature field by dt under constant
  /// power (backward Euler on C dT/dt + A (T - Tamb) = P). `temps` is
  /// updated in place. Used to study warm-up after a frequency change;
  /// thermal/transient.hpp wraps this in adaptive step control. Throws
  /// std::invalid_argument unless dt is positive and finite (dt divides
  /// into the C/dt backward-Euler diagonal).
  void step(const std::vector<double>& power_w, units::Seconds dt,
            std::vector<double>& temps, CgStats* stats = nullptr) const;

  /// Thermal time constant of one tile (C_tile / G_vertical-ish),
  /// useful to pick transient step sizes.
  units::Seconds tile_time_constant() const;

  /// Peak temperature of a solve result. temps must be non-empty.
  static units::Celsius peak(const std::vector<double>& temps);

  const ThermalConfig& config() const { return config_; }
  int width() const { return width_; }
  int height() const { return height_; }

  /// Render the temperature map as a coarse ASCII heat map (for the
  /// thermal_profile example and debugging). Throws std::invalid_argument
  /// unless temps.size() == width * height with positive dimensions.
  static std::string ascii_heatmap(const std::vector<double>& temps, int width,
                                   int height);

  double lateral_g() const { return g_lat_; }
  double vertical_g() const { return g_vert_; }

 private:
  /// Absolute floor of the squared-residual CG termination threshold
  /// (the stencil solver takes the max with rr0 * 1e-20): the residual a
  /// per-tile temperature error of config_.solve_tol_k would produce through the
  /// weakest per-tile conductance of the system being solved — g_vert_
  /// for the steady-state operator, g_vert_ + C/dt (`g_diag`) for the
  /// backward-Euler one. Deriving the transient floor from the
  /// steady-state conductance was a real bug: for small dt the g_vert_
  /// floor sits below what the huge (C/dt)-scaled right-hand side can
  /// reach in double precision, so every step ground through the full
  /// 4n-iteration cap and still returned an unconverged field (see the
  /// SmallDtStep regression tests). Without the floor a relative-only
  /// criterion (rr0 * 1e-20) made CG chase rounding noise for the full
  /// 4n iterations whenever the initial residual was already near zero
  /// (tiny power maps, warm starts at the solution).
  double cg_tolerance(double g_diag) const;

  /// Solves (A + g_c I) x = rhs for x = T - Tamb, starting from x (pass
  /// g_c = 0 for the steady-state system). One parameterized PCG serves
  /// solve() and step() so tolerance and stats fixes cannot diverge
  /// between the paths (thermal/stencil_solver.hpp).
  void stencil_solve(const std::vector<double>& rhs, std::vector<double>& x,
                     double g_c, CgStats* stats) const;

  int width_;
  int height_;
  ThermalConfig config_;
  double g_lat_;   ///< lateral conductance between adjacent tiles [W/K]
  double g_vert_;  ///< per-tile vertical conductance to ambient [W/K]
  double c_tile_;  ///< heat capacity of one tile [J/K]
};

}  // namespace taf::thermal
