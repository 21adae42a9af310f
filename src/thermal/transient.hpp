#pragma once
// Transient RC thermal engine (ROADMAP item 2; DESIGN.md section 13).
//
// Integrates C dT/dt + A (T - Tamb) = P with backward Euler over
// ThermalGrid::step() — unconditionally stable, first-order accurate —
// under deterministic adaptive step control keyed off the grid's
// tile_time_constant(). The controller never redoes a step (stability is
// unconditional; dt only trades accuracy), so a trace replay is a pure
// function of (grid, options, power, duration, start field): bit-identical
// on every rerun, which is what the service determinism contract and the
// CI rerun-and-cmp gate on the dynamic-workload experiments pin.
//
// Long-dwell contract: the fixed point of one backward-Euler step,
// (C/dt + A) x = P + (C/dt) x, is exactly the steady-state solution
// A x = P, so holding any constant power long enough converges to
// ThermalGrid::solve(P) to within the shared CG termination contract
// (DESIGN.md section 11). tests/test_transient.cpp pins per-tile
// agreement within kTransientSteadyContractC on every benchmark, against
// both solve() and the plain-CG test oracle — the differential gate of
// this engine.

#include <cstdint>
#include <vector>

#include "thermal/thermal_grid.hpp"
#include "util/units.hpp"

namespace taf::thermal {

/// Documented long-dwell agreement bound: after >= ~40 tile time
/// constants of constant power, every tile of the integrated field must
/// match the steady-state solve() within this many degC. Derivation: the
/// slowest thermal mode is the uniform one with time constant
/// tile_time_constant() (lateral conduction cancels on it), backward
/// Euler damps it by 1/(1 + dt/tau) per step, and the per-step CG error
/// injection is bounded by the solve_tol_k termination floor — orders of
/// magnitude of slack below this bound.
inline constexpr double kTransientSteadyContractC = 1e-6;

struct TransientOptions {
  /// First step, as a fraction of tile_time_constant(). Restarted at
  /// every advance() call: a power step excites the fast lateral modes,
  /// so each constant-power dwell begins fine-grained and coarsens.
  double dt_init_frac = 1.0 / 64.0;
  double dt_min_frac = 1.0 / 4096.0;
  double dt_max_frac = 8.0;
  /// Step growth/shrink applied after each accepted step: shrink when
  /// the peak per-step temperature change exceeded target_step_k, grow
  /// when it stayed under a quarter of it. Setting dt_min_frac ==
  /// dt_max_frac pins a fixed step (the convergence-order tests).
  double grow = 2.0;
  double shrink = 0.5;
  units::Kelvin target_step_k{0.25};
  /// Dwell hold: once the controller has saturated at dt_max and an
  /// accepted step moved no tile by more than this, the field is at its
  /// fixed point to solver accuracy and the remaining dwell is held
  /// (temps frozen, stats.holds incremented) instead of ground through
  /// step by step. Zero disables holding (fixed-step test mode).
  units::Kelvin steady_tol_k{1e-9};
  /// Hard safety cap on backward-Euler steps per advance() call;
  /// exceeding it throws std::runtime_error (a hostile trace duration
  /// must not spin the service).
  std::uint64_t max_steps = 1u << 20;
};

/// Work performed by one or more advance() calls.
struct TransientStats {
  std::uint64_t steps = 0;  ///< backward-Euler solves performed
  std::uint64_t holds = 0;  ///< dwells fast-forwarded at the fixed point
  std::uint64_t cg_iterations = 0;
};

/// Adaptive backward-Euler integrator over one ThermalGrid. The grid
/// reference must outlive the engine.
class TransientEngine {
 public:
  explicit TransientEngine(const ThermalGrid& grid, TransientOptions opt = {});

  /// Advance `temps` in place by `duration` under constant power.
  /// duration must be finite and >= 0 (zero is a no-op); power_w and
  /// temps must match the grid tile count. Stats, when given, accumulate
  /// across calls (callers zero them between traces).
  void advance(const std::vector<double>& power_w, units::Seconds duration,
               std::vector<double>& temps, TransientStats* stats = nullptr) const;

  const TransientOptions& options() const { return opt_; }
  const ThermalGrid& grid() const { return grid_; }

 private:
  const ThermalGrid& grid_;
  TransientOptions opt_;
};

}  // namespace taf::thermal
