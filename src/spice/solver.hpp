#pragma once
// Nonlinear DC operating point and backward-Euler transient analysis.

#include <vector>

#include "spice/circuit.hpp"
#include "util/units.hpp"
#include "tech/technology.hpp"

namespace taf::spice {

struct SolverOptions {
  util::units::Celsius temp_c{25.0};  ///< junction temperature for device evaluation
  double gmin = 1e-7;            ///< leak conductance to ground [mA/V]
  int max_newton_iters = 120;
  double v_tol = 1e-5;           ///< Newton convergence tolerance [V]
  double dt_ps = 2.0;            ///< transient timestep
};

struct TransientResult {
  std::vector<double> time_ps;
  /// waveforms[node][sample] — node voltages over time.
  std::vector<std::vector<double>> waveforms;

  double value_at(NodeId n, std::size_t sample) const {
    return waveforms[static_cast<std::size_t>(n)][sample];
  }
};

/// Solve the DC operating point at t = 0 (drives evaluated at t = 0).
/// Returns one voltage per node. Throws std::runtime_error on divergence.
std::vector<double> solve_dc(const Circuit& c, const tech::Technology& tech,
                             const SolverOptions& opt);

/// Backward-Euler transient from the DC operating point.
TransientResult solve_transient(const Circuit& c, const tech::Technology& tech,
                                const SolverOptions& opt, double t_stop_ps);

/// solve_transient() with every Newton step's linear solve done by the
/// row-major dense LU (linear.hpp) instead of the sparse LU: same
/// assembly, initialization and timestepping. The reference the
/// differential tests compare against (tests/diff_harness.hpp); nothing
/// in production calls it.
TransientResult solve_transient_dense_oracle(const Circuit& c,
                                             const tech::Technology& tech,
                                             const SolverOptions& opt, double t_stop_ps);

/// Time at which the node waveform crosses `threshold` in the given
/// direction (first crossing after t_from). Returns a negative value if no
/// crossing is found. Linear interpolation between samples.
double crossing_time_ps(const TransientResult& r, NodeId node, double threshold,
                        bool rising, double t_from_ps = 0.0);

/// 50%-to-50% propagation delay between an input and output node.
/// Returns negative if either crossing is missing.
double propagation_delay_ps(const TransientResult& r, NodeId in, NodeId out, double vdd,
                            bool in_rising, bool out_rising, double t_from_ps = 0.0);

}  // namespace taf::spice
