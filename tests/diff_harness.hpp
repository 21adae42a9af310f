#pragma once
// Differential harness for the SPICE linear solve: run the same circuit
// through production solve_transient() (sparse LU) and the dense-LU
// reference solve_transient_dense_oracle(), and compare the full
// node-voltage trajectories and the measured delay. Both see the
// identical Newton assembly, so agreement to rounding (far below the
// asserted tolerances) is the expected behaviour; any structured
// divergence means a factorization bug.

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "spice/circuit.hpp"
#include "spice/solver.hpp"
#include "tech/technology.hpp"

namespace taf::difftest {

inline constexpr double kVoltageTolV = 1e-6;  ///< per-sample waveform tolerance
inline constexpr double kDelayTolPs = 0.01;   ///< measured-delay tolerance

struct DiffResult {
  spice::TransientResult dense;
  spice::TransientResult sparse;
  double dense_delay_ps = 0.0;
  double sparse_delay_ps = 0.0;
  double max_dv = 0.0;  ///< worst node-voltage divergence over all samples
};

/// Simulate `c` with both LU solvers and compare every node's trajectory.
/// `label` tags gtest failure messages (circuit + temperature). Void
/// because gtest ASSERTs return from the enclosing function; callers
/// check HasFatalFailure() before using `r`.
inline void run_differential(const spice::Circuit& c, const tech::Technology& tech,
                             const spice::SolverOptions& opt, double t_stop_ps,
                             const std::string& label, DiffResult& r) {
  r.dense = spice::solve_transient_dense_oracle(c, tech, opt, t_stop_ps);
  r.sparse = spice::solve_transient(c, tech, opt, t_stop_ps);

  ASSERT_EQ(r.dense.time_ps.size(), r.sparse.time_ps.size()) << label;
  ASSERT_EQ(r.dense.waveforms.size(), r.sparse.waveforms.size()) << label;
  for (std::size_t node = 0; node < r.dense.waveforms.size(); ++node) {
    const auto& wd = r.dense.waveforms[node];
    const auto& ws = r.sparse.waveforms[node];
    ASSERT_EQ(wd.size(), ws.size()) << label << " node " << node;
    for (std::size_t s = 0; s < wd.size(); ++s) {
      const double dv = std::fabs(wd[s] - ws[s]);
      r.max_dv = std::max(r.max_dv, dv);
      ASSERT_LE(dv, kVoltageTolV)
          << label << ": node " << node << " ('" << c.node_name(static_cast<spice::NodeId>(node))
          << "') diverges at t=" << r.dense.time_ps[s] << " ps: dense=" << wd[s]
          << " V sparse=" << ws[s] << " V";
    }
  }
}

/// Compare a measured propagation delay between the two runs.
inline void expect_delay_match(const DiffResult& r, spice::NodeId in, spice::NodeId out,
                               double vdd, bool in_rising, bool out_rising,
                               double t_from_ps, const std::string& label) {
  const double dd = spice::propagation_delay_ps(r.dense, in, out, vdd, in_rising,
                                                out_rising, t_from_ps);
  const double ds = spice::propagation_delay_ps(r.sparse, in, out, vdd, in_rising,
                                                out_rising, t_from_ps);
  ASSERT_GT(dd, 0.0) << label << ": dense run output did not switch";
  ASSERT_GT(ds, 0.0) << label << ": sparse run output did not switch";
  EXPECT_NEAR(dd, ds, kDelayTolPs) << label << ": dense and sparse delays diverge";
}

}  // namespace taf::difftest
