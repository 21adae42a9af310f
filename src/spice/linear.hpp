#pragma once
// Linear algebra shared by the MNA Newton loop.
//
// The Jacobian of a circuit has a sparsity pattern fixed by the netlist;
// production solves it with the static-pattern sparse LU of
// src/spice/sparse.hpp, whose symbolic factorization is computed once per
// circuit and reused across all Newton iterations and timesteps. The
// row-major dense LU below is the reference the differential tests
// compare against (spice::solve_transient_dense_oracle).
//
// Both share one regularization contract: a pivot whose magnitude falls
// below kPivotFloor is nudged by +/-kPivotNudge instead of failing, so
// open-loop chains of high-gain stages biased at mid-rail (determinant
// underflow) still yield a damped Newton direction.

#include <cstdint>
#include <utility>
#include <vector>

#include "util/counters.hpp"

namespace taf::spice {

/// Pivot regularization contract shared by the sparse and dense LU.
inline constexpr double kPivotFloor = 1e-12;
inline constexpr double kPivotNudge = 1e-9;

/// Dense linear solve A x = b with partial pivoting. A is n x n row-major.
/// Overwrites A and b (solution in b). Near-zero pivots are regularized
/// per the contract above rather than rejected.
void dense_lu_solve(std::vector<double>& a, std::vector<double>& b, int n);

/// Per-thread cumulative solver counters, as X(name, doc). The solver
/// bumps these on every factorization/Newton iteration; runner tasks
/// snapshot deltas into TaskMetrics so bench_all can report where the
/// SPICE time went.
#define TAF_SOLVER_COUNTERS(X)                               \
  X(factorizations, "numeric (re)factorizations")            \
  X(symbolic_analyses, "sparse symbolic factorizations")     \
  X(pattern_reuses, "numeric refactors on a cached pattern") \
  X(newton_iterations, "Newton steps across all solves")

struct SolverCounters {
  TAF_COUNTER_MEMBERS(SolverCounters, TAF_SOLVER_COUNTERS)
};

SolverCounters& thread_counters();

/// Entry list of a sparsity pattern (duplicates allowed; diagonal need
/// not be explicit — CsrMatrix::from_entries inserts it).
using SparsityPattern = std::vector<std::pair<int, int>>;

}  // namespace taf::spice
