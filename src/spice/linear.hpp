#pragma once
// Linear-solver seam of the MNA Newton loop.
//
// The Jacobian of a circuit has a sparsity pattern fixed by the netlist,
// so the per-iteration linear solve can be served by either of two
// interchangeable backends behind the LinearSystem interface:
//   * Dense  — row-major LU with partial pivoting (the historical path,
//     kept as the differential-testing oracle);
//   * Sparse — CSR LU with a fill-reducing ordering whose symbolic
//     factorization is computed once per circuit and reused across all
//     Newton iterations and timesteps (src/spice/sparse.hpp).
//
// Both backends share one regularization contract: a pivot whose
// magnitude falls below kPivotFloor is nudged by +/-kPivotNudge instead
// of failing, so open-loop chains of high-gain stages biased at mid-rail
// (determinant underflow) still yield a damped Newton direction.

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "util/counters.hpp"

namespace taf::spice {

enum class LinearBackend { Dense, Sparse };

/// Backend used when SolverOptions does not name one: Sparse, unless the
/// TAF_SPICE_BACKEND environment variable ("dense" | "sparse") overrides
/// it. Read once per process.
LinearBackend default_backend();

const char* backend_name(LinearBackend b);

/// Pivot regularization contract shared by both backends.
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

/// One linear system A x = b of fixed dimension and (for the sparse
/// backend) fixed sparsity pattern. Assembly stamps entries with add();
/// factor_solve() factorizes the current values and overwrites rhs with
/// the solution. begin() resets the values for the next assembly.
class LinearSystem {
 public:
  virtual ~LinearSystem() = default;
  virtual void begin() = 0;
  /// A(i, j) += v. (i, j) must belong to the pattern the system was
  /// created with.
  virtual void add(int i, int j, double v) = 0;
  virtual void factor_solve(std::vector<double>& rhs) = 0;
  virtual LinearBackend backend() const = 0;
};

/// Entry list of a sparsity pattern (duplicates allowed; diagonal need
/// not be explicit — backends insert it).
using SparsityPattern = std::vector<std::pair<int, int>>;

std::unique_ptr<LinearSystem> make_linear_system(LinearBackend backend, int n,
                                                 const SparsityPattern& pattern);

}  // namespace taf::spice
