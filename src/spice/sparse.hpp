#pragma once
// Sparse MNA solver: CSR storage and a static-pattern LU factorization.
//
// The MNA Jacobian's sparsity pattern is fixed by the netlist, so the
// expensive work — a fill-reducing elimination order (greedy minimum
// degree, Markowitz-style on the symmetrized pattern) and the symbolic
// factorization (fill pattern of L and U) — is done ONCE per circuit.
// Every Newton iteration then only refactors numerically over the static
// pattern (up-looking row LU, Gilbert–Peierls style) and runs two
// triangular solves: O(nnz(L+U)) per iteration instead of the dense
// O(n^3).
//
// There is no numeric pivoting: MNA matrices carry gmin on every
// diagonal, and the elimination order is fixed by the symbolic phase.
// Pivots below kPivotFloor are regularized by +/-kPivotNudge — the same
// contract as the dense reference LU (see linear.hpp).

#include <algorithm>
#include <cassert>
#include <vector>

#include "spice/linear.hpp"

namespace taf::spice {

/// Minimal CSR matrix (also used by tests to cross-check matrix-free
/// operators, e.g. the thermal grid's apply()).
struct CsrMatrix {
  int n = 0;
  std::vector<int> row_ptr;  ///< size n + 1
  std::vector<int> col;      ///< ascending within each row
  std::vector<double> val;

  /// Build from an entry list (duplicates are summed, diagonal entries
  /// are materialized even when absent so LU always has a pivot slot).
  static CsrMatrix from_entries(int n, const SparsityPattern& entries);

  /// y = A x.
  void multiply(const std::vector<double>& x, std::vector<double>& y) const;

  /// Value slot index of (i, j), or -1 when outside the pattern.
  int slot(int i, int j) const;
};

/// Sparse LU over a fixed pattern. analyze() once, then factor() +
/// solve() any number of times with new values.
class SparseLu {
 public:
  /// Symbolic phase: ordering + fill pattern for the given CSR pattern.
  void analyze(const CsrMatrix& a);

  /// Numeric factorization of the values currently held by `a` (same
  /// pattern object handed to analyze()).
  void factor(const CsrMatrix& a);

  /// Solve A x = b in place using the last factor().
  void solve(std::vector<double>& b) const;

  int dimension() const { return n_; }
  /// Non-zeros of L + U (fill quality of the ordering; diagnostics).
  std::size_t lu_nnz() const { return l_col_.size() + u_col_.size(); }

 private:
  int n_ = 0;
  std::vector<int> perm_;      ///< perm_[k] = original index eliminated at step k
  std::vector<int> inv_perm_;  ///< inverse of perm_
  // Static fill patterns in permuted coordinates, rows concatenated.
  std::vector<int> l_ptr_, l_col_;  ///< strictly-lower part, cols ascending
  std::vector<int> u_ptr_, u_col_;  ///< upper incl. diagonal, cols ascending
  std::vector<double> l_val_, u_val_;
  mutable std::vector<double> y_;  ///< permuted rhs workspace
  std::vector<double> work_;       ///< dense scatter row for factor()
};

/// One MNA system A x = b of fixed dimension and sparsity pattern, backed
/// by CsrMatrix + SparseLu with an O(1) stamp map from (i, j) to the CSR
/// value slot. Assembly stamps entries with add(); factor_solve()
/// factorizes the current values and overwrites rhs with the solution;
/// begin() resets the values for the next assembly.
class SparseSystem {
 public:
  SparseSystem(int n, const SparsityPattern& pattern);

  // begin()/add() are inline: they are the hottest calls in a transient
  // solve, and the solver's assembly loop compiles down to direct array
  // updates.
  void begin() { std::fill(a_.val.begin(), a_.val.end(), 0.0); }
  /// A(i, j) += v. (i, j) must belong to the pattern the system was
  /// created with.
  void add(int i, int j, double v) {
    const int s = slot_[static_cast<std::size_t>(i) * a_.n + j];
    assert(s >= 0 && "stamp outside the analyzed sparsity pattern");
    a_.val[static_cast<std::size_t>(s)] += v;
  }
  void factor_solve(std::vector<double>& rhs);

  const CsrMatrix& matrix() const { return a_; }
  const SparseLu& lu() const { return lu_; }

 private:
  CsrMatrix a_;
  SparseLu lu_;
  std::vector<int> slot_;  ///< n*n -> value index, -1 outside pattern
  bool factored_once_ = false;
};

/// Convenience for tests: solve A x = b with the sparse path (analyze +
/// factor + solve in one shot). Returns the solution.
std::vector<double> sparse_lu_solve(const CsrMatrix& a, std::vector<double> b);

}  // namespace taf::spice
