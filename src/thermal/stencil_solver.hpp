#pragma once
// Matrix-free blocked stencil backend of the thermal solver.
//
// The thermal conductance matrix is a 5-point stencil with constant
// coefficients: every tile couples to its four lateral neighbours with
// -g_lat and to ambient with g_vert, and the backward-Euler transient
// system adds a uniform C/dt diagonal. That structure never needs to be
// assembled: StencilOp fuses the 5-point apply with the optional
// diagonal shift, so the steady-state solve() and the transient step()
// share one operator (the hand-copied CG loop the two paths used to
// carry cannot diverge again), and StencilSolver runs preconditioned
// conjugate gradients over it with an SSOR (symmetric successive
// over-relaxation, auto-tuned omega) or Jacobi preconditioner and a
// row-blocked, branch-free traversal whose working set is sized to stay
// cache-resident.
//
// This header is an implementation detail of ThermalGrid: everything
// outside src/thermal selects the backend through
// ThermalConfig::backend / TAF_THERMAL_BACKEND and calls the ThermalGrid
// API (taf-analyze rule thermal-backend-seam keeps it that way).

#include <vector>

namespace taf::thermal {

/// y = (A + g_c I) x for the five-point thermal conductance stencil on a
/// width x height grid: per tile, g_base = g_vert + g_c to ground plus
/// g_lat to each existing lateral neighbour. All coefficients are
/// uniform, so the matrix reduces to four row classes (interior / edge /
/// corner) selected by neighbour count.
class StencilOp {
 public:
  StencilOp(int width, int height, double g_lat, double g_vert, double g_c = 0.0);

  int width() const { return width_; }
  int height() const { return height_; }
  int size() const { return width_ * height_; }
  double lateral_g() const { return g_lat_; }
  /// Uniform diagonal-to-ground conductance g_vert + g_c: the weakest
  /// per-tile conductance of the operator, hence the factor that maps a
  /// per-tile residual [W] to a worst-case temperature error [K]. The CG
  /// absolute tolerance floor must be derived from THIS value — for the
  /// backward-Euler system it is g_vert + C/dt, not the steady-state
  /// g_vert (see ThermalGrid::cg_tolerance).
  double ground_g() const { return g_base_; }
  /// Diagonal entry of a tile with the given lateral neighbour count.
  double diag(int degree) const { return g_base_ + degree * g_lat_; }

  /// Blocked, branch-free traversal: rows are processed in cache-sized
  /// blocks, each row by a kernel specialized for its neighbour pattern
  /// with no per-element branching in the interior columns.
  void apply(const double* x, double* y) const;
  /// Reference traversal: per-element neighbour branches, identical
  /// arithmetic (same term order), used by the property tests to pin the
  /// blocked kernels bit-for-bit.
  void apply_naive(const double* x, double* y) const;
  /// apply() fused with the CG step's inner product: y = (A + g_c I) x
  /// and return dot(x, y) from the same traversal. The dot accumulates
  /// per row block with the partials summed in block order — the same
  /// association the batched solver uses, keeping solo and batched
  /// solves bit-identical.
  double apply_dot(const double* x, double* y) const;
  /// Row-range slice of apply_dot() for the batched solver's
  /// block-interleaved traversal ([j0, j1) rows; returns that slice's
  /// dot-product partial).
  double apply_dot_rows(const double* x, double* y, int j0, int j1) const;
  /// Rows per cache block of the traversal (pure function of the width).
  int cache_row_block() const;

  void apply(const std::vector<double>& x, std::vector<double>& y) const {
    apply(x.data(), y.data());
  }

 private:
  template <bool kFused>
  double traverse(const double* x, double* y, int j0, int j1) const;

  int width_;
  int height_;
  double g_lat_;
  double g_base_;  ///< g_vert + g_c
};

/// Preconditioner of the stencil CG. Ssor is the default; Jacobi is the
/// cheap fallback (diagonal scaling only); None degrades to plain CG and
/// exists so the property tests can assert the preconditioner actually
/// cuts iterations.
enum class StencilPreconditioner { None, Jacobi, Ssor };

/// Outcome of one stencil PCG solve (per right-hand side).
struct StencilSolveInfo {
  int iterations = 0;
  double rr = 0.0;  ///< squared residual 2-norm at termination [W^2]
};

/// Preconditioned conjugate gradients over a StencilOp. Termination uses
/// the same criterion as the generic CG oracle — squared TRUE residual
/// against max(rr0 * rel_eps, abs_floor_rr) — so both backends honour one
/// accuracy contract and the differential harness can compare them
/// per-tile.
class StencilSolver {
 public:
  explicit StencilSolver(StencilOp op,
                         StencilPreconditioner pc = StencilPreconditioner::Ssor);

  const StencilOp& op() const { return op_; }
  StencilPreconditioner preconditioner() const { return pc_; }
  /// SSOR relaxation factor in use (1 for the other preconditioners).
  /// Chosen per operator by tuned_omega().
  double omega() const { return omega_; }

  /// Relaxation factor heuristic: the model-problem SOR optimum walks
  /// toward 2 as the grid grows (here fit as 2 / (1 + 1.7 / sqrt(s)) with
  /// s the larger grid dimension), blended back toward 1 in proportion to
  /// how much the ground/shift conductance dominates the lateral coupling
  /// — a backward-Euler C/dt shift makes the system diagonally dominant,
  /// where plain symmetric Gauss-Seidel is already near-exact and
  /// over-relaxation only hurts. Always in (0, 2), so M stays SPD.
  static double tuned_omega(const StencilOp& op);

  /// Solve (A + g_c I) x = b from the given iterate x (pass zeros for a
  /// cold start; x = 0 reproduces r = b bitwise). Iterations are capped
  /// at 4n, matching the generic oracle. Throws std::runtime_error when
  /// the operator is singular (ground_g() not positive — no path to
  /// ambient) or on a CG breakdown (dot(p, Ap) not strictly positive:
  /// the search direction carries no energy, so alpha would be a silent
  /// NaN), and std::invalid_argument when b is not finite.
  StencilSolveInfo solve(const double* b, double* x, double rel_eps,
                         double abs_floor_rr) const;

  /// Batched multi-RHS solve: all nrhs systems advance in lockstep, one
  /// blocked operator traversal per CG iteration serving every
  /// still-active right-hand side; a system that reaches its tolerance
  /// drops out while the rest continue. Each column performs exactly the
  /// arithmetic of a solo solve() in the same order, so results and
  /// iteration counts are bit-identical to solving sequentially.
  /// b and x are nrhs contiguous blocks of op().size() doubles.
  std::vector<StencilSolveInfo> solve_batch(int nrhs, const double* b, double* x,
                                            double rel_eps,
                                            double abs_floor_rr) const;

  /// z = M^{-1} r. Public so tests can check M's symmetry and positive
  /// definiteness (a non-SPD preconditioner silently breaks PCG).
  void precondition(const double* r, double* z) const;

 private:
  StencilOp op_;
  StencilPreconditioner pc_;
  double omega_;        ///< SSOR relaxation factor (1 otherwise)
  double inv_diag_[5];  ///< 1 / diag(degree) for degree 0..4
};

}  // namespace taf::thermal
