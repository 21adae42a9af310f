// Property tests for the matrix-free blocked stencil backend
// (thermal/stencil_solver.hpp): operator symmetry / positive
// definiteness on random grids, bit-agreement between the blocked and
// naive traversals, bit-agreement between batched and sequential solves,
// SSOR preconditioner SPD-ness, and the preconditioner actually earning
// its keep (strictly fewer iterations than plain CG). This file is the
// one place outside src/thermal allowed to include the backend header
// (taf-analyze rule thermal-backend-seam).

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include "thermal/stencil_solver.hpp"
#include "util/rng.hpp"

namespace {

using namespace taf;
using thermal::StencilOp;
using thermal::StencilPreconditioner;
using thermal::StencilSolver;

double dot(const std::vector<double>& a, const std::vector<double>& b) {
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

std::vector<double> random_vec(util::Rng& rng, int n, double lo = -1.0, double hi = 1.0) {
  std::vector<double> v(static_cast<std::size_t>(n));
  for (double& x : v) x = lo + (hi - lo) * rng.next_double();
  return v;
}

/// Random grid shapes including the degenerate single-row/column cases
/// the row kernels special-case.
struct Shape {
  int w, h;
};
const Shape kShapes[] = {{1, 1}, {1, 7}, {9, 1}, {2, 2},  {3, 5},
                         {8, 8}, {17, 9}, {33, 12}, {64, 64}};

TEST(StencilOp, IsSymmetricOnRandomGrids) {
  util::Rng rng(7);
  for (const Shape s : kShapes) {
    for (double g_c : {0.0, 0.37}) {
      const StencilOp op(s.w, s.h, 0.042, 2.03e-5, g_c);
      const int n = op.size();
      const auto x = random_vec(rng, n);
      const auto y = random_vec(rng, n);
      std::vector<double> ax(static_cast<std::size_t>(n)), ay(static_cast<std::size_t>(n));
      op.apply(x, ax);
      op.apply(y, ay);
      // <y, Ax> == <x, Ay> up to rounding of the two dot products.
      const double scale = std::max(1.0, std::abs(dot(y, ax)));
      EXPECT_NEAR(dot(y, ax), dot(x, ay), 1e-12 * scale)
          << s.w << "x" << s.h << " g_c=" << g_c;
    }
  }
}

TEST(StencilOp, IsPositiveDefiniteOnRandomGrids) {
  util::Rng rng(11);
  for (const Shape s : kShapes) {
    const StencilOp op(s.w, s.h, 0.042, 2.03e-5, 0.0);
    const int n = op.size();
    for (int trial = 0; trial < 4; ++trial) {
      const auto x = random_vec(rng, n);
      std::vector<double> ax(static_cast<std::size_t>(n));
      op.apply(x, ax);
      // Energy is at least g_vert * ||x||^2 (every tile leaks to ambient).
      EXPECT_GT(dot(x, ax), 0.99 * 2.03e-5 * dot(x, x)) << s.w << "x" << s.h;
    }
  }
}

TEST(StencilOp, BlockedApplyMatchesNaiveBitwise) {
  util::Rng rng(23);
  for (const Shape s : kShapes) {
    for (double g_c : {0.0, 1.7e-3}) {
      const StencilOp op(s.w, s.h, 0.042, 2.03e-5, g_c);
      const int n = op.size();
      const auto x = random_vec(rng, n, -10.0, 10.0);
      std::vector<double> blocked(static_cast<std::size_t>(n)),
          naive(static_cast<std::size_t>(n));
      op.apply(x.data(), blocked.data());
      op.apply_naive(x.data(), naive.data());
      for (int i = 0; i < n; ++i) {
        ASSERT_EQ(blocked[static_cast<std::size_t>(i)], naive[static_cast<std::size_t>(i)])
            << s.w << "x" << s.h << " g_c=" << g_c << " tile " << i;
      }
    }
  }
}

TEST(StencilOp, FusedApplyDotMatchesApplyBitwiseAndDotNumerically) {
  util::Rng rng(31);
  for (const Shape s : kShapes) {
    const StencilOp op(s.w, s.h, 0.042, 2.03e-5, 0.0);
    const int n = op.size();
    const auto x = random_vec(rng, n, -5.0, 5.0);
    std::vector<double> y_plain(static_cast<std::size_t>(n)),
        y_fused(static_cast<std::size_t>(n));
    op.apply(x.data(), y_plain.data());
    const double acc = op.apply_dot(x.data(), y_fused.data());
    for (int i = 0; i < n; ++i) {
      ASSERT_EQ(y_plain[static_cast<std::size_t>(i)], y_fused[static_cast<std::size_t>(i)]);
    }
    const double ref = dot(x, y_plain);
    EXPECT_NEAR(acc, ref, 1e-12 * std::max(1.0, std::abs(ref)));
  }
}

TEST(StencilSolver, SsorPreconditionerIsSymmetricPositiveDefinite) {
  util::Rng rng(43);
  for (const Shape s : kShapes) {
    for (double g_c : {0.0, 0.02}) {
      const StencilOp op(s.w, s.h, 0.042, 2.03e-5, g_c);
      const StencilSolver solver(op, StencilPreconditioner::Ssor);
      EXPECT_GT(solver.omega(), 0.0);
      EXPECT_LT(solver.omega(), 2.0);
      const int n = op.size();
      const auto r1 = random_vec(rng, n);
      const auto r2 = random_vec(rng, n);
      std::vector<double> z1(static_cast<std::size_t>(n)), z2(static_cast<std::size_t>(n));
      solver.precondition(r1.data(), z1.data());
      solver.precondition(r2.data(), z2.data());
      // Symmetry: <r2, M^-1 r1> == <r1, M^-1 r2> (up to rounding; the
      // sweeps reassociate, so this is a tolerance check, not bitwise).
      const double a = dot(r2, z1), b = dot(r1, z2);
      EXPECT_NEAR(a, b, 1e-10 * std::max(1.0, std::abs(a))) << s.w << "x" << s.h;
      // Positive definiteness: <r, M^-1 r> > 0 for r != 0.
      EXPECT_GT(dot(r1, z1), 0.0);
    }
  }
}

TEST(StencilSolver, TunedOmegaApproachesOneUnderDiagonalDominance) {
  // A large C/dt shift makes the system diagonally dominant; plain
  // symmetric Gauss-Seidel is then near-exact and over-relaxation would
  // only slow it down.
  const StencilOp steady(64, 64, 0.042, 2.03e-5, 0.0);
  const StencilOp transient(64, 64, 0.042, 2.03e-5, 100.0);
  EXPECT_GT(StencilSolver::tuned_omega(steady), 1.5);
  EXPECT_NEAR(StencilSolver::tuned_omega(transient), 1.0, 1e-2);
  // Degenerate decoupled grid (no lateral conductance): nothing to relax.
  const StencilOp decoupled(16, 16, 0.0, 2.03e-5, 0.0);
  EXPECT_EQ(StencilSolver::tuned_omega(decoupled), 1.0);
}

TEST(StencilSolver, SsorTakesStrictlyFewerIterationsThanPlainCgOn64x64) {
  const int w = 64, h = 64, n = w * h;
  const StencilOp op(w, h, 0.042, 2.03e-5, 0.0);
  std::vector<double> b(static_cast<std::size_t>(n), 1e-5);
  b[static_cast<std::size_t>(32 * w + 32)] = 0.5;
  const double floor_rr = n * std::pow(2.03e-5 * 1e-11, 2.0);
  int iters[3] = {0, 0, 0};
  const StencilPreconditioner pcs[3] = {StencilPreconditioner::None,
                                        StencilPreconditioner::Jacobi,
                                        StencilPreconditioner::Ssor};
  for (int k = 0; k < 3; ++k) {
    const StencilSolver solver(op, pcs[k]);
    std::vector<double> x(static_cast<std::size_t>(n), 0.0);
    const auto info = solver.solve(b.data(), x.data(), 1e-20, floor_rr);
    iters[k] = info.iterations;
    EXPECT_GT(info.iterations, 0);
  }
  EXPECT_LT(iters[2], iters[0]) << "SSOR vs plain CG";
  // SSOR should not merely tie Jacobi either; it carries the smoothing.
  EXPECT_LT(iters[2], iters[1]) << "SSOR vs Jacobi";
}

TEST(StencilSolver, BatchedSolveIsBitIdenticalToSequentialSolves) {
  util::Rng rng(57);
  for (const Shape s : {Shape{5, 3}, Shape{17, 9}, Shape{32, 32}}) {
    const StencilOp op(s.w, s.h, 0.042, 2.03e-5, 0.0);
    const StencilSolver solver(op, StencilPreconditioner::Ssor);
    const int n = op.size();
    const int nrhs = 4;
    const double floor_rr = n * std::pow(2.03e-5 * 1e-11, 2.0);
    std::vector<double> b(static_cast<std::size_t>(nrhs * n));
    for (double& v : b) v = 1e-5 + 0.3 * rng.next_double();
    // Batched: all four systems in lockstep.
    std::vector<double> x_batch(static_cast<std::size_t>(nrhs * n), 0.0);
    const auto batch_info =
        solver.solve_batch(nrhs, b.data(), x_batch.data(), 1e-20, floor_rr);
    // Sequential: one at a time.
    for (int k = 0; k < nrhs; ++k) {
      std::vector<double> x(static_cast<std::size_t>(n), 0.0);
      const auto info =
          solver.solve(b.data() + static_cast<std::size_t>(k) * static_cast<std::size_t>(n),
                       x.data(), 1e-20, floor_rr);
      EXPECT_EQ(info.iterations, batch_info[static_cast<std::size_t>(k)].iterations)
          << s.w << "x" << s.h << " rhs " << k;
      EXPECT_EQ(info.rr, batch_info[static_cast<std::size_t>(k)].rr);
      for (int i = 0; i < n; ++i) {
        ASSERT_EQ(x[static_cast<std::size_t>(i)],
                  x_batch[static_cast<std::size_t>(k) * static_cast<std::size_t>(n) +
                          static_cast<std::size_t>(i)])
            << s.w << "x" << s.h << " rhs " << k << " tile " << i;
      }
    }
  }
}

TEST(StencilSolver, ThrowsOnNonFiniteRhs) {
  const StencilOp op(4, 4, 0.042, 2.03e-5, 0.0);
  const StencilSolver solver(op);
  std::vector<double> b(16, 1.0), x(16, 0.0);
  b[7] = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(solver.solve(b.data(), x.data(), 1e-20, 1e-30), std::invalid_argument);
}

TEST(StencilSolver, ThrowsOnCgBreakdownInsteadOfSilentNan) {
  // A zero operator (no lateral or vertical conductance) has no energy in
  // any direction: dot(p, Ap) == 0 and alpha would be a silent NaN. The
  // solver must refuse loudly — in release builds too.
  const StencilOp op(4, 4, 0.0, 0.0, 0.0);
  const StencilSolver solver(op, StencilPreconditioner::None);
  std::vector<double> b(16, 1.0), x(16, 0.0);
  EXPECT_THROW(solver.solve(b.data(), x.data(), 1e-20, 1e-30), std::runtime_error);
}

TEST(StencilSolver, SolveReachesTheRequestedFloor) {
  // The termination contract: the squared TRUE residual at exit is below
  // max(rr0 * rel_eps, abs_floor_rr). Verify against an independent
  // residual recomputation.
  const int w = 33, h = 12, n = w * h;
  const StencilOp op(w, h, 0.042, 2.03e-5, 0.0);
  const StencilSolver solver(op);
  std::vector<double> b(static_cast<std::size_t>(n), 1e-4);
  b[100] = 0.25;
  std::vector<double> x(static_cast<std::size_t>(n), 0.0);
  const double rr0 = dot(b, b);
  const double floor_rr = n * std::pow(2.03e-5 * 1e-11, 2.0);
  const auto info = solver.solve(b.data(), x.data(), 1e-20, floor_rr);
  std::vector<double> ax(static_cast<std::size_t>(n));
  op.apply(x.data(), ax.data());
  double rr = 0.0;
  for (int i = 0; i < n; ++i) {
    const double r = b[static_cast<std::size_t>(i)] - ax[static_cast<std::size_t>(i)];
    rr += r * r;
  }
  const double tol = std::max(rr0 * 1e-20, floor_rr);
  // The recurrence residual the solver terminates on meets tol exactly;
  // the independently recomputed one can sit slightly above it (classic
  // recurrence-vs-true drift), so allow a small factor.
  EXPECT_LE(info.rr, tol);
  EXPECT_LE(rr, 4.0 * tol);
}

}  // namespace
