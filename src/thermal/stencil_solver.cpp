#include "thermal/stencil_solver.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <string>

namespace taf::thermal {

namespace {

/// Dot product with four interleaved accumulators: the single-accumulator
/// form is latency-bound on one fused-multiply-add chain; four independent
/// chains keep the FMA pipes busy. The association is fixed (lane = i mod 4,
/// partials summed 0+1 + 2+3), so every caller — solo or batched — gets
/// bit-identical sums for the same operands.
double dot(const double* a, const double* b, int n) {
  double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
  int i = 0;
  for (; i + 4 <= n; i += 4) {
    const auto u = static_cast<std::size_t>(i);
    s0 += a[u] * b[u];
    s1 += a[u + 1] * b[u + 1];
    s2 += a[u + 2] * b[u + 2];
    s3 += a[u + 3] * b[u + 3];
  }
  for (; i < n; ++i) {
    const auto u = static_cast<std::size_t>(i);
    s0 += a[u] * b[u];
  }
  return (s0 + s1) + (s2 + s3);
}

/// Rows per cache block: keep the ~4 streams a fused CG traversal touches
/// (three x rows, one y row, plus the vectors the caller updates next)
/// within an L1-ish working set. Pure function of the width so the solo
/// and batched solvers partition identically (their dot-product partial
/// sums must associate the same way to stay bit-identical).
int row_block(int width) {
  constexpr int kTargetBytes = 32 * 1024;
  const int rows = kTargetBytes / (std::max(width, 1) * 8 * 4);
  return std::clamp(rows, 4, 64);
}

/// One row of y = (A + g_c I) x, specialized on the vertical-neighbour
/// pattern so the interior columns run branch-free (and vectorizable).
/// Term order is fixed — centre, left, right, up, down — and must match
/// StencilOp::apply_naive exactly: the property suite pins the two
/// traversals bit-for-bit. The fused dot-product partial is taken by a
/// separate pass over the just-written (cache-hot) row, so the store loop
/// carries no reduction chain.
template <bool kUp, bool kDn>
void row_kernel(const double* row, const double* up, const double* dn, double* out,
                int w, double gl, double d_edge, double d_int) {
  {
    double v = d_edge * row[0] - gl * row[1];
    if constexpr (kUp) v -= gl * up[0];
    if constexpr (kDn) v -= gl * dn[0];
    out[0] = v;
  }
  for (int i = 1; i < w - 1; ++i) {
    const auto s = static_cast<std::size_t>(i);
    double v = d_int * row[s] - gl * row[s - 1] - gl * row[s + 1];
    if constexpr (kUp) v -= gl * up[s];
    if constexpr (kDn) v -= gl * dn[s];
    out[s] = v;
  }
  {
    const auto s = static_cast<std::size_t>(w - 1);
    double v = d_edge * row[s] - gl * row[s - 1];
    if constexpr (kUp) v -= gl * up[s];
    if constexpr (kDn) v -= gl * dn[s];
    out[s] = v;
  }
}

}  // namespace

StencilOp::StencilOp(int width, int height, double g_lat, double g_vert, double g_c)
    : width_(width), height_(height), g_lat_(g_lat), g_base_(g_vert + g_c) {}

template <bool kFused>
double StencilOp::traverse(const double* x, double* y, int j0, int j1) const {
  const int w = width_, h = height_;
  const double gl = g_lat_;
  double acc = 0.0;
  if (w == 1) {
    // Degenerate single-column grid: a vertical chain, handled scalar.
    for (int j = j0; j < j1; ++j) {
      const auto s = static_cast<std::size_t>(j);
      double v = diag((j > 0 ? 1 : 0) + (j < h - 1 ? 1 : 0)) * x[s];
      if (j > 0) v -= gl * x[s - 1];
      if (j < h - 1) v -= gl * x[s + 1];
      y[s] = v;
      if constexpr (kFused) acc += x[s] * v;
    }
    return acc;
  }
  for (int j = j0; j < j1; ++j) {
    const double* row = x + static_cast<std::ptrdiff_t>(j) * w;
    double* out = y + static_cast<std::ptrdiff_t>(j) * w;
    const double* up = j > 0 ? row - w : nullptr;
    const double* dn = j < h - 1 ? row + w : nullptr;
    const int vdeg = (up != nullptr ? 1 : 0) + (dn != nullptr ? 1 : 0);
    const double d_edge = diag(1 + vdeg);
    const double d_int = diag(2 + vdeg);
    if (up != nullptr && dn != nullptr) {
      row_kernel<true, true>(row, up, dn, out, w, gl, d_edge, d_int);
    } else if (up != nullptr) {
      row_kernel<true, false>(row, up, dn, out, w, gl, d_edge, d_int);
    } else if (dn != nullptr) {
      row_kernel<false, true>(row, up, dn, out, w, gl, d_edge, d_int);
    } else {
      row_kernel<false, false>(row, up, dn, out, w, gl, d_edge, d_int);
    }
    if constexpr (kFused) acc += dot(row, out, w);
  }
  return acc;
}

void StencilOp::apply(const double* x, double* y) const {
  traverse<false>(x, y, 0, height_);
}

double StencilOp::apply_dot(const double* x, double* y) const {
  // Accumulate per row block and sum the partials, exactly as the
  // batched solver does, so solo and batched dot products associate
  // identically (bit-for-bit agreement between the two paths).
  const int rb = row_block(width_);
  double s = 0.0;
  for (int j0 = 0; j0 < height_; j0 += rb) {
    s += traverse<true>(x, y, j0, std::min(j0 + rb, height_));
  }
  return s;
}

double StencilOp::apply_dot_rows(const double* x, double* y, int j0, int j1) const {
  return traverse<true>(x, y, j0, j1);
}

int StencilOp::cache_row_block() const { return row_block(width_); }

void StencilOp::apply_naive(const double* x, double* y) const {
  const int w = width_, h = height_;
  const double gl = g_lat_;
  for (int j = 0; j < h; ++j) {
    for (int i = 0; i < w; ++i) {
      const auto idx = static_cast<std::size_t>(j) * static_cast<std::size_t>(w) +
                       static_cast<std::size_t>(i);
      const int degree = (i > 0 ? 1 : 0) + (i < w - 1 ? 1 : 0) + (j > 0 ? 1 : 0) +
                         (j < h - 1 ? 1 : 0);
      double v = diag(degree) * x[idx];
      if (i > 0) v -= gl * x[idx - 1];
      if (i < w - 1) v -= gl * x[idx + 1];
      if (j > 0) v -= gl * x[idx - static_cast<std::size_t>(w)];
      if (j < h - 1) v -= gl * x[idx + static_cast<std::size_t>(w)];
      y[idx] = v;
    }
  }
}

StencilSolver::StencilSolver(StencilOp op) : op_(op), omega_(tuned_omega(op)) {
  // Reciprocal diagonals per neighbour count: the sweeps multiply instead
  // of divide, which matters twice over — division is slow, and inside
  // the Gauss-Seidel recurrence its latency would sit on the loop-carried
  // dependency chain.
  for (int deg = 0; deg < 5; ++deg) inv_diag_[deg] = 1.0 / op_.diag(deg);
}

double StencilSolver::tuned_omega(const StencilOp& op) {
  const double gl = op.lateral_g();
  if (!(gl > 0.0)) return 1.0;
  const double s = static_cast<double>(std::max(op.width(), op.height()));
  const double grid_omega = 2.0 / (1.0 + 1.7 / std::sqrt(s));
  const double lateral_share = 4.0 * gl / (4.0 * gl + op.ground_g());
  return 1.0 + (grid_omega - 1.0) * lateral_share;
}

void StencilSolver::precondition(const double* r, double* z) const {
  const int w = op_.width(), h = op_.height();
  const double og = omega_ * op_.lateral_g();
  // SSOR(omega): M = (D + omega L) D^{-1} (D + omega U) up to a positive
  // scalar that PCG is invariant to. Forward sweep y = (D + omega L)^{-1} r,
  // then in-place backward sweep z = (D + omega U)^{-1} D y; the stencil
  // off-diagonals are -g_lat, hence the + signs. Each sweep runs as a
  // vectorizable pass (fold in the already-final vertical neighbour and
  // the reciprocal diagonal) followed by a horizontal recurrence whose
  // loop-carried chain is a single fused multiply-add per tile.
  if (w == 1) {
    // Single-column grid: one vertical recurrence each way.
    z[0] = r[0] * inv_diag_[h > 1 ? 1 : 0];
    for (int j = 1; j < h; ++j) {
      const auto idx = static_cast<std::size_t>(j);
      z[idx] = (r[idx] + og * z[idx - 1]) * inv_diag_[j < h - 1 ? 2 : 1];
    }
    for (int j = h - 2; j >= 0; --j) {
      const auto idx = static_cast<std::size_t>(j);
      z[idx] += og * inv_diag_[j > 0 ? 2 : 1] * z[idx + 1];
    }
    return;
  }
  for (int j = 0; j < h; ++j) {
    const int vdeg = (j > 0 ? 1 : 0) + (j < h - 1 ? 1 : 0);
    const double id_edge = inv_diag_[1 + vdeg];
    const double id_int = inv_diag_[2 + vdeg];
    const auto row = static_cast<std::size_t>(j) * static_cast<std::size_t>(w);
    const double* up = j > 0 ? z + row - static_cast<std::size_t>(w) : nullptr;
    if (up != nullptr) {
      z[row] = (r[row] + og * up[0]) * id_edge;
      for (int i = 1; i < w - 1; ++i) {
        const auto s = static_cast<std::size_t>(i);
        z[row + s] = (r[row + s] + og * up[s]) * id_int;
      }
      z[row + static_cast<std::size_t>(w - 1)] =
          (r[row + static_cast<std::size_t>(w - 1)] + og * up[static_cast<std::size_t>(w - 1)]) *
          id_edge;
    } else {
      z[row] = r[row] * id_edge;
      for (int i = 1; i < w - 1; ++i) {
        const auto s = static_cast<std::size_t>(i);
        z[row + s] = r[row + s] * id_int;
      }
      z[row + static_cast<std::size_t>(w - 1)] = r[row + static_cast<std::size_t>(w - 1)] * id_edge;
    }
    const double c_int = og * id_int;
    for (int i = 1; i < w - 1; ++i) {
      const auto s = static_cast<std::size_t>(i);
      z[row + s] += c_int * z[row + s - 1];
    }
    z[row + static_cast<std::size_t>(w - 1)] +=
        og * id_edge * z[row + static_cast<std::size_t>(w - 2)];
  }
  for (int j = h - 1; j >= 0; --j) {
    const int vdeg = (j > 0 ? 1 : 0) + (j < h - 1 ? 1 : 0);
    const double id_edge = inv_diag_[1 + vdeg];
    const double id_int = inv_diag_[2 + vdeg];
    const auto row = static_cast<std::size_t>(j) * static_cast<std::size_t>(w);
    const double* dn = j < h - 1 ? z + row + static_cast<std::size_t>(w) : nullptr;
    if (dn != nullptr) {
      z[row] += og * id_edge * dn[0];
      for (int i = 1; i < w - 1; ++i) {
        const auto s = static_cast<std::size_t>(i);
        z[row + s] += og * id_int * dn[s];
      }
      z[row + static_cast<std::size_t>(w - 1)] +=
          og * id_edge * dn[static_cast<std::size_t>(w - 1)];
    }
    const double c_int = og * id_int;
    for (int i = w - 2; i >= 1; --i) {
      const auto s = static_cast<std::size_t>(i);
      z[row + s] += c_int * z[row + s + 1];
    }
    z[row] += og * id_edge * z[row + 1];
  }
}

StencilSolveInfo StencilSolver::solve(const double* b, double* x, double rel_eps,
                                      double abs_floor_rr) const {
  return solve_batch(1, b, x, rel_eps, abs_floor_rr)[0];
}

std::vector<StencilSolveInfo> StencilSolver::solve_batch(int nrhs, const double* b,
                                                         double* x, double rel_eps,
                                                         double abs_floor_rr) const {
  if (!(op_.ground_g() > 0.0)) {
    // Without a positive conductance to ambient the operator is singular
    // (constant fields carry no energy); plain CG would break down on
    // dot(p, Ap) = 0, but the preconditioned directions never line up
    // with the nullspace exactly, so PCG would grind to the iteration cap
    // and return an unconverged field. Refuse up front instead.
    throw std::runtime_error(
        "thermal stencil solve: ground conductance " + std::to_string(op_.ground_g()) +
        " is not positive; the thermal system is singular (no path to ambient)");
  }
  const int n = op_.size();
  const auto un = static_cast<std::size_t>(n);
  const auto stride = [un](int k) { return static_cast<std::size_t>(k) * un; };

  std::vector<double> r(stride(nrhs)), p(stride(nrhs)), ap(stride(nrhs)),
      z(static_cast<std::size_t>(n));
  std::vector<double> rr(static_cast<std::size_t>(nrhs)),
      rz(static_cast<std::size_t>(nrhs)), tol(static_cast<std::size_t>(nrhs));
  std::vector<StencilSolveInfo> info(static_cast<std::size_t>(nrhs));
  std::vector<int> active;

  for (int k = 0; k < nrhs; ++k) {
    const auto uk = static_cast<std::size_t>(k);
    double* rk = r.data() + stride(k);
    // r = b - (A + g_c I) x. A cold start (x = 0) reproduces r = b
    // bitwise: the operator maps the zero vector to exact zeros.
    op_.apply(x + stride(k), rk);
    for (std::size_t i = 0; i < un; ++i) rk[i] = b[stride(k) + i] - rk[i];
    rr[uk] = dot(rk, rk, n);
    if (!std::isfinite(rr[uk])) {
      throw std::invalid_argument(
          "thermal stencil solve: non-finite right-hand side (power map)");
    }
    tol[uk] = std::max(rr[uk] * rel_eps, abs_floor_rr);
    info[uk].rr = rr[uk];
    if (rr[uk] > tol[uk]) {
      precondition(rk, z.data());
      double* pk = p.data() + stride(k);
      for (std::size_t i = 0; i < un; ++i) pk[i] = z[i];
      rz[uk] = dot(rk, pk, n);
      active.push_back(k);
    }
  }

  const int rb = op_.cache_row_block();
  const int max_iters = 4 * n;
  std::vector<double> pap;
  std::vector<int> still;
  while (!active.empty()) {
    // One blocked operator traversal serves every still-active system:
    // ap_k = (A + g_c I) p_k and pap_k accumulate block by block, the
    // partial sums associating exactly as StencilOp::apply_dot does for
    // a solo solve (bit-identical results either way).
    pap.assign(active.size(), 0.0);
    for (int j0 = 0; j0 < op_.height(); j0 += rb) {
      const int j1 = std::min(j0 + rb, op_.height());
      for (std::size_t a = 0; a < active.size(); ++a) {
        const int k = active[a];
        pap[a] += op_.apply_dot_rows(p.data() + stride(k), ap.data() + stride(k), j0, j1);
      }
    }
    still.clear();
    for (std::size_t a = 0; a < active.size(); ++a) {
      const int k = active[a];
      const auto uk = static_cast<std::size_t>(k);
      if (!(pap[a] > 0.0)) {
        // A search direction with non-positive energy would make alpha
        // NaN/inf and silently poison the temperature field; fail loudly
        // in release builds too (same contract as util::fit_exponential).
        throw std::runtime_error(
            "thermal stencil CG breakdown: dot(p, Ap) = " + std::to_string(pap[a]) +
            " is not positive (singular or non-SPD operator configuration)");
      }
      const double alpha = rz[uk] / pap[a];
      double* xk = x + stride(k);
      double* rk = r.data() + stride(k);
      const double* apk = ap.data() + stride(k);
      const double* pk = p.data() + stride(k);
      for (std::size_t i = 0; i < un; ++i) {
        xk[i] += alpha * pk[i];
        rk[i] -= alpha * apk[i];
      }
      const double rr_new = dot(rk, rk, n);
      rr[uk] = rr_new;
      ++info[uk].iterations;
      info[uk].rr = rr_new;
      if (rr_new <= tol[uk] || info[uk].iterations >= max_iters) continue;
      precondition(rk, z.data());
      const double rz_new = dot(rk, z.data(), n);
      if (!(rz_new > 0.0)) {
        throw std::runtime_error(
            "thermal stencil CG breakdown: preconditioned residual energy " +
            std::to_string(rz_new) + " is not positive");
      }
      const double beta = rz_new / rz[uk];
      rz[uk] = rz_new;
      double* pk_mut = p.data() + stride(k);
      for (std::size_t i = 0; i < un; ++i) pk_mut[i] = z[i] + beta * pk_mut[i];
      still.push_back(k);
    }
    // Compact in place; relative order is preserved so the traversal
    // visits systems deterministically.
    active = std::move(still);
  }
  return info;
}

}  // namespace taf::thermal
