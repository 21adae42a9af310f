#include "spice/solver.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

#include "spice/linear.hpp"
#include "spice/mosfet_model.hpp"
#include "spice/sparse.hpp"

namespace taf::spice {

namespace {

/// Maps circuit nodes to unknown indices (driven nodes and ground excluded).
struct NodeMap {
  std::vector<int> unknown_index;  ///< -1 for driven/ground nodes
  std::vector<NodeId> unknown_nodes;

  explicit NodeMap(const Circuit& c) {
    unknown_index.assign(static_cast<size_t>(c.num_nodes()), -1);
    for (NodeId n = 0; n < c.num_nodes(); ++n) {
      if (!c.is_driven(n)) {
        unknown_index[static_cast<size_t>(n)] = static_cast<int>(unknown_nodes.size());
        unknown_nodes.push_back(n);
      }
    }
  }
  int count() const { return static_cast<int>(unknown_nodes.size()); }
  int idx(NodeId node) const { return unknown_index[static_cast<size_t>(node)]; }
};

/// Jacobian sparsity of the MNA system: fixed by the netlist, independent
/// of voltages, so it is collected once per solve and handed to the
/// linear system (SparseSystem computes its symbolic factorization from
/// it exactly once). The capacitor entries are always included: the
/// DC pattern is a subset and extra structural zeros are harmless.
SparsityPattern mna_pattern(const Circuit& c, const NodeMap& map) {
  SparsityPattern p;
  auto couple = [&](NodeId a, NodeId b) {
    const int ia = map.idx(a), ib = map.idx(b);
    if (ia >= 0) p.emplace_back(ia, ia);
    if (ib >= 0) p.emplace_back(ib, ib);
    if (ia >= 0 && ib >= 0) {
      p.emplace_back(ia, ib);
      p.emplace_back(ib, ia);
    }
  };
  for (int i = 0; i < map.count(); ++i) p.emplace_back(i, i);  // gmin
  for (const Resistor& r : c.resistors()) couple(r.a, r.b);
  for (const Capacitor& cap : c.capacitors()) couple(cap.a, cap.b);
  for (const Mosfet& m : c.mosfets()) {
    const int idr = map.idx(m.drain), igt = map.idx(m.gate), isr = map.idx(m.source);
    for (const int row : {idr, isr}) {
      if (row < 0) continue;
      p.emplace_back(row, row);
      for (const int col : {idr, igt, isr})
        if (col >= 0) p.emplace_back(row, col);
    }
    if (igt >= 0) p.emplace_back(igt, igt);  // intrinsic gate cap to ground
  }
  return p;
}

/// Row-major dense MNA system with the SparseSystem interface: the
/// second instantiation of the solver internals below, reached only
/// through solve_transient_dense_oracle().
class DenseSystem {
 public:
  DenseSystem(int n, const SparsityPattern& /*pattern*/)
      : n_(n), a_(static_cast<size_t>(n) * static_cast<size_t>(n)) {}

  void begin() { std::fill(a_.begin(), a_.end(), 0.0); }
  void add(int i, int j, double v) { a_[static_cast<size_t>(i) * n_ + j] += v; }
  void factor_solve(std::vector<double>& rhs) {
    work_ = a_;
    dense_lu_solve(work_, rhs, n_);
    ++thread_counters().factorizations;
  }

 private:
  int n_;
  std::vector<double> a_;
  std::vector<double> work_;
};

/// Everything reusable across the Newton iterations and timesteps of one
/// solve: the node map, the per-device temperature-dependent model terms,
/// the companion capacitances, and the linear system with its symbolic
/// analysis. Sys is SparseSystem in production, DenseSystem for the
/// dense reference.
template <class Sys>
struct SolveContext {
  NodeMap map;
  std::vector<MosfetTherm> therms;  ///< per mosfet, at opt.temp_c
  std::vector<double> cg_ff;        ///< per mosfet intrinsic gate cap
  std::vector<double> cd_ff;        ///< per mosfet junction cap
  Sys sys;
  std::vector<double> rhs;

  SolveContext(const Circuit& c, const tech::Technology& tech, const SolverOptions& opt)
      : map(c), sys(map.count(), mna_pattern(c, map)) {
    therms.reserve(c.mosfets().size());
    cg_ff.reserve(c.mosfets().size());
    cd_ff.reserve(c.mosfets().size());
    for (const Mosfet& m : c.mosfets()) {
      therms.push_back(mosfet_therm(m, tech, opt.temp_c.value()));
      cg_ff.push_back(mosfet_cgate_ff(m, tech));
      cd_ff.push_back(mosfet_cdrain_ff(m, tech));
    }
    rhs.assign(static_cast<size_t>(map.count()), 0.0);
  }
};

/// One Newton solve of the (possibly companion-augmented) nonlinear system.
/// `v` holds all node voltages and is updated in place for unknown nodes;
/// driven node entries must be pre-set by the caller.
///
/// cap_g_scale: backward-Euler companion conductance scale 1/dt [1/ps];
/// with_caps=false means a pure DC solve (capacitors open).
template <class Sys>
void newton_solve(SolveContext<Sys>& ctx, const Circuit& c, const SolverOptions& opt,
                  std::vector<double>& v, bool with_caps, double cap_g_scale,
                  const std::vector<double>& v_prev) {
  const int n = ctx.map.count();
  if (n == 0) return;
  Sys& sys = ctx.sys;
  std::vector<double>& rhs = ctx.rhs;

  for (int iter = 0; iter < opt.max_newton_iters; ++iter) {
    sys.begin();
    std::fill(rhs.begin(), rhs.end(), 0.0);

    auto idx = [&](NodeId node) { return ctx.map.idx(node); };
    // Stamp conductance g between nodes x and y with current source
    // contributions handled by the residual formulation below. We build
    // J * dv = -f directly: accumulate f (KCL residual, current leaving
    // node) in rhs with a negative sign, and df/dv in the system matrix.
    auto stamp_g = [&](NodeId x, NodeId y, double g) {
      const int ix = idx(x), iy = idx(y);
      const double ivx = v[static_cast<size_t>(x)], ivy = v[static_cast<size_t>(y)];
      const double i_leaving_x = g * (ivx - ivy);
      if (ix >= 0) {
        rhs[static_cast<size_t>(ix)] -= i_leaving_x;
        sys.add(ix, ix, g);
        if (iy >= 0) sys.add(ix, iy, -g);
      }
      if (iy >= 0) {
        rhs[static_cast<size_t>(iy)] += i_leaving_x;
        sys.add(iy, iy, g);
        if (ix >= 0) sys.add(iy, ix, -g);
      }
    };
    auto stamp_current_into = [&](NodeId x, double i_in) {
      const int ix = idx(x);
      if (ix >= 0) rhs[static_cast<size_t>(ix)] += i_in;
    };

    // gmin to ground on every unknown node for convergence.
    for (NodeId node : ctx.map.unknown_nodes) stamp_g(node, kGround, opt.gmin);

    for (const Resistor& r : c.resistors()) stamp_g(r.a, r.b, 1.0 / r.kohm);

    if (with_caps) {
      // Backward Euler companion: i = C/dt * (v - v_prev); conductance
      // C/dt between the nodes plus history current source.
      for (const Capacitor& cap : c.capacitors()) {
        const double g = cap.ff * cap_g_scale;
        stamp_g(cap.a, cap.b, g);
        const double hist = g * (v_prev[static_cast<size_t>(cap.a)] - v_prev[static_cast<size_t>(cap.b)]);
        stamp_current_into(cap.a, hist);
        stamp_current_into(cap.b, -hist);
      }
      // MOSFET intrinsic caps: gate and drain/source junction caps to ground.
      for (std::size_t mi = 0; mi < c.mosfets().size(); ++mi) {
        const Mosfet& m = c.mosfets()[mi];
        const double cg = ctx.cg_ff[mi] * cap_g_scale;
        const double cd = ctx.cd_ff[mi] * cap_g_scale;
        auto self_cap = [&](NodeId node, double g) {
          stamp_g(node, kGround, g);
          stamp_current_into(node, g * v_prev[static_cast<size_t>(node)]);
        };
        self_cap(m.gate, cg);
        self_cap(m.drain, cd);
        self_cap(m.source, cd);
      }
    }

    // MOSFETs: nonlinear current source drain->source plus analytic
    // Jacobian from a single model evaluation.
    for (std::size_t mi = 0; mi < c.mosfets().size(); ++mi) {
      const Mosfet& m = c.mosfets()[mi];
      const MosfetOp op = mosfet_eval(ctx.therms[mi], v[static_cast<size_t>(m.drain)],
                                      v[static_cast<size_t>(m.gate)],
                                      v[static_cast<size_t>(m.source)]);
      const int idr = idx(m.drain), isr = idx(m.source), igt = idx(m.gate);
      // Current `id` leaves the drain node and enters the source node.
      if (idr >= 0) {
        rhs[static_cast<size_t>(idr)] -= op.id_ma;
        sys.add(idr, idr, op.did_dvd);
        if (igt >= 0) sys.add(idr, igt, op.did_dvg);
        if (isr >= 0) sys.add(idr, isr, op.did_dvs);
      }
      if (isr >= 0) {
        rhs[static_cast<size_t>(isr)] += op.id_ma;
        sys.add(isr, isr, -op.did_dvs);
        if (igt >= 0) sys.add(isr, igt, -op.did_dvg);
        if (idr >= 0) sys.add(isr, idr, -op.did_dvd);
      }
    }

    sys.factor_solve(rhs);
    ++thread_counters().newton_iterations;

    double max_dv = 0.0;
    for (int i = 0; i < n; ++i) {
      double step = rhs[static_cast<size_t>(i)];
      step = std::clamp(step, -0.3, 0.3);  // damped Newton
      v[static_cast<size_t>(ctx.map.unknown_nodes[static_cast<size_t>(i)])] += step;
      max_dv = std::max(max_dv, std::fabs(step));
    }
    if (max_dv < opt.v_tol) return;
  }
  throw std::runtime_error("spice: Newton iteration did not converge");
}

/// Nonlinear Gauss-Seidel relaxation: solve each node's KCL alone by
/// bisection with the other nodes frozen. Logic levels propagate down
/// gate chains in one pass per stage, giving Newton an initial point near
/// the operating point instead of the degenerate all-mid-rail bias.
template <class Sys>
void gauss_seidel_init(const Circuit& c, const SolveContext<Sys>& ctx,
                       const SolverOptions& opt, double vdd, std::vector<double>& v) {
  const double v_lo = -0.2;
  const double v_hi = vdd + 0.4;

  auto kcl = [&](NodeId node, double vn) {
    const double saved = v[static_cast<size_t>(node)];
    v[static_cast<size_t>(node)] = vn;
    double i_leaving = opt.gmin * vn;
    for (const Resistor& r : c.resistors()) {
      if (r.a == node) i_leaving += (vn - v[static_cast<size_t>(r.b)]) / r.kohm;
      if (r.b == node) i_leaving += (vn - v[static_cast<size_t>(r.a)]) / r.kohm;
    }
    for (std::size_t mi = 0; mi < c.mosfets().size(); ++mi) {
      const Mosfet& m = c.mosfets()[mi];
      if (m.drain != node && m.source != node) continue;
      const double id = mosfet_eval(ctx.therms[mi], v[static_cast<size_t>(m.drain)],
                                    v[static_cast<size_t>(m.gate)],
                                    v[static_cast<size_t>(m.source)])
                            .id_ma;
      if (m.drain == node) i_leaving += id;
      if (m.source == node) i_leaving -= id;
    }
    v[static_cast<size_t>(node)] = saved;
    return i_leaving;
  };

  const int passes = std::min(ctx.map.count() + 2, 60);
  for (int pass = 0; pass < passes; ++pass) {
    double max_change = 0.0;
    for (NodeId node : ctx.map.unknown_nodes) {
      // KCL is monotonically increasing in the node voltage (gmin plus
      // device output conductances), so bisection is safe.
      double lo = v_lo, hi = v_hi;
      if (kcl(node, lo) > 0.0 || kcl(node, hi) < 0.0) continue;  // no bracket
      for (int it = 0; it < 40; ++it) {
        const double mid = 0.5 * (lo + hi);
        (kcl(node, mid) > 0.0 ? hi : lo) = mid;
      }
      const double vn = 0.5 * (lo + hi);
      max_change = std::max(max_change, std::fabs(vn - v[static_cast<size_t>(node)]));
      v[static_cast<size_t>(node)] = vn;
    }
    if (max_change < 1e-4) break;
  }
}

/// DC operating point into an existing context (shared with the transient
/// entry so the symbolic factorization is computed once per circuit).
template <class Sys>
std::vector<double> solve_dc_with(SolveContext<Sys>& ctx, const Circuit& c,
                                  const tech::Technology& tech,
                                  const SolverOptions& opt) {
  std::vector<double> v(static_cast<size_t>(c.num_nodes()), 0.0);
  for (NodeId node = 0; node < c.num_nodes(); ++node) {
    if (c.is_driven(node)) v[static_cast<size_t>(node)] = c.drives()[static_cast<size_t>(node)](0.0);
  }
  // Start unknown nodes at half supply, relax toward logic levels, then
  // polish with full Newton.
  for (NodeId node : ctx.map.unknown_nodes) v[static_cast<size_t>(node)] = 0.5 * tech.vdd;
  gauss_seidel_init(c, ctx, opt, tech.vdd, v);
  std::vector<double> dummy;
  newton_solve(ctx, c, opt, v, /*with_caps=*/false, 0.0, dummy);
  return v;
}

template <class Sys>
TransientResult solve_transient_with(const Circuit& c, const tech::Technology& tech,
                                     const SolverOptions& opt, double t_stop_ps) {
  assert(opt.dt_ps > 0.0);
  SolveContext<Sys> ctx(c, tech, opt);
  std::vector<double> v = solve_dc_with(ctx, c, tech, opt);

  TransientResult result;
  const auto n_nodes = static_cast<size_t>(c.num_nodes());
  result.waveforms.assign(n_nodes, {});

  const double cap_g_scale = 1.0 / opt.dt_ps;  // fF/ps = mA/V
  std::vector<double> v_prev(n_nodes);
  double t = 0.0;
  while (t <= t_stop_ps + 1e-9) {
    result.time_ps.push_back(t);
    for (size_t i = 0; i < n_nodes; ++i) result.waveforms[i].push_back(v[i]);

    const double t_next = t + opt.dt_ps;
    v_prev = v;
    for (NodeId node = 0; node < c.num_nodes(); ++node) {
      if (c.is_driven(node))
        v[static_cast<size_t>(node)] = c.drives()[static_cast<size_t>(node)](t_next);
    }
    newton_solve(ctx, c, opt, v, /*with_caps=*/true, cap_g_scale, v_prev);
    t = t_next;
  }
  return result;
}

}  // namespace

std::vector<double> solve_dc(const Circuit& c, const tech::Technology& tech,
                             const SolverOptions& opt) {
  SolveContext<SparseSystem> ctx(c, tech, opt);
  return solve_dc_with(ctx, c, tech, opt);
}

TransientResult solve_transient(const Circuit& c, const tech::Technology& tech,
                                const SolverOptions& opt, double t_stop_ps) {
  return solve_transient_with<SparseSystem>(c, tech, opt, t_stop_ps);
}

TransientResult solve_transient_dense_oracle(const Circuit& c,
                                             const tech::Technology& tech,
                                             const SolverOptions& opt, double t_stop_ps) {
  return solve_transient_with<DenseSystem>(c, tech, opt, t_stop_ps);
}

double crossing_time_ps(const TransientResult& r, NodeId node, double threshold,
                        bool rising, double t_from_ps) {
  const auto& w = r.waveforms[static_cast<size_t>(node)];
  for (std::size_t i = 1; i < w.size(); ++i) {
    if (r.time_ps[i] < t_from_ps) continue;
    const double v0 = w[i - 1];
    const double v1 = w[i];
    const bool crossed = rising ? (v0 < threshold && v1 >= threshold)
                                : (v0 > threshold && v1 <= threshold);
    if (crossed) {
      const double frac = (threshold - v0) / (v1 - v0);
      return r.time_ps[i - 1] + frac * (r.time_ps[i] - r.time_ps[i - 1]);
    }
  }
  return -1.0;
}

double propagation_delay_ps(const TransientResult& r, NodeId in, NodeId out, double vdd,
                            bool in_rising, bool out_rising, double t_from_ps) {
  const double t_in = crossing_time_ps(r, in, 0.5 * vdd, in_rising, t_from_ps);
  if (t_in < 0.0) return -1.0;
  const double t_out = crossing_time_ps(r, out, 0.5 * vdd, out_rising, t_in);
  if (t_out < 0.0) return -1.0;
  return t_out - t_in;
}

}  // namespace taf::spice
