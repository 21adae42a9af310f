// Cross-module property tests: determinism of the full flow, scaling
// invariants, and physical sanity checks that span several layers.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "core/flow.hpp"
#include "spice/linear.hpp"
#include "spice/sparse.hpp"
#include "util/rng.hpp"

namespace {

using namespace taf;

netlist::BenchmarkSpec spec_named(const char* name, double scale) {
  for (const auto& s : netlist::vtr_suite()) {
    if (s.name == name) return netlist::scaled(s, scale);
  }
  ADD_FAILURE() << "unknown benchmark " << name;
  return {};
}

TEST(Property, FullFlowIsDeterministic) {
  const auto spec = spec_named("mkSMAdapter4B", 1.0 / 16);
  const auto a = core::implement(spec, arch::scaled_arch());
  const auto b = core::implement(spec, arch::scaled_arch());
  ASSERT_EQ(a->placement.pos.size(), b->placement.pos.size());
  for (std::size_t i = 0; i < a->placement.pos.size(); ++i) {
    EXPECT_EQ(a->placement.pos[i], b->placement.pos[i]);
  }
  ASSERT_EQ(a->routes.routes.size(), b->routes.routes.size());
  for (std::size_t i = 0; i < a->routes.routes.size(); ++i) {
    EXPECT_EQ(a->routes.routes[i].nodes, b->routes.routes[i].nodes);
  }
}

TEST(Property, SeedChangesPlacementButNotLegality) {
  const auto spec = spec_named("raygentop", 1.0 / 16);
  core::ImplementOptions o1, o2;
  o1.seed = 1;
  o2.seed = 2;
  const auto a = core::implement(spec, arch::scaled_arch(), o1);
  const auto b = core::implement(spec, arch::scaled_arch(), o2);
  EXPECT_TRUE(a->routes.success);
  EXPECT_TRUE(b->routes.success);
  // The seed also seeds the netlist generator, so the two designs may
  // pack into different block counts; positions are compared over the
  // blocks both have, and at least one of those must have moved.
  const std::size_t n =
      std::min(a->placement.pos.size(), b->placement.pos.size());
  std::size_t moved = 0;
  for (std::size_t i = 0; i < n; ++i) {
    moved += !(a->placement.pos[i] == b->placement.pos[i]);
  }
  EXPECT_GT(moved, 0u);
}

TEST(Property, GainDependsOnlyWeaklyOnSeed) {
  // The headline metric must be a property of the circuit, not of the
  // annealing seed: gains across seeds stay within a few points.
  const auto spec = spec_named("sha", 1.0 / 16);
  const coffe::Characterizer ch(tech::ptm22(), arch::scaled_arch());
  const auto dev = ch.characterize(units::Celsius(25.0));
  util::Accumulator gains;
  for (unsigned seed : {1u, 7u, 23u}) {
    core::ImplementOptions io;
    io.seed = seed;
    const auto impl = core::implement(spec, arch::scaled_arch(), io);
    core::GuardbandOptions go;
    go.t_amb_c = units::Celsius(25.0);
    gains.add(core::guardband(*impl, dev, go).gain());
  }
  EXPECT_LT(gains.max() - gains.min(), 0.05);
}

TEST(Property, CriticalPathDelaysScaleWithFits) {
  // Uniform-temperature STA at T must sit between STA at T-10 and T+10.
  const auto spec = spec_named("diffeq1", 1.0 / 4);
  const auto impl = core::implement(spec, arch::scaled_arch());
  const coffe::Characterizer ch(tech::ptm22(), arch::scaled_arch());
  const auto dev = ch.characterize(units::Celsius(25.0));
  double prev = 0.0;
  for (double t = 0.0; t <= 100.0; t += 10.0) {
    const double cp = impl->sta->analyze_uniform(dev, units::Celsius(t)).critical_path_ps.value();
    EXPECT_GT(cp, prev);
    prev = cp;
  }
}

TEST(Property, WireUtilizationGrowsWithSize) {
  const auto small = core::implement(spec_named("stereovision3", 1.0 / 16),
                                     arch::scaled_arch());
  const auto big = core::implement(spec_named("sha", 1.0 / 16), arch::scaled_arch());
  EXPECT_GT(big->routes.wire_utilization, 0.0);
  EXPECT_GT(big->rr.num_wires(), 0);
  // Bigger designs on fitted grids still keep utilization sane (< 60%).
  EXPECT_LT(big->routes.wire_utilization, 0.6);
  EXPECT_LT(small->routes.wire_utilization, 0.6);
}

TEST(Property, GuardbandGainShrinksMonotonicallyWithAmbient) {
  const auto impl = core::implement(spec_named("or1200", 1.0 / 16), arch::scaled_arch());
  const coffe::Characterizer ch(tech::ptm22(), arch::scaled_arch());
  const auto dev = ch.characterize(units::Celsius(25.0));
  double prev_gain = 1e9;
  for (double amb : {0.0, 25.0, 50.0, 70.0, 90.0}) {
    core::GuardbandOptions opt;
    opt.t_amb_c = units::Celsius(amb);
    const double g = core::guardband(*impl, dev, opt).gain();
    EXPECT_LT(g, prev_gain) << "ambient " << amb;
    EXPECT_GE(g, -1e-9);
    prev_gain = g;
  }
}

// --- Sparse vs dense linear solver equivalence -----------------------------

/// Random entry list + values; returns (pattern, dense row-major matrix).
/// Every row gets a diagonal entry; `dominant` makes the matrix strictly
/// diagonally dominant (well-conditioned by construction).
std::pair<spice::SparsityPattern, std::vector<double>> random_system(
    util::Rng& rng, int n, double density, bool dominant) {
  spice::SparsityPattern pattern;
  std::vector<double> dense(static_cast<std::size_t>(n) * n, 0.0);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      if (i != j && rng.next_double() >= density) continue;
      pattern.emplace_back(i, j);
      if (i != j) dense[static_cast<std::size_t>(i) * n + j] = rng.uniform(-1.0, 1.0);
    }
  }
  for (int i = 0; i < n; ++i) {
    double off = 0.0;
    for (int j = 0; j < n; ++j)
      if (j != i) off += std::fabs(dense[static_cast<std::size_t>(i) * n + j]);
    dense[static_cast<std::size_t>(i) * n + i] =
        dominant ? off + rng.uniform(0.5, 2.0) : rng.uniform(-1.0, 1.0);
  }
  return {std::move(pattern), std::move(dense)};
}

spice::CsrMatrix to_csr(int n, const spice::SparsityPattern& pattern,
                        const std::vector<double>& dense) {
  spice::CsrMatrix csr = spice::CsrMatrix::from_entries(n, pattern);
  for (int i = 0; i < n; ++i)
    for (int k = csr.row_ptr[static_cast<std::size_t>(i)];
         k < csr.row_ptr[static_cast<std::size_t>(i) + 1]; ++k)
      csr.val[static_cast<std::size_t>(k)] =
          dense[static_cast<std::size_t>(i) * n + csr.col[static_cast<std::size_t>(k)]];
  return csr;
}

TEST(Property, SparseLuMatchesDenseOnRandomDominantSystems) {
  util::Rng rng(0xd1a60u);  // fixed seed: reproducible sequence
  for (int trial = 0; trial < 50; ++trial) {
    const int n = 2 + static_cast<int>(rng.next_below(39));
    const double density = rng.uniform(0.05, 0.5);
    const auto [pattern, dense] = random_system(rng, n, density, /*dominant=*/true);
    const spice::CsrMatrix csr = to_csr(n, pattern, dense);

    std::vector<double> b(static_cast<std::size_t>(n));
    for (double& x : b) x = rng.uniform(-2.0, 2.0);

    std::vector<double> a_copy = dense;
    std::vector<double> x_dense = b;
    spice::dense_lu_solve(a_copy, x_dense, n);
    const std::vector<double> x_sparse = spice::sparse_lu_solve(csr, b);

    for (int i = 0; i < n; ++i)
      ASSERT_NEAR(x_dense[static_cast<std::size_t>(i)], x_sparse[static_cast<std::size_t>(i)], 1e-9)
          << "trial " << trial << " n=" << n << " i=" << i;

    // Both must actually solve the system, not merely agree.
    std::vector<double> ax;
    csr.multiply(x_sparse, ax);
    for (int i = 0; i < n; ++i)
      ASSERT_NEAR(ax[static_cast<std::size_t>(i)], b[static_cast<std::size_t>(i)], 1e-8);
  }
}

TEST(Property, SparseLuMatchesDenseThroughRegularizedPivots) {
  // Structurally decoupled rows with vanishing diagonals hit the
  // near-zero-pivot branch: both backends nudge the pivot by the same
  // +/-kPivotNudge, so even the regularized (non-)solutions must agree.
  util::Rng rng(0x5e6u);
  for (int trial = 0; trial < 20; ++trial) {
    const int n = 3 + static_cast<int>(rng.next_below(10));
    spice::SparsityPattern pattern;
    std::vector<double> dense(static_cast<std::size_t>(n) * n, 0.0);
    for (int i = 0; i < n; ++i) {
      pattern.emplace_back(i, i);
      const int kind = static_cast<int>(rng.next_below(3));
      double d = rng.uniform(0.5, 2.0);        // healthy
      if (kind == 1) d = 0.0;                  // exactly singular row
      if (kind == 2) d = rng.uniform(-1.0, 1.0) * 1e-13;  // below kPivotFloor
      dense[static_cast<std::size_t>(i) * n + i] = d;
    }
    const spice::CsrMatrix csr = to_csr(n, pattern, dense);

    std::vector<double> b(static_cast<std::size_t>(n));
    for (double& x : b) x = rng.uniform(-1.0, 1.0);

    std::vector<double> a_copy = dense;
    std::vector<double> x_dense = b;
    spice::dense_lu_solve(a_copy, x_dense, n);
    const std::vector<double> x_sparse = spice::sparse_lu_solve(csr, b);

    for (int i = 0; i < n; ++i) {
      const double xd = x_dense[static_cast<std::size_t>(i)];
      const double xs = x_sparse[static_cast<std::size_t>(i)];
      // Regularized components are ~b/1e-9; compare relatively there.
      ASSERT_NEAR(xd, xs, 1e-9 * std::max(1.0, std::fabs(xd)))
          << "trial " << trial << " i=" << i;
    }
  }
}

TEST(Property, SparseBackendReusesOneSymbolicAnalysis) {
  // The static-pattern contract: one analyze() per system, numeric
  // refactors for every subsequent solve.
  util::Rng rng(0xabcdu);
  const int n = 12;
  const auto [pattern, dense] = random_system(rng, n, 0.3, /*dominant=*/true);
  const auto before = spice::thread_counters();
  spice::SparseSystem sys(n, pattern);
  for (int round = 0; round < 5; ++round) {
    sys.begin();
    for (const auto& [i, j] : pattern)
      sys.add(i, j, dense[static_cast<std::size_t>(i) * n + j]);
    for (int i = 0; i < n; ++i)
      sys.add(i, i, 0.5 + round);  // values change, pattern does not
    std::vector<double> rhs(static_cast<std::size_t>(n), 1.0);
    sys.factor_solve(rhs);
  }
  const auto delta = spice::thread_counters() - before;
  EXPECT_EQ(delta.symbolic_analyses, 1u);
  EXPECT_EQ(delta.factorizations, 5u);
  EXPECT_EQ(delta.pattern_reuses, 4u);
}

TEST(Property, HotterDeviceLeaksMoreEverywhere) {
  const coffe::Characterizer ch(tech::ptm22(), arch::scaled_arch());
  const auto dev = ch.characterize(units::Celsius(25.0));
  for (coffe::ResourceKind k : coffe::all_resource_kinds()) {
    double prev = 0.0;
    for (double t = 0.0; t <= 100.0; t += 20.0) {
      const double lkg = dev.leakage(k, units::Celsius(t)).value();
      EXPECT_GT(lkg, prev) << coffe::resource_name(k) << " at " << t;
      prev = lkg;
    }
  }
}

}  // namespace
