// Differential tests for the incremental Algorithm 1 engine: for every
// registered benchmark and both ambient corners the paper sweeps,
// IncrementalMode::Exact (incremental STA session + warm-started thermal
// CG) must reproduce the IncrementalMode::Off full-recompute oracle —
// identical iteration counts, bitwise-equal baseline, fmax within
// 1e-9 MHz and tile temperatures within 1e-9 degC. Plus the metamorphic
// zero-power check (one iteration, zero incremental work) and the
// non-convergence flag/counter satellite.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <tuple>
#include <vector>

#include "core/flow.hpp"

namespace {

using namespace taf;

const arch::ArchParams& test_arch() {
  static const arch::ArchParams a = arch::scaled_arch();
  return a;
}

const coffe::DeviceModel& device() {
  static const coffe::DeviceModel dev =
      coffe::Characterizer(tech::ptm22(), test_arch()).characterize(units::Celsius(25.0));
  return dev;
}

const std::vector<netlist::BenchmarkSpec>& suite() {
  static const std::vector<netlist::BenchmarkSpec> s = netlist::vtr_suite();
  return s;
}

core::GuardbandOptions base_options(double t_amb_c, core::IncrementalMode mode) {
  core::GuardbandOptions opt;
  opt.t_amb_c = units::Celsius(t_amb_c);
  opt.delta_t_c = units::Kelvin(0.2);  // stricter than default so the loop actually iterates
  opt.incremental = mode;
  return opt;
}

void expect_equivalent(const core::GuardbandResult& full,
                       const core::GuardbandResult& inc, const char* label) {
  SCOPED_TRACE(label);
  EXPECT_EQ(full.iterations, inc.iterations);
  EXPECT_EQ(full.converged, inc.converged);
  // The baseline corner never goes through the incremental session.
  EXPECT_DOUBLE_EQ(full.baseline_fmax_mhz.value(), inc.baseline_fmax_mhz.value());
  EXPECT_NEAR(full.fmax_mhz.value(), inc.fmax_mhz.value(), 1e-9);
  EXPECT_NEAR(full.timing.critical_path_ps.value(), inc.timing.critical_path_ps.value(), 1e-9);
  ASSERT_EQ(full.tile_temp_c.size(), inc.tile_temp_c.size());
  for (std::size_t i = 0; i < full.tile_temp_c.size(); ++i) {
    ASSERT_NEAR(full.tile_temp_c[i], inc.tile_temp_c[i], 1e-9)
        << "tile " << i;
  }
  EXPECT_NEAR(full.peak_temp_c.value(), inc.peak_temp_c.value(), 1e-9);
  EXPECT_NEAR(full.mean_temp_c.value(), inc.mean_temp_c.value(), 1e-9);
  // Power feels the (tolerance-bounded) temperature difference only
  // through leakage; agreement is far tighter than physical relevance.
  EXPECT_NEAR(full.power.dynamic_w.value(), inc.power.dynamic_w.value(),
              1e-8 * std::max(1.0, full.power.dynamic_w.value()));
  EXPECT_NEAR(full.power.leakage_w.value(), inc.power.leakage_w.value(),
              1e-8 * std::max(1.0, full.power.leakage_w.value()));
}

class IncrementalDifferential : public ::testing::TestWithParam<int> {};

TEST_P(IncrementalDifferential, ExactMatchesFullRecomputeAtBothAmbients) {
  const netlist::BenchmarkSpec spec =
      netlist::scaled(suite()[static_cast<std::size_t>(GetParam())], 1.0 / 16);
  const auto impl = core::implement(spec, test_arch());
  for (double t_amb : {25.0, 70.0}) {
    const auto full =
        core::guardband(*impl, device(), base_options(t_amb, core::IncrementalMode::Off));
    const auto inc = core::guardband(*impl, device(),
                                     base_options(t_amb, core::IncrementalMode::Exact));
    const std::string label = spec.name + " @ " + std::to_string(t_amb) + "C";
    expect_equivalent(full, inc, label.c_str());
    // The oracle itself performs no incremental work; the session must
    // have recorded the loop's.
    EXPECT_EQ(full.stats.edges_reevaluated, 0u);
    if (inc.iterations > 0) {
      EXPECT_GT(inc.stats.delay_cache_hits + inc.stats.edges_reevaluated, 0u);
      EXPECT_GT(inc.stats.cg_iterations, 0u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, IncrementalDifferential,
                         ::testing::Range(0, static_cast<int>(netlist::vtr_suite().size())),
                         [](const auto& name_info) {
                           return netlist::vtr_suite()[static_cast<std::size_t>(
                                                           name_info.param)]
                               .name;
                         });

// Shared small implementation for the non-parameterized checks.
const core::Implementation& sha_impl() {
  static const auto impl = [] {
    netlist::BenchmarkSpec spec;
    for (const auto& s : suite()) {
      if (s.name == "sha") spec = netlist::scaled(s, 1.0 / 16);
    }
    return core::implement(spec, test_arch());
  }();
  return *impl;
}

TEST(IncrementalDifferentialDetail, CriticalPathStructureIsIdentical) {
  const auto full = core::guardband(sha_impl(), device(),
                                    base_options(25.0, core::IncrementalMode::Off));
  const auto inc = core::guardband(sha_impl(), device(),
                                   base_options(25.0, core::IncrementalMode::Exact));
  ASSERT_EQ(full.timing.cp_prims.size(), inc.timing.cp_prims.size());
  for (std::size_t i = 0; i < full.timing.cp_prims.size(); ++i) {
    EXPECT_EQ(full.timing.cp_prims[i], inc.timing.cp_prims[i]) << "hop " << i;
  }
  for (std::size_t k = 0; k < full.timing.cp_breakdown.size(); ++k) {
    EXPECT_NEAR(full.timing.cp_breakdown[k], inc.timing.cp_breakdown[k], 1e-9)
        << "kind " << k;
  }
}

TEST(IncrementalMetamorphic, ZeroPowerConvergesInOneIterationWithZeroWork) {
  // With the power map forced to zero the fixed point is the ambient
  // field itself: the first iteration must leave every temperature
  // bitwise unchanged, so the incremental STA sees an empty frontier and
  // the warm-started CG terminates without a single iteration.
  auto opt = base_options(25.0, core::IncrementalMode::Exact);
  opt.power_scale = 0.0;
  const auto r = core::guardband(sha_impl(), device(), opt);
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(r.iterations, 1);
  EXPECT_EQ(r.stats.edges_reevaluated, 0u);
  EXPECT_EQ(r.stats.delay_cache_hits, 0u);
  EXPECT_EQ(r.stats.cg_iterations, 0u);
  for (double t : r.tile_temp_c) EXPECT_EQ(t, 25.0);
  EXPECT_EQ(r.power.dynamic_w.value(), 0.0);
  EXPECT_EQ(r.power.leakage_w.value(), 0.0);
}

TEST(IncrementalNonConvergence, ExhaustedLoopIsFlaggedAndCounted) {
  const core::FlowCounters before = core::thread_flow_counters();
  auto opt = base_options(25.0, core::IncrementalMode::Exact);
  opt.max_iterations = 1;
  opt.delta_t_c = units::Kelvin(1e-6);  // unreachable in one iteration from ambient
  const auto r = core::guardband(sha_impl(), device(), opt);
  EXPECT_FALSE(r.converged);
  EXPECT_EQ(r.iterations, 1);
  const core::FlowCounters d = core::thread_flow_counters() - before;
  EXPECT_EQ(d.guardband_runs, 1u);
  EXPECT_EQ(d.guardband_nonconverged, 1u);
}

TEST(IncrementalNonConvergence, ConvergedRunIsNotCounted) {
  const core::FlowCounters before = core::thread_flow_counters();
  const auto r = core::guardband(sha_impl(), device(),
                                 base_options(25.0, core::IncrementalMode::Exact));
  EXPECT_TRUE(r.converged);
  const core::FlowCounters d = core::thread_flow_counters() - before;
  EXPECT_EQ(d.guardband_runs, 1u);
  EXPECT_EQ(d.guardband_nonconverged, 0u);
  EXPECT_EQ(d.sta_edges_reevaluated, r.stats.edges_reevaluated);
  EXPECT_EQ(d.thermal_cg_iterations, r.stats.cg_iterations);
}

TEST(IncrementalNonConvergence, ZeroIterationBudgetIsVacuouslyConverged) {
  auto opt = base_options(25.0, core::IncrementalMode::Exact);
  opt.max_iterations = 0;
  const auto r = core::guardband(sha_impl(), device(), opt);
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(r.iterations, 0);
}

}  // namespace
