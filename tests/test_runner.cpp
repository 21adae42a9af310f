// Tests for the experiment runner: the work-stealing thread pool, the
// build-once slot map (keys compared, not only hashed) and the FlowCache
// built on it (quantized corner keys, single-build semantics under
// contention), sweep determinism (parallel == serial, bit for
// bit), and the metrics serialization.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/stage_graph.hpp"
#include "util/build_once_map.hpp"
#include "runner/flow_cache.hpp"
#include "runner/metrics.hpp"
#include "runner/sweep.hpp"
#include "runner/thread_pool.hpp"

namespace {

using namespace taf;

const arch::ArchParams& test_arch() {
  static const arch::ArchParams a = arch::scaled_arch();
  return a;
}

netlist::BenchmarkSpec spec_of(const char* name) {
  for (const auto& s : netlist::vtr_suite()) {
    if (s.name == name) return s;
  }
  ADD_FAILURE() << "unknown benchmark " << name;
  return {};
}

// ---------- thread pool ----------

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
  runner::ThreadPool pool(4);
  EXPECT_EQ(pool.threads(), 4);
  std::vector<std::atomic<int>> hits(257);
  pool.parallel_for(hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, SingleExecutorRunsInline) {
  runner::ThreadPool pool(1);
  EXPECT_EQ(pool.threads(), 1);
  const auto caller = std::this_thread::get_id();
  std::vector<std::thread::id> seen(16);
  pool.parallel_for(seen.size(), [&](std::size_t i) {
    seen[i] = std::this_thread::get_id();
  });
  for (const auto& id : seen) EXPECT_EQ(id, caller);
}

TEST(ThreadPool, CallerParticipates) {
  // Even with workers available, n == 1 runs on the caller (no handoff).
  runner::ThreadPool pool(4);
  std::thread::id ran_on;
  pool.parallel_for(1, [&](std::size_t) { ran_on = std::this_thread::get_id(); });
  EXPECT_EQ(ran_on, std::this_thread::get_id());
}

TEST(ThreadPool, RethrowsTaskException) {
  runner::ThreadPool pool(3);
  EXPECT_THROW(pool.parallel_for(64,
                                 [&](std::size_t i) {
                                   if (i == 13) throw std::runtime_error("boom");
                                 }),
               std::runtime_error);
  // The pool survives a throwing batch.
  std::atomic<int> count{0};
  pool.parallel_for(8, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 8);
}

TEST(ThreadPool, NestedParallelForDoesNotDeadlock) {
  runner::ThreadPool pool(2);
  std::atomic<int> count{0};
  pool.parallel_for(4, [&](std::size_t) {
    pool.parallel_for(4, [&](std::size_t) { count.fetch_add(1); });
  });
  EXPECT_EQ(count.load(), 16);
}

// ---------- flow cache ----------

TEST(FlowCache, QuantizesDeviceCorners) {
  EXPECT_EQ(runner::FlowCache::quantize_t_opt(25.0),
            runner::FlowCache::quantize_t_opt(25.0000004));
  EXPECT_NE(runner::FlowCache::quantize_t_opt(25.0),
            runner::FlowCache::quantize_t_opt(25.001));

  runner::FlowCache cache;
  const auto& tech = tech::ptm22();
  const auto& a = cache.device(tech, test_arch(), 25.0);
  const auto& b = cache.device(tech, test_arch(), 25.0000004);  // same entry
  EXPECT_EQ(&a, &b);
  const auto s = cache.stats();
  EXPECT_EQ(s.device_misses, 1u);
  EXPECT_EQ(s.device_hits, 1u);
}

TEST(FlowCache, ConcurrentRequestsBuildOnce) {
  runner::FlowCache cache;
  runner::ThreadPool pool(8);
  const auto spec = spec_of("mkSMAdapter4B");
  std::vector<const core::Implementation*> got(8, nullptr);
  pool.parallel_for(got.size(), [&](std::size_t i) {
    got[i] = &cache.implementation(spec, test_arch(), 1.0 / 16);
  });
  for (const auto* p : got) EXPECT_EQ(p, got[0]);
  const auto s = cache.stats();
  EXPECT_EQ(s.impl_misses, 1u);
  EXPECT_EQ(s.impl_hits, got.size() - 1);
}

TEST(FlowCache, DistinctKeysAreDistinctEntries) {
  runner::FlowCache cache;
  const auto spec = spec_of("sha");
  const auto& base = cache.implementation(spec, test_arch(), 1.0 / 16);

  arch::ArchParams narrow = test_arch();
  narrow.channel_tracks = test_arch().channel_tracks / 2;
  EXPECT_NE(&cache.implementation(spec, narrow, 1.0 / 16), &base);

  EXPECT_NE(&cache.implementation(spec, test_arch(), 1.0 / 8), &base);

  core::ImplementOptions seeded;
  seeded.seed = 7;
  EXPECT_NE(&cache.implementation(spec, test_arch(), 1.0 / 16, seeded), &base);

  // Same key again: still the original entry.
  EXPECT_EQ(&cache.implementation(spec, test_arch(), 1.0 / 16), &base);
  EXPECT_EQ(cache.stats().impl_misses, 4u);
}

TEST(FlowCache, FeedbackEdgeKeyFollowsTheStageGraph) {
  // The key is the stage graph's chained hash, so exactly the
  // thermal_place fields that stage hashes give distinct entries.
  runner::FlowCache cache;
  const auto spec = spec_of("stereovision3");
  const coffe::DeviceModel dev = coffe::Characterizer::paper_table2_reference();
  coffe::DeviceModel other = dev;
  other.name = "paper-D25-copy";

  core::ImplementOptions aware;
  aware.thermal_place.enabled = true;
  aware.thermal_place.device = &dev;
  aware.thermal_place.passes = 1;
  const auto* base = &cache.implementation(spec, test_arch(), 1.0 / 16, aware);
  EXPECT_NE(&cache.implementation(spec, test_arch(), 1.0 / 16), base);  // edge off
  const auto variant = [&](auto&& mutate) {
    core::ImplementOptions o = aware;
    mutate(o);
    return &cache.implementation(spec, test_arch(), 1.0 / 16, o);
  };

  EXPECT_NE(variant([](auto& o) { o.thermal_place.passes = 2; }), base);
  EXPECT_NE(variant([&](auto& o) { o.thermal_place.device = &other; }), base);
  EXPECT_NE(variant([](auto& o) { o.thermal_place.thermal.silicon_k_w_mk *= 2.0; }), base);
  // The equal-fmax tiebreak compares realized peaks, so the solver
  // tolerance is part of the stage's identity.
  EXPECT_NE(
      variant([](auto& o) { o.thermal_place.thermal.solve_tol_k = units::Kelvin(1e-10); }),
      base);
  EXPECT_EQ(cache.stats().impl_misses, 6u);

  // What the stage deliberately leaves out of its hash shares the entry.
  const core::FlowObserver obs;
  const core::StageHooks hooks;
  EXPECT_EQ(variant([&](auto& o) { o.observer = &obs; }), base);
  EXPECT_EQ(variant([&](auto& o) { o.stage_hooks = &hooks; }), base);
  EXPECT_EQ(cache.stats().impl_misses, 6u);

  // A null device is still refused, not cached.
  EXPECT_THROW(variant([](auto& o) { o.thermal_place.device = nullptr; }),
               std::invalid_argument);
}

TEST(FlowCache, FeedbackEdgeKeyNamesTheRerouteAlgorithm) {
  // thermal_place's identity covers its refinement objective and its
  // candidate reroute algorithm, so an artifact directory filled by an
  // earlier stage is not served for the current one. The pinned values
  // are sha's thermal_place input_hash under the full-reroute stage,
  // under the incremental reroute that restarted at the first-iteration
  // present factor, and under the adjoint-priced refinement.
  constexpr std::uint64_t kFullRerouteHash = 0x3cadcb3bd870b064ull;
  constexpr std::uint64_t kFirstFactorRerouteHash = 0x9aee227082137c06ull;
  constexpr std::uint64_t kAdjointPricedHash = 0x186f6930fe52076dull;
  const coffe::DeviceModel dev = coffe::Characterizer::paper_table2_reference();
  core::ImplementOptions aware;
  aware.thermal_place.enabled = true;
  aware.thermal_place.device = &dev;
  aware.thermal_place.passes = 1;
  const auto g =
      core::FlowGraph::standard(netlist::scaled(spec_of("sha"), 1.0 / 16), test_arch(), aware);
  int seen = 0;
  for (const core::FlowStage& s : g.stages()) {
    if (std::string_view(s.name) != "thermal_place") continue;
    ++seen;
    EXPECT_NE(s.input_hash, kFullRerouteHash);
    EXPECT_NE(s.input_hash, kFirstFactorRerouteHash);
    EXPECT_NE(s.input_hash, kAdjointPricedHash);
  }
  EXPECT_EQ(seen, 1);
}

TEST(FlowCache, ImplementationMatchesDirectFlow) {
  runner::FlowCache cache;
  const auto spec = spec_of("sha");
  const auto& cached = cache.implementation(spec, test_arch(), 1.0 / 16);
  const auto direct = core::implement(netlist::scaled(spec, 1.0 / 16), test_arch());
  EXPECT_EQ(cached.routes.success, direct->routes.success);
  EXPECT_EQ(cached.routes.iterations, direct->routes.iterations);
  EXPECT_EQ(cached.placement.pos, direct->placement.pos);
}

TEST(FlowCache, ClearResetsEntriesAndCounters) {
  runner::FlowCache cache;
  const auto spec = spec_of("sha");
  cache.implementation(spec, test_arch(), 1.0 / 16);
  cache.clear();
  const auto s = cache.stats();
  EXPECT_EQ(s.impl_hits, 0u);
  EXPECT_EQ(s.impl_misses, 0u);
  cache.implementation(spec, test_arch(), 1.0 / 16);
  EXPECT_EQ(cache.stats().impl_misses, 1u);
}

// ---------- build-once slot map ----------

/// Sends every key to one bucket, so only == tells keys apart.
struct ConstantHash {
  std::size_t operator()(const std::string& /*key*/) const { return 42; }
};

TEST(BuildOnceMap, UnequalKeysWithEqualHashesGetSeparateSlots) {
  util::BuildOnceMap<std::string, std::string, ConstantHash> map;
  int builds = 0;
  const auto build = [&builds](const char* value) {
    return [&builds, value] {
      ++builds;
      return std::string(value);
    };
  };
  EXPECT_EQ(map.get_or_build("alpha", build("value of alpha")), "value of alpha");
  EXPECT_EQ(map.get_or_build("beta", build("value of beta")), "value of beta");
  EXPECT_EQ(map.get_or_build("alpha", build("rebuilt")), "value of alpha");
  EXPECT_EQ(map.get_or_build("beta", build("rebuilt")), "value of beta");
  EXPECT_EQ(builds, 2);

  const auto hit = map.claim("beta");
  EXPECT_FALSE(hit.claimed);
  EXPECT_EQ(hit.key, "beta");
  EXPECT_EQ(map.wait(hit.slot), "value of beta");
  const auto miss = map.claim("gamma");
  EXPECT_TRUE(miss.claimed);
  EXPECT_NE(&miss.slot, &hit.slot);
  map.fill(miss.slot, "value of gamma");
  EXPECT_EQ(map.wait(miss.slot), "value of gamma");
}

TEST(BuildOnceMap, FailLeavesFilledSlotsAlone) {
  util::BuildOnceMap<int, int> map;
  const auto filled = map.claim(1);
  const auto pending = map.claim(2);
  ASSERT_TRUE(filled.claimed);
  ASSERT_TRUE(pending.claimed);
  map.fill(filled.slot, 10);
  const auto error = std::make_exception_ptr(std::runtime_error("build failed"));
  map.fail(filled.slot, error);
  map.fail(pending.slot, error);
  EXPECT_EQ(map.wait(filled.slot), 10);
  EXPECT_THROW((void)map.wait(pending.slot), std::runtime_error);
  // A failed build stays failed: later lookups rethrow, nothing rebuilds.
  EXPECT_THROW((void)map.get_or_build(2, [] { return 20; }), std::runtime_error);
}

// ---------- sweep determinism ----------

std::vector<runner::SweepCellResult> run_grid(int threads) {
  runner::FlowCache cache;
  runner::ThreadPool pool(threads);
  runner::Sweep sweep(cache, pool, tech::ptm22());
  const std::vector<netlist::BenchmarkSpec> specs = {spec_of("sha"),
                                                     spec_of("or1200")};
  const auto points = runner::Sweep::grid(specs, 1.0 / 16, test_arch(),
                                          /*grades=*/{25.0, 70.0},
                                          /*ambients=*/{25.0, 70.0});
  return sweep.run(points);
}

TEST(Sweep, ParallelMatchesSerialBitForBit) {
  const auto serial = run_grid(1);
  const auto parallel = run_grid(4);
  ASSERT_EQ(serial.size(), parallel.size());
  ASSERT_EQ(serial.size(), 8u);  // 2 specs x 2 grades x 2 ambients
  for (std::size_t i = 0; i < serial.size(); ++i) {
    const auto& s = serial[i].guardband;
    const auto& p = parallel[i].guardband;
    // Exact double equality, not tolerance: same inputs, same seeds, same
    // reduction order must give the same bits whatever the scheduling.
    EXPECT_EQ(s.fmax_mhz.value(), p.fmax_mhz.value()) << "cell " << i;
    EXPECT_EQ(s.baseline_fmax_mhz.value(), p.baseline_fmax_mhz.value()) << "cell " << i;
    EXPECT_EQ(s.iterations, p.iterations) << "cell " << i;
    EXPECT_EQ(s.peak_temp_c.value(), p.peak_temp_c.value()) << "cell " << i;
    EXPECT_EQ(s.power.total_w().value(), p.power.total_w().value()) << "cell " << i;
    ASSERT_EQ(s.tile_temp_c.size(), p.tile_temp_c.size());
    EXPECT_EQ(0, std::memcmp(s.tile_temp_c.data(), p.tile_temp_c.data(),
                             s.tile_temp_c.size() * sizeof(double)))
        << "cell " << i;
    EXPECT_EQ(serial[i].metrics.name, parallel[i].metrics.name);
  }
  // Pinned regression: the auto-generated cell label must render the
  // ambient as a plain number. A units::Celsius passed straight through
  // the printf varargs boundary (caught by -Wformat during the units
  // migration) would corrupt this string on ABIs that pass single-member
  // structs on the stack.
  EXPECT_EQ(serial[0].metrics.name, "sha@D25/amb25");
  EXPECT_EQ(serial[1].metrics.name, "sha@D25/amb70");
}

TEST(Sweep, GridIsRowMajorSpecGradeAmbient) {
  const std::vector<netlist::BenchmarkSpec> specs = {spec_of("sha"),
                                                     spec_of("or1200")};
  const auto points = runner::Sweep::grid(specs, 1.0 / 16, test_arch(),
                                          {25.0, 70.0}, {25.0, 70.0});
  ASSERT_EQ(points.size(), 8u);
  EXPECT_EQ(points[0].spec.name, "sha");
  EXPECT_EQ(points[0].t_opt_c, 25.0);
  EXPECT_EQ(points[0].guardband.t_amb_c.value(), 25.0);
  EXPECT_EQ(points[1].guardband.t_amb_c.value(), 70.0);
  EXPECT_EQ(points[2].t_opt_c, 70.0);
  EXPECT_EQ(points[4].spec.name, "or1200");
}

// ---------- metrics ----------

TEST(Metrics, ObserverAccumulatesPhasesAndIterations) {
  runner::TaskMetrics m;
  const core::FlowObserver obs = runner::observe_into(m);
  obs.on_phase(core::FlowPhase::Route, units::Seconds(0.25));
  obs.on_phase(core::FlowPhase::Route, units::Seconds(0.25));
  obs.on_phase(core::FlowPhase::Sta, units::Seconds(0.5));
  core::FlowObserver::IterationInfo info;
  info.iteration = 1;
  info.fmax_mhz = units::Megahertz(100.0);
  info.max_delta_c = units::Kelvin(3.0);
  obs.on_iteration(info);
  info.iteration = 2;
  info.fmax_mhz = units::Megahertz(99.0);
  info.max_delta_c = units::Kelvin(0.2);
  obs.on_iteration(info);
  EXPECT_DOUBLE_EQ(m.phases.seconds[static_cast<std::size_t>(core::FlowPhase::Route)],
                   0.5);
  EXPECT_DOUBLE_EQ(m.phases.total(), 1.0);
  EXPECT_EQ(m.iterations, 2);
}

TEST(Metrics, ReportSerializesJsonAndCsv) {
  runner::RunReport report;
  report.threads = 4;
  report.wall_s = 1.5;
  report.cache.impl_hits = 3;
  report.cache.impl_misses = 2;
  report.scalars.emplace_back("throughput_qps", 1234.5);
  report.scalars.emplace_back("latency_p99_ms", 0.25);
  runner::TaskMetrics m;
  m.name = "sha@D25/amb70";
  m.kind = "guardband";
  m.wall_s = 0.25;
  m.iterations = 3;
  m.spice_factorizations = 120;
  m.spice_pattern_reuses = 118;
  m.spice_newton_iters = 120;
  m.sta_edges_reevaluated = 450;
  m.sta_delay_cache_hits = 9000;
  m.thermal_cg_iters = 37;
  m.transient_steps = 64;
  m.transient_cg_iters = 512;
  m.thermal_adjoint_solves = 2;
  m.replace_moves = 4096;
  m.guardband_nonconverged = 1;
  m.phases.add(core::FlowPhase::Thermal, 0.125);
  report.tasks.push_back(m);

  const std::string json = report.to_json();
  EXPECT_NE(json.find("\"threads\": 4"), std::string::npos);
  EXPECT_NE(json.find("\"impl_hits\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"sha@D25/amb70\""), std::string::npos);
  EXPECT_NE(json.find("\"spice_factorizations\": 120"), std::string::npos);
  EXPECT_NE(json.find("\"spice_pattern_reuses\": 118"), std::string::npos);
  EXPECT_NE(json.find("\"spice_newton_iters\": 120"), std::string::npos);
  EXPECT_NE(json.find("\"sta_edges_reevaluated\": 450"), std::string::npos);
  EXPECT_NE(json.find("\"sta_delay_cache_hits\": 9000"), std::string::npos);
  EXPECT_NE(json.find("\"thermal_cg_iters\": 37"), std::string::npos);
  EXPECT_NE(json.find("\"transient_steps\": 64"), std::string::npos);
  EXPECT_NE(json.find("\"transient_cg_iters\": 512"), std::string::npos);
  EXPECT_NE(json.find("\"thermal_adjoint_solves\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"replace_moves\": 4096"), std::string::npos);
  EXPECT_NE(json.find("\"guardband_nonconverged\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"thermal\":0.125000"), std::string::npos);
  EXPECT_NE(json.find("\"scalars\": {\"throughput_qps\": 1234.500000, "
                      "\"latency_p99_ms\": 0.250000}"),
            std::string::npos);

  const std::string csv = report.to_csv();
  EXPECT_NE(csv.find("name,kind,wall_s,iterations,spice_factorizations,"
                     "spice_pattern_reuses,spice_newton_iters,"
                     "sta_edges_reevaluated,sta_delay_cache_hits,"
                     "thermal_cg_iters,"
                     "transient_steps,transient_cg_iters,"
                     "thermal_adjoint_solves,replace_moves,"
                     "guardband_nonconverged,"
                     "disk_hits,disk_misses,disk_writes,pack_s"),
            std::string::npos);
  EXPECT_NE(csv.find("sha@D25/amb70,guardband,0.250000,3,120,118,120,450,9000,37,"
                     "64,512,2,4096,1,0,0,0"),
            std::string::npos);
  EXPECT_NE(csv.find("scalar,throughput_qps,1234.500000"), std::string::npos);
  EXPECT_NE(csv.find("scalar,latency_p99_ms,0.250000"), std::string::npos);
}

TEST(Metrics, FlowCounterScopeCapturesGuardbandWork) {
  runner::FlowCache cache;
  const auto& impl = cache.implementation(spec_of("sha"), test_arch(), 1.0 / 16);
  const auto& dev = cache.device(tech::ptm22(), test_arch(), 25.0);
  runner::TaskMetrics m;
  core::GuardbandOptions opt;
  // sha self-heats 0.085 K in iteration 1: a tighter threshold makes the
  // loop re-time that map and iterate again.
  opt.delta_t_c = units::Kelvin(0.01);
  core::GuardbandResult r;
  {
    const runner::TaskCounterScope scope(m);
    r = core::guardband(impl, dev, opt);
  }
  // The default (incremental) engine does thermal CG work every
  // iteration and re-evaluates at least the edges the first temperature
  // update dirtied; a converged run must not be flagged.
  ASSERT_GE(r.iterations, 2);
  EXPECT_GT(m.thermal_cg_iters, 0u);
  EXPECT_GT(m.sta_edges_reevaluated, 0u);
  EXPECT_EQ(m.guardband_nonconverged, 0u);
}

TEST(Metrics, TaskCounterScopeCapturesEveryMappedLayerField) {
  // Bump every field of the three thread-local layer structs by a
  // distinct amount inside one scope: each report column must receive
  // exactly the delta of the layer field the task table maps it to. A
  // first round of bumps outside the scope gives it a nonzero baseline
  // to subtract.
  spice::SolverCounters& solver = spice::thread_counters();
  core::FlowCounters& flow = core::thread_flow_counters();
  runner::ArtifactCounters& artifact = runner::thread_artifact_counters();
  runner::LayerCounters bump;
  std::uint64_t amount = 0;
  const auto bump_every_field = [&] {
#define TAF_TEST_BUMP_SOLVER(name, doc) \
  bump.solver.name = ++amount;          \
  solver.name += bump.solver.name;
#define TAF_TEST_BUMP_FLOW(name, doc) \
  bump.flow.name = ++amount;          \
  flow.name += bump.flow.name;
#define TAF_TEST_BUMP_ARTIFACT(name, doc) \
  bump.artifact.name = ++amount;          \
  artifact.name += bump.artifact.name;
    TAF_SOLVER_COUNTERS(TAF_TEST_BUMP_SOLVER)
    TAF_FLOW_COUNTERS(TAF_TEST_BUMP_FLOW)
    TAF_ARTIFACT_COUNTERS(TAF_TEST_BUMP_ARTIFACT)
#undef TAF_TEST_BUMP_SOLVER
#undef TAF_TEST_BUMP_FLOW
#undef TAF_TEST_BUMP_ARTIFACT
  };
  bump_every_field();
  runner::TaskMetrics m;
  {
    const runner::TaskCounterScope scope(m);
    bump_every_field();
  }

  // The bumps are distinct, so distinct values also prove that no two
  // columns read the same layer field.
  std::vector<std::uint64_t> captured;
#define TAF_TEST_EXPECT_MAPPED(report_name, layer, layer_field)     \
  EXPECT_EQ(m.report_name, bump.layer.layer_field) << #report_name; \
  captured.push_back(m.report_name);
  TAF_TASK_COUNTERS(TAF_TEST_EXPECT_MAPPED)
#undef TAF_TEST_EXPECT_MAPPED
  std::sort(captured.begin(), captured.end());
  EXPECT_EQ(std::adjacent_find(captured.begin(), captured.end()), captured.end());
}

// ---------- cross-run / cross-thread-count determinism ----------

TEST(Determinism, ImplementIsReproducibleAcrossRuns) {
  const auto spec = netlist::scaled(spec_of("or1200"), 1.0 / 16);
  const auto a = core::implement(spec, test_arch());
  const auto b = core::implement(spec, test_arch());
  EXPECT_EQ(a->placement.pos, b->placement.pos);
  EXPECT_EQ(a->routes.iterations, b->routes.iterations);
  ASSERT_EQ(a->routes.routes.size(), b->routes.routes.size());
  for (std::size_t i = 0; i < a->routes.routes.size(); ++i) {
    EXPECT_EQ(a->routes.routes[i].nodes, b->routes.routes[i].nodes) << "net " << i;
  }
}

TEST(Determinism, FullFlowMatchesAcrossThreadCountsWithIncrementalEngine) {
  // Beyond the science columns, the default (incremental) engine's work
  // counters — edges re-evaluated, CG iterations — must not depend on
  // the pool size either: each cell's session is task-local.
  auto run = [](int threads) {
    runner::FlowCache cache;
    runner::ThreadPool pool(threads);
    runner::Sweep sweep(cache, pool, tech::ptm22());
    core::GuardbandOptions base;
    const std::vector<netlist::BenchmarkSpec> specs = {spec_of("sha"),
                                                       spec_of("diffeq1")};
    return sweep.run(runner::Sweep::grid(specs, 1.0 / 16, test_arch(), {25.0},
                                         {25.0, 70.0}, base));
  };
  const auto serial = run(1);
  const auto parallel = run(4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    const auto& s = serial[i].guardband;
    const auto& p = parallel[i].guardband;
    EXPECT_EQ(s.fmax_mhz.value(), p.fmax_mhz.value()) << "cell " << i;
    EXPECT_EQ(s.iterations, p.iterations) << "cell " << i;
    EXPECT_EQ(s.converged, p.converged) << "cell " << i;
    EXPECT_EQ(s.stats.edges_reevaluated, p.stats.edges_reevaluated) << "cell " << i;
    EXPECT_EQ(s.stats.cg_iterations, p.stats.cg_iterations) << "cell " << i;
    EXPECT_EQ(0, std::memcmp(s.tile_temp_c.data(), p.tile_temp_c.data(),
                             s.tile_temp_c.size() * sizeof(double)))
        << "cell " << i;
  }
}

}  // namespace
