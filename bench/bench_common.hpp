#pragma once
// Shared helpers for the reproduction experiments: each experiment prints
// the rows/series of one table or figure from the paper (DESIGN.md maps
// experiment ids to names).
//
// Each experiment defines its body with TAF_EXPERIMENT(name), which
// registers it with the bench_all driver, so one process regenerates
// every table/figure while sharing flow artifacts through the
// process-wide runner::FlowCache.

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/flow.hpp"
#include "runner/flow_cache.hpp"
#include "runner/metrics.hpp"
#include "runner/sweep.hpp"
#include "runner/thread_pool.hpp"
#include "util/table.hpp"

namespace taf::bench {

/// Benchmark scale used by the routed experiments (DESIGN.md section 6).
inline constexpr double kSuiteScale = 1.0 / 16.0;

inline const arch::ArchParams& bench_arch() {
  static const arch::ArchParams a = arch::scaled_arch();
  return a;
}

inline const tech::Technology& bench_tech() {
  static const tech::Technology t = tech::ptm22();
  return t;
}

inline const coffe::Characterizer& characterizer() {
  return runner::FlowCache::global().characterizer(bench_tech(), bench_arch());
}

/// Characterized device cache (sizing + sweep is deterministic). Corners
/// are matched at millidegree granularity, never by raw double equality.
inline const coffe::DeviceModel& device_at(double t_opt_c) {
  return runner::FlowCache::global().device(bench_tech(), bench_arch(), t_opt_c);
}

/// Benchmark spec lookup in the VTR suite; aborts on unknown names.
inline netlist::BenchmarkSpec suite_spec(const std::string& name) {
  for (const auto& spec : netlist::vtr_suite()) {
    if (spec.name == name) return spec;
  }
  std::fprintf(stderr, "unknown benchmark '%s'\n", name.c_str());
  std::abort();
}

/// Implemented (packed/placed/routed) benchmark, shared process-wide.
inline const core::Implementation& implementation_of(const std::string& name,
                                                     double scale = kSuiteScale) {
  return runner::FlowCache::global().implementation(suite_spec(name), bench_arch(),
                                                    scale);
}

// ---------------------------------------------------------------------------
// Shared thread pool. The experiments fan guardband sweeps out over it;
// size it with set_pool_threads() before first use (bench_all -j), else
// it takes the hardware default.

inline int& pool_threads_setting() {
  static int n = 0;  // 0 = auto
  return n;
}

inline void set_pool_threads(int n) { pool_threads_setting() = n; }

inline runner::ThreadPool& pool() {
  static runner::ThreadPool p(pool_threads_setting());
  return p;
}

/// Per-cell sweep metrics collected process-wide. Sweep cells execute on
/// pool threads, so their SPICE/flow counters never appear in a scope
/// opened on the driver thread; run_sweep() copies each cell's
/// TaskMetrics here instead, and bench_all folds them into the report.
inline std::mutex& sweep_metrics_mutex() {
  static std::mutex m;
  return m;
}

inline std::vector<runner::TaskMetrics>& collected_sweep_metrics() {
  static std::vector<runner::TaskMetrics> metrics;
  return metrics;
}

/// Guardband sweep over the shared cache/pool. Results are indexed like
/// `points` — identical to running the cells serially, whatever -j is.
inline std::vector<runner::SweepCellResult> run_sweep(
    const std::vector<runner::SweepPoint>& points) {
  auto results =
      runner::Sweep(runner::FlowCache::global(), pool(), bench_tech()).run(points);
  {
    const std::lock_guard<std::mutex> lock(sweep_metrics_mutex());
    for (const auto& cell : results) collected_sweep_metrics().push_back(cell.metrics);
  }
  return results;
}

/// Convenience: one sweep point per suite benchmark at the given grade
/// and ambient (the fig. 6/7/8 row pattern).
inline std::vector<runner::SweepPoint> suite_points(
    double t_opt_c, const core::GuardbandOptions& opt) {
  std::vector<runner::SweepPoint> points;
  for (const auto& spec : netlist::vtr_suite()) {
    runner::SweepPoint p;
    p.spec = spec;
    p.scale = kSuiteScale;
    p.arch = bench_arch();
    p.t_opt_c = t_opt_c;
    p.guardband = opt;
    points.push_back(std::move(p));
  }
  return points;
}

inline void print_header(const char* experiment, const char* paper_claim) {
  std::printf("== %s ==\n", experiment);
  std::printf("paper: %s\n\n", paper_claim);
}

// ---------------------------------------------------------------------------
// Experiment registry (bench_all).

using ExperimentFn = int (*)();

struct Experiment {
  std::string name;
  ExperimentFn fn = nullptr;
};

inline std::vector<Experiment>& experiment_registry() {
  static std::vector<Experiment> experiments;
  return experiments;
}

inline int register_experiment(const char* name, ExperimentFn fn) {
  experiment_registry().push_back({name, fn});
  return static_cast<int>(experiment_registry().size());
}

}  // namespace taf::bench

/// Defines one reproduction experiment and registers it with bench_all.
/// The body returns an exit code.
#define TAF_EXPERIMENT(name)                                          \
  static int taf_experiment_##name();                                 \
  [[maybe_unused]] static const int taf_experiment_reg_##name =       \
      taf::bench::register_experiment(#name, &taf_experiment_##name); \
  static int taf_experiment_##name()
