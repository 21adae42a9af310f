#pragma once
// Structured instrumentation for runner tasks: per-task wall time, CAD
// phase breakdown (fed by core::FlowObserver), Algorithm 1 iteration
// counts, and the flow-cache hit/miss counters — serialized as JSON or
// CSV so sweeps are machine-analysable (EXPERIMENTS.md documents the
// format).

#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/flow.hpp"
#include "runner/artifact_store.hpp"
#include "runner/flow_cache.hpp"
#include "spice/linear.hpp"

namespace taf::runner {

/// Accumulated seconds per CAD/analysis phase.
struct PhaseTimes {
  std::array<double, core::kNumFlowPhases> seconds{};

  void add(core::FlowPhase phase, double s) {
    seconds[static_cast<std::size_t>(phase)] += s;
  }
  double total() const {
    double t = 0.0;
    for (double s : seconds) t += s;
    return t;
  }
};

/// The per-task work counters, one row per report column in column order:
/// X(report_name, layer, layer_field) reports LayerCounters::layer's
/// layer_field under report_name. The table generates the TaskMetrics
/// counter fields, TaskCounterScope's capture and the counter columns of
/// RunReport::to_json()/to_csv() (EXPERIMENTS.md documents each column).
/// guardband_runs and symbolic_analyses are collected but not reported.
#define TAF_TASK_COUNTERS(X)                              \
  X(spice_factorizations, solver, factorizations)         \
  X(spice_pattern_reuses, solver, pattern_reuses)         \
  X(spice_newton_iters, solver, newton_iterations)        \
  X(sta_edges_reevaluated, flow, sta_edges_reevaluated)   \
  X(sta_delay_cache_hits, flow, sta_delay_cache_hits)     \
  X(thermal_cg_iters, flow, thermal_cg_iterations)        \
  X(transient_steps, flow, transient_steps)               \
  X(transient_cg_iters, flow, transient_cg_iterations)    \
  X(thermal_adjoint_solves, flow, thermal_adjoint_solves) \
  X(replace_moves, flow, replace_moves)                   \
  X(guardband_nonconverged, flow, guardband_nonconverged) \
  X(disk_hits, artifact, disk_hits)                       \
  X(disk_misses, artifact, disk_misses)                   \
  X(disk_writes, artifact, disk_writes)

/// One unit of runner work: an implement/characterize warm-up task, a
/// guardband sweep cell, or a whole experiment.
struct TaskMetrics {
  std::string name;
  std::string kind;  ///< "implement" | "characterize" | "guardband" | "experiment"
  double wall_s = 0.0;
  int iterations = 0;  ///< Algorithm 1 iterations (guardband tasks)
  PhaseTimes phases;
#define TAF_TASK_COUNTER_FIELD(report_name, layer, layer_field) std::uint64_t report_name = 0;
  TAF_TASK_COUNTERS(TAF_TASK_COUNTER_FIELD)
#undef TAF_TASK_COUNTER_FIELD

  /// Adds every work counter of `other` into this task's.
  void add_counters(const TaskMetrics& other);
};

/// The thread-local layer counters the task table reads: the SPICE
/// solver's, the flow's (STA/thermal/transient/feedback/guardband) and
/// the artifact store's.
struct LayerCounters {
  spice::SolverCounters solver;
  core::FlowCounters flow;
  ArtifactCounters artifact;

  /// Snapshot of the calling thread's counters.
  static LayerCounters of_this_thread();
};

/// RAII capture of the thread-local layer counters: snapshots them at
/// construction and adds the deltas to the task at scope exit. Valid
/// because a runner task executes on exactly one pool thread.
class TaskCounterScope {
 public:
  explicit TaskCounterScope(TaskMetrics& m)
      : m_(m), before_(LayerCounters::of_this_thread()) {}
  ~TaskCounterScope();
  TaskCounterScope(const TaskCounterScope&) = delete;
  TaskCounterScope& operator=(const TaskCounterScope&) = delete;

 private:
  TaskMetrics& m_;
  LayerCounters before_;
};

/// A full runner report: every task plus process-wide cache statistics.
struct RunReport {
  int threads = 1;
  double wall_s = 0.0;
  /// Run-level scalar metrics (throughput, latency percentiles, ...) in
  /// insertion order — the fleet simulator's p50/p99/qps live here.
  /// Serialized as a "scalars" object in to_json() and as one
  /// scalar,<name>,<value> row per entry at the top of to_csv().
  std::vector<std::pair<std::string, double>> scalars;
  std::vector<TaskMetrics> tasks;
  FlowCache::Stats cache;

  std::string to_json() const;
  std::string to_csv() const;
};

/// Wires a FlowObserver into a TaskMetrics (phase times + iterations).
/// The observer must not outlive the metrics object.
core::FlowObserver observe_into(TaskMetrics& metrics);

}  // namespace taf::runner
