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

/// One unit of runner work: an implement/characterize warm-up task, a
/// guardband sweep cell, or a whole experiment.
struct TaskMetrics {
  std::string name;
  std::string kind;  ///< "implement" | "characterize" | "guardband" | "experiment"
  double wall_s = 0.0;
  int iterations = 0;  ///< Algorithm 1 iterations (guardband tasks)
  PhaseTimes phases;
  /// SPICE linear-solver work performed by this task (see EXPERIMENTS.md):
  /// numeric factorizations, how many reused a previously analyzed
  /// sparsity pattern, and total Newton iterations.
  std::uint64_t spice_factorizations = 0;
  std::uint64_t spice_pattern_reuses = 0;
  std::uint64_t spice_newton_iters = 0;
  /// Incremental guardband engine work (see EXPERIMENTS.md): connection
  /// delays re-derived vs served from cache across the Algorithm 1 loop,
  /// total thermal CG iterations, and guardband runs that exhausted
  /// max_iterations without reaching the delta_t_c fixed point.
  std::uint64_t sta_edges_reevaluated = 0;
  std::uint64_t sta_delay_cache_hits = 0;
  std::uint64_t thermal_cg_iters = 0;
  /// Subset of thermal_cg_iters run preconditioned (stencil SSOR-PCG);
  /// zero under the generic oracle backend.
  std::uint64_t thermal_precond_iters = 0;
  /// Transient-engine work (DynamicGuardband trace replays): backward-
  /// Euler steps taken and the CG iterations they cost, kept apart from
  /// the steady-state thermal counters above.
  std::uint64_t transient_steps = 0;
  std::uint64_t transient_cg_iters = 0;
  /// Place->thermal feedback work (thermal_place stage): adjoint solves
  /// and bounded re-place moves. Zero when the feature is off or the
  /// refined placement came from the artifact store.
  std::uint64_t thermal_adjoint_solves = 0;
  std::uint64_t replace_moves = 0;
  std::uint64_t guardband_nonconverged = 0;
  /// Disk artifact-store traffic attributable to this task (per stage:
  /// one implement build probes up to five storable stages). All zero
  /// when no store is attached.
  std::uint64_t disk_hits = 0;
  std::uint64_t disk_misses = 0;
  std::uint64_t disk_writes = 0;
};

/// RAII capture of the thread-local work counters — SPICE solver, flow
/// (STA/thermal/transient/feedback/guardband) and artifact store: snapshots
/// them at construction and adds the deltas to the task at scope exit.
/// Valid because a runner task executes on exactly one pool thread.
class TaskCounterScope {
 public:
  explicit TaskCounterScope(TaskMetrics& m)
      : m_(m),
        spice_before_(spice::thread_counters()),
        flow_before_(core::thread_flow_counters()),
        artifact_before_(thread_artifact_counters()) {}
  ~TaskCounterScope() {
    const spice::SolverCounters s = spice::thread_counters() - spice_before_;
    m_.spice_factorizations += s.factorizations;
    m_.spice_pattern_reuses += s.pattern_reuses;
    m_.spice_newton_iters += s.newton_iterations;
    const core::FlowCounters f = core::thread_flow_counters() - flow_before_;
    m_.sta_edges_reevaluated += f.sta_edges_reevaluated;
    m_.sta_delay_cache_hits += f.sta_delay_cache_hits;
    m_.thermal_cg_iters += f.thermal_cg_iterations;
    m_.thermal_precond_iters += f.thermal_precond_iterations;
    m_.transient_steps += f.transient_steps;
    m_.transient_cg_iters += f.transient_cg_iterations;
    m_.thermal_adjoint_solves += f.thermal_adjoint_solves;
    m_.replace_moves += f.replace_moves;
    m_.guardband_nonconverged += f.guardband_nonconverged;
    const ArtifactCounters a = thread_artifact_counters() - artifact_before_;
    m_.disk_hits += a.disk_hits;
    m_.disk_misses += a.disk_misses;
    m_.disk_writes += a.disk_writes;
  }
  TaskCounterScope(const TaskCounterScope&) = delete;
  TaskCounterScope& operator=(const TaskCounterScope&) = delete;

 private:
  TaskMetrics& m_;
  spice::SolverCounters spice_before_;
  core::FlowCounters flow_before_;
  ArtifactCounters artifact_before_;
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
