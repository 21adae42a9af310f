#pragma once
// The paper's core contribution: thermal-aware guardbanding (Algorithm 1)
// and thermal-aware device/grade selection, driving the full CAD stack
// (pack -> place -> route -> activity -> power -> thermal -> STA).

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "activity/activity.hpp"
#include "arch/arch_params.hpp"
#include "arch/fpga_grid.hpp"
#include "coffe/device_model.hpp"
#include "netlist/benchmarks.hpp"
#include "netlist/netlist.hpp"
#include "pack/pack.hpp"
#include "place/place.hpp"
#include "power/power.hpp"
#include "route/router.hpp"
#include "route/rr_graph.hpp"
#include "thermal/thermal_grid.hpp"
#include "timing/timing.hpp"
#include "util/units.hpp"

namespace taf::core {

/// A fully implemented design: the netlist and every CAD-stage artifact.
/// Sub-objects hold pointers into their siblings, so the struct is pinned
/// in memory (created through implement(), never copied or moved).
struct Implementation {
  arch::ArchParams arch;
  netlist::Netlist nl;
  pack::PackedNetlist packed;
  arch::FpgaGrid grid;
  place::Placement placement;
  route::RrGraph rr;
  route::RouteResult routes;
  std::vector<activity::SignalStats> activity;
  std::unique_ptr<timing::TimingAnalyzer> sta;

  Implementation(arch::ArchParams a, netlist::Netlist n, arch::FpgaGrid g)
      : arch(a), nl(std::move(n)), grid(g), rr(grid, arch) {}
  Implementation(const Implementation&) = delete;
  Implementation& operator=(const Implementation&) = delete;
};

/// CAD/analysis phases reported through FlowObserver. The runner's sweep
/// reports aggregate per-task time under these labels.
enum class FlowPhase {
  Pack = 0,
  Place,
  Route,
  Activity,
  StaBuild,  ///< TimingAnalyzer construction (route-tree walk)
  Sta,
  Power,
  Thermal,
};
inline constexpr int kNumFlowPhases = 8;
const char* flow_phase_name(FlowPhase phase);

/// How guardband() evaluates timing and thermal state inside the
/// Algorithm 1 loop.
enum class IncrementalMode {
  /// Full recompute every iteration — the original path, kept alive as
  /// the differential-testing oracle.
  Off,
  /// Incremental STA session + warm-started CG — the production engine.
  /// Bit-identical timing to Off (DESIGN.md section 8); temperatures
  /// agree within the CG termination tolerance.
  Exact,
};

/// Work performed by the Algorithm 1 loop of one guardband() call
/// (priming/baseline/margin analyses excluded).
struct GuardbandStats {
  std::uint64_t edges_reevaluated = 0;  ///< connection delays re-derived
  std::uint64_t delay_cache_hits = 0;   ///< cached connection delays reused
  std::uint64_t cg_iterations = 0;      ///< thermal CG iterations (all solves)
  /// Subset of cg_iterations performed by a preconditioned solver (the
  /// stencil backend's SSOR-PCG). Kept separate so backend comparisons
  /// never conflate preconditioned with plain-CG iteration counts.
  std::uint64_t precond_cg_iterations = 0;
};

/// Per-thread accumulation of guardband work counters, in the mold of
/// spice::thread_counters(): the runner snapshots them around each task.
struct FlowCounters {
  std::uint64_t guardband_runs = 0;
  std::uint64_t guardband_nonconverged = 0;
  std::uint64_t sta_edges_reevaluated = 0;
  std::uint64_t sta_delay_cache_hits = 0;
  std::uint64_t thermal_cg_iterations = 0;
  std::uint64_t thermal_precond_iterations = 0;
  /// Transient-engine work (DynamicGuardband replays; see
  /// core/dynamic.hpp). Kept apart from the steady-state thermal
  /// counters so Algorithm 1 and trace-replay work never conflate.
  std::uint64_t transient_steps = 0;
  std::uint64_t transient_cg_iterations = 0;
  /// Place->thermal feedback work (the thermal_place stage): adjoint
  /// gradient solves performed and re-place moves proposed by the
  /// bounded refinement passes. Zero whenever the feature is off or the
  /// refined placement was served from the artifact store.
  std::uint64_t thermal_adjoint_solves = 0;
  std::uint64_t replace_moves = 0;

  FlowCounters operator-(const FlowCounters& rhs) const {
    FlowCounters d;
    d.guardband_runs = guardband_runs - rhs.guardband_runs;
    d.guardband_nonconverged = guardband_nonconverged - rhs.guardband_nonconverged;
    d.sta_edges_reevaluated = sta_edges_reevaluated - rhs.sta_edges_reevaluated;
    d.sta_delay_cache_hits = sta_delay_cache_hits - rhs.sta_delay_cache_hits;
    d.thermal_cg_iterations = thermal_cg_iterations - rhs.thermal_cg_iterations;
    d.thermal_precond_iterations = thermal_precond_iterations - rhs.thermal_precond_iterations;
    d.transient_steps = transient_steps - rhs.transient_steps;
    d.transient_cg_iterations = transient_cg_iterations - rhs.transient_cg_iterations;
    d.thermal_adjoint_solves = thermal_adjoint_solves - rhs.thermal_adjoint_solves;
    d.replace_moves = replace_moves - rhs.replace_moves;
    return d;
  }
};

/// Counters of the calling thread (thread-local; never contended).
FlowCounters& thread_flow_counters();

/// Optional progress/instrumentation hooks. implement() and guardband()
/// are re-entrant: all state is task-local, so one observer per task is
/// safe under concurrent flows (the observer itself is only invoked from
/// the calling thread).
struct FlowObserver {
  /// One Algorithm 1 iteration's outcome and work (counter fields are
  /// per-iteration deltas; zero in IncrementalMode::Off where no
  /// incremental session exists).
  struct IterationInfo {
    int iteration = 0;
    units::Megahertz fmax_mhz{0.0};
    units::Kelvin max_delta_c{0.0};
    std::uint64_t edges_reevaluated = 0;
    std::uint64_t delay_cache_hits = 0;
    std::uint64_t cg_iterations = 0;
  };

  /// Called after each phase with its wall-clock duration.
  std::function<void(FlowPhase, units::Seconds)> on_phase;
  /// Called once after each Algorithm 1 iteration with its outcome and
  /// work. (Formerly two hooks — a narrow on_iteration plus a richer
  /// on_iteration_info — dispatched back to back; consolidated into this
  /// single IterationInfo callback.)
  std::function<void(const IterationInfo&)> on_iteration;
};

/// Storage seam for the stage graph (see core/stage_graph.hpp): lets the
/// runner's artifact store substitute stored artifacts for stage
/// computations and capture fresh ones, without core knowing about disk.
struct StageHooks;

/// Thermal-aware placement refinement — the place->thermal feedback edge
/// (DESIGN.md section 15). Off by default: with enabled == false the flow
/// graph, every stage hash, and every result are untouched. When enabled,
/// one extra stage runs after the thermally-blind flow: `thermal_place`
/// prices tiles with d(peak T)/d(P) from ThermalGrid::solve_adjoint and
/// greedily refines the placement under the composed cost model, up to
/// `passes` candidate passes with the gradient field refreshed after each
/// accepted one. Every candidate is rerouted, and the stage's one
/// artifact is the accepted placement with those routes; the final STA is
/// built on it. Every pass is guarded: it is kept only if its reroute
/// has no more overused nodes than the current routes and the design is
/// strictly faster at the pricing point, or equally fast with a strictly
/// lower realized peak — the feedback edge can only improve the
/// implementation.
struct ThermalPlaceOptions {
  bool enabled = false;
  /// Device whose Table II characterization prices block dynamic power
  /// and leakage. Required when enabled (implement() throws otherwise);
  /// borrowed, not owned. The stage's content hash identifies the device
  /// by (name, t_opt_c) — sufficient because devices are deterministic in
  /// (technology, arch, t_opt) and both are already hashed upstream.
  const coffe::DeviceModel* device = nullptr;
  /// Cost-mix weight: HPWL units per kelvin of predicted smooth-peak
  /// rise. Zero disables the thermal term (the refinement then only
  /// polishes wirelength).
  double weight = 1.0e6;
  int passes = 4;          ///< candidate passes (a rejected pass retries with a new seed)
  double effort = 0.25;    ///< refinement move budget scale (see PlaceOptions)
  int max_rounds = 32;     ///< descent rounds per refinement pass
  /// Smooth-max temperature scale tau of the log-sum-exp peak selection.
  units::Kelvin smooth_tau_k{0.05};
  /// Operating point the power map is priced at: design frequency and a
  /// uniform leakage temperature (the gradient is refreshed per pass, not
  /// per Algorithm 1 iteration, so a representative point suffices).
  units::Megahertz pricing_f_mhz{100.0};
  units::Celsius pricing_temp_c{60.0};
  /// Thermal model for the adjoint solves (backend, conductances).
  thermal::ThermalConfig thermal;
};

struct ImplementOptions {
  unsigned seed = 1;
  double place_effort = 0.5;
  route::RouteOptions route;
  ThermalPlaceOptions thermal_place;
  const FlowObserver* observer = nullptr;  ///< not owned; may be null
  const StageHooks* stage_hooks = nullptr; ///< not owned; may be null
};

/// Run the full implementation flow on a benchmark spec.
std::unique_ptr<Implementation> implement(const netlist::BenchmarkSpec& spec,
                                          const arch::ArchParams& arch,
                                          const ImplementOptions& opt = {});

struct GuardbandOptions {
  units::Celsius t_amb_c{25.0};    ///< ambient / board temperature
  units::Kelvin delta_t_c{1.0};    ///< convergence threshold and final margin
  int max_iterations = 10;         ///< the paper observes < 10 iterations
  units::Celsius t_worst_c{100.0}; ///< conventional worst-case corner
  thermal::ThermalConfig thermal;  ///< ambient_c is overridden by t_amb_c
  /// Loop evaluation strategy (see IncrementalMode).
  IncrementalMode incremental = IncrementalMode::Exact;
  /// Multiplier on every computed power map (1.0 = physical). The zero
  /// setting is the metamorphic test seam: P = 0 must converge in one
  /// iteration with zero re-evaluated edges.
  double power_scale = 1.0;
  const FlowObserver* observer = nullptr;  ///< not owned; may be null
};

struct GuardbandResult {
  units::Megahertz fmax_mhz{0.0};           ///< thermal-aware frequency
  units::Megahertz baseline_fmax_mhz{0.0};  ///< worst-case-corner frequency
  int iterations = 0;
  /// False when the loop exhausted max_iterations without max_delta_c
  /// dropping below delta_t_c — the temperature map (and hence fmax) is
  /// then not a fixed point and the delta_t_c margin may not cover the
  /// residual error. Surfaced in bench reports; guardband() warns once.
  bool converged = false;
  /// Work performed by the Algorithm 1 loop (see GuardbandStats).
  GuardbandStats stats;
  /// Converged temperature map [degC]. Bulk solver payload, raw double
  /// by design (units.hpp keeps vectors raw to stay solver-compatible);
  /// scalar access goes through the typed tile_temp() accessor.
  std::vector<double> tile_temp_c;
  units::Celsius peak_temp_c{0.0};
  units::Celsius mean_temp_c{0.0};
  timing::TimingResult timing;     ///< final thermal-aware STA
  /// Power at the reported operating point: the converged temperature map
  /// and the reported (margin-applied) fmax_mhz.
  power::PowerBreakdown power;

  /// The paper's reported metric: performance improvement over the
  /// worst-case guardband.
  double gain() const {
    return baseline_fmax_mhz.value() > 0.0 ? fmax_mhz / baseline_fmax_mhz - 1.0 : 0.0;
  }

  /// Typed view of one tile of the converged temperature map.
  units::Celsius tile_temp(int tile) const {
    return units::Celsius{tile_temp_c[static_cast<std::size_t>(tile)]};
  }
};

/// Algorithm 1: iterate STA / power / thermal to convergence, then apply
/// the delta-T safety margin. Also runs the T_worst baseline STA.
GuardbandResult guardband(const Implementation& impl, const coffe::DeviceModel& dev,
                          const GuardbandOptions& opt = {});

/// One independent operating corner of a batched guardband evaluation:
/// everything in GuardbandOptions is shared across the batch except the
/// ambient and the power (activity) scale.
struct GuardbandCorner {
  units::Celsius t_amb_c{25.0};
  double power_scale = 1.0;
};

/// The options guardband_batch() evaluates corner `c` under: `base` with
/// the corner's ambient and power scale substituted.
GuardbandOptions with_corner(const GuardbandOptions& base, const GuardbandCorner& c);

/// Algorithm 1 over many independent corners of ONE implementation.
/// results[k] is bit-identical to guardband(impl, dev, with_corner(base,
/// corners[k])) — same fmax, temperatures, iteration and work counts —
/// but all corners still iterating share one blocked stencil traversal
/// per thermal solve through ThermalGrid::solve_batch (the ambient only
/// enters the T = Tamb + dT shift, never the conductance operator). The
/// sharing engages under the stencil backend with an incremental mode;
/// the generic backend and IncrementalMode::Off solve corner by corner
/// (still through one lockstep loop, so results cannot diverge from the
/// sequential path either way). base.observer fires for every corner; in
/// a batch its callbacks interleave across corners by iteration rather
/// than corner by corner.
std::vector<GuardbandResult> guardband_batch(const Implementation& impl,
                                             const coffe::DeviceModel& dev,
                                             const GuardbandOptions& base,
                                             const std::vector<GuardbandCorner>& corners);

/// Eq. (1)-based grade selection: the device (by index) with the lowest
/// expected representative-CP delay over a uniform [t_min, t_max] field
/// temperature range. Throws std::invalid_argument for an empty device
/// list. A reversed range is normalized (swapped); a degenerate range
/// (t_min == t_max) compares the point delay at that temperature.
int select_grade(const std::vector<coffe::DeviceModel>& devices, units::Celsius t_min,
                 units::Celsius t_max);

}  // namespace taf::core
