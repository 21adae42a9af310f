#pragma once
// The paper's core contribution: thermal-aware guardbanding (Algorithm 1)
// and thermal-aware device/grade selection, driving the full CAD stack
// (pack -> place -> route -> activity -> power -> thermal -> STA).

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iterator>
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
#include "util/build_once_map.hpp"
#include "util/counters.hpp"
#include "util/units.hpp"

namespace taf::core {

/// Identity of a steady-state thermal operator: everything of a
/// ThermalGrid that its solves depend on except the ambient, which only
/// shifts the answer. Compared by value, never by address.
struct ThermalOperatorKey {
  int width = 0;
  int height = 0;
  double lateral_g = 0.0;
  double vertical_g = 0.0;
  double solve_tol_k = 0.0;

  bool operator==(const ThermalOperatorKey&) const = default;
};

struct ThermalOperatorKeyHash {
  std::size_t operator()(const ThermalOperatorKey& k) const;
};

/// Thermal responses [K] of power::uniform_power_basis, one per term,
/// solved at zero ambient.
using UnitResponses = std::vector<std::vector<double>>;

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
  // Derived from the final artifacts by the StaBuild stage; never stored.
  std::unique_ptr<timing::TimingAnalyzer> sta;
  power::TileActivity tile_activity;  ///< dynamic-power activity per tile, priced per call
  /// Unit responses per thermal operator, built by the first guardband()
  /// on that operator and shared by every later call and thread; they
  /// start Algorithm 1's first thermal solve (DESIGN.md section 8).
  mutable util::BuildOnceMap<ThermalOperatorKey, UnitResponses, ThermalOperatorKeyHash>
      unit_responses;

  Implementation(arch::ArchParams a, netlist::Netlist n, arch::FpgaGrid g)
      : arch(a), nl(std::move(n)), grid(g), rr(grid, arch) {}
  Implementation(const Implementation&) = delete;
  Implementation& operator=(const Implementation&) = delete;
};

/// CAD/analysis phases reported through FlowObserver, as X(id, name):
/// the FlowPhase enumerator and its report label, in enum order. The
/// runner's sweep reports aggregate per-task time under these labels.
/// StaBuild is TimingAnalyzer construction (the route-tree walk) plus the
/// per-tile activity maps (power::TileActivity).
#define TAF_FLOW_PHASES(X) \
  X(Pack, "pack")          \
  X(Place, "place")        \
  X(Route, "route")        \
  X(Activity, "activity")  \
  X(StaBuild, "sta_build") \
  X(Sta, "sta")            \
  X(Power, "power")        \
  X(Thermal, "thermal")

#define TAF_FLOW_PHASE_ENUMERATOR(id, name) id,
enum class FlowPhase { TAF_FLOW_PHASES(TAF_FLOW_PHASE_ENUMERATOR) };
#undef TAF_FLOW_PHASE_ENUMERATOR

#define TAF_FLOW_PHASE_NAME(id, name) name,
inline constexpr const char* kFlowPhaseNames[] = {TAF_FLOW_PHASES(TAF_FLOW_PHASE_NAME)};
#undef TAF_FLOW_PHASE_NAME

inline constexpr int kNumFlowPhases = static_cast<int>(std::size(kFlowPhaseNames));
const char* flow_phase_name(FlowPhase phase);

/// Work performed by the Algorithm 1 loop of one guardband() call
/// (priming/baseline/margin analyses excluded). The loop re-times only a
/// map another iteration will read, so a run that converges in one
/// iteration reports no STA work.
struct GuardbandStats {
  std::uint64_t edges_reevaluated = 0;  ///< connection delays re-derived
  std::uint64_t delay_cache_hits = 0;   ///< cached connection delays reused
  /// Thermal CG iterations of every loop solve. Iteration 1 starts from
  /// first_solve_start(), which already is its answer up to the unit
  /// solves' residuals, so that solve costs ~0 iterations (often
  /// exactly 0). The one-off build of the unit responses is not counted:
  /// whichever call builds them would otherwise report more work.
  std::uint64_t cg_iterations = 0;
};

/// Per-thread accumulation of flow work counters, as X(name, doc), in the
/// mold of spice::thread_counters(): the runner snapshots them around each
/// task. The transient counters (DynamicGuardband replays; see
/// core/dynamic.hpp) are kept apart from the steady-state thermal ones so
/// Algorithm 1 and trace-replay work never conflate. The place->thermal
/// feedback counters stay zero whenever that stage is off or its refined
/// placement was served from the artifact store.
#define TAF_FLOW_COUNTERS(X)                                                  \
  X(guardband_runs, "guardband() calls")                                      \
  X(guardband_nonconverged, "runs that exhausted max_iterations unconverged") \
  X(sta_edges_reevaluated, "connection delays re-derived by incremental STA") \
  X(sta_delay_cache_hits, "cached connection delays reused")                  \
  X(thermal_cg_iterations, "Algorithm 1 thermal CG iterations (loop solves)") \
  X(transient_steps, "backward-Euler steps of trace replays")                 \
  X(transient_cg_iterations, "CG iterations those steps cost")                \
  X(thermal_adjoint_solves, "thermal_place tiebreak peak thermal solves")     \
  X(replace_moves, "re-place moves proposed by thermal_place refinement")

struct FlowCounters {
  TAF_COUNTER_MEMBERS(FlowCounters, TAF_FLOW_COUNTERS)
};

/// Counters of the calling thread (thread-local; never contended).
FlowCounters& thread_flow_counters();

/// Optional progress/instrumentation hooks. implement() and guardband()
/// are re-entrant: all state is task-local, so one observer per task is
/// safe under concurrent flows (the observer itself is only invoked from
/// the calling thread).
struct FlowObserver {
  /// One Algorithm 1 iteration's outcome and work. An iteration prices
  /// power at its clock, solves thermal, and re-times the new map only
  /// when another iteration will read it; iteration 1's STA is the
  /// priming pass at ambient. Counter fields are the STA work done in the
  /// iteration (zero for the last one); they sum to GuardbandResult::stats.
  struct IterationInfo {
    int iteration = 0;
    units::Megahertz fmax_mhz{0.0};  ///< clock the iteration priced power at
    units::Kelvin max_delta_c{0.0};
    std::uint64_t edges_reevaluated = 0;
    std::uint64_t delay_cache_hits = 0;
    std::uint64_t cg_iterations = 0;
  };

  /// Called after each phase with its wall-clock duration.
  std::function<void(FlowPhase, units::Seconds)> on_phase;
  /// Called once after each Algorithm 1 iteration with its outcome and
  /// work.
  std::function<void(const IterationInfo&)> on_iteration;
};

/// Storage seam for the stage graph (see core/stage_graph.hpp): lets the
/// runner's artifact store substitute stored artifacts for stage
/// computations and capture fresh ones, without core knowing about disk.
struct StageHooks;

/// Timing-guarded re-place — the place->thermal feedback edge (DESIGN.md
/// section 15). Off by default: with enabled == false the flow graph,
/// every stage hash, and every result are untouched. When enabled, one
/// extra stage runs after the thermally-blind flow: `thermal_place`
/// prices power and solves the thermal map at the pricing point, then
/// greedily refines the wirelength by moving above-mean-power blocks
/// over short hops, for up to `passes` candidate passes. Every candidate
/// is rerouted, and the stage's one artifact is the accepted placement
/// with those routes; the final STA is built on it. Every pass is
/// guarded: it is kept only if its reroute has no more overused nodes
/// than the current routes and the design is strictly faster at the
/// pricing point, or equally fast with a strictly lower realized peak —
/// the feedback edge can only improve the implementation.
struct ThermalPlaceOptions {
  bool enabled = false;
  /// Device whose Table II characterization prices block dynamic power
  /// and leakage. Required when enabled (implement() throws otherwise);
  /// borrowed, not owned. The stage's content hash identifies the device
  /// by (name, t_opt_c) — sufficient because devices are deterministic in
  /// (technology, arch, t_opt) and both are already hashed upstream.
  const coffe::DeviceModel* device = nullptr;
  int passes = 4;          ///< candidate passes (a rejected pass retries with a new seed)
  double effort = 0.25;    ///< refinement move budget scale (see PlaceOptions)
  int max_rounds = 32;     ///< descent rounds per refinement pass
  /// Operating point the power map and the timing guard are priced at:
  /// design frequency and a uniform leakage temperature (the map is
  /// refreshed per pass, not per Algorithm 1 iteration, so a
  /// representative point suffices).
  units::Megahertz pricing_f_mhz{100.0};
  units::Celsius pricing_temp_c{60.0};
  /// Thermal model for the tiebreak's peak solves (conductances, tolerance).
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
/// the delta-T safety margin. Also runs the T_worst baseline STA. One
/// incremental STA session re-times only the tiles whose temperature
/// moved; the first thermal solve starts from first_solve_start() and
/// each later one from the previous iterate (DESIGN.md section 8).
/// tests/reference_guardband.hpp holds the full-recompute reference this
/// is checked against.
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
/// enters the T = Tamb + dT shift, never the conductance operator).
/// guardband() is the one-corner batch. base.observer fires for every
/// corner; in a batch its callbacks interleave across corners by
/// iteration rather than corner by corner.
std::vector<GuardbandResult> guardband_batch(const Implementation& impl,
                                             const coffe::DeviceModel& dev,
                                             const GuardbandOptions& base,
                                             const std::vector<GuardbandCorner>& corners);

/// The field Algorithm 1's first thermal solve starts CG from, for the
/// corner `opt` priced at clock f (guardband() passes its priming fmax):
/// the ambient plus opt.power_scale times the superposition of the
/// implementation's unit responses (Implementation::unit_responses, built
/// here on first use) weighted by power::uniform_power_coefficients(dev,
/// f, opt.t_amb_c). That is the cold solve of the iteration's power map
/// up to the unit solves' residuals, so CG only certifies it. A pure
/// function of (impl, dev, corner, thermal operator); at power_scale 0 it
/// is the ambient field bitwise.
std::vector<double> first_solve_start(const Implementation& impl,
                                      const coffe::DeviceModel& dev,
                                      const GuardbandOptions& opt, units::Megahertz f);

/// Eq. (1)-based grade selection: the device (by index) with the lowest
/// expected representative-CP delay over a uniform [t_min, t_max] field
/// temperature range. Throws std::invalid_argument for an empty device
/// list. A reversed range is normalized (swapped); a degenerate range
/// (t_min == t_max) compares the point delay at that temperature.
int select_grade(const std::vector<coffe::DeviceModel>& devices, units::Celsius t_min,
                 units::Celsius t_max);

}  // namespace taf::core
