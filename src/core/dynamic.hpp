#pragma once
// Dynamic-workload guardbanding on top of the transient thermal engine
// (DESIGN.md section 13).
//
// Three pieces:
//   * ActivityTrace — a piecewise-constant per-block utilization
//     schedule. This header/dynamic.cpp pair is the single sanctioned
//     owner of the trace's text and wire representations (taf-analyze
//     rule trace-codec-seam): everyone else goes through parse_text /
//     to_text / serialize / deserialize / the envelope helpers, so the
//     format cannot fork the way raw-serialization protects artifacts.
//   * DynamicGuardband — replays a trace through thermal::TransientEngine
//     over one implemented design, re-times the design at each sampled
//     temperature field (IncrementalSta — bit-identical to a full STA),
//     and emits the time-resolved safe fmax plus throttle decisions.
//     A replay is a pure function of (implementation, device,
//     options, trace): bit-identical on every rerun, which is what the
//     guardband_trace service kind's determinism contract pins.
//   * allocate_tasks — the greedy Hung-style task-to-tile allocator:
//     place N kernels on one fabric to minimize peak temperature.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "coffe/device_model.hpp"
#include "core/flow.hpp"
#include "thermal/thermal_grid.hpp"
#include "thermal/transient.hpp"
#include "util/codec.hpp"
#include "util/units.hpp"

namespace taf::core {

/// Codec-envelope kind of a serialized ActivityTrace.
inline constexpr std::string_view kTraceKind = "activity-trace";

/// Hard structural caps: deserialization rejects anything larger before
/// allocating (the oversized-count arm of the fuzz corpus).
inline constexpr int kMaxTraceBlocks = 256;
inline constexpr int kMaxTraceSegments = 4096;
/// Largest per-block utilization; mirrors the service's activity-scale
/// domain (overdrive beyond 1.0 models activity hotter than the
/// characterized estimate).
inline constexpr double kMaxTraceUtilization = 100.0;

/// One constant-utilization interval. Segments tile [0, duration())
/// back to back; each records its absolute *end* time, so timestamps
/// must be strictly increasing — the canonical malformed-input case.
struct TraceSegment {
  units::Seconds t_end{0.0};
  /// One utilization per block, in [0, kMaxTraceUtilization].
  std::vector<double> utilization;

  bool operator==(const TraceSegment&) const = default;
};

/// Piecewise-constant per-block utilization schedule.
///
/// Text form (strict; parse_text round-trips to_text bit-exactly):
///
///   taf-trace v1
///   blocks 2
///   0.005 1 0.25
///   0.01 0.1 1
///
/// Line 1 is the magic+version, line 2 the block count, then one line
/// per segment: the end timestamp followed by `blocks` utilizations.
/// Blank lines and `#` comment lines are ignored.
struct ActivityTrace {
  int blocks = 1;
  std::vector<TraceSegment> segments;

  bool operator==(const ActivityTrace&) const = default;

  /// End time of the last segment (the trace's total duration).
  units::Seconds duration() const {
    return segments.empty() ? units::Seconds{0.0} : segments.back().t_end;
  }

  /// Semantic validation: block count and segment count within the caps,
  /// at least one segment, strictly increasing positive finite end
  /// times, per-segment utilization width == blocks, every utilization
  /// finite and in [0, kMaxTraceUtilization]. Throws
  /// std::invalid_argument naming the first offense.
  void validate() const;

  /// A single-block square wave: `cycles` periods of `period`, each
  /// spending duty * period at utilization `hi` then the rest at `lo`.
  /// duty in (0, 1] (duty == 1 emits one hi segment per period).
  static ActivityTrace duty_cycle(int cycles, units::Seconds period, double duty,
                                  double hi, double lo);

  std::string to_text() const;
  /// Parses the text form; throws std::invalid_argument on any defect
  /// (bad header, token garbage, count over the caps, or anything
  /// validate() rejects).
  static ActivityTrace parse_text(std::string_view text);

  /// Codec payload (DESIGN.md section 10 layout rules). deserialize
  /// rejects structural damage — truncation, counts over the caps — with
  /// codec::Error but does NOT validate() semantics, so a protocol
  /// decoder can classify a well-formed-but-out-of-domain trace (NaN
  /// utilization, non-monotone end times) as a bad parameter rather than
  /// a malformed frame. replay() revalidates regardless.
  void serialize(util::codec::Encoder& enc) const;
  static ActivityTrace deserialize(util::codec::Decoder& dec);

  /// Full codec envelope of kind kTraceKind (what the artifact store or
  /// a file on disk holds). from_envelope unwraps, decodes, requires the
  /// payload be consumed exactly, and validate()s — a returned trace is
  /// always usable.
  std::string to_envelope() const;
  static ActivityTrace from_envelope(std::string_view envelope);
};

struct DynamicGuardbandOptions {
  units::Celsius t_amb_c{25.0};
  /// Safety margin applied to the sampled temperature field before
  /// re-timing (the same delta-T pricing as Algorithm 1's final margin).
  units::Kelvin margin_c{1.0};
  /// Junction ceiling: a sample whose margin-applied peak exceeds this
  /// is flagged throttled and its dwell accrues throttled time.
  units::Celsius throttle_c{85.0};
  /// ambient_c and tile_edge_um are overridden from t_amb_c / the
  /// implementation's architecture, mirroring guardband().
  thermal::ThermalConfig thermal;
  thermal::TransientOptions transient;
  /// Temperature/fmax samples recorded per trace segment (>= 1); the
  /// transient engine advances in samples_per_segment equal sub-dwells.
  int samples_per_segment = 4;
  /// Multiplier on the base power map (the guardband() metamorphic seam).
  double power_scale = 1.0;
  /// Which trace block drives each tile (-1 = background: always at
  /// utilization 1). Empty means every tile follows block 0 — the
  /// whole-device traces the service replays. Sized to the tile count
  /// otherwise, with every entry < the trace's block count.
  std::vector<int> tile_block;
};

/// One recorded instant of a replay.
struct DynamicSample {
  double time_s = 0.0;       ///< trace time at the sample
  double peak_temp_c = 0.0;  ///< hottest tile (no margin)
  double mean_temp_c = 0.0;
  double fmax_mhz = 0.0;     ///< safe frequency at temps + margin_c
  bool throttled = false;    ///< margin-applied peak above throttle_c
};

struct DynamicResult {
  std::vector<DynamicSample> samples;  ///< t=0 plus one per sub-dwell
  units::Celsius peak_temp_c{0.0};     ///< max over the whole replay
  units::Megahertz min_fmax_mhz{0.0};  ///< sustained safe frequency
  units::Seconds throttled_s{0.0};     ///< dwell spent above throttle_c
  thermal::TransientStats stats;
};

/// Trace replay engine over one implemented design. Holds the thermal
/// grid and the full-utilization base power map (computed once, at the
/// uniform-ambient priming fmax like guardband()'s first iteration);
/// replay() scales that map by each segment's per-block utilization.
/// The implementation and device must outlive the engine. replay() is
/// const and allocates only task-local state, so one engine may serve
/// concurrent replays (the service's admission groups).
class DynamicGuardband {
 public:
  DynamicGuardband(const Implementation& impl, const coffe::DeviceModel& dev,
                   DynamicGuardbandOptions opt = {});

  /// Replay a validated trace. Throws std::invalid_argument when the
  /// trace fails validate() or its block count does not cover
  /// options().tile_block. Folds the transient work into
  /// thread_flow_counters() (transient_steps / transient_cg_iterations).
  DynamicResult replay(const ActivityTrace& trace) const;

  const DynamicGuardbandOptions& options() const { return opt_; }
  const thermal::ThermalGrid& grid() const { return grid_; }
  /// Full-utilization per-tile power map [W] the replay scales.
  const std::vector<double>& base_power_w() const { return base_power_w_; }
  /// Priming frequency the base power map was computed at.
  units::Megahertz priming_fmax_mhz() const { return priming_fmax_mhz_; }

 private:
  const Implementation& impl_;
  const coffe::DeviceModel& dev_;
  DynamicGuardbandOptions opt_;
  thermal::ThermalGrid grid_;
  thermal::TransientEngine engine_;
  std::vector<double> base_power_w_;
  units::Megahertz priming_fmax_mhz_{0.0};
};

/// One kernel to place: its active power, spread uniformly over a
/// near-square footprint of `tiles` tiles.
struct TaskSpec {
  units::Watts power_w{0.0};
  int tiles = 1;
};

struct AllocatorOptions {
  /// Anchor-grid stride when scanning candidate placements (1 = every
  /// position). Purely a cost knob; results stay deterministic.
  int anchor_stride = 1;
};

struct Allocation {
  /// Task index owning each tile, -1 for unassigned background.
  std::vector<int> tile_block;
  /// Steady-state peak of the placed power map at full utilization — an
  /// upper bound on any transient excursion of the same schedule.
  units::Celsius peak_temp_c{0.0};
  /// Candidate steady solves the greedy scan performed (cost diagnostic).
  std::uint64_t candidate_solves = 0;
};

/// Greedy Hung-style thermal-aware allocator: tasks are placed in
/// descending power-density order; each takes the anchor position whose
/// tentative steady-state solve (background + already-placed + this
/// task) has the lowest peak temperature — hottest kernels claim the
/// thermally cheapest regions first, later kernels spread away from
/// them. Footprints are near-square rectangles scanned row-major on the
/// anchor grid; ties keep the first (lowest-anchor) candidate, so the
/// result is deterministic. background_power_w (empty = zeros) is the
/// always-on floor under every candidate solve. Throws
/// std::invalid_argument on malformed inputs and std::runtime_error when
/// a task cannot be placed without overlap.
Allocation allocate_tasks(const thermal::ThermalGrid& grid,
                          const std::vector<TaskSpec>& tasks,
                          const std::vector<double>& background_power_w = {},
                          const AllocatorOptions& opt = {});

}  // namespace taf::core
