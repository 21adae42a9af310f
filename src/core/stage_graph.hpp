#pragma once
// Explicit stage decomposition of the implementation flow.
//
// core::implement() used to be one monolithic function; it is now a
// FlowGraph of FlowStages — Pack, Place, Route, Activity, StaBuild, plus
// ThermalPlace before StaBuild when the place->thermal feedback edge is
// on — each declaring its input/output artifact kinds and carrying a content
// hash of its inputs (chained over the graph, so a change to any
// upstream stage's inputs or parameters changes every downstream hash).
// The graph preserves the exact computation order, RNG usage and
// observer phase marks of the monolith: results are bit-identical and
// bench stdout is byte-identical.
//
// The seam this buys: StageHooks lets a layer *above* core (the runner's
// on-disk artifact store) intercept each storable stage — substituting a
// previously stored artifact for the stage's computation, and capturing
// freshly computed artifacts for storage — without core depending on any
// storage backend. Stage payloads are encoded with util/codec.hpp via
// the per-layer serialize()/deserialize() functions.

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "core/flow.hpp"

namespace taf::core {

/// Artifacts flowing between stages. Netlist is seeded by the driver
/// (generated, never a stage output); Sta is in-memory only.
enum class ArtifactKind {
  Netlist = 0,
  Packed,
  Placement,
  Routes,
  Activity,
  Sta,
  /// Output of the place->thermal feedback edge (present only when
  /// ImplementOptions::thermal_place.enabled): the thermally refined
  /// placement together with its routes, as one artifact. A distinct
  /// kind — FlowGraph::add forbids re-producing an artifact, so the
  /// refinement cannot silently shadow the thermally-blind stages it
  /// consumes.
  PlacementRefined,
};
const char* artifact_kind_name(ArtifactKind kind);

/// In-flight state of one implement() run. The netlist and the pack
/// output live here until the Pack stage's finalize step materializes
/// the pinned Implementation; every later stage writes into `impl`.
struct FlowBuild {
  FlowBuild(const netlist::BenchmarkSpec& s, const arch::ArchParams& a,
            const ImplementOptions& o)
      : spec(s), arch(a), opt(o) {}

  const netlist::BenchmarkSpec& spec;
  const arch::ArchParams& arch;
  const ImplementOptions& opt;
  netlist::Netlist nl{std::string{}};   ///< generated by FlowGraph::run
  pack::PackedNetlist packed;           ///< staged until `impl` exists
  std::unique_ptr<Implementation> impl; ///< materialized after Pack
};

/// One stage of the flow graph.
struct FlowStage {
  const char* name = "";                ///< stable id; artifact kind on disk
  FlowPhase phase = FlowPhase::Pack;    ///< observer phase label
  ArtifactKind output = ArtifactKind::Packed;
  std::vector<ArtifactKind> inputs;
  /// Hash of the stage's own parameters (seed, effort, router knobs...).
  std::uint64_t param_hash = 0;
  /// Content hash of the stage's inputs: chained by FlowGraph::add from
  /// param_hash and the producing stages' hashes. This is the stage's
  /// identity for the artifact store (plus the codec version, added by
  /// the store itself).
  std::uint64_t input_hash = 0;
  /// Whether the output artifact has a codec round-trip (StaBuild's
  /// analyzer and activity maps are rebuilt, never stored).
  bool storable = false;
  /// Compute the stage's output from its inputs.
  std::function<void(FlowBuild&)> run;
  /// Deterministic fix-up after the output exists, whether computed or
  /// loaded (Pack: materialize the Implementation; Route and ThermalPlace:
  /// overuse warn).
  std::function<void(FlowBuild&)> finalize;
  /// Encode the output artifact (storable stages only; called after
  /// finalize, so the artifact is read from its final location).
  std::function<std::string(const FlowBuild&)> save;
  /// Decode and install a stored artifact in place of run(). Throws
  /// util::codec::Error on a malformed payload; the driver degrades to
  /// running the stage.
  std::function<void(FlowBuild&, std::string_view)> load;
};

/// Storage seam (implemented by runner::ArtifactStore). Hooks deal only
/// in encoded payload bytes keyed by (stage name, stage input_hash);
/// core never sees files.
struct StageHooks {
  /// Fetch the stored payload for a stage; return false on a miss.
  std::function<bool(const FlowStage& stage, std::string& payload)> fetch;
  /// Offer a freshly computed stage payload for storage. Only called for
  /// stages that actually ran (loads are never re-stored).
  std::function<void(const FlowStage& stage, const std::string& payload)> store;
};

/// Dependency-ordered stage container and driver.
class FlowGraph {
 public:
  /// Append a stage. Validates that every input artifact is produced by
  /// an earlier stage (or seeded), then chains input_hash from
  /// param_hash and the input artifacts' content hashes.
  void add(FlowStage stage);

  /// Register an externally produced artifact (the generated netlist)
  /// with its content hash, making it available as a stage input.
  void seed_artifact(ArtifactKind kind, std::uint64_t content_hash);

  const std::vector<FlowStage>& stages() const { return stages_; }

  /// Execute the flow: generate the netlist (deterministic in
  /// spec/seed), then run every stage in order. For each storable stage,
  /// `hooks` (when non-null) is consulted first; a fetched payload that
  /// fails to decode logs one warning and falls back to running the
  /// stage. Phase durations are reported through build.opt.observer.
  void run(FlowBuild& build, const StageHooks* hooks) const;

  /// The standard implement() graph for a spec/arch/options triple, with
  /// all stage hashes populated. The final stage's input_hash identifies
  /// the whole implementation. Throws std::invalid_argument when the
  /// feedback edge is enabled without a device.
  static FlowGraph standard(const netlist::BenchmarkSpec& spec,
                            const arch::ArchParams& arch,
                            const ImplementOptions& opt);

 private:
  bool available(ArtifactKind kind) const;
  std::uint64_t hash_of(ArtifactKind kind) const;

  std::vector<FlowStage> stages_;
  std::vector<std::pair<ArtifactKind, std::uint64_t>> artifacts_;
};

}  // namespace taf::core
