#pragma once
// Block-level static timing analysis with per-tile temperatures.
//
// This is the paper's modified VPR timing analyzer: every delay element
// (LUT, mux, wire SB driver, BRAM, DSP) is evaluated from the
// characterized DeviceModel at the temperature of the tile it physically
// occupies, so the same netlist yields different critical paths at
// different temperature maps — the paper stresses that the entire
// netlist must be re-probed because the critical path itself moves.

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "arch/fpga_grid.hpp"
#include "coffe/device_model.hpp"
#include "netlist/netlist.hpp"
#include "pack/pack.hpp"
#include "place/place.hpp"
#include "route/router.hpp"
#include "route/rr_graph.hpp"
#include "util/stats.hpp"
#include "util/units.hpp"

namespace taf::timing {

struct TimingOptions {
  units::Picoseconds ff_setup_ps{30.0};
  units::Picoseconds ff_clk_to_q_ps{45.0};
  units::Picoseconds bram_setup_ps{60.0};
  units::Picoseconds io_delay_ps{0.0};
};

/// Result of one STA pass.
struct TimingResult {
  units::Picoseconds critical_path_ps{0.0};
  units::Megahertz fmax_mhz{0.0};
  /// Delay contribution of each resource kind on the critical path [ps]
  /// (indexed by coffe::ResourceKind; bulk per-kind map, raw double by
  /// design — see DESIGN.md section 9).
  std::array<double, coffe::kNumResourceKinds> cp_breakdown{};
  /// Primitives on the critical path, launch to capture.
  std::vector<netlist::PrimId> cp_prims;

  /// Share of the critical path spent in a resource kind.
  double cp_share(coffe::ResourceKind k) const {
    return critical_path_ps.value() > 0.0
               ? cp_breakdown[static_cast<std::size_t>(k)] / critical_path_ps.value()
               : 0.0;
  }
};

/// Work counters of an IncrementalSta session, cumulative across its
/// analyze() calls (resettable — core::guardband() uses the deltas to
/// report per-iteration work).
struct StaCounters {
  /// Connection delays re-derived from the DeviceModel because a touched
  /// tile's temperature moved past the session's refresh predicate.
  std::uint64_t edges_reevaluated = 0;
  /// Cached connection delays (arc totals) reused while recomputing an
  /// arrival or capture time.
  std::uint64_t delay_cache_hits = 0;
};

class TimingAnalyzer;

/// Immutable adjacency/geometry shared by every IncrementalSta session
/// over one analyzer. Built once in the TimingAnalyzer constructor —
/// guardband() creates one session per call, so the session constructor
/// must only allocate mutable state, not rebuild topology.
///
/// Connections whose delay is the same expression share one *arc*: a
/// distinct (same_block, source tile, wire-tile sequence, destination
/// tile) list. Every sink of a net in one destination tile walks the
/// same route back from that tile's IPIN, every intra-block connection
/// of a tile is one feedback mux, and short routes between two tiles
/// often repeat across nets, so there are about 3x fewer arcs than
/// connections. A session sums each arc once and connections read their
/// total through conn_arc_.
struct IncrementalTopology {
  /// One entry of the capture scan, mirroring the order of the
  /// full-recompute reference (tests/reference_sta.hpp): prim-id
  /// ascending; FF/BRAM expand to one entry per incoming connection,
  /// primary outputs to a single arrival entry (conn == -1).
  struct CaptureEntry {
    netlist::PrimId prim;
    int conn;                     ///< capture connection, or -1 for a primary output
    units::Picoseconds setup_ps;  ///< 0 for outputs
  };

  int n_tiles_ = 0;
  // Flat tile indices (not TilePos); all per-prim, per-arc and per-tile
  // lists are CSR to avoid one allocation per primitive. Connection
  // endpoints and primitive kinds are copied into dense arrays — the
  // propagation loop must not stride through Primitive (embedded
  // strings) records.
  std::vector<netlist::PrimKind> prim_kind_;    ///< kind of each primitive
  std::vector<int> prim_tile_;                  ///< tile of each primitive's block
  std::vector<netlist::PrimId> conn_src_;       ///< source prim per conn
  std::vector<netlist::PrimId> conn_dst_;       ///< dest prim per conn
  std::vector<int> conn_arc_;                   ///< arc per conn
  std::vector<int> conn_in_flat_;               ///< incoming conns per prim, CSR
  std::vector<int> conn_in_start_;
  std::vector<int> conn_out_flat_;              ///< outgoing conns per prim, CSR
  std::vector<int> conn_out_start_;
  /// Propagation edges whose combinational source sits later in topo_
  /// than their destination (DSP feedback: topo_order() does not gate on
  /// DSP inputs). A full recompute reads such a source's arrival before it
  /// is computed — i.e. its per-call initial value 0 — so a session
  /// must pin the contribution to 0 rather than use the cached arrival.
  std::vector<char> conn_src_frozen_;
  // Each arc's delay expression, taken from its first connection.
  std::vector<char> arc_same_block_;            ///< intra-block (feedback) arc
  std::vector<int> arc_src_tile_;               ///< source tile per arc
  std::vector<int> arc_dst_tile_;               ///< dest tile per arc
  std::vector<int> arc_wire_flat_;              ///< all arcs' wire tiles, CSR
  std::vector<int> arc_wire_start_;             ///< CSR offsets into arc_wire_flat_
  int max_hops_ = 0;                            ///< most wire tiles on one arc
  std::vector<int> arc_conn_flat_;              ///< conns per arc, CSR
  std::vector<int> arc_conn_start_;
  std::vector<int> tile_arc_flat_;              ///< arcs touching a tile, CSR
  std::vector<int> tile_arc_start_;
  std::vector<netlist::PrimId> tile_prim_flat_; ///< tile-delayed prims, CSR
  std::vector<int> tile_prim_start_;
  std::vector<CaptureEntry> captures_;
  std::vector<int> capture_of_conn_;            ///< conn -> captures_ index or -1

  /// Walks every (net, sink) connection's route tree once and interns
  /// it into its arc; no per-connection wire-tile list is kept. Reads the
  /// analyzer's topological order and options.
  void build(const TimingAnalyzer& an, const netlist::Netlist& nl,
             const pack::PackedNetlist& packed, const place::Placement& pl,
             const route::RrGraph& rr, const route::RouteResult& routes,
             const arch::FpgaGrid& grid);
};

/// Timing view of a fully implemented design (netlist through routing):
/// the immutable topology every IncrementalSta session over it shares.
/// The constructor reads its arguments once; none of them need outlive
/// the analyzer.
class TimingAnalyzer {
 public:
  TimingAnalyzer(const netlist::Netlist& nl, const pack::PackedNetlist& packed,
                 const place::Placement& pl, const route::RrGraph& rr,
                 const route::RouteResult& routes, const arch::FpgaGrid& grid,
                 TimingOptions opt = {});

  /// STA with a uniform junction temperature (the conventional corner),
  /// through a one-shot IncrementalSta session. Per-tile maps go through
  /// a session directly.
  TimingResult analyze_uniform(const coffe::DeviceModel& dev, units::Celsius temp) const;

  /// Connections between primitives, one per (net, sink) pair.
  std::size_t num_connections() const { return inc_topo_.conn_src_.size(); }
  /// Distinct delay expressions among them, which a session sums once
  /// each (see IncrementalTopology).
  std::size_t num_arcs() const { return inc_topo_.arc_src_tile_.size(); }

 private:
  friend class IncrementalSta;
  friend struct IncrementalTopology;

  TimingOptions opt_;
  std::vector<netlist::PrimId> topo_;
  IncrementalTopology inc_topo_;  ///< built last in the constructor
};

/// Incremental re-analysis session over one (analyzer, device) pair.
///
/// Algorithm 1 re-times the same design at a sequence of nearby
/// temperature maps. A session caches, between analyze() calls: the
/// fanin/fanout adjacency (a full recompute rebuilds it per call), per-tile
/// delay tables for every resource kind, one delay total per arc (the
/// connections that share a delay expression; see IncrementalTopology),
/// and the arrival/critical-arc state — then repropagates arrival times
/// only downstream of the frontier of arcs whose delay actually changed,
/// or recomputes everything in one sweep when every tile moved (no
/// frontier to prune; on a uniform map each arc total is then looked up
/// by hop count). Evaluation order and arithmetic mirror the
/// full-recompute reference in tests/reference_sta.hpp expression for
/// expression, so the results are bit-identical to it (DESIGN.md sec. 8).
/// It is the only STA engine: a one-shot analysis is a fresh session's
/// first call. The work counters count connections, not arcs.
///
/// Not thread-safe; sessions are cheap and task-local (one per
/// guardband() call).
class IncrementalSta {
 public:
  IncrementalSta(const TimingAnalyzer& analyzer, const coffe::DeviceModel& dev);

  /// Re-analyze at a new temperature map. with_critical_path controls
  /// whether cp_prims/cp_breakdown are reconstructed (the in-loop callers
  /// only need fmax).
  TimingResult analyze(const std::vector<double>& tile_temp_c,
                       bool with_critical_path = true);

  const StaCounters& counters() const { return counters_; }
  void reset_counters() { counters_ = {}; }

 private:
  double tile_delay(coffe::ResourceKind k, int tile) const {
    return tile_delay_[static_cast<std::size_t>(k) * static_cast<std::size_t>(n_tiles_) +
                       static_cast<std::size_t>(tile)];
  }
  /// Cached delay total of connection `ci`, i.e. of its arc.
  double conn_total(int ci) const {
    return arc_total_[static_cast<std::size_t>(topo_.conn_arc_[static_cast<std::size_t>(ci)])];
  }
  void refresh_tile(int tile, double temp_c);
  double arc_delay_total(int arc) const;
  /// Every tile moved: re-derive every delay and arrival in one
  /// topological sweep (no frontier bookkeeping). `uniform`: every tile
  /// holds the same temperature bit pattern.
  void recompute_all(const std::vector<double>& tile_temp_c, bool uniform);
  /// Some tiles (dirty_tiles_) moved: repropagate downstream of their
  /// arcs only.
  void propagate_frontier(const std::vector<double>& tile_temp_c);
  /// Arrival at combinational prim `id` from the cached fanin state;
  /// records its critical incoming connection.
  double arrival_through(netlist::PrimId id);
  /// Critical endpoint over all capture entries into cached_cp_*.
  void scan_captures();
  void reconstruct_critical_path(TimingResult& result) const;

  using CaptureEntry = IncrementalTopology::CaptureEntry;

  const TimingAnalyzer* an_;
  const coffe::DeviceModel* dev_;
  int n_tiles_ = 0;

  // Per-kind linear delay fits copied out of the device (evaluating the
  // copy is the same arithmetic as DeviceModel::delay_ps).
  std::array<util::LinearFit, coffe::kNumResourceKinds> fit_{};

  // The analyzer's prebuilt topology (immutable, shared by all sessions;
  // a session allocates only the state below).
  const IncrementalTopology& topo_;

  // Cached analysis state (valid after the first analyze()).
  std::vector<double> base_temp_;     ///< temperature each tile's delays use
  std::vector<double> tile_delay_;    ///< [kind][tile] delay table [ps]
  std::vector<double> arc_total_;     ///< cached arc delay totals [ps]
  std::vector<double> arrival_;
  std::vector<int> crit_conn_;
  std::vector<double> capture_val_;   ///< cached data-arrival per capture entry
  bool primed_ = false;
  double cached_cp_ = 0.0;
  netlist::PrimId cached_cp_end_ = -1;
  int cached_cp_end_conn_ = -1;

  // Per-call scratch, sized once so no analyze() call allocates.
  std::vector<int> dirty_tiles_;
  std::vector<int> dirty_arcs_;
  std::vector<char> arc_dirty_;
  std::vector<char> node_pending_;
  std::vector<char> capture_pending_;
  std::vector<double> hop_total_;     ///< uniform-map total per hop count [ps]

  StaCounters counters_;
};

}  // namespace taf::timing
