#pragma once
// PathFinder negotiated-congestion router (the VPR route stage).
//
// Every block-level net is routed from its driver's OPIN to each sink's
// IPIN over the RR graph. Congestion is negotiated: present overuse is
// priced by a growing pres_fac, history cost accumulates on persistently
// overused nodes, and only congested nets are ripped up between
// iterations. A* with a distance heuristic orders each search, and each
// search ends as soon as an admissible lower bound proves that no open
// entry can still improve its path (DESIGN.md section 16). reroute() runs
// the same loop from a previous result, routing first only the nets a
// placement change touched.

#include <vector>

#include "pack/pack.hpp"
#include "place/place.hpp"
#include "route/rr_graph.hpp"
#include "util/codec.hpp"

namespace taf::route {

/// The routed tree of one block-net: for each sink (same order as
/// BlockNet::sink_blocks) the node path from a tree attachment point to
/// the sink IPIN. Wire nodes on the paths define SB-hop timing.
struct NetRoute {
  /// paths[s] = RR nodes from (exclusive) tree attachment to sink IPIN
  /// (inclusive), in traversal order.
  std::vector<std::vector<RrNodeId>> paths;
  /// All RR nodes occupied by this net (deduped).
  std::vector<RrNodeId> nodes;
  /// Tree parent pointers as (node, parent) pairs; the source OPIN has no
  /// entry. Walking a sink IPIN to the source yields its full path — the
  /// thermal-aware STA prices every SB hop at its own tile temperature.
  /// A net that failed to route has empty nodes, paths and parents.
  std::vector<std::pair<RrNodeId, RrNodeId>> parents;
};

struct RouteResult {
  bool success = false;
  int iterations = 0;
  int overused_nodes = 0;
  std::vector<NetRoute> routes;  ///< indexed like PackedNetlist::block_nets
  double wire_utilization = 0.0; ///< occupied wires / total wires
};

struct RouteOptions {
  int max_iterations = 30;
  double first_iter_pres_fac = 0.8;
  double pres_fac_mult = 2.0;
  double hist_fac = 1.0;
  /// Weight of the A* heuristic: astar_fac * (anchor-tile Manhattan
  /// distance) / wire_segment_length. It only orders heap pops and may
  /// overestimate (at 0.85, 0.64 against 0.5 next to the target); the
  /// early exit uses its own admissible bound, remaining_cost_bound().
  double astar_fac = 0.85;
};

/// Cost of entering `node` with no history and no congestion: 1.0 per
/// wire, 0.5 per IPIN, 0.6 per OPIN. Entry costs never fall below it.
double base_cost(const RrNode& node);

/// Lower bound on the summed base_cost() of the nodes after `node` on any
/// path from `node` to the IPIN `target` (DESIGN.md section 16): 0 at the
/// target, +infinity at any other IPIN. It is admissible (at most the
/// cheapest such path) and consistent (at most base_cost(v) plus the bound
/// at v, over every edge node -> v). The A* search ends on it. Throws
/// std::invalid_argument if `node` or `target` is outside `rr` or
/// `target` is not an IPIN.
double remaining_cost_bound(const RrGraph& rr, RrNodeId node, RrNodeId target);

/// An upper bound on the A* heuristic minus remaining_cost_bound() at any
/// wire, toward any target IPIN, under `opt`'s astar_fac (DESIGN.md
/// section 16). It bounds how far above the early exit's threshold the
/// priority of an entry the exit must wait for can lie. Throws
/// std::invalid_argument for options route() rejects.
double heuristic_excess(const RrGraph& rr, const RouteOptions& opt = {});

/// Route every net of placement `pl` from scratch: reroute() with
/// nothing kept.
RouteResult route(const RrGraph& rr, const pack::PackedNetlist& packed,
                  const place::Placement& pl, const RouteOptions& opt = {});

/// Incremental reroute after a placement change (VPR's incremental
/// reroute). `seed` is a RouteResult of placement `from`; the result
/// routes placement `to`. Every net with no endpoint on a block that
/// moved between `from` and `to` keeps its tree and its occupancy; only
/// the nets touching a moved block, and any net unrouted in `seed`, are
/// routed in iteration 1. Later iterations rip up congested nets exactly
/// as route() does, and history starts at zero. With every block moved
/// the result is byte-identical to route(rr, packed, to, opt). Throws
/// std::invalid_argument when `from`/`to` do not place every packed
/// block, `seed` does not hold one route per packed net, or a kept route
/// names a node outside `rr`.
RouteResult reroute(const RrGraph& rr, const pack::PackedNetlist& packed,
                    const place::Placement& from, const place::Placement& to,
                    const RouteResult& seed, const RouteOptions& opt = {});

/// `opt` with first_iter_pres_fac set to the present factor of `seed`'s
/// last iteration, where it converged: first_iter_pres_fac *
/// pres_fac_mult^(seed.iterations - 1), grown and capped at 1e6 exactly
/// as the PathFinder loop grows it.
/// A reroute seeded from `seed` resumes negotiation there instead of at
/// the first-iteration factor, so the dirty nets do not pile onto kept
/// trees that the seed's congestion already settled. A one-iteration
/// seed returns `opt` unchanged.
RouteOptions resumed_options(const RouteOptions& opt, const RouteResult& seed);

/// Artifact codec (util/codec.hpp): exact round-trip, byte-identical on
/// re-serialization. RR node ids are stored raw; they are only valid for
/// the RrGraph deterministically rebuilt from the same grid/arch.
void serialize(const RouteResult& result, util::codec::Encoder& enc);
RouteResult deserialize(util::codec::Decoder& dec);

}  // namespace taf::route
