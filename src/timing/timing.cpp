#include "timing/timing.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include "util/log.hpp"

namespace taf::timing {

namespace {

using coffe::ResourceKind;
using netlist::NetId;
using netlist::PrimId;
using netlist::PrimKind;

}  // namespace

TimingAnalyzer::TimingAnalyzer(const netlist::Netlist& nl,
                               const pack::PackedNetlist& packed,
                               const place::Placement& pl, const route::RrGraph& rr,
                               const route::RouteResult& routes,
                               const arch::FpgaGrid& grid, TimingOptions opt)
    : opt_(opt) {
  topo_ = nl.topo_order();
  inc_topo_.build(*this, nl, packed, pl, rr, routes, grid);
}

TimingResult TimingAnalyzer::analyze_uniform(const coffe::DeviceModel& dev,
                                             units::Celsius temp) const {
  const std::vector<double> temps(static_cast<std::size_t>(inc_topo_.n_tiles_), temp.value());
  return IncrementalSta(*this, dev).analyze(temps, /*with_critical_path=*/true);
}

// ---------------------------------------------------------------------------
// IncrementalSta

void IncrementalTopology::build(const TimingAnalyzer& an, const netlist::Netlist& nl,
                                const pack::PackedNetlist& packed, const place::Placement& pl,
                                const route::RrGraph& rr, const route::RouteResult& routes,
                                const arch::FpgaGrid& grid) {
  n_tiles_ = grid.num_tiles();

  const auto n_prims = nl.prims().size();
  prim_kind_.resize(n_prims);
  prim_tile_.resize(n_prims);
  for (PrimId id = 0; id < static_cast<PrimId>(n_prims); ++id) {
    prim_kind_[static_cast<std::size_t>(id)] = nl.prim(id).kind;
    const int b = packed.block_of_prim[static_cast<std::size_t>(id)];
    prim_tile_[static_cast<std::size_t>(id)] = grid.index_of(pl.pos[static_cast<std::size_t>(b)]);
  }

  // Connections, one per (net, sink) in net order, each interned into its
  // arc as soon as its wire tiles are known, so no per-connection tile
  // list is kept. Arcs live in an open-addressing table of arc ids,
  // hashed by the arc's (same_block, source tile, destination tile, wire
  // tiles) list. A probe hit is confirmed by comparing the lists, so only
  // equal expressions share an arc, in expected time linear in the total
  // wire-tile count.
  std::size_t n_conns = 0;
  for (const auto& net : nl.nets()) n_conns += net.sinks.size();
  conn_src_.reserve(n_conns);
  conn_dst_.reserve(n_conns);
  conn_arc_.reserve(n_conns);
  arc_wire_start_.assign(1, 0);
  const std::size_t mask = std::bit_ceil(2 * n_conns + 1) - 1;
  std::vector<int> arc_table(mask + 1, -1);
  auto mix = [](std::uint64_t h, int v) {
    return (h ^ static_cast<std::uint32_t>(v)) * 0x9e3779b97f4a7c15ull;
  };

  // Netlist net -> block-net index for routed path lookup (-1: none).
  std::vector<int> block_net_of(nl.nets().size(), -1);
  for (int i = 0; i < static_cast<int>(packed.block_nets.size()); ++i) {
    const NetId net = packed.block_nets[static_cast<std::size_t>(i)].net;
    block_net_of[static_cast<std::size_t>(net)] = i;
  }
  // Tree parent of each RR node for the net being walked, kNoParent off
  // its tree. Filled from the net's parent pairs (a repeated node keeps
  // its last pair) and reset after the net, so one array serves all nets.
  constexpr route::RrNodeId kNoParent = std::numeric_limits<route::RrNodeId>::min();
  std::vector<route::RrNodeId> parent(static_cast<std::size_t>(rr.num_nodes()), kNoParent);
  auto parent_of = [&](route::RrNodeId node) -> route::RrNodeId& {
    return parent[static_cast<std::size_t>(node)];
  };

  // Nets with a sink IPIN outside their routed tree (partial or failed
  // route), reported once per build rather than once per net.
  int nets_missing_sinks = 0;
  NetId last_net_missing_sinks = -1;
  for (NetId n = 0; n < static_cast<NetId>(nl.nets().size()); ++n) {
    const auto& net = nl.net(n);
    const int src_block = packed.block_of_prim[static_cast<std::size_t>(net.driver)];
    const int src_t = prim_tile_[static_cast<std::size_t>(net.driver)];

    // Parents of the routed tree (if this net leaves its block).
    const route::NetRoute* nr = nullptr;
    if (const int bn = block_net_of[static_cast<std::size_t>(n)]; bn >= 0) {
      nr = &routes.routes[static_cast<std::size_t>(bn)];
      for (const auto& [node, par] : nr->parents) {
        if (node < 0 || node >= rr.num_nodes() || par < 0 || par >= rr.num_nodes()) {
          throw std::invalid_argument(
              "timing: a routed tree names a node outside the RR graph");
        }
        parent_of(node) = par;
      }
    }

    // Straight-line SB hop estimate, used for unrouted nets and as the
    // fallback when a sink is missing from the routed tree.
    auto estimate_hops = [&](int to_block) {
      const arch::TilePos a = pl.pos[static_cast<std::size_t>(src_block)];
      const arch::TilePos b = pl.pos[static_cast<std::size_t>(to_block)];
      const int dist = std::abs(a.x - b.x) + std::abs(a.y - b.y);
      const int hops = std::max(1, (dist + 3) / 4);
      arc_wire_flat_.insert(arc_wire_flat_.end(), static_cast<std::size_t>(hops), src_t);
    };

    for (const auto& sink : net.sinks) {
      const int dst_block = packed.block_of_prim[static_cast<std::size_t>(sink.prim)];
      const char same_block = dst_block == src_block ? 1 : 0;
      // The candidate's wire tiles go on the end of arc_wire_flat_ and stay
      // only if they start a new arc.
      const auto wires_begin = static_cast<std::ptrdiff_t>(arc_wire_flat_.size());
      if (!same_block && nr != nullptr && !nr->nodes.empty()) {
        // Walk the routed tree from the sink IPIN back to the source.
        const arch::TilePos dst_pos = pl.pos[static_cast<std::size_t>(dst_block)];
        route::RrNodeId cur = rr.ipin_at(dst_pos.x, dst_pos.y);
        if (parent_of(cur) == kNoParent) {
          // The sink IPIN never made it into the routed tree (partial or
          // failed route). Charging zero wire delay here would silently
          // make the connection look free; estimate it instead.
          if (last_net_missing_sinks != n) ++nets_missing_sinks;
          last_net_missing_sinks = n;
          estimate_hops(dst_block);
        }
        int guard = 0;
        while (true) {
          const route::RrNodeId par = parent_of(cur);
          if (par == kNoParent) break;  // the source, or off the tree
          cur = par;
          const route::RrNode& node = rr.node(cur);
          if (node.kind == route::RrKind::WireH || node.kind == route::RrKind::WireV) {
            arc_wire_flat_.push_back(grid.index_of(node.tile));
          }
          if (++guard > rr.num_nodes()) {
            util::log_warn("timing: cyclic route parents on net %d", n);
            break;
          }
        }
      } else if (!same_block) {
        estimate_hops(dst_block);
      }

      const int dst_t = prim_tile_[static_cast<std::size_t>(sink.prim)];
      std::uint64_t h = mix(mix(mix(0, same_block), src_t), dst_t);
      for (auto w = arc_wire_flat_.begin() + wires_begin; w != arc_wire_flat_.end(); ++w) {
        h = mix(h, *w);
      }
      auto is_this_arc = [&](int arc) {
        const auto a = static_cast<std::size_t>(arc);
        return arc_same_block_[a] == same_block && arc_src_tile_[a] == src_t &&
               arc_dst_tile_[a] == dst_t &&
               std::equal(arc_wire_flat_.begin() + wires_begin, arc_wire_flat_.end(),
                          arc_wire_flat_.begin() + arc_wire_start_[a],
                          arc_wire_flat_.begin() + arc_wire_start_[a + 1]);
      };
      std::size_t slot = (h >> 32) & mask;
      while (arc_table[slot] >= 0 && !is_this_arc(arc_table[slot])) slot = (slot + 1) & mask;
      if (arc_table[slot] >= 0) {
        arc_wire_flat_.resize(static_cast<std::size_t>(wires_begin));
      } else {
        arc_table[slot] = static_cast<int>(arc_src_tile_.size());
        arc_same_block_.push_back(same_block);
        arc_src_tile_.push_back(src_t);
        arc_dst_tile_.push_back(dst_t);
        arc_wire_start_.push_back(static_cast<int>(arc_wire_flat_.size()));
        max_hops_ = std::max(max_hops_, static_cast<int>(arc_wire_flat_.size()) -
                                            static_cast<int>(wires_begin));
      }
      conn_src_.push_back(net.driver);
      conn_dst_.push_back(sink.prim);
      conn_arc_.push_back(arc_table[slot]);
    }
    if (nr != nullptr) {
      for (const auto& pair : nr->parents) parent_of(pair.first) = kNoParent;
    }
  }
  if (nets_missing_sinks > 0) {
    util::log_warn(
        "timing: %d nets have sinks missing from their routed trees; "
        "using SB-hop delay estimates",
        nets_missing_sinks);
  }
  const auto n_arcs = arc_src_tile_.size();

  // CSR lists (count, prefix-sum, fill — the fill visits items in
  // ascending index, so each row's list is index-sorted).
  auto build_csr = [](std::vector<int>& flat, std::vector<int>& start, std::size_t n_rows,
                      std::size_t n_items, auto for_each_row) {
    start.assign(n_rows + 1, 0);
    for (std::size_t i = 0; i < n_items; ++i) {
      for_each_row(static_cast<int>(i),
                   [&](int r) { ++start[static_cast<std::size_t>(r) + 1]; });
    }
    for (std::size_t r = 0; r < n_rows; ++r) start[r + 1] += start[r];
    flat.resize(static_cast<std::size_t>(start.back()));
    std::vector<int> cursor(start.begin(), start.end() - 1);
    for (std::size_t i = 0; i < n_items; ++i) {
      for_each_row(static_cast<int>(i), [&](int r) {
        flat[static_cast<std::size_t>(cursor[static_cast<std::size_t>(r)]++)] =
            static_cast<int>(i);
      });
    }
  };
  build_csr(conn_in_flat_, conn_in_start_, n_prims, n_conns,
            [&](int ci, auto&& emit) { emit(conn_dst_[static_cast<std::size_t>(ci)]); });
  build_csr(conn_out_flat_, conn_out_start_, n_prims, n_conns,
            [&](int ci, auto&& emit) { emit(conn_src_[static_cast<std::size_t>(ci)]); });
  build_csr(arc_conn_flat_, arc_conn_start_, n_arcs, n_conns,
            [&](int ci, auto&& emit) { emit(conn_arc_[static_cast<std::size_t>(ci)]); });

  // Tile->arc incidence for frontier marking, one entry per distinct
  // tile an arc touches (SB-hop estimates may repeat a tile).
  build_csr(tile_arc_flat_, tile_arc_start_, static_cast<std::size_t>(n_tiles_), n_arcs,
            [&](int a, auto&& emit) {
              const auto arc = static_cast<std::size_t>(a);
              const int src_t = arc_src_tile_[arc];
              const int dst_t = arc_dst_tile_[arc];
              emit(src_t);
              if (arc_same_block_[arc]) return;
              if (dst_t != src_t) emit(dst_t);
              for (int w = arc_wire_start_[arc]; w < arc_wire_start_[arc + 1]; ++w) {
                const int t = arc_wire_flat_[static_cast<std::size_t>(w)];
                bool seen = t == src_t || t == dst_t;
                for (int v = arc_wire_start_[arc]; !seen && v < w; ++v) {
                  seen = arc_wire_flat_[static_cast<std::size_t>(v)] == t;
                }
                if (!seen) emit(t);
              }
            });

  build_csr(tile_prim_flat_, tile_prim_start_, static_cast<std::size_t>(n_tiles_), n_prims,
            [&](PrimId id, auto&& emit) {
              const PrimKind k = prim_kind_[static_cast<std::size_t>(id)];
              if (k == PrimKind::Lut || k == PrimKind::Dsp || k == PrimKind::Bram) {
                emit(prim_tile_[static_cast<std::size_t>(id)]);
              }
            });

  // Capture entries in exactly the order the reference scans them
  // (tests/reference_sta.hpp).
  capture_of_conn_.assign(n_conns, -1);
  for (PrimId id = 0; id < static_cast<PrimId>(n_prims); ++id) {
    const PrimKind k = prim_kind_[static_cast<std::size_t>(id)];
    if (k == PrimKind::Output) {
      captures_.push_back({id, -1, units::Picoseconds{0.0}});
    } else if (k == PrimKind::Ff || k == PrimKind::Bram) {
      const units::Picoseconds setup =
          k == PrimKind::Ff ? an.opt_.ff_setup_ps : an.opt_.bram_setup_ps;
      for (int i = conn_in_start_[static_cast<std::size_t>(id)];
           i < conn_in_start_[static_cast<std::size_t>(id) + 1]; ++i) {
        const int ci = conn_in_flat_[static_cast<std::size_t>(i)];
        capture_of_conn_[static_cast<std::size_t>(ci)] =
            static_cast<int>(captures_.size());
        captures_.push_back({id, ci, setup});
      }
    }
  }

  // DSP feedback: topo_order() does not gate on DSP inputs, so a DSP can
  // precede its combinational fanins in topo_. A full recompute then reads
  // such a fanin's arrival before computing it — i.e. its per-call
  // initial value 0 — which the session reproduces by pinning those
  // contributions to 0 instead of using the cached (final) arrival.
  // Capture edges (dst FF/BRAM) are scanned after the loop with final
  // arrivals and are never frozen.
  std::vector<int> topo_pos(n_prims, 0);
  for (std::size_t i = 0; i < an.topo_.size(); ++i) {
    topo_pos[static_cast<std::size_t>(an.topo_[i])] = static_cast<int>(i);
  }
  conn_src_frozen_.assign(n_conns, 0);
  for (std::size_t ci = 0; ci < n_conns; ++ci) {
    const auto src = static_cast<std::size_t>(conn_src_[ci]);
    const auto dst = static_cast<std::size_t>(conn_dst_[ci]);
    const PrimKind sk = prim_kind_[src];
    const PrimKind dk = prim_kind_[dst];
    const bool comb_src =
        sk == PrimKind::Lut || sk == PrimKind::Dsp || sk == PrimKind::Output;
    const bool comb_dst =
        dk == PrimKind::Lut || dk == PrimKind::Dsp || dk == PrimKind::Output;
    if (comb_src && comb_dst && topo_pos[src] > topo_pos[dst]) {
      conn_src_frozen_[ci] = 1;
    }
  }
}

IncrementalSta::IncrementalSta(const TimingAnalyzer& analyzer,
                               const coffe::DeviceModel& dev)
    : an_(&analyzer),
      dev_(&dev),
      n_tiles_(analyzer.inc_topo_.n_tiles_),
      topo_(analyzer.inc_topo_) {
  for (int k = 0; k < coffe::kNumResourceKinds; ++k) {
    fit_[static_cast<std::size_t>(k)] =
        dev.at(static_cast<ResourceKind>(k)).delay_ps;
  }

  const auto n_prims = topo_.prim_kind_.size();
  const auto n_arcs = topo_.arc_src_tile_.size();
  base_temp_.assign(static_cast<std::size_t>(n_tiles_),
                    std::numeric_limits<double>::quiet_NaN());
  tile_delay_.assign(static_cast<std::size_t>(coffe::kNumResourceKinds) *
                         static_cast<std::size_t>(n_tiles_),
                     0.0);
  arc_total_.assign(n_arcs, 0.0);
  arrival_.assign(n_prims, 0.0);
  crit_conn_.assign(n_prims, -1);
  capture_val_.assign(topo_.captures_.size(), 0.0);
  // Temperature-independent launch times.
  for (PrimId id = 0; id < static_cast<PrimId>(n_prims); ++id) {
    const PrimKind k = topo_.prim_kind_[static_cast<std::size_t>(id)];
    if (k == PrimKind::Input)
      arrival_[static_cast<std::size_t>(id)] = an_->opt_.io_delay_ps.value();
    if (k == PrimKind::Ff)
      arrival_[static_cast<std::size_t>(id)] = an_->opt_.ff_clk_to_q_ps.value();
  }

  dirty_tiles_.reserve(static_cast<std::size_t>(n_tiles_));
  dirty_arcs_.reserve(n_arcs);
  arc_dirty_.assign(n_arcs, 0);
  node_pending_.assign(n_prims, 0);
  capture_pending_.assign(topo_.captures_.size(), 0);
  hop_total_.assign(static_cast<std::size_t>(topo_.max_hops_) + 1, 0.0);
}

void IncrementalSta::refresh_tile(int tile, double temp_c) {
  base_temp_[static_cast<std::size_t>(tile)] = temp_c;
  for (int k = 0; k < coffe::kNumResourceKinds; ++k) {
    tile_delay_[static_cast<std::size_t>(k) * static_cast<std::size_t>(n_tiles_) +
                static_cast<std::size_t>(tile)] = fit_[static_cast<std::size_t>(k)](temp_c);
  }
}

double IncrementalSta::arc_delay_total(int arc) const {
  // Mirrors the reference's connection-delay accumulation order exactly
  // (tests/reference_sta.hpp).
  const auto a = static_cast<std::size_t>(arc);
  double total = 0.0;
  if (topo_.arc_same_block_[a]) {
    total += tile_delay(ResourceKind::FeedbackMux, topo_.arc_src_tile_[a]);
  } else {
    total += tile_delay(ResourceKind::OutputMux, topo_.arc_src_tile_[a]);
    for (int w = topo_.arc_wire_start_[a]; w < topo_.arc_wire_start_[a + 1]; ++w) {
      total +=
          tile_delay(ResourceKind::SbMux, topo_.arc_wire_flat_[static_cast<std::size_t>(w)]);
    }
    total += tile_delay(ResourceKind::CbMux, topo_.arc_dst_tile_[a]);
  }
  return total;
}

TimingResult IncrementalSta::analyze(const std::vector<double>& tile_temp_c,
                                     bool with_critical_path) {
  assert(static_cast<int>(tile_temp_c.size()) == n_tiles_);

  // Frontier: tiles whose delays must be re-derived. An empty frontier
  // leaves the cached analysis standing; a full one (the priming pass,
  // and every Algorithm 1 iteration, since CG perturbs the whole map)
  // has nothing to prune, so it skips the frontier bookkeeping. The same
  // scan notes whether the map is uniform: every tile bitwise equal.
  auto moved = [&](int t) {
    return !primed_ || tile_temp_c[static_cast<std::size_t>(t)] !=
                           base_temp_[static_cast<std::size_t>(t)];
  };
  const auto first = std::bit_cast<std::uint64_t>(tile_temp_c.front());
  int n_moved = 0;
  bool uniform = true;
  for (int t = 0; t < n_tiles_; ++t) {
    if (moved(t)) ++n_moved;
    uniform = uniform &&
              std::bit_cast<std::uint64_t>(tile_temp_c[static_cast<std::size_t>(t)]) == first;
  }
  if (n_moved == n_tiles_) {
    recompute_all(tile_temp_c, uniform);
  } else if (n_moved > 0) {
    dirty_tiles_.clear();
    for (int t = 0; t < n_tiles_; ++t) {
      if (moved(t)) dirty_tiles_.push_back(t);
    }
    propagate_frontier(tile_temp_c);
  }
  primed_ = true;

  TimingResult result;
  result.critical_path_ps = units::Picoseconds{cached_cp_};
  result.fmax_mhz = cached_cp_ > 0.0 ? units::frequency_of(units::Picoseconds{cached_cp_})
                                     : units::Megahertz{0.0};
  if (with_critical_path) reconstruct_critical_path(result);
  return result;
}

void IncrementalSta::recompute_all(const std::vector<double>& tile_temp_c, bool uniform) {
  // A full recompute over the session's cached tables: every tile, arc
  // total, BRAM launch, combinational arrival and capture value is
  // recomputed once, with the reference's arithmetic and order (frozen
  // DSP feedback edges still contribute 0).
  for (int t = 0; t < n_tiles_; ++t) refresh_tile(t, tile_temp_c[static_cast<std::size_t>(t)]);
  const auto n_arcs = arc_total_.size();
  if (uniform) {
    // Every tile holds the same delays, so an arc's total depends only
    // on its hop count. Each count's total is accumulated in
    // arc_delay_total's order: output mux, h SB hops, CB mux.
    double wires = 0.0 + tile_delay(ResourceKind::OutputMux, 0);
    for (double& total : hop_total_) {
      total = wires + tile_delay(ResourceKind::CbMux, 0);
      wires += tile_delay(ResourceKind::SbMux, 0);
    }
    const double feedback = 0.0 + tile_delay(ResourceKind::FeedbackMux, 0);
    for (std::size_t a = 0; a < n_arcs; ++a) {
      arc_total_[a] = topo_.arc_same_block_[a]
                          ? feedback
                          : hop_total_[static_cast<std::size_t>(topo_.arc_wire_start_[a + 1] -
                                                                topo_.arc_wire_start_[a])];
    }
  } else {
    for (std::size_t a = 0; a < n_arcs; ++a) {
      arc_total_[a] = arc_delay_total(static_cast<int>(a));
    }
  }
  counters_.edges_reevaluated += topo_.conn_src_.size();

  const auto n_prims = static_cast<PrimId>(topo_.prim_kind_.size());
  for (PrimId p = 0; p < n_prims; ++p) {
    if (topo_.prim_kind_[static_cast<std::size_t>(p)] == PrimKind::Bram) {
      arrival_[static_cast<std::size_t>(p)] =
          tile_delay(ResourceKind::Bram, topo_.prim_tile_[static_cast<std::size_t>(p)]);
    }
  }
  for (PrimId id : an_->topo_) {
    const PrimKind kind = topo_.prim_kind_[static_cast<std::size_t>(id)];
    if (kind != PrimKind::Lut && kind != PrimKind::Dsp && kind != PrimKind::Output) continue;
    arrival_[static_cast<std::size_t>(id)] = arrival_through(id);
  }
  for (std::size_t i = 0; i < topo_.captures_.size(); ++i) {
    const CaptureEntry& e = topo_.captures_[i];
    if (e.conn < 0) continue;
    capture_val_[i] =
        arrival_[static_cast<std::size_t>(topo_.conn_src_[static_cast<std::size_t>(e.conn)])] +
        conn_total(e.conn) + e.setup_ps.value();
  }
  scan_captures();
}

double IncrementalSta::arrival_through(PrimId id) {
  // The reference's arrival expression: worst fanin arrival plus
  // connection delay (first strict maximum wins), then the primitive's
  // own tile-local delay.
  double worst = 0.0;
  int worst_conn = -1;
  for (int i = topo_.conn_in_start_[static_cast<std::size_t>(id)];
       i < topo_.conn_in_start_[static_cast<std::size_t>(id) + 1]; ++i) {
    const int ci = topo_.conn_in_flat_[static_cast<std::size_t>(i)];
    const double src_arr =
        topo_.conn_src_frozen_[static_cast<std::size_t>(ci)]
            ? 0.0
            : arrival_[static_cast<std::size_t>(
                  topo_.conn_src_[static_cast<std::size_t>(ci)])];
    const double t = src_arr + conn_total(ci);
    if (t > worst) {
      worst = t;
      worst_conn = ci;
    }
  }
  crit_conn_[static_cast<std::size_t>(id)] = worst_conn;
  const int tile = topo_.prim_tile_[static_cast<std::size_t>(id)];
  const PrimKind kind = topo_.prim_kind_[static_cast<std::size_t>(id)];
  if (kind == PrimKind::Lut) {
    worst += tile_delay(ResourceKind::LocalMux, tile) + tile_delay(ResourceKind::Lut, tile);
  } else if (kind == PrimKind::Dsp) {
    worst += tile_delay(ResourceKind::Dsp, tile);
  }
  return worst;
}

void IncrementalSta::propagate_frontier(const std::vector<double>& tile_temp_c) {
  std::fill(node_pending_.begin(), node_pending_.end(), 0);
  std::fill(arc_dirty_.begin(), arc_dirty_.end(), 0);
  std::fill(capture_pending_.begin(), capture_pending_.end(), 0);
  dirty_arcs_.clear();

  // A connection's delay was refreshed iff its arc's was.
  auto conn_dirty = [&](int ci) {
    return arc_dirty_[static_cast<std::size_t>(
               topo_.conn_arc_[static_cast<std::size_t>(ci)])] != 0;
  };
  // The consumer of connection ci must be re-evaluated.
  auto mark_consumer = [&](int ci) {
    const int cap = topo_.capture_of_conn_[static_cast<std::size_t>(ci)];
    if (cap >= 0) {
      capture_pending_[static_cast<std::size_t>(cap)] = 1;
    } else {
      node_pending_[static_cast<std::size_t>(
          topo_.conn_dst_[static_cast<std::size_t>(ci)])] = 1;
    }
  };
  auto mark_fanout = [&](PrimId p) {
    for (int i = topo_.conn_out_start_[static_cast<std::size_t>(p)];
         i < topo_.conn_out_start_[static_cast<std::size_t>(p) + 1]; ++i) {
      const int ci = topo_.conn_out_flat_[static_cast<std::size_t>(i)];
      // A frozen edge contributes 0 regardless of the source's arrival;
      // only its connection delay matters, handled via dirty arcs.
      if (!topo_.conn_src_frozen_[static_cast<std::size_t>(ci)]) mark_consumer(ci);
    }
  };

  // 1. Refresh the frontier's delay tables, then mark affected arcs,
  // tile-resident primitives, and BRAM launch times.
  for (int t : dirty_tiles_) refresh_tile(t, tile_temp_c[static_cast<std::size_t>(t)]);
  for (int t : dirty_tiles_) {
    for (int i = topo_.tile_arc_start_[static_cast<std::size_t>(t)];
         i < topo_.tile_arc_start_[static_cast<std::size_t>(t) + 1]; ++i) {
      const int a = topo_.tile_arc_flat_[static_cast<std::size_t>(i)];
      if (!arc_dirty_[static_cast<std::size_t>(a)]) {
        arc_dirty_[static_cast<std::size_t>(a)] = 1;
        dirty_arcs_.push_back(a);
      }
    }
    for (int i = topo_.tile_prim_start_[static_cast<std::size_t>(t)];
         i < topo_.tile_prim_start_[static_cast<std::size_t>(t) + 1]; ++i) {
      const PrimId p = topo_.tile_prim_flat_[static_cast<std::size_t>(i)];
      const PrimKind k = topo_.prim_kind_[static_cast<std::size_t>(p)];
      if (k == PrimKind::Bram) {
        const double launch =
            tile_delay(ResourceKind::Bram, topo_.prim_tile_[static_cast<std::size_t>(p)]);
        if (launch != arrival_[static_cast<std::size_t>(p)]) {
          arrival_[static_cast<std::size_t>(p)] = launch;
          mark_fanout(p);
        }
      } else {  // Lut / Dsp self-delay changed
        node_pending_[static_cast<std::size_t>(p)] = 1;
      }
    }
  }
  for (int a : dirty_arcs_) {
    arc_total_[static_cast<std::size_t>(a)] = arc_delay_total(a);
    for (int i = topo_.arc_conn_start_[static_cast<std::size_t>(a)];
         i < topo_.arc_conn_start_[static_cast<std::size_t>(a) + 1]; ++i) {
      ++counters_.edges_reevaluated;
      mark_consumer(topo_.arc_conn_flat_[static_cast<std::size_t>(i)]);
    }
  }

  // 2. Repropagate arrivals downstream of the frontier, in the same
  // topological order (and with the same arithmetic) as the reference.
  for (PrimId id : an_->topo_) {
    if (!node_pending_[static_cast<std::size_t>(id)]) continue;
    for (int i = topo_.conn_in_start_[static_cast<std::size_t>(id)];
         i < topo_.conn_in_start_[static_cast<std::size_t>(id) + 1]; ++i) {
      if (!conn_dirty(topo_.conn_in_flat_[static_cast<std::size_t>(i)])) {
        ++counters_.delay_cache_hits;
      }
    }
    const double worst = arrival_through(id);
    if (worst != arrival_[static_cast<std::size_t>(id)]) {
      arrival_[static_cast<std::size_t>(id)] = worst;
      mark_fanout(id);
    }
  }

  // 3. Refresh pending capture arrivals, then rescan every capture.
  for (std::size_t i = 0; i < topo_.captures_.size(); ++i) {
    const CaptureEntry& e = topo_.captures_[i];
    if (e.conn < 0 || !capture_pending_[i]) continue;
    if (!conn_dirty(e.conn)) ++counters_.delay_cache_hits;
    capture_val_[i] =
        arrival_[static_cast<std::size_t>(topo_.conn_src_[static_cast<std::size_t>(e.conn)])] +
        conn_total(e.conn) + e.setup_ps.value();
  }
  scan_captures();
}

void IncrementalSta::scan_captures() {
  // Critical endpoint, with the reference's order and tie-breaking.
  double cp = 0.0;
  PrimId cp_end = -1;
  int cp_end_conn = -1;
  for (std::size_t i = 0; i < topo_.captures_.size(); ++i) {
    const CaptureEntry& e = topo_.captures_[i];
    const double v = e.conn < 0 ? arrival_[static_cast<std::size_t>(e.prim)]
                                : capture_val_[i];
    if (v > cp) {
      cp = v;
      cp_end = e.prim;
      cp_end_conn = e.conn < 0 ? crit_conn_[static_cast<std::size_t>(e.prim)] : e.conn;
    }
  }
  cached_cp_ = cp;
  cached_cp_end_ = cp_end;
  cached_cp_end_conn_ = cp_end_conn;
}

void IncrementalSta::reconstruct_critical_path(TimingResult& result) const {
  if (cached_cp_end_ < 0) return;
  const auto n_prims = topo_.prim_kind_.size();
  PrimId cur = cached_cp_end_;
  int ci = cached_cp_end_conn_;
  result.cp_prims.push_back(cur);
  int guard = 0;
  while (ci >= 0 && guard++ < static_cast<int>(n_prims)) {
    // Per-kind decomposition of the arc first, then folded into the
    // path: the same association as the reference's per-connection sum.
    const auto a = static_cast<std::size_t>(topo_.conn_arc_[static_cast<std::size_t>(ci)]);
    std::array<double, coffe::kNumResourceKinds> by_kind{};
    auto add = [&](ResourceKind k, int tile) {
      by_kind[static_cast<std::size_t>(k)] += tile_delay(k, tile);
    };
    if (topo_.arc_same_block_[a]) {
      add(ResourceKind::FeedbackMux, topo_.arc_src_tile_[a]);
    } else {
      add(ResourceKind::OutputMux, topo_.arc_src_tile_[a]);
      for (int w = topo_.arc_wire_start_[a]; w < topo_.arc_wire_start_[a + 1]; ++w) {
        add(ResourceKind::SbMux, topo_.arc_wire_flat_[static_cast<std::size_t>(w)]);
      }
      add(ResourceKind::CbMux, topo_.arc_dst_tile_[a]);
    }
    for (std::size_t k = 0; k < by_kind.size(); ++k) result.cp_breakdown[k] += by_kind[k];
    cur = topo_.conn_src_[static_cast<std::size_t>(ci)];
    result.cp_prims.push_back(cur);
    const PrimKind kind = topo_.prim_kind_[static_cast<std::size_t>(cur)];
    const int tile = topo_.prim_tile_[static_cast<std::size_t>(cur)];
    if (kind == PrimKind::Lut) {
      result.cp_breakdown[static_cast<std::size_t>(ResourceKind::Lut)] +=
          tile_delay(ResourceKind::Lut, tile);
      result.cp_breakdown[static_cast<std::size_t>(ResourceKind::LocalMux)] +=
          tile_delay(ResourceKind::LocalMux, tile);
    } else if (kind == PrimKind::Dsp) {
      result.cp_breakdown[static_cast<std::size_t>(ResourceKind::Dsp)] +=
          tile_delay(ResourceKind::Dsp, tile);
    } else if (kind == PrimKind::Bram) {
      result.cp_breakdown[static_cast<std::size_t>(ResourceKind::Bram)] +=
          tile_delay(ResourceKind::Bram, tile);
    }
    ci = crit_conn_[static_cast<std::size_t>(cur)];
  }
  std::reverse(result.cp_prims.begin(), result.cp_prims.end());
}

}  // namespace taf::timing
