#include "timing/timing.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <numeric>
#include <unordered_map>

#include "util/log.hpp"

namespace taf::timing {

namespace {

using coffe::ResourceKind;
using netlist::kNoNet;
using netlist::NetId;
using netlist::PrimId;
using netlist::PrimKind;

/// Per-arc delay decomposition used both for arrival propagation and for
/// critical-path breakdown reporting.
struct ArcDelay {
  double total = 0.0;
  std::array<double, coffe::kNumResourceKinds> by_kind{};

  void add(ResourceKind k, double ps) {
    total += ps;
    by_kind[static_cast<std::size_t>(k)] += ps;
  }
};

}  // namespace

TimingAnalyzer::TimingAnalyzer(const netlist::Netlist& nl,
                               const pack::PackedNetlist& packed,
                               const place::Placement& pl, const route::RrGraph& rr,
                               const route::RouteResult& routes,
                               const arch::FpgaGrid& grid, TimingOptions opt)
    : nl_(&nl), packed_(&packed), pl_(&pl), grid_(&grid), opt_(opt) {
  topo_ = nl.topo_order();

  // Map netlist net -> block-net index for routed path lookup.
  std::unordered_map<NetId, int> block_net_of;
  for (int i = 0; i < static_cast<int>(packed.block_nets.size()); ++i) {
    block_net_of[packed.block_nets[static_cast<std::size_t>(i)].net] = i;
  }

  for (NetId n = 0; n < static_cast<NetId>(nl.nets().size()); ++n) {
    const auto& net = nl.net(n);
    const int src_block = packed.block_of_prim[static_cast<std::size_t>(net.driver)];

    // Parent map of the routed tree (if this net leaves its block).
    const route::NetRoute* nr = nullptr;
    std::unordered_map<route::RrNodeId, route::RrNodeId> parent;
    auto it = block_net_of.find(n);
    if (it != block_net_of.end()) {
      nr = &routes.routes[static_cast<std::size_t>(it->second)];
      parent.reserve(nr->parents.size());
      for (const auto& [node, par] : nr->parents) parent[node] = par;
    }

    // Straight-line SB hop estimate, used for unrouted nets and as the
    // fallback when a sink is missing from the routed tree.
    auto estimate_hops = [&pl](Connection& c, int from_block, int to_block) {
      const arch::TilePos a = pl.pos[static_cast<std::size_t>(from_block)];
      const arch::TilePos b = pl.pos[static_cast<std::size_t>(to_block)];
      const int dist = std::abs(a.x - b.x) + std::abs(a.y - b.y);
      const int hops = std::max(1, (dist + 3) / 4);
      for (int h = 0; h < hops; ++h) c.wire_tiles.push_back(a);
    };

    bool warned_missing_sink = false;
    for (const auto& sink : net.sinks) {
      Connection c;
      c.src = net.driver;
      c.dst = sink.prim;
      c.dst_pin = sink.pin;
      const int dst_block = packed.block_of_prim[static_cast<std::size_t>(sink.prim)];
      c.same_block = dst_block == src_block;
      if (!c.same_block && nr != nullptr && !nr->nodes.empty()) {
        // Walk the routed tree from the sink IPIN back to the source.
        const arch::TilePos dst_pos = pl.pos[static_cast<std::size_t>(dst_block)];
        route::RrNodeId cur = rr.ipin_at(dst_pos.x, dst_pos.y);
        if (parent.find(cur) == parent.end()) {
          // The sink IPIN never made it into the routed tree (partial or
          // failed route). Charging zero wire delay here would silently
          // make the connection look free; estimate it instead.
          if (!warned_missing_sink) {
            util::log_warn(
                "timing: net %d has sinks missing from its routed tree; "
                "using SB-hop delay estimate",
                n);
            warned_missing_sink = true;
          }
          estimate_hops(c, src_block, dst_block);
        }
        int guard = 0;
        while (true) {
          auto pit = parent.find(cur);
          if (pit == parent.end() || pit->second < 0) break;
          cur = pit->second;
          const route::RrNode& node = rr.node(cur);
          if (node.kind == route::RrKind::WireH || node.kind == route::RrKind::WireV) {
            c.wire_tiles.push_back(node.tile);
          }
          if (++guard > rr.num_nodes()) {
            util::log_warn("timing: cyclic route parents on net %d", n);
            break;
          }
        }
      } else if (!c.same_block) {
        estimate_hops(c, src_block, dst_block);
      }
      connections_.push_back(std::move(c));
    }
  }

  inc_topo_.build(*this);
}

TimingResult TimingAnalyzer::analyze(const coffe::DeviceModel& dev,
                                     const std::vector<double>& tile_temp_c) const {
  assert(static_cast<int>(tile_temp_c.size()) == grid_->num_tiles());

  auto temp_at = [&](arch::TilePos p) {
    return tile_temp_c[static_cast<std::size_t>(grid_->index_of(p))];
  };
  // Unwrapped device lookup: same arithmetic as DeviceModel::delay.
  auto dly = [&dev](ResourceKind k, double t) {
    return dev.delay(k, units::Celsius{t}).value();
  };
  auto block_tile = [&](PrimId prim) {
    const int b = packed_->block_of_prim[static_cast<std::size_t>(prim)];
    return pl_->pos[static_cast<std::size_t>(b)];
  };

  // Connection delays.
  auto conn_delay = [&](const Connection& c) {
    ArcDelay d;
    const arch::TilePos src_tile = block_tile(c.src);
    if (c.same_block) {
      d.add(ResourceKind::FeedbackMux, dly(ResourceKind::FeedbackMux,
                                                    temp_at(src_tile)));
    } else {
      d.add(ResourceKind::OutputMux,
            dly(ResourceKind::OutputMux, temp_at(src_tile)));
      for (const arch::TilePos& wt : c.wire_tiles) {
        d.add(ResourceKind::SbMux, dly(ResourceKind::SbMux, temp_at(wt)));
      }
      d.add(ResourceKind::CbMux,
            dly(ResourceKind::CbMux, temp_at(block_tile(c.dst))));
    }
    return d;
  };

  // Per-connection lists by destination primitive.
  std::vector<std::vector<int>> conns_into(nl_->prims().size());
  for (int i = 0; i < static_cast<int>(connections_.size()); ++i) {
    conns_into[static_cast<std::size_t>(connections_[static_cast<std::size_t>(i)].dst)]
        .push_back(i);
  }

  const auto n_prims = nl_->prims().size();
  std::vector<double> arrival(n_prims, 0.0);
  std::vector<int> crit_conn(n_prims, -1);  // critical incoming connection

  // Launch times for sequential sources.
  for (PrimId id = 0; id < static_cast<PrimId>(n_prims); ++id) {
    const auto& p = nl_->prim(id);
    switch (p.kind) {
      case PrimKind::Input: arrival[static_cast<std::size_t>(id)] = opt_.io_delay_ps.value(); break;
      case PrimKind::Ff: arrival[static_cast<std::size_t>(id)] = opt_.ff_clk_to_q_ps.value(); break;
      case PrimKind::Bram:
        arrival[static_cast<std::size_t>(id)] =
            dly(ResourceKind::Bram, temp_at(block_tile(id)));
        break;
      default: break;
    }
  }

  // Propagate through combinational elements in topological order.
  for (PrimId id : topo_) {
    const auto& p = nl_->prim(id);
    if (p.kind != PrimKind::Lut && p.kind != PrimKind::Dsp && p.kind != PrimKind::Output)
      continue;
    double worst = 0.0;
    int worst_conn = -1;
    for (int ci : conns_into[static_cast<std::size_t>(id)]) {
      const Connection& c = connections_[static_cast<std::size_t>(ci)];
      const double t = arrival[static_cast<std::size_t>(c.src)] + conn_delay(c).total;
      if (t > worst) {
        worst = t;
        worst_conn = ci;
      }
    }
    crit_conn[static_cast<std::size_t>(id)] = worst_conn;
    const double temp = temp_at(block_tile(id));
    if (p.kind == PrimKind::Lut) {
      worst += dly(ResourceKind::LocalMux, temp) +
               dly(ResourceKind::Lut, temp);
    } else if (p.kind == PrimKind::Dsp) {
      worst += dly(ResourceKind::Dsp, temp);
    }
    arrival[static_cast<std::size_t>(id)] = worst;
  }

  // Capture: FF data / BRAM and DSP inputs (setup), primary outputs.
  double cp = 0.0;
  PrimId cp_end = -1;
  int cp_end_conn = -1;
  auto consider = [&](PrimId prim, int ci, double t) {
    if (t > cp) {
      cp = t;
      cp_end = prim;
      cp_end_conn = ci;
    }
  };
  for (PrimId id = 0; id < static_cast<PrimId>(n_prims); ++id) {
    const auto& p = nl_->prim(id);
    if (p.kind == PrimKind::Output) {
      consider(id, crit_conn[static_cast<std::size_t>(id)], arrival[static_cast<std::size_t>(id)]);
    } else if (p.kind == PrimKind::Ff || p.kind == PrimKind::Bram) {
      const double setup =
          (p.kind == PrimKind::Ff ? opt_.ff_setup_ps : opt_.bram_setup_ps).value();
      for (int ci : conns_into[static_cast<std::size_t>(id)]) {
        const Connection& c = connections_[static_cast<std::size_t>(ci)];
        consider(id, ci, arrival[static_cast<std::size_t>(c.src)] + conn_delay(c).total + setup);
      }
    }
  }

  TimingResult result;
  result.critical_path_ps = units::Picoseconds{cp};
  result.fmax_mhz =
      cp > 0.0 ? units::frequency_of(units::Picoseconds{cp}) : units::Megahertz{0.0};

  // Reconstruct the critical path and its resource breakdown.
  if (cp_end >= 0) {
    PrimId cur = cp_end;
    int ci = cp_end_conn;
    result.cp_prims.push_back(cur);
    int guard = 0;
    while (ci >= 0 && guard++ < static_cast<int>(n_prims)) {
      const Connection& c = connections_[static_cast<std::size_t>(ci)];
      const ArcDelay d = conn_delay(c);
      for (std::size_t k = 0; k < d.by_kind.size(); ++k)
        result.cp_breakdown[k] += d.by_kind[k];
      cur = c.src;
      result.cp_prims.push_back(cur);
      const auto& p = nl_->prim(cur);
      const double temp = temp_at(block_tile(cur));
      if (p.kind == PrimKind::Lut) {
        result.cp_breakdown[static_cast<std::size_t>(ResourceKind::Lut)] +=
            dly(ResourceKind::Lut, temp);
        result.cp_breakdown[static_cast<std::size_t>(ResourceKind::LocalMux)] +=
            dly(ResourceKind::LocalMux, temp);
      } else if (p.kind == PrimKind::Dsp) {
        result.cp_breakdown[static_cast<std::size_t>(ResourceKind::Dsp)] +=
            dly(ResourceKind::Dsp, temp);
      } else if (p.kind == PrimKind::Bram) {
        result.cp_breakdown[static_cast<std::size_t>(ResourceKind::Bram)] +=
            dly(ResourceKind::Bram, temp);
      }
      ci = crit_conn[static_cast<std::size_t>(cur)];
    }
    std::reverse(result.cp_prims.begin(), result.cp_prims.end());
  }
  return result;
}

TimingResult TimingAnalyzer::analyze_uniform(const coffe::DeviceModel& dev,
                                             units::Celsius temp) const {
  const std::vector<double> temps(static_cast<std::size_t>(grid_->num_tiles()),
                                  temp.value());
  return analyze(dev, temps);
}

// ---------------------------------------------------------------------------
// IncrementalSta

void IncrementalTopology::build(const TimingAnalyzer& an) {
  n_tiles_ = an.grid_->num_tiles();

  const auto n_prims = an.nl_->prims().size();
  prim_kind_.resize(n_prims);
  prim_tile_.resize(n_prims);
  for (PrimId id = 0; id < static_cast<PrimId>(n_prims); ++id) {
    prim_kind_[static_cast<std::size_t>(id)] = an.nl_->prim(id).kind;
    const int b = an.packed_->block_of_prim[static_cast<std::size_t>(id)];
    prim_tile_[static_cast<std::size_t>(id)] =
        an.grid_->index_of(an.pl_->pos[static_cast<std::size_t>(b)]);
  }

  const auto& conns = an.connections_;
  const auto n_conns = conns.size();
  conn_src_.resize(n_conns);
  conn_dst_.resize(n_conns);
  conn_same_block_.resize(n_conns);
  conn_src_tile_.resize(n_conns);
  conn_dst_tile_.resize(n_conns);
  wire_tile_start_.resize(n_conns + 1, 0);
  for (int ci = 0; ci < static_cast<int>(n_conns); ++ci) {
    const auto& c = conns[static_cast<std::size_t>(ci)];
    conn_src_[static_cast<std::size_t>(ci)] = c.src;
    conn_dst_[static_cast<std::size_t>(ci)] = c.dst;
    conn_same_block_[static_cast<std::size_t>(ci)] = c.same_block ? 1 : 0;
    conn_src_tile_[static_cast<std::size_t>(ci)] =
        prim_tile_[static_cast<std::size_t>(c.src)];
    conn_dst_tile_[static_cast<std::size_t>(ci)] =
        prim_tile_[static_cast<std::size_t>(c.dst)];
    wire_tile_start_[static_cast<std::size_t>(ci)] =
        static_cast<int>(wire_tile_flat_.size());
    if (!c.same_block) {
      for (const arch::TilePos& wt : c.wire_tiles) {
        wire_tile_flat_.push_back(an.grid_->index_of(wt));
      }
    }
  }
  wire_tile_start_[n_conns] = static_cast<int>(wire_tile_flat_.size());

  // CSR fanin/fanout lists (count, prefix-sum, fill — the fill visits
  // conns in ascending index, so each prim's list is index-sorted).
  auto build_csr = [n_conns](std::vector<int>& flat, std::vector<int>& start,
                             std::size_t n_rows, auto row_of) {
    start.assign(n_rows + 1, 0);
    for (std::size_t ci = 0; ci < n_conns; ++ci) {
      ++start[static_cast<std::size_t>(row_of(static_cast<int>(ci))) + 1];
    }
    for (std::size_t r = 0; r < n_rows; ++r) start[r + 1] += start[r];
    flat.resize(n_conns);
    std::vector<int> cursor(start.begin(), start.end() - 1);
    for (std::size_t ci = 0; ci < n_conns; ++ci) {
      flat[static_cast<std::size_t>(
          cursor[static_cast<std::size_t>(row_of(static_cast<int>(ci)))]++)] =
          static_cast<int>(ci);
    }
  };
  build_csr(conn_in_flat_, conn_in_start_, n_prims,
            [&](int ci) { return conns[static_cast<std::size_t>(ci)].dst; });
  build_csr(conn_out_flat_, conn_out_start_, n_prims,
            [&](int ci) { return conns[static_cast<std::size_t>(ci)].src; });

  // Tile->conn incidence for frontier marking (deduped per connection;
  // SB-hop estimates may repeat a tile). Same count/fill scheme, driven
  // by a visitor over each connection's distinct touched tiles.
  auto touched_tiles = [&](int ci, auto&& emit) {
    const auto& c = conns[static_cast<std::size_t>(ci)];
    const int src_t = conn_src_tile_[static_cast<std::size_t>(ci)];
    const int dst_t = conn_dst_tile_[static_cast<std::size_t>(ci)];
    emit(src_t);
    if (!c.same_block) {
      if (dst_t != src_t) emit(dst_t);
      for (int w = wire_tile_start_[static_cast<std::size_t>(ci)];
           w < wire_tile_start_[static_cast<std::size_t>(ci) + 1]; ++w) {
        const int t = wire_tile_flat_[static_cast<std::size_t>(w)];
        bool seen = t == src_t || t == dst_t;
        for (int v = wire_tile_start_[static_cast<std::size_t>(ci)]; !seen && v < w;
             ++v) {
          seen = wire_tile_flat_[static_cast<std::size_t>(v)] == t;
        }
        if (!seen) emit(t);
      }
    }
  };
  tile_conn_start_.assign(static_cast<std::size_t>(n_tiles_) + 1, 0);
  for (int ci = 0; ci < static_cast<int>(n_conns); ++ci) {
    touched_tiles(ci, [&](int t) { ++tile_conn_start_[static_cast<std::size_t>(t) + 1]; });
  }
  for (int t = 0; t < n_tiles_; ++t) {
    tile_conn_start_[static_cast<std::size_t>(t) + 1] +=
        tile_conn_start_[static_cast<std::size_t>(t)];
  }
  tile_conn_flat_.resize(static_cast<std::size_t>(tile_conn_start_.back()));
  {
    std::vector<int> cursor(tile_conn_start_.begin(), tile_conn_start_.end() - 1);
    for (int ci = 0; ci < static_cast<int>(n_conns); ++ci) {
      touched_tiles(ci, [&](int t) {
        tile_conn_flat_[static_cast<std::size_t>(cursor[static_cast<std::size_t>(t)]++)] =
            ci;
      });
    }
  }

  tile_prim_start_.assign(static_cast<std::size_t>(n_tiles_) + 1, 0);
  for (PrimId id = 0; id < static_cast<PrimId>(n_prims); ++id) {
    const PrimKind k = an.nl_->prim(id).kind;
    if (k == PrimKind::Lut || k == PrimKind::Dsp || k == PrimKind::Bram) {
      ++tile_prim_start_[static_cast<std::size_t>(
                             prim_tile_[static_cast<std::size_t>(id)]) +
                         1];
    }
  }
  for (int t = 0; t < n_tiles_; ++t) {
    tile_prim_start_[static_cast<std::size_t>(t) + 1] +=
        tile_prim_start_[static_cast<std::size_t>(t)];
  }
  tile_prim_flat_.resize(static_cast<std::size_t>(tile_prim_start_.back()));
  {
    std::vector<int> cursor(tile_prim_start_.begin(), tile_prim_start_.end() - 1);
    for (PrimId id = 0; id < static_cast<PrimId>(n_prims); ++id) {
      const PrimKind k = an.nl_->prim(id).kind;
      if (k == PrimKind::Lut || k == PrimKind::Dsp || k == PrimKind::Bram) {
        const int t = prim_tile_[static_cast<std::size_t>(id)];
        tile_prim_flat_[static_cast<std::size_t>(cursor[static_cast<std::size_t>(t)]++)] =
            id;
      }
    }
  }

  // Capture entries in exactly the order the full path scans them.
  capture_of_conn_.assign(n_conns, -1);
  for (PrimId id = 0; id < static_cast<PrimId>(n_prims); ++id) {
    const PrimKind k = an.nl_->prim(id).kind;
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
  // precede its combinational fanins in topo_. The full pass then reads
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
    const auto& c = conns[ci];
    const PrimKind sk = an.nl_->prim(c.src).kind;
    const PrimKind dk = an.nl_->prim(c.dst).kind;
    const bool comb_src =
        sk == PrimKind::Lut || sk == PrimKind::Dsp || sk == PrimKind::Output;
    const bool comb_dst =
        dk == PrimKind::Lut || dk == PrimKind::Dsp || dk == PrimKind::Output;
    if (comb_src && comb_dst &&
        topo_pos[static_cast<std::size_t>(c.src)] >
            topo_pos[static_cast<std::size_t>(c.dst)]) {
      conn_src_frozen_[ci] = 1;
    }
  }
}

IncrementalSta::IncrementalSta(const TimingAnalyzer& analyzer,
                               const coffe::DeviceModel& dev)
    : an_(&analyzer),
      dev_(&dev),
      n_tiles_(analyzer.inc_topo_.n_tiles_),
      prim_kind_(analyzer.inc_topo_.prim_kind_),
      prim_tile_(analyzer.inc_topo_.prim_tile_),
      conn_src_(analyzer.inc_topo_.conn_src_),
      conn_dst_(analyzer.inc_topo_.conn_dst_),
      conn_same_block_(analyzer.inc_topo_.conn_same_block_),
      conn_in_flat_(analyzer.inc_topo_.conn_in_flat_),
      conn_in_start_(analyzer.inc_topo_.conn_in_start_),
      conn_out_flat_(analyzer.inc_topo_.conn_out_flat_),
      conn_out_start_(analyzer.inc_topo_.conn_out_start_),
      conn_src_tile_(analyzer.inc_topo_.conn_src_tile_),
      conn_dst_tile_(analyzer.inc_topo_.conn_dst_tile_),
      conn_src_frozen_(analyzer.inc_topo_.conn_src_frozen_),
      wire_tile_flat_(analyzer.inc_topo_.wire_tile_flat_),
      wire_tile_start_(analyzer.inc_topo_.wire_tile_start_),
      tile_conn_flat_(analyzer.inc_topo_.tile_conn_flat_),
      tile_conn_start_(analyzer.inc_topo_.tile_conn_start_),
      tile_prim_flat_(analyzer.inc_topo_.tile_prim_flat_),
      tile_prim_start_(analyzer.inc_topo_.tile_prim_start_),
      captures_(analyzer.inc_topo_.captures_),
      capture_of_conn_(analyzer.inc_topo_.capture_of_conn_) {
  for (int k = 0; k < coffe::kNumResourceKinds; ++k) {
    fit_[static_cast<std::size_t>(k)] =
        dev.at(static_cast<ResourceKind>(k)).delay_ps;
  }

  const auto n_prims = an_->nl_->prims().size();
  const auto n_conns = an_->connections_.size();
  base_temp_.assign(static_cast<std::size_t>(n_tiles_),
                    std::numeric_limits<double>::quiet_NaN());
  tile_delay_.assign(static_cast<std::size_t>(coffe::kNumResourceKinds) *
                         static_cast<std::size_t>(n_tiles_),
                     0.0);
  conn_total_.assign(n_conns, 0.0);
  arrival_.assign(n_prims, 0.0);
  crit_conn_.assign(n_prims, -1);
  capture_val_.assign(captures_.size(), 0.0);
  // Temperature-independent launch times.
  for (PrimId id = 0; id < static_cast<PrimId>(n_prims); ++id) {
    const PrimKind k = an_->nl_->prim(id).kind;
    if (k == PrimKind::Input)
      arrival_[static_cast<std::size_t>(id)] = an_->opt_.io_delay_ps.value();
    if (k == PrimKind::Ff)
      arrival_[static_cast<std::size_t>(id)] = an_->opt_.ff_clk_to_q_ps.value();
  }

  conn_dirty_.assign(n_conns, 0);
  node_pending_.assign(n_prims, 0);
}

void IncrementalSta::refresh_tile(int tile, double temp_c) {
  base_temp_[static_cast<std::size_t>(tile)] = temp_c;
  for (int k = 0; k < coffe::kNumResourceKinds; ++k) {
    tile_delay_[static_cast<std::size_t>(k) * static_cast<std::size_t>(n_tiles_) +
                static_cast<std::size_t>(tile)] = fit_[static_cast<std::size_t>(k)](temp_c);
  }
}

double IncrementalSta::conn_delay_total(int ci) const {
  // Mirrors TimingAnalyzer's conn_delay() accumulation order exactly.
  double total = 0.0;
  if (conn_same_block_[static_cast<std::size_t>(ci)]) {
    total += tile_delay(ResourceKind::FeedbackMux,
                        conn_src_tile_[static_cast<std::size_t>(ci)]);
  } else {
    total += tile_delay(ResourceKind::OutputMux,
                        conn_src_tile_[static_cast<std::size_t>(ci)]);
    for (int w = wire_tile_start_[static_cast<std::size_t>(ci)];
         w < wire_tile_start_[static_cast<std::size_t>(ci) + 1]; ++w) {
      total += tile_delay(ResourceKind::SbMux, wire_tile_flat_[static_cast<std::size_t>(w)]);
    }
    total += tile_delay(ResourceKind::CbMux,
                        conn_dst_tile_[static_cast<std::size_t>(ci)]);
  }
  return total;
}

TimingResult IncrementalSta::analyze(const std::vector<double>& tile_temp_c,
                                     bool with_critical_path) {
  assert(static_cast<int>(tile_temp_c.size()) == n_tiles_);

  // 1. Frontier: tiles whose delays must be re-derived.
  std::vector<int> dirty_tiles;
  for (int t = 0; t < n_tiles_; ++t) {
    const double temp = tile_temp_c[static_cast<std::size_t>(t)];
    const double base = base_temp_[static_cast<std::size_t>(t)];
    if (!primed_ || temp != base) dirty_tiles.push_back(t);
  }

  if (primed_ && dirty_tiles.empty()) {
    // Nothing to re-derive or propagate: the cached analysis stands.
    TimingResult result;
    result.critical_path_ps = units::Picoseconds{cached_cp_};
    result.fmax_mhz = cached_cp_ > 0.0
                          ? units::frequency_of(units::Picoseconds{cached_cp_})
                          : units::Megahertz{0.0};
    if (with_critical_path) reconstruct_critical_path(result);
    return result;
  }

  std::fill(node_pending_.begin(), node_pending_.end(), 0);
  std::vector<char> capture_pending(captures_.size(), 0);

  auto mark_fanout = [&](PrimId p) {
    for (int i = conn_out_start_[static_cast<std::size_t>(p)];
         i < conn_out_start_[static_cast<std::size_t>(p) + 1]; ++i) {
      const int ci = conn_out_flat_[static_cast<std::size_t>(i)];
      // A frozen edge contributes 0 regardless of the source's arrival;
      // only its connection delay matters, handled via dirty conns.
      if (conn_src_frozen_[static_cast<std::size_t>(ci)]) continue;
      const int cap = capture_of_conn_[static_cast<std::size_t>(ci)];
      if (cap >= 0) {
        capture_pending[static_cast<std::size_t>(cap)] = 1;
      } else {
        node_pending_[static_cast<std::size_t>(conn_dst_[static_cast<std::size_t>(ci)])] =
            1;
      }
    }
  };

  // 2. Refresh the frontier's delay tables, then mark affected
  // connections, tile-resident primitives, and BRAM launch times. When
  // every tile moved (each Exact-mode loop iteration: CG perturbs the
  // whole map) the per-tile incidence walk only rediscovers "everything";
  // mark it all directly instead.
  std::vector<int> dirty_conns;
  for (int t : dirty_tiles) refresh_tile(t, tile_temp_c[static_cast<std::size_t>(t)]);
  if (static_cast<int>(dirty_tiles.size()) == n_tiles_) {
    std::fill(conn_dirty_.begin(), conn_dirty_.end(), 1);
    dirty_conns.resize(conn_dirty_.size());
    std::iota(dirty_conns.begin(), dirty_conns.end(), 0);
    const auto n_prims = static_cast<PrimId>(prim_kind_.size());
    for (PrimId p = 0; p < n_prims; ++p) {
      const PrimKind k = prim_kind_[static_cast<std::size_t>(p)];
      if (k == PrimKind::Bram) {
        const double launch =
            tile_delay(ResourceKind::Bram, prim_tile_[static_cast<std::size_t>(p)]);
        if (launch != arrival_[static_cast<std::size_t>(p)]) {
          arrival_[static_cast<std::size_t>(p)] = launch;
          mark_fanout(p);
        }
      } else if (k == PrimKind::Lut || k == PrimKind::Dsp) {
        node_pending_[static_cast<std::size_t>(p)] = 1;
      }
    }
  } else {
    std::fill(conn_dirty_.begin(), conn_dirty_.end(), 0);
    for (int t : dirty_tiles) {
      for (int i = tile_conn_start_[static_cast<std::size_t>(t)];
           i < tile_conn_start_[static_cast<std::size_t>(t) + 1]; ++i) {
        const int ci = tile_conn_flat_[static_cast<std::size_t>(i)];
        if (!conn_dirty_[static_cast<std::size_t>(ci)]) {
          conn_dirty_[static_cast<std::size_t>(ci)] = 1;
          dirty_conns.push_back(ci);
        }
      }
      for (int i = tile_prim_start_[static_cast<std::size_t>(t)];
           i < tile_prim_start_[static_cast<std::size_t>(t) + 1]; ++i) {
        const PrimId p = tile_prim_flat_[static_cast<std::size_t>(i)];
        const PrimKind k = prim_kind_[static_cast<std::size_t>(p)];
        if (k == PrimKind::Bram) {
          const double launch =
              tile_delay(ResourceKind::Bram, prim_tile_[static_cast<std::size_t>(p)]);
          if (launch != arrival_[static_cast<std::size_t>(p)]) {
            arrival_[static_cast<std::size_t>(p)] = launch;
            mark_fanout(p);
          }
        } else {  // Lut / Dsp self-delay changed
          node_pending_[static_cast<std::size_t>(p)] = 1;
        }
      }
    }
  }
  for (int ci : dirty_conns) {
    conn_total_[static_cast<std::size_t>(ci)] = conn_delay_total(ci);
    ++counters_.edges_reevaluated;
    const int cap = capture_of_conn_[static_cast<std::size_t>(ci)];
    if (cap >= 0) {
      capture_pending[static_cast<std::size_t>(cap)] = 1;
    } else {
      node_pending_[static_cast<std::size_t>(conn_dst_[static_cast<std::size_t>(ci)])] =
          1;
    }
  }

  // 3. Repropagate arrivals downstream of the frontier, in the same
  // topological order (and with the same arithmetic) as the full pass.
  for (PrimId id : an_->topo_) {
    if (!node_pending_[static_cast<std::size_t>(id)]) continue;
    const PrimKind kind = prim_kind_[static_cast<std::size_t>(id)];
    double worst = 0.0;
    int worst_conn = -1;
    for (int i = conn_in_start_[static_cast<std::size_t>(id)];
         i < conn_in_start_[static_cast<std::size_t>(id) + 1]; ++i) {
      const int ci = conn_in_flat_[static_cast<std::size_t>(i)];
      if (!conn_dirty_[static_cast<std::size_t>(ci)]) ++counters_.delay_cache_hits;
      const double src_arr =
          conn_src_frozen_[static_cast<std::size_t>(ci)]
              ? 0.0
              : arrival_[static_cast<std::size_t>(conn_src_[static_cast<std::size_t>(ci)])];
      const double t = src_arr + conn_total_[static_cast<std::size_t>(ci)];
      if (t > worst) {
        worst = t;
        worst_conn = ci;
      }
    }
    crit_conn_[static_cast<std::size_t>(id)] = worst_conn;
    const int tile = prim_tile_[static_cast<std::size_t>(id)];
    if (kind == PrimKind::Lut) {
      worst += tile_delay(ResourceKind::LocalMux, tile) +
               tile_delay(ResourceKind::Lut, tile);
    } else if (kind == PrimKind::Dsp) {
      worst += tile_delay(ResourceKind::Dsp, tile);
    }
    if (worst != arrival_[static_cast<std::size_t>(id)]) {
      arrival_[static_cast<std::size_t>(id)] = worst;
      mark_fanout(id);
    }
  }

  // 4. Refresh pending capture arrivals; rescan all captures for the
  // critical path (same order and tie-breaking as the full pass).
  for (std::size_t i = 0; i < captures_.size(); ++i) {
    const CaptureEntry& e = captures_[i];
    if (e.conn < 0 || !capture_pending[i]) continue;
    if (!conn_dirty_[static_cast<std::size_t>(e.conn)]) ++counters_.delay_cache_hits;
    capture_val_[i] =
        arrival_[static_cast<std::size_t>(conn_src_[static_cast<std::size_t>(e.conn)])] +
        conn_total_[static_cast<std::size_t>(e.conn)] + e.setup_ps.value();
  }
  double cp = 0.0;
  PrimId cp_end = -1;
  int cp_end_conn = -1;
  for (std::size_t i = 0; i < captures_.size(); ++i) {
    const CaptureEntry& e = captures_[i];
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
  primed_ = true;

  TimingResult result;
  result.critical_path_ps = units::Picoseconds{cp};
  result.fmax_mhz =
      cp > 0.0 ? units::frequency_of(units::Picoseconds{cp}) : units::Megahertz{0.0};
  if (with_critical_path) reconstruct_critical_path(result);
  return result;
}

void IncrementalSta::reconstruct_critical_path(TimingResult& result) const {
  if (cached_cp_end_ < 0) return;
  const auto n_prims = an_->nl_->prims().size();
  PrimId cur = cached_cp_end_;
  int ci = cached_cp_end_conn_;
  result.cp_prims.push_back(cur);
  int guard = 0;
  while (ci >= 0 && guard++ < static_cast<int>(n_prims)) {
    const auto& c = an_->connections_[static_cast<std::size_t>(ci)];
    // Per-kind decomposition, mirroring conn_delay()'s order.
    if (c.same_block) {
      result.cp_breakdown[static_cast<std::size_t>(ResourceKind::FeedbackMux)] +=
          tile_delay(ResourceKind::FeedbackMux, conn_src_tile_[static_cast<std::size_t>(ci)]);
    } else {
      result.cp_breakdown[static_cast<std::size_t>(ResourceKind::OutputMux)] +=
          tile_delay(ResourceKind::OutputMux, conn_src_tile_[static_cast<std::size_t>(ci)]);
      for (int w = wire_tile_start_[static_cast<std::size_t>(ci)];
           w < wire_tile_start_[static_cast<std::size_t>(ci) + 1]; ++w) {
        result.cp_breakdown[static_cast<std::size_t>(ResourceKind::SbMux)] +=
            tile_delay(ResourceKind::SbMux, wire_tile_flat_[static_cast<std::size_t>(w)]);
      }
      result.cp_breakdown[static_cast<std::size_t>(ResourceKind::CbMux)] +=
          tile_delay(ResourceKind::CbMux, conn_dst_tile_[static_cast<std::size_t>(ci)]);
    }
    cur = c.src;
    result.cp_prims.push_back(cur);
    const PrimKind kind = an_->nl_->prim(cur).kind;
    const int tile = prim_tile_[static_cast<std::size_t>(cur)];
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
