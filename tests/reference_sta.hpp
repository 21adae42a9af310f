#pragma once
// Full-recompute reference for the block-level STA, the oracle
// timing::IncrementalSta is compared against. Every analyze() call times
// the whole netlist from scratch: a fanin list per primitive, every
// connection delay re-derived from the DeviceModel at the temperature of
// each tile it crosses (output mux at the source tile, one SB mux per
// wire at the wire's anchor tile, in route order, CB mux at the sink
// tile; a feedback mux for an intra-block connection), arrivals in
// Netlist::topo_order() with the first strict maximum winning, then a
// capture scan in primitive-id order.
//
// It builds its own per-connection wire-tile lists by walking each net's
// route tree from the sink block's IPIN back to the source
// (RouteResult parents, RrGraph::ipin_at/node), and charges the
// straight-line SB-hop estimate to a sink missing from its tree and to
// every sink of a net with no tree. It uses only public APIs and keeps
// one list per connection, so it is independent of the arc grouping the
// session sums over. Nothing in src/ calls it.

#include <algorithm>
#include <array>
#include <cassert>
#include <cstdlib>
#include <unordered_map>
#include <vector>

#include "arch/fpga_grid.hpp"
#include "coffe/device_model.hpp"
#include "netlist/netlist.hpp"
#include "pack/pack.hpp"
#include "place/place.hpp"
#include "route/router.hpp"
#include "route/rr_graph.hpp"
#include "timing/timing.hpp"

namespace taf::reference_sta {

class Analyzer {
 public:
  Analyzer(const netlist::Netlist& nl, const pack::PackedNetlist& packed,
           const place::Placement& pl, const route::RrGraph& rr,
           const route::RouteResult& routes, const arch::FpgaGrid& grid,
           timing::TimingOptions opt = {})
      : nl_(&nl), packed_(&packed), pl_(&pl), grid_(&grid), opt_(opt) {
    topo_ = nl.topo_order();

    // Map netlist net -> block-net index for routed path lookup.
    std::unordered_map<netlist::NetId, int> block_net_of;
    for (int i = 0; i < static_cast<int>(packed.block_nets.size()); ++i) {
      block_net_of[packed.block_nets[static_cast<std::size_t>(i)].net] = i;
    }

    for (netlist::NetId n = 0; n < static_cast<netlist::NetId>(nl.nets().size()); ++n) {
      const auto& net = nl.net(n);
      const int src_block = packed.block_of_prim[static_cast<std::size_t>(net.driver)];

      // Parent map of the routed tree (if this net leaves its block).
      const route::NetRoute* nr = nullptr;
      std::unordered_map<route::RrNodeId, route::RrNodeId> parent;
      auto it = block_net_of.find(n);
      if (it != block_net_of.end()) {
        nr = &routes.routes[static_cast<std::size_t>(it->second)];
        for (const auto& [node, par] : nr->parents) parent[node] = par;
      }

      // Straight-line SB hop estimate, for unrouted nets and for a sink
      // missing from the routed tree.
      auto estimate_hops = [&pl](Connection& c, int from_block, int to_block) {
        const arch::TilePos a = pl.pos[static_cast<std::size_t>(from_block)];
        const arch::TilePos b = pl.pos[static_cast<std::size_t>(to_block)];
        const int dist = std::abs(a.x - b.x) + std::abs(a.y - b.y);
        const int hops = std::max(1, (dist + 3) / 4);
        for (int h = 0; h < hops; ++h) c.wire_tiles.push_back(a);
      };

      for (const auto& sink : net.sinks) {
        Connection c;
        c.src = net.driver;
        c.dst = sink.prim;
        const int dst_block = packed.block_of_prim[static_cast<std::size_t>(sink.prim)];
        c.same_block = dst_block == src_block;
        if (!c.same_block && nr != nullptr && !nr->nodes.empty()) {
          // Walk the routed tree from the sink IPIN back to the source.
          const arch::TilePos dst_pos = pl.pos[static_cast<std::size_t>(dst_block)];
          route::RrNodeId cur = rr.ipin_at(dst_pos.x, dst_pos.y);
          if (parent.find(cur) == parent.end()) estimate_hops(c, src_block, dst_block);
          int guard = 0;
          while (true) {
            auto pit = parent.find(cur);
            if (pit == parent.end() || pit->second < 0) break;
            cur = pit->second;
            const route::RrNode& node = rr.node(cur);
            if (node.kind == route::RrKind::WireH || node.kind == route::RrKind::WireV) {
              c.wire_tiles.push_back(node.tile);
            }
            if (++guard > rr.num_nodes()) break;
          }
        } else if (!c.same_block) {
          estimate_hops(c, src_block, dst_block);
        }
        connections_.push_back(std::move(c));
      }
    }
  }

  /// STA with one temperature per tile (indexed by FpgaGrid::index_of).
  timing::TimingResult analyze(const coffe::DeviceModel& dev,
                               const std::vector<double>& tile_temp_c) const {
    using coffe::ResourceKind;
    using netlist::PrimId;
    using netlist::PrimKind;
    assert(static_cast<int>(tile_temp_c.size()) == grid_->num_tiles());

    auto temp_at = [&](arch::TilePos p) {
      return tile_temp_c[static_cast<std::size_t>(grid_->index_of(p))];
    };
    auto dly = [&dev](ResourceKind k, double t) {
      return dev.delay(k, units::Celsius{t}).value();
    };
    auto block_tile = [&](PrimId prim) {
      const int b = packed_->block_of_prim[static_cast<std::size_t>(prim)];
      return pl_->pos[static_cast<std::size_t>(b)];
    };

    // Connection delay, total and per resource kind.
    struct Delay {
      double total = 0.0;
      std::array<double, coffe::kNumResourceKinds> by_kind{};

      void add(ResourceKind k, double ps) {
        total += ps;
        by_kind[static_cast<std::size_t>(k)] += ps;
      }
    };
    auto conn_delay = [&](const Connection& c) {
      Delay d;
      const arch::TilePos src_tile = block_tile(c.src);
      if (c.same_block) {
        d.add(ResourceKind::FeedbackMux, dly(ResourceKind::FeedbackMux, temp_at(src_tile)));
      } else {
        d.add(ResourceKind::OutputMux, dly(ResourceKind::OutputMux, temp_at(src_tile)));
        for (const arch::TilePos& wt : c.wire_tiles) {
          d.add(ResourceKind::SbMux, dly(ResourceKind::SbMux, temp_at(wt)));
        }
        d.add(ResourceKind::CbMux, dly(ResourceKind::CbMux, temp_at(block_tile(c.dst))));
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
      switch (nl_->prim(id).kind) {
        case PrimKind::Input: arrival[static_cast<std::size_t>(id)] = opt_.io_delay_ps.value(); break;
        case PrimKind::Ff: arrival[static_cast<std::size_t>(id)] = opt_.ff_clk_to_q_ps.value(); break;
        case PrimKind::Bram:
          arrival[static_cast<std::size_t>(id)] = dly(ResourceKind::Bram, temp_at(block_tile(id)));
          break;
        default: break;
      }
    }

    // Propagate through combinational elements in topological order.
    for (PrimId id : topo_) {
      const PrimKind kind = nl_->prim(id).kind;
      if (kind != PrimKind::Lut && kind != PrimKind::Dsp && kind != PrimKind::Output) continue;
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
      if (kind == PrimKind::Lut) {
        worst += dly(ResourceKind::LocalMux, temp) + dly(ResourceKind::Lut, temp);
      } else if (kind == PrimKind::Dsp) {
        worst += dly(ResourceKind::Dsp, temp);
      }
      arrival[static_cast<std::size_t>(id)] = worst;
    }

    // Capture: FF data / BRAM inputs (setup), primary outputs.
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
      const PrimKind kind = nl_->prim(id).kind;
      if (kind == PrimKind::Output) {
        consider(id, crit_conn[static_cast<std::size_t>(id)], arrival[static_cast<std::size_t>(id)]);
      } else if (kind == PrimKind::Ff || kind == PrimKind::Bram) {
        const double setup = (kind == PrimKind::Ff ? opt_.ff_setup_ps : opt_.bram_setup_ps).value();
        for (int ci : conns_into[static_cast<std::size_t>(id)]) {
          const Connection& c = connections_[static_cast<std::size_t>(ci)];
          consider(id, ci, arrival[static_cast<std::size_t>(c.src)] + conn_delay(c).total + setup);
        }
      }
    }

    timing::TimingResult result;
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
        const Delay d = conn_delay(c);
        for (std::size_t k = 0; k < d.by_kind.size(); ++k) result.cp_breakdown[k] += d.by_kind[k];
        cur = c.src;
        result.cp_prims.push_back(cur);
        const PrimKind kind = nl_->prim(cur).kind;
        const double temp = temp_at(block_tile(cur));
        if (kind == PrimKind::Lut) {
          result.cp_breakdown[static_cast<std::size_t>(ResourceKind::Lut)] +=
              dly(ResourceKind::Lut, temp);
          result.cp_breakdown[static_cast<std::size_t>(ResourceKind::LocalMux)] +=
              dly(ResourceKind::LocalMux, temp);
        } else if (kind == PrimKind::Dsp) {
          result.cp_breakdown[static_cast<std::size_t>(ResourceKind::Dsp)] +=
              dly(ResourceKind::Dsp, temp);
        } else if (kind == PrimKind::Bram) {
          result.cp_breakdown[static_cast<std::size_t>(ResourceKind::Bram)] +=
              dly(ResourceKind::Bram, temp);
        }
        ci = crit_conn[static_cast<std::size_t>(cur)];
      }
      std::reverse(result.cp_prims.begin(), result.cp_prims.end());
    }
    return result;
  }

  /// STA with a uniform junction temperature.
  timing::TimingResult analyze_uniform(const coffe::DeviceModel& dev, units::Celsius temp) const {
    return analyze(dev, std::vector<double>(static_cast<std::size_t>(grid_->num_tiles()),
                                            temp.value()));
  }

  /// Connections between primitives: one per (net, sink) pair.
  std::size_t num_connections() const { return connections_.size(); }

 private:
  struct Connection {
    netlist::PrimId src = -1;
    netlist::PrimId dst = -1;
    bool same_block = false;
    /// Anchor tiles of the wires on the routed path (SB hops).
    std::vector<arch::TilePos> wire_tiles;
  };

  const netlist::Netlist* nl_;
  const pack::PackedNetlist* packed_;
  const place::Placement* pl_;
  const arch::FpgaGrid* grid_;
  timing::TimingOptions opt_;
  std::vector<Connection> connections_;
  std::vector<netlist::PrimId> topo_;
};

}  // namespace taf::reference_sta
