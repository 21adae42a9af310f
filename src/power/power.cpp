#include "power/power.hpp"

#include <array>
#include <cassert>
#include <limits>

namespace taf::power {

namespace {

using coffe::ResourceKind;
using netlist::PrimKind;

}  // namespace

units::Microwatts tile_leakage(const coffe::DeviceModel& dev, arch::TileKind kind,
                               const arch::ArchParams& arch, units::Celsius temp) {
  // Routing resources exist on every tile: wires anchored per tile
  // (2 * W / L SB muxes) plus the connection-block muxes.
  const double sb_count = 2.0 * arch.channel_tracks / arch.wire_segment_length;
  double uw = sb_count * dev.leakage(ResourceKind::SbMux, temp).value() +
              arch.cluster_inputs * dev.leakage(ResourceKind::CbMux, temp).value();
  switch (kind) {
    case arch::TileKind::Clb:
      uw += arch.cluster_n * (dev.leakage(ResourceKind::Lut, temp).value() +
                              dev.leakage(ResourceKind::OutputMux, temp).value() +
                              dev.leakage(ResourceKind::FeedbackMux, temp).value()) +
            arch.cluster_n * arch.lut_k * dev.leakage(ResourceKind::LocalMux, temp).value();
      break;
    case arch::TileKind::Bram:
      uw += dev.leakage(ResourceKind::Bram, temp).value();
      break;
    case arch::TileKind::Dsp:
      uw += dev.leakage(ResourceKind::Dsp, temp).value();
      break;
    case arch::TileKind::Io:
      break;  // pads modelled as leakage-free
  }
  return units::Microwatts{uw};
}

std::vector<double> block_dynamic_power(const coffe::DeviceModel& dev,
                                        const netlist::Netlist& nl,
                                        const pack::PackedNetlist& packed,
                                        const std::vector<activity::SignalStats>& act,
                                        units::Megahertz f) {
  // Mirrors the block-dynamic section of compute_power() term for term,
  // binned by block instead of tile so the result is placement-free.
  std::vector<double> block_w(packed.blocks.size(), 0.0);
  auto net_density = [&](netlist::NetId n) {
    return n >= 0 && n < static_cast<netlist::NetId>(act.size())
               ? act[static_cast<std::size_t>(n)].density
               : 0.0;
  };
  auto add_uw = [&](int block, double uw) {
    block_w[static_cast<std::size_t>(block)] += uw * 1e-6;
  };
  for (netlist::PrimId id = 0; id < static_cast<netlist::PrimId>(nl.prims().size());
       ++id) {
    const auto& p = nl.prim(id);
    const int block = packed.block_of_prim[static_cast<std::size_t>(id)];
    if (block < 0) continue;
    const double alpha = p.output != netlist::kNoNet ? net_density(p.output) : 0.0;
    switch (p.kind) {
      case PrimKind::Lut: {
        add_uw(block, dev.dyn_power(ResourceKind::Lut, f, alpha).value());
        double in_alpha = 0.0;
        for (netlist::NetId in : p.inputs)
          if (in != netlist::kNoNet) in_alpha += net_density(in);
        add_uw(block, dev.dyn_power(ResourceKind::LocalMux, f, in_alpha).value());
        add_uw(block, dev.dyn_power(ResourceKind::OutputMux, f, alpha).value());
        break;
      }
      case PrimKind::Bram:
        add_uw(block, dev.dyn_power(ResourceKind::Bram, f, 0.5 + alpha).value());
        break;
      case PrimKind::Dsp:
        add_uw(block, dev.dyn_power(ResourceKind::Dsp, f, 0.25 + 0.5 * alpha).value());
        break;
      default:
        break;
    }
  }
  return block_w;
}

PowerBreakdown compute_power(const coffe::DeviceModel& dev, const netlist::Netlist& nl,
                             const pack::PackedNetlist& packed,
                             const place::Placement& pl, const route::RrGraph& rr,
                             const route::RouteResult& routes,
                             const std::vector<activity::SignalStats>& act,
                             units::Megahertz f, const std::vector<double>& tile_temp_c,
                             const arch::FpgaGrid& grid) {
  assert(static_cast<int>(tile_temp_c.size()) == grid.num_tiles());
  PowerBreakdown result;
  result.tile_w.assign(static_cast<std::size_t>(grid.num_tiles()), 0.0);

  auto add_uw = [&](arch::TilePos pos, double uw, bool dynamic) {
    const double w = uw * 1e-6;
    result.tile_w[static_cast<std::size_t>(grid.index_of(pos))] += w;
    (dynamic ? result.dynamic_w : result.leakage_w) += units::Watts{w};
  };

  // --- Leakage: full per-tile inventory at the tile temperature.
  // tile_leakage is a pure function of (tile kind, temperature), so each
  // kind keeps its last evaluation; uniform maps (Algorithm 1's first
  // iteration) then evaluate once per kind. Same refresh predicate as
  // IncrementalSta: a NaN temperature never matches.
  struct LeakageMemo {
    double temp_c = std::numeric_limits<double>::quiet_NaN();
    double uw = 0.0;
  };
  std::array<LeakageMemo, arch::kNumTileKinds> memo{};
  for (int y = 0; y < grid.height(); ++y) {
    for (int x = 0; x < grid.width(); ++x) {
      const double t = tile_temp_c[static_cast<std::size_t>(grid.index_of(x, y))];
      const arch::TileKind kind = grid.at(x, y);
      LeakageMemo& m = memo[static_cast<std::size_t>(kind)];
      if (t != m.temp_c) {
        m.temp_c = t;
        m.uw = tile_leakage(dev, kind, dev.arch, units::Celsius{t}).value();
      }
      add_uw({x, y}, m.uw, false);
    }
  }

  // --- Dynamic: blocks.
  auto net_density = [&](netlist::NetId n) {
    return n >= 0 && n < static_cast<netlist::NetId>(act.size())
               ? act[static_cast<std::size_t>(n)].density
               : 0.0;
  };
  for (netlist::PrimId id = 0; id < static_cast<netlist::PrimId>(nl.prims().size());
       ++id) {
    const auto& p = nl.prim(id);
    const int block = packed.block_of_prim[static_cast<std::size_t>(id)];
    if (block < 0) continue;
    const arch::TilePos pos = pl.pos[static_cast<std::size_t>(block)];
    const double alpha = p.output != netlist::kNoNet ? net_density(p.output) : 0.0;
    switch (p.kind) {
      case PrimKind::Lut: {
        add_uw(pos, dev.dyn_power(ResourceKind::Lut, f, alpha).value(), true);
        // Input muxes switch with the input nets.
        double in_alpha = 0.0;
        for (netlist::NetId in : p.inputs)
          if (in != netlist::kNoNet) in_alpha += net_density(in);
        add_uw(pos, dev.dyn_power(ResourceKind::LocalMux, f, in_alpha).value(), true);
        add_uw(pos, dev.dyn_power(ResourceKind::OutputMux, f, alpha).value(), true);
        break;
      }
      case PrimKind::Bram:
        add_uw(pos, dev.dyn_power(ResourceKind::Bram, f, 0.5 + alpha).value(), true);
        break;
      case PrimKind::Dsp:
        add_uw(pos, dev.dyn_power(ResourceKind::Dsp, f, 0.25 + 0.5 * alpha).value(), true);
        break;
      default:
        break;
    }
  }

  // --- Dynamic: routing. Each occupied wire burns one SB mux's switched
  // energy in the tile that anchors (drives) it.
  for (std::size_t bn = 0; bn < packed.block_nets.size(); ++bn) {
    const auto& net = packed.block_nets[bn];
    const double alpha = net_density(net.net);
    const route::NetRoute& nr = routes.routes[bn];
    for (route::RrNodeId n : nr.nodes) {
      const route::RrNode& node = rr.node(n);
      switch (node.kind) {
        case route::RrKind::WireH:
        case route::RrKind::WireV:
          add_uw(node.tile, dev.dyn_power(ResourceKind::SbMux, f, alpha).value(), true);
          break;
        case route::RrKind::Ipin:
          add_uw(node.tile, dev.dyn_power(ResourceKind::CbMux, f, alpha).value(), true);
          break;
        case route::RrKind::Opin:
          break;  // output mux accounted with the block
      }
    }
    // Intra-block feedback connections switch the feedback muxes.
    (void)nl;
  }

  return result;
}

}  // namespace taf::power
