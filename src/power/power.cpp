#include "power/power.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <limits>

namespace taf::power {

namespace {

using coffe::ResourceKind;
using netlist::PrimKind;

double net_density(const std::vector<activity::SignalStats>& act, netlist::NetId n) {
  return n >= 0 && n < static_cast<netlist::NetId>(act.size())
             ? act[static_cast<std::size_t>(n)].density
             : 0.0;
}

// The dynamic terms, defined once. Each visitor calls
// emit(anchor, kind, activity) per term, in term order; the term burns
// dev.dyn_power(kind, f, activity) in the anchor's tile.

/// Block-anchored terms (LUT + local/output mux, BRAM, DSP switching);
/// the anchor is the packed block.
template <typename Emit>
void for_each_block_term(const netlist::Netlist& nl, const pack::PackedNetlist& packed,
                         const std::vector<activity::SignalStats>& act, Emit&& emit) {
  for (netlist::PrimId id = 0; id < static_cast<netlist::PrimId>(nl.prims().size());
       ++id) {
    const auto& p = nl.prim(id);
    const int block = packed.block_of_prim[static_cast<std::size_t>(id)];
    if (block < 0) continue;
    const double alpha = p.output != netlist::kNoNet ? net_density(act, p.output) : 0.0;
    switch (p.kind) {
      case PrimKind::Lut: {
        emit(block, ResourceKind::Lut, alpha);
        // Input muxes switch with the input nets.
        double in_alpha = 0.0;
        for (netlist::NetId in : p.inputs)
          if (in != netlist::kNoNet) in_alpha += net_density(act, in);
        emit(block, ResourceKind::LocalMux, in_alpha);
        emit(block, ResourceKind::OutputMux, alpha);
        break;
      }
      case PrimKind::Bram:
        emit(block, ResourceKind::Bram, 0.5 + alpha);
        break;
      case PrimKind::Dsp:
        emit(block, ResourceKind::Dsp, 0.25 + 0.5 * alpha);
        break;
      default:
        break;
    }
  }
}

/// Routed-wire terms: each occupied wire burns one SB mux's switched
/// energy in the tile that anchors (drives) it, each input pin one CB
/// mux's. The anchor is the RR node's tile.
template <typename Emit>
void for_each_wire_term(const pack::PackedNetlist& packed, const route::RrGraph& rr,
                        const route::RouteResult& routes,
                        const std::vector<activity::SignalStats>& act, Emit&& emit) {
  for (std::size_t bn = 0; bn < packed.block_nets.size(); ++bn) {
    const double alpha = net_density(act, packed.block_nets[bn].net);
    for (route::RrNodeId n : routes.routes[bn].nodes) {
      const route::RrNode& node = rr.node(n);
      switch (node.kind) {
        case route::RrKind::WireH:
        case route::RrKind::WireV:
          emit(node.tile, ResourceKind::SbMux, alpha);
          break;
        case route::RrKind::Ipin:
          emit(node.tile, ResourceKind::CbMux, alpha);
          break;
        case route::RrKind::Opin:
          break;  // output mux accounted with the block
      }
    }
  }
}

/// A power map holding only leakage: the full per-tile inventory at the
/// tile temperature. tile_leakage is a pure function of (tile kind,
/// temperature), so each kind keeps its last evaluation; uniform maps
/// (Algorithm 1's first iteration) then evaluate once per kind. Same
/// refresh predicate as IncrementalSta: a NaN temperature never matches.
PowerBreakdown leakage_map(const coffe::DeviceModel& dev,
                           const std::vector<double>& tile_temp_c,
                           const arch::FpgaGrid& grid) {
  assert(static_cast<int>(tile_temp_c.size()) == grid.num_tiles());
  PowerBreakdown result;
  result.tile_w.assign(static_cast<std::size_t>(grid.num_tiles()), 0.0);
  struct LeakageMemo {
    double temp_c = std::numeric_limits<double>::quiet_NaN();
    double uw = 0.0;
  };
  std::array<LeakageMemo, arch::kNumTileKinds> memo{};
  for (int y = 0; y < grid.height(); ++y) {
    for (int x = 0; x < grid.width(); ++x) {
      const auto i = static_cast<std::size_t>(grid.index_of(x, y));
      const double t = tile_temp_c[i];
      const arch::TileKind kind = grid.at(x, y);
      LeakageMemo& m = memo[static_cast<std::size_t>(kind)];
      if (t != m.temp_c) {
        m.temp_c = t;
        m.uw = tile_leakage(dev, kind, dev.arch, units::Celsius{t}).value();
      }
      const double w = m.uw * 1e-6;
      result.tile_w[i] += w;
      result.leakage_w += units::Watts{w};
    }
  }
  return result;
}

/// c_k = dyn_power(k, f, 1) * 1e-6, resource kind k's dynamic power [W]
/// per unit activity. dyn_power is (pdyn * (f / 100)) * activity, so
/// activity 1 is exact.
std::array<double, coffe::kNumResourceKinds> dynamic_coefficients(
    const coffe::DeviceModel& dev, units::Megahertz f) {
  std::array<double, coffe::kNumResourceKinds> c{};
  for (const ResourceKind k : coffe::all_resource_kinds()) {
    c[static_cast<std::size_t>(k)] = dev.dyn_power(k, f, 1.0).value() * 1e-6;
  }
  return c;
}

/// First leakage term of the uniform-field basis.
constexpr auto kFirstLeakageTerm = static_cast<std::size_t>(coffe::kNumResourceKinds);

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
  std::vector<double> block_w(packed.blocks.size(), 0.0);
  for_each_block_term(nl, packed, act, [&](int block, ResourceKind k, double a) {
    block_w[static_cast<std::size_t>(block)] += dev.dyn_power(k, f, a).value() * 1e-6;
  });
  return block_w;
}

TileActivity tile_activity(const netlist::Netlist& nl, const pack::PackedNetlist& packed,
                           const place::Placement& pl, const route::RrGraph& rr,
                           const route::RouteResult& routes,
                           const std::vector<activity::SignalStats>& act,
                           const arch::FpgaGrid& grid) {
  TileActivity activity;
  const auto add = [&](arch::TilePos pos, ResourceKind k, double a) {
    std::vector<double>& map = activity.by_kind[static_cast<std::size_t>(k)];
    if (map.empty()) map.assign(static_cast<std::size_t>(grid.num_tiles()), 0.0);
    map[static_cast<std::size_t>(grid.index_of(pos))] += a;
  };
  for_each_block_term(nl, packed, act, [&](int block, ResourceKind k, double a) {
    add(pl.pos[static_cast<std::size_t>(block)], k, a);
  });
  for_each_wire_term(packed, rr, routes, act, add);
  return activity;
}

PowerBreakdown compute_power(const coffe::DeviceModel& dev, const TileActivity& activity,
                             units::Megahertz f, const std::vector<double>& tile_temp_c,
                             const arch::FpgaGrid& grid) {
  PowerBreakdown result = leakage_map(dev, tile_temp_c, grid);
  const std::array<double, coffe::kNumResourceKinds> c = dynamic_coefficients(dev, f);
  double dynamic = 0.0;
  for (std::size_t t = 0; t < result.tile_w.size(); ++t) {
    double w = 0.0;
    for (std::size_t k = 0; k < c.size(); ++k) {
      if (!activity.by_kind[k].empty()) w += c[k] * activity.by_kind[k][t];
    }
    result.tile_w[t] += w;
    dynamic += w;
  }
  result.dynamic_w = units::Watts{dynamic};
  return result;
}

PowerBreakdown compute_power(const coffe::DeviceModel& dev, const netlist::Netlist& nl,
                             const pack::PackedNetlist& packed,
                             const place::Placement& pl, const route::RrGraph& rr,
                             const route::RouteResult& routes,
                             const std::vector<activity::SignalStats>& act,
                             units::Megahertz f, const std::vector<double>& tile_temp_c,
                             const arch::FpgaGrid& grid) {
  return compute_power(dev, tile_activity(nl, packed, pl, rr, routes, act, grid), f,
                       tile_temp_c, grid);
}

std::vector<std::vector<double>> uniform_power_basis(const TileActivity& activity,
                                                     const arch::FpgaGrid& grid) {
  const std::vector<double> zero(static_cast<std::size_t>(grid.num_tiles()), 0.0);
  std::vector<std::vector<double>> basis;
  basis.reserve(kNumUniformPowerTerms);
  for (const std::vector<double>& map : activity.by_kind) {
    basis.push_back(map.empty() ? zero : map);
  }
  basis.resize(kNumUniformPowerTerms, zero);
  for (int y = 0; y < grid.height(); ++y) {
    for (int x = 0; x < grid.width(); ++x) {
      basis[kFirstLeakageTerm + static_cast<std::size_t>(grid.at(x, y))]
           [static_cast<std::size_t>(grid.index_of(x, y))] = 1.0;
    }
  }
  return basis;
}

UniformPowerCoefficients uniform_power_coefficients(const coffe::DeviceModel& dev,
                                                    units::Megahertz f, units::Celsius t) {
  UniformPowerCoefficients coef{};
  const std::array<double, coffe::kNumResourceKinds> c = dynamic_coefficients(dev, f);
  std::copy(c.begin(), c.end(), coef.begin());
  for (int kind = 0; kind < arch::kNumTileKinds; ++kind) {
    coef[kFirstLeakageTerm + static_cast<std::size_t>(kind)] =
        tile_leakage(dev, static_cast<arch::TileKind>(kind), dev.arch, t).value() * 1e-6;
  }
  return coef;
}

}  // namespace taf::power
