#pragma once
// Per-tile power estimation (the paper's in-house power script).
//
// Leakage: every fabricated resource leaks whether used or not (the
// paper's "abundance of leaky resources") — each tile carries its full
// inventory of muxes/LUTs/hard cores, and leakage is evaluated at the
// tile's own temperature.
// Dynamic: scaled from the Table II characterization (pdyn at 100 MHz,
// alpha=1) by each net's estimated activity and the design frequency;
// routed wires burn SB-mux energy in the tile that drives them, so the
// spatial power distribution tracks the routing, as the paper requires.
// The dynamic terms are LUT, local-mux, output-mux, BRAM and DSP
// switching per primitive, plus one SB mux per routed wire and one CB mux
// per routed input pin. Intra-block feedback connections add no term: the
// feedback muxes only leak.

#include <array>
#include <cstddef>
#include <vector>

#include "activity/activity.hpp"
#include "arch/fpga_grid.hpp"
#include "coffe/device_model.hpp"
#include "pack/pack.hpp"
#include "place/place.hpp"
#include "route/router.hpp"
#include "route/rr_graph.hpp"
#include "util/units.hpp"

namespace taf::power {

struct PowerBreakdown {
  std::vector<double> tile_w;   ///< per-tile total power [W]
  units::Watts dynamic_w;
  units::Watts leakage_w;
  units::Watts total_w() const { return dynamic_w + leakage_w; }
};

/// Per-tile leakage inventory of the architecture at a temperature.
/// Exposed for the validation bench (device base power).
units::Microwatts tile_leakage(const coffe::DeviceModel& dev, arch::TileKind kind,
                               const arch::ArchParams& arch, units::Celsius temp);

/// Per-block movable dynamic power [W]: the block-anchored dynamic terms
/// of compute_power() (LUT + local/output mux, BRAM, DSP switching)
/// attributed to the packed block that carries them — one entry per
/// block. Routing and leakage are excluded (the former follows the
/// routes, the latter the temperature field). It feeds
/// place::refine_placement, which proposes moves only for the blocks at
/// or above the mean of these powers (DESIGN.md section 15).
std::vector<double> block_dynamic_power(const coffe::DeviceModel& dev,
                                        const netlist::Netlist& nl,
                                        const pack::PackedNetlist& packed,
                                        const std::vector<activity::SignalStats>& act,
                                        units::Megahertz f);

/// Every dynamic term of one implementation as per-tile activity sums:
/// by_kind[k][t] adds up, in term order (block terms, then wire terms),
/// the activity argument of DeviceModel::dyn_power of each resource
/// kind k term burned in tile t (FpgaGrid::index_of). A kind with no
/// term stores an empty map. Neither the device nor the frequency
/// enters, so core::Implementation builds it once and prices it at every
/// (f, temperature map).
struct TileActivity {
  std::array<std::vector<double>, coffe::kNumResourceKinds> by_kind;

  bool operator==(const TileActivity&) const = default;
};

TileActivity tile_activity(const netlist::Netlist& nl, const pack::PackedNetlist& packed,
                           const place::Placement& pl, const route::RrGraph& rr,
                           const route::RouteResult& routes,
                           const std::vector<activity::SignalStats>& act,
                           const arch::FpgaGrid& grid);

/// Full power map at frequency f and the given per-tile temperatures:
/// the leakage of each tile at its temperature, plus per tile
/// w = sum_k c_k * A_k[t], summed in ResourceKind order from 0.0, with
/// c_k = dyn_power(k, f, 1) * 1e-6 and A_k = activity.by_kind[k].
/// dynamic_w adds up the w in tile order.
PowerBreakdown compute_power(const coffe::DeviceModel& dev, const TileActivity& activity,
                             units::Megahertz f, const std::vector<double>& tile_temp_c,
                             const arch::FpgaGrid& grid);

/// The same map for a placement and routes without a prebuilt
/// TileActivity: compute_power(dev, tile_activity(...), f, ...).
PowerBreakdown compute_power(const coffe::DeviceModel& dev,
                             const netlist::Netlist& nl,
                             const pack::PackedNetlist& packed,
                             const place::Placement& pl, const route::RrGraph& rr,
                             const route::RouteResult& routes,
                             const std::vector<activity::SignalStats>& act,
                             units::Megahertz f, const std::vector<double>& tile_temp_c,
                             const arch::FpgaGrid& grid);

/// A power map at a uniform temperature field (Algorithm 1's first, at
/// the ambient) as a linear combination of fixed unit maps: term k <
/// coffe::kNumResourceKinds is activity.by_kind[k], term
/// coffe::kNumResourceKinds + t the indicator map of tile kind t.
/// compute_power(dev, activity, f, uniform t, grid).tile_w equals
/// sum_j uniform_power_coefficients(dev, f, t)[j] * basis[j], summed in
/// term order from 0.0, bit for bit: both add the same dynamic sum to one
/// leakage term, and every other term is exactly zero. So the thermal
/// response of that map is the same combination of the basis maps'
/// responses (the thermal model is linear).
inline constexpr auto kNumUniformPowerTerms =
    static_cast<std::size_t>(coffe::kNumResourceKinds + arch::kNumTileKinds);
using UniformPowerCoefficients = std::array<double, kNumUniformPowerTerms>;

/// The unit maps, one per term in term order (all-zero for a resource
/// kind without dynamic terms or a tile kind the grid lacks).
std::vector<std::vector<double>> uniform_power_basis(const TileActivity& activity,
                                                     const arch::FpgaGrid& grid);

/// The terms' coefficients [W per unit] at frequency f and the uniform
/// temperature t: each resource kind's c_k and each tile kind's leakage
/// inventory, priced as compute_power() prices them.
UniformPowerCoefficients uniform_power_coefficients(const coffe::DeviceModel& dev,
                                                    units::Megahertz f, units::Celsius t);

}  // namespace taf::power
