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
#include <cstdint>
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
/// block. This is the per-block -> per-tile power Jacobian of placement:
/// tile_w = sum_b block_w[b] * e_{tile(b)} + placement-anchored routing
/// and leakage terms, so moving block b from tile t1 to t2 shifts
/// exactly block_w[b] watts between the two tiles. Routing and leakage
/// are excluded (the former follows the routes, the latter the
/// temperature field); the thermal-aware placer treats both as frozen
/// between gradient refreshes (DESIGN.md section 15).
std::vector<double> block_dynamic_power(const coffe::DeviceModel& dev,
                                        const netlist::Netlist& nl,
                                        const pack::PackedNetlist& packed,
                                        const std::vector<activity::SignalStats>& act,
                                        units::Megahertz f);

/// Every dynamic term of one implementation, in the order compute_power()
/// adds them: the tile that burns the term (FpgaGrid::index_of), its
/// resource kind (coffe::ResourceKind) and the activity argument of
/// DeviceModel::dyn_power. Neither the device nor the frequency enters,
/// so core::Implementation builds the table once and prices it at every
/// (f, temperature map). Struct of arrays: 13 bytes per term.
struct DynamicLoads {
  std::vector<std::int32_t> tile;
  std::vector<std::uint8_t> kind;
  std::vector<double> activity;

  bool operator==(const DynamicLoads&) const = default;
};

DynamicLoads dynamic_loads(const netlist::Netlist& nl, const pack::PackedNetlist& packed,
                           const place::Placement& pl, const route::RrGraph& rr,
                           const route::RouteResult& routes,
                           const std::vector<activity::SignalStats>& act,
                           const arch::FpgaGrid& grid);

/// Full power map for an implemented design at frequency f and the given
/// per-tile temperatures. One-shot: walks the netlist and routes in
/// place, allocating only the result.
PowerBreakdown compute_power(const coffe::DeviceModel& dev,
                             const netlist::Netlist& nl,
                             const pack::PackedNetlist& packed,
                             const place::Placement& pl, const route::RrGraph& rr,
                             const route::RouteResult& routes,
                             const std::vector<activity::SignalStats>& act,
                             units::Megahertz f, const std::vector<double>& tile_temp_c,
                             const arch::FpgaGrid& grid);

/// The same power map priced from a prebuilt table: bit-identical to the
/// overload above on the artifacts the table was built from.
PowerBreakdown compute_power(const coffe::DeviceModel& dev, const DynamicLoads& loads,
                             units::Megahertz f, const std::vector<double>& tile_temp_c,
                             const arch::FpgaGrid& grid);

/// A power map at a uniform temperature field (Algorithm 1's first, at
/// the ambient) as a linear combination of fixed unit maps: term k <
/// coffe::kNumResourceKinds is the per-tile activity sum of resource kind
/// k's dynamic terms, term coffe::kNumResourceKinds + t the indicator map
/// of tile kind t. compute_power(dev, loads, f, uniform t, grid).tile_w
/// equals sum_j uniform_power_coefficients(dev, f, t)[j] * basis[j] up to
/// rounding, so the thermal response of that map is the same combination
/// of the basis maps' responses (the thermal model is linear).
inline constexpr auto kNumUniformPowerTerms =
    static_cast<std::size_t>(coffe::kNumResourceKinds + arch::kNumTileKinds);
using UniformPowerCoefficients = std::array<double, kNumUniformPowerTerms>;

/// The unit maps, one per term in term order (all-zero for a resource
/// kind without dynamic terms or a tile kind the grid lacks).
std::vector<std::vector<double>> uniform_power_basis(const DynamicLoads& loads,
                                                     const arch::FpgaGrid& grid);

/// The terms' coefficients [W per unit] at frequency f and the uniform
/// temperature t: each resource kind's dynamic power at activity 1 and
/// each tile kind's leakage inventory, priced as compute_power() prices
/// them.
UniformPowerCoefficients uniform_power_coefficients(const coffe::DeviceModel& dev,
                                                    units::Megahertz f, units::Celsius t);

}  // namespace taf::power
