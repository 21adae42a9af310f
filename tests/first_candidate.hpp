#pragma once
// The first thermal_place candidate of a blind implementation, built the
// way the stage builds its first pass (DESIGN.md section 15): the blind
// build's power at the pricing point, its adjoint prices quantized to
// 1e-3 K/W, then one bounded refinement from the blind placement.

#include <cmath>
#include <vector>

#include "core/flow.hpp"
#include "place/place.hpp"
#include "power/power.hpp"
#include "thermal/thermal_grid.hpp"

namespace taf::testutil {

/// Quantized adjoint field of `impl`'s blind routes under `tp`
/// (tp.device must be set).
inline place::ThermalField first_pass_field(const core::Implementation& impl,
                                            const core::ThermalPlaceOptions& tp) {
  const std::vector<double> pricing_temp(static_cast<std::size_t>(impl.grid.num_tiles()),
                                         tp.pricing_temp_c.value());
  const power::PowerBreakdown power =
      power::compute_power(*tp.device, impl.nl, impl.packed, impl.placement, impl.rr,
                           impl.routes, impl.activity, tp.pricing_f_mhz, pricing_temp,
                           impl.grid);
  const thermal::AdjointResult adj =
      thermal::ThermalGrid(impl.grid, tp.thermal).solve_adjoint(power.tile_w, tp.smooth_tau_k);
  place::ThermalField field;
  for (double v : adj.dpeak_dp_k_per_w) {
    field.dpeak_dp_k_per_w.push_back(std::round(v * 1000.0) / 1000.0);
  }
  field.block_power_w = power::block_dynamic_power(*tp.device, impl.nl, impl.packed,
                                                   impl.activity, tp.pricing_f_mhz);
  field.weight = tp.weight;
  return field;
}

/// The first pass's refinement of `impl`'s blind placement under `field`.
inline place::Placement first_candidate(const core::Implementation& impl,
                                        const core::ThermalPlaceOptions& tp,
                                        const place::ThermalField& field) {
  place::RefineOptions ropt;
  ropt.seed = core::ImplementOptions{}.seed;
  ropt.effort = tp.effort;
  ropt.max_rounds = tp.max_rounds;
  return place::refine_placement(impl.packed, impl.grid, impl.placement, field, ropt);
}

}  // namespace taf::testutil
