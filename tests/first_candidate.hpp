#pragma once
// The first thermal_place candidate of a blind implementation, built the
// way the stage builds its first pass (DESIGN.md section 15): one bounded
// refinement of the blind placement that moves only blocks carrying at
// least the mean dynamic power at the pricing point.

#include "core/flow.hpp"
#include "place/place.hpp"
#include "power/power.hpp"

namespace taf::testutil {

/// The first pass's refinement of `impl`'s blind placement under `tp`
/// (tp.device must be set).
inline place::Placement first_candidate(const core::Implementation& impl,
                                        const core::ThermalPlaceOptions& tp) {
  place::RefineOptions ropt;
  ropt.seed = core::ImplementOptions{}.seed;
  ropt.effort = tp.effort;
  ropt.max_rounds = tp.max_rounds;
  return place::refine_placement(
      impl.packed, impl.grid, impl.placement,
      power::block_dynamic_power(*tp.device, impl.nl, impl.packed, impl.activity,
                                 tp.pricing_f_mhz),
      ropt);
}

}  // namespace taf::testutil
