// Timing-guarded re-place (DESIGN.md section 15): the place -> thermal
// feedback edge refines the wirelength around the above-mean-power
// blocks, reroutes each candidate, and keeps it only if it is faster, or
// as fast and cooler, at the pricing point. Reports what that buys ON
// TOP of Algorithm 1 guardbanding: the converged-peak change and the
// guardbanded-fmax gain over the thermally blind flow, per benchmark.

#include "bench_common.hpp"
#include "power/power.hpp"
#include "thermal/thermal_grid.hpp"

namespace {

// Converged peak temperature at a FIXED clock: the guardband result's
// peak is taken at each design's own fmax, so a faster placement runs
// hotter purely because it clocks higher. Evaluating both placements at
// the same frequency isolates what the placement itself did to the
// thermal profile.
double iso_peak_c(const taf::core::Implementation& impl,
                  const taf::coffe::DeviceModel& dev, taf::units::Megahertz f,
                  taf::units::Celsius amb) {
  using namespace taf;
  thermal::ThermalConfig tcfg;
  tcfg.ambient_c = amb;
  const thermal::ThermalGrid tg(impl.grid, tcfg);
  std::vector<double> temps(static_cast<std::size_t>(impl.grid.num_tiles()),
                            amb.value());
  for (int it = 0; it < 4; ++it) {
    const power::PowerBreakdown p = power::compute_power(
        dev, impl.nl, impl.packed, impl.placement, impl.rr, impl.routes,
        impl.activity, f, temps, impl.grid);
    temps = tg.solve(p.tile_w);
  }
  return thermal::ThermalGrid::peak(temps).value();
}

}  // namespace

TAF_EXPERIMENT(thermal_aware_place) {
  using namespace taf;
  using util::Table;
  bench::print_header(
      "Thermal-aware placement — timing-guarded re-place on top of Algorithm 1",
      "re-placing the above-mean-power blocks and keeping a rerouted "
      "candidate only when it is faster, or as fast and cooler, buys "
      "guardbanded fmax beyond the thermally blind flow without losing any");

  const auto& dev = bench::device_at(25.0);
  core::GuardbandOptions gopt;
  gopt.t_amb_c = units::Celsius(45.0);

  Table t({"Benchmark", "peak C (blind)", "peak C (aware)", "dPeak K",
           "fmax MHz (blind)", "fmax MHz (aware)", "extra gain"});
  std::vector<double> gains;
  std::vector<double> dpeaks;
  for (const auto& spec : netlist::vtr_suite()) {
    const core::Implementation& blind = bench::implementation_of(spec.name);

    core::ImplementOptions iopt;
    iopt.thermal_place.enabled = true;
    iopt.thermal_place.device = &dev;
    const core::Implementation& aware = runner::FlowCache::global().implementation(
        spec, bench::bench_arch(), bench::kSuiteScale, iopt);

    const core::GuardbandResult rb = core::guardband(blind, dev, gopt);
    const core::GuardbandResult ra = core::guardband(aware, dev, gopt);

    // Iso-frequency peaks: both placements at the blind design's
    // guardbanded clock, so dPeak measures the placement, not the speed.
    const double pb = iso_peak_c(blind, dev, rb.fmax_mhz, gopt.t_amb_c);
    const double pa = iso_peak_c(aware, dev, rb.fmax_mhz, gopt.t_amb_c);
    const double dpeak = pb - pa;
    const double gain = rb.fmax_mhz.value() > 0.0
                            ? ra.fmax_mhz / rb.fmax_mhz - 1.0
                            : 0.0;
    dpeaks.push_back(dpeak);
    gains.push_back(gain);
    t.add_row({spec.name, Table::num(pb, 2), Table::num(pa, 2),
               Table::num(dpeak, 3),
               Table::num(rb.fmax_mhz.value(), 1), Table::num(ra.fmax_mhz.value(), 1),
               Table::pct(gain)});
  }
  t.add_row({"average", "", "", Table::num(util::mean_of(dpeaks), 3), "", "",
             Table::pct(util::mean_of(gains))});
  t.print();
  return 0;
}
