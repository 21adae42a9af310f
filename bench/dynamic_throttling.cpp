// Dynamic-workload throttling experiment (DESIGN.md section 13): replay
// duty-cycled activity traces through the transient thermal engine and
// compare the time-resolved safe frequency against the static corners.
// A static guardband prices the steady-state worst case of the activity
// model; a workload that duty-cycles faster than the package's thermal
// time constant never integrates up to that excursion, and the dynamic
// replay recovers the difference — while a slow duty cycle converges to
// the static answer (the long-dwell differential contract).
//
// The "smoke" scenario doubles as the CI determinism probe: CI runs
// `bench_all --only dynamic_throttling` twice and byte-compares stdout,
// so nothing below may print wall-clock time or any other run-varying
// value.

#include "bench_common.hpp"
#include "core/dynamic.hpp"

TAF_EXPERIMENT(dynamic_throttling) {
  using namespace taf;
  using util::Table;
  bench::print_header(
      "Dynamic throttling — trace-driven transient guardbanding vs static corners",
      "a workload duty-cycling faster than the thermal time constant never "
      "reaches the steady-state excursion a static guardband prices, so the "
      "transient replay sustains a higher safe frequency");

  const char* design = "sha";
  const double ambient_c = 45.0;
  const auto& dev = bench::device_at(25.0);
  const auto& impl = bench::implementation_of(design);

  // The 1/16-scale suite dissipates a fraction of a full-size design and
  // warms only ~0.1 C; amplify through the power_scale metamorphic seam
  // (identically on the static and dynamic paths, so the comparison
  // stays fair) to a full-device-representative excursion.
  const double power_scale = 100.0;

  // Static reference: the Algorithm 1 fixed point at full utilization.
  core::GuardbandOptions gopt;
  gopt.t_amb_c = units::Celsius{ambient_c};
  gopt.power_scale = power_scale;
  const core::GuardbandResult steady = core::guardband(impl, dev, gopt);

  core::DynamicGuardbandOptions dopt;
  dopt.t_amb_c = units::Celsius{ambient_c};
  dopt.power_scale = power_scale;
  dopt.samples_per_segment = 2;
  // Self-calibrating throttle ceiling at 60% of the steady excursion
  // over ambient: heavy duty cycles cross it, light ones stay under it,
  // whatever the absolute temperatures of the scaled suite are.
  const double excursion_c = steady.peak_temp_c.value() - ambient_c;
  dopt.throttle_c = units::Celsius{ambient_c + 0.6 * excursion_c};
  const core::DynamicGuardband dyn(impl, dev, dopt);
  const double tau_s = dyn.grid().tile_time_constant().value();

  std::printf("design %s, ambient %.0f C, power x%.0f, tile time constant %.3e s\n",
              design, ambient_c, power_scale, tau_s);
  std::printf("static corners: worst-case %.1f MHz, thermal-aware %.1f MHz, "
              "steady peak %.3f C\n",
              steady.baseline_fmax_mhz.value(), steady.fmax_mhz.value(),
              steady.peak_temp_c.value());
  std::printf("throttle ceiling %.3f C (ambient + 60%% of the steady excursion)\n\n",
              dyn.options().throttle_c.value());

  struct Scenario {
    const char* name;
    double period_tau;  // duty-cycle period as a multiple of tau
    double duty;
    int cycles;
  };
  const Scenario scenarios[] = {
      {"smoke", 1.0, 0.5, 2},     // the CI determinism scenario
      {"fast", 0.25, 0.5, 8},     // period << tau: near-averaged power
      {"resonant", 1.0, 0.5, 4},  // period ~ tau: largest swing per cycle
      {"slow", 4.0, 0.5, 3},      // period >> tau: approaches steady per phase
      {"light", 1.0, 0.25, 4},
      {"heavy", 1.0, 0.75, 4},
  };

  Table t({"Scenario", "period/tau", "duty", "min MHz", "vs static", "peak C",
           "throttled s", "BE steps"});
  for (const Scenario& s : scenarios) {
    const core::ActivityTrace trace = core::ActivityTrace::duty_cycle(
        s.cycles, units::Seconds{s.period_tau * tau_s}, s.duty, 1.0, 0.1);
    const core::DynamicResult r = dyn.replay(trace);
    const double vs_static = r.min_fmax_mhz.value() / steady.fmax_mhz.value() - 1.0;
    t.add_row({s.name, Table::num(s.period_tau, 2), Table::num(s.duty, 2),
               Table::num(r.min_fmax_mhz.value(), 1), Table::pct(vs_static),
               Table::num(r.peak_temp_c.value(), 3),
               Table::num(r.throttled_s.value(), 4),
               std::to_string(r.stats.steps)});
  }

  // Long full-power dwell: the transient answer must land on the static
  // one (the differential contract tests/test_transient.cpp pins
  // tile-by-tile; here it shows up as matching peak and fmax).
  core::ActivityTrace dwell;
  dwell.blocks = 1;
  dwell.segments.push_back({units::Seconds{20.0 * tau_s}, {1.0}});
  const core::DynamicResult r = dyn.replay(dwell);
  const double vs_static = r.min_fmax_mhz.value() / steady.fmax_mhz.value() - 1.0;
  t.add_row({"dwell 20tau", "", Table::num(1.0, 2),
             Table::num(r.min_fmax_mhz.value(), 1), Table::pct(vs_static),
             Table::num(r.peak_temp_c.value(), 3),
             Table::num(r.throttled_s.value(), 4), std::to_string(r.stats.steps)});
  t.print();

  std::printf("\nFast duty cycles hold the fabric near the time-averaged power and\n"
              "sustain the largest frequency recovery over the static guardband;\n"
              "the 20-tau dwell converges onto the static thermal-aware corner.\n");
  return 0;
}
