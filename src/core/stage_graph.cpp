#include "core/stage_graph.hpp"

#include <cassert>
#include <optional>
#include <stdexcept>
#include <utility>

#include "util/codec.hpp"
#include "util/hash.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace taf::core {

const char* artifact_kind_name(ArtifactKind kind) {
  switch (kind) {
    case ArtifactKind::Netlist: return "netlist";
    case ArtifactKind::Packed: return "packed";
    case ArtifactKind::Placement: return "placement";
    case ArtifactKind::Routes: return "routes";
    case ArtifactKind::Activity: return "activity";
    case ArtifactKind::Sta: return "sta";
    case ArtifactKind::PlacementRefined: return "placement_refined";
  }
  return "unknown";
}

void FlowGraph::seed_artifact(ArtifactKind kind, std::uint64_t content_hash) {
  assert(!available(kind));
  artifacts_.emplace_back(kind, content_hash);
}

bool FlowGraph::available(ArtifactKind kind) const {
  for (const auto& [k, h] : artifacts_) {
    if (k == kind) return true;
  }
  return false;
}

std::uint64_t FlowGraph::hash_of(ArtifactKind kind) const {
  for (const auto& [k, h] : artifacts_) {
    if (k == kind) return h;
  }
  assert(false && "artifact not produced");
  return 0;
}

void FlowGraph::add(FlowStage stage) {
  for (ArtifactKind input : stage.inputs) {
    if (!available(input)) {
      throw std::logic_error(std::string("FlowGraph: stage ") + stage.name +
                             " consumes " + artifact_kind_name(input) +
                             " before any stage produces it");
    }
  }
  if (available(stage.output)) {
    throw std::logic_error(std::string("FlowGraph: stage ") + stage.name +
                           " re-produces " + artifact_kind_name(stage.output));
  }
  util::Fnv1a h;
  h.add(std::string_view(stage.name));
  h.add(stage.param_hash);
  for (ArtifactKind input : stage.inputs) h.add(hash_of(input));
  stage.input_hash = h.state;
  artifacts_.emplace_back(stage.output, stage.input_hash);
  stages_.push_back(std::move(stage));
}

namespace {

/// Forwards phase durations to an observer, if any; all state is local
/// to the running task, keeping implement() re-entrant.
struct PhaseClock {
  explicit PhaseClock(const FlowObserver* obs) : obs_(obs) {}
  void mark(FlowPhase phase) {
    const double s = watch_.lap();
    if (obs_ != nullptr && obs_->on_phase) obs_->on_phase(phase, units::Seconds{s});
  }
  const FlowObserver* obs_;
  util::Stopwatch watch_;
};

}  // namespace

void FlowGraph::run(FlowBuild& build, const StageHooks* hooks) const {
  PhaseClock clock(build.opt.observer);
  util::Rng rng(build.opt.seed ^ std::hash<std::string>{}(build.spec.name));
  build.nl = netlist::generate(build.spec, rng);

  std::string payload;
  for (const FlowStage& stage : stages_) {
    bool loaded = false;
    if (hooks != nullptr && stage.storable && hooks->fetch && stage.load) {
      payload.clear();
      if (hooks->fetch(stage, payload)) {
        try {
          stage.load(build, payload);
          loaded = true;
        } catch (const util::codec::Error& e) {
          util::log_warn("flow stage %s(%s): stored artifact rejected (%s); "
                         "recomputing",
                         stage.name, build.spec.name.c_str(), e.what());
        }
      }
    }
    if (!loaded) stage.run(build);
    if (stage.finalize) stage.finalize(build);
    if (!loaded && hooks != nullptr && stage.storable && hooks->store && stage.save) {
      hooks->store(stage, stage.save(build));
    }
    clock.mark(stage.phase);
  }
}

namespace {

// --- Pack ------------------------------------------------------------------

void run_pack(FlowBuild& b) { b.packed = pack::pack(b.nl, b.arch); }

void finalize_pack(FlowBuild& b) {
  const arch::FpgaGrid grid =
      arch::FpgaGrid::fit(b.packed.count(pack::BlockKind::Clb),
                          b.packed.count(pack::BlockKind::Bram),
                          b.packed.count(pack::BlockKind::Dsp));
  b.impl = std::make_unique<Implementation>(b.arch, std::move(b.nl), grid);
  b.impl->packed = std::move(b.packed);
  b.impl->packed.source = &b.impl->nl;
}

std::string save_pack(const FlowBuild& b) {
  util::codec::Encoder e;
  pack::serialize(b.impl->packed, e);
  return e.take();
}

// Loaders decode the whole payload into locals and install it only after
// expect_done(): a rejected payload must leave the build untouched, since
// the stage then runs from whatever the build holds.
void load_pack(FlowBuild& b, std::string_view payload) {
  util::codec::Decoder d(payload);
  pack::PackedNetlist packed = pack::deserialize(d);
  d.expect_done();
  b.packed = std::move(packed);
}

// --- Place -----------------------------------------------------------------

void run_place(FlowBuild& b) {
  place::PlaceOptions popt;
  popt.seed = b.opt.seed;
  popt.effort = b.opt.place_effort;
  b.impl->placement = place::place(b.impl->packed, b.impl->grid, popt);
}

std::string save_place(const FlowBuild& b) {
  util::codec::Encoder e;
  place::serialize(b.impl->placement, e);
  return e.take();
}

void load_place(FlowBuild& b, std::string_view payload) {
  util::codec::Decoder d(payload);
  place::Placement placement = place::deserialize(d);
  d.expect_done();
  b.impl->placement = std::move(placement);
}

// --- Route -----------------------------------------------------------------

void run_route(FlowBuild& b) {
  b.impl->routes = route::route(b.impl->rr, b.impl->packed, b.impl->placement,
                                b.opt.route);
}

void finalize_route(FlowBuild& b) {
  if (!b.impl->routes.success) {
    util::log_warn("implement(%s): routing left %d overused nodes after %d iterations",
                   b.spec.name.c_str(), b.impl->routes.overused_nodes,
                   b.impl->routes.iterations);
  }
}

std::string save_route(const FlowBuild& b) {
  util::codec::Encoder e;
  route::serialize(b.impl->routes, e);
  return e.take();
}

void load_route(FlowBuild& b, std::string_view payload) {
  util::codec::Decoder d(payload);
  route::RouteResult routes = route::deserialize(d);
  d.expect_done();
  b.impl->routes = std::move(routes);
}

// --- Activity --------------------------------------------------------------

void run_activity(FlowBuild& b) { b.impl->activity = activity::estimate(b.impl->nl); }

std::string save_activity(const FlowBuild& b) {
  util::codec::Encoder e;
  activity::serialize(b.impl->activity, e);
  return e.take();
}

void load_activity(FlowBuild& b, std::string_view payload) {
  util::codec::Decoder d(payload);
  std::vector<activity::SignalStats> activity = activity::deserialize(d);
  d.expect_done();
  b.impl->activity = std::move(activity);
}

// --- ThermalPlace (place -> thermal feedback edge) -------------------------

void run_thermal_place(FlowBuild& b) {
  const ThermalPlaceOptions& tp = b.opt.thermal_place;
  const coffe::DeviceModel& dev = *tp.device;
  Implementation& impl = *b.impl;
  FlowCounters& counters = thread_flow_counters();

  const thermal::ThermalGrid tgrid(impl.grid, tp.thermal);
  const std::vector<double> block_w = power::block_dynamic_power(
      dev, impl.nl, impl.packed, impl.activity, tp.pricing_f_mhz);
  const std::vector<double> pricing_temp(
      static_cast<std::size_t>(impl.grid.num_tiles()), tp.pricing_temp_c.value());

  place::RefineOptions ropt;
  ropt.effort = tp.effort;
  ropt.max_rounds = tp.max_rounds;
  // Candidates resume negotiation at the present factor where the blind
  // route converged. It is fixed here: an accepted one-iteration reroute
  // would otherwise reset it to the first-iteration factor.
  const route::RouteOptions candidate_route = route::resumed_options(b.opt.route, impl.routes);

  // Timing guard: a pass is only kept when the rerouted design is at
  // least as fast as what it replaces (STA at the uniform pricing
  // temperature). The re-place must never ship a slower implementation:
  // placement moves reroute nets, and routed delay moves with them.
  double fmax_best =
      timing::TimingAnalyzer(impl.nl, impl.packed, impl.placement, impl.rr,
                             impl.routes, impl.grid)
          .analyze_uniform(dev, tp.pricing_temp_c)
          .fmax_mhz.value();

  // Realized peak at the pricing point, read only by the equal-fmax
  // tiebreak: the current state's is solved on first use and kept until
  // a pass replaces that state.
  const auto peak_of = [&](const place::Placement& pl, const route::RouteResult& rt) {
    const power::PowerBreakdown power =
        power::compute_power(dev, impl.nl, impl.packed, pl, impl.rr, rt, impl.activity,
                             tp.pricing_f_mhz, pricing_temp, impl.grid);
    counters.thermal_adjoint_solves += 1;
    return thermal::ThermalGrid::peak(tgrid.solve(power.tile_w));
  };
  std::optional<units::Celsius> peak_now;

  for (int pass = 0; pass < tp.passes; ++pass) {
    ropt.seed = b.opt.seed + static_cast<unsigned>(pass);
    place::RefineStats rstats;
    place::Placement refined = place::refine_placement(
        impl.packed, impl.grid, impl.placement, block_w, ropt, &rstats);
    counters.replace_moves += static_cast<std::uint64_t>(rstats.moves);
    if (rstats.accepted == 0) break;  // descent fixed point: nothing moved

    // Only nets touching a moved block are ripped up; the rest keep
    // their trees from the current routes.
    route::RouteResult rerouted = route::reroute(impl.rr, impl.packed, impl.placement,
                                                 refined, impl.routes, candidate_route);
    // Legality guard: a partly routed candidate can time faster precisely
    // because nets are missing, so more overuse than the current routes
    // is a rejection before timing is even consulted.
    if (rerouted.overused_nodes > impl.routes.overused_nodes) continue;
    const double fmax_refined =
        timing::TimingAnalyzer(impl.nl, impl.packed, refined, impl.rr, rerouted,
                               impl.grid)
            .analyze_uniform(dev, tp.pricing_temp_c)
            .fmax_mhz.value();
    // Reject the pass but keep trying: the next pass draws a different
    // move sequence (seed advances with the pass index) from the same
    // placement, so one unlucky candidate does not end refinement.
    if (fmax_refined < fmax_best) continue;
    std::optional<units::Celsius> peak_refined;
    if (fmax_refined == fmax_best) {
      // Timing is flat, so the pass must pay its way thermally: require
      // the realized peak at the pricing point to drop.
      if (!peak_now) peak_now = peak_of(impl.placement, impl.routes);
      peak_refined = peak_of(refined, rerouted);
      if (!(peak_refined->value() < peak_now->value())) continue;
    }

    impl.placement = std::move(refined);
    impl.routes = std::move(rerouted);
    fmax_best = fmax_refined;
    peak_now = peak_refined;  // the new state's peak, when the tiebreak priced it
  }
}

/// The refined artifact is the accepted placement and the routes the
/// stage already computed for it — one payload, placement then routes.
std::string save_thermal_place(const FlowBuild& b) {
  util::codec::Encoder e;
  place::serialize(b.impl->placement, e);
  route::serialize(b.impl->routes, e);
  return e.take();
}

void load_thermal_place(FlowBuild& b, std::string_view payload) {
  util::codec::Decoder d(payload);
  place::Placement placement = place::deserialize(d);
  route::RouteResult routes = route::deserialize(d);
  d.expect_done();
  b.impl->placement = std::move(placement);
  b.impl->routes = std::move(routes);
}

// --- StaBuild --------------------------------------------------------------

void run_sta_build(FlowBuild& b) {
  Implementation& impl = *b.impl;
  impl.sta = std::make_unique<timing::TimingAnalyzer>(
      impl.nl, impl.packed, impl.placement, impl.rr, impl.routes, impl.grid);
  impl.tile_activity = power::tile_activity(impl.nl, impl.packed, impl.placement, impl.rr,
                                            impl.routes, impl.activity, impl.grid);
}

}  // namespace

FlowGraph FlowGraph::standard(const netlist::BenchmarkSpec& spec,
                              const arch::ArchParams& arch,
                              const ImplementOptions& opt) {
  FlowGraph g;

  {
    util::Fnv1a h;
    h.add(netlist::spec_hash(spec));
    h.add(opt.seed);
    g.seed_artifact(ArtifactKind::Netlist, h.state);
  }

  {
    FlowStage s;
    s.name = "pack";
    s.phase = FlowPhase::Pack;
    s.output = ArtifactKind::Packed;
    s.inputs = {ArtifactKind::Netlist};
    s.param_hash = arch::params_hash(arch);
    s.storable = true;
    s.run = run_pack;
    s.finalize = finalize_pack;
    s.save = save_pack;
    s.load = load_pack;
    g.add(std::move(s));
  }
  {
    FlowStage s;
    s.name = "place";
    s.phase = FlowPhase::Place;
    s.output = ArtifactKind::Placement;
    s.inputs = {ArtifactKind::Packed};
    util::Fnv1a h;
    h.add(opt.seed);
    h.add(opt.place_effort);
    s.param_hash = h.state;
    s.storable = true;
    s.run = run_place;
    s.save = save_place;
    s.load = load_place;
    g.add(std::move(s));
  }
  {
    FlowStage s;
    s.name = "route";
    s.phase = FlowPhase::Route;
    s.output = ArtifactKind::Routes;
    s.inputs = {ArtifactKind::Packed, ArtifactKind::Placement};
    util::Fnv1a h;
    h.add(opt.route.max_iterations);
    h.add(opt.route.first_iter_pres_fac);
    h.add(opt.route.pres_fac_mult);
    h.add(opt.route.hist_fac);
    h.add(opt.route.astar_fac);
    s.param_hash = h.state;
    s.storable = true;
    s.run = run_route;
    s.finalize = finalize_route;
    s.save = save_route;
    s.load = load_route;
    g.add(std::move(s));
  }
  {
    FlowStage s;
    s.name = "activity";
    s.phase = FlowPhase::Activity;
    s.output = ArtifactKind::Activity;
    s.inputs = {ArtifactKind::Netlist};
    s.storable = true;
    s.run = run_activity;
    s.save = save_activity;
    s.load = load_activity;
    g.add(std::move(s));
  }
  const bool feedback = opt.thermal_place.enabled;
  if (feedback) {
    const ThermalPlaceOptions& tp = opt.thermal_place;
    if (tp.device == nullptr) {
      throw std::invalid_argument(
          "implement: thermal_place.enabled requires a device model for power "
          "pricing (thermal_place.device is null)");
    }
    FlowStage s;
    s.name = "thermal_place";
    s.phase = FlowPhase::Place;
    s.output = ArtifactKind::PlacementRefined;
    // Router knobs reach this stage through the Routes input's hash.
    s.inputs = {ArtifactKind::Netlist, ArtifactKind::Packed,
                ArtifactKind::Placement, ArtifactKind::Routes,
                ArtifactKind::Activity};
    util::Fnv1a h;
    h.add(opt.seed);
    h.add(tp.passes);
    h.add(tp.effort);
    h.add(tp.max_rounds);
    h.add(tp.pricing_f_mhz.value());
    h.add(tp.pricing_temp_c.value());
    h.add(std::string_view(tp.device->name));
    h.add(tp.device->t_opt_c.value());
    // Thermal-model knobs, the solver tolerance included: the equal-fmax
    // tiebreak compares two realized peaks, and a tolerance change can
    // flip that comparison. Nothing else selects the solver (DESIGN.md
    // section 11), so the tolerance is its only knob.
    h.add(tp.thermal.silicon_k_w_mk);
    h.add(tp.thermal.die_thickness_um);
    h.add(tp.thermal.tile_edge_um);
    h.add(tp.thermal.package_r_k_per_w);
    h.add(tp.thermal.solve_tol_k.value());
    // The refinement objective and the candidate reroute algorithm shape
    // the artifact too: a stored result of an earlier stage (adjoint-priced
    // refinement, full reroute, or incremental reroute from the
    // first-iteration present factor) must not be served for this one.
    h.add(std::string_view("refine:wirelength reroute:incremental-resume"));
    s.param_hash = h.state;
    s.storable = true;
    s.run = run_thermal_place;
    s.finalize = finalize_route;
    s.save = save_thermal_place;
    s.load = load_thermal_place;
    g.add(std::move(s));
  }
  {
    FlowStage s;
    s.name = "sta_build";
    s.phase = FlowPhase::StaBuild;
    s.output = ArtifactKind::Sta;
    // The final STA sees the refined placement/routes when the feedback
    // edge is on — its input hash shifts with them, as it must.
    s.inputs = feedback
                   ? std::vector<ArtifactKind>{ArtifactKind::Netlist,
                                               ArtifactKind::Packed,
                                               ArtifactKind::PlacementRefined}
                   : std::vector<ArtifactKind>{ArtifactKind::Netlist,
                                               ArtifactKind::Packed,
                                               ArtifactKind::Placement,
                                               ArtifactKind::Routes};
    s.storable = false;
    s.run = run_sta_build;
    g.add(std::move(s));
  }
  return g;
}

}  // namespace taf::core
