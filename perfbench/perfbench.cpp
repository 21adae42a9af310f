// Benchmark driver for the thermal-aware FPGA flow (perfbench/README.md).
//
// Runs one named workload through the public APIs of core, runner and
// service for a fixed wall-clock budget, checks every output it produces,
// and prints one JSON result line on stdout:
//
//   {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end set; with --trace 1 they
// are the per-layer set, taken from spans this file records around each
// call into a layer (FlowObserver phase callbacks, handle_batch calls,
// thread-local counter snapshots). Nothing inside the library is
// instrumented for the benchmark. Human-readable detail (sample counts,
// per-layer self time, tracing overhead) goes to stderr.
//
// Workloads:
//   flow_blind   17 suite designs, implement + Algorithm 1 at two corners
//   flow_aware   the same designs with the place->thermal feedback edge on
//   fleet_mixed  closed-loop client batches against a warm GuardbandServer

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <exception>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <queue>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/flow.hpp"
#include "netlist/benchmarks.hpp"
#include "power/power.hpp"
#include "runner/flow_cache.hpp"
#include "runner/metrics.hpp"
#include "service/guardband_server.hpp"
#include "service/protocol.hpp"
#include "spice/linear.hpp"
#include "thermal/thermal_grid.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace {

using namespace taf;
namespace protocol = service::protocol;

constexpr double kScale = 1.0 / 16.0;  // suite scale of the routed experiments
/// ImplementOptions::seed of the flow workloads: the suite's canonical
/// netlists and placements, as bench_all builds them. The flows' inputs do
/// not depend on --seed: seeding the netlists moved flow_aware's work by
/// ~30% between seeds (the feedback edge accepts a different number of
/// refinement passes per netlist), and shuffling the design order moved
/// short designs' op times and the peak RSS.
constexpr unsigned kNetlistSeed = 1;

// ---------------------------------------------------------------------------
// Statistics

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Linear-interpolated percentile (the fleet_simulator definition).
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double idx = p * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(idx);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = idx - static_cast<double>(lo);
  return v[lo] * (1.0 - frac) + v[hi] * frac;
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += std::log(x);
  return std::exp(s / static_cast<double>(v.size()));
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

/// CPU seconds used so far by every thread of this process. The timed
/// metrics use this clock, not the wall clock: in a virtual machine on a
/// shared host the guest kernel leaves out of it the time the host ran
/// someone else on this vCPU (steal time), which the wall clock counts and
/// which comes and goes with the neighbours' load. Every workload runs its
/// timed work on one thread, so an op's CPU time is its service time.
double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// util::Stopwatch on the process CPU clock.
class CpuWatch {
 public:
  double seconds() const { return process_cpu_s() - start_; }

 private:
  double start_ = process_cpu_s();
};

/// Follows the machine's speed with a fixed kernel of the benchmark's own.
/// The 4-vCPU development VM switches between speeds about 30 % apart, each
/// lasting seconds to minutes, and CPU time slows with it (it is not steal
/// time), so a whole 30 s run could read fast or slow. Every timed metric
/// is therefore reported at a reference speed: its CPU time is multiplied
/// by the mean factor() of the kernel runs just before and just after it.
/// The kernel shares no code with the library, so no library change moves
/// it. It does what the router's inner loop does: heap-driven
/// shortest-path searches over a weighted grid. Over a 60 s flow_blind run
/// its time tracked the ops' (slope 0.9); a dependent walk through a 4 or
/// 64 MiB table and a chain of square roots did not move with them.
class SpeedReference {
 public:
  /// CPU seconds of one kernel run at the reference speed: about its time
  /// in the development VM's fast spells (4.7-6.1 ms were seen).
  static constexpr double kReferenceS = 5.0e-3;

  SpeedReference() : weight_(kSide * kSide), dist_(kSide * kSide) {
    util::Rng rng(0x5eedULL);
    for (float& w : weight_) w = 1.0F + 0.01F * static_cast<float>(rng.next_below(1000));
  }

  /// Runs the kernel once. Returns kReferenceS over its CPU seconds: the
  /// factor that takes a CPU time measured now to the reference speed.
  double factor() {
    const CpuWatch watch;
    using Entry = std::pair<float, int>;
    std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
    for (const int source : {0, kSide * kSide - 1}) {
      std::fill(dist_.begin(), dist_.end(), std::numeric_limits<float>::infinity());
      dist_[source] = 0.0F;
      heap.emplace(0.0F, source);
      while (!heap.empty()) {
        const auto [d, u] = heap.top();
        heap.pop();
        if (d > dist_[u]) continue;
        const int r = u / kSide;
        const int c = u % kSide;
        for (const int v : {r > 0 ? u - kSide : -1, r + 1 < kSide ? u + kSide : -1,
                            c > 0 ? u - 1 : -1, c + 1 < kSide ? u + 1 : -1}) {
          if (v >= 0 && d + weight_[v] < dist_[v]) {
            dist_[v] = d + weight_[v];
            heap.emplace(dist_[v], v);
          }
        }
      }
    }
    const double f = kReferenceS / watch.seconds();
    factors_.push_back(f);
    return f;
  }

  /// Every factor() result so far.
  const std::vector<double>& factors() const { return factors_; }

 private:
  static constexpr int kSide = 160;
  std::vector<float> weight_;
  std::vector<float> dist_;
  std::vector<double> factors_;
};

// ---------------------------------------------------------------------------
// Spans: recorded in memory around calls into a layer, written at exit as
// Chrome trace-event JSON.

struct Span {
  std::string name;
  std::string args;  ///< JSON object body (without braces), may be empty
  int id = 0;
  int parent = -1;
  int tid = 0;
  double start_us = 0.0;
  double dur_us = 0.0;
};

class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  bool enabled = false;

  double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_).count();
  }
  int next_id() { return next_id_.fetch_add(1, std::memory_order_relaxed); }

  /// Record a finished span; `start_us` on this tracer's clock.
  void add(int id, int parent, std::string name, double start_us, double dur_us,
           std::string args = {}) {
    if (!enabled) return;
    Span s;
    s.name = std::move(name);
    s.args = std::move(args);
    s.id = id;
    s.parent = parent;
    s.tid = thread_index();
    s.start_us = start_us;
    s.dur_us = dur_us;
    const std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(std::move(s));
  }

  /// Self time (span duration minus its children's) summed by span name.
  std::map<std::string, std::pair<double, std::size_t>> self_time_s() const {
    std::map<int, double> child_us;
    for (const Span& s : spans_) {
      if (s.parent >= 0) child_us[s.parent] += s.dur_us;
    }
    std::map<std::string, std::pair<double, std::size_t>> out;
    for (const Span& s : spans_) {
      const auto it = child_us.find(s.id);
      const double self = s.dur_us - (it == child_us.end() ? 0.0 : it->second);
      auto& [sum, count] = out[s.name];
      sum += self * 1e-6;
      ++count;
    }
    return out;
  }

  bool write_chrome(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    char buf[160];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::snprintf(buf, sizeof buf,
                    "\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f", s.tid,
                    s.start_us, s.dur_us);
      out << (i == 0 ? "" : ",") << "\n{\"name\":\"" << s.name << "\",\"cat\":\"perfbench\","
          << buf << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent
          << (s.args.empty() ? "" : ",") << s.args << "}}";
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
  }

  std::size_t size() const { return spans_.size(); }

 private:
  static int thread_index() {
    static std::atomic<int> counter{0};
    thread_local const int index = ++counter;
    return index;
  }

  Clock::time_point origin_ = Clock::now();
  std::atomic<int> next_id_{0};
  std::mutex mutex_;
  std::vector<Span> spans_;
};

Tracer g_tracer;

/// Names the implement() stages from its phase callbacks, which arrive in
/// stage order. The feedback edge's two stages report under the Place and
/// Route phases, so a second Place/Route callback is thermal_place /
/// route_refined.
class StageNamer {
 public:
  const char* name(core::FlowPhase phase) {
    if (phase == core::FlowPhase::Place && places_++ > 0) return "thermal_place";
    if (phase == core::FlowPhase::Route && routes_++ > 0) return "route_refined";
    return core::flow_phase_name(phase);
  }

 private:
  int places_ = 0;
  int routes_ = 0;
};

/// Per-phase seconds of one traced call, keyed by span name.
using PhaseSeconds = std::map<std::string, double>;

/// Observer that turns every phase callback into a child span of `parent`
/// (ending now, lasting the reported duration) and sums it by name.
/// `implement_stages` selects implement() stage naming.
core::FlowObserver span_observer(int parent, bool implement_stages, PhaseSeconds& sums) {
  const auto namer = implement_stages ? std::make_shared<StageNamer>() : nullptr;
  core::FlowObserver obs;
  obs.on_phase = [parent, namer, &sums](core::FlowPhase phase, units::Seconds s) {
    const std::string name = namer ? namer->name(phase) : core::flow_phase_name(phase);
    const double end = g_tracer.now_us();
    g_tracer.add(g_tracer.next_id(), parent, name, end - s.value() * 1e6, s.value() * 1e6);
    sums[name] += s.value();
  };
  return obs;
}

// ---------------------------------------------------------------------------
// Result line

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void check(bool ok, const char* what, const std::string& detail) {
    ++attempted;
    if (!ok) fail(what, detail);
  }
  void fail(const char* what, const std::string& detail) {
    ++failed;
    if (failed <= 20) std::fprintf(stderr, "FAIL: %s (%s)\n", what, detail.c_str());
  }
};

void print_result(const Outcome& o, const std::vector<Metric>& metrics) {
  std::string line = "{\"correct\": ";
  line += o.failed == 0 ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(o.attempted);
  line += ", \"failed\": " + std::to_string(o.failed);
  line += ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(buf, sizeof buf, "%.17g", v);
    line += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " + buf +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

// ---------------------------------------------------------------------------
// Options

struct Options {
  std::string workload;
  unsigned seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
};

netlist::BenchmarkSpec suite_spec(const std::string& name) {
  for (const netlist::BenchmarkSpec& spec : netlist::vtr_suite()) {
    if (spec.name == name) return spec;
  }
  throw std::invalid_argument("unknown design '" + name + "'");
}

std::string design_arg(const std::string& design) { return "\"design\":\"" + design + "\""; }

/// Per-layer values common to every workload; absent layers stay zero.
struct LayerMetrics {
  PhaseSeconds stage_s;  ///< implement stages by name
  PhaseSeconds gb_s;     ///< guardband phases by name
  double route_iterations = 0, route_wire_utilization = 0;
  double thermal_place_pct = 0, route_refined_pct = 0;
  double thermal_adjoint_solves = 0, replace_moves = 0;
  double gb_iterations = 0, thermal_cg_iters = 0, sta_edges_reevaluated = 0;
  double tuple_hit_ratio = 0, requests = 0, tuples_evaluated = 0, batched_corners = 0;
  double service_group_pct = 0;
  double characterize_s = 0, spice_newton_iters = 0;
  double impl_cache_hits = 0, impl_cache_misses = 0;
  double op_samples = 0, unattributed_pct = 0, trace_overhead_pct = 0;
  double speed_scale = 0;

  std::vector<Metric> metrics() const {
    const auto at = [](const PhaseSeconds& m, const char* k) {
      const auto it = m.find(k);
      return it == m.end() ? 0.0 : it->second;
    };
    return {
        {"pack_s", at(stage_s, "pack"), "s"},
        {"place_s", at(stage_s, "place"), "s"},
        {"route_s", at(stage_s, "route"), "s"},
        {"activity_s", at(stage_s, "activity"), "s"},
        {"sta_build_s", at(stage_s, "sta_build"), "s"},
        {"route_iterations", route_iterations, "count"},
        {"route_wire_utilization", route_wire_utilization, "ratio"},
        {"thermal_place_pct", thermal_place_pct, "%"},
        {"route_refined_pct", route_refined_pct, "%"},
        {"thermal_adjoint_solves", thermal_adjoint_solves, "count"},
        {"replace_moves", replace_moves, "count"},
        {"gb_sta_s", at(gb_s, "sta"), "s"},
        {"gb_power_s", at(gb_s, "power"), "s"},
        {"gb_thermal_s", at(gb_s, "thermal"), "s"},
        {"gb_iterations", gb_iterations, "count"},
        {"thermal_cg_iters", thermal_cg_iters, "count"},
        {"sta_edges_reevaluated", sta_edges_reevaluated, "count"},
        {"tuple_hit_ratio", tuple_hit_ratio, "ratio"},
        {"requests", requests, "count"},
        {"tuples_evaluated", tuples_evaluated, "count"},
        {"batched_corners", batched_corners, "count"},
        {"service_group_pct", service_group_pct, "%"},
        {"characterize_s", characterize_s, "s"},
        {"spice_newton_iters", spice_newton_iters, "count"},
        {"impl_cache_hits", impl_cache_hits, "count"},
        {"impl_cache_misses", impl_cache_misses, "count"},
        {"op_samples", op_samples, "count"},
        {"unattributed_pct", unattributed_pct, "%"},
        {"trace_overhead_pct", trace_overhead_pct, "%"},
        {"speed_scale", speed_scale, "ratio"},
    };
  }
};

struct EndToEnd {
  double setup_s = 0, pass_s = 0, op_p50_ms = 0, op_p99_ms = 0;
  double fmax_geomean_mhz = 0, guardband_gain_pct = 0, peak_temp_mean_c = 0, rss_mb = 0;

  std::vector<Metric> metrics() const {
    return {
        {"setup_s", setup_s, "s"},
        {"pass_s", pass_s, "s"},
        {"op_p50_ms", op_p50_ms, "ms"},
        {"op_p99_ms", op_p99_ms, "ms"},
        {"fmax_geomean_mhz", fmax_geomean_mhz, "MHz"},
        {"guardband_gain_pct", guardband_gain_pct, "%"},
        {"peak_temp_mean_c", peak_temp_mean_c, "C"},
        {"peak_rss_mb", rss_mb, "MB"},
    };
  }
};

struct Report {
  Outcome outcome;
  EndToEnd e2e;
  LayerMetrics layers;
};

struct CharacterizedDevices {
  std::unique_ptr<runner::FlowCache> cache;
  std::map<double, const coffe::DeviceModel*> by_grade;
};

/// Seconds and SPICE Newton iterations of each set-up repetition.
struct SetupSamples {
  std::vector<double> seconds;
  std::vector<double> newton;
};

/// The flows' set-up: characterize `grades` into a fresh FlowCache.
CharacterizedDevices characterize(const std::vector<double>& grades, SetupSamples& samples) {
  const arch::ArchParams arch = arch::scaled_arch();
  const tech::Technology tech = tech::ptm22();
  CharacterizedDevices out;
  out.cache = std::make_unique<runner::FlowCache>();
  const spice::SolverCounters before = spice::thread_counters();
  const int setup_id = g_tracer.next_id();
  const double t0 = g_tracer.now_us();
  const CpuWatch watch;
  for (double g : grades) {
    const double c0 = g_tracer.now_us();
    out.by_grade[g] = &out.cache->device(tech, arch, g);
    g_tracer.add(g_tracer.next_id(), setup_id, "characterize", c0, g_tracer.now_us() - c0,
                 "\"grade_c\":" + std::to_string(g));
  }
  samples.seconds.push_back(watch.seconds());
  g_tracer.add(setup_id, -1, "setup", t0, g_tracer.now_us() - t0);
  const spice::SolverCounters work = spice::thread_counters() - before;
  samples.newton.push_back(static_cast<double>(work.newton_iterations));
  return out;
}

/// Cost of recording one span (a clock read, an id and a Tracer::add with a
/// short name and arguments), measured on a scratch tracer. Spans recorded
/// times this cost is the tracing overhead of a traced run.
double span_cost_s() {
  Tracer scratch;
  scratch.enabled = true;
  constexpr int kSpans = 20000;
  const util::Stopwatch watch;
  for (int i = 0; i < kSpans; ++i) {
    const double t0 = scratch.now_us();
    scratch.add(scratch.next_id(), 0, "route", t0, 1.0, design_arg("stereovision0"));
  }
  return watch.seconds() / kSpans;
}

// ---------------------------------------------------------------------------
// Flow workloads

struct Corner {
  double grade_c;
  double t_amb_c;
};

/// Converged peak at a fixed clock and ambient (the thermal_aware_place
/// iso-frequency peak): measures the placement, not the speed it buys.
double iso_peak_c(const core::Implementation& impl, const coffe::DeviceModel& dev,
                  double f_mhz, double amb_c) {
  thermal::ThermalConfig tcfg;
  tcfg.ambient_c = units::Celsius{amb_c};
  const thermal::ThermalGrid tg(impl.grid, tcfg);
  std::vector<double> temps(static_cast<std::size_t>(impl.grid.num_tiles()), amb_c);
  for (int it = 0; it < 4; ++it) {
    const power::PowerBreakdown p = power::compute_power(
        dev, impl.nl, impl.packed, impl.placement, impl.rr, impl.routes, impl.activity,
        units::Megahertz{f_mhz}, temps, impl.grid);
    temps = tg.solve(p.tile_w);
  }
  return thermal::ThermalGrid::peak(temps).value();
}

/// Timing samples of one design across rounds.
struct DesignSamples {
  std::vector<double> op_s;       ///< CPU seconds
  std::vector<double> op_wall_s;  ///< the same ops on the wall clock
  std::vector<double> scale;      ///< each op's factor to the reference speed
  std::vector<PhaseSeconds> phases;  ///< stage + guardband phases per op (traced runs)
  double fmax_mhz = 0;               ///< first corner
  int route_iterations = 0;
};

Report run_flow(const Options& opt) {
  const bool aware = opt.workload == "flow_aware";
  std::vector<std::string> designs;
  for (const netlist::BenchmarkSpec& spec : netlist::vtr_suite()) {
    // Not the two largest designs. Their aware builds alone take ~35 s.
    // Their blind ops take 2.5-4 s, so a 30 s run gets 2-3 samples of
    // each, and they slow the most when neighbours on the host contend for
    // the shared cache: 12-16 % run to run, against 2-10 % for the designs
    // under 0.2 s. With them, they were 70 % of flow_blind's pass.
    if (spec.name == "mcml" || spec.name == "LU32PEEng") continue;
    designs.push_back(spec.name);
  }
  // flow_blind: fig 6 (grade D25 at 25 C) and the D70 grade at 70 C.
  // flow_aware: Algorithm 1 at 45 C on the D25 device, as thermal_aware_place.
  const std::vector<Corner> corners = aware
                                          ? std::vector<Corner>{{25.0, 45.0}}
                                          : std::vector<Corner>{{25.0, 25.0}, {70.0, 70.0}};
  constexpr double kIsoAmbientC = 45.0;
  const double iso_f_mhz = core::ThermalPlaceOptions{}.pricing_f_mhz.value();

  Report report;
  const std::vector<double> grades =
      aware ? std::vector<double>{25.0} : std::vector<double>{25.0, 70.0};
  SpeedReference speed;
  SetupSamples setup;
  const auto set_up = [&] {
    const double f0 = speed.factor();
    CharacterizedDevices d = characterize(grades, setup);
    setup.seconds.back() *= 0.5 * (f0 + speed.factor());
    return d;
  };
  const CharacterizedDevices devs = set_up();
  const coffe::DeviceModel& d25 = *devs.by_grade.at(25.0);
  const arch::ArchParams arch = arch::scaled_arch();

  std::vector<netlist::BenchmarkSpec> specs;
  for (const std::string& d : designs) specs.push_back(netlist::scaled(suite_spec(d), kScale));

  std::vector<DesignSamples> samples(specs.size());
  std::vector<double> fmax, gains, iso_peaks;
  double route_iters = 0, wire_util = 0, adjoint = 0, moves = 0;
  double gb_iters = 0, cg = 0, edges = 0;
  std::size_t op_spans = 0;  // spans recorded inside timed ops
  Outcome& out = report.outcome;
  const bool traced = opt.trace;

  // One op: implement design i, run Algorithm 1 at every corner, check.
  // Quality figures are deterministic: `first` (round 0, first repeat)
  // records them.
  const auto run_op = [&](std::size_t i, bool first) {
    const netlist::BenchmarkSpec& spec = specs[i];
    PhaseSeconds phases;
    const std::size_t spans0 = g_tracer.size();
    const int impl_id = g_tracer.next_id();

    core::ImplementOptions iopt;
    iopt.seed = kNetlistSeed;
    if (aware) {
      iopt.thermal_place.enabled = true;
      iopt.thermal_place.device = &d25;
    }
    const core::FlowObserver impl_obs =
        traced ? span_observer(impl_id, true, phases) : core::FlowObserver{};
    if (traced) iopt.observer = &impl_obs;

    const core::FlowCounters before = core::thread_flow_counters();
    std::unique_ptr<core::Implementation> impl;
    std::vector<core::GuardbandResult> results;
    const double t0 = g_tracer.now_us();
    const CpuWatch op;
    const util::Stopwatch op_wall;
    try {
      impl = core::implement(spec, arch, iopt);
      const double t_impl = g_tracer.now_us();
      if (traced) {
        g_tracer.add(impl_id, -1, "implement", t0, t_impl - t0, design_arg(spec.name));
      }
      for (const Corner& c : corners) {
        const int gb_id = g_tracer.next_id();
        core::GuardbandOptions gopt;
        gopt.t_amb_c = units::Celsius{c.t_amb_c};
        const core::FlowObserver gb_obs =
            traced ? span_observer(gb_id, false, phases) : core::FlowObserver{};
        if (traced) gopt.observer = &gb_obs;
        const double g0 = g_tracer.now_us();
        results.push_back(core::guardband(*impl, *devs.by_grade.at(c.grade_c), gopt));
        if (traced) {
          g_tracer.add(gb_id, -1, "guardband", g0, g_tracer.now_us() - g0,
                       design_arg(spec.name) + ",\"t_amb_c\":" + std::to_string(c.t_amb_c));
        }
      }
    } catch (const std::exception& e) {
      out.check(false, "flow threw", spec.name + ": " + e.what());
      return;
    }
    const double op_s = op.seconds();
    const double op_wall_s = op_wall.seconds();
    const core::FlowCounters work = core::thread_flow_counters() - before;
    op_spans += g_tracer.size() - spans0;

    DesignSamples& ds = samples[i];
    ds.op_s.push_back(op_s);
    ds.op_wall_s.push_back(op_wall_s);
    if (traced) ds.phases.push_back(std::move(phases));

    const route::RouteResult& routes = impl->routes;
    out.check(routes.success && routes.overused_nodes == 0, "illegal routing",
              spec.name + ": " + std::to_string(routes.overused_nodes) + " overused nodes");
    for (std::size_t k = 0; k < results.size(); ++k) {
      const core::GuardbandResult& r = results[k];
      const std::string where = spec.name + " @" + std::to_string(corners[k].t_amb_c) + "C";
      out.check(r.converged, "Algorithm 1 did not converge", where);
      out.check(r.fmax_mhz.value() >= r.baseline_fmax_mhz.value(),
                "guardbanded fmax below the worst-case corner", where);
      out.check(r.peak_temp_c.value() <= core::GuardbandOptions{}.t_worst_c.value(),
                "peak above t_worst", where);
    }

    if (first) {
      for (const core::GuardbandResult& r : results) {
        fmax.push_back(r.fmax_mhz.value());
        gains.push_back(r.gain());
        gb_iters += r.iterations;
      }
      iso_peaks.push_back(iso_peak_c(*impl, d25, iso_f_mhz, kIsoAmbientC));
      ds.fmax_mhz = results.front().fmax_mhz.value();
      ds.route_iterations = routes.iterations;
      route_iters += routes.iterations;
      wire_util += routes.wire_utilization;
      adjoint += static_cast<double>(work.thermal_adjoint_solves);
      moves += static_cast<double>(work.replace_moves);
      cg += static_cast<double>(work.thermal_cg_iterations);
      edges += static_cast<double>(work.sta_edges_reevaluated);
    }
  };

  // Rounds over the design set in suite order until --seconds have passed,
  // always finishing round 0. Within a round, a short design repeats until
  // it has run for kMinDesignRoundS: a 30 ms op is far noisier than a 5 s
  // one, and the per-design medians (op_p50_ms sits on one of the short
  // designs) need the samples. The set-up repeats once every kSetupEveryS
  // between designs, so that setup_s, the median repetition, samples the
  // machine over the same span of time as the ops do.
  constexpr double kMinDesignRoundS = 0.25;
  constexpr int kMaxRepeats = 16;
  constexpr double kSetupEveryS = 2.0;
  const util::Stopwatch run;
  for (int round = 0; round == 0 || run.seconds() < opt.seconds; ++round) {
    for (std::size_t i = 0; i < specs.size(); ++i) {
      if (round > 0 && run.seconds() >= opt.seconds) break;
      if (run.seconds() < opt.seconds &&
          run.seconds() >= kSetupEveryS * static_cast<double>(setup.seconds.size())) {
        set_up();
      }
      const util::Stopwatch design_time;
      const double speed_before = speed.factor();
      for (int r = 0; r < kMaxRepeats; ++r) {
        run_op(i, round == 0 && r == 0);
        if (design_time.seconds() >= kMinDesignRoundS) break;
      }
      samples[i].scale.resize(samples[i].op_s.size(), 0.5 * (speed_before + speed.factor()));
    }
  }
  report.e2e.rss_mb = peak_rss_mb();
  report.e2e.setup_s = median(setup.seconds);

  // End to end: a pass is the sum of per-design medians.
  std::vector<double> per_design;
  double ops = 0, pass_cpu_s = 0, pass_wall_s = 0;
  for (const DesignSamples& ds : samples) {
    std::vector<double> scaled;
    for (std::size_t k = 0; k < ds.op_s.size(); ++k) scaled.push_back(ds.op_s[k] * ds.scale[k]);
    per_design.push_back(median(scaled));
    pass_cpu_s += median(ds.op_s);
    pass_wall_s += median(ds.op_wall_s);
    ops += static_cast<double>(ds.op_s.size());
  }
  EndToEnd& e = report.e2e;
  for (double s : per_design) e.pass_s += s;
  e.op_p50_ms = percentile(per_design, 0.50) * 1e3;
  e.op_p99_ms = percentile(per_design, 0.99) * 1e3;
  e.fmax_geomean_mhz = geomean(fmax);
  e.guardband_gain_pct = mean(gains) * 100.0;
  e.peak_temp_mean_c = mean(iso_peaks);

  LayerMetrics& L = report.layers;
  L.characterize_s = e.setup_s;
  L.speed_scale = median(speed.factors());
  L.spice_newton_iters = median(setup.newton);
  L.op_samples = ops;
  L.route_iterations = route_iters;
  L.route_wire_utilization = wire_util / static_cast<double>(specs.size());
  L.thermal_adjoint_solves = adjoint;
  L.replace_moves = moves;
  L.gb_iterations = gb_iters;
  L.thermal_cg_iters = cg;
  L.sta_edges_reevaluated = edges;

  if (opt.trace) {
    // Per-layer seconds: per design, the median over its ops.
    double attributed = 0, total = 0;
    for (const DesignSamples& ds : samples) {
      std::map<std::string, std::vector<double>> by_name;
      for (const PhaseSeconds& ph : ds.phases) {
        for (const auto& [name, s] : ph) {
          by_name[name].push_back(s);
          attributed += s;
        }
      }
      for (auto& [name, v] : by_name) {
        const bool gb = name == "sta" || name == "power" || name == "thermal";
        (gb ? L.gb_s : L.stage_s)[name] += median(v);
      }
      for (double s : ds.op_wall_s) total += s;
    }
    L.thermal_place_pct = 100.0 * L.stage_s["thermal_place"] / pass_wall_s;
    L.route_refined_pct = 100.0 * L.stage_s["route_refined"] / pass_wall_s;
    L.stage_s.erase("thermal_place");
    L.stage_s.erase("route_refined");
    L.unattributed_pct = 100.0 * (total - attributed) / total;
    const double overhead_s = static_cast<double>(op_spans) * span_cost_s();
    L.trace_overhead_pct = 100.0 * overhead_s / total;
    std::fprintf(stderr, "tracing overhead: %zu spans x %.3g us = %.4f s of %.4f s traced\n",
                 op_spans, 1e6 * overhead_s / static_cast<double>(op_spans), overhead_s, total);
  }
  std::fprintf(stderr, "%-18s %5s %12s %12s %10s\n", "design", "ops", "median_ms", "fmax_mhz",
               "route_it");
  for (std::size_t i = 0; i < specs.size(); ++i) {
    std::fprintf(stderr, "%-18s %5zu %12.2f %12.3f %10d\n", specs[i].name.c_str(),
                 samples[i].op_s.size(), per_design[i] * 1e3, samples[i].fmax_mhz,
                 samples[i].route_iterations);
  }
  std::fprintf(stderr,
               "%s: %zu designs x %zu corners, %.0f ops timed; pass %.4f s at the reference "
               "speed (%.4f CPU s, %.4f wall s; speed factor median %.4f over %zu kernel "
               "runs), op p50 %.2f ms p99 %.2f ms over %zu per-design medians\n",
               opt.workload.c_str(), specs.size(), corners.size(), ops, e.pass_s, pass_cpu_s,
               pass_wall_s, median(speed.factors()), speed.factors().size(), e.op_p50_ms,
               e.op_p99_ms, per_design.size());
  return report;
}

// ---------------------------------------------------------------------------
// Fleet workload

struct FleetSpec {
  std::vector<std::string> designs{"sha", "or1200", "blob_merge", "stereovision0", "LU8PEEng",
                                   "stereovision2"};
  std::vector<double> grades{25.0, 70.0};
  std::vector<double> activities{0.25, 0.5, 0.75, 1.0};
  double ambient_base_c = 35.0;
  double ambient_step_c = 0.1;
  std::uint32_t ambient_points = 200;
  std::size_t client_batch = 64;
  std::size_t verify_samples = 32;
};

/// Client batches per fleet_mixed epoch, and the wall time of such an epoch
/// on the reference machine (4-core x86-64 VM): --seconds / kNominalEpochS
/// is the number of epochs run. A run shorter than one epoch runs a single
/// epoch, shortened in proportion.
constexpr long kEpochBatches = 1536;
/// Client batches between two SpeedReference kernel runs (~0.25 s).
constexpr std::size_t kBatchesPerSpeedSample = 64;
constexpr double kNominalEpochS = 6.0;

/// Canonical identity of a response tuple.
std::string tuple_id(const protocol::GuardbandResponse& r) {
  return r.design + "/" + std::to_string(r.grade_mdeg) + "/" + std::to_string(r.ambient_mdeg) +
         "/" + std::to_string(r.activity_permille);
}

struct Epoch {
  std::vector<double> latency_s;  ///< per client batch (= per query in it)
  double busy_s = 0;              ///< sum of client batch latencies (reference speed)
  double cpu_s = 0;               ///< the same before scaling to the reference speed
  double wall_s = 0;              ///< the same on the wall clock
  double attributed_s = 0;        ///< handle_batch + encode spans (traced)
  PhaseSeconds gb_s;
  double group_wall_s = 0, cg = 0, edges = 0, gb_iters = 0;
  double requests = 0, hits = 0, evaluated = 0, corners = 0, impl_hits = 0;
};

Report run_fleet(const Options& opt) {
  const FleetSpec fs;

  // The server's serial configuration: handle_batch runs every group on
  // the calling (client) thread. Parallel executors on a shared host
  // measure the host's scheduler: their runs spread by more than 100 %.
  service::ServerConfig cfg;
  cfg.threads = 1;
  cfg.scale = kScale;

  Report report;
  LayerMetrics& L = report.layers;
  Outcome& out = report.outcome;

  // Set-up: server construction, device characterization and implementation
  // warm-up. It repeats, half before the timed region (the last server
  // built serves it) and half after it, so that setup_s, the median
  // repetition, samples the machine at both ends of the run.
  std::vector<double> setup_s, char_s, newton, misses;
  std::vector<PhaseSeconds> warm_stages;
  std::vector<double> route_iters, wire_util;
  SpeedReference speed;
  const auto set_up = [&]() {
    const int setup_id = g_tracer.next_id();
    const double t0 = g_tracer.now_us();
    const double speed_before = speed.factor();
    const CpuWatch watch;
    auto server = std::make_unique<service::GuardbandServer>(cfg);
    runner::FlowCache& cache = server->flow_cache();
    const spice::SolverCounters sp_before = spice::thread_counters();
    for (double g : fs.grades) {
      const double c0 = g_tracer.now_us();
      cache.device(cfg.tech, cfg.arch, g);
      g_tracer.add(g_tracer.next_id(), setup_id, "characterize", c0, g_tracer.now_us() - c0,
                   "\"grade_c\":" + std::to_string(g));
    }
    const double char_cpu_s = watch.seconds();
    newton.push_back(
        static_cast<double>((spice::thread_counters() - sp_before).newton_iterations));
    PhaseSeconds stages;
    double iters = 0, util_sum = 0;
    for (const std::string& d : fs.designs) {
      const int impl_id = g_tracer.next_id();
      const core::FlowObserver obs = span_observer(impl_id, true, stages);
      core::ImplementOptions iopt;  // seed 1: the key the server looks up
      if (opt.trace) iopt.observer = &obs;
      const double i0 = g_tracer.now_us();
      const core::Implementation& impl =
          cache.implementation(suite_spec(d), cfg.arch, cfg.scale, iopt);
      g_tracer.add(impl_id, setup_id, "implement", i0, g_tracer.now_us() - i0, design_arg(d));
      out.check(impl.routes.success && impl.routes.overused_nodes == 0, "illegal routing", d);
      iters += impl.routes.iterations;
      util_sum += impl.routes.wire_utilization;
    }
    const double setup_cpu_s = watch.seconds();
    const double f = 0.5 * (speed_before + speed.factor());
    setup_s.push_back(setup_cpu_s * f);
    char_s.push_back(char_cpu_s * f);
    g_tracer.add(setup_id, -1, "setup", t0, g_tracer.now_us() - t0);
    warm_stages.push_back(std::move(stages));
    route_iters.push_back(iters);
    wire_util.push_back(util_sum / static_cast<double>(fs.designs.size()));
    misses.push_back(static_cast<double>(cache.stats().impl_misses));
    return server;
  };
  const int setup_reps = std::clamp(static_cast<int>(std::lround(opt.seconds / 8.0)), 1, 4);
  std::unique_ptr<service::GuardbandServer> server;
  for (int rep = 0; rep < (setup_reps + 1) / 2; ++rep) {
    server.reset();
    server = set_up();
  }

  // Timed region: closed-loop client batches, one epoch at a time. Each
  // epoch draws from a fresh ambient lattice (offset by one millidegree
  // per epoch), so every epoch has the same cold-to-warm cache profile.
  util::Rng rng(opt.seed);
  std::uint64_t next_id = 1;
  const auto nbatches = static_cast<std::size_t>(std::clamp(
      std::lround(kEpochBatches * opt.seconds / kNominalEpochS), 16L, kEpochBatches));
  std::vector<Epoch> epochs;
  std::vector<protocol::GuardbandRequest> verify_requests;
  std::vector<std::string> verify_envelopes;
  std::vector<double> fmax0, gain0, peak0;
  const double t_worst = cfg.guardband.t_worst_c.value();
  // The epoch count is fixed by --seconds, not by the clock: the response
  // cache grows by one lattice per epoch, and a time-boxed count would let
  // run speed change the cache size that hits are served from.
  // At most 100 epochs: the lattice offsets stay below one step.
  const int num_epochs =
      std::clamp(static_cast<int>(std::lround(opt.seconds / kNominalEpochS)), 1, 100);
  const bool traced = opt.trace;
  const std::size_t spans0 = g_tracer.size();
  for (int e = 0; e < num_epochs; ++e) {
    const std::size_t n = nbatches * fs.client_batch;
    std::vector<protocol::GuardbandRequest> stream(n);
    for (protocol::GuardbandRequest& req : stream) {
      req.request_id = next_id++;
      req.design = fs.designs[rng.next_below(static_cast<std::uint32_t>(fs.designs.size()))];
      req.grade_t_opt_c =
          fs.grades[rng.next_below(static_cast<std::uint32_t>(fs.grades.size()))];
      req.ambient_c = fs.ambient_base_c + 0.001 * e +
                      fs.ambient_step_c * rng.next_below(fs.ambient_points) +
                      rng.uniform(-4e-4, 4e-4);
      req.activity_scale =
          fs.activities[rng.next_below(static_cast<std::uint32_t>(fs.activities.size()))];
    }
    // Responses checked against the serial replay: a seeded sample of epoch 0.
    std::unordered_set<std::size_t> verify_at;
    if (e == 0) {
      while (verify_at.size() < std::min(fs.verify_samples, n)) {
        verify_at.insert(rng.next_below(static_cast<std::uint32_t>(n)));
      }
    }

    Epoch ep;
    const service::GuardbandServer::Stats s0 = server->stats();
    const std::uint64_t impl_hits0 = server->flow_cache().stats().impl_hits;
    std::unordered_set<std::string> seen;
    std::vector<std::string> envelopes;
    double speed_before = speed.factor();
    std::size_t unscaled = 0;  // first latency not yet scaled to the reference speed
    for (std::size_t begin = 0; begin < n; begin += fs.client_batch) {
      const std::size_t end = std::min(n, begin + fs.client_batch);
      const int batch_id = g_tracer.next_id();
      const double b0 = g_tracer.now_us();
      const CpuWatch watch;
      const util::Stopwatch wall;
      const std::vector<protocol::GuardbandRequest> batch(
          stream.begin() + static_cast<std::ptrdiff_t>(begin),
          stream.begin() + static_cast<std::ptrdiff_t>(end));
      std::vector<protocol::GuardbandResponse> responses;
      if (traced) {
        const service::GuardbandServer::Stats before = server->stats();
        const double h0 = g_tracer.now_us();
        responses = server->handle_batch(batch);
        const double h1 = g_tracer.now_us();
        const service::GuardbandServer::Stats after = server->stats();
        const std::uint64_t hits = after.tuple_hits - before.tuple_hits;
        g_tracer.add(g_tracer.next_id(), batch_id, "handle_batch", h0, h1 - h0,
                     "\"hits\":" + std::to_string(hits) +
                         ",\"misses\":" + std::to_string(batch.size() - hits));
        ep.attributed_s += (h1 - h0) * 1e-6;
      } else {
        responses = server->handle_batch(batch);
      }
      const double enc0 = g_tracer.now_us();
      envelopes.clear();
      for (const protocol::GuardbandResponse& r : responses) {
        envelopes.push_back(protocol::encode_response(r));
      }
      const double lat = watch.seconds();
      if (traced) {
        const double enc1 = g_tracer.now_us();
        g_tracer.add(g_tracer.next_id(), batch_id, "encode", enc0, enc1 - enc0);
        g_tracer.add(batch_id, -1, "client_batch", b0, enc1 - b0);
        ep.attributed_s += (enc1 - enc0) * 1e-6;
      }
      ep.latency_s.push_back(lat);
      ep.cpu_s += lat;
      ep.wall_s += wall.seconds();

      // Output checks, outside the batch timer.
      for (std::size_t k = 0; k < responses.size(); ++k) {
        const protocol::GuardbandResponse& r = responses[k];
        const bool ok = !protocol::is_error_envelope(envelopes[k]) && r.converged == 1 &&
                        r.fmax_mhz >= r.baseline_fmax_mhz && r.peak_temp_c <= t_worst;
        ++out.attempted;
        if (!ok) out.fail("bad fleet response", tuple_id(r));
        if (seen.insert(tuple_id(r)).second) ep.gb_iters += r.iterations;
        if (e == 0) {
          fmax0.push_back(r.fmax_mhz);
          gain0.push_back(r.fmax_mhz / r.baseline_fmax_mhz - 1.0);
          peak0.push_back(r.peak_temp_c);
          if (verify_at.count(begin + k) != 0) {
            verify_requests.push_back(batch[k]);
            verify_envelopes.push_back(envelopes[k]);
          }
        }
      }
      if (ep.latency_s.size() % kBatchesPerSpeedSample == 0 || end == n) {
        const double speed_after = speed.factor();
        const double f = 0.5 * (speed_before + speed_after);
        for (std::size_t k = unscaled; k < ep.latency_s.size(); ++k) {
          ep.latency_s[k] *= f;
          ep.busy_s += ep.latency_s[k];
        }
        unscaled = ep.latency_s.size();
        speed_before = speed_after;
      }
    }
    const service::GuardbandServer::Stats s1 = server->stats();
    ep.requests = static_cast<double>(s1.requests - s0.requests);
    ep.hits = static_cast<double>(s1.tuple_hits - s0.tuple_hits);
    ep.evaluated = static_cast<double>(s1.tuples_evaluated - s0.tuples_evaluated);
    ep.corners = static_cast<double>(s1.batched_corners - s0.batched_corners);
    ep.impl_hits = static_cast<double>(server->flow_cache().stats().impl_hits - impl_hits0);
    for (const runner::TaskMetrics& tm : server->drain_metrics()) {
      ep.group_wall_s += tm.wall_s;
      for (const core::FlowPhase ph :
           {core::FlowPhase::Sta, core::FlowPhase::Power, core::FlowPhase::Thermal}) {
        ep.gb_s[core::flow_phase_name(ph)] += tm.phases.seconds[static_cast<std::size_t>(ph)];
      }
      ep.cg += static_cast<double>(tm.thermal_cg_iters);
      ep.edges += static_cast<double>(tm.sta_edges_reevaluated);
    }
    epochs.push_back(std::move(ep));
  }
  const std::size_t epoch_spans = g_tracer.size() - spans0;
  report.e2e.rss_mb = peak_rss_mb();
  for (int rep = (setup_reps + 1) / 2; rep < setup_reps; ++rep) set_up();

  L.characterize_s = median(char_s);
  L.speed_scale = median(speed.factors());
  L.spice_newton_iters = median(newton);
  L.impl_cache_misses = median(misses);
  L.route_iterations = median(route_iters);
  L.route_wire_utilization = median(wire_util);
  for (const char* stage : {"pack", "place", "route", "activity", "sta_build"}) {
    std::vector<double> v;
    for (const PhaseSeconds& ph : warm_stages) {
      const auto it = ph.find(stage);
      v.push_back(it == ph.end() ? 0.0 : it->second);
    }
    if (traced) L.stage_s[stage] = median(v);
  }

  // End to end.
  std::vector<double> busy, busy_cpu, busy_wall, lat;
  double queries_per_epoch = 0;
  for (const Epoch& ep : epochs) {
    busy.push_back(ep.busy_s);
    busy_cpu.push_back(ep.cpu_s);
    busy_wall.push_back(ep.wall_s);
    lat.insert(lat.end(), ep.latency_s.begin(), ep.latency_s.end());
    queries_per_epoch = ep.requests;
  }
  EndToEnd& e2e = report.e2e;
  e2e.setup_s = median(setup_s);
  e2e.pass_s = median(busy);
  e2e.op_p50_ms = percentile(lat, 0.50) * 1e3;
  e2e.op_p99_ms = percentile(lat, 0.99) * 1e3;
  e2e.fmax_geomean_mhz = geomean(fmax0);
  e2e.guardband_gain_pct = mean(gain0) * 100.0;
  e2e.peak_temp_mean_c = mean(peak0);

  // Per layer: medians over the epochs.
  std::map<std::string, std::vector<double>> per_layer;
  for (const Epoch& ep : epochs) {
    for (const auto& [name, s] : ep.gb_s) per_layer["gb_" + name].push_back(s);
    per_layer["gb_iterations"].push_back(ep.gb_iters);
    per_layer["thermal_cg_iters"].push_back(ep.cg);
    per_layer["sta_edges_reevaluated"].push_back(ep.edges);
    per_layer["tuple_hit_ratio"].push_back(ep.requests > 0 ? ep.hits / ep.requests : 0.0);
    per_layer["requests"].push_back(ep.requests);
    per_layer["tuples_evaluated"].push_back(ep.evaluated);
    per_layer["batched_corners"].push_back(ep.corners);
    per_layer["service_group_pct"].push_back(100.0 * ep.group_wall_s / ep.wall_s);
    per_layer["impl_cache_hits"].push_back(ep.impl_hits);
    per_layer["unattributed_pct"].push_back(100.0 * (ep.wall_s - ep.attributed_s) / ep.wall_s);
  }
  const auto med = [&](const char* k) { return median(per_layer[k]); };
  L.gb_s["sta"] = med("gb_sta");
  L.gb_s["power"] = med("gb_power");
  L.gb_s["thermal"] = med("gb_thermal");
  L.gb_iterations = med("gb_iterations");
  L.thermal_cg_iters = med("thermal_cg_iters");
  L.sta_edges_reevaluated = med("sta_edges_reevaluated");
  L.tuple_hit_ratio = med("tuple_hit_ratio");
  L.requests = med("requests");
  L.tuples_evaluated = med("tuples_evaluated");
  L.batched_corners = med("batched_corners");
  L.service_group_pct = med("service_group_pct");
  L.impl_cache_hits = med("impl_cache_hits");
  L.op_samples = static_cast<double>(lat.size());
  if (traced) {
    L.unattributed_pct = med("unattributed_pct");
    // Each traced batch records three spans and reads stats() twice.
    constexpr int kCalls = 1000;
    const util::Stopwatch watch;
    for (int i = 0; i < kCalls; ++i) (void)server->stats();
    const double stats_cost_s = watch.seconds() / kCalls;
    const double overhead_s = static_cast<double>(epoch_spans) * span_cost_s() +
                              2.0 * static_cast<double>(lat.size()) * stats_cost_s;
    double total = 0;
    for (double s : busy_wall) total += s;
    L.trace_overhead_pct = 100.0 * overhead_s / total;
    std::fprintf(stderr,
                 "tracing overhead: %zu spans + %zu stats() pairs = %.4f s of %.4f s traced\n",
                 epoch_spans, lat.size(), overhead_s, total);
  }
  std::fprintf(stderr,
               "fleet_mixed: %zu epochs of %.0f queries (%zu-query closed-loop client "
               "batches, serial server); epoch %.4f s at the reference speed (%.4f CPU s, "
               "%.4f wall s; speed factor median %.4f over %zu kernel runs); qps %.0f; latency "
               "p50 %.4f ms p99 %.4f ms over %zu batch samples (%zu beyond p99); hit ratio "
               "%.4f\n",
               epochs.size(), queries_per_epoch, fs.client_batch, e2e.pass_s, median(busy_cpu),
               median(busy_wall), median(speed.factors()), speed.factors().size(),
               e2e.pass_s > 0 ? queries_per_epoch / e2e.pass_s : 0.0, e2e.op_p50_ms,
               e2e.op_p99_ms, lat.size(), lat.size() / 100, L.tuple_hit_ratio);

  // Verification, outside the timed region: the sampled responses must be
  // byte-identical to a fresh single-threaded server's serial replay, and
  // carry the fmax of a direct core::guardband on the same implementation.
  service::GuardbandServer serial(cfg);
  runner::FlowCache& cache = server->flow_cache();
  for (std::size_t i = 0; i < verify_requests.size(); ++i) {
    const protocol::GuardbandRequest& req = verify_requests[i];
    out.check(protocol::encode_response(serial.handle(req)) == verify_envelopes[i],
              "response differs from the serial replay", std::to_string(req.request_id));
    const protocol::GuardbandResponse resp = protocol::decode_response(verify_envelopes[i]);
    const core::Implementation& impl =
        cache.implementation(suite_spec(resp.design), cfg.arch, cfg.scale);
    const coffe::DeviceModel& dev =
        cache.device(cfg.tech, cfg.arch, static_cast<double>(resp.grade_mdeg) / 1000.0);
    core::GuardbandOptions gopt = cfg.guardband;
    gopt.t_amb_c = units::Celsius{static_cast<double>(resp.ambient_mdeg) / 1000.0};
    gopt.power_scale =
        cfg.guardband.power_scale * (static_cast<double>(resp.activity_permille) / 1000.0);
    out.check(core::guardband(impl, dev, gopt).fmax_mhz.value() == resp.fmax_mhz,
              "response fmax differs from a direct guardband", std::to_string(req.request_id));
  }
  return report;
}

// ---------------------------------------------------------------------------

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload flow_blind|flow_aware|fleet_mixed [--seed N]\n"
               "          [--seconds S] [--trace 0|1] [--trace-out PATH]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(argv[0]);
    const std::string value = argv[++i];
    if (arg == "--workload") opt.workload = value;
    else if (arg == "--seed") opt.seed = static_cast<unsigned>(std::stoul(value));
    else if (arg == "--seconds") opt.seconds = std::strtod(value.c_str(), nullptr);
    else if (arg == "--trace") opt.trace = value != "0";
    else if (arg == "--trace-out") opt.trace_out = value;
    else return usage(argv[0]);
  }
  g_tracer.enabled = opt.trace;

  Report report;
  try {
    if (opt.workload == "flow_blind" || opt.workload == "flow_aware") {
      report = run_flow(opt);
    } else if (opt.workload == "fleet_mixed") {
      report = run_fleet(opt);
    } else {
      return usage(argv[0]);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }

  if (opt.trace) {
    std::fprintf(stderr, "layer self time (s, summed over every traced span):\n");
    for (const auto& [name, v] : g_tracer.self_time_s()) {
      std::fprintf(stderr, "  %-16s %10.4f  (%zu spans)\n", name.c_str(), v.first, v.second);
    }
    std::fprintf(stderr, "unattributed share of the timed pass: %.2f %%\n",
                 report.layers.unattributed_pct);
    if (!opt.trace_out.empty()) {
      if (!g_tracer.write_chrome(opt.trace_out)) {
        std::fprintf(stderr, "perfbench: cannot write %s\n", opt.trace_out.c_str());
        return 1;
      }
      std::fprintf(stderr, "trace: %zu spans -> %s\n", g_tracer.size(), opt.trace_out.c_str());
    }
  }
  print_result(report.outcome, opt.trace ? report.layers.metrics() : report.e2e.metrics());
  return report.outcome.failed == 0 ? 0 : 1;
}
