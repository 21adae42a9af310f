#include "core/dynamic.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "timing/timing.hpp"

namespace taf::core {

// ---------------------------------------------------------------------------
// ActivityTrace

namespace {

/// Shortest round-trip-exact rendering of a double (%.17g preserves every
/// bit through strtod; the text form must re-parse to the same trace).
std::string render_f64(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

[[noreturn]] void trace_error(const std::string& what) {
  throw std::invalid_argument("ActivityTrace: " + what);
}

}  // namespace

void ActivityTrace::validate() const {
  if (blocks < 1 || blocks > kMaxTraceBlocks) {
    trace_error("block count " + std::to_string(blocks) + " outside [1, " +
                std::to_string(kMaxTraceBlocks) + "]");
  }
  if (segments.empty()) trace_error("trace has no segments");
  if (segments.size() > static_cast<std::size_t>(kMaxTraceSegments)) {
    trace_error("segment count " + std::to_string(segments.size()) + " exceeds " +
                std::to_string(kMaxTraceSegments));
  }
  double prev_end = 0.0;
  for (std::size_t s = 0; s < segments.size(); ++s) {
    const TraceSegment& seg = segments[s];
    const double t_end = seg.t_end.value();
    if (!std::isfinite(t_end) || !(t_end > prev_end)) {
      trace_error("segment " + std::to_string(s) + " end time " +
                  render_f64(t_end) + " s must be finite and exceed " +
                  render_f64(prev_end) + " s (end times strictly increase)");
    }
    if (seg.utilization.size() != static_cast<std::size_t>(blocks)) {
      trace_error("segment " + std::to_string(s) + " has " +
                  std::to_string(seg.utilization.size()) + " utilizations for " +
                  std::to_string(blocks) + " blocks");
    }
    for (std::size_t b = 0; b < seg.utilization.size(); ++b) {
      const double u = seg.utilization[b];
      if (!std::isfinite(u) || u < 0.0 || u > kMaxTraceUtilization) {
        trace_error("segment " + std::to_string(s) + " block " + std::to_string(b) +
                    " utilization " + render_f64(u) + " outside [0, " +
                    render_f64(kMaxTraceUtilization) + "]");
      }
    }
    prev_end = t_end;
  }
}

ActivityTrace ActivityTrace::duty_cycle(int cycles, units::Seconds period,
                                        double duty, double hi, double lo) {
  if (cycles < 1) trace_error("duty_cycle: cycles must be >= 1");
  if (!(period.value() > 0.0) || !std::isfinite(period.value())) {
    trace_error("duty_cycle: period must be positive and finite");
  }
  if (!(duty > 0.0) || duty > 1.0) trace_error("duty_cycle: duty must be in (0, 1]");
  ActivityTrace t;
  t.blocks = 1;
  for (int c = 0; c < cycles; ++c) {
    if (duty < 1.0) {
      t.segments.push_back(
          {units::Seconds{(c + duty) * period.value()}, {hi}});
    }
    t.segments.push_back(
        {units::Seconds{static_cast<double>(c + 1) * period.value()},
         {duty < 1.0 ? lo : hi}});
  }
  t.validate();
  return t;
}

std::string ActivityTrace::to_text() const {
  validate();
  std::string out = "taf-trace v1\nblocks " + std::to_string(blocks) + "\n";
  for (const TraceSegment& seg : segments) {
    out += render_f64(seg.t_end.value());
    for (double u : seg.utilization) {
      out += ' ';
      out += render_f64(u);
    }
    out += '\n';
  }
  return out;
}

ActivityTrace ActivityTrace::parse_text(std::string_view text) {
  // Line-based scan: blank lines and '#' comments are skipped; the first
  // two payload lines are the header, everything after is a segment.
  ActivityTrace t;
  t.blocks = 0;
  int payload_lines = 0;
  std::size_t pos = 0;
  std::size_t line_no = 0;
  while (pos <= text.size()) {
    const std::size_t eol = text.find('\n', pos);
    std::string_view line = text.substr(
        pos, eol == std::string_view::npos ? text.size() - pos : eol - pos);
    pos = eol == std::string_view::npos ? text.size() + 1 : eol + 1;
    ++line_no;
    while (!line.empty() && (line.back() == '\r' || line.back() == ' ')) {
      line.remove_suffix(1);
    }
    while (!line.empty() && line.front() == ' ') line.remove_prefix(1);
    if (line.empty() || line.front() == '#') continue;
    ++payload_lines;

    if (payload_lines == 1) {
      if (line != "taf-trace v1") {
        trace_error("line " + std::to_string(line_no) +
                    ": expected header 'taf-trace v1'");
      }
      continue;
    }
    if (payload_lines == 2) {
      constexpr std::string_view kBlocksPrefix = "blocks ";
      if (line.substr(0, kBlocksPrefix.size()) != kBlocksPrefix) {
        trace_error("line " + std::to_string(line_no) + ": expected 'blocks <n>'");
      }
      const std::string count(line.substr(kBlocksPrefix.size()));
      char* end = nullptr;
      const long blocks = std::strtol(count.c_str(), &end, 10);
      if (end == count.c_str() || *end != '\0') {
        trace_error("line " + std::to_string(line_no) + ": bad block count '" +
                    count + "'");
      }
      if (blocks < 1 || blocks > kMaxTraceBlocks) {
        trace_error("line " + std::to_string(line_no) + ": block count " +
                    std::to_string(blocks) + " outside [1, " +
                    std::to_string(kMaxTraceBlocks) + "]");
      }
      t.blocks = static_cast<int>(blocks);
      continue;
    }

    if (t.segments.size() >= static_cast<std::size_t>(kMaxTraceSegments)) {
      trace_error("line " + std::to_string(line_no) + ": more than " +
                  std::to_string(kMaxTraceSegments) + " segments");
    }
    const std::string row(line);
    const char* cursor = row.c_str();
    TraceSegment seg;
    seg.utilization.reserve(static_cast<std::size_t>(t.blocks));
    for (int field = 0; field <= t.blocks; ++field) {
      char* end = nullptr;
      const double v = std::strtod(cursor, &end);
      if (end == cursor) {
        trace_error("line " + std::to_string(line_no) + ": expected " +
                    std::to_string(t.blocks + 1) + " numbers, got " +
                    std::to_string(field));
      }
      cursor = end;
      if (field == 0) {
        seg.t_end = units::Seconds{v};
      } else {
        seg.utilization.push_back(v);
      }
    }
    while (*cursor == ' ') ++cursor;
    if (*cursor != '\0') {
      trace_error("line " + std::to_string(line_no) + ": trailing garbage '" +
                  std::string(cursor) + "'");
    }
    t.segments.push_back(std::move(seg));
  }
  if (payload_lines < 2) trace_error("missing header lines");
  t.validate();
  return t;
}

void ActivityTrace::serialize(util::codec::Encoder& enc) const {
  enc.i32(blocks);
  enc.u64(segments.size());
  for (const TraceSegment& seg : segments) {
    enc.f64(seg.t_end.value());
    // Width is implied by the block count; no per-segment length prefix.
    for (double u : seg.utilization) enc.f64(u);
  }
}

ActivityTrace ActivityTrace::deserialize(util::codec::Decoder& dec) {
  ActivityTrace t;
  t.blocks = dec.i32();
  if (t.blocks < 1 || t.blocks > kMaxTraceBlocks) {
    throw util::codec::Error("trace: block count " + std::to_string(t.blocks) +
                             " outside [1, " + std::to_string(kMaxTraceBlocks) + "]");
  }
  const std::uint64_t n_segments = dec.u64();
  if (n_segments > static_cast<std::uint64_t>(kMaxTraceSegments)) {
    // Fail before allocating: a corrupted count must not drive a giant
    // resize (same rule as Decoder::length()).
    throw util::codec::Error("trace: segment count " + std::to_string(n_segments) +
                             " exceeds " + std::to_string(kMaxTraceSegments));
  }
  t.segments.resize(static_cast<std::size_t>(n_segments));
  for (TraceSegment& seg : t.segments) {
    seg.t_end = units::Seconds{dec.f64()};
    seg.utilization.resize(static_cast<std::size_t>(t.blocks));
    for (double& u : seg.utilization) u = dec.f64();
  }
  return t;
}

std::string ActivityTrace::to_envelope() const {
  util::codec::Encoder enc;
  serialize(enc);
  return util::codec::wrap(kTraceKind, enc.buffer());
}

ActivityTrace ActivityTrace::from_envelope(std::string_view envelope) {
  util::codec::Decoder dec(util::codec::unwrap(envelope, kTraceKind));
  ActivityTrace t = deserialize(dec);
  dec.expect_done();
  t.validate();
  return t;
}

// ---------------------------------------------------------------------------
// DynamicGuardband

namespace {

thermal::ThermalConfig replay_thermal_config(const Implementation& impl,
                                             const DynamicGuardbandOptions& opt) {
  thermal::ThermalConfig tcfg = opt.thermal;
  tcfg.ambient_c = opt.t_amb_c;
  tcfg.tile_edge_um = impl.arch.tile_edge_um;
  return tcfg;
}

}  // namespace

DynamicGuardband::DynamicGuardband(const Implementation& impl,
                                   const coffe::DeviceModel& dev,
                                   DynamicGuardbandOptions opt)
    : impl_(impl),
      dev_(dev),
      opt_(std::move(opt)),
      grid_(impl.grid, replay_thermal_config(impl, opt_)),
      engine_(grid_, opt_.transient) {
  if (opt_.samples_per_segment < 1) {
    throw std::invalid_argument("DynamicGuardband: samples_per_segment must be >= 1");
  }
  if (!std::isfinite(opt_.power_scale) || opt_.power_scale < 0.0) {
    throw std::invalid_argument("DynamicGuardband: power_scale must be finite and >= 0");
  }
  if (!std::isfinite(opt_.margin_c.value()) || opt_.margin_c.value() < 0.0) {
    throw std::invalid_argument("DynamicGuardband: margin_c must be finite and >= 0");
  }
  const std::size_t n_tiles = static_cast<std::size_t>(grid_.width()) *
                              static_cast<std::size_t>(grid_.height());
  if (!opt_.tile_block.empty() && opt_.tile_block.size() != n_tiles) {
    throw std::invalid_argument(
        "DynamicGuardband: tile_block size " + std::to_string(opt_.tile_block.size()) +
        " does not match the " + std::to_string(n_tiles) + "-tile grid");
  }
  for (int b : opt_.tile_block) {
    if (b < -1) {
      throw std::invalid_argument("DynamicGuardband: tile_block entries must be >= -1");
    }
  }

  // Base power at the uniform-ambient priming analysis, exactly like
  // guardband()'s first iteration: the trace then scales this map, it is
  // never recomputed against the evolving temperatures (the replay prices
  // utilization, not leakage feedback — DESIGN.md section 13).
  priming_fmax_mhz_ = impl_.sta->analyze_uniform(dev_, opt_.t_amb_c).fmax_mhz;
  const std::vector<double> ambient_field(n_tiles, opt_.t_amb_c.value());
  power::PowerBreakdown base =
      power::compute_power(dev_, impl_.tile_activity, priming_fmax_mhz_, ambient_field,
                           impl_.grid);
  base_power_w_ = std::move(base.tile_w);
  if (opt_.power_scale != 1.0) {
    for (double& w : base_power_w_) w *= opt_.power_scale;
  }
}

DynamicResult DynamicGuardband::replay(const ActivityTrace& trace) const {
  trace.validate();
  for (int b : opt_.tile_block) {
    if (b >= trace.blocks) {
      throw std::invalid_argument(
          "DynamicGuardband::replay: tile_block refers to block " + std::to_string(b) +
          " but the trace has " + std::to_string(trace.blocks) + " blocks");
    }
  }
  const std::size_t n = base_power_w_.size();

  // The session is bit-identical to a full analyze() (DESIGN.md section
  // 8), so sampling through a warm session changes nothing but speed.
  timing::IncrementalSta session(*impl_.sta, dev_);

  DynamicResult result;
  std::vector<double> temps(n, opt_.t_amb_c.value());
  std::vector<double> power(n);
  std::vector<double> margin_temps(n);

  auto record = [&](double time_s, double dwell_s) {
    DynamicSample sample;
    sample.time_s = time_s;
    double sum = 0.0;
    double peak = -std::numeric_limits<double>::infinity();
    for (double t : temps) {
      sum += t;
      peak = std::max(peak, t);
    }
    sample.peak_temp_c = peak;
    sample.mean_temp_c = sum / static_cast<double>(n);
    for (std::size_t i = 0; i < n; ++i) {
      margin_temps[i] = temps[i] + opt_.margin_c.value();
    }
    sample.fmax_mhz =
        session.analyze(margin_temps, /*with_critical_path=*/false).fmax_mhz.value();
    sample.throttled =
        units::Celsius{sample.peak_temp_c} + opt_.margin_c > opt_.throttle_c;
    if (sample.throttled) result.throttled_s += units::Seconds{dwell_s};
    result.samples.push_back(sample);
  };

  record(0.0, 0.0);
  double t_prev = 0.0;
  for (const TraceSegment& seg : trace.segments) {
    for (std::size_t i = 0; i < n; ++i) {
      const int b = opt_.tile_block.empty() ? 0 : opt_.tile_block[i];
      const double u = b < 0 ? 1.0 : seg.utilization[static_cast<std::size_t>(b)];
      power[i] = base_power_w_[i] * u;
    }
    const double seg_duration = seg.t_end.value() - t_prev;
    const double sub = seg_duration / opt_.samples_per_segment;
    for (int k = 1; k <= opt_.samples_per_segment; ++k) {
      engine_.advance(power, units::Seconds{sub}, temps, &result.stats);
      const double t_now = k == opt_.samples_per_segment
                               ? seg.t_end.value()
                               : t_prev + sub * k;
      record(t_now, sub);
    }
    t_prev = seg.t_end.value();
  }

  double peak = -std::numeric_limits<double>::infinity();
  double min_fmax = std::numeric_limits<double>::infinity();
  for (const DynamicSample& s : result.samples) {
    peak = std::max(peak, s.peak_temp_c);
    min_fmax = std::min(min_fmax, s.fmax_mhz);
  }
  result.peak_temp_c = units::Celsius{peak};
  result.min_fmax_mhz = units::Megahertz{min_fmax};

  FlowCounters& fc = thread_flow_counters();
  fc.transient_steps += result.stats.steps;
  fc.transient_cg_iterations += result.stats.cg_iterations;
  return result;
}

// ---------------------------------------------------------------------------
// Greedy thermal-aware task allocator

Allocation allocate_tasks(const thermal::ThermalGrid& grid,
                          const std::vector<TaskSpec>& tasks,
                          const std::vector<double>& background_power_w) {
  const int width = grid.width();
  const int height = grid.height();
  const std::size_t n = static_cast<std::size_t>(width) * static_cast<std::size_t>(height);
  if (tasks.empty()) throw std::invalid_argument("allocate_tasks: no tasks");
  if (!background_power_w.empty() && background_power_w.size() != n) {
    throw std::invalid_argument(
        "allocate_tasks: background power size " +
        std::to_string(background_power_w.size()) + " does not match the " +
        std::to_string(n) + "-tile grid");
  }
  long total_tiles = 0;
  for (std::size_t k = 0; k < tasks.size(); ++k) {
    if (tasks[k].tiles < 1) {
      throw std::invalid_argument("allocate_tasks: task " + std::to_string(k) +
                                  " footprint must be >= 1 tile");
    }
    if (!std::isfinite(tasks[k].power_w.value()) || tasks[k].power_w.value() < 0.0) {
      throw std::invalid_argument("allocate_tasks: task " + std::to_string(k) +
                                  " power must be finite and >= 0");
    }
    total_tiles += tasks[k].tiles;
  }
  if (total_tiles > static_cast<long>(n)) {
    throw std::invalid_argument("allocate_tasks: tasks need " +
                                std::to_string(total_tiles) + " tiles but the fabric has " +
                                std::to_string(n));
  }

  // Hottest first: descending power density, stable on the input order.
  std::vector<std::size_t> order(tasks.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return tasks[a].power_w.value() / tasks[a].tiles >
           tasks[b].power_w.value() / tasks[b].tiles;
  });

  Allocation out;
  out.tile_block.assign(n, -1);
  std::vector<double> placed_power =
      background_power_w.empty() ? std::vector<double>(n, 0.0) : background_power_w;
  std::vector<double> trial(n);

  for (std::size_t ti : order) {
    const TaskSpec& task = tasks[ti];
    // Near-square footprint: the first `tiles` cells of a w x h rect,
    // row-major.
    int w = std::min(static_cast<int>(std::ceil(std::sqrt(static_cast<double>(task.tiles)))),
                     width);
    int h = (task.tiles + w - 1) / w;
    if (h > height) {
      h = height;
      w = (task.tiles + h - 1) / h;
    }
    const double per_tile_w = task.power_w.value() / task.tiles;

    double best_peak = std::numeric_limits<double>::infinity();
    int best_ax = -1;
    int best_ay = -1;
    for (int ay = 0; ay + h <= height; ++ay) {
      for (int ax = 0; ax + w <= width; ++ax) {
        bool overlaps = false;
        for (int c = 0; c < task.tiles && !overlaps; ++c) {
          const int idx = (ay + c / w) * width + (ax + c % w);
          overlaps = out.tile_block[static_cast<std::size_t>(idx)] >= 0;
        }
        if (overlaps) continue;
        trial = placed_power;
        for (int c = 0; c < task.tiles; ++c) {
          const int idx = (ay + c / w) * width + (ax + c % w);
          trial[static_cast<std::size_t>(idx)] += per_tile_w;
        }
        const double peak = thermal::ThermalGrid::peak(grid.solve(trial)).value();
        ++out.candidate_solves;
        if (peak < best_peak) {
          best_peak = peak;
          best_ax = ax;
          best_ay = ay;
        }
      }
    }
    if (best_ax < 0) {
      throw std::runtime_error("allocate_tasks: no overlap-free anchor for task " +
                               std::to_string(ti) + " (" + std::to_string(task.tiles) +
                               " tiles on a fragmented " + std::to_string(width) + "x" +
                               std::to_string(height) + " fabric)");
    }
    for (int c = 0; c < task.tiles; ++c) {
      const int idx = (best_ay + c / w) * width + (best_ax + c % w);
      out.tile_block[static_cast<std::size_t>(idx)] = static_cast<int>(ti);
      placed_power[static_cast<std::size_t>(idx)] += per_tile_w;
    }
  }

  out.peak_temp_c = thermal::ThermalGrid::peak(grid.solve(placed_power));
  return out;
}

}  // namespace taf::core
