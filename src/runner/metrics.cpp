#include "runner/metrics.hpp"

#include <cstdio>

namespace taf::runner {

namespace {

void append_escaped(std::string& out, const std::string& s) {
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

std::string fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6f", v);
  return buf;
}

/// The task table as data: each counter column's report name and field.
struct CounterColumn {
  const char* name;
  std::uint64_t TaskMetrics::*field;
};
#define TAF_COUNTER_COLUMN(report_name, layer, layer_field) \
  {#report_name, &TaskMetrics::report_name},
constexpr CounterColumn kCounterColumns[] = {TAF_TASK_COUNTERS(TAF_COUNTER_COLUMN)};
#undef TAF_COUNTER_COLUMN

void append_phases_json(std::string& out, const PhaseTimes& phases) {
  out += '{';
  for (int p = 0; p < core::kNumFlowPhases; ++p) {
    if (p > 0) out += ',';
    out += '"';
    out += core::flow_phase_name(static_cast<core::FlowPhase>(p));
    out += "\":";
    out += fmt(phases.seconds[static_cast<std::size_t>(p)]);
  }
  out += '}';
}

}  // namespace

void TaskMetrics::add_counters(const TaskMetrics& other) {
  for (const CounterColumn& c : kCounterColumns) this->*c.field += other.*c.field;
}

LayerCounters LayerCounters::of_this_thread() {
  return {spice::thread_counters(), core::thread_flow_counters(), thread_artifact_counters()};
}

TaskCounterScope::~TaskCounterScope() {
  const LayerCounters now = LayerCounters::of_this_thread();
#define TAF_CAPTURE_COUNTER(report_name, layer, layer_field)           \
  m_.report_name += now.layer.layer_field - before_.layer.layer_field;
  TAF_TASK_COUNTERS(TAF_CAPTURE_COUNTER)
#undef TAF_CAPTURE_COUNTER
}

std::string RunReport::to_json() const {
  std::string out = "{\n";
  out += "  \"threads\": " + std::to_string(threads) + ",\n";
  out += "  \"wall_s\": " + fmt(wall_s) + ",\n";
  out += "  \"cache\": {\"device_hits\": " + std::to_string(cache.device_hits) +
         ", \"device_misses\": " + std::to_string(cache.device_misses) +
         ", \"impl_hits\": " + std::to_string(cache.impl_hits) +
         ", \"impl_misses\": " + std::to_string(cache.impl_misses) +
         ", \"disk_hits\": " + std::to_string(cache.disk_hits) +
         ", \"disk_misses\": " + std::to_string(cache.disk_misses) +
         ", \"disk_writes\": " + std::to_string(cache.disk_writes) +
         ", \"disk_errors\": " + std::to_string(cache.disk_errors) + "},\n";
  out += "  \"scalars\": {";
  for (std::size_t i = 0; i < scalars.size(); ++i) {
    if (i > 0) out += ", ";
    out += '"';
    append_escaped(out, scalars[i].first);
    out += "\": " + fmt(scalars[i].second);
  }
  out += "},\n";
  out += "  \"tasks\": [\n";
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    const TaskMetrics& t = tasks[i];
    out += "    {\"name\": \"";
    append_escaped(out, t.name);
    out += "\", \"kind\": \"";
    append_escaped(out, t.kind);
    out += "\", \"wall_s\": " + fmt(t.wall_s) +
           ", \"iterations\": " + std::to_string(t.iterations);
    for (const CounterColumn& c : kCounterColumns) {
      out += ", \"";
      out += c.name;
      out += "\": " + std::to_string(t.*c.field);
    }
    out += ", \"phases\": ";
    append_phases_json(out, t.phases);
    out += i + 1 < tasks.size() ? "},\n" : "}\n";
  }
  out += "  ]\n}\n";
  return out;
}

std::string RunReport::to_csv() const {
  std::string out = "name,kind,wall_s,iterations";
  for (const CounterColumn& c : kCounterColumns) {
    out += ',';
    out += c.name;
  }
  for (int p = 0; p < core::kNumFlowPhases; ++p) {
    out += ',';
    out += core::flow_phase_name(static_cast<core::FlowPhase>(p));
    out += "_s";
  }
  out += '\n';
  for (const auto& [name, value] : scalars) {
    out += "scalar," + name + ',' + fmt(value) + '\n';
  }
  for (const TaskMetrics& t : tasks) {
    out += t.name + ',' + t.kind + ',' + fmt(t.wall_s) + ',' + std::to_string(t.iterations);
    for (const CounterColumn& c : kCounterColumns) {
      out += ',';
      out += std::to_string(t.*c.field);
    }
    for (double s : t.phases.seconds) {
      out += ',';
      out += fmt(s);
    }
    out += '\n';
  }
  return out;
}

core::FlowObserver observe_into(TaskMetrics& metrics) {
  core::FlowObserver obs;
  obs.on_phase = [&metrics](core::FlowPhase phase, units::Seconds s) {
    metrics.phases.add(phase, s.value());
  };
  obs.on_iteration = [&metrics](const core::FlowObserver::IterationInfo& info) {
    metrics.iterations = info.iteration;
  };
  return obs;
}

}  // namespace taf::runner
