// bench_all: the one driver of every reproduction table/figure.
//
// Each experiment TU registers its TAF_EXPERIMENT body here. The driver
// first warms the process-wide runner::FlowCache — device models and
// suite implementations fan out over the shared thread pool — then runs
// the experiments serially in alphabetical order, so stdout is the same
// at any -j and `cmp`-equal to the committed golden
// tests/golden/bench_all.stdout; `--only name` (no warm-up) prints that
// experiment's contiguous slice of it.
//
// Usage: bench_all [-j N] [--metrics out.json] [--csv out.csv]
//                  [--artifact-dir DIR] [--list] [--only name ...]
//
// --artifact-dir DIR enables the on-disk artifact store: implementations
// stream their pack/place/route/activity stages to DIR, and a rerun —
// including after a kill — reloads every stage a previous run completed
// instead of recomputing it. stdout is byte-identical either way; the
// disk-tier traffic is reported on stderr and in the --metrics/--csv
// output.

#include <algorithm>
#include <cinttypes>
#include <climits>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "runner/artifact_store.hpp"
#include "runner/metrics.hpp"
#include "util/timer.hpp"

namespace {

int usage(const char* argv0, int code) {
  std::fprintf(stderr,
               "usage: %s [-j N] [--metrics out.json] [--csv out.csv] "
               "[--artifact-dir DIR] [--list] [--only name ...]\n",
               argv0);
  return code;
}

bool write_file(const std::string& path, const std::string& body) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "bench_all: cannot write %s\n", path.c_str());
    return false;
  }
  std::fwrite(body.data(), 1, body.size(), f);
  std::fclose(f);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace taf;

  int jobs = 0;  // 0 = auto (hardware concurrency)
  std::string metrics_path, csv_path, artifact_dir;
  std::vector<std::string> only;
  bool list_only = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("-j", 0) == 0 && (arg.size() > 2 || i + 1 < argc)) {
      const char* value = arg.size() > 2 ? arg.c_str() + 2 : argv[++i];
      char* end = nullptr;
      const long n = std::strtol(value, &end, 10);
      if (end == value || *end != '\0' || n < 1 || n > INT_MAX) {
        std::fprintf(stderr, "bench_all: -j needs a positive integer, got '%s'\n", value);
        return usage(argv[0], 2);
      }
      jobs = static_cast<int>(n);
    } else if (arg == "--metrics" && i + 1 < argc) {
      metrics_path = argv[++i];
    } else if (arg == "--csv" && i + 1 < argc) {
      csv_path = argv[++i];
    } else if (arg == "--artifact-dir" && i + 1 < argc) {
      artifact_dir = argv[++i];
    } else if (arg == "--list") {
      list_only = true;
    } else if (arg == "--only" && i + 1 < argc) {
      only.push_back(argv[++i]);
    } else if (arg == "-h" || arg == "--help") {
      return usage(argv[0], 0);
    } else {
      std::fprintf(stderr, "bench_all: unknown argument '%s'\n", arg.c_str());
      return usage(argv[0], 2);
    }
  }
  bench::set_pool_threads(jobs);

  // Disk tier, only with --artifact-dir. Attached for the whole process
  // so both the warm-up phase and any --only subset builds go through it.
  std::unique_ptr<runner::ArtifactStore> store;
  try {
    if (!artifact_dir.empty()) store = std::make_unique<runner::ArtifactStore>(artifact_dir);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_all: %s\n", e.what());
    return 2;
  }
  if (store) runner::FlowCache::global().set_artifact_store(store.get());

  auto experiments = bench::experiment_registry();
  std::sort(experiments.begin(), experiments.end(),
            [](const auto& a, const auto& b) { return a.name < b.name; });
  if (!only.empty()) {
    std::vector<bench::Experiment> selected;
    for (const auto& name : only) {
      const auto it = std::find_if(experiments.begin(), experiments.end(),
                                   [&](const auto& e) { return e.name == name; });
      if (it == experiments.end()) {
        std::fprintf(stderr, "bench_all: unknown experiment '%s' (see --list)\n",
                     name.c_str());
        return 2;
      }
      selected.push_back(*it);
    }
    experiments = std::move(selected);
  }
  if (list_only) {
    for (const auto& e : experiments) std::printf("%s\n", e.name.c_str());
    return 0;
  }

  util::Stopwatch total;
  runner::RunReport report;
  report.threads = bench::pool().threads();

  // Phase 1: warm the flow cache in parallel. Every artifact the
  // experiments share — the four device grades and the implemented
  // suite — is built here, once, across the pool; the experiments then
  // hit the cache. Skipped under --only: a subset builds just what it
  // needs on first use.
  if (only.empty()) {
    struct WarmTask {
      std::string name, kind;
      double t_opt_c = 0.0;               // characterize tasks
      const netlist::BenchmarkSpec* spec = nullptr;  // implement tasks
    };
    std::vector<WarmTask> warm;
    for (double t : {0.0, 25.0, 70.0, 100.0}) {
      std::string grade = "D";
      grade += util::Table::num(t, 0);
      warm.push_back({std::move(grade), "characterize", t, nullptr});
    }
    const auto suite = netlist::vtr_suite();
    for (const auto& spec : suite) {
      warm.push_back({spec.name, "implement", 0.0, &spec});
    }
    std::vector<runner::TaskMetrics> warm_metrics(warm.size());
    bench::pool().parallel_for(warm.size(), [&](std::size_t i) {
      runner::TaskMetrics& m = warm_metrics[i];
      m.name = warm[i].kind + ":" + warm[i].name;
      m.kind = warm[i].kind;
      const runner::TaskCounterScope counter_scope(m);
      util::Stopwatch sw;
      if (warm[i].spec) {
        core::ImplementOptions iopt;
        const core::FlowObserver obs = runner::observe_into(m);
        iopt.observer = &obs;
        runner::FlowCache::global().implementation(*warm[i].spec, bench::bench_arch(),
                                                   bench::kSuiteScale, iopt);
      } else {
        bench::device_at(warm[i].t_opt_c);
      }
      m.wall_s = sw.seconds();
    });
    report.tasks.insert(report.tasks.end(), warm_metrics.begin(), warm_metrics.end());
    std::fprintf(stderr, "[bench_all] cache warm (%zu tasks, %d threads): %.1fs\n",
                 warm.size(), report.threads, total.seconds());
  }

  // Phase 2: run the experiments serially, in name order, with no
  // separators: each experiment's transcript is a contiguous slice of
  // the golden, whatever else runs with it.
  int rc = 0;
  for (std::size_t i = 0; i < experiments.size(); ++i) {
    runner::TaskMetrics m;
    m.name = experiments[i].name;
    m.kind = "experiment";
    util::Stopwatch sw;
    int code = 0;
    {
      // Captures only driver-thread work; sweep cells report their own
      // counters via bench::collected_sweep_metrics() below.
      const runner::TaskCounterScope counter_scope(m);
      code = experiments[i].fn();
    }
    m.wall_s = sw.seconds();
    report.tasks.push_back(std::move(m));
    if (code != 0) {
      std::fprintf(stderr, "[bench_all] experiment %s failed (exit %d)\n",
                   experiments[i].name.c_str(), code);
      rc = code;
    }
  }

  report.wall_s = total.seconds();
  report.cache = runner::FlowCache::global().stats();

  // Fold in the per-cell sweep metrics (guardband work happens on pool
  // threads) and summarize the incremental engine's work.
  {
    const std::lock_guard<std::mutex> lock(bench::sweep_metrics_mutex());
    const auto& cells = bench::collected_sweep_metrics();
    runner::TaskMetrics sum;
    for (const auto& m : cells) sum.add_counters(m);
    std::fprintf(stderr,
                 "[bench_all] guardband: %zu sweep "
                 "cells, %" PRIu64 " edges re-evaluated, %" PRIu64 " delay-cache hits, "
                 "%" PRIu64 " CG iters, %" PRIu64 " non-converged\n",
                 cells.size(), sum.sta_edges_reevaluated, sum.sta_delay_cache_hits,
                 sum.thermal_cg_iters, sum.guardband_nonconverged);
    if (sum.guardband_nonconverged > 0) {
      std::fprintf(stderr,
                   "[bench_all] WARNING: %" PRIu64 " guardband run(s) exhausted the "
                   "iteration budget; reported fmax values are not thermal "
                   "fixed points\n",
                   sum.guardband_nonconverged);
    }
    report.tasks.insert(report.tasks.end(), cells.begin(), cells.end());
  }
  std::fprintf(stderr,
               "[bench_all] %zu experiments in %.1fs (%d threads; cache: "
               "%llu/%llu impl hits, %llu/%llu device hits)\n",
               experiments.size(), report.wall_s, report.threads,
               static_cast<unsigned long long>(report.cache.impl_hits),
               static_cast<unsigned long long>(report.cache.impl_hits +
                                               report.cache.impl_misses),
               static_cast<unsigned long long>(report.cache.device_hits),
               static_cast<unsigned long long>(report.cache.device_hits +
                                               report.cache.device_misses));
  if (store) {
    const runner::ArtifactStore::Stats d = store->stats();
    std::fprintf(stderr,
                 "[bench_all] artifact store %s: %llu disk hits, %llu misses "
                 "(%llu rejected), %llu writes\n",
                 store->root().c_str(), static_cast<unsigned long long>(d.disk_hits),
                 static_cast<unsigned long long>(d.disk_misses),
                 static_cast<unsigned long long>(d.disk_errors),
                 static_cast<unsigned long long>(d.disk_writes));
  }

  if (!metrics_path.empty() && !write_file(metrics_path, report.to_json())) rc = 1;
  if (!csv_path.empty() && !write_file(csv_path, report.to_csv())) rc = 1;
  return rc;
}
