// Monte-Carlo fleet simulator for the guardband service (DESIGN.md
// section 12; EXPERIMENTS.md "fleet simulator").
//
// Simulates a fleet of deployed FPGA instances, each periodically asking
// the GuardbandServer "what fmax is safe for my grade, ambient, and
// activity right now": a seeded RNG samples (design, grade, ambient,
// activity) tuples from a scenario's distributions, submits them in
// client batches, and reports throughput plus per-query latency
// percentiles in the runner's RunReport JSON/CSV schema. Ambients are
// sampled on a coarse scenario-specific lattice with sub-millidegree
// jitter, so the server's canonicalization (millidegree quantization)
// collapses the fleet's millions of queries onto a bounded tuple set —
// the deployment assumption the response cache is built around.
//
// Modes:
//   * in-process (default): drives GuardbandServer::handle_batch
//     directly — the 10^6-query local configuration;
//   * wire (--connect-unix PATH | --connect-tcp PORT): speaks the framed
//     protocol to an external guardband_serverd, pipelining one client
//     batch at a time (the CI smoke job's configuration).
//
// --verify-serial replays the full request list, one request at a time,
// against a fresh single-threaded server and byte-compares every
// response envelope — the fleet-scale determinism check (concurrent +
// batched + cached responses must equal the cold serial replay).
//
// stdout carries response_digest=<16 hex digits>, an FNV-1a digest of
// every response envelope in request order. Matching digests from two
// builds show that they served the same bytes for the stream.
//
// Deliberately NOT a TAF_EXPERIMENT: its output includes wall-clock
// latencies, which would break bench_all's byte-identical-stdout
// invariant (EXPERIMENTS.md).

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "runner/metrics.hpp"
#include "service/guardband_server.hpp"
#include "service/protocol.hpp"
#include "service/socket_transport.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace {

using taf::service::GuardbandServer;
using taf::service::ServerConfig;
namespace protocol = taf::service::protocol;

struct Scenario {
  const char* name;
  std::vector<const char*> designs;
  std::vector<double> grades_c;
  std::vector<double> ambients_c;
  std::vector<double> activities;
};

// First workloads (ISSUE 7): the online-DVFS comparison's benchmark set
// and the datacenter-accelerator example's hot-ambient deployment.
// "smoke" bounds the tuple set for the CI smoke job.
Scenario scenario_by_name(const std::string& name) {
  if (name == "online_dvfs") {
    return {"online_dvfs",
            {"sha", "or1200", "blob_merge", "stereovision0", "LU8PEEng", "mcml"},
            {25.0},
            {35.0, 45.0, 55.0, 65.0},
            {0.5, 0.75, 1.0}};
  }
  if (name == "datacenter") {
    return {"datacenter",
            {"stereovision2"},
            {25.0, 70.0},
            {60.0, 65.0, 70.0, 75.0},
            {0.25, 0.5, 0.75, 1.0}};
  }
  if (name == "smoke") {
    return {"smoke",
            {"mkPktMerge", "diffeq2"},
            {25.0},
            {35.0, 55.0},
            {0.5, 1.0}};
  }
  if (name == "mixed") {
    Scenario s = scenario_by_name("online_dvfs");
    const Scenario d = scenario_by_name("datacenter");
    s.name = "mixed";
    s.designs.insert(s.designs.end(), d.designs.begin(), d.designs.end());
    s.grades_c = {25.0, 70.0};
    s.ambients_c.insert(s.ambients_c.end(), d.ambients_c.begin(), d.ambients_c.end());
    return s;
  }
  std::fprintf(stderr, "unknown scenario '%s' (online_dvfs|datacenter|smoke|mixed)\n",
               name.c_str());
  std::exit(2);
}

/// Sample one fleet query. The lattice value gets +-0.4 millidegree of
/// jitter: distinct request bytes, identical canonical tuple.
protocol::GuardbandRequest sample_request(const Scenario& s, taf::util::Rng& rng,
                                          std::uint64_t id) {
  protocol::GuardbandRequest req;
  req.request_id = id;
  req.design = s.designs[rng.next_below(static_cast<std::uint32_t>(s.designs.size()))];
  req.grade_t_opt_c = s.grades_c[rng.next_below(static_cast<std::uint32_t>(s.grades_c.size()))];
  req.ambient_c =
      s.ambients_c[rng.next_below(static_cast<std::uint32_t>(s.ambients_c.size()))] +
      rng.uniform(-4e-4, 4e-4);
  req.activity_scale =
      s.activities[rng.next_below(static_cast<std::uint32_t>(s.activities.size()))];
  return req;
}

double percentile(std::vector<double> sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double idx = p * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(idx);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = idx - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--queries N] [--seed S] [--scenario NAME] [--threads N]\n"
      "          [--batch N] [--max-batch N] [--scale S] [--artifact-dir D]\n"
      "          [--connect-unix PATH | --connect-tcp PORT]\n"
      "          [--verify-serial] [--json PATH] [--csv PATH]\n",
      argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t queries = 1000000;
  std::uint64_t seed = 1;
  std::string scenario_name = "online_dvfs";
  std::string connect_unix, connect_tcp, json_path, csv_path;
  bool verify_serial = false;
  ServerConfig config;
  std::size_t client_batch = 64;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--queries") queries = static_cast<std::uint64_t>(std::atoll(value()));
    else if (arg == "--seed") seed = static_cast<std::uint64_t>(std::atoll(value()));
    else if (arg == "--scenario") scenario_name = value();
    else if (arg == "--threads")
      config.threads = static_cast<int>(std::strtol(value(), nullptr, 10));
    else if (arg == "--batch") client_batch = static_cast<std::size_t>(std::atoll(value()));
    else if (arg == "--max-batch") config.max_batch = static_cast<std::size_t>(std::atoll(value()));
    else if (arg == "--scale") config.scale = std::strtod(value(), nullptr);
    else if (arg == "--artifact-dir") config.artifact_dir = value();
    else if (arg == "--connect-unix") connect_unix = value();
    else if (arg == "--connect-tcp") connect_tcp = value();
    else if (arg == "--verify-serial") verify_serial = true;
    else if (arg == "--json") json_path = value();
    else if (arg == "--csv") csv_path = value();
    else return usage(argv[0]);
  }
  if (client_batch == 0) client_batch = 1;
  const Scenario scenario = scenario_by_name(scenario_name);
  const bool wire = !connect_unix.empty() || !connect_tcp.empty();

  // Pre-sample the whole request stream so the in-process run, the wire
  // run, and the serial replay see the exact same queries.
  taf::util::Rng rng(seed);
  std::vector<protocol::GuardbandRequest> stream;
  stream.reserve(static_cast<std::size_t>(queries));
  for (std::uint64_t q = 0; q < queries; ++q) {
    stream.push_back(sample_request(scenario, rng, q + 1));
  }

  std::printf("fleet_simulator: scenario=%s queries=%llu seed=%llu %s batch=%zu\n",
              scenario.name, static_cast<unsigned long long>(queries),
              static_cast<unsigned long long>(seed),
              wire ? "mode=wire" : "mode=in-process", client_batch);
  std::fflush(stdout);

  std::unique_ptr<GuardbandServer> server;
  std::unique_ptr<taf::service::FrameClient> client;
  if (wire) {
    client = std::make_unique<taf::service::FrameClient>(
        connect_unix.empty()
            ? taf::service::FrameClient::connect_tcp(
                  static_cast<int>(std::strtol(connect_tcp.c_str(), nullptr, 10)))
            : taf::service::FrameClient::connect_unix(connect_unix));
  } else {
    server = std::make_unique<GuardbandServer>(config);
  }

  // Drive the stream in client batches, recording response envelopes
  // (for verification) and per-query latencies (batch wall time, since
  // the queries of one pipelined batch complete together).
  std::vector<std::string> envelopes;
  envelopes.reserve(stream.size());
  std::vector<double> latencies_s(stream.size(), 0.0);
  taf::util::Stopwatch total;
  taf::util::Stopwatch batch_watch;
  for (std::size_t begin = 0; begin < stream.size(); begin += client_batch) {
    const std::size_t end = std::min(stream.size(), begin + client_batch);
    batch_watch.restart();
    if (wire) {
      for (std::size_t i = begin; i < end; ++i) {
        client->send_envelope(protocol::encode_request(stream[i]));
      }
      for (std::size_t i = begin; i < end; ++i) {
        envelopes.push_back(client->read_envelope());
      }
    } else {
      const std::vector<protocol::GuardbandRequest> batch(
          stream.begin() + static_cast<std::ptrdiff_t>(begin),
          stream.begin() + static_cast<std::ptrdiff_t>(end));
      for (const protocol::GuardbandResponse& resp : server->handle_batch(batch)) {
        envelopes.push_back(protocol::encode_response(resp));
      }
    }
    const double batch_s = batch_watch.lap();
    for (std::size_t i = begin; i < end; ++i) latencies_s[i] = batch_s;
  }
  const double wall_s = total.seconds();

  for (const std::string& env : envelopes) {
    if (protocol::is_error_envelope(env)) {
      const protocol::ErrorResponse err = protocol::decode_error(env);
      std::fprintf(stderr, "FAIL: request %llu got error %u: %s\n",
                   static_cast<unsigned long long>(err.request_id), err.code,
                   err.message.c_str());
      return 1;
    }
  }

  taf::runner::RunReport report;
  report.threads = config.threads;
  report.wall_s = wall_s;
  std::vector<double> sorted = latencies_s;
  std::sort(sorted.begin(), sorted.end());
  const double qps = wall_s > 0.0 ? static_cast<double>(queries) / wall_s : 0.0;
  report.scalars.emplace_back("queries", static_cast<double>(queries));
  report.scalars.emplace_back("throughput_qps", qps);
  report.scalars.emplace_back("latency_p50_ms", percentile(sorted, 0.50) * 1e3);
  report.scalars.emplace_back("latency_p90_ms", percentile(sorted, 0.90) * 1e3);
  report.scalars.emplace_back("latency_p99_ms", percentile(sorted, 0.99) * 1e3);
  report.scalars.emplace_back("latency_max_ms", sorted.empty() ? 0.0 : sorted.back() * 1e3);
  if (server != nullptr) {
    const GuardbandServer::Stats s = server->stats();
    report.scalars.emplace_back("unique_tuples", static_cast<double>(s.tuples_evaluated));
    report.scalars.emplace_back("tuple_hits", static_cast<double>(s.tuple_hits));
    report.scalars.emplace_back("batched_corners", static_cast<double>(s.batched_corners));
    report.tasks = server->drain_metrics();
    report.cache = server->flow_cache().stats();
  }
  // One FNV-1a digest over every response envelope, in request order:
  // a deterministic fingerprint of the served bytes (work counters
  // included) for comparing builds with one run.
  taf::util::Fnv1a digest;
  for (const std::string& env : envelopes) digest.add(std::string_view(env));
  std::printf("response_digest=%016llx\n", static_cast<unsigned long long>(digest.state));
  std::printf("queries=%llu wall=%.3fs throughput=%.0f qps\n",
              static_cast<unsigned long long>(queries), wall_s, qps);
  std::printf("latency p50=%.3fms p90=%.3fms p99=%.3fms max=%.3fms\n",
              percentile(sorted, 0.50) * 1e3, percentile(sorted, 0.90) * 1e3,
              percentile(sorted, 0.99) * 1e3, sorted.empty() ? 0.0 : sorted.back() * 1e3);
  if (!json_path.empty()) std::ofstream(json_path) << report.to_json();
  if (!csv_path.empty()) std::ofstream(csv_path) << report.to_csv();

  if (verify_serial) {
    // Fleet-scale determinism: a fresh single-threaded server, replaying
    // the stream one request at a time, must produce byte-identical
    // response envelopes — whatever batching, pool size, caching, or
    // transport served the live run.
    std::printf("verify-serial: replaying %llu queries...\n",
                static_cast<unsigned long long>(queries));
    std::fflush(stdout);
    ServerConfig serial_config = config;
    serial_config.threads = 1;
    GuardbandServer serial(serial_config);
    for (std::size_t i = 0; i < stream.size(); ++i) {
      const std::string expect = protocol::encode_response(serial.handle(stream[i]));
      if (expect != envelopes[i]) {
        std::fprintf(stderr, "FAIL: response %zu differs from serial replay\n", i);
        return 1;
      }
    }
    std::printf("verify-serial: all %llu responses byte-identical\n",
                static_cast<unsigned long long>(queries));
  }
  return 0;
}
