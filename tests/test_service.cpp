// Guardband service tests (ISSUE 7 / DESIGN.md section 12):
//
//  * Determinism: N concurrent clients with interleaved queries get
//    responses byte-identical to a serial replay of the same request
//    list, for pool sizes 1 and 4 (the PR 1 pool(1)==pool(4) pinning
//    lifted to the wire), also when concurrent first calls race to build
//    one implementation's thermal unit responses. Runs under the TSan CI
//    gate.
//  * Differential: every served tuple re-run through the cold batch
//    implement()/guardband() oracle must match to the PR 3
//    incremental-vs-full contract bounds.
//  * Admission/batching semantics: duplicate tuples coalesce, distinct
//    (design, grade) groups fan out, stats add up.
//  * ArtifactStore-backed restarts: a server started on a warm artifact
//    directory serves byte-identical responses (and actually reads the
//    disk tier).
//  * Socket transport: a framed request over a real unix socket gets
//    the same bytes the in-process path produces.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <latch>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/dynamic.hpp"
#include "core/flow.hpp"
#include "reference_guardband.hpp"
#include "service/guardband_server.hpp"
#include "service/protocol.hpp"
#include "service/socket_transport.hpp"
#include "temp_dir.hpp"

namespace {

using namespace taf;
using service::GuardbandServer;
using service::ServerConfig;
namespace protocol = service::protocol;

using testutil::TempDir;

/// Small designs only: the suite runs under TSan in CI.
ServerConfig small_config(int threads) {
  ServerConfig config;
  config.threads = threads;
  config.scale = 1.0 / 16.0;
  config.max_batch = 4;
  return config;
}

/// Interleaved fleet of queries over two designs, three ambients, two
/// activities — with duplicates, so caching and coalescing both engage.
std::vector<protocol::GuardbandRequest> request_stream(std::size_t count) {
  const char* designs[] = {"mkPktMerge", "diffeq2"};
  const double ambients[] = {30.0, 45.0, 60.0};
  const double activities[] = {0.5, 1.0};
  std::vector<protocol::GuardbandRequest> stream;
  stream.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    protocol::GuardbandRequest req;
    req.request_id = i + 1;
    req.design = designs[i % 2];
    req.grade_t_opt_c = 25.0;
    req.ambient_c = ambients[(i / 2) % 3];
    req.activity_scale = activities[(i / 6) % 2];
    stream.push_back(std::move(req));
  }
  return stream;
}

std::vector<std::string> serial_replay(const std::vector<protocol::GuardbandRequest>& stream) {
  GuardbandServer server(small_config(1));
  std::vector<std::string> bytes;
  bytes.reserve(stream.size());
  for (const auto& req : stream) {
    bytes.push_back(protocol::encode_response(server.handle(req)));
  }
  return bytes;
}

TEST(ServiceDeterminism, ConcurrentClientsMatchSerialReplayByteForByte) {
  const auto stream = request_stream(36);
  const std::vector<std::string> expected = serial_replay(stream);

  for (const int pool_threads : {1, 4}) {
    SCOPED_TRACE("pool " + std::to_string(pool_threads));
    GuardbandServer server(small_config(pool_threads));
    constexpr int kClients = 4;
    std::vector<std::string> got(stream.size());
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        // Client c takes every kClients-th request: interleaved streams.
        for (std::size_t i = static_cast<std::size_t>(c); i < stream.size();
             i += kClients) {
          got[i] = protocol::encode_response(server.handle(stream[i]));
        }
      });
    }
    for (auto& t : clients) t.join();
    for (std::size_t i = 0; i < stream.size(); ++i) {
      EXPECT_EQ(got[i], expected[i]) << "request " << i;
    }
    const GuardbandServer::Stats s = server.stats();
    EXPECT_EQ(s.requests, stream.size());
    EXPECT_EQ(s.tuples_evaluated + s.tuple_hits, stream.size());
    EXPECT_EQ(s.tuples_evaluated, 12u);  // 2 designs x 3 ambients x 2 activities
    EXPECT_EQ(s.errors, 0u);
  }
}

TEST(ServiceDeterminism, ConcurrentFirstCallsOnOneImplementationMatchSerialReplay) {
  // Every client asks about the same design at once, each for its own
  // grade, ambient and activity, so the pool evaluates their groups
  // concurrently on one shared implementation whose thermal unit
  // responses none of them has built yet: one builds, the others wait,
  // and the bytes still equal a serial replay's.
  constexpr int kClients = 4;
  std::vector<protocol::GuardbandRequest> stream(kClients);
  for (int c = 0; c < kClients; ++c) {
    protocol::GuardbandRequest& req = stream[static_cast<std::size_t>(c)];
    req.request_id = static_cast<std::uint64_t>(c) + 1;
    req.design = "diffeq2";
    req.grade_t_opt_c = c % 2 == 0 ? 25.0 : 70.0;
    req.ambient_c = 30.0 + 10.0 * c;
    req.activity_scale = c < 2 ? 1.0 : 0.5;
  }
  const std::vector<std::string> expected = serial_replay(stream);

  GuardbandServer server(small_config(kClients));
  std::vector<std::string> got(stream.size());
  std::latch start(kClients);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (std::size_t c = 0; c < stream.size(); ++c) {
    clients.emplace_back([&, c] {
      start.arrive_and_wait();
      got[c] = protocol::encode_response(server.handle_batch({stream[c]}).front());
    });
  }
  for (auto& t : clients) t.join();
  for (std::size_t c = 0; c < stream.size(); ++c) {
    EXPECT_EQ(got[c], expected[c]) << "client " << c;
  }
  EXPECT_EQ(server.stats().tuples_evaluated, stream.size());
}

TEST(ServiceDeterminism, HandleBatchMatchesPerRequestHandle) {
  const auto stream = request_stream(24);
  GuardbandServer batch_server(small_config(2));
  const std::vector<protocol::GuardbandResponse> batched =
      batch_server.handle_batch(stream);
  ASSERT_EQ(batched.size(), stream.size());

  GuardbandServer serial_server(small_config(1));
  for (std::size_t i = 0; i < stream.size(); ++i) {
    EXPECT_EQ(protocol::encode_response(batched[i]),
              protocol::encode_response(serial_server.handle(stream[i])))
        << "request " << i;
  }
  // One batch: every distinct tuple evaluated once, the rest coalesced.
  const GuardbandServer::Stats s = batch_server.stats();
  EXPECT_EQ(s.requests, stream.size());
  EXPECT_EQ(s.tuples_evaluated, 12u);
  EXPECT_EQ(s.tuple_hits, stream.size() - 12u);
  EXPECT_EQ(s.groups_evaluated, 2u);  // one per (design, grade)
  EXPECT_EQ(s.batched_corners, 12u);
  EXPECT_EQ(s.admission_batches, 0u);  // handle_batch bypasses admission
}

TEST(ServiceDifferential, ServedTuplesMatchColdBatchOracle) {
  // Every served tuple, re-run cold through implement() and the
  // full-recompute reference loop (tests/reference_guardband.hpp), must
  // agree to the incremental-vs-full contract bounds.
  GuardbandServer server(small_config(2));
  const auto stream = request_stream(12);
  const std::vector<protocol::GuardbandResponse> responses = server.handle_batch(stream);

  const arch::ArchParams arch = server.config().arch;
  // The oracle re-runs Algorithm 1 cold for every request. Its two inputs
  // are pure functions of design and grade, so each is built once.
  std::map<std::string, std::unique_ptr<core::Implementation>> impls;
  std::map<std::int64_t, coffe::DeviceModel> devices;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    SCOPED_TRACE("request " + std::to_string(i));
    const protocol::GuardbandResponse& resp = responses[i];
    auto& impl = impls[resp.design];
    if (impl == nullptr) {
      netlist::BenchmarkSpec spec;
      for (const auto& s : netlist::vtr_suite()) {
        if (s.name == resp.design) spec = s;
      }
      impl = core::implement(netlist::scaled(spec, server.config().scale), arch);
    }
    auto dev_it = devices.find(resp.grade_mdeg);
    if (dev_it == devices.end()) {
      dev_it = devices
                   .emplace(resp.grade_mdeg,
                            coffe::Characterizer(server.config().tech, arch)
                                .characterize(units::Celsius(
                                    static_cast<double>(resp.grade_mdeg) / 1000.0)))
                   .first;
    }
    const coffe::DeviceModel& dev = dev_it->second;
    core::GuardbandOptions opt = server.config().guardband;
    opt.t_amb_c = units::Celsius(static_cast<double>(resp.ambient_mdeg) / 1000.0);
    opt.power_scale = static_cast<double>(resp.activity_permille) / 1000.0;
    const core::GuardbandResult cold =
        reference::guardband(*impl, dev, opt, reference::stencil_cold);

    EXPECT_EQ(resp.iterations, cold.iterations);
    EXPECT_EQ(resp.converged != 0, cold.converged);
    EXPECT_DOUBLE_EQ(resp.baseline_fmax_mhz, cold.baseline_fmax_mhz.value());
    EXPECT_NEAR(resp.fmax_mhz, cold.fmax_mhz.value(), 1e-9);
    EXPECT_NEAR(resp.peak_temp_c, cold.peak_temp_c.value(), 1e-9);
    EXPECT_NEAR(resp.mean_temp_c, cold.mean_temp_c.value(), 1e-9);
  }
}

TEST(ServiceArtifacts, StoreBackedRestartServesIdenticalBytesFromDisk) {
  const TempDir dir;
  const auto stream = request_stream(8);
  std::vector<std::string> first_bytes;
  {
    ServerConfig config = small_config(2);
    config.artifact_dir = dir.path;
    GuardbandServer server(config);
    for (const auto& resp : server.handle_batch(stream)) {
      first_bytes.push_back(protocol::encode_response(resp));
    }
    EXPECT_GT(server.flow_cache().stats().disk_writes, 0u);
  }
  // Cold process, warm disk: byte-identical responses, served with disk
  // hits instead of recomputation of the stored stages.
  {
    ServerConfig config = small_config(2);
    config.artifact_dir = dir.path;
    GuardbandServer server(config);
    const auto responses = server.handle_batch(stream);
    for (std::size_t i = 0; i < stream.size(); ++i) {
      EXPECT_EQ(protocol::encode_response(responses[i]), first_bytes[i])
          << "request " << i;
    }
    EXPECT_GT(server.flow_cache().stats().disk_hits, 0u);
  }
}

TEST(ServiceTransport, UnixSocketRoundtripMatchesInProcessBytes) {
  const std::string sock = "/tmp/taf-service-test-" + std::to_string(::getpid()) + ".sock";
  GuardbandServer server(small_config(2));
  service::SocketListener listener(server, {.unix_path = sock, .tcp_port = -1});
  listener.start();

  const auto stream = request_stream(6);
  std::vector<std::string> wire_bytes;
  {
    service::FrameClient client = service::FrameClient::connect_unix(sock);
    for (const auto& req : stream) {
      wire_bytes.push_back(client.roundtrip(protocol::encode_request(req)));
    }
  }
  listener.stop();
  EXPECT_EQ(listener.connections_accepted(), 1u);

  const std::vector<std::string> expected = serial_replay(stream);
  for (std::size_t i = 0; i < stream.size(); ++i) {
    EXPECT_EQ(wire_bytes[i], expected[i]) << "request " << i;
  }
}

TEST(ServiceTransport, TcpLoopbackServesAndReportsEphemeralPort) {
  GuardbandServer server(small_config(1));
  service::SocketListener listener(server, {.unix_path = "", .tcp_port = 0});
  ASSERT_GT(listener.bound_port(), 0);
  listener.start();
  service::FrameClient client = service::FrameClient::connect_tcp(listener.bound_port());
  const auto stream = request_stream(2);
  const std::string reply = client.roundtrip(protocol::encode_request(stream[0]));
  const protocol::GuardbandResponse resp = protocol::decode_response(reply);
  EXPECT_EQ(resp.request_id, stream[0].request_id);
  EXPECT_GT(resp.fmax_mhz, 0.0);
  listener.stop();
}

TEST(ServiceValidation, RejectsBadRequestsWithTypedErrors) {
  GuardbandServer server(small_config(1));
  protocol::GuardbandRequest req;
  req.request_id = 7;
  req.design = "no-such-design";
  EXPECT_TRUE(server.validate(req).has_value());
  EXPECT_EQ(server.validate(req)->code, protocol::ErrorResponse::kUnknownDesign);
  EXPECT_THROW((void)server.handle(req), std::invalid_argument);

  req.design = "mkPktMerge";
  req.ambient_c = 1e30;
  ASSERT_TRUE(server.validate(req).has_value());
  EXPECT_EQ(server.validate(req)->code, protocol::ErrorResponse::kBadParameter);

  req.ambient_c = 45.0;
  req.activity_scale = -1.0;
  ASSERT_TRUE(server.validate(req).has_value());
  EXPECT_EQ(server.validate(req)->code, protocol::ErrorResponse::kBadParameter);

  // The wire path turns the same failures into typed error envelopes.
  req.activity_scale = 1.0;
  req.design = "no-such-design";
  const std::string reply = server.serve_payload(protocol::encode_request(req));
  ASSERT_TRUE(protocol::is_error_envelope(reply));
  const protocol::ErrorResponse err = protocol::decode_error(reply);
  EXPECT_EQ(err.request_id, 7u);
  EXPECT_EQ(err.code, protocol::ErrorResponse::kUnknownDesign);
}

// ---------- guardband_trace (ISSUE 8) ----------

protocol::TraceRequest trace_request(std::uint64_t id, const char* design,
                                     double ambient_c, int cycles) {
  protocol::TraceRequest req;
  req.request_id = id;
  req.design = design;
  req.grade_t_opt_c = 25.0;
  req.ambient_c = ambient_c;
  req.samples_per_segment = 3;
  req.trace = core::ActivityTrace::duty_cycle(cycles, units::Seconds{2e-3},
                                              0.5, 1.0, 0.1);
  return req;
}

TEST(ServiceTrace, WireResponseMatchesInProcessReplayByteForByte) {
  // The served trace response must be byte-identical to re-running the
  // same trace through an in-process DynamicGuardband built with the
  // server's documented option mapping — the wire path adds transport
  // and caching, never numerics.
  GuardbandServer server(small_config(2));
  const protocol::TraceRequest req = trace_request(41, "mkPktMerge", 45.0, 3);
  const std::string wire = server.serve_payload(protocol::encode_trace_request(req));
  ASSERT_FALSE(protocol::is_error_envelope(wire));

  netlist::BenchmarkSpec spec;
  for (const auto& s : netlist::vtr_suite()) {
    if (s.name == req.design) spec = s;
  }
  const ServerConfig& config = server.config();
  const auto impl = core::implement(netlist::scaled(spec, config.scale), config.arch);
  const coffe::DeviceModel dev = coffe::Characterizer(config.tech, config.arch)
                                     .characterize(units::Celsius(req.grade_t_opt_c));
  core::DynamicGuardbandOptions dopt;
  dopt.t_amb_c = units::Celsius{req.ambient_c};
  dopt.margin_c = config.guardband.delta_t_c;
  dopt.thermal = config.guardband.thermal;
  dopt.power_scale = config.guardband.power_scale;
  dopt.samples_per_segment = req.samples_per_segment;
  const core::DynamicGuardband dyn(*impl, dev, std::move(dopt));
  const core::DynamicResult r = dyn.replay(req.trace);

  protocol::TraceResponse expected;
  expected.request_id = req.request_id;
  expected.design = req.design;
  expected.grade_mdeg = 25000;
  expected.ambient_mdeg = 45000;
  expected.samples_per_segment = req.samples_per_segment;
  expected.min_fmax_mhz = r.min_fmax_mhz.value();
  expected.peak_temp_c = r.peak_temp_c.value();
  expected.throttled_s = r.throttled_s.value();
  expected.transient_steps = r.stats.steps;
  expected.cg_iterations = r.stats.cg_iterations;
  for (const core::DynamicSample& s : r.samples) {
    expected.samples.push_back({s.time_s, s.peak_temp_c, s.mean_temp_c,
                                s.fmax_mhz,
                                static_cast<std::uint8_t>(s.throttled ? 1 : 0)});
  }
  EXPECT_EQ(wire, protocol::encode_trace_response(expected));

  // The decoded series is well-formed: monotone time, aggregates match.
  const protocol::TraceResponse got = protocol::decode_trace_response(wire);
  ASSERT_FALSE(got.samples.empty());
  double min_fmax = got.samples.front().fmax_mhz;
  double peak = got.samples.front().peak_temp_c;
  for (std::size_t i = 1; i < got.samples.size(); ++i) {
    EXPECT_GT(got.samples[i].time_s, got.samples[i - 1].time_s) << "sample " << i;
    min_fmax = std::min(min_fmax, got.samples[i].fmax_mhz);
    peak = std::max(peak, got.samples[i].peak_temp_c);
  }
  EXPECT_DOUBLE_EQ(got.min_fmax_mhz, min_fmax);
  EXPECT_DOUBLE_EQ(got.peak_temp_c, peak);
}

TEST(ServiceTrace, DuplicatesCoalesceAndStoreBackedRestartMatches) {
  const TempDir dir;
  // Four requests, two distinct tuples (same trace bytes + ambient
  // coalesce; different ambient does not).
  std::vector<protocol::TraceRequest> stream;
  stream.push_back(trace_request(1, "mkPktMerge", 45.0, 2));
  stream.push_back(trace_request(2, "mkPktMerge", 45.0, 2));
  stream.push_back(trace_request(3, "mkPktMerge", 60.0, 2));
  stream.push_back(trace_request(4, "mkPktMerge", 45.0, 2));

  std::vector<std::string> first_bytes;
  {
    ServerConfig config = small_config(2);
    config.artifact_dir = dir.path;
    GuardbandServer server(config);
    const auto responses = server.handle_trace_batch(stream);
    ASSERT_EQ(responses.size(), stream.size());
    for (const auto& resp : responses) {
      first_bytes.push_back(protocol::encode_trace_response(resp));
    }
    // Coalesced duplicates echo their own request_id but share the body.
    EXPECT_EQ(responses[0].request_id, 1u);
    EXPECT_EQ(responses[1].request_id, 2u);
    EXPECT_EQ(responses[0].min_fmax_mhz, responses[1].min_fmax_mhz);
    EXPECT_EQ(responses[0].transient_steps, responses[3].transient_steps);
    const GuardbandServer::Stats s = server.stats();
    EXPECT_EQ(s.trace_requests, 4u);
    EXPECT_EQ(s.traces_evaluated, 2u);
    EXPECT_EQ(s.trace_hits, 2u);
    EXPECT_GT(server.flow_cache().stats().disk_writes, 0u);
  }
  // Cold process, warm artifact directory: identical bytes, implement()
  // stages reloaded from the disk tier instead of recomputed.
  {
    ServerConfig config = small_config(2);
    config.artifact_dir = dir.path;
    GuardbandServer server(config);
    const auto responses = server.handle_trace_batch(stream);
    for (std::size_t i = 0; i < stream.size(); ++i) {
      EXPECT_EQ(protocol::encode_trace_response(responses[i]), first_bytes[i])
          << "request " << i;
    }
    EXPECT_GT(server.flow_cache().stats().disk_hits, 0u);
  }
}

TEST(ServiceTrace, TracesDifferingInOneSampleAreEvaluatedSeparately) {
  // The response cache compares whole canonical tuples, trace bytes
  // included: a one-sample difference is a different tuple.
  const protocol::TraceRequest a = trace_request(1, "mkPktMerge", 45.0, 2);
  protocol::TraceRequest b = a;
  b.request_id = 2;
  b.trace.segments[0].utilization[0] = 0.75;
  ASSERT_NE(a.trace.segments[0].utilization[0], 0.75);

  GuardbandServer server(small_config(1));
  const std::string wire_a = protocol::encode_trace_response(server.handle_trace(a));
  const std::string wire_b = protocol::encode_trace_response(server.handle_trace(b));
  const GuardbandServer::Stats s = server.stats();
  EXPECT_EQ(s.trace_requests, 2u);
  EXPECT_EQ(s.traces_evaluated, 2u);
  EXPECT_EQ(s.trace_hits, 0u);

  // Each answer is its own trace's: a fresh server asked in the other
  // order returns the same bytes, and the two bodies differ.
  GuardbandServer fresh(small_config(1));
  EXPECT_EQ(protocol::encode_trace_response(fresh.handle_trace(b)), wire_b);
  EXPECT_EQ(protocol::encode_trace_response(fresh.handle_trace(a)), wire_a);
  protocol::TraceResponse body_a = protocol::decode_trace_response(wire_a);
  protocol::TraceResponse body_b = protocol::decode_trace_response(wire_b);
  body_b.request_id = body_a.request_id;
  EXPECT_NE(protocol::encode_trace_response(body_a), protocol::encode_trace_response(body_b));
}

TEST(ServiceTrace, RejectsBadTracesWithTypedErrors) {
  GuardbandServer server(small_config(1));

  protocol::TraceRequest req = trace_request(9, "no-such-design", 45.0, 2);
  ASSERT_TRUE(server.validate_trace(req).has_value());
  EXPECT_EQ(server.validate_trace(req)->code, protocol::ErrorResponse::kUnknownDesign);
  EXPECT_THROW((void)server.handle_trace(req), std::invalid_argument);

  req = trace_request(9, "mkPktMerge", 1e30, 2);
  ASSERT_TRUE(server.validate_trace(req).has_value());
  EXPECT_EQ(server.validate_trace(req)->code, protocol::ErrorResponse::kBadParameter);

  req = trace_request(9, "mkPktMerge", 45.0, 2);
  req.samples_per_segment = 0;
  ASSERT_TRUE(server.validate_trace(req).has_value());
  EXPECT_EQ(server.validate_trace(req)->code, protocol::ErrorResponse::kBadParameter);
  req.samples_per_segment = 17;
  ASSERT_TRUE(server.validate_trace(req).has_value());
  EXPECT_EQ(server.validate_trace(req)->code, protocol::ErrorResponse::kBadParameter);

  // Semantically invalid trace (non-monotone): kBadParameter, not a crash.
  req = trace_request(9, "mkPktMerge", 45.0, 2);
  req.trace.segments[1].t_end = units::Seconds{1e-6};
  ASSERT_TRUE(server.validate_trace(req).has_value());
  EXPECT_EQ(server.validate_trace(req)->code, protocol::ErrorResponse::kBadParameter);

  // Per-block traces are rejected on the wire (service traces are
  // whole-device).
  req = trace_request(9, "mkPktMerge", 45.0, 2);
  req.trace.blocks = 2;
  for (auto& seg : req.trace.segments) seg.utilization.push_back(0.5);
  ASSERT_TRUE(server.validate_trace(req).has_value());
  EXPECT_EQ(server.validate_trace(req)->code, protocol::ErrorResponse::kBadParameter);

  // The wire path: typed error envelopes with the request id echoed, and
  // kMalformedFrame for bytes that never decode.
  req = trace_request(9, "no-such-design", 45.0, 2);
  const std::string reply = server.serve_payload(protocol::encode_trace_request(req));
  ASSERT_TRUE(protocol::is_error_envelope(reply));
  const protocol::ErrorResponse err = protocol::decode_error(reply);
  EXPECT_EQ(err.request_id, 9u);
  EXPECT_EQ(err.code, protocol::ErrorResponse::kUnknownDesign);

  const std::string good = protocol::encode_trace_request(
      trace_request(9, "mkPktMerge", 45.0, 2));
  const std::string truncated = good.substr(0, good.size() - 7);
  const std::string reply2 = server.serve_payload(truncated);
  ASSERT_TRUE(protocol::is_error_envelope(reply2));
  EXPECT_EQ(protocol::decode_error(reply2).code,
            protocol::ErrorResponse::kMalformedFrame);
}

/// One query of a mixed fleet: a scalar or a trace request.
struct MixedQuery {
  bool is_trace = false;
  protocol::GuardbandRequest scalar;
  protocol::TraceRequest trace;
};

/// request_stream() with a trace query after every third scalar one:
/// two designs, two ambients, duplicates included.
std::vector<MixedQuery> mixed_stream() {
  std::vector<MixedQuery> stream;
  const auto scalars = request_stream(24);
  for (std::size_t i = 0; i < scalars.size(); ++i) {
    MixedQuery q;
    q.scalar = scalars[i];
    stream.push_back(q);
    if (i % 3 == 2) {
      MixedQuery t;
      t.is_trace = true;
      t.trace = trace_request(100 + i, i % 2 == 0 ? "mkPktMerge" : "diffeq2",
                              (i / 6) % 2 == 0 ? 45.0 : 60.0, 2);
      stream.push_back(t);
    }
  }
  return stream;
}

std::string serve_query(GuardbandServer& server, const MixedQuery& q) {
  return q.is_trace ? protocol::encode_trace_response(server.handle_trace(q.trace))
                    : protocol::encode_response(server.handle(q.scalar));
}

TEST(ServiceDeterminism, MixedKindClientsMatchSerialReplay) {
  // Scalar and trace queries share the admission queue: concurrent
  // clients of both kinds coalesce into one admission batch, which the
  // admission thread splits by kind. Neither kind's bytes may depend on
  // the other's presence, the batch composition or the pool size.
  const std::vector<MixedQuery> stream = mixed_stream();
  std::vector<std::string> expected;
  {
    GuardbandServer serial(small_config(1));
    for (const MixedQuery& q : stream) expected.push_back(serve_query(serial, q));
  }
  const auto n_traces = static_cast<std::size_t>(std::count_if(
      stream.begin(), stream.end(), [](const MixedQuery& q) { return q.is_trace; }));

  for (const int pool_threads : {1, 4}) {
    SCOPED_TRACE("pool " + std::to_string(pool_threads));
    GuardbandServer server(small_config(pool_threads));
    constexpr int kClients = 4;
    std::vector<std::string> got(stream.size());
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        for (std::size_t i = static_cast<std::size_t>(c); i < stream.size(); i += kClients) {
          got[i] = serve_query(server, stream[i]);
        }
      });
    }
    for (auto& t : clients) t.join();
    for (std::size_t i = 0; i < stream.size(); ++i) {
      EXPECT_EQ(got[i], expected[i]) << "query " << i;
    }
    const GuardbandServer::Stats s = server.stats();
    EXPECT_EQ(s.requests + s.trace_requests, stream.size());
    EXPECT_EQ(s.trace_requests, n_traces);
    EXPECT_EQ(s.tuples_evaluated, 12u);
    EXPECT_EQ(s.traces_evaluated + s.trace_hits, n_traces);
    EXPECT_EQ(s.traces_evaluated, 4u);  // 2 designs x 2 ambients
    EXPECT_EQ(s.errors, 0u);
  }
}

TEST(ServiceQuantization, NearbyDoublesCollapseOntoOneTuple) {
  GuardbandServer server(small_config(1));
  protocol::GuardbandRequest a;
  a.request_id = 1;
  a.design = "mkPktMerge";
  a.ambient_c = 45.0;
  protocol::GuardbandRequest b = a;
  b.request_id = 2;
  b.ambient_c = 45.0 + 4e-4;  // same millidegree
  const protocol::GuardbandResponse ra = server.handle(a);
  const protocol::GuardbandResponse rb = server.handle(b);
  EXPECT_EQ(ra.ambient_mdeg, rb.ambient_mdeg);
  EXPECT_EQ(ra.fmax_mhz, rb.fmax_mhz);
  const GuardbandServer::Stats s = server.stats();
  EXPECT_EQ(s.tuples_evaluated, 1u);
  EXPECT_EQ(s.tuple_hits, 1u);
}

}  // namespace
