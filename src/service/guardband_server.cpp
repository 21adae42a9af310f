#include "service/guardband_server.hpp"

#include <algorithm>
#include <cmath>
#include <exception>
#include <map>
#include <stdexcept>
#include <utility>

#include "util/codec.hpp"
#include "util/hash.hpp"
#include "util/timer.hpp"

namespace taf::service {

namespace {

/// Servable parameter domain. Wide enough for any physical deployment,
/// tight enough that a fuzzer-mutated double cannot drive the flow into
/// nonsense (NaN ambients, negative activity, 1e300 grades).
constexpr double kMinTempC = -55.0;
constexpr double kMaxTempC = 150.0;
constexpr double kMaxActivityScale = 100.0;

/// Service-side trace caps, tighter than the structural
/// core::kMaxTraceSegments: 256 segments x 16 samples each bounds a
/// response at 4097 sample points (~135 KB enveloped), comfortably under
/// protocol::kMaxFrameBytes — a valid request can never produce an
/// unframeable response.
constexpr int kMaxServiceTraceSegments = 256;
constexpr int kMaxSamplesPerSegment = 16;

/// Max requests the admission thread drains per batch.
constexpr std::size_t kMaxAdmission = 256;

std::int64_t quantize_permille(double scale) {
  return static_cast<std::int64_t>(std::llround(scale * 1000.0));
}

protocol::ErrorResponse bad_parameter(std::uint64_t request_id, std::string message) {
  protocol::ErrorResponse err;
  err.request_id = request_id;
  err.code = protocol::ErrorResponse::kBadParameter;
  err.message = std::move(message);
  return err;
}

}  // namespace

GuardbandServer::GuardbandServer(ServerConfig config)
    : config_(std::move(config)),
      suite_(netlist::vtr_suite()),
      store_(config_.artifact_dir.empty()
                 ? nullptr
                 : std::make_unique<runner::ArtifactStore>(config_.artifact_dir)),
      pool_(config_.threads) {
  // Name order makes suite-index order the (design, grade) group order.
  std::sort(suite_.begin(), suite_.end(),
            [](const auto& a, const auto& b) { return a.name < b.name; });
  if (store_ != nullptr) cache_.set_artifact_store(store_.get());
  admission_thread_ = std::thread([this] { admission_loop(); });
}

GuardbandServer::~GuardbandServer() {
  {
    const std::lock_guard<std::mutex> lock(admission_mutex_);
    stop_ = true;
  }
  admission_cv_.notify_all();
  admission_thread_.join();
}

std::int32_t GuardbandServer::design_index(std::string_view name) const {
  const auto it = std::lower_bound(suite_.begin(), suite_.end(), name,
                                   [](const auto& spec, std::string_view n) {
                                     return spec.name < n;
                                   });
  if (it == suite_.end() || it->name != name) return -1;
  return static_cast<std::int32_t>(it - suite_.begin());
}

GuardbandServer::Tuple GuardbandServer::canonicalize(
    const protocol::GuardbandRequest& request) const {
  Tuple t;
  t.design = design_index(request.design);
  t.grade_mdeg = runner::FlowCache::quantize_t_opt(request.grade_t_opt_c);
  t.ambient_mdeg = runner::FlowCache::quantize_t_opt(request.ambient_c);
  t.activity_permille = quantize_permille(request.activity_scale);
  return t;
}

GuardbandServer::TraceTuple GuardbandServer::canonicalize(
    const protocol::TraceRequest& request) const {
  TraceTuple t;
  t.design = design_index(request.design);
  t.grade_mdeg = runner::FlowCache::quantize_t_opt(request.grade_t_opt_c);
  t.ambient_mdeg = runner::FlowCache::quantize_t_opt(request.ambient_c);
  t.samples_per_segment = request.samples_per_segment;
  util::codec::Encoder e;
  request.trace.serialize(e);
  t.trace_payload = e.take();
  return t;
}

std::size_t GuardbandServer::TupleHash::operator()(const Tuple& t) const {
  util::Fnv1a h;
  h.add(t.design);
  h.add(t.grade_mdeg);
  h.add(t.ambient_mdeg);
  h.add(t.activity_permille);
  return h.state;
}

std::size_t GuardbandServer::TupleHash::operator()(const TraceTuple& t) const {
  util::Fnv1a h;
  h.add(t.design);
  h.add(t.grade_mdeg);
  h.add(t.ambient_mdeg);
  h.add(t.samples_per_segment);
  h.add(std::string_view(t.trace_payload));
  return h.state;
}

template <typename Request>
std::optional<protocol::ErrorResponse> GuardbandServer::validate_common(
    const Request& request) const {
  if (design_index(request.design) < 0) {
    protocol::ErrorResponse err;
    err.request_id = request.request_id;
    err.code = protocol::ErrorResponse::kUnknownDesign;
    err.message = "unknown design '" + request.design + "'";
    return err;
  }
  const auto bad_temp = [](double v) {
    return !std::isfinite(v) || v < kMinTempC || v > kMaxTempC;
  };
  if (bad_temp(request.grade_t_opt_c)) {
    return bad_parameter(request.request_id, "grade_t_opt_c out of domain");
  }
  if (bad_temp(request.ambient_c)) {
    return bad_parameter(request.request_id, "ambient_c out of domain");
  }
  return std::nullopt;
}

std::optional<protocol::ErrorResponse> GuardbandServer::validate(
    const protocol::GuardbandRequest& request) const {
  if (auto err = validate_common(request)) return err;
  if (!std::isfinite(request.activity_scale) || request.activity_scale < 0.0 ||
      request.activity_scale > kMaxActivityScale) {
    return bad_parameter(request.request_id, "activity_scale out of domain");
  }
  return std::nullopt;
}

std::optional<protocol::ErrorResponse> GuardbandServer::validate_trace(
    const protocol::TraceRequest& request) const {
  if (auto err = validate_common(request)) return err;
  if (request.samples_per_segment < 1 ||
      request.samples_per_segment > kMaxSamplesPerSegment) {
    return bad_parameter(request.request_id, "samples_per_segment out of domain");
  }
  // The frame decoded (structure is sound) but the trace's *contents* may
  // still be out of domain — that is a bad parameter, not a malformed
  // frame (the protocol.hpp error-classification contract).
  try {
    request.trace.validate();
  } catch (const std::invalid_argument& e) {
    return bad_parameter(request.request_id, e.what());
  }
  if (request.trace.blocks != 1) {
    return bad_parameter(request.request_id,
                         "service traces are whole-device (exactly one block)");
  }
  if (request.trace.segments.size() >
      static_cast<std::size_t>(kMaxServiceTraceSegments)) {
    return bad_parameter(request.request_id, "trace segment count exceeds the service cap");
  }
  return std::nullopt;
}

void GuardbandServer::evaluate_items(const core::Implementation& impl,
                                     const coffe::DeviceModel& dev,
                                     const std::vector<ScalarKind::Work>& items,
                                     runner::TaskMetrics& tm) {
  const core::FlowObserver obs = runner::observe_into(tm);
  core::GuardbandOptions base = config_.guardband;
  base.observer = &obs;

  // Chunk the group's corners by max_batch; within a chunk the corners
  // share one blocked stencil traversal per thermal solve.
  const std::size_t chunk_max = std::max<std::size_t>(1, config_.max_batch);
  for (std::size_t begin = 0; begin < items.size(); begin += chunk_max) {
    const std::size_t end = std::min(items.size(), begin + chunk_max);
    std::vector<core::GuardbandCorner> corners;
    corners.reserve(end - begin);
    for (std::size_t i = begin; i < end; ++i) {
      const Tuple& t = *items[i].tuple;
      core::GuardbandCorner c;
      c.t_amb_c = units::Celsius{static_cast<double>(t.ambient_mdeg) / 1000.0};
      c.power_scale = config_.guardband.power_scale *
                      (static_cast<double>(t.activity_permille) / 1000.0);
      corners.push_back(c);
    }
    const std::vector<core::GuardbandResult> results =
        core::guardband_batch(impl, dev, base, corners);
    batched_corners_ += corners.size();
    for (std::size_t i = begin; i < end; ++i) {
      const Tuple& t = *items[i].tuple;
      const core::GuardbandResult& r = results[i - begin];
      protocol::GuardbandResponse resp;
      resp.design = suite_[static_cast<std::size_t>(t.design)].name;
      resp.grade_mdeg = t.grade_mdeg;
      resp.ambient_mdeg = t.ambient_mdeg;
      resp.activity_permille = t.activity_permille;
      resp.fmax_mhz = r.fmax_mhz.value();
      resp.baseline_fmax_mhz = r.baseline_fmax_mhz.value();
      resp.margin_c = config_.guardband.delta_t_c.value();
      resp.peak_temp_c = r.peak_temp_c.value();
      resp.mean_temp_c = r.mean_temp_c.value();
      resp.iterations = r.iterations;
      resp.converged = r.converged ? 1 : 0;
      resp.edges_reevaluated = r.stats.edges_reevaluated;
      resp.delay_cache_hits = r.stats.delay_cache_hits;
      resp.cg_iterations = r.stats.cg_iterations;
      scalar_.cache.fill(*items[i].slot, std::move(resp));
      ++scalar_.evaluated;
    }
  }
}

void GuardbandServer::evaluate_items(const core::Implementation& impl,
                                     const coffe::DeviceModel& dev,
                                     const std::vector<TraceKind::Work>& items,
                                     runner::TaskMetrics& /*tm*/) {
  for (const TraceKind::Work& item : items) {
    // Same option mapping as the scalar path: the server's configured
    // margin/thermal/power model, the request's quantized ambient.
    const TraceTuple& t = *item.tuple;
    core::DynamicGuardbandOptions dopt;
    dopt.t_amb_c = units::Celsius{static_cast<double>(t.ambient_mdeg) / 1000.0};
    dopt.margin_c = config_.guardband.delta_t_c;
    dopt.thermal = config_.guardband.thermal;
    dopt.power_scale = config_.guardband.power_scale;
    dopt.samples_per_segment = t.samples_per_segment;
    const core::DynamicGuardband dyn(impl, dev, std::move(dopt));
    const core::DynamicResult r = dyn.replay(item.request->trace);

    protocol::TraceResponse resp;
    resp.design = suite_[static_cast<std::size_t>(t.design)].name;
    resp.grade_mdeg = t.grade_mdeg;
    resp.ambient_mdeg = t.ambient_mdeg;
    resp.samples_per_segment = t.samples_per_segment;
    resp.min_fmax_mhz = r.min_fmax_mhz.value();
    resp.peak_temp_c = r.peak_temp_c.value();
    resp.throttled_s = r.throttled_s.value();
    resp.transient_steps = r.stats.steps;
    resp.cg_iterations = r.stats.cg_iterations;
    resp.samples.reserve(r.samples.size());
    for (const core::DynamicSample& s : r.samples) {
      protocol::TraceSamplePoint p;
      p.time_s = s.time_s;
      p.peak_temp_c = s.peak_temp_c;
      p.mean_temp_c = s.mean_temp_c;
      p.fmax_mhz = s.fmax_mhz;
      p.throttled = s.throttled ? 1 : 0;
      resp.samples.push_back(p);
    }
    trace_.cache.fill(*item.slot, std::move(resp));
    ++trace_.evaluated;
  }
}

template <typename K>
void GuardbandServer::evaluate_group(K& kind, std::int32_t design, std::int64_t grade_mdeg,
                                     const std::vector<typename K::Work>& items) {
  try {
    const netlist::BenchmarkSpec& spec = suite_[static_cast<std::size_t>(design)];
    const double grade_c = static_cast<double>(grade_mdeg) / 1000.0;
    runner::TaskMetrics tm;
    tm.name = spec.name + "@" + std::to_string(grade_c);
    tm.kind = kind.metrics_kind;
    util::Stopwatch wall;
    {
      const runner::TaskCounterScope counter_scope(tm);
      const coffe::DeviceModel& dev = cache_.device(config_.tech, config_.arch, grade_c);
      const core::Implementation& impl =
          cache_.implementation(spec, config_.arch, config_.scale);
      evaluate_items(impl, dev, items, tm);
    }
    tm.wall_s = wall.seconds();
    {
      const std::lock_guard<std::mutex> lock(metrics_mutex_);
      metrics_.push_back(std::move(tm));
    }
    ++groups_evaluated_;
  } catch (...) {
    // Fails only the slots not yet filled: tuples an earlier chunk
    // already answered keep their responses.
    const std::exception_ptr error = std::current_exception();
    for (const auto& item : items) kind.cache.fail(*item.slot, error);
  }
}

template <typename K>
std::vector<typename K::Response> GuardbandServer::run_batch(
    K& kind, const std::vector<typename K::Request>& requests) {
  for (const auto& req : requests) {
    if (const auto err = validate_request(req)) {
      throw std::invalid_argument(std::string(kind.label) + " request " +
                                  std::to_string(req.request_id) + ": " + err->message);
    }
  }
  kind.requests += requests.size();

  // Find-or-create the response slot of every distinct tuple, under one
  // lock for the whole batch; slots this call creates are its to-build
  // list (every tuple is evaluated exactly once, whoever asks first
  // builds). Groups are (design, grade) in deterministic (map) order.
  std::vector<typename K::Cache::Slot*> slots(requests.size());
  using Groups =
      std::map<std::pair<std::int32_t, std::int64_t>, std::vector<typename K::Work>>;
  Groups groups;
  {
    auto locked = kind.cache.lock();
    for (std::size_t i = 0; i < requests.size(); ++i) {
      const auto claim = locked.claim(canonicalize(requests[i]));
      if (claim.claimed) {
        groups[{claim.key.design, claim.key.grade_mdeg}].push_back(
            {&claim.key, &requests[i], &claim.slot});
      } else {
        ++kind.hits;
      }
      slots[i] = &claim.slot;
    }
  }

  if (!groups.empty()) {
    std::vector<const typename Groups::value_type*> group_list;
    group_list.reserve(groups.size());
    for (const auto& g : groups) group_list.push_back(&g);
    pool_.parallel_for(group_list.size(), [&](std::size_t gi) {
      const auto& [key, items] = *group_list[gi];
      evaluate_group(kind, key.first, key.second, items);
    });
  }

  // Collect under one more lock (released while a slot is still being
  // built), stamping each request's id onto a copy of the cached body.
  std::vector<typename K::Response> responses;
  responses.reserve(requests.size());
  auto locked = kind.cache.lock();
  for (std::size_t i = 0; i < requests.size(); ++i) {
    responses.push_back(locked.wait(*slots[i]));
    responses.back().request_id = requests[i].request_id;
  }
  return responses;
}

std::vector<protocol::GuardbandResponse> GuardbandServer::handle_batch(
    const std::vector<protocol::GuardbandRequest>& requests) {
  return run_batch(scalar_, requests);
}

std::vector<protocol::TraceResponse> GuardbandServer::handle_trace_batch(
    const std::vector<protocol::TraceRequest>& requests) {
  return run_batch(trace_, requests);
}

template <typename K>
typename K::Response GuardbandServer::submit(const typename K::Request& request) {
  auto pending = std::make_shared<typename K::Pending>();
  pending->request = request;
  std::future<typename K::Response> reply = pending->reply.get_future();
  {
    const std::lock_guard<std::mutex> lock(admission_mutex_);
    if (stop_) throw std::runtime_error("guardband server is shutting down");
    admission_queue_.emplace_back(std::move(pending));
  }
  admission_cv_.notify_one();
  return reply.get();
}

protocol::GuardbandResponse GuardbandServer::handle(
    const protocol::GuardbandRequest& request) {
  return submit<ScalarKind>(request);
}

protocol::TraceResponse GuardbandServer::handle_trace(
    const protocol::TraceRequest& request) {
  return submit<TraceKind>(request);
}

template <typename K>
void GuardbandServer::admit(K& kind,
                            const std::vector<std::shared_ptr<typename K::Pending>>& batch) {
  if (batch.empty()) return;
  std::vector<typename K::Request> requests;
  requests.reserve(batch.size());
  for (const auto& p : batch) requests.push_back(p->request);
  std::vector<typename K::Response> responses;
  bool batch_ok = true;
  try {
    responses = run_batch(kind, requests);
  } catch (...) {
    batch_ok = false;
  }
  if (batch_ok) {
    for (std::size_t i = 0; i < batch.size(); ++i) {
      batch[i]->reply.set_value(std::move(responses[i]));
    }
    return;
  }
  // One bad (or failing) request must not poison its batch peers: retry
  // each request on its own and report per-request errors.
  for (const auto& p : batch) {
    try {
      p->reply.set_value(std::move(run_batch(kind, {p->request})[0]));
    } catch (...) {
      p->reply.set_exception(std::current_exception());
    }
  }
}

void GuardbandServer::admission_loop() {
  for (;;) {
    std::vector<QueueEntry> batch;
    {
      std::unique_lock<std::mutex> lock(admission_mutex_);
      admission_cv_.wait(lock, [&] { return stop_ || !admission_queue_.empty(); });
      if (admission_queue_.empty()) return;  // stop_ and drained
      const std::size_t take = std::min(admission_queue_.size(), kMaxAdmission);
      batch.assign(std::make_move_iterator(admission_queue_.begin()),
                   std::make_move_iterator(admission_queue_.begin() +
                                           static_cast<std::ptrdiff_t>(take)));
      admission_queue_.erase(admission_queue_.begin(),
                             admission_queue_.begin() + static_cast<std::ptrdiff_t>(take));
    }
    ++admission_batches_;

    // Split the drained batch by kind; each kind runs as one batch.
    std::vector<std::shared_ptr<ScalarKind::Pending>> scalar;
    std::vector<std::shared_ptr<TraceKind::Pending>> traces;
    for (QueueEntry& entry : batch) {
      if (auto* p = std::get_if<0>(&entry)) {
        scalar.push_back(std::move(*p));
      } else {
        traces.push_back(std::move(std::get<1>(entry)));
      }
    }
    admit(scalar_, scalar);
    admit(trace_, traces);
  }
}

template <typename K, typename Decode, typename Encode>
std::string GuardbandServer::serve(std::string_view envelope, Decode decode, Encode encode) {
  typename K::Request request;
  try {
    request = decode(envelope);
  } catch (const util::codec::Error& e) {
    ++errors_;
    protocol::ErrorResponse err;
    err.code = protocol::ErrorResponse::kMalformedFrame;
    err.message = e.what();
    return protocol::encode_error(err);
  }
  if (auto err = validate_request(request)) {
    ++errors_;
    return protocol::encode_error(*err);
  }
  try {
    return encode(submit<K>(request));
  } catch (const std::exception& e) {
    ++errors_;
    protocol::ErrorResponse err;
    err.request_id = request.request_id;
    err.code = protocol::ErrorResponse::kInternal;
    err.message = e.what();
    return protocol::encode_error(err);
  }
}

std::string GuardbandServer::serve_payload(std::string_view envelope) {
  if (protocol::is_trace_request_envelope(envelope)) {
    return serve<TraceKind>(envelope, protocol::decode_trace_request,
                            protocol::encode_trace_response);
  }
  return serve<ScalarKind>(envelope, protocol::decode_request, protocol::encode_response);
}

std::string GuardbandServer::serve_frame(std::string_view frame_bytes) {
  protocol::FrameReader reader;
  reader.feed(frame_bytes);
  const std::optional<std::string> envelope = reader.next();
  const auto framing_error = [&](const char* message) {
    ++errors_;
    protocol::ErrorResponse err;
    err.code = protocol::ErrorResponse::kMalformedFrame;
    err.message = message;
    return protocol::frame(protocol::encode_error(err));
  };
  if (reader.error() != nullptr) return framing_error(reader.error());
  if (!envelope.has_value()) return framing_error("truncated frame");
  if (reader.pending_bytes() != 0) return framing_error("trailing bytes after frame");
  return protocol::frame(serve_payload(*envelope));
}

GuardbandServer::Stats GuardbandServer::stats() const {
  Stats s;
  s.requests = scalar_.requests.load();
  s.tuple_hits = scalar_.hits.load();
  s.tuples_evaluated = scalar_.evaluated.load();
  s.groups_evaluated = groups_evaluated_.load();
  s.batched_corners = batched_corners_.load();
  s.admission_batches = admission_batches_.load();
  s.errors = errors_.load();
  s.trace_requests = trace_.requests.load();
  s.trace_hits = trace_.hits.load();
  s.traces_evaluated = trace_.evaluated.load();
  return s;
}

std::vector<runner::TaskMetrics> GuardbandServer::drain_metrics() {
  const std::lock_guard<std::mutex> lock(metrics_mutex_);
  std::vector<runner::TaskMetrics> out = std::move(metrics_);
  metrics_.clear();
  return out;
}

}  // namespace taf::service
