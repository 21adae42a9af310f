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

std::int64_t quantize_permille(double scale) {
  return static_cast<std::int64_t>(std::llround(scale * 1000.0));
}

}  // namespace

GuardbandServer::GuardbandServer(ServerConfig config)
    : config_(std::move(config)),
      store_(config_.artifact_dir.empty()
                 ? nullptr
                 : std::make_unique<runner::ArtifactStore>(config_.artifact_dir)),
      pool_(config_.threads) {
  for (netlist::BenchmarkSpec& spec : netlist::vtr_suite()) {
    suite_.emplace(spec.name, std::move(spec));
  }
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

GuardbandServer::Tuple GuardbandServer::canonicalize(
    const protocol::GuardbandRequest& request) {
  Tuple t;
  t.design = request.design;
  t.grade_mdeg = runner::FlowCache::quantize_t_opt(request.grade_t_opt_c);
  t.ambient_mdeg = runner::FlowCache::quantize_t_opt(request.ambient_c);
  t.activity_permille = quantize_permille(request.activity_scale);
  return t;
}

std::uint64_t GuardbandServer::tuple_key(const Tuple& t) {
  util::Fnv1a h;
  h.add(std::string_view(t.design));
  h.add(t.grade_mdeg);
  h.add(t.ambient_mdeg);
  h.add(t.activity_permille);
  return h.state;
}

GuardbandServer::TraceTuple GuardbandServer::canonicalize_trace(
    const protocol::TraceRequest& request) {
  TraceTuple t;
  t.design = request.design;
  t.grade_mdeg = runner::FlowCache::quantize_t_opt(request.grade_t_opt_c);
  t.ambient_mdeg = runner::FlowCache::quantize_t_opt(request.ambient_c);
  t.samples_per_segment = request.samples_per_segment;
  util::codec::Encoder e;
  request.trace.serialize(e);
  t.trace_payload = e.take();
  return t;
}

std::uint64_t GuardbandServer::trace_tuple_key(const TraceTuple& t) {
  util::Fnv1a h;
  h.add(std::string_view(t.design));
  h.add(t.grade_mdeg);
  h.add(t.ambient_mdeg);
  h.add(static_cast<std::int64_t>(t.samples_per_segment));
  h.add(std::string_view(t.trace_payload));
  return h.state;
}

std::optional<protocol::ErrorResponse> GuardbandServer::validate(
    const protocol::GuardbandRequest& request) const {
  protocol::ErrorResponse err;
  err.request_id = request.request_id;
  if (suite_.find(request.design) == suite_.end()) {
    err.code = protocol::ErrorResponse::kUnknownDesign;
    err.message = "unknown design '" + request.design + "'";
    return err;
  }
  const auto bad_temp = [](double v) {
    return !std::isfinite(v) || v < kMinTempC || v > kMaxTempC;
  };
  if (bad_temp(request.grade_t_opt_c)) {
    err.code = protocol::ErrorResponse::kBadParameter;
    err.message = "grade_t_opt_c out of domain";
    return err;
  }
  if (bad_temp(request.ambient_c)) {
    err.code = protocol::ErrorResponse::kBadParameter;
    err.message = "ambient_c out of domain";
    return err;
  }
  if (!std::isfinite(request.activity_scale) || request.activity_scale < 0.0 ||
      request.activity_scale > kMaxActivityScale) {
    err.code = protocol::ErrorResponse::kBadParameter;
    err.message = "activity_scale out of domain";
    return err;
  }
  return std::nullopt;
}

std::optional<protocol::ErrorResponse> GuardbandServer::validate_trace(
    const protocol::TraceRequest& request) const {
  protocol::ErrorResponse err;
  err.request_id = request.request_id;
  if (suite_.find(request.design) == suite_.end()) {
    err.code = protocol::ErrorResponse::kUnknownDesign;
    err.message = "unknown design '" + request.design + "'";
    return err;
  }
  const auto bad_temp = [](double v) {
    return !std::isfinite(v) || v < kMinTempC || v > kMaxTempC;
  };
  if (bad_temp(request.grade_t_opt_c)) {
    err.code = protocol::ErrorResponse::kBadParameter;
    err.message = "grade_t_opt_c out of domain";
    return err;
  }
  if (bad_temp(request.ambient_c)) {
    err.code = protocol::ErrorResponse::kBadParameter;
    err.message = "ambient_c out of domain";
    return err;
  }
  if (request.samples_per_segment < 1 ||
      request.samples_per_segment > kMaxSamplesPerSegment) {
    err.code = protocol::ErrorResponse::kBadParameter;
    err.message = "samples_per_segment out of domain";
    return err;
  }
  // The frame decoded (structure is sound) but the trace's *contents* may
  // still be out of domain — that is a bad parameter, not a malformed
  // frame (the protocol.hpp error-classification contract).
  try {
    request.trace.validate();
  } catch (const std::invalid_argument& e) {
    err.code = protocol::ErrorResponse::kBadParameter;
    err.message = e.what();
    return err;
  }
  if (request.trace.blocks != 1) {
    err.code = protocol::ErrorResponse::kBadParameter;
    err.message = "service traces are whole-device (exactly one block)";
    return err;
  }
  if (request.trace.segments.size() >
      static_cast<std::size_t>(kMaxServiceTraceSegments)) {
    err.code = protocol::ErrorResponse::kBadParameter;
    err.message = "trace segment count exceeds the service cap";
    return err;
  }
  return std::nullopt;
}

void GuardbandServer::fill_slot(ResponseSlot& slot, protocol::GuardbandResponse value) {
  {
    const std::lock_guard<std::mutex> lock(slot.mutex);
    slot.value = std::move(value);
    slot.ready = true;
  }
  slot.ready_cv.notify_all();
}

void GuardbandServer::fail_slot(ResponseSlot& slot, std::exception_ptr error) {
  {
    const std::lock_guard<std::mutex> lock(slot.mutex);
    slot.error = std::move(error);
    slot.ready = true;
  }
  slot.ready_cv.notify_all();
}

void GuardbandServer::evaluate_group(
    const std::string& design, std::int64_t grade_mdeg,
    const std::vector<std::pair<Tuple, ResponseSlot*>>& tuples) {
  try {
    runner::TaskMetrics tm;
    tm.name = design + "@" + std::to_string(static_cast<double>(grade_mdeg) / 1000.0);
    tm.kind = "service-group";
    util::Stopwatch wall;
    {
      const runner::TaskCounterScope counter_scope(tm);
      const core::FlowObserver obs = runner::observe_into(tm);

      const double grade_c = static_cast<double>(grade_mdeg) / 1000.0;
      const coffe::DeviceModel& dev = cache_.device(config_.tech, config_.arch, grade_c);
      const core::Implementation& impl =
          cache_.implementation(suite_.at(design), config_.arch, config_.scale);

      core::GuardbandOptions base = config_.guardband;
      base.observer = &obs;

      // Chunk the group's corners by max_batch; within a chunk the
      // corners share one blocked stencil traversal per thermal solve.
      const std::size_t chunk_max = std::max<std::size_t>(1, config_.max_batch);
      for (std::size_t begin = 0; begin < tuples.size(); begin += chunk_max) {
        const std::size_t end = std::min(tuples.size(), begin + chunk_max);
        std::vector<core::GuardbandCorner> corners;
        corners.reserve(end - begin);
        for (std::size_t i = begin; i < end; ++i) {
          const Tuple& t = tuples[i].first;
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
          const Tuple& t = tuples[i].first;
          const core::GuardbandResult& r = results[i - begin];
          protocol::GuardbandResponse resp;
          resp.design = t.design;
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
          fill_slot(*tuples[i].second, std::move(resp));
          ++tuples_evaluated_;
        }
      }
    }
    tm.wall_s = wall.seconds();
    {
      const std::lock_guard<std::mutex> lock(metrics_mutex_);
      metrics_.push_back(std::move(tm));
    }
    ++groups_evaluated_;
  } catch (...) {
    const std::exception_ptr error = std::current_exception();
    for (const auto& [tuple, slot] : tuples) fail_slot(*slot, error);
  }
}

void GuardbandServer::evaluate_trace_group(const std::string& design,
                                           std::int64_t grade_mdeg,
                                           const std::vector<TraceWork>& items) {
  try {
    runner::TaskMetrics tm;
    tm.name = design + "@" + std::to_string(static_cast<double>(grade_mdeg) / 1000.0);
    tm.kind = "service-trace-group";
    util::Stopwatch wall;
    {
      const runner::TaskCounterScope counter_scope(tm);

      const double grade_c = static_cast<double>(grade_mdeg) / 1000.0;
      const coffe::DeviceModel& dev = cache_.device(config_.tech, config_.arch, grade_c);
      const core::Implementation& impl =
          cache_.implementation(suite_.at(design), config_.arch, config_.scale);

      for (const TraceWork& item : items) {
        // Same option mapping as the scalar path: the server's configured
        // margin/thermal/power model, the request's quantized ambient.
        core::DynamicGuardbandOptions dopt;
        dopt.t_amb_c =
            units::Celsius{static_cast<double>(item.tuple.ambient_mdeg) / 1000.0};
        dopt.margin_c = config_.guardband.delta_t_c;
        dopt.thermal = config_.guardband.thermal;
        dopt.power_scale = config_.guardband.power_scale;
        dopt.samples_per_segment = item.tuple.samples_per_segment;
        const core::DynamicGuardband dyn(impl, dev, std::move(dopt));
        const core::DynamicResult r = dyn.replay(item.request->trace);

        protocol::TraceResponse resp;
        resp.design = item.tuple.design;
        resp.grade_mdeg = item.tuple.grade_mdeg;
        resp.ambient_mdeg = item.tuple.ambient_mdeg;
        resp.samples_per_segment = item.tuple.samples_per_segment;
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
        {
          const std::lock_guard<std::mutex> lock(item.slot->mutex);
          item.slot->value = std::move(resp);
          item.slot->ready = true;
        }
        item.slot->ready_cv.notify_all();
        ++traces_evaluated_;
      }
    }
    tm.wall_s = wall.seconds();
    {
      const std::lock_guard<std::mutex> lock(metrics_mutex_);
      metrics_.push_back(std::move(tm));
    }
    ++groups_evaluated_;
  } catch (...) {
    const std::exception_ptr error = std::current_exception();
    for (const TraceWork& item : items) {
      {
        const std::lock_guard<std::mutex> lock(item.slot->mutex);
        if (!item.slot->ready) {
          item.slot->error = error;
          item.slot->ready = true;
        }
      }
      item.slot->ready_cv.notify_all();
    }
  }
}

std::vector<protocol::TraceResponse> GuardbandServer::handle_trace_batch(
    const std::vector<protocol::TraceRequest>& requests) {
  for (const protocol::TraceRequest& req : requests) {
    if (const auto err = validate_trace(req)) {
      throw std::invalid_argument("guardband trace request " +
                                  std::to_string(req.request_id) + ": " + err->message);
    }
  }
  trace_requests_ += requests.size();

  struct Lookup {
    TraceTuple tuple;
    TraceSlot* slot = nullptr;
  };
  std::vector<Lookup> lookups(requests.size());
  std::map<std::pair<std::string, std::int64_t>, std::vector<TraceWork>> groups;
  {
    const std::lock_guard<std::mutex> lock(slots_mutex_);
    for (std::size_t i = 0; i < requests.size(); ++i) {
      lookups[i].tuple = canonicalize_trace(requests[i]);
      const std::uint64_t key = trace_tuple_key(lookups[i].tuple);
      auto it = trace_slots_.find(key);
      if (it == trace_slots_.end()) {
        it = trace_slots_.emplace(key, std::make_unique<TraceSlot>()).first;
        TraceWork work;
        work.tuple = lookups[i].tuple;
        work.request = &requests[i];
        work.slot = it->second.get();
        groups[{lookups[i].tuple.design, lookups[i].tuple.grade_mdeg}].push_back(
            std::move(work));
      } else {
        ++trace_hits_;
      }
      lookups[i].slot = it->second.get();
    }
  }

  if (!groups.empty()) {
    std::vector<const std::pair<const std::pair<std::string, std::int64_t>,
                                std::vector<TraceWork>>*>
        group_list;
    group_list.reserve(groups.size());
    for (const auto& g : groups) group_list.push_back(&g);
    pool_.parallel_for(group_list.size(), [&](std::size_t gi) {
      const auto& [key, items] = *group_list[gi];
      evaluate_trace_group(key.first, key.second, items);
    });
  }

  std::vector<protocol::TraceResponse> responses;
  responses.reserve(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    TraceSlot& slot = *lookups[i].slot;
    std::unique_lock<std::mutex> lock(slot.mutex);
    slot.ready_cv.wait(lock, [&] { return slot.ready; });
    if (slot.error) std::rethrow_exception(slot.error);
    protocol::TraceResponse resp = slot.value;
    lock.unlock();
    resp.request_id = requests[i].request_id;
    responses.push_back(std::move(resp));
  }
  return responses;
}

std::vector<protocol::GuardbandResponse> GuardbandServer::handle_batch(
    const std::vector<protocol::GuardbandRequest>& requests) {
  for (const protocol::GuardbandRequest& req : requests) {
    if (const auto err = validate(req)) {
      throw std::invalid_argument("guardband request " +
                                  std::to_string(req.request_id) + ": " + err->message);
    }
  }
  requests_ += requests.size();

  // Find-or-create the response slot of every distinct tuple; slots this
  // call creates are its to-build list (the build-once contract: every
  // tuple is evaluated exactly once, whoever asks first builds).
  struct Lookup {
    Tuple tuple;
    ResponseSlot* slot = nullptr;
  };
  std::vector<Lookup> lookups(requests.size());
  // (design, grade) groups to evaluate, in deterministic (map) order.
  std::map<std::pair<std::string, std::int64_t>, std::vector<std::pair<Tuple, ResponseSlot*>>>
      groups;
  {
    const std::lock_guard<std::mutex> lock(slots_mutex_);
    for (std::size_t i = 0; i < requests.size(); ++i) {
      lookups[i].tuple = canonicalize(requests[i]);
      const std::uint64_t key = tuple_key(lookups[i].tuple);
      auto it = slots_.find(key);
      if (it == slots_.end()) {
        it = slots_.emplace(key, std::make_unique<ResponseSlot>()).first;
        groups[{lookups[i].tuple.design, lookups[i].tuple.grade_mdeg}].emplace_back(
            lookups[i].tuple, it->second.get());
      } else {
        ++tuple_hits_;
      }
      lookups[i].slot = it->second.get();
    }
  }

  if (!groups.empty()) {
    std::vector<const std::pair<const std::pair<std::string, std::int64_t>,
                                std::vector<std::pair<Tuple, ResponseSlot*>>>*>
        group_list;
    group_list.reserve(groups.size());
    for (const auto& g : groups) group_list.push_back(&g);
    pool_.parallel_for(group_list.size(), [&](std::size_t gi) {
      const auto& [key, tuples] = *group_list[gi];
      evaluate_group(key.first, key.second, tuples);
    });
  }

  std::vector<protocol::GuardbandResponse> responses;
  responses.reserve(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    ResponseSlot& slot = *lookups[i].slot;
    std::unique_lock<std::mutex> lock(slot.mutex);
    slot.ready_cv.wait(lock, [&] { return slot.ready; });
    if (slot.error) std::rethrow_exception(slot.error);
    protocol::GuardbandResponse resp = slot.value;
    lock.unlock();
    resp.request_id = requests[i].request_id;
    responses.push_back(std::move(resp));
  }
  return responses;
}

protocol::GuardbandResponse GuardbandServer::handle(
    const protocol::GuardbandRequest& request) {
  auto pending = std::make_shared<PendingRequest>();
  pending->request = request;
  {
    const std::lock_guard<std::mutex> lock(admission_mutex_);
    if (stop_) throw std::runtime_error("guardband server is shutting down");
    admission_queue_.push_back(pending);
  }
  admission_cv_.notify_one();
  std::unique_lock<std::mutex> lock(pending->mutex);
  pending->done_cv.wait(lock, [&] { return pending->done; });
  if (pending->error) std::rethrow_exception(pending->error);
  return std::move(pending->response);
}

protocol::TraceResponse GuardbandServer::handle_trace(
    const protocol::TraceRequest& request) {
  auto pending = std::make_shared<PendingRequest>();
  pending->is_trace = true;
  pending->trace_request = request;
  {
    const std::lock_guard<std::mutex> lock(admission_mutex_);
    if (stop_) throw std::runtime_error("guardband server is shutting down");
    admission_queue_.push_back(pending);
  }
  admission_cv_.notify_one();
  std::unique_lock<std::mutex> lock(pending->mutex);
  pending->done_cv.wait(lock, [&] { return pending->done; });
  if (pending->error) std::rethrow_exception(pending->error);
  return std::move(pending->trace_response);
}

void GuardbandServer::admission_loop() {
  for (;;) {
    std::vector<std::shared_ptr<PendingRequest>> batch;
    {
      std::unique_lock<std::mutex> lock(admission_mutex_);
      admission_cv_.wait(lock, [&] { return stop_ || !admission_queue_.empty(); });
      if (admission_queue_.empty()) return;  // stop_ and drained
      const std::size_t take =
          std::min(admission_queue_.size(), std::max<std::size_t>(1, config_.max_admission));
      batch.assign(admission_queue_.begin(),
                   admission_queue_.begin() + static_cast<std::ptrdiff_t>(take));
      admission_queue_.erase(admission_queue_.begin(),
                             admission_queue_.begin() + static_cast<std::ptrdiff_t>(take));
    }
    ++admission_batches_;

    // Split the drained batch by kind: scalar and trace queries share the
    // admission queue (concurrent clients of either kind coalesce into
    // one batch) but run through their own batch entry points.
    std::vector<std::shared_ptr<PendingRequest>> scalar;
    std::vector<std::shared_ptr<PendingRequest>> traces;
    for (auto& p : batch) (p->is_trace ? traces : scalar).push_back(std::move(p));

    if (!scalar.empty()) {
      std::vector<protocol::GuardbandRequest> requests;
      requests.reserve(scalar.size());
      for (const auto& p : scalar) requests.push_back(p->request);
      std::vector<protocol::GuardbandResponse> responses;
      std::exception_ptr batch_error;
      try {
        responses = handle_batch(requests);
      } catch (...) {
        batch_error = std::current_exception();
      }
      if (batch_error == nullptr) {
        for (std::size_t i = 0; i < scalar.size(); ++i) {
          PendingRequest& p = *scalar[i];
          {
            const std::lock_guard<std::mutex> lock(p.mutex);
            p.response = std::move(responses[i]);
            p.done = true;
          }
          p.done_cv.notify_all();
        }
      } else {
        // One bad (or failing) request must not poison its batch peers:
        // retry each request on its own and report per-request errors.
        for (const auto& p : scalar) {
          std::exception_ptr error;
          protocol::GuardbandResponse resp;
          try {
            resp = handle_batch({p->request})[0];
          } catch (...) {
            error = std::current_exception();
          }
          {
            const std::lock_guard<std::mutex> lock(p->mutex);
            p->response = std::move(resp);
            p->error = error;
            p->done = true;
          }
          p->done_cv.notify_all();
        }
      }
    }

    if (!traces.empty()) {
      std::vector<protocol::TraceRequest> requests;
      requests.reserve(traces.size());
      for (const auto& p : traces) requests.push_back(p->trace_request);
      std::vector<protocol::TraceResponse> responses;
      std::exception_ptr batch_error;
      try {
        responses = handle_trace_batch(requests);
      } catch (...) {
        batch_error = std::current_exception();
      }
      if (batch_error == nullptr) {
        for (std::size_t i = 0; i < traces.size(); ++i) {
          PendingRequest& p = *traces[i];
          {
            const std::lock_guard<std::mutex> lock(p.mutex);
            p.trace_response = std::move(responses[i]);
            p.done = true;
          }
          p.done_cv.notify_all();
        }
      } else {
        for (const auto& p : traces) {
          std::exception_ptr error;
          protocol::TraceResponse resp;
          try {
            resp = handle_trace_batch({p->trace_request})[0];
          } catch (...) {
            error = std::current_exception();
          }
          {
            const std::lock_guard<std::mutex> lock(p->mutex);
            p->trace_response = std::move(resp);
            p->error = error;
            p->done = true;
          }
          p->done_cv.notify_all();
        }
      }
    }
  }
}

std::string GuardbandServer::serve_payload(std::string_view envelope) {
  if (protocol::is_trace_request_envelope(envelope)) {
    return serve_trace_payload(envelope);
  }
  protocol::GuardbandRequest request;
  try {
    request = protocol::decode_request(envelope);
  } catch (const util::codec::Error& e) {
    ++errors_;
    protocol::ErrorResponse err;
    err.code = protocol::ErrorResponse::kMalformedFrame;
    err.message = e.what();
    return protocol::encode_error(err);
  }
  if (auto err = validate(request)) {
    ++errors_;
    return protocol::encode_error(*err);
  }
  try {
    return protocol::encode_response(handle(request));
  } catch (const std::exception& e) {
    ++errors_;
    protocol::ErrorResponse err;
    err.request_id = request.request_id;
    err.code = protocol::ErrorResponse::kInternal;
    err.message = e.what();
    return protocol::encode_error(err);
  }
}

std::string GuardbandServer::serve_trace_payload(std::string_view envelope) {
  protocol::TraceRequest request;
  try {
    request = protocol::decode_trace_request(envelope);
  } catch (const util::codec::Error& e) {
    ++errors_;
    protocol::ErrorResponse err;
    err.code = protocol::ErrorResponse::kMalformedFrame;
    err.message = e.what();
    return protocol::encode_error(err);
  }
  if (auto err = validate_trace(request)) {
    ++errors_;
    return protocol::encode_error(*err);
  }
  try {
    return protocol::encode_trace_response(handle_trace(request));
  } catch (const std::exception& e) {
    ++errors_;
    protocol::ErrorResponse err;
    err.request_id = request.request_id;
    err.code = protocol::ErrorResponse::kInternal;
    err.message = e.what();
    return protocol::encode_error(err);
  }
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
  s.requests = requests_.load();
  s.tuple_hits = tuple_hits_.load();
  s.tuples_evaluated = tuples_evaluated_.load();
  s.groups_evaluated = groups_evaluated_.load();
  s.batched_corners = batched_corners_.load();
  s.admission_batches = admission_batches_.load();
  s.errors = errors_.load();
  s.trace_requests = trace_requests_.load();
  s.trace_hits = trace_hits_.load();
  s.traces_evaluated = traces_evaluated_.load();
  return s;
}

std::vector<runner::TaskMetrics> GuardbandServer::drain_metrics() {
  const std::lock_guard<std::mutex> lock(metrics_mutex_);
  std::vector<runner::TaskMetrics> out = std::move(metrics_);
  metrics_.clear();
  return out;
}

}  // namespace taf::service
