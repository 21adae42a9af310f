#pragma once
// Long-lived guardband service (ROADMAP item 1; DESIGN.md section 12).
//
// A GuardbandServer owns the warm state of the flow — a FlowCache (with
// an optional on-disk ArtifactStore tier) and a work-stealing ThreadPool
// — and answers fleet queries "what fmax/guardband is safe for my grade,
// ambient, and activity right now" (protocol.hpp).
//
// Request path, one pipeline for both request kinds (scalar guardband
// and guardband_trace):
//   handle()/handle_trace() --> one admission queue --> the admission
//   thread drains a batch and splits it by kind --> handle_batch()/
//   handle_trace_batch() --> canonicalize tuples --> build-once response
//   slots (util::BuildOnceMap keyed by the canonical tuple) -->
//   uncached tuples grouped by (design, grade) --> groups fan out on the
//   ThreadPool --> each group evaluates its tuples on one warm
//   implementation --> responses assembled in request order.
// A kind supplies only its tuple, its extra validation, its group body
// (scalar: core::guardband_batch() over ambient/activity corners, whose
// chunks share one blocked stencil traversal per thermal solve; trace:
// a core::DynamicGuardband replay per trace) and its response fields.
//
// Determinism: a response's bytes (minus the echoed request_id) are a
// pure function of the quantized request tuple. Tuples are canonicalized
// before evaluation (grade/ambient to millidegrees, activity to
// permille; traces are taken verbatim), every tuple is evaluated exactly
// once (build-once slots), and core::guardband_batch() is bit-identical
// to per-corner guardband() whatever the batch composition — so
// admission batching, pool size, and client interleaving cannot leak
// into response bytes. tests/test_service.cpp pins concurrent == serial
// replay.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <variant>
#include <vector>

#include "arch/arch_params.hpp"
#include "core/flow.hpp"
#include "netlist/benchmarks.hpp"
#include "runner/artifact_store.hpp"
#include "util/build_once_map.hpp"
#include "runner/flow_cache.hpp"
#include "runner/metrics.hpp"
#include "runner/thread_pool.hpp"
#include "service/protocol.hpp"
#include "tech/technology.hpp"

namespace taf::service {

struct ServerConfig {
  /// ThreadPool size for tuple-group evaluation. 1 = everything inline
  /// on the admission thread (the deterministic serial reference).
  int threads = 1;
  /// Benchmark scale the served implementations are built at.
  double scale = 1.0 / 16.0;
  /// Max corners per core::guardband_batch() chunk within one group.
  std::size_t max_batch = 8;
  /// Root of the on-disk artifact tier; empty = in-memory only.
  std::string artifact_dir;
  /// Base guardband options; t_amb_c and power_scale are per-request
  /// (a request's activity scale multiplies the configured power_scale).
  core::GuardbandOptions guardband;
  arch::ArchParams arch = arch::scaled_arch();
  tech::Technology tech = tech::ptm22();
};

class GuardbandServer {
 public:
  explicit GuardbandServer(ServerConfig config);
  ~GuardbandServer();
  GuardbandServer(const GuardbandServer&) = delete;
  GuardbandServer& operator=(const GuardbandServer&) = delete;

  /// One query through the admission queue: blocks until the admission
  /// thread has evaluated (or found cached) the request's tuple.
  /// Concurrent callers coalesce into one admission batch. Throws
  /// std::invalid_argument on an unknown design or out-of-domain field.
  protocol::GuardbandResponse handle(const protocol::GuardbandRequest& request);

  /// Batch entry point (used by the admission thread, the serial replay
  /// of the determinism tests, and batch-mode clients): responses are
  /// indexed like `requests`. Validates every request up front.
  std::vector<protocol::GuardbandResponse> handle_batch(
      const std::vector<protocol::GuardbandRequest>& requests);

  /// One guardband_trace query through the same admission queue as
  /// handle(): trace and scalar requests coalesce into one admission
  /// batch and are split by kind on the admission thread. Throws
  /// std::invalid_argument on anything validate_trace() rejects.
  protocol::TraceResponse handle_trace(const protocol::TraceRequest& request);

  /// Batch entry point for trace queries, same contract as
  /// handle_batch(): build-once response slots keyed by the canonical
  /// tuple (design, quantized grade/ambient, samples_per_segment, the
  /// trace's canonical serialized bytes — traces are taken verbatim,
  /// never quantized), grouped by (design, grade) and fanned on the pool.
  std::vector<protocol::TraceResponse> handle_trace_batch(
      const std::vector<protocol::TraceRequest>& requests);

  /// Wire path: one request envelope in, one response envelope out.
  /// Dispatches on the envelope kind (guardband-request vs
  /// guardband-trace-request). Never throws — every failure becomes a
  /// typed kErrorKind envelope (protocol.hpp error contract).
  std::string serve_payload(std::string_view envelope);

  /// Wire path with framing: one length-prefixed frame in, one out.
  /// Never throws; malformed framing yields a framed error envelope.
  std::string serve_frame(std::string_view frame_bytes);

  /// Validation shared by the in-process and wire paths: nullopt when
  /// the request is servable, a typed error otherwise.
  std::optional<protocol::ErrorResponse> validate(
      const protocol::GuardbandRequest& request) const;

  /// Trace-request validation: known design, temperatures in the served
  /// domain, samples_per_segment in [1, 16], the trace semantically
  /// valid (ActivityTrace::validate) with exactly one block, and segment
  /// x sample counts small enough that the response fits one frame.
  std::optional<protocol::ErrorResponse> validate_trace(
      const protocol::TraceRequest& request) const;

  struct Stats {
    std::uint64_t requests = 0;         ///< queries admitted (valid ones)
    std::uint64_t tuple_hits = 0;       ///< served from the response cache
    std::uint64_t tuples_evaluated = 0; ///< distinct tuples run through Algorithm 1
    std::uint64_t groups_evaluated = 0; ///< (design, grade) groups dispatched
    std::uint64_t batched_corners = 0;  ///< corners sent through guardband_batch
    std::uint64_t admission_batches = 0;
    std::uint64_t errors = 0;           ///< typed error responses issued
    std::uint64_t trace_requests = 0;   ///< trace queries admitted (valid ones)
    std::uint64_t trace_hits = 0;       ///< served from the trace response cache
    std::uint64_t traces_evaluated = 0; ///< distinct trace tuples replayed
  };
  Stats stats() const;

  /// Per-group TaskMetrics accumulated since the last drain (kind
  /// "service-group": phase times, Algorithm 1 work, disk traffic).
  std::vector<runner::TaskMetrics> drain_metrics();

  const ServerConfig& config() const { return config_; }
  runner::FlowCache& flow_cache() { return cache_; }

 private:
  /// Canonical (quantized) scalar tuple. The design is its index in the
  /// name-sorted suite, so a key is 32 bytes with no heap string.
  struct Tuple {
    std::int32_t design = 0;
    std::int64_t grade_mdeg = 0;
    std::int64_t ambient_mdeg = 0;
    std::int64_t activity_permille = 1000;
    bool operator==(const Tuple&) const = default;
  };

  /// Canonical trace tuple: quantized scalars plus the trace's canonical
  /// serialized payload bytes (f64s are bit-exact through the codec, so
  /// re-encoding the decoded trace is canonical).
  struct TraceTuple {
    std::int32_t design = 0;
    std::int64_t grade_mdeg = 0;
    std::int64_t ambient_mdeg = 0;
    std::int32_t samples_per_segment = 0;
    std::string trace_payload;
    bool operator==(const TraceTuple&) const = default;
  };

  struct TupleHash {
    std::size_t operator()(const Tuple& t) const;
    std::size_t operator()(const TraceTuple& t) const;
  };

  /// One request kind of the shared pipeline: its response cache, keyed
  /// by the canonical tuple itself (compared with ==, so colliding hashes
  /// never share a response), and its Stats counters.
  template <typename RequestT, typename ResponseT, typename KeyT>
  struct Kind {
    using Request = RequestT;
    using Response = ResponseT;
    using Cache = util::BuildOnceMap<KeyT, ResponseT, TupleHash>;

    /// A tuple this batch claimed and must evaluate.
    struct Work {
      const KeyT* tuple = nullptr;  // the cache's copy
      const RequestT* request = nullptr;
      typename Cache::Slot* slot = nullptr;
    };

    /// One handle()/handle_trace() call waiting in the admission queue.
    struct Pending {
      RequestT request;
      std::promise<ResponseT> reply;
    };

    Kind(const char* name, const char* group_kind) : label(name), metrics_kind(group_kind) {}

    const char* const label;         ///< error-message prefix
    const char* const metrics_kind;  ///< TaskMetrics kind of its groups
    Cache cache;
    std::atomic<std::uint64_t> requests{0};
    std::atomic<std::uint64_t> hits{0};
    std::atomic<std::uint64_t> evaluated{0};
  };
  using ScalarKind = Kind<protocol::GuardbandRequest, protocol::GuardbandResponse, Tuple>;
  using TraceKind = Kind<protocol::TraceRequest, protocol::TraceResponse, TraceTuple>;

  /// Both kinds share one admission queue, so concurrent clients of
  /// either kind coalesce into one admission batch.
  using QueueEntry = std::variant<std::shared_ptr<ScalarKind::Pending>,
                                  std::shared_ptr<TraceKind::Pending>>;

  /// Suite index of `name`, or -1 when it is not a suite design.
  std::int32_t design_index(std::string_view name) const;
  Tuple canonicalize(const protocol::GuardbandRequest& request) const;
  TraceTuple canonicalize(const protocol::TraceRequest& request) const;
  /// The design, grade and ambient checks both kinds share.
  template <typename Request>
  std::optional<protocol::ErrorResponse> validate_common(const Request& request) const;
  std::optional<protocol::ErrorResponse> validate_request(
      const protocol::GuardbandRequest& request) const {
    return validate(request);
  }
  std::optional<protocol::ErrorResponse> validate_request(
      const protocol::TraceRequest& request) const {
    return validate_trace(request);
  }

  // The pipeline, once for both kinds.
  template <typename K>
  std::vector<typename K::Response> run_batch(
      K& kind, const std::vector<typename K::Request>& requests);
  template <typename K>
  void evaluate_group(K& kind, std::int32_t design, std::int64_t grade_mdeg,
                      const std::vector<typename K::Work>& items);
  template <typename K>
  typename K::Response submit(const typename K::Request& request);
  template <typename K>
  void admit(K& kind, const std::vector<std::shared_ptr<typename K::Pending>>& batch);
  template <typename K, typename Decode, typename Encode>
  std::string serve(std::string_view envelope, Decode decode, Encode encode);
  void admission_loop();

  // Per-kind group bodies: evaluate every item on one warm implementation
  // and fill its slot.
  void evaluate_items(const core::Implementation& impl, const coffe::DeviceModel& dev,
                      const std::vector<ScalarKind::Work>& items, runner::TaskMetrics& tm);
  void evaluate_items(const core::Implementation& impl, const coffe::DeviceModel& dev,
                      const std::vector<TraceKind::Work>& items, runner::TaskMetrics& tm);

  ServerConfig config_;
  std::vector<netlist::BenchmarkSpec> suite_;  // sorted by name
  std::unique_ptr<runner::ArtifactStore> store_;  // before cache_ (cache points at it)
  runner::FlowCache cache_;
  runner::ThreadPool pool_;

  ScalarKind scalar_{"guardband", "service-group"};
  TraceKind trace_{"guardband trace", "service-trace-group"};
  std::atomic<std::uint64_t> groups_evaluated_{0};
  std::atomic<std::uint64_t> batched_corners_{0};
  std::atomic<std::uint64_t> admission_batches_{0};
  std::atomic<std::uint64_t> errors_{0};

  std::mutex metrics_mutex_;
  std::vector<runner::TaskMetrics> metrics_;

  std::mutex admission_mutex_;
  std::condition_variable admission_cv_;
  std::deque<QueueEntry> admission_queue_;  // guarded by admission_mutex_
  bool stop_ = false;  // guarded by admission_mutex_
  std::thread admission_thread_;
};

}  // namespace taf::service
