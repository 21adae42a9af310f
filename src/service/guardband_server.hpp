#pragma once
// Long-lived guardband service (ROADMAP item 1; DESIGN.md section 12).
//
// A GuardbandServer owns the warm state of the flow — a FlowCache (with
// an optional on-disk ArtifactStore tier) and a work-stealing ThreadPool
// — and answers fleet queries "what fmax/guardband is safe for my grade,
// ambient, and activity right now" (protocol.hpp).
//
// Request path:
//   handle() --> admission queue --> admission thread drains a batch -->
//   handle_batch() --> canonicalize tuples --> build-once response slots
//   --> uncached tuples grouped by (design, grade) --> groups fan out on
//   the ThreadPool --> each group evaluates its ambient/activity corners
//   through core::guardband_batch() on one warm implementation (the
//   corners of a chunk share one blocked stencil traversal per thermal
//   solve) --> responses assembled in request order.
//
// Determinism: a response's bytes (minus the echoed request_id) are a
// pure function of the quantized request tuple. Tuples are canonicalized
// before evaluation (grade/ambient to millidegrees, activity to
// permille), every tuple is evaluated exactly once (build-once slots, as
// in FlowCache), and core::guardband_batch() is bit-identical to
// per-corner guardband() whatever the batch composition — so admission
// batching, pool size, and client interleaving cannot leak into response
// bytes. tests/test_service.cpp pins concurrent == serial replay.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "arch/arch_params.hpp"
#include "core/flow.hpp"
#include "netlist/benchmarks.hpp"
#include "runner/artifact_store.hpp"
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
  /// Max requests drained per admission batch.
  std::size_t max_admission = 256;
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
  /// Canonical (quantized) form of a request tuple.
  struct Tuple {
    std::string design;
    std::int64_t grade_mdeg = 0;
    std::int64_t ambient_mdeg = 0;
    std::int64_t activity_permille = 1000;
  };
  static Tuple canonicalize(const protocol::GuardbandRequest& request);
  static std::uint64_t tuple_key(const Tuple& t);

  /// Build-once response slot (the FlowCache Slot pattern).
  struct ResponseSlot {
    std::mutex mutex;
    std::condition_variable ready_cv;
    bool ready = false;            // guarded by mutex
    std::exception_ptr error;      // guarded by mutex
    protocol::GuardbandResponse value;  // written once before ready
  };

  /// Canonical form of a trace request: quantized scalars plus the
  /// trace's canonical serialized payload bytes (f64s are bit-exact
  /// through the codec, so re-encoding the decoded trace is canonical).
  struct TraceTuple {
    std::string design;
    std::int64_t grade_mdeg = 0;
    std::int64_t ambient_mdeg = 0;
    std::int32_t samples_per_segment = 0;
    std::string trace_payload;
  };
  static TraceTuple canonicalize_trace(const protocol::TraceRequest& request);
  static std::uint64_t trace_tuple_key(const TraceTuple& t);

  struct TraceSlot {
    std::mutex mutex;
    std::condition_variable ready_cv;
    bool ready = false;            // guarded by mutex
    std::exception_ptr error;      // guarded by mutex
    protocol::TraceResponse value;  // written once before ready
  };

  /// One admission-queue entry; either a scalar or a trace query (the
  /// two kinds coalesce into the same admission batches and are split by
  /// kind when the batch is drained).
  struct PendingRequest {
    bool is_trace = false;
    protocol::GuardbandRequest request;          // valid when !is_trace
    protocol::TraceRequest trace_request;        // valid when is_trace
    protocol::GuardbandResponse response;
    protocol::TraceResponse trace_response;
    std::exception_ptr error;
    bool done = false;  // guarded by mutex
    std::mutex mutex;
    std::condition_variable done_cv;
  };

  struct TraceWork {
    TraceTuple tuple;
    const protocol::TraceRequest* request = nullptr;
    TraceSlot* slot = nullptr;
  };

  void admission_loop();
  void evaluate_group(const std::string& design, std::int64_t grade_mdeg,
                      const std::vector<std::pair<Tuple, ResponseSlot*>>& tuples);
  void evaluate_trace_group(const std::string& design, std::int64_t grade_mdeg,
                            const std::vector<TraceWork>& items);
  std::string serve_trace_payload(std::string_view envelope);
  static void fill_slot(ResponseSlot& slot, protocol::GuardbandResponse value);
  static void fail_slot(ResponseSlot& slot, std::exception_ptr error);

  ServerConfig config_;
  std::unordered_map<std::string, netlist::BenchmarkSpec> suite_;
  std::unique_ptr<runner::ArtifactStore> store_;  // before cache_ (cache points at it)
  runner::FlowCache cache_;
  runner::ThreadPool pool_;

  std::mutex slots_mutex_;  // guards the two slot maps' structure only
  std::unordered_map<std::uint64_t, std::unique_ptr<ResponseSlot>> slots_;
  std::unordered_map<std::uint64_t, std::unique_ptr<TraceSlot>> trace_slots_;

  std::mutex metrics_mutex_;
  std::vector<runner::TaskMetrics> metrics_;

  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> tuple_hits_{0};
  std::atomic<std::uint64_t> tuples_evaluated_{0};
  std::atomic<std::uint64_t> groups_evaluated_{0};
  std::atomic<std::uint64_t> batched_corners_{0};
  std::atomic<std::uint64_t> admission_batches_{0};
  std::atomic<std::uint64_t> errors_{0};
  std::atomic<std::uint64_t> trace_requests_{0};
  std::atomic<std::uint64_t> trace_hits_{0};
  std::atomic<std::uint64_t> traces_evaluated_{0};

  std::mutex admission_mutex_;
  std::condition_variable admission_cv_;
  std::deque<std::shared_ptr<PendingRequest>> admission_queue_;  // guarded by admission_mutex_
  bool stop_ = false;  // guarded by admission_mutex_
  std::thread admission_thread_;
};

}  // namespace taf::service
