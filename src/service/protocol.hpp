#pragma once
// Wire protocol of the guardband service (DESIGN.md section 12).
//
// One request or response travels as one *frame*: a u32 little-endian
// byte count followed by exactly that many bytes of a util/codec.hpp
// envelope (magic, codec version, kind id, payload size, payload
// checksum). The envelope is the same armor the artifact store puts
// around on-disk artifacts, so every tamper mode the PR 5 corruption
// corpus exercises — truncation, bit flips, stale versions, foreign
// kinds — is detected before a single payload byte is interpreted.
// Payload layouts are versioned by codec::kVersion like any artifact;
// changing one means bumping the global version.
//
// Error handling contract (pinned by tests/test_service_fuzz.cpp): a
// malformed frame yields a typed kErrorResponseKind reply, never a crash,
// hang, or silent drop. Only a frame whose *length prefix* is oversized
// or truncated terminates the connection (the stream offers no way to
// resynchronize), and even then the peer is sent an error frame first.
//
// Determinism contract (pinned by tests/test_service.cpp): response
// bytes are a pure function of the request tuple. Responses carry the
// quantized tuple the server actually evaluated plus deterministic work
// counters — never wall-clock times, queue positions, or anything else
// an interleaving could perturb.

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/dynamic.hpp"

namespace taf::service::protocol {

/// Envelope kinds of the five frame types.
inline constexpr std::string_view kRequestKind = "guardband-request";
inline constexpr std::string_view kResponseKind = "guardband-response";
inline constexpr std::string_view kErrorKind = "error-response";
inline constexpr std::string_view kTraceRequestKind = "guardband-trace-request";
inline constexpr std::string_view kTraceResponseKind = "guardband-trace-response";

/// Hard ceiling on a frame's enveloped byte count. A length prefix above
/// this is rejected before any allocation (the oversized-frame fuzz
/// case); real frames are a few hundred bytes.
inline constexpr std::uint32_t kMaxFrameBytes = 1u << 20;

/// Bytes of the length prefix itself.
inline constexpr std::size_t kFramePrefixBytes = 4;

/// One device-instance query: "what fmax/guardband is safe for my grade,
/// ambient, and activity right now". The server quantizes grade and
/// ambient to millidegrees (FlowCache::quantize_t_opt) and the activity
/// scale to permille before evaluating, so nearby doubles collapse onto
/// one cached tuple.
struct GuardbandRequest {
  std::uint64_t request_id = 0;  ///< echoed verbatim in the response
  std::string design;            ///< VTR suite benchmark name
  double grade_t_opt_c = 25.0;   ///< device grade (design corner T_opt)
  double ambient_c = 25.0;       ///< this instance's ambient right now
  double activity_scale = 1.0;   ///< multiplier on the power/activity model
};

/// The thermal-aware operating point for one request tuple. Every field
/// except request_id is a pure function of the quantized tuple.
struct GuardbandResponse {
  std::uint64_t request_id = 0;
  std::string design;
  std::int64_t grade_mdeg = 0;      ///< quantized grade actually evaluated
  std::int64_t ambient_mdeg = 0;    ///< quantized ambient actually evaluated
  std::int64_t activity_permille = 1000;  ///< quantized activity actually evaluated
  double fmax_mhz = 0.0;            ///< thermal-aware frequency (margin applied)
  double baseline_fmax_mhz = 0.0;   ///< conventional worst-case-corner frequency
  double margin_c = 0.0;            ///< delta-T margin baked into fmax_mhz
  double peak_temp_c = 0.0;
  double mean_temp_c = 0.0;
  std::int32_t iterations = 0;      ///< Algorithm 1 iterations
  std::uint8_t converged = 0;       ///< 1 when the loop reached its fixed point
  // Algorithm 1 loop work (deterministic counters, not wall time).
  std::uint64_t edges_reevaluated = 0;
  std::uint64_t delay_cache_hits = 0;
  /// core::GuardbandStats::cg_iterations: iteration 1's solve starts
  /// from its superposed answer, so a one-iteration run reports ~0.
  std::uint64_t cg_iterations = 0;
};

/// Trace query (the guardband_trace kind): "replay this activity trace
/// on my design and tell me the time-resolved safe fmax". The trace is a
/// whole-device utilization schedule (exactly one block on the wire) and
/// is taken verbatim — unlike the scalar tuple fields it is not
/// quantized; its canonical serialized bytes key the response cache.
struct TraceRequest {
  std::uint64_t request_id = 0;  ///< echoed verbatim in the response
  std::string design;
  double grade_t_opt_c = 25.0;
  double ambient_c = 25.0;
  /// Temperature/fmax samples per trace segment (domain [1, 16]).
  std::int32_t samples_per_segment = 4;
  core::ActivityTrace trace;
};

/// One recorded instant of the replay (core::DynamicSample on the wire).
struct TraceSamplePoint {
  double time_s = 0.0;
  double peak_temp_c = 0.0;
  double mean_temp_c = 0.0;
  double fmax_mhz = 0.0;
  std::uint8_t throttled = 0;
};

/// Time series + aggregates of one trace replay. Every field except
/// request_id is a pure function of (design, quantized grade/ambient,
/// samples_per_segment, trace bytes) — the same determinism contract as
/// GuardbandResponse, with deterministic transient work counters.
struct TraceResponse {
  std::uint64_t request_id = 0;
  std::string design;
  std::int64_t grade_mdeg = 0;
  std::int64_t ambient_mdeg = 0;
  std::int32_t samples_per_segment = 0;
  double min_fmax_mhz = 0.0;   ///< sustained safe frequency over the replay
  double peak_temp_c = 0.0;    ///< hottest instant of the replay
  double throttled_s = 0.0;    ///< dwell above the throttle ceiling
  std::uint64_t transient_steps = 0;
  std::uint64_t cg_iterations = 0;
  std::vector<TraceSamplePoint> samples;
};

/// Typed failure reply. `code` is stable for programmatic handling;
/// `message` is diagnostic only.
struct ErrorResponse {
  enum Code : std::uint32_t {
    kMalformedFrame = 1,   ///< envelope/payload failed to decode
    kUnknownDesign = 2,    ///< design name not in the suite
    kBadParameter = 3,     ///< non-finite / out-of-domain request field
    kInternal = 4,         ///< evaluation threw
  };
  std::uint64_t request_id = 0;  ///< 0 when the request never decoded
  std::uint32_t code = kInternal;
  std::string message;
};

// Envelope (frame body) encode/decode. Decoders throw util::codec::Error
// on any malformation; encode -> decode -> encode is byte-identical.
std::string encode_request(const GuardbandRequest& req);
GuardbandRequest decode_request(std::string_view envelope);
std::string encode_response(const GuardbandResponse& resp);
GuardbandResponse decode_response(std::string_view envelope);
std::string encode_error(const ErrorResponse& err);
ErrorResponse decode_error(std::string_view envelope);
std::string encode_trace_request(const TraceRequest& req);
TraceRequest decode_trace_request(std::string_view envelope);
std::string encode_trace_response(const TraceResponse& resp);
TraceResponse decode_trace_response(std::string_view envelope);

/// Kind id peeked from an envelope header, or 0 when the header is too
/// short — the cheap frame-classification peek (does not validate).
std::uint64_t envelope_kind(std::string_view envelope);

/// True when the envelope's kind field says kErrorKind.
bool is_error_envelope(std::string_view envelope);

/// True when the envelope's kind field says kTraceRequestKind — how the
/// server dispatches a payload between the two request decoders.
bool is_trace_request_envelope(std::string_view envelope);

/// Prepend the u32 length prefix. Throws std::length_error above
/// kMaxFrameBytes (a server bug, not a peer error).
std::string frame(std::string_view envelope);

/// Incremental frame deassembler for a byte stream: feed() arbitrary
/// chunks, take complete envelopes out in order. A length prefix of zero
/// or above kMaxFrameBytes poisons the stream (error() becomes non-null
/// and feed() rejects further bytes) — the caller replies with a typed
/// error and closes, since an unframed stream cannot resynchronize.
class FrameReader {
 public:
  /// Append bytes from the stream. Returns false when poisoned.
  bool feed(std::string_view bytes);
  /// Pop the next complete envelope, if any.
  std::optional<std::string> next();
  /// Non-null diagnostic once the stream is poisoned.
  const char* error() const { return error_; }
  /// Bytes buffered but not yet consumed as frames.
  std::size_t pending_bytes() const { return buf_.size(); }

 private:
  std::string buf_;
  const char* error_ = nullptr;
};

}  // namespace taf::service::protocol
