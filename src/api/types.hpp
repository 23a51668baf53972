#pragma once

// hdface::api value types — the one request/response schema shared by
// one-shot Detector::detect calls, batched scans, and the serving layer
// (serve/server.hpp).
//
// The redesign (PR 6) routes every execution mode through the same three
// types:
//
//   api::Request  — what to scan (scene + DetectOptions + routing ids)
//   api::Response — the detections plus per-stage timing
//   api::Error    — a typed, code-carrying failure (admission rejections,
//                   invalid options, execution faults)
//
// plus api::Outcome<T>, a minimal value-or-Error carrier (std::expected is
// C++23; this repository builds as C++20). Errors are values, not
// exceptions, on every serving path — a malformed request must never take
// down a worker. The legacy convenience wrappers
// (Detector::detect(scene, options)) throw api::InvalidOptionsError, which
// derives from std::invalid_argument so pre-redesign callers keep working.

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "image/image.hpp"
#include "noise/fault_model.hpp"
#include "pipeline/cascade_types.hpp"
#include "pipeline/detection.hpp"
#include "pipeline/encode_mode.hpp"

namespace hdface::core {
struct OpCounter;
}

namespace hdface::api {

// ---------------------------------------------------------------------------
// Errors

enum class ErrorCode : std::uint8_t {
  kOk = 0,
  // DetectOptions failed validate(): empty scales, scale outside (0,1],
  // stride 0, non-finite thresholds, a positive_class outside the model's
  // classes, or a scene smaller than the window.
  kInvalidOptions,
  // Admission control: the bounded request queue is at capacity. The caller
  // should back off and retry (the serving layer's backpressure signal).
  kQueueFull,
  // Admission control: the request's tenant already has its configured
  // maximum number of requests in flight.
  kTenantOverLimit,
  // The server is shutting down and no longer admits requests.
  kShutdown,
  // Execution raised an unexpected exception; message carries what().
  kInternal,
};

constexpr std::string_view error_code_name(ErrorCode c) {
  switch (c) {
    case ErrorCode::kOk: return "ok";
    case ErrorCode::kInvalidOptions: return "invalid_options";
    case ErrorCode::kQueueFull: return "queue_full";
    case ErrorCode::kTenantOverLimit: return "tenant_over_limit";
    case ErrorCode::kShutdown: return "shutdown";
    case ErrorCode::kInternal: return "internal";
  }
  return "unknown";
}

struct Error {
  ErrorCode code = ErrorCode::kOk;
  std::string message;

  bool ok() const { return code == ErrorCode::kOk; }

  static Error invalid_options(std::string msg) {
    return {ErrorCode::kInvalidOptions, std::move(msg)};
  }
  static Error queue_full(std::string msg) {
    return {ErrorCode::kQueueFull, std::move(msg)};
  }
  static Error tenant_over_limit(std::string msg) {
    return {ErrorCode::kTenantOverLimit, std::move(msg)};
  }
  static Error shutdown(std::string msg) {
    return {ErrorCode::kShutdown, std::move(msg)};
  }
  static Error internal(std::string msg) {
    return {ErrorCode::kInternal, std::move(msg)};
  }
};

// Exception form of a kInvalidOptions Error, thrown by the legacy
// convenience wrappers. Derives from std::invalid_argument — the exception
// those wrappers threw before the redesign — so existing catch sites and
// tests keep working.
class InvalidOptionsError : public std::invalid_argument {
 public:
  explicit InvalidOptionsError(Error error)
      : std::invalid_argument(error.message), error_(std::move(error)) {}
  const Error& error() const { return error_; }

 private:
  Error error_;
};

// ---------------------------------------------------------------------------
// Outcome<T> — value or Error

template <typename T>
class Outcome {
 public:
  Outcome(T value) : value_(std::move(value)) {}  // NOLINT(google-explicit-constructor)
  Outcome(Error error) : error_(std::move(error)) {  // NOLINT(google-explicit-constructor)
    if (error_.ok()) {
      throw std::logic_error("api::Outcome: error-state Outcome with code kOk");
    }
  }

  bool ok() const { return value_.has_value(); }
  explicit operator bool() const { return ok(); }

  const T& value() const& { return checked(); }
  T& value() & {
    checked();
    return *value_;
  }
  T&& take() && {
    checked();
    return std::move(*value_);
  }
  // kOk when ok() — callers can always log error().code.
  const Error& error() const { return error_; }

 private:
  const T& checked() const {
    if (!value_) {
      throw std::logic_error("api::Outcome: value() on error outcome: " +
                             error_.message);
    }
    return *value_;
  }

  std::optional<T> value_;
  Error error_;
};

// ---------------------------------------------------------------------------
// Telemetry

// Optional observability sinks for one detect call.
//
// Lifetime contract: every sink must stay alive until the detect call
// returns — for served requests, until the response future resolves. Sinks
// receive exact merged shard totals after the scan (identical at any thread
// count). A sink must not be shared by two requests that can be in flight
// concurrently: the post-scan merge into the sink is not synchronized.
struct Telemetry {
  // Feature-op accounting (exact totals at any thread count).
  core::OpCounter* feature_ops = nullptr;
  // Cell-plane cache accounting (untouched in kPerWindow mode).
  pipeline::EncodeCacheStats* encode_cache = nullptr;
  // Cascade stage accounting (untouched unless the call runs a calibrated
  // cascade): per-stage entered/rejected counts plus exact-scored survivors,
  // merged from per-chunk shards — exact at any thread count.
  pipeline::CascadeStats* cascade = nullptr;
  // Per-pyramid-level cascade stage accounting: one entry per kept scale in
  // pyramid order. Only filled by multiscale cascaded scans.
  std::vector<pipeline::CascadeStats>* cascade_per_scale = nullptr;
};

// ---------------------------------------------------------------------------
// DetectOptions

// Per-call scan options. The defaults reproduce the seed's behavior: native
// scale, stride 8, no NMS — but batched across all cores. Validated by
// api::validate(); the Request path returns a typed kInvalidOptions Error,
// the legacy wrappers throw InvalidOptionsError.
struct DetectOptions {
  // Worker threads for the batched engine. 0 = all hardware cores,
  // 1 = serial. Results are bit-identical at every setting (see
  // pipeline/parallel_detect.hpp for the determinism contract).
  std::size_t threads = 0;
  // Window step in pixels (at window resolution for multiscale scans).
  std::size_t stride = 8;
  // Pyramid scales in (0, 1]; {1.0} = single-scale.
  std::vector<double> scales = {1.0};
  // Greedy non-maximum suppression over the resulting boxes. Off by default:
  // the raw map view (one entry per window) is the paper's Fig 6 artifact.
  bool nms = false;
  double nms_iou = 0.3;
  // Minimum positive-class cosine for a window to become a detection box.
  double score_threshold = 0.0;
  // Class treated as "detection" in binary workloads.
  int positive_class = 1;
  // Encode strategy for the batched engine. kPerWindow (default) reproduces
  // the engine's historical bit streams exactly; kCellPlane computes the
  // per-pixel stochastic chain once per scene cell and assembles windows from
  // the cache — roughly (window/stride)²-cheaper on the encode stage, still
  // bit-identical at every thread count, but a (deterministically) different
  // random stream than kPerWindow. Requires an HD-HOG pipeline.
  pipeline::EncodeMode encode_mode = pipeline::EncodeMode::kPerWindow;
  // Cell-plane population strategy for kCellPlane scans (ignored by
  // kPerWindow). kEager (default) builds the whole scene plane before
  // scanning; kLazy materializes each cell on its first window read — the
  // DetectionMap is bit-identical (every cell reseeds from the same pure
  // per-cell key), and with a prescreen-carrying calibrated cascade most
  // cells of a sparse scene are never encoded at all. validate() rejects
  // kLazy without kCellPlane.
  pipeline::PlaneMode plane_mode = pipeline::PlaneMode::kEager;
  // Observability sinks for this call (see Telemetry for the lifetime
  // contract).
  std::optional<Telemetry> telemetry;
  // Fault-injection plan for robustness studies. When set, the scan runs
  // against a detector whose stored hypervector memories (item memories,
  // mask pool, binarized prototypes) carry the plan's sampled faults: a
  // private faulted copy of the model (pipeline::faulted_copy), so the
  // shared model is never written and concurrent scans never see the faults.
  // Query-plane faults are applied in flight per window; a query-only plan
  // makes no copy. Note: when the plan targets prototypes, inference
  // switches to the binary Hamming path even at rate 0 (clean-baseline cells
  // of a sweep stay comparable to faulted ones). validate() rejects a rate
  // outside [0, 1] (NaN included).
  std::optional<noise::FaultPlan> fault_plan;
  // Early-reject similarity cascade (pipeline/cascade.hpp). kExact (the
  // default-constructed mode) bypasses the stages entirely — the scan runs
  // the pre-cascade path untouched and stays bit-identical to it. kCalibrated
  // scores every window through the table's calibrated prefix stages and
  // escalates only survivors to the exact full-D path; survivor results are
  // bit-identical to an exact scan. Calibrated mode requires
  // encode_mode == kCellPlane (the per-window encode has no cheap prefix), a
  // table whose positive_class matches this call's, and no fault_plan —
  // validate() rejects those combinations with typed errors, along with
  // tables pipeline::cascade_table_error rejects (no stages, stage or
  // prescreen words past ceil(dim / 64), non-finite thresholds, ...).
  std::optional<pipeline::CascadeConfig> cascade;
};

// Fail-fast options validation: empty scales, scale outside (0,1], stride 0,
// non-finite nms_iou/score_threshold, a fault_plan rate outside [0, 1] (NaN
// included) — plus the cross-field contracts the engine would otherwise only
// trip deep inside a scan: a calibrated cascade without kCellPlane, with a
// fault_plan, with a positive_class mismatched against its table, or with a
// table that pipeline::cascade_table_error rejects. Returns nullopt when the
// options are usable.
// It cannot see a model, so Detector runs it inside its own check, which
// adds the positive_class range; that check serves the Request path (typed
// Error), the legacy wrappers (InvalidOptionsError) and serving admission
// (rejected before queueing).
std::optional<Error> validate(const DetectOptions& options);

// ---------------------------------------------------------------------------
// Request / Response

struct Request {
  // Caller-chosen correlation id, echoed on the Response. The load
  // generator uses the request index; the serving layer never interprets it.
  std::uint64_t id = 0;
  // Tenant for per-tenant admission caps (serve::ServerConfig).
  std::uint32_t tenant = 0;
  image::Image scene;
  DetectOptions options;
};

// Per-stage latency of one served request, nanoseconds. Filled by the
// serving layer (the synchronous Detector::detect(Request) wrapper leaves it
// zero — the facade never reads clocks; see tools/hdlint wall-clock rule).
struct StageNanos {
  std::uint64_t queue_wait = 0;  // admission → dequeue
  std::uint64_t execute = 0;     // dequeue → detections ready
  std::uint64_t total = 0;       // admission → response ready
};

struct Response {
  std::uint64_t id = 0;       // echoed Request::id
  std::uint32_t tenant = 0;   // echoed Request::tenant
  // Boxes after scale merge (and NMS when enabled), sorted by descending
  // score — exactly what Detector::detect(scene, options) returns for the
  // same (scene, options): served execution is bit-identical to direct
  // calls.
  std::vector<pipeline::Detection> detections;
  StageNanos timing;
};

}  // namespace hdface::api
