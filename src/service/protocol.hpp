// Wire protocol of the what-if query service: line-delimited JSON requests
// and responses.
//
// One request per line:
//
//   {"id": 7, "method": "predict",
//    "params": {"machine": "system_g", "app": "FT", "n": 4.2e6, "p": 16}}
//
// and one response line per request:
//
//   {"id":7,"ok":true,"tier":"model","coalesced":false,"result":{...}}
//   {"id":7,"ok":false,"error":{"code":"invalid_params","message":"..."}}
//
// Parsing is deliberately strict — unknown top-level keys, unknown params,
// duplicate keys anywhere in the document, wrong types, and out-of-range
// values are all structured errors, never best-effort guesses. Strictness is
// what makes the parser fuzzable: every malformed input must map to exactly
// one deterministic error response (the tier-1 fuzz suite asserts this), and
// a typo'd parameter name can never silently fall back to a default.
//
// Responses are rendered with fixed field order and %.17g numbers, so a
// response is byte-identical across reruns, host-thread interleavings, and
// --jobs settings whenever the underlying answer is (the executor's
// determinism contract makes it so for every tier).
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace isoee::service {

/// Structured error taxonomy; `code` strings are part of the wire protocol.
enum class ErrorCode {
  kParseError,      // line is not a JSON document
  kInvalidRequest,  // JSON, but not a valid request envelope
  kUnknownMethod,
  kInvalidParams,   // unknown/missing/mistyped/out-of-range parameter
  kUnknownMachine,
  kUnknownApp,
  kNotCalibrated,   // app has no fitted model and none was calibrated
  kOverloaded,      // admission controller rejected the simulation
  kSimFailed,       // the backing simulation threw
  kInternal,
};

const char* error_code_name(ErrorCode code);

/// Thrown by parsing/validation/handling; rendered as the error response.
class RequestError : public std::runtime_error {
 public:
  RequestError(ErrorCode code, const std::string& message)
      : std::runtime_error(message), code_(code) {}
  ErrorCode code() const { return code_; }

 private:
  ErrorCode code_;
};

enum class Method {
  kPredict,
  kCalibrate,
  kOptimize,
  kIsoContour,
  kInstall,  // install a serialized (machine_params, workload) calibration
  kStats,
  kMetrics,  // full metrics-registry snapshot as a JSON object
  kShutdown,
};

/// A validated request. Every field is either present-and-validated or holds
/// its documented default; handlers never re-check types or ranges.
struct Request {
  /// The request's `id` member, pre-rendered as a JSON fragment for the
  /// response echo ("null" when absent; numbers %.17g; strings escaped).
  std::string id_json = "null";

  Method method = Method::kPredict;

  // Common operand set (validated per method).
  std::string machine;             // "system_g" | "dori"
  std::string app;                 // "EP" | "FT" | "CG" | "IS" | "MG" | "CKPT" | "SWEEP"
  double n = 0.0;                  // problem size (> 0)
  int p = 1;                       // processors (>= 1)
  double f_ghz = 0.0;              // 0 = machine base frequency
  bool measured = false;           // predict: full simulation instead of the model
  bool calibrated = false;         // predict/optimize/iso_contour: use fitted state
  std::vector<double> ns;          // calibrate: problem sizes (p=1 sweep)
  std::vector<int> ps;             // calibrate/optimize/iso_contour: processor counts
  std::string objective;           // optimize: see docs/SERVICE.md
  std::string machine_params;      // install: model::serialize(MachineParams) text
  std::string workload;            // install: model::serialize(WorkloadModel) text
  double cap_w = 0.0;              // optimize "min_time_under_cap"
  double deadline_s = 0.0;         // optimize "min_energy_under_deadline"
  double target_ee = 0.0;          // optimize "max_p" / iso_contour
  int p_max = 1024;                // optimize "max_p"
  double n_lo = 1e2;               // iso_contour bisection bracket
  double n_hi = 1e10;
};

/// Longest accepted request line; longer input is an invalid_request (a bound
/// the fuzzer exercises — unbounded lines would let one client OOM the
/// server).
inline constexpr std::size_t kMaxLineBytes = 64 * 1024;

/// Parses and validates one request line. Throws RequestError on any problem;
/// when the envelope carried a usable `id`, it is preserved in the error via
/// `id_json_out` so the error response still correlates.
Request parse_request(const std::string& line, std::string* id_json_out = nullptr);

/// A double as a JSON number, null if not finite. Finite values print as
/// printf's %.17g does (17 significant digits reparse to the same bits), but
/// through util::append_num17's std::to_chars, about 4x cheaper per number
/// than snprintf; a 64-p iso_contour reply carries 192 of them.
std::string json_num(double v);

/// json_num appended to `out`, for renderers that build one reply string.
void append_json_num(std::string& out, double v);

/// `{"id":<id>,"ok":true,"tier":"<tier>","coalesced":<b>,"result":<fragment>}`
std::string render_ok(const std::string& id_json, const std::string& tier, bool coalesced,
                      const std::string& result_fragment);

/// `{"id":<id>,"ok":false,"error":{"code":"...","message":"..."}}`
std::string render_error(const std::string& id_json, ErrorCode code,
                         const std::string& message);

}  // namespace isoee::service
