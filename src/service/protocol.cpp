#include "service/protocol.hpp"

#include <cmath>
#include <set>

#include "util/json.hpp"
#include "util/table.hpp"

namespace isoee::service {

namespace {

using util::JsonValue;

[[noreturn]] void fail(ErrorCode code, const std::string& message) {
  throw RequestError(code, message);
}

/// Duplicate object keys are ambiguous (which one wins differs by parser), so
/// they are rejected anywhere in the document, not just where we look.
void reject_duplicate_keys(const JsonValue& v, const std::string& where) {
  if (v.is(JsonValue::Type::kObject)) {
    std::set<std::string> seen;
    for (const auto& [key, member] : v.object) {
      if (!seen.insert(key).second) {
        fail(ErrorCode::kInvalidRequest, "duplicate key '" + key + "' in " + where);
      }
      reject_duplicate_keys(member, where == "request" ? "'" + key + "'" : where);
    }
  } else if (v.is(JsonValue::Type::kArray)) {
    for (const JsonValue& item : v.array) reject_duplicate_keys(item, where);
  }
}

std::string render_id(const JsonValue& id) {
  switch (id.type) {
    case JsonValue::Type::kNull:
      return "null";
    case JsonValue::Type::kNumber:
      return json_num(id.number);
    case JsonValue::Type::kString:
      return util::json_quote(id.str);
    default:
      fail(ErrorCode::kInvalidRequest, "'id' must be a number, string, or null");
  }
}

double require_number(const JsonValue& params, const char* key) {
  const JsonValue* v = params.find(key);
  if (v == nullptr) fail(ErrorCode::kInvalidParams, std::string("missing param '") + key + "'");
  if (!v->is(JsonValue::Type::kNumber) || !std::isfinite(v->number)) {
    fail(ErrorCode::kInvalidParams, std::string("param '") + key + "' must be a finite number");
  }
  return v->number;
}

double optional_number(const JsonValue& params, const char* key, double fallback) {
  return params.find(key) != nullptr ? require_number(params, key) : fallback;
}

int require_int(const JsonValue& params, const char* key, long long lo, long long hi) {
  const double v = require_number(params, key);
  if (v != std::floor(v) || v < static_cast<double>(lo) || v > static_cast<double>(hi)) {
    fail(ErrorCode::kInvalidParams, std::string("param '") + key + "' must be an integer in [" +
                                        std::to_string(lo) + ", " + std::to_string(hi) + "]");
  }
  return static_cast<int>(v);
}

bool optional_bool(const JsonValue& params, const char* key, bool fallback) {
  const JsonValue* v = params.find(key);
  if (v == nullptr) return fallback;
  if (!v->is(JsonValue::Type::kBool)) {
    fail(ErrorCode::kInvalidParams, std::string("param '") + key + "' must be a boolean");
  }
  return v->boolean;
}

std::string require_string(const JsonValue& params, const char* key) {
  const JsonValue* v = params.find(key);
  if (v == nullptr) fail(ErrorCode::kInvalidParams, std::string("missing param '") + key + "'");
  if (!v->is(JsonValue::Type::kString)) {
    fail(ErrorCode::kInvalidParams, std::string("param '") + key + "' must be a string");
  }
  return v->str;
}

/// A positive problem-size / physical quantity.
double require_positive(const JsonValue& params, const char* key) {
  const double v = require_number(params, key);
  if (v <= 0.0) fail(ErrorCode::kInvalidParams, std::string("param '") + key + "' must be > 0");
  return v;
}

/// Request arrays are bounded: one request must stay one unit of work, not a
/// whole sweep (the admission controller budgets per request).
inline constexpr std::size_t kMaxArrayItems = 64;

std::vector<double> optional_number_array(const JsonValue& params, const char* key) {
  const JsonValue* v = params.find(key);
  if (v == nullptr) return {};
  if (!v->is(JsonValue::Type::kArray) || v->array.empty() || v->array.size() > kMaxArrayItems) {
    fail(ErrorCode::kInvalidParams, std::string("param '") + key +
                                        "' must be a non-empty array of at most " +
                                        std::to_string(kMaxArrayItems) + " numbers");
  }
  std::vector<double> out;
  out.reserve(v->array.size());
  for (const JsonValue& item : v->array) {
    if (!item.is(JsonValue::Type::kNumber) || !std::isfinite(item.number) || item.number <= 0.0) {
      fail(ErrorCode::kInvalidParams,
           std::string("param '") + key + "' items must be finite numbers > 0");
    }
    out.push_back(item.number);
  }
  return out;
}

std::vector<int> optional_int_array(const JsonValue& params, const char* key, long long hi) {
  std::vector<int> out;
  for (double v : optional_number_array(params, key)) {
    if (v != std::floor(v) || v > static_cast<double>(hi)) {
      fail(ErrorCode::kInvalidParams, std::string("param '") + key +
                                          "' items must be integers in [1, " +
                                          std::to_string(hi) + "]");
    }
    out.push_back(static_cast<int>(v));
  }
  return out;
}

/// Rejects any params member not in `allowed` — the typo'd-knob guard.
void restrict_params(const JsonValue& params, std::initializer_list<const char*> allowed) {
  for (const auto& [key, value] : params.object) {
    bool known = false;
    for (const char* a : allowed) known = known || key == a;
    if (!known) fail(ErrorCode::kInvalidParams, "unknown param '" + key + "'");
  }
}

Method parse_method(const std::string& name) {
  if (name == "predict") return Method::kPredict;
  if (name == "calibrate") return Method::kCalibrate;
  if (name == "optimize") return Method::kOptimize;
  if (name == "iso_contour") return Method::kIsoContour;
  if (name == "install") return Method::kInstall;
  if (name == "stats") return Method::kStats;
  if (name == "metrics") return Method::kMetrics;
  if (name == "shutdown") return Method::kShutdown;
  fail(ErrorCode::kUnknownMethod, "unknown method '" + name + "'");
}

}  // namespace

const char* error_code_name(ErrorCode code) {
  switch (code) {
    case ErrorCode::kParseError: return "parse_error";
    case ErrorCode::kInvalidRequest: return "invalid_request";
    case ErrorCode::kUnknownMethod: return "unknown_method";
    case ErrorCode::kInvalidParams: return "invalid_params";
    case ErrorCode::kUnknownMachine: return "unknown_machine";
    case ErrorCode::kUnknownApp: return "unknown_app";
    case ErrorCode::kNotCalibrated: return "not_calibrated";
    case ErrorCode::kOverloaded: return "overloaded";
    case ErrorCode::kSimFailed: return "sim_failed";
    case ErrorCode::kInternal: return "internal";
  }
  return "internal";
}

void append_json_num(std::string& out, double v) {
  if (std::isfinite(v)) {
    util::append_num17(out, v);
  } else {
    out += "null";
  }
}

std::string json_num(double v) {
  std::string out;
  append_json_num(out, v);
  return out;
}

Request parse_request(const std::string& line, std::string* id_json_out) {
  if (line.size() > kMaxLineBytes) {
    fail(ErrorCode::kInvalidRequest,
         "request line exceeds " + std::to_string(kMaxLineBytes) + " bytes");
  }
  JsonValue doc;
  try {
    doc = util::parse_json(line);
  } catch (const std::exception& e) {
    fail(ErrorCode::kParseError, e.what());
  }
  if (!doc.is(JsonValue::Type::kObject)) {
    fail(ErrorCode::kInvalidRequest, "request must be a JSON object");
  }
  reject_duplicate_keys(doc, "request");

  Request req;
  // Recover the id first: every later error can then still echo it.
  if (const JsonValue* id = doc.find("id")) {
    req.id_json = render_id(*id);
    if (id_json_out != nullptr) *id_json_out = req.id_json;
  }
  for (const auto& [key, value] : doc.object) {
    if (key != "id" && key != "method" && key != "params") {
      fail(ErrorCode::kInvalidRequest, "unknown request member '" + key + "'");
    }
  }
  const JsonValue* method = doc.find("method");
  if (method == nullptr || !method->is(JsonValue::Type::kString)) {
    fail(ErrorCode::kInvalidRequest, "request needs a string 'method' member");
  }
  req.method = parse_method(method->str);

  JsonValue empty_params;
  empty_params.type = JsonValue::Type::kObject;
  const JsonValue* params = doc.find("params");
  if (params == nullptr) {
    params = &empty_params;
  } else if (!params->is(JsonValue::Type::kObject)) {
    fail(ErrorCode::kInvalidRequest, "'params' must be an object");
  }

  switch (req.method) {
    case Method::kPredict:
      restrict_params(*params,
                      {"machine", "app", "n", "p", "f_ghz", "measured", "calibrated"});
      req.machine = require_string(*params, "machine");
      req.app = require_string(*params, "app");
      req.n = require_positive(*params, "n");
      req.p = require_int(*params, "p", 1, 1 << 20);
      req.f_ghz = optional_number(*params, "f_ghz", 0.0);
      req.measured = optional_bool(*params, "measured", false);
      req.calibrated = optional_bool(*params, "calibrated", false);
      break;
    case Method::kCalibrate:
      restrict_params(*params, {"machine", "app", "ns", "ps"});
      req.machine = require_string(*params, "machine");
      req.app = require_string(*params, "app");
      req.ns = optional_number_array(*params, "ns");
      req.ps = optional_int_array(*params, "ps", 1 << 20);
      break;
    case Method::kOptimize:
      restrict_params(*params, {"machine", "app", "n", "p", "objective", "f_ghz",
                                "calibrated", "cap_w", "deadline_s", "target_ee", "p_max",
                                "ps"});
      req.machine = require_string(*params, "machine");
      req.app = require_string(*params, "app");
      req.n = require_positive(*params, "n");
      req.objective = require_string(*params, "objective");
      req.f_ghz = optional_number(*params, "f_ghz", 0.0);
      req.calibrated = optional_bool(*params, "calibrated", false);
      req.ps = optional_int_array(*params, "ps", 1 << 20);
      if (req.objective == "min_time_under_cap") {
        req.cap_w = require_positive(*params, "cap_w");
      } else if (req.objective == "min_energy_under_deadline") {
        req.deadline_s = require_positive(*params, "deadline_s");
      } else if (req.objective == "max_p") {
        req.target_ee = require_positive(*params, "target_ee");
        req.p_max = params->find("p_max") != nullptr ? require_int(*params, "p_max", 1, 1 << 20)
                                                     : req.p_max;
      } else if (req.objective == "best_f_ee" || req.objective == "best_f_energy") {
        req.p = require_int(*params, "p", 1, 1 << 20);
      } else {
        fail(ErrorCode::kInvalidParams, "unknown objective '" + req.objective + "'");
      }
      break;
    case Method::kIsoContour:
      restrict_params(*params, {"machine", "app", "target_ee", "ps", "f_ghz", "calibrated",
                                "n_lo", "n_hi"});
      req.machine = require_string(*params, "machine");
      req.app = require_string(*params, "app");
      req.target_ee = require_positive(*params, "target_ee");
      req.ps = optional_int_array(*params, "ps", 1 << 20);
      req.f_ghz = optional_number(*params, "f_ghz", 0.0);
      req.calibrated = optional_bool(*params, "calibrated", false);
      req.n_lo = optional_number(*params, "n_lo", req.n_lo);
      req.n_hi = optional_number(*params, "n_hi", req.n_hi);
      if (req.n_lo <= 0.0 || req.n_hi <= req.n_lo) {
        fail(ErrorCode::kInvalidParams, "need 0 < n_lo < n_hi");
      }
      break;
    case Method::kInstall:
      // The serialized texts come verbatim from a calibrate response's
      // `machine_params` / `workload` members, so a client can persist a
      // calibration and re-install it into a fresh server (or, in the drift
      // tests, install a deliberately perturbed one).
      restrict_params(*params, {"machine", "app", "machine_params", "workload"});
      req.machine = require_string(*params, "machine");
      req.app = require_string(*params, "app");
      req.machine_params = require_string(*params, "machine_params");
      req.workload = require_string(*params, "workload");
      break;
    case Method::kStats:
    case Method::kMetrics:
    case Method::kShutdown:
      restrict_params(*params, {});
      break;
  }
  if (req.target_ee > 1.0) {
    fail(ErrorCode::kInvalidParams, "param 'target_ee' must be in (0, 1]");
  }
  if (req.f_ghz < 0.0 || req.f_ghz > 100.0) {
    fail(ErrorCode::kInvalidParams, "param 'f_ghz' must be in [0, 100]");
  }
  return req;
}

std::string render_ok(const std::string& id_json, const std::string& tier, bool coalesced,
                      const std::string& result_fragment) {
  return "{\"id\":" + id_json + ",\"ok\":true,\"tier\":\"" + tier +
         "\",\"coalesced\":" + (coalesced ? "true" : "false") +
         ",\"result\":" + result_fragment + "}";
}

std::string render_error(const std::string& id_json, ErrorCode code,
                         const std::string& message) {
  return "{\"id\":" + id_json + ",\"ok\":false,\"error\":{\"code\":\"" +
         error_code_name(code) + "\",\"message\":\"" + util::json_escape(message) + "\"}}";
}

}  // namespace isoee::service
