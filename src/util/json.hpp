// Minimal JSON reader: just enough for trace files, metric snapshots and the
// service's request lines. It validates structure rather than trusting it.
// The string escaping every JSON writer here shares lives beside it.
#pragma once

#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace isoee::util {

/// Parsed JSON value (object keys keep file order; lookup via find()).
struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  /// Object member lookup; nullptr when absent or not an object.
  const JsonValue* find(std::string_view key) const;

  bool is(Type t) const { return type == t; }
};

/// Parses a complete JSON document; throws std::runtime_error with the byte
/// offset on malformed input.
JsonValue parse_json(std::string_view text);

/// `s` with quotes, backslashes and control bytes escaped for a JSON string.
std::string json_escape(std::string_view s);

/// `s` as a quoted, escaped JSON string literal.
std::string json_quote(std::string_view s);

}  // namespace isoee::util
