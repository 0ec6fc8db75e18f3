// A minimal JSON reader for the obs sinks (`rstp report` parsing its own
// JSONL output). Deliberately small: full JSON grammar, DOM-style values,
// no streaming, no external dependencies. Numbers keep their raw lexeme so
// 64-bit identities (seeds, counters) survive round trips that a
// double-only representation would corrupt.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "rstp/common/check.h"

namespace rstp::obs {

/// Thrown on malformed JSON input (a data error, not a contract violation).
class JsonParseError : public std::runtime_error {
 public:
  explicit JsonParseError(const std::string& what) : std::runtime_error(what) {}
};

class JsonValue {
 public:
  enum class Kind : std::uint8_t { Null, Bool, Number, String, Array, Object };

  Kind kind = Kind::Null;
  bool boolean = false;
  std::string text;  ///< String contents, or a Number's raw lexeme
  std::vector<JsonValue> items;
  std::vector<std::pair<std::string, JsonValue>> members;

  [[nodiscard]] bool is_object() const { return kind == Kind::Object; }

  /// Object member lookup; nullptr when absent or not an object.
  [[nodiscard]] const JsonValue* find(std::string_view key) const;
  /// The same, but a member of another kind than `want` is a JsonParseError
  /// naming the key.
  [[nodiscard]] const JsonValue* find(std::string_view key, Kind want) const;

  /// Numeric conversions; throw JsonParseError when the value is not a
  /// number of the requested shape.
  [[nodiscard]] double to_double() const;
  [[nodiscard]] std::int64_t to_i64() const;
  [[nodiscard]] std::uint64_t to_u64() const;

  /// Typed member readers: the fallback for an absent key, a
  /// JsonParseError naming the key for a value of another kind.
  [[nodiscard]] double number_or(std::string_view key, double fallback) const;
  [[nodiscard]] std::uint64_t u64_or(std::string_view key, std::uint64_t fallback) const;
  [[nodiscard]] std::int64_t i64_or(std::string_view key, std::int64_t fallback) const;
  [[nodiscard]] bool bool_or(std::string_view key, bool fallback) const;
  [[nodiscard]] std::string string_or(std::string_view key, std::string fallback) const;
};

/// Deepest array/object nesting parse_json accepts. The parser recurses once
/// per level, so external files must not choose the stack depth.
inline constexpr std::size_t kMaxJsonDepth = 256;

/// Parses one complete JSON document; throws JsonParseError with a byte
/// offset on malformed input (including trailing garbage and nesting deeper
/// than kMaxJsonDepth).
[[nodiscard]] JsonValue parse_json(std::string_view input);

/// Escapes a string for embedding in a JSON document (adds the quotes).
[[nodiscard]] std::string json_quote(std::string_view s);

/// Shortest decimal form of a double that round-trips exactly through
/// to_double() (std::to_chars shortest / std::from_chars).
[[nodiscard]] std::string json_number(double value);

}  // namespace rstp::obs
