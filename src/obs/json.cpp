#include "rstp/obs/json.h"

#include <cctype>
#include <charconv>
#include <cstdint>
#include <sstream>
#include <string>

namespace rstp::obs {

namespace {

class Parser {
 public:
  explicit Parser(std::string_view input) : input_(input) {}

  JsonValue parse_document() {
    JsonValue value = parse_value();
    skip_ws();
    if (pos_ != input_.size()) fail("trailing characters after JSON document");
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& message) const {
    std::ostringstream os;
    os << "JSON parse error at byte " << pos_ << ": " << message;
    throw JsonParseError(os.str());
  }

  void skip_ws() {
    while (pos_ < input_.size() &&
           (input_[pos_] == ' ' || input_[pos_] == '\t' || input_[pos_] == '\n' ||
            input_[pos_] == '\r')) {
      ++pos_;
    }
  }

  [[nodiscard]] char peek() {
    if (pos_ >= input_.size()) fail("unexpected end of input");
    return input_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string{"expected '"} + c + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view literal) {
    if (input_.substr(pos_, literal.size()) != literal) return false;
    pos_ += literal.size();
    return true;
  }

  JsonValue parse_value() {
    skip_ws();
    const char c = peek();
    switch (c) {
      case '{':
      case '[': {
        // A failed parse is abandoned whole, so only success unwinds depth_.
        if (++depth_ > kMaxJsonDepth) {
          fail("nesting deeper than " + std::to_string(kMaxJsonDepth) + " levels");
        }
        JsonValue v = c == '{' ? parse_object() : parse_array();
        --depth_;
        return v;
      }
      case '"': {
        JsonValue v;
        v.kind = JsonValue::Kind::String;
        v.text = parse_string();
        return v;
      }
      case 't': {
        if (!consume_literal("true")) fail("invalid literal");
        JsonValue v;
        v.kind = JsonValue::Kind::Bool;
        v.boolean = true;
        return v;
      }
      case 'f': {
        if (!consume_literal("false")) fail("invalid literal");
        JsonValue v;
        v.kind = JsonValue::Kind::Bool;
        v.boolean = false;
        return v;
      }
      case 'n': {
        if (!consume_literal("null")) fail("invalid literal");
        return JsonValue{};
      }
      default:
        return parse_number();
    }
  }

  JsonValue parse_object() {
    expect('{');
    JsonValue v;
    v.kind = JsonValue::Kind::Object;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      v.members.emplace_back(std::move(key), parse_value());
      skip_ws();
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == '}') {
        ++pos_;
        return v;
      }
      fail("expected ',' or '}' in object");
    }
  }

  JsonValue parse_array() {
    expect('[');
    JsonValue v;
    v.kind = JsonValue::Kind::Array;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.items.push_back(parse_value());
      skip_ws();
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == ']') {
        ++pos_;
        return v;
      }
      fail("expected ',' or ']' in array");
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= input_.size()) fail("unterminated string");
      const char c = input_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= input_.size()) fail("unterminated escape");
      const char e = input_[pos_++];
      switch (e) {
        case '"':
        case '\\':
        case '/':
          out.push_back(e);
          break;
        case 'b':
          out.push_back('\b');
          break;
        case 'f':
          out.push_back('\f');
          break;
        case 'n':
          out.push_back('\n');
          break;
        case 'r':
          out.push_back('\r');
          break;
        case 't':
          out.push_back('\t');
          break;
        case 'u': {
          const auto hex4 = [&]() -> std::uint32_t {
            if (pos_ + 4 > input_.size()) fail("truncated \\u escape");
            unsigned code = 0;
            const auto [ptr, ec] =
                std::from_chars(input_.data() + pos_, input_.data() + pos_ + 4, code, 16);
            if (ec != std::errc{} || ptr != input_.data() + pos_ + 4) fail("bad \\u escape");
            pos_ += 4;
            return code;
          };
          std::uint32_t code = hex4();
          // UTF-16 escapes: D800-DBFF/DC00-DFFF must come as a pair and
          // combine into one supplementary code point. Emitting a raw
          // surrogate as a 3-byte sequence would be invalid UTF-8.
          if (code >= 0xDC00 && code <= 0xDFFF) fail("lone low surrogate in \\u escape");
          if (code >= 0xD800 && code <= 0xDBFF) {
            if (pos_ + 2 > input_.size() || input_[pos_] != '\\' || input_[pos_ + 1] != 'u') {
              fail("high surrogate must be followed by a \\u low surrogate");
            }
            pos_ += 2;
            const std::uint32_t low = hex4();
            if (low < 0xDC00 || low > 0xDFFF) {
              fail("high surrogate must be followed by a low surrogate");
            }
            code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
          }
          // The sinks only emit ASCII; decode the code point as UTF-8.
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else if (code < 0x10000) {
            out.push_back(static_cast<char>(0xE0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xF0 | (code >> 18)));
            out.push_back(static_cast<char>(0x80 | ((code >> 12) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default:
          fail("unknown escape");
      }
    }
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (pos_ < input_.size() && input_[pos_] == '-') ++pos_;
    const auto digits = [&] {
      std::size_t n = 0;
      while (pos_ < input_.size() && std::isdigit(static_cast<unsigned char>(input_[pos_]))) {
        ++pos_;
        ++n;
      }
      return n;
    };
    if (digits() == 0) fail("expected a number");
    if (pos_ < input_.size() && input_[pos_] == '.') {
      ++pos_;
      if (digits() == 0) fail("expected digits after decimal point");
    }
    if (pos_ < input_.size() && (input_[pos_] == 'e' || input_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < input_.size() && (input_[pos_] == '+' || input_[pos_] == '-')) ++pos_;
      if (digits() == 0) fail("expected digits in exponent");
    }
    JsonValue v;
    v.kind = JsonValue::Kind::Number;
    v.text = std::string{input_.substr(start, pos_ - start)};
    return v;
  }

  std::string_view input_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;  ///< arrays/objects currently open
};

}  // namespace

const JsonValue* JsonValue::find(std::string_view key) const {
  if (kind != Kind::Object) return nullptr;
  for (const auto& [name, value] : members) {
    if (name == key) return &value;
  }
  return nullptr;
}

namespace {

/// A number's lexeme read as a T, or a JsonParseError naming what T is.
template <class T>
T number_as(const JsonValue& v, std::string_view what) {
  if (v.kind != JsonValue::Kind::Number) throw JsonParseError("value is not a number");
  T out = 0;
  const auto [ptr, ec] = std::from_chars(v.text.data(), v.text.data() + v.text.size(), out);
  if (ec != std::errc{} || ptr != v.text.data() + v.text.size()) {
    throw JsonParseError("number '" + v.text + "' is not " + std::string{what});
  }
  return out;
}

}  // namespace

double JsonValue::to_double() const { return number_as<double>(*this, "a double"); }

std::int64_t JsonValue::to_i64() const {
  return number_as<std::int64_t>(*this, "a 64-bit integer");
}

std::uint64_t JsonValue::to_u64() const {
  return number_as<std::uint64_t>(*this, "an unsigned 64-bit integer");
}

const JsonValue* JsonValue::find(std::string_view key, Kind want) const {
  const JsonValue* v = find(key);
  if (v == nullptr || v->kind == want) return v;
  static constexpr std::string_view kKinds[] = {"null",     "true or false", "a number",
                                                "a string", "an array",      "an object"};
  throw JsonParseError("key " + json_quote(key) + " must be " +
                       std::string{kKinds[static_cast<std::size_t>(want)]});
}

double JsonValue::number_or(std::string_view key, double fallback) const {
  const JsonValue* v = find(key, Kind::Number);
  return v != nullptr ? v->to_double() : fallback;
}

std::uint64_t JsonValue::u64_or(std::string_view key, std::uint64_t fallback) const {
  const JsonValue* v = find(key, Kind::Number);
  return v != nullptr ? v->to_u64() : fallback;
}

std::int64_t JsonValue::i64_or(std::string_view key, std::int64_t fallback) const {
  const JsonValue* v = find(key, Kind::Number);
  return v != nullptr ? v->to_i64() : fallback;
}

bool JsonValue::bool_or(std::string_view key, bool fallback) const {
  const JsonValue* v = find(key, Kind::Bool);
  return v != nullptr ? v->boolean : fallback;
}

std::string JsonValue::string_or(std::string_view key, std::string fallback) const {
  const JsonValue* v = find(key, Kind::String);
  return v != nullptr ? v->text : std::move(fallback);
}

JsonValue parse_json(std::string_view input) { return Parser{input}.parse_document(); }

std::string json_number(double value) {
  char buf[64];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof buf, value);
  RSTP_CHECK(ec == std::errc{}, "double formatting cannot fail on a 64-byte buffer");
  return std::string(buf, ptr);
}

std::string json_quote(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  out.push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
  return out;
}

}  // namespace rstp::obs
