// Checked numeric parsing for command-line tokens.
#pragma once

#include <charconv>
#include <optional>
#include <string_view>
#include <system_error>

namespace rstp {

/// The whole token must be one decimal number that fits the target type.
/// std::nullopt on any malformed or out-of-range token (unlike std::stoul,
/// which accepts trailing garbage, wraps negatives and throws on range).
template <typename T>
[[nodiscard]] std::optional<T> parse_number(std::string_view text) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc{} || ptr != end || text.empty()) return std::nullopt;
  return value;
}

}  // namespace rstp
