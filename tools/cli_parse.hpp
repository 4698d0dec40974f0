#pragma once
/// \file cli_parse.hpp
/// Strict numeric arguments for the command-line tools (ldke, ldke_viz,
/// ldke_trace): a value is taken whole and in range, or the tool names
/// the argument in one line and exits 2.

#include <charconv>
#include <cmath>
#include <iostream>
#include <string_view>
#include <system_error>
#include <type_traits>

namespace ldke::cli {

/// Reads all of \p text as a T in [lo, hi]: false on an empty string,
/// trailing characters, a non-finite number or a value out of range.
template <typename T>
bool parse_value(std::string_view text, T lo, T hi, T& out) {
  T v{};
  const char* end = text.data() + text.size();
  const auto [stop, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc{} || stop != end) return false;
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(v)) return false;
  }
  if (v < lo || v > hi) return false;
  out = v;
  return true;
}

/// Prints "<tool>: <name> expects <want>, got '<text>'" (or "got
/// nothing" when \p text is null) to stderr.
inline void report_bad_value(std::string_view tool, std::string_view name,
                             std::string_view want, const char* text) {
  std::cerr << tool << ": " << name << " expects " << want << ", got ";
  if (text != nullptr) {
    std::cerr << '\'' << text << "'\n";
  } else {
    std::cerr << "nothing\n";
  }
}

}  // namespace ldke::cli
