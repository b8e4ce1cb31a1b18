// Strict integer parsing for command-line flags, shared by jf_eval and the
// bench drivers so both reject the same malformed input.
#pragma once

#include <charconv>
#include <cstring>
#include <stdexcept>
#include <string>

namespace jf {

// Parses `text` as the value of `flag`: a base-10 integer >= min with no
// trailing characters ("abc" and "3x" are errors, not 0 and 3). Throws
// std::invalid_argument naming the flag otherwise.
inline int int_flag(const std::string& flag, const char* text, int min) {
  int v = 0;
  const char* end = text + std::strlen(text);
  const auto [ptr, ec] = std::from_chars(text, end, v);
  if (ec != std::errc() || ptr != end || v < min) {
    throw std::invalid_argument(flag + " needs an integer value >= " + std::to_string(min) +
                                ", got '" + text + "'");
  }
  return v;
}

}  // namespace jf
