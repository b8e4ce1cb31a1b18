// Shared bench-driver plumbing for the performance observatory (README
// "Performance observatory"): every bench stamps the commit identity into
// its record's environment fingerprint, taken from --git-sha with a
// JF_GIT_SHA environment fallback (what CI exports) — a binary cannot know
// which commit it was built from.
#pragma once

#include <cstdlib>
#include <iostream>
#include <stdexcept>
#include <string>

#include "common/flags.h"

namespace jf::bench {

// A perf driver's integer flag, parsed by int_flag: a malformed value is a
// usage error, reported on stderr with exit status 2.
inline int int_arg(const char* driver, const std::string& flag, const char* text, int min) {
  try {
    return int_flag(flag, text, min);
  } catch (const std::invalid_argument& e) {
    std::cerr << driver << ": " << e.what() << "\n";
    std::exit(2);
  }
}

inline std::string resolve_git_sha(const std::string& flag_value) {
  if (!flag_value.empty()) return flag_value;
  const char* env = std::getenv("JF_GIT_SHA");
  return env != nullptr ? std::string(env) : std::string();
}

}  // namespace jf::bench
