// Strict command-line numbers for the example programs.
#pragma once

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>

namespace eccheck::examples {

/// The whole token `tok` of `flag` as an integer in [lo, hi]. Anything else
/// ("abc", "12x", "-1" below lo) prints the bad value and calls
/// `usage(argv0)`, which prints the program's help and exits; std::atoi would
/// read "abc" as 0 and "12x" as 12.
template <typename T>
T number(void (*usage)(const char*), const char* argv0, const char* flag,
         const char* tok, T lo, T hi = std::numeric_limits<T>::max()) {
  T v{};
  const char* end = tok + std::strlen(tok);
  const auto [ptr, ec] = std::from_chars(tok, end, v);
  if (ec == std::errc() && ptr == end && v >= lo && v <= hi) return v;
  std::fprintf(stderr, "%s: bad value '%s'\n", flag, tok);
  usage(argv0);
  std::exit(2);  // usage() exits; this keeps the compiler sure of it
}

}  // namespace eccheck::examples
