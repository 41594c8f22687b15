#pragma once

// Command-line counts of the bench binaries. A count is a plain decimal
// integer at or above the bench's minimum and nothing else; a bench given
// anything else prints a usage line and exits 64 (EX_USAGE) instead of
// running with a count it did not ask for.

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <optional>

namespace vps::bench {

/// Parses a count argument: an integer >= `min`, nothing else.
inline bool parse_count(const char* arg, std::uint64_t& out, std::uint64_t min = 1) {
  char* end = nullptr;
  const unsigned long long n = std::strtoull(arg, &end, 10);
  if (arg[0] < '0' || arg[0] > '9' || *end != '\0' || n < min) return false;
  out = n;
  return true;
}

/// The optional [runs] argument of a bench that takes only that: `fallback`
/// when it is absent. Anything but one count >= `min` prints the usage line
/// and yields nullopt; the bench then exits 64.
inline std::optional<std::size_t> runs_arg(int argc, char** argv, std::size_t fallback,
                                           std::uint64_t min = 1) {
  std::uint64_t runs = fallback;
  if (argc > 2 || (argc == 2 && !parse_count(argv[1], runs, min))) {
    std::fprintf(stderr, "usage: %s [runs]   (runs: an integer >= %llu, default %zu)\n", argv[0],
                 static_cast<unsigned long long>(min), fallback);
    return std::nullopt;
  }
  return static_cast<std::size_t>(runs);
}

}  // namespace vps::bench
