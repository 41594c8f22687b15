#pragma once

/// Command line of the campaign benchmark. Parsing never throws: bad input
/// (unknown workload or flag, a missing value, non-numeric numbers, a zero
/// run count) comes back as an error message for the usage line.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace campaign_bench {

struct Args {
  std::string workload;
  std::uint64_t seed = 2026;
  unsigned seconds = 10;  ///< target length of the measured campaign
  bool trace = false;     ///< traced run: per-layer metrics instead of end-to-end
  std::size_t runs = 0;   ///< campaign size override (0 = derived from seconds)
  std::string rev = "unknown";
  std::string out_dir = ".bench_build/out";
};

struct ParsedArgs {
  std::optional<Args> args;
  std::string error;  ///< why parsing failed (args empty)
};

/// Parses the arguments after the program name. `known_workloads` is the
/// set --workload must name.
[[nodiscard]] ParsedArgs parse_args(const std::vector<std::string>& argv,
                                    const std::vector<std::string>& known_workloads);

[[nodiscard]] std::string usage(const std::vector<std::string>& known_workloads);

}  // namespace campaign_bench
