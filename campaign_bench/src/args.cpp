#include "args.hpp"

#include <algorithm>
#include <charconv>
#include <limits>

namespace campaign_bench {

namespace {

/// Whole-string unsigned decimal in [lo, hi]; no sign, no spaces, no suffix.
std::optional<std::uint64_t> parse_uint(const std::string& text, std::uint64_t lo,
                                        std::uint64_t hi) {
  std::uint64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec != std::errc() || ptr != end || value < lo || value > hi) {
    return std::nullopt;
  }
  return value;
}

}  // namespace

std::string usage(const std::vector<std::string>& known_workloads) {
  std::string names;
  for (const std::string& w : known_workloads) names += (names.empty() ? "" : "|") + w;
  return "usage: campaign_bench --workload " + names +
         " [--seed N] [--seconds 1..600] [--trace 0|1] [--runs N>0] [--rev TEXT] [--out DIR]";
}

ParsedArgs parse_args(const std::vector<std::string>& argv,
                      const std::vector<std::string>& known_workloads) {
  Args a;
  const auto fail = [](std::string why) { return ParsedArgs{std::nullopt, std::move(why)}; };
  for (std::size_t i = 0; i < argv.size(); i += 2) {
    const std::string& flag = argv[i];
    if (i + 1 >= argv.size()) return fail("missing value for " + flag);
    const std::string& value = argv[i + 1];
    if (flag == "--workload") {
      if (std::find(known_workloads.begin(), known_workloads.end(), value) ==
          known_workloads.end()) {
        return fail("unknown workload '" + value + "'");
      }
      a.workload = value;
    } else if (flag == "--seed") {
      const auto v = parse_uint(value, 0, std::numeric_limits<std::uint64_t>::max());
      if (!v) return fail("--seed needs a non-negative integer, got '" + value + "'");
      a.seed = *v;
    } else if (flag == "--seconds") {
      const auto v = parse_uint(value, 1, 600);
      if (!v) return fail("--seconds needs an integer in 1..600, got '" + value + "'");
      a.seconds = static_cast<unsigned>(*v);
    } else if (flag == "--trace") {
      const auto v = parse_uint(value, 0, 1);
      if (!v) return fail("--trace needs 0 or 1, got '" + value + "'");
      a.trace = *v == 1;
    } else if (flag == "--runs") {
      const auto v = parse_uint(value, 1, 10'000'000);
      if (!v) return fail("--runs needs a positive integer, got '" + value + "'");
      a.runs = static_cast<std::size_t>(*v);
    } else if (flag == "--rev") {
      a.rev = value;
    } else if (flag == "--out") {
      if (value.empty()) return fail("--out needs a directory");
      a.out_dir = value;
    } else {
      return fail("unknown argument '" + flag + "'");
    }
  }
  if (a.workload.empty()) return fail("--workload is required");
  return ParsedArgs{a, {}};
}

}  // namespace campaign_bench
