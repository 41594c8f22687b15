// E7 — injection strategies (paper Sec. 3.4: "standard Monte-Carlo
// techniques may fail to identify the critical error effects ... a
// systematic approach is required that stresses the system at its possible
// weak spots"). On the CAPS crash scenario (hazard = failed deployment),
// Monte-Carlo, guided weak-spot, coverage-driven and exhaustive-grid
// strategies get the same run budget; compared on hazards found,
// faults-to-first-hazard, and coverage closure — at seed 77, then as the
// median and range over seeds 1–16, since one draw can rank two close
// strategies either way.
//
// Usage: bench_campaign_strategies [runs]   (budget per campaign, default
// 150; a bad argument prints a usage line and exits 64)

#include <algorithm>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "bench_args.hpp"
#include "vps/apps/caps.hpp"
#include "vps/fault/campaign.hpp"
#include "vps/support/table.hpp"

using namespace vps;

namespace {

constexpr fault::Strategy kStrategies[] = {
    fault::Strategy::kMonteCarlo, fault::Strategy::kGuided, fault::Strategy::kCoverageDriven,
    fault::Strategy::kExhaustiveGrid};
constexpr std::uint64_t kSeed = 77;
constexpr std::uint64_t kSweepSeeds = 16;  // seeds 1 … kSweepSeeds

fault::CampaignResult run_campaign(fault::Strategy strategy, std::size_t runs,
                                   std::uint64_t seed) {
  apps::CapsScenario scenario(apps::CapsConfig{.crash = true, .duration = sim::Time::ms(15)});
  fault::CampaignConfig cfg;
  cfg.runs = runs;
  cfg.seed = seed;
  cfg.strategy = strategy;
  cfg.location_buckets = 8;
  return fault::Campaign(scenario, cfg).run();
}

/// Runs until the coverage first reaches 80 %; one past the budget when it
/// never does.
std::size_t runs_to_80(const fault::CampaignResult& result) {
  for (std::size_t i = 0; i < result.coverage_curve.size(); ++i) {
    if (result.coverage_curve[i] >= 0.8) return i + 1;
  }
  return result.coverage_curve.size() + 1;
}

/// First hazard's run, one past the budget when none was found.
std::size_t first_hazard(const fault::CampaignResult& result, std::size_t runs) {
  return result.faults_to_first_hazard != 0 ? result.faults_to_first_hazard : runs + 1;
}

/// A run count, or ">runs" when it lies past the budget.
std::string run_count(double value, std::size_t runs) {
  if (value > static_cast<double>(runs)) return ">" + std::to_string(runs);
  char buf[32];
  std::snprintf(buf, sizeof buf, "%g", value);
  return buf;
}

/// "median [min, max]" of `values`, past-budget entries as ">runs".
std::string spread(std::vector<double> values, std::size_t runs) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  const double median = (values[(n - 1) / 2] + values[n / 2]) / 2.0;
  return run_count(median, runs) + " [" + run_count(values.front(), runs) + ", " +
         run_count(values.back(), runs) + "]";
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<std::size_t> arg = bench::runs_arg(argc, argv, 150);
  if (!arg) return 64;  // EX_USAGE
  const std::size_t runs = *arg;

  std::printf("== E7: campaign strategies on CAPS crash (budget %zu runs each, seed %llu) ==\n\n",
              runs, static_cast<unsigned long long>(kSeed));
  support::Table table({"strategy", "hazards", "first hazard at", "final coverage",
                        "runs to 80% cov", "DC"});
  fault::CampaignResult guided;
  for (const fault::Strategy strategy : kStrategies) {
    fault::CampaignResult result = run_campaign(strategy, runs, kSeed);
    char cov[32], dc[32];
    std::snprintf(cov, sizeof cov, "%.1f%%", 100.0 * result.final_coverage);
    std::snprintf(dc, sizeof dc, "%.2f", result.diagnostic_coverage());
    table.add_row({fault::to_string(strategy),
                   std::to_string(result.count(fault::Outcome::kHazard)),
                   result.faults_to_first_hazard ? std::to_string(result.faults_to_first_hazard)
                                                 : "-",
                   cov, run_count(static_cast<double>(runs_to_80(result)), runs), dc});
    if (strategy == fault::Strategy::kGuided) guided = std::move(result);
  }
  std::printf("%s\n", table.render().c_str());

  // Weak-spot identification from the guided campaign (Sec. 3.4).
  std::printf("weak spots identified by the guided campaign:\n\n%s\n",
              guided.render_weak_spots().c_str());

  std::printf("== the same campaigns over seeds 1-%llu: median [min, max] ==\n\n",
              static_cast<unsigned long long>(kSweepSeeds));
  support::Table sweep({"strategy", "hazards", "first hazard at", "runs to 80% cov"});
  for (const fault::Strategy strategy : kStrategies) {
    std::vector<double> hazards, first, to_80;
    for (std::uint64_t seed = 1; seed <= kSweepSeeds; ++seed) {
      const fault::CampaignResult result = run_campaign(strategy, runs, seed);
      hazards.push_back(static_cast<double>(result.count(fault::Outcome::kHazard)));
      first.push_back(static_cast<double>(first_hazard(result, runs)));
      to_80.push_back(static_cast<double>(runs_to_80(result)));
    }
    sweep.add_row({fault::to_string(strategy), spread(hazards, runs), spread(first, runs),
                   spread(to_80, runs)});
  }
  std::printf("%s\n", sweep.render().c_str());

  std::printf(
      "Expected shape (paper): guided finds more hazard-producing faults from\n"
      "the same budget once it locks onto weak-spot cells; coverage-driven\n"
      "closes the fault-space coverage in the fewest runs; plain Monte-Carlo\n"
      "wastes budget on already-masked regions. Judge the shape on the seed\n"
      "sweep: one seed's draw can rank two close strategies either way.\n");
  return 0;
}
