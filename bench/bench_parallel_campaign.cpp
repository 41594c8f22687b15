// E14 — parallel campaign scaling. The Fig. 3 loop is embarrassingly
// parallel across injections: every replay builds a fresh system, so the
// in-process executor hands them out, in run-index order from one shared
// counter, to a fixed set of workers: the calling thread is worker 0 and
// replays on the coordinator, every other worker on its own scenario. This
// bench records wall-clock and speedup for 1/2/4/8 workers on a Monte-Carlo
// CAPS campaign and verifies the headline guarantee: the CampaignResult is
// bitwise identical for every worker count and for the sequential driver.
// (Speedups flatten out at the machine's physical core count — on a
// single-core host every row is ~1x.)
//
// Usage: bench_parallel_campaign [runs]   (default 400; prints BUG: and
// exits 1 when a driver or worker count changes a record or the coverage
// curve)

#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bench_args.hpp"
#include "vps/apps/caps.hpp"
#include "vps/fault/campaign.hpp"
#include "vps/fault/codec.hpp"
#include "vps/support/table.hpp"

using namespace vps;

namespace {

fault::CampaignConfig base_config(std::size_t runs) {
  fault::CampaignConfig cfg;
  cfg.runs = runs;
  cfg.seed = 77;
  cfg.strategy = fault::Strategy::kMonteCarlo;
  cfg.location_buckets = 8;
  return cfg;
}

fault::ScenarioFactory caps_factory() {
  return [] {
    return std::make_unique<apps::CapsScenario>(
        apps::CapsConfig{.crash = true, .duration = sim::Time::ms(15)});
  };
}

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
      .count();
}

std::string record_line(const fault::RunRecord& record, std::size_t index) {
  std::string line;
  fault::codec::append_record(line, record, index);
  return line;
}

/// Every record encodes to the same checkpoint line, and the coverage curves
/// agree bit for bit.
bool identical(const fault::CampaignResult& a, const fault::CampaignResult& b) {
  if (a.records.size() != b.records.size() || a.coverage_curve.size() != b.coverage_curve.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    if (record_line(a.records[i], i) != record_line(b.records[i], i)) return false;
  }
  for (std::size_t i = 0; i < a.coverage_curve.size(); ++i) {
    if (std::bit_cast<std::uint64_t>(a.coverage_curve[i]) !=
        std::bit_cast<std::uint64_t>(b.coverage_curve[i])) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<std::size_t> arg = bench::runs_arg(argc, argv, 400);
  if (!arg) return 64;  // EX_USAGE
  const std::size_t runs = *arg;

  std::printf("== E14: parallel campaign scaling (Monte-Carlo on CAPS crash, %zu runs) ==\n\n",
              runs);

  struct Row {
    std::string executor;
    std::string workers;
    double ms;
    fault::CampaignResult result;
  };
  std::vector<Row> rows;
  // Sequential baseline: the same executor at one worker, on the caller's
  // scenario.
  apps::CapsScenario scenario(apps::CapsConfig{.crash = true, .duration = sim::Time::ms(15)});
  auto t0 = std::chrono::steady_clock::now();
  fault::CampaignResult sequential = fault::Campaign(scenario, base_config(runs)).run();
  rows.push_back({"sequential", "-", ms_since(t0), std::move(sequential)});
  for (const std::size_t workers : {1u, 2u, 4u, 8u}) {
    auto cfg = base_config(runs);
    cfg.workers = workers;
    fault::ParallelCampaign campaign(caps_factory(), cfg);
    t0 = std::chrono::steady_clock::now();
    fault::CampaignResult result = campaign.run();
    rows.push_back({"parallel", std::to_string(workers), ms_since(t0), std::move(result)});
  }

  support::Table table({"executor", "workers", "wall ms", "speedup", "hazards", "identical"});
  const fault::CampaignResult& reference = rows[1].result;  // one worker
  std::size_t mismatches = 0;
  for (const Row& row : rows) {
    const bool same = identical(reference, row.result);
    if (!same) {
      ++mismatches;
      std::printf("BUG: the %s result differs from the 1-worker result\n",
                  row.workers == "-" ? "sequential" : (row.workers + "-worker").c_str());
    }
    char ms_buf[32], sp_buf[32];
    std::snprintf(ms_buf, sizeof ms_buf, "%.0f", row.ms);
    std::snprintf(sp_buf, sizeof sp_buf, "%.2fx", rows[0].ms / row.ms);
    table.add_row({row.executor, row.workers, ms_buf, sp_buf,
                   std::to_string(row.result.count(fault::Outcome::kHazard)),
                   same ? "yes" : "NO"});
  }
  std::printf("%s\n", table.render().c_str());

  std::printf(
      "Determinism contract: every row must agree bitwise with the 1-worker\n"
      "row (records, counts, coverage curve), the sequential one included —\n"
      "all drivers fold through one engine, and Monte-Carlo never reads the\n"
      "learned weights, so the sequential driver's batch of 1 and the pool's\n"
      "batch of 32 draw the same runs.\n");
  return mismatches == 0 ? 0 : 1;
}
