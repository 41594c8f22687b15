// E14 — parallel campaign scaling. The Fig. 3 loop is embarrassingly
// parallel across injections: every replay builds a fresh system, so the
// batched executor fans them out over a work-stealing pool. This bench
// records wall-clock and speedup for 1/2/4/8 workers on a Monte-Carlo CAPS
// campaign and verifies the headline guarantee: the CampaignResult is
// bitwise identical for every worker count. (Speedups flatten out at the
// machine's physical core count — on a single-core host every row is ~1x.)
//
// Usage: bench_parallel_campaign [runs]   (default 400; prints BUG: and
// exits 1 when a worker count changes a record or the coverage curve)

#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

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
  std::size_t runs = 400;
  if (argc > 1) {
    char* end = nullptr;
    const unsigned long long n = std::strtoull(argv[1], &end, 10);
    if (argc > 2 || argv[1][0] < '0' || argv[1][0] > '9' || *end != '\0' || n == 0) {
      std::fprintf(stderr, "usage: %s [runs]   (runs: an integer >= 1, default 400)\n", argv[0]);
      return 64;  // EX_USAGE
    }
    runs = static_cast<std::size_t>(n);
  }

  std::printf("== E14: parallel campaign scaling (Monte-Carlo on CAPS crash, %zu runs) ==\n\n",
              runs);

  // Sequential baseline (the original single-thread driver).
  apps::CapsScenario scenario(apps::CapsConfig{.crash = true, .duration = sim::Time::ms(15)});
  auto t0 = std::chrono::steady_clock::now();
  const fault::CampaignResult sequential = fault::Campaign(scenario, base_config(runs)).run();
  const double seq_ms = ms_since(t0);

  support::Table table({"executor", "workers", "wall ms", "speedup", "hazards", "identical"});
  char ms_buf[32], sp_buf[32];
  std::snprintf(ms_buf, sizeof ms_buf, "%.0f", seq_ms);
  table.add_row({"sequential", "-", ms_buf, "1.00x",
                 std::to_string(sequential.count(fault::Outcome::kHazard)), "(baseline)"});

  fault::CampaignResult reference;
  bool have_reference = false;
  std::size_t mismatches = 0;
  for (const std::size_t workers : {1u, 2u, 4u, 8u}) {
    auto cfg = base_config(runs);
    cfg.workers = workers;
    fault::ParallelCampaign campaign(caps_factory(), cfg);
    t0 = std::chrono::steady_clock::now();
    const fault::CampaignResult result = campaign.run();
    const double par_ms = ms_since(t0);

    const bool same = !have_reference || identical(reference, result);
    if (!same) {
      ++mismatches;
      std::printf("BUG: the %zu-worker result differs from the 1-worker result\n", workers);
    }
    if (!have_reference) {
      reference = result;
      have_reference = true;
    }
    std::snprintf(ms_buf, sizeof ms_buf, "%.0f", par_ms);
    std::snprintf(sp_buf, sizeof sp_buf, "%.2fx", seq_ms / par_ms);
    table.add_row({"parallel", std::to_string(workers), ms_buf, sp_buf,
                   std::to_string(result.count(fault::Outcome::kHazard)),
                   same ? "yes" : "NO"});
  }
  std::printf("%s\n", table.render().c_str());

  std::printf(
      "Determinism contract: the parallel rows must agree bitwise with each\n"
      "other for every worker count (records, counts, coverage curve). The\n"
      "sequential baseline legitimately differs — it draws all runs from one\n"
      "RNG stream, the parallel executor forks one stream per run index.\n");
  return mismatches == 0 ? 0 : 1;
}
