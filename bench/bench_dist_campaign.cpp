// E18 — distributed campaign scaling: runs/second of the in-process
// ParallelCampaign vs the multi-process worker pool at 1/2/4 workers on
// the CAPS crash scenario, plus the per-run IPC cost (wall time and wire
// bytes/frames per run) and a kill-one-worker resilience row. Every
// configuration must reproduce the baseline record for record — each
// record's checkpoint line is compared — so the throughput table is only
// meaningful because the work is provably the same. A mismatch, or a kill
// row that sees no worker death, prints BUG: and exits 1.
//
// Usage: bench_dist_campaign [runs]   (an integer >= 3, default 96)

#include <chrono>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>

#include "bench_args.hpp"
#include "vps/apps/caps.hpp"
#include "vps/dist/coordinator.hpp"
#include "vps/fault/campaign.hpp"
#include "vps/fault/codec.hpp"

using namespace vps;
using Clock = std::chrono::steady_clock;

namespace {

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

fault::ScenarioFactory caps_factory() {
  return [] {
    return std::make_unique<apps::CapsScenario>(
        apps::CapsConfig{.crash = true, .duration = sim::Time::ms(10)});
  };
}

/// Every record's checkpoint-codec line, in run order, plus the coverage
/// curve: equal strings mean the two results fold identically.
std::string fingerprint(const fault::CampaignResult& result) {
  std::string out;
  for (std::size_t i = 0; i < result.records.size(); ++i) {
    fault::codec::append_record(out, result.records[i], i);
    out += '\n';
  }
  char hex[40];
  for (const double c : result.coverage_curve) {
    std::snprintf(hex, sizeof hex, "%a ", c);
    out += hex;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  // The kill row needs a third of the runs still ahead when it strikes.
  const std::optional<std::size_t> arg = bench::runs_arg(argc, argv, 96, /*min=*/3);
  if (!arg) return 64;  // EX_USAGE
  const std::size_t runs = *arg;

  fault::CampaignConfig cfg;
  cfg.runs = runs;
  cfg.seed = 2026;
  cfg.strategy = fault::Strategy::kGuided;
  cfg.location_buckets = 8;
  cfg.batch_size = 16;

  std::printf("== E18: distributed campaign scaling (CAPS crash, %zu runs) ==\n\n", runs);

  // In-process baseline on one pool thread: the "zero IPC" reference.
  const auto t_base = Clock::now();
  const auto baseline = fault::ParallelCampaign(caps_factory(), cfg).run();
  const double base_s = seconds_since(t_base);
  const double base_per_run_us = base_s / static_cast<double>(runs) * 1e6;
  const std::string expected = fingerprint(baseline);
  std::printf("%-28s %8.1f runs/s  %9.1f us/run\n", "in-process (1 thread)",
              static_cast<double>(runs) / base_s, base_per_run_us);

  bool ok = true;
  for (const std::size_t fleet : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    dist::DistConfig dc;
    dc.campaign = cfg;
    dc.workers = fleet;
    dist::DistCampaign campaign(caps_factory(), dc);
    const auto t0 = Clock::now();
    const auto result = campaign.run();
    const double s = seconds_since(t0);
    const bool same = fingerprint(result) == expected;
    const auto& fs = campaign.fleet_stats();
    const double per_run_us = s / static_cast<double>(runs) * 1e6;
    char label[64];
    std::snprintf(label, sizeof label, "distributed, %zu worker(s)", fleet);
    std::printf("%-28s %8.1f runs/s  %9.1f us/run  ipc %+8.1f us/run  "
                "%5.0f B/run (%llu frames)  identical: %s\n",
                label, static_cast<double>(runs) / s, per_run_us, per_run_us - base_per_run_us,
                static_cast<double>(fs.bytes_sent + fs.bytes_received) /
                    static_cast<double>(runs),
                static_cast<unsigned long long>(fs.frames_sent + fs.frames_received),
                same ? "yes" : "NO");
    if (!same) {
      std::printf("BUG: %zu-worker fold differs from the in-process baseline\n", fleet);
      ok = false;
    }
  }

  // Resilience row: kill one of two workers a third of the way in; the
  // result must not move and the overhead shows the requeue cost.
  {
    dist::DistConfig dc;
    dc.campaign = cfg;
    dc.workers = 2;
    dc.kill_after_results = runs / 3;
    dist::DistCampaign campaign(caps_factory(), dc);
    const auto t0 = Clock::now();
    const auto result = campaign.run();
    const double s = seconds_since(t0);
    const bool same = fingerprint(result) == expected;
    const auto& fs = campaign.fleet_stats();
    std::printf("%-28s %8.1f runs/s  %9.1f us/run  deaths %llu, requeued %llu  identical: %s\n",
                "distributed, 2w, 1 killed", static_cast<double>(runs) / s,
                s / static_cast<double>(runs) * 1e6,
                static_cast<unsigned long long>(fs.worker_deaths),
                static_cast<unsigned long long>(fs.requeued_runs), same ? "yes" : "NO");
    if (!same) {
      std::printf("BUG: fold with a killed worker differs from the in-process baseline\n");
      ok = false;
    }
    if (fs.worker_deaths != 1) {
      std::printf("BUG: the kill row saw %llu worker deaths, expected 1\n",
                  static_cast<unsigned long long>(fs.worker_deaths));
      ok = false;
    }
  }

  if (!ok) return 1;
  std::printf("\nevery distributed configuration reproduced the in-process result bitwise\n");
  return 0;
}
