// Distributed fault-injection campaign: the Fig. 3 loop sharded across a
// fleet of worker processes over a framed local-socket protocol. The
// headline guarantee is demonstrated the hard way — one worker is SIGKILLed
// mid-campaign, its in-flight runs are requeued onto the survivors, and the
// merged result is diffed against the single-process golden. Exits nonzero
// on any mismatch, which is exactly how CI uses this program.
//
// Usage: distributed_campaign [path-to-vps-worker]
//   Without an argument the fleet is forked in-process (the child serves
//   straight out of fork()); with one, workers are fork+exec'd from the
//   given vps-worker binary and rebuild the scenario from its registry spec.

#include <cstdio>
#include <memory>
#include <string>

#include "vps/apps/caps.hpp"
#include "vps/dist/coordinator.hpp"
#include "vps/fault/campaign.hpp"
#include "vps/obs/campaign_monitor.hpp"
#include "vps/obs/metrics.hpp"

using namespace vps;

namespace {

bool identical(const fault::CampaignResult& a, const fault::CampaignResult& b) {
  if (a.outcome_counts != b.outcome_counts) return false;
  if (a.runs_executed != b.runs_executed) return false;
  if (a.faults_to_first_hazard != b.faults_to_first_hazard) return false;
  if (a.final_coverage != b.final_coverage) return false;
  if (a.coverage_curve != b.coverage_curve) return false;
  if (a.records.size() != b.records.size()) return false;
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    const auto& ra = a.records[i];
    const auto& rb = b.records[i];
    if (ra.fault.id != rb.fault.id || ra.fault.type != rb.fault.type ||
        ra.fault.inject_at != rb.fault.inject_at || ra.fault.address != rb.fault.address ||
        ra.fault.bit != rb.fault.bit || ra.fault.magnitude != rb.fault.magnitude ||
        ra.outcome != rb.outcome || ra.crash_what != rb.crash_what) {
      return false;
    }
  }
  return a.provenance_jsonl() == b.provenance_jsonl();
}

}  // namespace

int main(int argc, char** argv) {
  const auto factory = [] {
    return std::make_unique<apps::CapsScenario>(apps::CapsConfig{.crash = true});
  };

  fault::CampaignConfig cfg;
  cfg.runs = 96;
  cfg.seed = 2026;
  cfg.strategy = fault::Strategy::kGuided;
  cfg.location_buckets = 8;
  cfg.batch_size = 16;

  // 1. Single-process golden: the in-process parallel driver defines what
  //    the distributed fleet must reproduce, bit for bit.
  std::printf("== single-process golden (ParallelCampaign) ==\n");
  const auto golden = fault::ParallelCampaign(factory, cfg).run();
  std::printf("%s\n", golden.render().c_str());

  // 2. Distributed fleet, with the worker of the 20th result SIGKILLed. The
  //    coordinator reaps the corpse, requeues its in-flight shard onto the
  //    survivors, and keeps going.
  dist::DistConfig dc;
  dc.campaign = cfg;
  dc.workers = 3;
  dc.kill_after_results = 20;
  if (argc > 1) {
    dc.worker_path = argv[1];
    dc.scenario_spec = "caps:crash";
    std::printf("== distributed fleet: 3x fork+exec %s, SIGKILL one mid-run ==\n", argv[1]);
  } else {
    std::printf("== distributed fleet: 3 forked workers, SIGKILL one mid-run ==\n");
  }

  obs::ProgressReporter::Options rep_opts;
  rep_opts.min_interval_seconds = 0.5;
  obs::ProgressReporter reporter(rep_opts);
  obs::MetricRegistry metrics;
  dist::DistCampaign campaign(factory, dc);
  campaign.set_monitor(&reporter);
  campaign.set_metrics(&metrics);
  const auto distributed = campaign.run();
  std::printf("%s\n", distributed.render().c_str());

  const auto& fleet = campaign.fleet_stats();
  std::printf("fleet: %llu spawned, %llu died, %llu runs requeued, "
              "%llu frames / %llu bytes received\n",
              static_cast<unsigned long long>(fleet.workers_spawned),
              static_cast<unsigned long long>(fleet.worker_deaths),
              static_cast<unsigned long long>(fleet.requeued_runs),
              static_cast<unsigned long long>(fleet.frames_received),
              static_cast<unsigned long long>(fleet.bytes_received));

  // 3. The verdict CI depends on.
  const bool match = identical(golden, distributed);
  const bool death_seen = fleet.worker_deaths == 1;
  std::printf("\ndistributed == single-process golden: %s\n", match ? "yes" : "NO — BUG");
  std::printf("worker death handled: %s\n", death_seen ? "yes" : "NO — kill hook never fired");
  return match && death_seen ? 0 : 1;
}
