// Parallel fault-injection campaigns: the Fig. 3 loop fanned out across a
// fixed set of workers, the calling thread among them, with
// bitwise-reproducible results for any worker count, plus sharded
// multi-seed aggregation via the order-independent coverage and result
// merges.

#include <cstdio>
#include <memory>

#include "vps/apps/caps.hpp"
#include "vps/coverage/coverage.hpp"
#include "vps/fault/campaign.hpp"
#include "vps/obs/campaign_monitor.hpp"

using namespace vps;

int main() {
  const auto factory = [] {
    return std::make_unique<apps::CapsScenario>(
        apps::CapsConfig{.crash = true, .duration = sim::Time::ms(15)});
  };

  // 1. One campaign, many workers. The executor generates each run's fault
  //    from an RNG stream forked on the run index and applies guided
  //    learning in batched rounds at a barrier, so the worker count is pure
  //    throughput — it never changes the result.
  std::printf("== guided campaign on CAPS crash, 4 workers ==\n\n");
  fault::CampaignConfig cfg;
  cfg.runs = 200;
  cfg.seed = 2026;
  cfg.strategy = fault::Strategy::kGuided;
  cfg.location_buckets = 8;
  cfg.workers = 4;
  fault::ParallelCampaign campaign(factory, cfg);
  // Live progress: throttled runs/s + coverage lines while batches complete.
  obs::ProgressReporter::Options rep_opts;
  rep_opts.min_interval_seconds = 0.5;
  obs::ProgressReporter reporter(rep_opts);
  campaign.set_monitor(&reporter);
  const auto result = campaign.run();
  std::printf("%s\n", result.render().c_str());
  std::printf("weak spots:\n%s\n", result.render_weak_spots().c_str());

  // Rerun with a different worker count: identical outcome accounting.
  cfg.workers = 2;
  const auto replay = fault::ParallelCampaign(factory, cfg).run();
  std::printf("reproducible across worker counts: %s\n\n",
              replay.outcome_counts == result.outcome_counts &&
                      replay.coverage_curve == result.coverage_curve
                  ? "yes"
                  : "NO — BUG");

  // 2. Sharded aggregation: independent seeds run as separate campaigns
  //    (e.g. on separate machines) and merge order-independently.
  std::printf("== three-seed sharded aggregate ==\n\n");
  fault::CampaignResult aggregate;
  coverage::FaultSpaceCoverage merged_coverage(
      factory()->fault_types().size(), cfg.location_buckets, cfg.time_windows);
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    auto shard_cfg = cfg;
    shard_cfg.seed = seed;
    shard_cfg.runs = 100;
    fault::ParallelCampaign shard(factory, shard_cfg);
    const auto shard_result = shard.run();
    aggregate.merge(shard_result);
    // Replay the shard's samples into the merged coverage model.
    coverage::FaultSpaceCoverage shard_cov(factory()->fault_types().size(),
                                           shard_cfg.location_buckets, shard_cfg.time_windows);
    const auto types = factory()->fault_types();
    for (const auto& rec : shard_result.records) {
      for (std::size_t t = 0; t < types.size(); ++t) {
        if (types[t] == rec.fault.type) {
          shard_cov.sample(t, rec.fault.address % shard_cfg.location_buckets,
                           rec.fault.inject_at.to_seconds() /
                               sim::Time::ms(15).to_seconds());
          break;
        }
      }
    }
    merged_coverage.merge(shard_cov);
  }
  aggregate.final_coverage = merged_coverage.coverage();
  std::printf("%s\n", aggregate.render().c_str());
  std::printf("merged fault-space coverage:\n%s", merged_coverage.report().c_str());
  return 0;
}
