#include <memory>
#include <utility>
#include <vector>

#include "vps/fault/campaign.hpp"
#include "vps/fault/driver_util.hpp"
#include "vps/support/thread_pool.hpp"

namespace vps::fault {

namespace {

/// The in-process executor behind Campaign and ParallelCampaign: the
/// replays of a batch run on a ThreadPool, each worker on its own scenario.
/// Worker 0 is the calling thread and replays on the campaign's
/// coordinator; the other workers replay on instances the factory builds on
/// first use, kept across batches as the coordinator is.
class InProcessExecutor final : public BatchExecutor {
 public:
  InProcessExecutor(Scenario& coordinator, const ScenarioFactory& factory,
                    const CampaignConfig& config, const Observation& golden,
                    std::size_t workers)
      : coordinator_(coordinator),
        factory_(factory),
        config_(config),
        golden_(golden),
        pool_(workers) {
    built_.resize(pool_.worker_count());
  }

  std::vector<ReplayResult> replay(std::size_t /*first*/,
                                   const std::vector<FaultDescriptor>& faults) override {
    // Each slot is written by exactly one iteration, and replay_isolated
    // turns a throwing scenario into kSimCrash instead of an exception.
    std::vector<ReplayResult> replays(faults.size());
    pool_.parallel_for(faults.size(), [&](std::size_t worker, std::size_t b) {
      replays[b] = replay_isolated(scenario(worker), faults[b], config_.seed, golden_,
                                   config_.crash_retries);
    });
    return replays;
  }

 private:
  /// Only `worker`'s thread touches its slot of built_.
  Scenario& scenario(std::size_t worker) {
    if (worker == 0) return coordinator_;
    std::unique_ptr<Scenario>& built = built_[worker];
    if (built == nullptr) built = detail::build_scenario(factory_, config_, "ParallelCampaign");
    return *built;
  }

  Scenario& coordinator_;
  const ScenarioFactory& factory_;
  const CampaignConfig& config_;
  const Observation& golden_;
  std::vector<std::unique_ptr<Scenario>> built_;  // by worker; slot 0 stays empty
  support::ThreadPool pool_;  // last: its threads stop before the scenarios go
};

CampaignConfig learn_every_run_by_default(CampaignConfig config) {
  if (config.batch_size == 0) config.batch_size = 1;
  return config;
}

}  // namespace

Campaign::Campaign(Scenario& scenario, CampaignConfig config)
    : BatchedCampaign(scenario, learn_every_run_by_default(std::move(config)), "Campaign") {
  scenario.set_snapshot_replay(config_.snapshot_replay);
}

std::unique_ptr<BatchExecutor> Campaign::make_executor() {
  return std::make_unique<InProcessExecutor>(*coordinator_, factory_, config_, golden_, 1);
}

ParallelCampaign::ParallelCampaign(ScenarioFactory factory, CampaignConfig config)
    : BatchedCampaign(std::move(factory), std::move(config), "ParallelCampaign") {}

std::unique_ptr<BatchExecutor> ParallelCampaign::make_executor() {
  return std::make_unique<InProcessExecutor>(*coordinator_, factory_, config_, golden_,
                                             config_.workers);
}

}  // namespace vps::fault
