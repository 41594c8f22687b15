#include <algorithm>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "vps/fault/campaign.hpp"
#include "vps/fault/driver_util.hpp"
#include "vps/support/thread_pool.hpp"

namespace vps::fault {

namespace {

/// The thread-pool executor. Each pool task replays on a private Scenario
/// instance; instances are built lazily via the factory and reused across
/// batches, mirroring how the sequential driver reuses one scenario for
/// every replay.
class ThreadPoolExecutor final : public BatchExecutor {
 public:
  ThreadPoolExecutor(const ScenarioFactory& factory, const CampaignConfig& config,
                     const Observation& golden)
      : factory_(factory),
        config_(config),
        golden_(golden),
        pool_(std::max<std::size_t>(1, config.workers)) {}

  std::vector<ReplayResult> replay(std::size_t /*first*/,
                                   const std::vector<FaultDescriptor>& faults) override {
    // Each slot is written by exactly one task, and replay_isolated converts
    // a throwing scenario into kSimCrash instead of letting the exception
    // kill the pool.
    std::vector<ReplayResult> replays(faults.size());
    pool_.parallel_for(faults.size(), [&](std::size_t b) {
      std::unique_ptr<Scenario> scenario = acquire();
      replays[b] =
          replay_isolated(*scenario, faults[b], config_.seed, golden_, config_.crash_retries);
      std::lock_guard<std::mutex> lock(mutex_);
      idle_.push_back(std::move(scenario));
    });
    return replays;
  }

 private:
  std::unique_ptr<Scenario> acquire() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (!idle_.empty()) {
        std::unique_ptr<Scenario> scenario = std::move(idle_.back());
        idle_.pop_back();
        return scenario;
      }
    }
    return detail::build_scenario(factory_, config_, "ParallelCampaign");
  }

  const ScenarioFactory& factory_;
  const CampaignConfig& config_;
  const Observation& golden_;
  std::mutex mutex_;
  std::vector<std::unique_ptr<Scenario>> idle_;
  support::ThreadPool pool_;  // last: its threads stop before the scenarios go
};

}  // namespace

ParallelCampaign::ParallelCampaign(ScenarioFactory factory, CampaignConfig config)
    : BatchedCampaign(std::move(factory), std::move(config), "ParallelCampaign") {}

std::unique_ptr<BatchExecutor> ParallelCampaign::make_executor() {
  return std::make_unique<ThreadPoolExecutor>(factory_, config_, golden_);
}

}  // namespace vps::fault
