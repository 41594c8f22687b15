#pragma once

/// Internal helper shared by the campaign executors that build their own
/// scenarios (ParallelCampaign's thread pool, DistCampaign's forked pool
/// workers). Not part of the public campaign API.

#include <memory>
#include <string>

#include "vps/fault/campaign.hpp"
#include "vps/support/ensure.hpp"

namespace vps::fault::detail {

/// Builds one scenario through the campaign's factory and applies the
/// campaign's replay mode to it: the config, not the factory, decides
/// whether replays fork. `driver` names the caller in the null-factory error.
inline std::unique_ptr<Scenario> build_scenario(const ScenarioFactory& factory,
                                                const CampaignConfig& config, const char* driver) {
  std::unique_ptr<Scenario> scenario = factory();
  support::ensure(scenario != nullptr, std::string(driver) + ": scenario factory returned null");
  scenario->set_snapshot_replay(config.snapshot_replay);
  return scenario;
}

}  // namespace vps::fault::detail
