#pragma once

/// Internal helpers shared by the sequential Campaign, the batched engine
/// (BatchedCampaign) and its executors. Not part of the public campaign
/// API — drivers include this, nothing else should.

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "vps/fault/campaign.hpp"
#include "vps/fault/checkpoint.hpp"
#include "vps/support/ensure.hpp"
#include "vps/support/stats.hpp"

namespace vps::fault::detail {

/// Field-by-field descriptor identity (doubles bitwise via ==; magnitudes
/// are never NaN). Used by resume() to verify that the deterministic
/// machinery regenerates exactly what the checkpoint recorded.
inline bool same_fault(const FaultDescriptor& a, const FaultDescriptor& b) noexcept {
  return a.id == b.id && a.type == b.type && a.persistence == b.persistence &&
         a.inject_at == b.inject_at && a.duration == b.duration && a.location == b.location &&
         a.address == b.address && a.bit == b.bit && a.magnitude == b.magnitude;
}

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

inline bool stop_condition_met(const CampaignConfig& config,
                               const CampaignResult& result) noexcept {
  return config.stop_after_hazards != 0 &&
         result.count(Outcome::kHazard) >= config.stop_after_hazards;
}

/// Folds one classified run into the accumulating result — the single
/// reduce step every driver and entry point (run/resume) shares, so an
/// uninterrupted run and a replayed checkpoint cannot diverge structurally.
inline void fold_run(CampaignResult& result, CampaignState& state, std::size_t run_index,
                     RunRecord record, std::uint32_t attempts) {
  ++result.outcome_counts[static_cast<std::size_t>(record.outcome)];
  state.learn(record.fault, record.outcome);  // no-op (false) for kSimCrash
  if (record.outcome == Outcome::kSimCrash) {
    result.quarantine.push_back({record.fault, record.crash_what, attempts});
  }
  if (record.outcome == Outcome::kHazard && result.faults_to_first_hazard == 0) {
    result.faults_to_first_hazard = run_index + 1;
  }
  result.records.push_back(std::move(record));
  result.coverage_curve.push_back(state.coverage().coverage());
  ++result.runs_executed;
}

inline void finalize(CampaignResult& result, const CampaignState& state) {
  result.final_coverage = state.coverage().coverage();
  result.coverage = std::make_shared<coverage::FaultSpaceCoverage>(state.coverage());
  result.hazard_probability =
      support::wilson_interval(result.count(Outcome::kHazard), result.runs_executed);
}

/// The checkpoint writer of one execute() call, or none when the campaign
/// has no checkpoint path. Scoped to the call, so a later resume() starts
/// from a fresh cache of encoded records.
inline std::optional<CheckpointWriter> checkpoint_writer(const CampaignConfig& config,
                                                         const char* driver,
                                                         const std::string& scenario_name,
                                                         const Observation& golden) {
  if (config.checkpoint_path.empty()) return std::nullopt;
  return std::optional<CheckpointWriter>(std::in_place, config.checkpoint_path, driver,
                                         scenario_name, config, golden);
}

/// Publishes what the checkpoint saves of one completed execute() call
/// wrote, when it checkpointed.
inline void publish_checkpoint_metrics(obs::MetricRegistry& registry,
                                       const std::optional<CheckpointWriter>& writer) {
  if (!writer) return;
  registry.counter("campaign.checkpoint_bytes").add(writer->bytes_written());
  registry.counter("campaign.checkpoint_saves").add(writer->saves());
}

inline void validate_checkpoint(const CampaignCheckpoint& cp, const char* driver,
                                const std::string& scenario_name, const CampaignConfig& config) {
  support::ensure(cp.driver == driver, "resume: checkpoint was written by driver '" + cp.driver +
                                           "', not '" + driver + "'");
  support::ensure(cp.scenario == scenario_name, "resume: checkpoint is for scenario '" +
                                                    cp.scenario + "', not '" + scenario_name +
                                                    "'");
  const CampaignConfig& c = cp.config;
  support::ensure(
      c.runs == config.runs && c.seed == config.seed && c.strategy == config.strategy &&
          c.location_buckets == config.location_buckets &&
          c.time_windows == config.time_windows &&
          c.stop_after_hazards == config.stop_after_hazards &&
          c.batch_size == config.batch_size && c.crash_retries == config.crash_retries,
      "resume: checkpoint config disagrees with this campaign's "
      "determinism-relevant config (runs/seed/strategy/buckets/windows/"
      "stop_after_hazards/batch_size/crash_retries)");
  support::ensure(cp.records.size() <= config.runs,
                  "resume: checkpoint has more records than runs");
  support::ensure(cp.golden.completed, "resume: checkpoint golden run did not complete");
}

}  // namespace vps::fault::detail
