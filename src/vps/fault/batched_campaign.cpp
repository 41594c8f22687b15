#include <algorithm>
#include <chrono>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "vps/fault/campaign.hpp"
#include "vps/fault/checkpoint.hpp"
#include "vps/fault/driver_util.hpp"
#include "vps/support/ensure.hpp"
#include "vps/support/stats.hpp"

namespace vps::fault {

using support::ensure;

namespace {

/// Default learning cadence for adaptive strategies. Deliberately a fixed
/// constant (never derived from the worker count): the batch size defines
/// when guided weights update, so deriving it from `workers` would break
/// the any-worker-count reproducibility guarantee.
constexpr std::size_t kDefaultBatch = 32;

std::size_t batch_size(const CampaignConfig& config) {
  return config.batch_size == 0 ? kDefaultBatch : config.batch_size;
}

/// The descriptors of runs first … first+n−1, against the weights and
/// coverage as of the last barrier.
std::vector<FaultDescriptor> generate_batch(CampaignState& state, std::size_t first,
                                            std::size_t n) {
  std::vector<FaultDescriptor> faults;
  faults.reserve(n);
  for (std::size_t run = first; run < first + n; ++run) faults.push_back(state.generate(run));
  return faults;
}

/// Field-by-field descriptor identity (doubles bitwise via ==; magnitudes
/// are never NaN). Used by resume() to verify that the deterministic
/// machinery regenerates exactly what the checkpoint recorded.
bool same_fault(const FaultDescriptor& a, const FaultDescriptor& b) noexcept {
  return a.id == b.id && a.type == b.type && a.persistence == b.persistence &&
         a.inject_at == b.inject_at && a.duration == b.duration && a.location == b.location &&
         a.address == b.address && a.bit == b.bit && a.magnitude == b.magnitude;
}

bool stop_condition_met(const CampaignConfig& config, const CampaignResult& result) noexcept {
  return config.stop_after_hazards != 0 &&
         result.count(Outcome::kHazard) >= config.stop_after_hazards;
}

/// Folds one classified run into the accumulating result — the single
/// reduce step of both entry points (run/resume), so an uninterrupted run
/// and a replayed checkpoint cannot diverge structurally.
void fold_run(CampaignResult& result, CampaignState& state, std::size_t run_index,
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

void finalize(CampaignResult& result, const CampaignState& state) {
  result.final_coverage = state.coverage().coverage();
  result.coverage = std::make_shared<coverage::FaultSpaceCoverage>(state.coverage());
  result.hazard_probability =
      support::wilson_interval(result.count(Outcome::kHazard), result.runs_executed);
}

/// Builds the obs-layer progress snapshot the engine reports through its
/// monitor. `wall_seconds` is host time since the call started.
/// `include_latency` fills the detection-latency percentiles — an
/// O(records) pass, so only final (on_complete) snapshots request it.
obs::CampaignProgress progress_snapshot(const std::string& name, const CampaignResult& result,
                                        std::size_t runs_total, double coverage,
                                        double wall_seconds, bool include_latency) {
  obs::CampaignProgress progress;
  progress.campaign = name;
  progress.runs_done = result.runs_executed;
  progress.runs_total = runs_total;
  progress.wall_seconds = wall_seconds;
  progress.runs_per_second =
      wall_seconds > 0.0 ? static_cast<double>(result.runs_executed) / wall_seconds : 0.0;
  progress.coverage = coverage;
  progress.hazards = result.count(Outcome::kHazard);
  for (std::size_t i = 0; i < kOutcomeCount; ++i) {
    progress.outcome_counts.emplace_back(to_string(static_cast<Outcome>(i)),
                                         result.outcome_counts[i]);
  }
  if (include_latency) {
    support::Histogram latency_us(0.0, 1'000'000.0, 2048);
    for (const auto& rec : result.records) {
      if (const auto latency = rec.detection_latency()) {
        latency_us.add(latency->to_seconds() * 1e6);
      }
    }
    progress.detections_with_latency = latency_us.total();
    if (latency_us.total() > 0) {
      progress.latency_p50_us = latency_us.percentile(0.50);
      progress.latency_p95_us = latency_us.percentile(0.95);
      progress.latency_p99_us = latency_us.percentile(0.99);
    }
  }
  return progress;
}

/// The checkpoint writer of one execute() call, or none when the campaign
/// has no checkpoint path. Scoped to the call, so a later resume() starts
/// from a fresh cache of encoded records.
std::optional<CheckpointWriter> checkpoint_writer(const CampaignConfig& config,
                                                  const std::string& scenario_name,
                                                  const Observation& golden) {
  if (config.checkpoint_path.empty()) return std::nullopt;
  return std::optional<CheckpointWriter>(std::in_place, config.checkpoint_path,
                                         CampaignCheckpoint::kDriver, scenario_name, config,
                                         golden);
}

/// Publishes what the checkpoint saves of one completed execute() call
/// wrote, when it checkpointed.
void publish_checkpoint_metrics(obs::MetricRegistry& registry,
                                const std::optional<CheckpointWriter>& writer) {
  if (!writer) return;
  registry.counter("campaign.checkpoint_bytes").add(writer->bytes_written());
  registry.counter("campaign.checkpoint_saves").add(writer->saves());
}

void validate_checkpoint(const CampaignCheckpoint& cp, const std::string& scenario_name,
                         const CampaignConfig& config) {
  ensure(cp.driver == CampaignCheckpoint::kDriver,
         "resume: checkpoint was written by driver '" + cp.driver + "', not '" +
             CampaignCheckpoint::kDriver + "'");
  ensure(cp.scenario == scenario_name,
         "resume: checkpoint is for scenario '" + cp.scenario + "', not '" + scenario_name + "'");
  const CampaignConfig& c = cp.config;
  ensure(c.runs == config.runs && c.seed == config.seed && c.strategy == config.strategy &&
             c.location_buckets == config.location_buckets &&
             c.time_windows == config.time_windows &&
             c.stop_after_hazards == config.stop_after_hazards &&
             c.batch_size == config.batch_size && c.crash_retries == config.crash_retries,
         "resume: checkpoint config disagrees with this campaign's "
         "determinism-relevant config (runs/seed/strategy/buckets/windows/"
         "stop_after_hazards/batch_size/crash_retries)");
  ensure(cp.records.size() <= config.runs, "resume: checkpoint has more records than runs");
  ensure(cp.golden.completed, "resume: checkpoint golden run did not complete");
}

/// Whether folding records[from..] into `result` meets the stop condition.
bool ends_in_stop(const CampaignConfig& config, const CampaignResult& result,
                  const std::vector<RunRecord>& records, std::size_t from) {
  CampaignResult counts;
  counts.outcome_counts = result.outcome_counts;
  for (std::size_t i = from; i < records.size(); ++i) {
    ++counts.outcome_counts[static_cast<std::size_t>(records[i].outcome)];
  }
  return stop_condition_met(config, counts);
}

/// Replays a checkpointed prefix at the engine's cadence: the descriptors
/// of a batch are regenerated (and verified) against the pre-batch
/// weights, then learning folds at the barrier — exactly the cadence the
/// interrupted run used. Returns the run index execution continues from.
std::size_t replay_prefix(const CampaignCheckpoint& checkpoint, const CampaignConfig& config,
                          CampaignState& state, CampaignResult& result) {
  const std::vector<RunRecord>& records = checkpoint.records;
  std::size_t next = 0;
  while (next < records.size()) {
    const std::size_t n = std::min(batch_size(config), config.runs - next);
    const std::size_t take = std::min(n, records.size() - next);
    // The engine saves only at batch barriers, and cuts a batch short only
    // when the hazard stop ends the campaign inside it. Any other prefix
    // ending inside a batch is a save a kill tore, salvaged by
    // load_checkpoint(): resume from the barrier, which re-executes the
    // batch, and leave its records unread.
    if (take < n && !ends_in_stop(config, result, records, next)) break;
    const std::vector<FaultDescriptor> faults = generate_batch(state, next, take);
    for (std::size_t b = 0; b < take; ++b) {
      ensure(same_fault(faults[b], records[next + b].fault),
             "resume: run " + std::to_string(next + b) +
                 " does not regenerate the recorded descriptor — checkpoint is "
                 "inconsistent with this scenario/config/code version");
    }
    for (std::size_t b = 0; b < take; ++b) {
      fold_run(result, state, next + b, records[next + b],
               static_cast<std::uint32_t>(config.crash_retries + 1));
    }
    next += take;
  }
  return next;
}

}  // namespace

BatchedCampaign::BatchedCampaign(ScenarioFactory factory, CampaignConfig config,
                                 const char* driver)
    : factory_(std::move(factory)), config_(std::move(config)), driver_(driver) {
  ensure(static_cast<bool>(factory_), std::string(driver_) + ": empty scenario factory");
}

BatchedCampaign::BatchedCampaign(Scenario& coordinator, CampaignConfig config,
                                 const char* driver)
    : config_(std::move(config)), coordinator_(&coordinator), driver_(driver) {}

void BatchedCampaign::ensure_coordinator() {
  if (coordinator_ != nullptr) return;
  owned_coordinator_ = detail::build_scenario(factory_, config_, driver_);
  coordinator_ = owned_coordinator_.get();
}

CampaignResult BatchedCampaign::run() {
  ensure_coordinator();
  if (!golden_valid_) {
    golden_ = coordinator_->run(nullptr, config_.seed);
    golden_valid_ = true;
    ensure(golden_.completed,
           std::string(driver_) + ": golden run did not complete for " + coordinator_->name());
  }
  CampaignState state(coordinator_->fault_types(), coordinator_->duration(), config_);
  return execute(0, CampaignResult{}, state);
}

CampaignResult BatchedCampaign::resume(const CampaignCheckpoint& checkpoint) {
  ensure_coordinator();
  validate_checkpoint(checkpoint, coordinator_->name(), config_);
  golden_ = checkpoint.golden;
  golden_valid_ = true;

  CampaignState state(coordinator_->fault_types(), coordinator_->duration(), config_);
  CampaignResult result;
  const std::size_t next = replay_prefix(checkpoint, config_, state, result);
  return execute(next, std::move(result), state);
}

CampaignResult BatchedCampaign::execute(std::size_t start_run, CampaignResult result,
                                        CampaignState& state) {
  const auto started = std::chrono::steady_clock::now();
  const std::unique_ptr<BatchExecutor> executor = make_executor();
  const auto progress = [&](double coverage, bool final) {
    obs::CampaignProgress p = progress_snapshot(
        coordinator_->name(), result, config_.runs, coverage,
        std::chrono::duration<double>(std::chrono::steady_clock::now() - started).count(), final);
    executor->annotate(p);
    return p;
  };
  std::optional<CheckpointWriter> checkpoint =
      checkpoint_writer(config_, coordinator_->name(), golden_);
  const bool checkpointing = checkpoint.has_value() && config_.checkpoint_every != 0;

  std::size_t next_run = start_run;
  std::size_t executed_this_call = 0;
  std::size_t runs_since_checkpoint = 0;
  bool stopped = stop_condition_met(config_, result);  // resumed past the stop
  while (next_run < config_.runs && !stopped) {
    const std::size_t n = std::min(batch_size(config_), config_.runs - next_run);
    std::vector<FaultDescriptor> faults = generate_batch(state, next_run, n);
    std::vector<ReplayResult> replays = executor->replay(next_run, faults);
    ensure(replays.size() == n, "BatchedCampaign: executor returned the wrong number of verdicts");

    // Barrier: reduce in run-index order — learning, coverage and the
    // closure curve replay exactly as a one-worker execution would.
    std::size_t processed = 0;
    while (processed < n && !stopped) {
      ReplayResult& r = replays[processed];
      fold_run(result, state, next_run + processed,
               {std::move(faults[processed]), r.outcome, std::move(r.crash_what),
                std::move(r.provenance)},
               r.attempts);
      executor->folded(next_run + processed);
      ++processed;
      stopped = stop_condition_met(config_, result);
    }
    next_run += n;
    executed_this_call += processed;
    if (monitor_ != nullptr) monitor_->on_progress(progress(state.coverage().coverage(), false));
    if (checkpointing) {
      runs_since_checkpoint += processed;
      if (runs_since_checkpoint >= config_.checkpoint_every) {
        checkpoint->save(result.records);
        runs_since_checkpoint = 0;
      }
    }
    if (!stopped && config_.preempt_after != 0 && executed_this_call >= config_.preempt_after &&
        next_run < config_.runs) {
      if (checkpoint) checkpoint->save(result.records);
      result.interrupted = true;
      break;
    }
  }

  executor->finish();
  finalize(result, state);
  if (!result.interrupted) {
    if (metrics_ != nullptr) {
      result.publish_metrics(*metrics_);
      publish_checkpoint_metrics(*metrics_, checkpoint);
      executor->publish(*metrics_);
    }
    if (monitor_ != nullptr) monitor_->on_complete(progress(result.final_coverage, true));
  }
  return result;
}

}  // namespace vps::fault
