#include <algorithm>
#include <chrono>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "vps/fault/campaign.hpp"
#include "vps/fault/checkpoint.hpp"
#include "vps/fault/driver_util.hpp"
#include "vps/support/ensure.hpp"

namespace vps::fault {

using detail::fold_run;
using detail::stop_condition_met;
using support::ensure;

namespace {

/// Checkpoint driver tag of both batched drivers: they share one
/// generation/learning cadence, so their checkpoints are interchangeable.
constexpr const char* kDriverTag = "parallel_campaign";

/// Default learning cadence for adaptive strategies. Deliberately a fixed
/// constant (never derived from the worker count): the batch size defines
/// when guided weights update, so deriving it from `workers` would break
/// the any-worker-count reproducibility guarantee.
constexpr std::size_t kDefaultBatch = 32;

std::size_t batch_size(const CampaignConfig& config) {
  return config.batch_size == 0 ? kDefaultBatch : config.batch_size;
}

/// The descriptors of runs first … first+n−1. Every random draw of run i
/// comes from a stream forked on the run index, so neither scheduling nor
/// the executor can perturb it; adaptive strategies see the weights and
/// coverage as of the last barrier.
std::vector<FaultDescriptor> generate_batch(CampaignState& state, const CampaignConfig& config,
                                            std::size_t first, std::size_t n) {
  const support::Xorshift base(config.seed);
  std::vector<FaultDescriptor> faults;
  faults.reserve(n);
  for (std::size_t b = 0; b < n; ++b) {
    support::Xorshift run_rng = base.fork(first + b);
    faults.push_back(state.generate(first + b, run_rng));
  }
  return faults;
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
    const std::vector<FaultDescriptor> faults = generate_batch(state, config, next, take);
    for (std::size_t b = 0; b < take; ++b) {
      ensure(detail::same_fault(faults[b], records[next + b].fault),
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

void BatchedCampaign::ensure_coordinator() {
  if (coordinator_ != nullptr) return;
  coordinator_ = detail::build_scenario(factory_, config_, driver_);
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
  detail::validate_checkpoint(checkpoint, kDriverTag, coordinator_->name(), config_);
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
      detail::checkpoint_writer(config_, kDriverTag, coordinator_->name(), golden_);
  const bool checkpointing = checkpoint.has_value() && config_.checkpoint_every != 0;

  std::size_t next_run = start_run;
  std::size_t executed_this_call = 0;
  std::size_t runs_since_checkpoint = 0;
  bool stopped = stop_condition_met(config_, result);  // resumed past the stop
  while (next_run < config_.runs && !stopped) {
    const std::size_t n = std::min(batch_size(config_), config_.runs - next_run);
    std::vector<FaultDescriptor> faults = generate_batch(state, config_, next_run, n);
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
  detail::finalize(result, state);
  if (!result.interrupted) {
    if (metrics_ != nullptr) {
      result.publish_metrics(*metrics_);
      detail::publish_checkpoint_metrics(*metrics_, checkpoint);
      executor->publish(*metrics_);
    }
    if (monitor_ != nullptr) monitor_->on_complete(progress(result.final_coverage, true));
  }
  return result;
}

}  // namespace vps::fault
