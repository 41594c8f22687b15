#include <algorithm>
#include <chrono>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "vps/fault/campaign.hpp"
#include "vps/fault/checkpoint.hpp"
#include "vps/fault/driver_util.hpp"
#include "vps/support/ensure.hpp"
#include "vps/support/thread_pool.hpp"

namespace vps::fault {

using support::ensure;
using detail::finalize;
using detail::fold_run;
using detail::kDefaultBatch;
using detail::stop_condition_met;

namespace {

/// Hands each pool task a private Scenario instance; instances are built
/// lazily via the factory and reused across batches, mirroring how the
/// sequential driver reuses one scenario for every replay.
class ScenarioPool {
 public:
  ScenarioPool(const ScenarioFactory& factory, const CampaignConfig& config)
      : factory_(factory), config_(config) {}

  std::unique_ptr<Scenario> acquire() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (!idle_.empty()) {
        auto s = std::move(idle_.back());
        idle_.pop_back();
        return s;
      }
    }
    return detail::build_scenario(factory_, config_, "ParallelCampaign");
  }

  void release(std::unique_ptr<Scenario> scenario) {
    std::lock_guard<std::mutex> lock(mutex_);
    idle_.push_back(std::move(scenario));
  }

 private:
  const ScenarioFactory& factory_;
  const CampaignConfig& config_;
  std::mutex mutex_;
  std::vector<std::unique_ptr<Scenario>> idle_;
};

}  // namespace

ParallelCampaign::ParallelCampaign(ScenarioFactory factory, CampaignConfig config)
    : factory_(std::move(factory)), config_(config) {
  ensure(static_cast<bool>(factory_), "ParallelCampaign: empty scenario factory");
}

void ParallelCampaign::ensure_coordinator() {
  if (coordinator_ != nullptr) return;
  coordinator_ = detail::build_scenario(factory_, config_, "ParallelCampaign");
}

CampaignResult ParallelCampaign::run() {
  ensure_coordinator();
  if (!golden_valid_) {
    golden_ = coordinator_->run(nullptr, config_.seed);
    golden_valid_ = true;
    ensure(golden_.completed,
           "ParallelCampaign: golden run did not complete for " + coordinator_->name());
  }
  CampaignState state(coordinator_->fault_types(), coordinator_->duration(), config_);
  return execute(0, CampaignResult{}, state);
}

CampaignResult ParallelCampaign::resume(const CampaignCheckpoint& checkpoint) {
  ensure_coordinator();
  detail::validate_checkpoint(checkpoint, "parallel_campaign", coordinator_->name(), config_);
  golden_ = checkpoint.golden;
  golden_valid_ = true;

  CampaignState state(coordinator_->fault_types(), coordinator_->duration(), config_);
  CampaignResult result;
  // Replay the recorded prefix batch-by-batch: descriptors of a batch are
  // regenerated (and verified) against the pre-batch weights, then learning
  // folds at the barrier — exactly the cadence the interrupted run used.
  const std::size_t next = detail::replay_prefix_batched(checkpoint, config_, state, result);
  return execute(next, std::move(result), state);
}

CampaignResult ParallelCampaign::execute(std::size_t start_run, CampaignResult result,
                                         CampaignState& state) {
  const auto started = std::chrono::steady_clock::now();
  const auto elapsed = [&started] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - started).count();
  };
  support::ThreadPool pool(std::max<std::size_t>(1, config_.workers));
  ScenarioPool scenarios(factory_, config_);

  // Every random draw of run i comes from a stream forked on the run index,
  // so neither scheduling nor the worker count can perturb it.
  const support::Xorshift base(config_.seed);
  const std::size_t batch = config_.batch_size == 0 ? kDefaultBatch : config_.batch_size;
  std::optional<CheckpointWriter> checkpoint =
      detail::checkpoint_writer(config_, "parallel_campaign", coordinator_->name(), golden_);
  const bool checkpointing = checkpoint.has_value() && config_.checkpoint_every != 0;

  std::size_t next_run = start_run;
  std::size_t executed_this_call = 0;
  std::size_t runs_since_checkpoint = 0;
  bool stopped = stop_condition_met(config_, result);  // resumed past the stop
  while (next_run < config_.runs && !stopped) {
    const std::size_t n = std::min(batch, config_.runs - next_run);

    // Generate the whole batch on the coordinator: adaptive strategies see
    // the weights/coverage as of the last barrier.
    std::vector<FaultDescriptor> faults;
    faults.reserve(n);
    for (std::size_t b = 0; b < n; ++b) {
      support::Xorshift run_rng = base.fork(next_run + b);
      faults.push_back(state.generate(next_run + b, run_rng));
    }

    // Fan the crash-isolated replays out; each slot is written by exactly
    // one task, and replay_isolated converts a throwing scenario into
    // kSimCrash instead of letting the exception kill the pool.
    std::vector<ReplayResult> replays(n);
    pool.parallel_for(n, [&](std::size_t b) {
      auto scenario = scenarios.acquire();
      replays[b] =
          replay_isolated(*scenario, faults[b], config_.seed, golden_, config_.crash_retries);
      scenarios.release(std::move(scenario));
    });

    // Barrier: reduce in run-index order — learning, coverage and the
    // closure curve replay exactly as a one-worker execution would.
    std::size_t processed = 0;
    for (std::size_t b = 0; b < n; ++b) {
      fold_run(result, state, next_run + b,
               {std::move(faults[b]), replays[b].outcome, std::move(replays[b].crash_what),
                std::move(replays[b].provenance)},
               replays[b].attempts);
      processed = b + 1;
      if (stop_condition_met(config_, result)) {
        stopped = true;
        break;
      }
    }
    next_run += n;
    executed_this_call += processed;
    if (monitor_ != nullptr) {
      monitor_->on_progress(progress_snapshot(coordinator_->name(), result, config_.runs,
                                              state.coverage().coverage(), elapsed()));
    }
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

  finalize(result, state);
  if (!result.interrupted) {
    if (metrics_ != nullptr) result.publish_metrics(*metrics_);
    if (monitor_ != nullptr) {
      monitor_->on_complete(progress_snapshot(coordinator_->name(), result, config_.runs,
                                              result.final_coverage, elapsed(),
                                              /*include_latency=*/true));
    }
  }
  return result;
}

}  // namespace vps::fault
