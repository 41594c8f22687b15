#pragma once

/// Fault-injection campaign engine (the outer loop of Fig. 3): generates
/// fault descriptors under a chosen strategy, replays the scenario per
/// fault, classifies every outcome against the golden run, tracks
/// fault-space coverage, and aggregates into a report with a Wilson
/// interval on the hazard probability.
///
/// Strategies (paper Sec. 3.4: "standard Monte-Carlo techniques may fail to
/// identify the critical error effects"):
///   kMonteCarlo      uniform over the fault space
///   kGuided          online weak-spot weighting: cells whose injections
///                    produced dangerous outcomes are sampled more often
///   kCoverageDriven  targets unhit class x location bins first
///   kExhaustiveGrid  deterministic sweep over class x location x window
///
/// Every driver runs on one engine, BatchedCampaign, which generates,
/// folds, learns, checkpoints and preempts; a driver only plugs in the
/// executor that replays a batch:
///   Campaign            on the caller's scenario, on the calling thread.
///   ParallelCampaign    on a fixed set of workers, the calling thread
///                       among them, each with its own scenario.
///   dist::DistCampaign  on forked pool workers behind a private campaign
///                       server, or on a running one.
/// The first two share one in-process executor; Campaign runs it with one
/// worker.
/// Per-run randomness comes from Xorshift::fork(key) keyed on the run
/// index, and adaptive learning is applied in batched rounds at a barrier,
/// so for one config the result is bitwise identical on every driver,
/// executor and worker count, and a checkpoint any driver writes, every
/// driver resumes.

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "vps/coverage/coverage.hpp"
#include "vps/fault/scenario.hpp"
#include "vps/obs/campaign_monitor.hpp"
#include "vps/obs/metrics.hpp"
#include "vps/support/rng.hpp"
#include "vps/support/stats.hpp"

namespace vps::fault {

enum class Strategy : std::uint8_t { kMonteCarlo, kGuided, kCoverageDriven, kExhaustiveGrid };
[[nodiscard]] const char* to_string(Strategy s) noexcept;

struct CampaignConfig {
  std::size_t runs = 200;
  std::uint64_t seed = 1;
  Strategy strategy = Strategy::kMonteCarlo;
  std::size_t location_buckets = 16;
  std::size_t time_windows = 8;
  /// Stop early once this many hazards were found (0 = never stop early).
  std::size_t stop_after_hazards = 0;
  /// ParallelCampaign only: scenario replays run on this many workers, the
  /// calling thread included (0 and 1 both mean one worker, which starts no
  /// thread). The result is identical for any value.
  std::size_t workers = 1;
  /// Adaptive strategies (kGuided, kCoverageDriven) generate this many runs
  /// from the current weights before learning is applied at the batch
  /// barrier. 0 means 1 for Campaign, so learning follows every run, and 32
  /// for the other drivers. The batch size — not the worker count — defines
  /// the learning cadence, so changing workers never changes results;
  /// changing batch_size does. A checkpoint records it (Campaign's as 1)
  /// and resumes only at the same value.
  std::size_t batch_size = 0;
  /// A throwing scenario replay is retried this many times before the run
  /// is recorded as Outcome::kSimCrash and the descriptor quarantined.
  /// Retries are for transient host trouble (e.g. allocation failure); a
  /// deterministic simulator bug throws identically every attempt.
  std::size_t crash_retries = 1;
  /// Write a checkpoint (see fault/checkpoint.hpp) to `checkpoint_path` at
  /// the first batch barrier after every N runs the current run()/resume()
  /// call completed (after a resume the count starts at the resume point);
  /// 0 disables checkpointing.
  std::size_t checkpoint_every = 0;
  std::string checkpoint_path;
  /// Testing / preemption hook: abandon run() at the first batch barrier
  /// after this many replays in the current call (0 = run to completion),
  /// writing a final checkpoint when checkpoint_path is set. The returned
  /// partial result has `interrupted == true`. This is how the CI
  /// kill-at-50% round-trip is driven without actually SIGKILLing the test
  /// runner.
  std::size_t preempt_after = 0;
  /// Snapshot-and-fork replay: supporting scenarios cache golden epoch
  /// snapshots per seed and execute only the divergent suffix of each
  /// faulty replay. Purely an execution optimization — results are bitwise
  /// identical either way (the snapshot-equivalence tests enforce this), so
  /// like `workers` it is not part of the checkpoint identity. The drivers
  /// apply it to every scenario they build, and Campaign to the one it is
  /// given at construction, overriding whatever the factory set. Exec-mode
  /// (DistConfig::worker_path) and server-pool workers rebuild their
  /// scenario from the registry spec and always fork.
  bool snapshot_replay = true;
};

struct RunRecord {
  FaultDescriptor fault;
  Outcome outcome = Outcome::kNoEffect;
  /// Outcome::kSimCrash only: what() text of the exception that escaped the
  /// final replay attempt (empty otherwise).
  std::string crash_what;
  /// Propagation DAGs observed during the replay (empty unless the scenario
  /// runs with provenance enabled; campaign runs carry at most one fault).
  std::vector<obs::FaultProvenance> provenance;

  /// Injection → first detection of this run's fault, measured from its
  /// provenance DAG. nullopt when provenance is off or the fault stayed
  /// undetected (latent).
  [[nodiscard]] std::optional<sim::Time> detection_latency() const noexcept;
};

struct CampaignResult {
  std::array<std::uint64_t, kOutcomeCount> outcome_counts{};
  std::vector<RunRecord> records;
  std::size_t runs_executed = 0;
  /// 1-based index of the first hazard-producing run (0 = none found).
  std::size_t faults_to_first_hazard = 0;
  double final_coverage = 0.0;
  /// Coverage after each run (closure curve).
  std::vector<double> coverage_curve;
  support::Proportion hazard_probability;  ///< Wilson interval
  /// The fault-space coverage shard behind final_coverage. Drivers populate
  /// it so merge() can recompute exact aggregate coverage; treat as
  /// immutable once published (merge copies before mutating).
  std::shared_ptr<const coverage::FaultSpaceCoverage> coverage;
  /// True when run() was preempted (CampaignConfig::preempt_after) before
  /// all runs executed; resume from the written checkpoint to finish.
  bool interrupted = false;

  /// Descriptors whose replays kept throwing after the configured retries.
  /// These are infrastructure failures (simulator bugs, host trouble) — the
  /// fault itself never received a verdict, so quarantined runs are
  /// excluded from diagnostic_coverage() and the weak-spot danger tallies.
  struct QuarantineEntry {
    FaultDescriptor fault;
    std::string what;            ///< exception text of the final attempt
    std::uint32_t attempts = 0;  ///< total attempts incl. retries
  };
  std::vector<QuarantineEntry> quarantine;

  [[nodiscard]] std::uint64_t count(Outcome o) const noexcept {
    return outcome_counts[static_cast<std::size_t>(o)];
  }
  [[nodiscard]] double fraction(Outcome o) const noexcept {
    return runs_executed == 0
               ? 0.0
               : static_cast<double>(count(o)) / static_cast<double>(runs_executed);
  }
  /// Diagnostic coverage in the FMEDA sense: detected events over all
  /// dangerous events. Hangs (kTimeout) count as undetected-dangerous: a
  /// campaign full of timeouts must report DC = 0, not 1.
  [[nodiscard]] double diagnostic_coverage() const noexcept;
  [[nodiscard]] std::string render() const;

  /// Aggregates a shard result (e.g. one seed of a multi-seed campaign)
  /// into this one. Counts, hazard interval inputs, quarantine and
  /// weak-spot tallies are order-independent; records and the coverage
  /// curve are appended in call order (the curve is per-shard closure,
  /// diagnostic only). When both sides carry their FaultSpaceCoverage
  /// shard, final_coverage is recomputed exactly from the merged shards;
  /// only when either side lost its shard does it fall back to the max
  /// (a lower bound on true aggregate coverage).
  void merge(const CampaignResult& shard);

  /// Weak-spot identification (paper Sec. 3.4: "identifying the weak spots
  /// has to be conducted by analysis of error propagation, error masking,
  /// and error recovery"): fault populations ranked by their dangerous-
  /// outcome rate (hazard + SDC + timeout per injection).
  struct WeakSpot {
    FaultType type;
    std::uint64_t injected = 0;
    std::uint64_t dangerous = 0;
    [[nodiscard]] double danger_rate() const noexcept {
      return injected == 0 ? 0.0
                           : static_cast<double>(dangerous) / static_cast<double>(injected);
    }
  };
  [[nodiscard]] std::vector<WeakSpot> weak_spots() const;
  /// Weak-spot table; when the quarantine is non-empty the crashing
  /// descriptors are appended so infrastructure failures are reported
  /// alongside the safety-relevant populations, never silently dropped.
  [[nodiscard]] std::string render_weak_spots() const;
  [[nodiscard]] std::string render_quarantine() const;

  /// Per-fault-type detection-latency distribution, computed on demand from
  /// the records' provenance (order-independent: merging shards in any order
  /// yields the same table because records carry the raw DAGs).
  struct LatencyStats {
    FaultType type;
    std::uint64_t traced = 0;    ///< runs of this type that carried provenance
    std::uint64_t detected = 0;  ///< of those, runs whose fault was detected
    support::Histogram latency_us;
    LatencyStats(FaultType t, double lo_us, double hi_us, std::size_t bins)
        : type(t), latency_us(lo_us, hi_us, bins) {}
  };
  /// Percentile resolution is bounded by the bin width (hi_us - lo_us)/bins;
  /// pass a range matched to the scenario's detection mechanisms.
  [[nodiscard]] std::vector<LatencyStats> detection_latency_stats(
      double lo_us = 0.0, double hi_us = 1'000'000.0, std::size_t bins = 2048) const;
  [[nodiscard]] std::string render_latency(double lo_us = 0.0, double hi_us = 1'000'000.0,
                                           std::size_t bins = 2048) const;

  /// Provenance exports over all records in run order — byte-identical
  /// across reruns, drivers and executors for one config, because the
  /// records themselves are. Same per-fault schema as
  /// obs::ProvenanceTracker::to_jsonl()/to_dot().
  [[nodiscard]] std::string provenance_jsonl() const;
  [[nodiscard]] std::string provenance_dot() const;

  /// Publishes the aggregate into a metric registry under `prefix`:
  /// run/outcome counters, a coverage gauge, and the detection-latency
  /// histogram "<prefix>.detection_latency_us".
  void publish_metrics(obs::MetricRegistry& registry, const std::string& prefix = "campaign",
                       double lo_us = 0.0, double hi_us = 1'000'000.0,
                       std::size_t bins = 2048) const;
};

/// One crash-isolated scenario replay: runs `scenario` against `fault`
/// (retrying up to `crash_retries` extra attempts when the replay throws)
/// and classifies against `golden`. A replay that keeps throwing yields
/// Outcome::kSimCrash with the captured what() text instead of propagating —
/// the exception boundary every campaign driver's replays share.
struct ReplayResult {
  Outcome outcome = Outcome::kNoEffect;
  std::string crash_what;      ///< kSimCrash only
  std::uint32_t attempts = 1;  ///< total attempts taken
  /// Provenance reported by the successful replay (see RunRecord).
  std::vector<obs::FaultProvenance> provenance;
};
[[nodiscard]] ReplayResult replay_isolated(Scenario& scenario, const FaultDescriptor& fault,
                                           std::uint64_t seed, const Observation& golden,
                                           std::size_t crash_retries);

/// The campaign engine's strategy state: fault generation under the
/// configured strategy, the guided weak-spot weights, and fault-space
/// coverage. Not thread-safe — the engine mutates it on the calling thread.
class CampaignState {
 public:
  CampaignState(std::vector<FaultType> types, sim::Time duration, const CampaignConfig& config);

  /// Generates the descriptor for `run_index` against the current weights
  /// and coverage, drawing every random parameter from the stream
  /// Xorshift(seed).fork(run_index): no other run's draws can perturb it.
  [[nodiscard]] FaultDescriptor generate(std::size_t run_index);

  /// Folds one classified outcome back into the guided weights and the
  /// fault-space coverage. Returns false — and changes nothing — when the
  /// fault's type is not part of this campaign's fault space: a foreign
  /// descriptor must be skipped, not silently mapped onto cell 0.
  bool learn(const FaultDescriptor& fault, Outcome outcome);

  [[nodiscard]] const coverage::FaultSpaceCoverage& coverage() const noexcept {
    return coverage_;
  }
  [[nodiscard]] const std::vector<FaultType>& types() const noexcept { return types_; }

 private:
  [[nodiscard]] std::size_t cell_index(std::size_t type_idx, std::size_t bucket) const noexcept {
    return type_idx * config_.location_buckets + bucket;
  }
  /// An address whose location bucket is `bucket` (campaign convention:
  /// bucket == address % location_buckets).
  [[nodiscard]] std::uint64_t address_for_bucket(std::size_t bucket, support::Xorshift& rng);

  CampaignConfig config_;
  sim::Time duration_;
  std::vector<FaultType> types_;
  std::vector<double> weights_;  // guided strategy state, one per cell
  coverage::FaultSpaceCoverage coverage_;
  std::uint64_t next_fault_id_ = 1;
};

struct CampaignCheckpoint;  // fault/checkpoint.hpp

/// Builds a fresh Scenario instance. Called concurrently from pool threads
/// (each worker after the first gets its own instance), so it must be
/// thread-safe — plain construction of independent scenarios is.
using ScenarioFactory = std::function<std::unique_ptr<Scenario>()>;

/// What a driver plugs into BatchedCampaign: the means to replay a batch.
/// It lives for one run()/resume() call.
class BatchExecutor {
 public:
  BatchExecutor() = default;
  BatchExecutor(const BatchExecutor&) = delete;
  BatchExecutor& operator=(const BatchExecutor&) = delete;
  virtual ~BatchExecutor() = default;

  /// Replays `faults`, the descriptors of runs first … first+faults.size()−1,
  /// and returns one verdict per fault, in order. Where a replay ran must
  /// not change its verdict.
  [[nodiscard]] virtual std::vector<ReplayResult> replay(
      std::size_t first, const std::vector<FaultDescriptor>& faults) = 0;
  /// Run `run` was folded into the result at the barrier.
  virtual void folded(std::size_t /*run*/) {}
  /// Adds the executor's own fields to a progress snapshot.
  virtual void annotate(obs::CampaignProgress& /*progress*/) const {}
  /// Ends the execution after its last barrier (an orderly shutdown).
  virtual void finish() {}
  /// Publishes the executor's counters once the campaign completed.
  virtual void publish(obs::MetricRegistry& /*metrics*/) const {}
};

/// The batch-barrier campaign engine behind every driver. Each batch is
/// generated on the calling thread from per-run forked RNG streams against
/// the weights as of the last barrier, replayed by the driver's executor,
/// and folded — adaptive learning included — in run-index order at the
/// barrier, where the engine also reports progress, checkpoints and
/// honours preemption. Who executed a run can therefore never change the
/// CampaignResult (records, counts, coverage curve): it is bitwise
/// identical for any executor, worker count or fleet size, and a
/// checkpoint one driver writes, any other resumes.
class BatchedCampaign {
 public:
  BatchedCampaign(const BatchedCampaign&) = delete;
  BatchedCampaign& operator=(const BatchedCampaign&) = delete;
  BatchedCampaign(BatchedCampaign&&) = default;
  BatchedCampaign& operator=(BatchedCampaign&&) = default;
  virtual ~BatchedCampaign() = default;

  [[nodiscard]] CampaignResult run();

  /// Continues an interrupted campaign from a checkpoint; the final result
  /// is byte-identical to an uninterrupted run() for any executor. The
  /// engine writes checkpoints at batch barriers; a prefix that ends inside
  /// a batch without meeting the hazard stop (a torn save, salvaged by
  /// load_checkpoint) resumes from that batch's barrier and re-executes the
  /// batch; its records are not read. The golden observation is taken from the
  /// checkpoint, so no golden re-run happens. ensure()-fails when the
  /// checkpoint's scenario or determinism-relevant config differs.
  [[nodiscard]] CampaignResult resume(const CampaignCheckpoint& checkpoint);

  /// The golden observation the classification compares against (valid
  /// after the first run()).
  [[nodiscard]] const Observation& golden() const noexcept { return golden_; }

  /// Attaches a progress monitor: on_progress at every batch barrier (from
  /// the calling thread), on_complete once at the end of run(). The monitor
  /// must outlive run(); nullptr detaches.
  void set_monitor(obs::CampaignMonitor* monitor) noexcept { monitor_ = monitor; }

  /// Attaches a metric registry: the finished result is published into it
  /// once at the end of run()/resume(), from the calling thread. Must
  /// outlive run(); nullptr detaches.
  void set_metrics(obs::MetricRegistry* metrics) noexcept { metrics_ = metrics; }

 protected:
  /// `driver` names the driver in error messages. The coordinator is built
  /// through `factory` on first use.
  BatchedCampaign(ScenarioFactory factory, CampaignConfig config, const char* driver);
  /// Uses the caller's `coordinator`, which must outlive the campaign,
  /// instead of building one.
  BatchedCampaign(Scenario& coordinator, CampaignConfig config, const char* driver);

  ScenarioFactory factory_;
  CampaignConfig config_;
  Scenario* coordinator_ = nullptr;  // golden run + fault-space probe
  Observation golden_;

 private:
  /// The executor of one run()/resume() call, built once the golden
  /// observation is known.
  [[nodiscard]] virtual std::unique_ptr<BatchExecutor> make_executor() = 0;

  void ensure_coordinator();
  [[nodiscard]] CampaignResult execute(std::size_t start_run, CampaignResult result,
                                       CampaignState& state);

  const char* driver_ = nullptr;
  std::unique_ptr<Scenario> owned_coordinator_;  // when built through factory_
  bool golden_valid_ = false;
  obs::CampaignMonitor* monitor_ = nullptr;
  obs::MetricRegistry* metrics_ = nullptr;
};

/// Sequential campaign driver: replays run one after another on the
/// caller's scenario, on the calling thread, and that scenario is also the
/// coordinator. A batch_size of 0 becomes 1, so learning follows every run.
class Campaign final : public BatchedCampaign {
 public:
  /// `scenario` must outlive the campaign.
  Campaign(Scenario& scenario, CampaignConfig config);

 private:
  [[nodiscard]] std::unique_ptr<BatchExecutor> make_executor() override;
};

/// Batched in-process campaign driver: the replays of a batch fan out
/// across CampaignConfig::workers workers. Worker 0 is the calling thread
/// and replays on the coordinator; each other worker replays on its own
/// instance, built through the factory on first use, so the factory is
/// called at most `workers` times.
class ParallelCampaign final : public BatchedCampaign {
 public:
  ParallelCampaign(ScenarioFactory factory, CampaignConfig config);

 private:
  [[nodiscard]] std::unique_ptr<BatchExecutor> make_executor() override;
};

}  // namespace vps::fault
