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
/// Three drivers share the strategy machinery (CampaignState):
///   Campaign            sequential replay on the caller's thread; learning
///                       is applied after every run.
///   ParallelCampaign    batched: replays fan out over a work-stealing
///                       thread pool.
///   dist::DistCampaign  batched: replays run on a fleet of worker
///                       processes or through a campaign server.
/// The two batched drivers are executors of one engine, BatchedCampaign.
/// Per-run randomness comes from Xorshift::fork(key) keyed on the run
/// index, and adaptive learning is applied in batched rounds at a barrier,
/// so their result is bitwise identical for any executor and worker count.

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
  /// ParallelCampaign only: scenario replays run on this many pool threads
  /// (0 and 1 both mean one worker). The result is identical for any value.
  std::size_t workers = 1;
  /// Batched drivers (ParallelCampaign, DistCampaign): adaptive strategies
  /// (kGuided, kCoverageDriven) generate this many runs from the current
  /// weights before learning is applied at the batch barrier (0 = default
  /// of 32). The batch size — not the worker count — defines the learning
  /// cadence, so changing workers never changes results; changing
  /// batch_size does.
  std::size_t batch_size = 0;
  /// A throwing scenario replay is retried this many times before the run
  /// is recorded as Outcome::kSimCrash and the descriptor quarantined.
  /// Retries are for transient host trouble (e.g. allocation failure); a
  /// deterministic simulator bug throws identically every attempt.
  std::size_t crash_retries = 1;
  /// Write a checkpoint (see fault/checkpoint.hpp) to `checkpoint_path`
  /// every N completed runs; 0 disables checkpointing. The batched drivers
  /// round the cadence up to their batch barriers.
  std::size_t checkpoint_every = 0;
  std::string checkpoint_path;
  /// Testing / preemption hook: abandon run() after this many replays in
  /// the current call (0 = run to completion), writing a final checkpoint
  /// when checkpoint_path is set. The returned partial result has
  /// `interrupted == true`. The batched drivers preempt at the next batch
  /// barrier. This is how the CI kill-at-50% round-trip is driven without
  /// actually SIGKILLing the test runner.
  std::size_t preempt_after = 0;
  /// Snapshot-and-fork replay: supporting scenarios cache golden epoch
  /// snapshots per seed and execute only the divergent suffix of each
  /// faulty replay. Purely an execution optimization — results are bitwise
  /// identical either way (the snapshot-equivalence tests enforce this), so
  /// like `workers` it is not part of the checkpoint identity. The drivers
  /// apply it to every scenario they build (Campaign: to the one it is
  /// given), overriding whatever the factory set. Exec-mode
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
  /// across reruns and (for the batched drivers) across executors, because
  /// the records themselves are. Same per-fault schema as
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

/// Strategy state shared by the campaign drivers: fault generation under
/// the configured strategy, the guided weak-spot weights, and fault-space
/// coverage. Not thread-safe — drivers mutate it from one thread only (the
/// batched engine on the calling thread at batch barriers).
class CampaignState {
 public:
  CampaignState(std::vector<FaultType> types, sim::Time duration, const CampaignConfig& config);

  /// Generates the descriptor for `run_index`, drawing every random
  /// parameter from `rng` (the sequential driver passes one long-lived
  /// stream; the batched engine passes a per-run forked stream).
  [[nodiscard]] FaultDescriptor generate(std::size_t run_index, support::Xorshift& rng);

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

/// Builds the obs-layer progress snapshot every campaign driver reports
/// through their monitor. `wall_seconds` is host time since run() started.
/// `include_latency` fills the detection-latency percentiles — an O(records)
/// pass, so drivers request it only for final (on_complete) snapshots.
[[nodiscard]] obs::CampaignProgress progress_snapshot(const std::string& name,
                                                      const CampaignResult& result,
                                                      std::size_t runs_total, double coverage,
                                                      double wall_seconds,
                                                      bool include_latency = false);

struct CampaignCheckpoint;  // fault/checkpoint.hpp

class Campaign {
 public:
  Campaign(Scenario& scenario, CampaignConfig config);

  [[nodiscard]] CampaignResult run();

  /// Continues an interrupted campaign from a checkpoint to the same final
  /// result — byte-identical to an uninterrupted run() — by replaying the
  /// recorded prefix through the deterministic generation/learning machinery
  /// (no scenario re-execution for finished runs). ensure()-fails when the
  /// checkpoint's driver/scenario/config disagree with this campaign or the
  /// recorded descriptors do not regenerate identically.
  [[nodiscard]] CampaignResult resume(const CampaignCheckpoint& checkpoint);

  /// The golden observation the classification compares against.
  [[nodiscard]] const Observation& golden() const noexcept { return golden_; }

  /// Attaches a progress monitor: on_progress after every run, on_complete
  /// once at the end of run(). The monitor must outlive run(); nullptr
  /// detaches.
  void set_monitor(obs::CampaignMonitor* monitor) noexcept { monitor_ = monitor; }

  /// Attaches a metric registry: the finished result is published into it
  /// once at the end of run()/resume(). Must outlive run(); nullptr detaches.
  void set_metrics(obs::MetricRegistry* metrics) noexcept { metrics_ = metrics; }

 private:
  void ensure_golden();
  [[nodiscard]] CampaignResult execute(std::size_t start_run, CampaignResult result,
                                       support::Xorshift& rng, CampaignState& state);

  Scenario& scenario_;
  CampaignConfig config_;
  support::Xorshift rng_;
  Observation golden_;
  bool golden_valid_ = false;
  CampaignState state_;
  obs::CampaignMonitor* monitor_ = nullptr;
  obs::MetricRegistry* metrics_ = nullptr;
};

/// Builds a fresh Scenario instance. Called concurrently from pool threads
/// (each worker gets its own instance), so it must be thread-safe — plain
/// construction of independent scenarios is.
using ScenarioFactory = std::function<std::unique_ptr<Scenario>()>;

/// What a batched driver plugs into BatchedCampaign: the means to replay a
/// batch. It lives for one run()/resume() call.
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

/// The batch-barrier campaign engine behind both batched drivers. Each
/// batch is generated on the calling thread from per-run forked RNG streams
/// against the weights as of the last barrier, replayed by the driver's
/// executor, and folded — adaptive learning included — in run-index order
/// at the barrier, where the engine also reports progress, checkpoints and
/// honours preemption. Who executed a run can therefore never change the
/// CampaignResult (records, counts, coverage curve): it is bitwise
/// identical for any executor, worker count or fleet size, and a
/// checkpoint one batched driver writes, the other resumes.
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
  /// checkpoint, so no golden re-run happens.
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
  /// `driver` names the driver in error messages.
  BatchedCampaign(ScenarioFactory factory, CampaignConfig config, const char* driver);

  ScenarioFactory factory_;
  CampaignConfig config_;
  std::unique_ptr<Scenario> coordinator_;  // golden run + fault-space probe
  Observation golden_;

 private:
  /// The executor of one run()/resume() call, built once the golden
  /// observation is known.
  [[nodiscard]] virtual std::unique_ptr<BatchExecutor> make_executor() = 0;

  void ensure_coordinator();
  [[nodiscard]] CampaignResult execute(std::size_t start_run, CampaignResult result,
                                       CampaignState& state);

  const char* driver_ = nullptr;
  bool golden_valid_ = false;
  obs::CampaignMonitor* monitor_ = nullptr;
  obs::MetricRegistry* metrics_ = nullptr;
};

/// Batched in-process campaign driver: the replays of a batch fan out
/// across a work-stealing thread pool (CampaignConfig::workers threads)
/// onto per-worker scenario instances.
class ParallelCampaign final : public BatchedCampaign {
 public:
  ParallelCampaign(ScenarioFactory factory, CampaignConfig config);

 private:
  [[nodiscard]] std::unique_ptr<BatchExecutor> make_executor() override;
};

}  // namespace vps::fault
