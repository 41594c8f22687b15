#pragma once

/// The benchmark's three workloads (twin x campaign driver) and one
/// end-to-end execution of a workload: build the driver, run the Fig. 3
/// campaign loop to completion, tear the executor down.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "analysis.hpp"
#include "probe.hpp"
#include "vps/dist/coordinator.hpp"
#include "vps/fault/campaign.hpp"
#include "vps/obs/campaign_monitor.hpp"

namespace campaign_bench {

enum class Executor {
  kInProcess,  ///< ParallelCampaign on a thread pool
  kServer,     ///< DistCampaign client -> in-process CampaignServer -> forked serve_pool workers
  kFleet,      ///< DistCampaign one-shot local fleet of forked workers
};

[[nodiscard]] const char* executor_name(Executor executor) noexcept;

struct Workload {
  std::string name;
  std::string scenario;  ///< app registry spec
  Executor executor;
  std::size_t workers;  ///< pool threads, pool workers or fleet size
  bool checkpoint;      ///< checkpoint_every = batch size, to a temp file
  /// Campaign size per second of --seconds, in batches (sized on a 4-core
  /// host so one campaign lasts about --seconds).
  double batches_per_second;
  std::size_t reference_batches;  ///< prefix the 1-thread reference replays
};

inline constexpr std::size_t kBatchSize = 16;
inline constexpr std::size_t kLocationBuckets = 8;
/// Enough batches that ten barrier intervals lie beyond the p90.
inline constexpr std::size_t kMinBatches = 101;

[[nodiscard]] const std::vector<Workload>& workloads();
[[nodiscard]] const Workload* find_workload(const std::string& name);
[[nodiscard]] std::vector<std::string> workload_names();

/// The shared campaign settings: guided strategy, 16-run batches, 8
/// location buckets, snapshot-fork replay on.
[[nodiscard]] vps::fault::CampaignConfig campaign_config(std::uint64_t seed, std::size_t runs);

/// Everything observed from outside during one execution.
struct Execution {
  vps::fault::CampaignResult result;
  std::string scenario_name;
  vps::fault::Observation golden;
  std::int64_t t0_ns = 0;   ///< workload start
  std::int64_t end_ns = 0;  ///< campaign call returned
  std::vector<std::int64_t> barriers_ns;  ///< CampaignMonitor::on_progress times
  /// Checkpoint file size at each barrier's save (checkpointing workloads).
  std::vector<std::uint64_t> checkpoint_bytes;
  vps::obs::CampaignProgress final_progress;
  vps::dist::FleetStats fleet;
  std::vector<ReplaySample> samples;

  /// Earliest faulty-replay start (the end of set-up); 0 without samples.
  [[nodiscard]] std::int64_t first_replay_ns() const noexcept;
};

/// Runs `workload` once with `config`, every scenario instance wrapped by
/// `probe`. Temporary files (checkpoint, worker samples) live in
/// `work_dir`. Worker processes are reaped before this returns.
[[nodiscard]] Execution execute(const Workload& workload, const vps::fault::CampaignConfig& config,
                                Probe& probe, const std::string& work_dir);

/// The in-process 1-thread reference fold of the same campaign's first
/// `batches` batches.
[[nodiscard]] vps::fault::CampaignResult reference_fold(const Workload& workload,
                                                        std::uint64_t seed, std::size_t batches);

}  // namespace campaign_bench
