#pragma once

/// Pure arithmetic behind the campaign benchmark's metrics: the percentile
/// rule, the per-batch span split (coordination vs replay vs straggler
/// wait), the wall-time layer split, and the fold digest that cross-checks
/// a workload against the in-process reference. Nothing here touches a
/// clock or a process, so every rule is unit-tested on hand-made inputs.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "vps/fault/campaign.hpp"

namespace campaign_bench {

// --- percentiles ------------------------------------------------------------

/// True when at least ten of `n` samples lie beyond the per-mille
/// percentile `per_mille` (nearest rank ceil(n * p)): p90 needs n >= 100,
/// p99 needs n >= 1000. A tail percentile with fewer samples beyond it is
/// one or two outliers, not a distribution.
[[nodiscard]] bool percentile_supported(std::size_t n, unsigned per_mille) noexcept;

/// Percentile `p` in [0, 1] by linear interpolation between closest ranks
/// (0 for an empty input).
[[nodiscard]] double percentile(std::vector<double> values, double p);

/// Median over `groups` strided groups (group g holds samples g, g + groups,
/// g + 2 * groups, ...) of each group's minimum. Samples taken in time order
/// land in a group spread over the whole sampling stretch, so a host that is
/// slow for a while slows whole groups only when it is slow in every one of
/// their stretches. 0 for an empty input; `groups` is clamped to 1..size.
[[nodiscard]] double median_of_strided_minima(const std::vector<double>& samples,
                                              std::size_t groups);

/// Runs of `result` that failed: crashed replays (Outcome::kSimCrash). Each
/// of them is also in the quarantine, so the quarantine is not added again.
[[nodiscard]] std::uint64_t failed_runs(const vps::fault::CampaignResult& result) noexcept;

// --- replay samples and per-batch spans -------------------------------------

/// Run index of the golden run's sample.
inline constexpr std::uint64_t kGoldenRun = ~std::uint64_t{0};

/// One timed Scenario::run call. Times are steady-clock nanoseconds, which
/// are comparable across the processes of one host (CLOCK_MONOTONIC).
struct ReplaySample {
  std::uint64_t run = 0;  ///< campaign run index, or kGoldenRun
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t pid = 0;
  std::uint32_t tid = 0;  ///< per-process thread number
  bool cold = false;      ///< first run of its scenario instance for the seed
};

/// One batch between two barriers. The interval runs from the previous
/// barrier (the first batch: from its first replay start) to this one.
struct BatchSpan {
  std::size_t batch = 0;  ///< batch index (runs batch*size .. batch*size+size-1)
  std::int64_t open_ns = 0;
  std::int64_t barrier_ns = 0;
  std::int64_t first_start_ns = 0;  ///< earliest replay start of the batch
  std::int64_t last_end_ns = 0;     ///< latest replay end of the batch
  std::size_t replays = 0;
  double busy_ns = 0;  ///< sum of the batch's replay durations

  [[nodiscard]] double interval_ns() const noexcept {
    return static_cast<double>(barrier_ns - open_ns);
  }
  [[nodiscard]] double replay_span_ns() const noexcept {
    return static_cast<double>(last_end_ns - first_start_ns);
  }
  /// Mean per-worker busy time inside the replay span.
  [[nodiscard]] double mean_busy_ns(std::size_t workers) const noexcept;
  /// Straggler wait: replay span minus mean per-worker busy time.
  [[nodiscard]] double idle_ns(std::size_t workers) const noexcept;
  /// Coordination: barrier interval minus replay span (generate, dispatch,
  /// fold, learn, checkpoint).
  [[nodiscard]] double coord_ns() const noexcept { return interval_ns() - replay_span_ns(); }
};

/// Splits faulty-replay samples into batches of `batch_size` run indices
/// and pairs them with the barrier times. Batches without a sample are
/// dropped; golden samples are ignored.
[[nodiscard]] std::vector<BatchSpan> batch_spans(const std::vector<std::int64_t>& barriers_ns,
                                                 const std::vector<ReplaySample>& samples,
                                                 std::size_t batch_size);

/// Where the wall time of one campaign call went. Every layer part is a
/// disjoint interval of the driving process's timeline; what no part covers
/// (after the last barrier: fleet shutdown, finalize; or a batch without
/// samples) is the unattributed remainder.
struct WallSplit {
  double wall_ns = 0;
  double setup_ns = 0;   ///< workload start to the first faulty replay start
  double replay_ns = 0;  ///< sum over batches of mean per-worker busy time
  double idle_ns = 0;    ///< sum over batches of straggler wait
  double coord_ns = 0;   ///< sum over batches of coordination

  [[nodiscard]] double attributed_ns() const noexcept {
    return setup_ns + replay_ns + idle_ns + coord_ns;
  }
  [[nodiscard]] double unattributed_ns() const noexcept { return wall_ns - attributed_ns(); }
};
[[nodiscard]] WallSplit split_wall(std::int64_t t0_ns, std::int64_t end_ns,
                                   const std::vector<BatchSpan>& spans, std::size_t workers);

// --- fold digest ------------------------------------------------------------

/// The checkpoint codec's line for one record: {"kind":"record",...} exactly
/// as fault::to_jsonl writes it, minus the CRC trailer.
[[nodiscard]] std::string record_line(const vps::fault::RunRecord& record, std::size_t run_index);

/// CRC-32 over the first `runs` records' codec lines (newline-terminated)
/// followed by the bit patterns of the first `runs` coverage-curve points.
[[nodiscard]] std::uint32_t fold_digest(const vps::fault::CampaignResult& result,
                                        std::size_t runs);

/// Outcome of checking a fold against a reference that ran a whole-batch
/// prefix of the same campaign.
struct FoldCheck {
  std::size_t compared = 0;    ///< runs in the reference prefix
  std::size_t mismatched = 0;  ///< runs whose record line or curve point differ
  std::size_t first_mismatch = 0;
  std::uint32_t digest = 0;            ///< of the checked fold's prefix
  std::uint32_t reference_digest = 0;  ///< of the reference
  [[nodiscard]] bool ok() const noexcept { return mismatched == 0 && digest == reference_digest; }
};
[[nodiscard]] FoldCheck check_prefix(const vps::fault::CampaignResult& fold,
                                     const vps::fault::CampaignResult& reference);

}  // namespace campaign_bench
