// Unit tests of the campaign benchmark's own arithmetic: the percentile
// rule, the per-batch span split, the fold digest and prefix cross-check,
// and argv rejection.

#include <gtest/gtest.h>

#include <cmath>

#include "analysis.hpp"
#include "args.hpp"
#include "vps/apps/registry.hpp"
#include "vps/fault/codec.hpp"
#include "workloads.hpp"

namespace cb = campaign_bench;
namespace fault = vps::fault;

namespace {

// --- percentile rule --------------------------------------------------------

TEST(PercentileRule, TenSamplesBeyondTheRank) {
  EXPECT_FALSE(cb::percentile_supported(99, 900));  // rank 90, 9 beyond
  EXPECT_TRUE(cb::percentile_supported(100, 900));  // rank 90, 10 beyond
  EXPECT_FALSE(cb::percentile_supported(999, 990));
  EXPECT_TRUE(cb::percentile_supported(1000, 990));
  EXPECT_FALSE(cb::percentile_supported(19, 500));
  EXPECT_TRUE(cb::percentile_supported(20, 500));
  EXPECT_FALSE(cb::percentile_supported(0, 500));
}

TEST(PercentileRule, LinearInterpolationBetweenRanks) {
  EXPECT_DOUBLE_EQ(cb::percentile({}, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(cb::percentile({7}, 0.9), 7.0);
  EXPECT_DOUBLE_EQ(cb::percentile({4, 1, 3, 2}, 0.5), 2.5);  // unsorted input
  EXPECT_DOUBLE_EQ(cb::percentile({1, 2, 3, 4, 5}, 1.0), 5.0);
  std::vector<double> hundred;
  for (int i = 1; i <= 101; ++i) hundred.push_back(i);
  EXPECT_DOUBLE_EQ(cb::percentile(hundred, 0.9), 91.0);
}

TEST(SetupStatistic, MedianOfStridedMinima) {
  EXPECT_DOUBLE_EQ(cb::median_of_strided_minima({}, 4), 0.0);
  // A slow stretch (the middle third) raises no group's minimum.
  const std::vector<double> samples{1.0, 1.1, 1.2, 9.0, 9.1, 9.2, 1.3, 1.4, 1.5};
  EXPECT_DOUBLE_EQ(cb::median_of_strided_minima(samples, 3), 1.1);  // minima 1.0 1.1 1.2
  EXPECT_DOUBLE_EQ(cb::median_of_strided_minima(samples, 1), 1.0);
  // More groups than samples: one sample per group, i.e. the plain median.
  EXPECT_DOUBLE_EQ(cb::median_of_strided_minima({3.0, 1.0, 2.0}, 10), 2.0);
}

TEST(FailedRuns, ACrashedRunCountsOnce) {
  fault::CampaignResult result;
  result.outcome_counts[static_cast<std::size_t>(fault::Outcome::kNoEffect)] = 5;
  EXPECT_EQ(cb::failed_runs(result), 0u);
  // A crash is recorded as kSimCrash and its descriptor quarantined.
  result.outcome_counts[static_cast<std::size_t>(fault::Outcome::kSimCrash)] = 1;
  result.quarantine.push_back({fault::FaultDescriptor{}, "boom", 2});
  EXPECT_EQ(cb::failed_runs(result), 1u);
}

// --- per-batch span arithmetic ----------------------------------------------

cb::ReplaySample sample(std::uint64_t run, std::int64_t start, std::int64_t end,
                        std::uint32_t worker) {
  cb::ReplaySample s;
  s.run = run;
  s.start_ns = start;
  s.end_ns = end;
  s.pid = 100;
  s.tid = worker;
  return s;
}

TEST(BatchSpans, CoordinationAndStragglerWait) {
  // Two batches of two runs on two workers; barriers at 100 and 250.
  const std::vector<std::int64_t> barriers{100, 250};
  const std::vector<cb::ReplaySample> samples{
      sample(0, 10, 50, 0), sample(1, 12, 90, 1),      // batch 0: span 10..90
      sample(2, 120, 160, 0), sample(3, 121, 221, 1),  // batch 1: span 120..221
      sample(cb::kGoldenRun, 0, 5, 0),                 // ignored
  };
  const auto spans = cb::batch_spans(barriers, samples, 2);
  ASSERT_EQ(spans.size(), 2u);

  EXPECT_EQ(spans[0].open_ns, 10);  // first batch opens at its first replay
  EXPECT_DOUBLE_EQ(spans[0].interval_ns(), 90.0);
  EXPECT_DOUBLE_EQ(spans[0].replay_span_ns(), 80.0);
  EXPECT_DOUBLE_EQ(spans[0].busy_ns, 40.0 + 78.0);
  EXPECT_DOUBLE_EQ(spans[0].coord_ns(), 10.0);
  EXPECT_DOUBLE_EQ(spans[0].idle_ns(2), 80.0 - 59.0);

  EXPECT_EQ(spans[1].open_ns, 100);  // later batches open at the previous barrier
  EXPECT_DOUBLE_EQ(spans[1].interval_ns(), 150.0);
  EXPECT_DOUBLE_EQ(spans[1].replay_span_ns(), 101.0);
  EXPECT_DOUBLE_EQ(spans[1].coord_ns(), 49.0);
  EXPECT_DOUBLE_EQ(spans[1].mean_busy_ns(2), 70.0);
  EXPECT_DOUBLE_EQ(spans[1].idle_ns(2), 31.0);
}

TEST(BatchSpans, WallSplitPartitionsTheCampaignCall) {
  const std::vector<std::int64_t> barriers{100, 250};
  const std::vector<cb::ReplaySample> samples{sample(0, 10, 50, 0), sample(1, 12, 90, 1),
                                              sample(2, 120, 160, 0), sample(3, 121, 221, 1)};
  const auto spans = cb::batch_spans(barriers, samples, 2);
  const cb::WallSplit w = cb::split_wall(0, 260, spans, 2);
  EXPECT_DOUBLE_EQ(w.wall_ns, 260.0);
  EXPECT_DOUBLE_EQ(w.setup_ns, 10.0);
  EXPECT_DOUBLE_EQ(w.unattributed_ns(), 10.0);  // last barrier to return
  EXPECT_DOUBLE_EQ(w.replay_ns, 59.0 + 70.0);
  EXPECT_DOUBLE_EQ(w.idle_ns, 21.0 + 31.0);
  EXPECT_DOUBLE_EQ(w.coord_ns, 10.0 + 49.0);
  EXPECT_DOUBLE_EQ(w.attributed_ns() + w.unattributed_ns(), w.wall_ns);
}

TEST(BatchSpans, MissingSamplesShowAsUnattributed) {
  // Batch 1 has no sample: its interval (100..250) belongs to no layer.
  const std::vector<std::int64_t> barriers{100, 250, 400};
  const auto spans =
      cb::batch_spans(barriers, {sample(0, 10, 50, 0), sample(4, 260, 390, 0)}, 2);
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[1].open_ns, 250);
  const cb::WallSplit w = cb::split_wall(0, 410, spans, 1);
  EXPECT_DOUBLE_EQ(w.unattributed_ns(), 150.0 + 10.0);
}

// --- fold digest and prefix cross-check -----------------------------------

fault::CampaignResult acc_fold(std::size_t runs) {
  return fault::ParallelCampaign([] { return vps::apps::make_scenario("acc"); },
                                 cb::campaign_config(/*seed=*/7, runs))
      .run();
}

TEST(FoldDigest, ShorterCampaignFoldsToAPrefix) {
  const fault::CampaignResult longer = acc_fold(3 * cb::kBatchSize);
  const fault::CampaignResult shorter = acc_fold(2 * cb::kBatchSize);
  const cb::FoldCheck check = cb::check_prefix(longer, shorter);
  EXPECT_TRUE(check.ok());
  EXPECT_EQ(check.compared, 2 * cb::kBatchSize);
  EXPECT_EQ(check.digest, cb::fold_digest(shorter, shorter.records.size()));
  EXPECT_NE(cb::fold_digest(longer, longer.records.size()), check.digest);
}

TEST(FoldDigest, DetectsADivergentRecordOrCurvePoint) {
  const fault::CampaignResult reference = acc_fold(cb::kBatchSize);
  fault::CampaignResult fold = acc_fold(2 * cb::kBatchSize);

  fault::CampaignResult bad_record = fold;
  bad_record.records[5].fault.bit ^= 1;
  cb::FoldCheck check = cb::check_prefix(bad_record, reference);
  EXPECT_FALSE(check.ok());
  EXPECT_EQ(check.mismatched, 1u);
  EXPECT_EQ(check.first_mismatch, 5u);
  EXPECT_NE(check.digest, check.reference_digest);

  fault::CampaignResult bad_curve = fold;
  bad_curve.coverage_curve[9] = std::nextafter(bad_curve.coverage_curve[9], 2.0);
  check = cb::check_prefix(bad_curve, reference);
  EXPECT_FALSE(check.ok());
  EXPECT_EQ(check.first_mismatch, 9u);

  // A fold shorter than the reference cannot match it.
  fold.records.resize(3);
  fold.coverage_curve.resize(3);
  check = cb::check_prefix(fold, reference);
  EXPECT_FALSE(check.ok());
  EXPECT_EQ(check.first_mismatch, 3u);
}

TEST(FoldDigest, RecordLineIsTheCheckpointCodecLine) {
  const fault::CampaignResult fold = acc_fold(cb::kBatchSize);
  for (std::size_t i = 0; i < fold.records.size(); ++i) {
    const std::string line = cb::record_line(fold.records[i], i);
    const fault::codec::LineParser parser(line);
    EXPECT_EQ(cb::record_line(fault::codec::record_from(parser), i), line);
  }
}

// --- argv rejection -----------------------------------------------------------

cb::ParsedArgs parse(const std::vector<std::string>& argv) {
  return cb::parse_args(argv, cb::workload_names());
}

TEST(Args, AcceptsEveryWorkloadAndTheDefaults) {
  for (const std::string& name : cb::workload_names()) {
    const cb::ParsedArgs p = parse({"--workload", name});
    ASSERT_TRUE(p.args.has_value()) << p.error;
    EXPECT_EQ(p.args->seed, 2026u);
    EXPECT_EQ(p.args->seconds, 10u);
    EXPECT_FALSE(p.args->trace);
    EXPECT_EQ(p.args->runs, 0u);
  }
  const cb::ParsedArgs p = parse({"--workload", "acc_server", "--seed", "7", "--seconds", "3",
                                  "--trace", "1", "--runs", "160"});
  ASSERT_TRUE(p.args.has_value()) << p.error;
  EXPECT_EQ(p.args->seed, 7u);
  EXPECT_EQ(p.args->seconds, 3u);
  EXPECT_TRUE(p.args->trace);
  EXPECT_EQ(p.args->runs, 160u);
}

TEST(Args, RejectsBadInputWithAReason) {
  const std::vector<std::vector<std::string>> bad{
      {},                                                   // no workload
      {"--workload", "caps"},                               // unknown workload
      {"--workload"},                                       // missing value
      {"--workload", "caps_inproc", "--seed", "12x"},       // non-numeric
      {"--workload", "caps_inproc", "--seed", "-1"},        // negative
      {"--workload", "caps_inproc", "--seed", ""},          // empty
      {"--workload", "caps_inproc", "--runs", "0"},         // zero run count
      {"--workload", "caps_inproc", "--seconds", "0"},      // zero seconds
      {"--workload", "caps_inproc", "--seconds", "1e3"},    // not an integer
      {"--workload", "caps_inproc", "--trace", "2"},        // not 0/1
      {"--workload", "caps_inproc", "--verbose", "1"},      // unknown flag
      {"--workload", "caps_inproc", "--seed", "99999999999999999999"},  // overflow
  };
  for (const auto& argv : bad) {
    const cb::ParsedArgs p = parse(argv);
    EXPECT_FALSE(p.args.has_value());
    EXPECT_FALSE(p.error.empty());
  }
  EXPECT_NE(cb::usage(cb::workload_names()).find("caps_inproc|acc_server|bms_fleet_ckpt"),
            std::string::npos);
}

}  // namespace
