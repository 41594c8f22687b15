// Parallel campaign executor tests: the thread pool's parallel_for, where
// the in-process executor replays, keyed RNG forking (independence +
// collision sanity), order-independent coverage/result merges, and the
// headline guarantee — a ParallelCampaign produces a bitwise-identical
// CampaignResult for any worker count.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "campaign_compare.hpp"
#include "checkpoint_saves.hpp"
#include "vps/apps/caps.hpp"
#include "vps/apps/registry.hpp"
#include "vps/coverage/coverage.hpp"
#include "vps/fault/campaign.hpp"
#include "vps/fault/checkpoint.hpp"
#include "vps/obs/provenance.hpp"
#include "vps/support/ensure.hpp"
#include "vps/support/rng.hpp"
#include "vps/support/thread_pool.hpp"

namespace {

using namespace vps::fault;
using vps::apps::CapsConfig;
using vps::apps::CapsScenario;
using vps::coverage::FaultSpaceCoverage;
using vps::sim::Time;
using vps::support::ThreadPool;
using vps::support::Xorshift;
using vps_test::expect_identical;

// --------------------------------------------------------------------------
// Thread pool
// --------------------------------------------------------------------------

TEST(ThreadPoolTest, ParallelForCoversEveryIndexOnce) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.worker_count(), 3u);
  std::vector<std::atomic<int>> hits(257);
  std::atomic<bool> worker_in_range{true};
  pool.parallel_for(hits.size(), [&](std::size_t worker, std::size_t i) {
    if (worker >= 3) worker_in_range.store(false);
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  EXPECT_TRUE(worker_in_range.load());
}

TEST(ThreadPoolTest, EachWorkersIndicesAscend) {
  // Indices come from one counter in ascending order, so whatever share a
  // worker takes, it takes it in index order.
  ThreadPool pool(4);
  std::vector<std::vector<std::size_t>> taken(pool.worker_count());
  for (int job = 0; job < 3; ++job) {
    for (auto& t : taken) t.clear();
    pool.parallel_for(1000, [&taken](std::size_t worker, std::size_t i) {
      taken[worker].push_back(i);  // only `worker`'s thread touches its slot
    });
    std::size_t total = 0;
    for (const auto& t : taken) {
      EXPECT_TRUE(std::is_sorted(t.begin(), t.end()));
      total += t.size();
    }
    EXPECT_EQ(total, 1000u);
  }
}

TEST(ThreadPoolTest, OneWorkerRunsEveryIndexOnTheCallingThreadInOrder) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.worker_count(), 1u);
  std::vector<std::size_t> order;
  std::vector<std::size_t> workers;
  std::vector<std::thread::id> threads;
  pool.parallel_for(50, [&](std::size_t worker, std::size_t i) {
    order.push_back(i);
    workers.push_back(worker);
    threads.push_back(std::this_thread::get_id());
  });
  ASSERT_EQ(order.size(), 50u);
  for (std::size_t i = 0; i < order.size(); ++i) {
    EXPECT_EQ(order[i], i);
    EXPECT_EQ(workers[i], 0u);
    EXPECT_EQ(threads[i], std::this_thread::get_id());
  }
}

TEST(ThreadPoolTest, ParallelForPropagatesException) {
  ThreadPool pool(3);
  std::atomic<int> ran{0};
  EXPECT_THROW(pool.parallel_for(64,
                                 [&ran](std::size_t, std::size_t i) {
                                   ran.fetch_add(1, std::memory_order_relaxed);
                                   if (i % 7 == 5) throw std::runtime_error("boom");
                                 }),
               std::runtime_error);
  EXPECT_EQ(ran.load(), 64);  // the failures did not cut the job short
  // The error is consumed by the rethrow: the pool stays usable.
  std::atomic<int> counter{0};
  pool.parallel_for(8, [&counter](std::size_t, std::size_t) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 8);
}

TEST(ThreadPoolTest, ZeroWorkersClampsToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.worker_count(), 1u);
  std::atomic<int> counter{0};
  pool.parallel_for(5, [&counter](std::size_t, std::size_t) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 5);
}

// --------------------------------------------------------------------------
// Keyed Xorshift fork
// --------------------------------------------------------------------------

TEST(XorshiftForkKeyed, SameKeySameStreamAndDoesNotAdvanceParent) {
  const Xorshift base(123);
  Xorshift a = base.fork(7);
  Xorshift b = base.fork(7);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(a.next(), b.next());
  // Forking never advanced the parent: a fresh copy forks identically.
  Xorshift c = Xorshift(123).fork(7);
  Xorshift d = base.fork(7);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(c.next(), d.next());
}

TEST(XorshiftForkKeyed, StreamsAreDistinctAcrossKeysAndSeeds) {
  const Xorshift base(99);
  std::set<std::uint64_t> firsts;
  for (std::uint64_t key = 0; key < 4096; ++key) {
    firsts.insert(base.fork(key).next());
  }
  EXPECT_EQ(firsts.size(), 4096u) << "first draws of keyed streams collided";
  // Different base seeds give different streams for the same key.
  EXPECT_NE(Xorshift(1).fork(0).next(), Xorshift(2).fork(0).next());
}

TEST(XorshiftForkKeyed, StreamsLookIndependent) {
  // Cheap independence sanity: the mean of the first uniform draw over many
  // consecutive keys must be near 0.5 (adjacent-key correlation would skew
  // it), and consecutive streams must not be shifted copies of each other.
  const Xorshift base(2026);
  double sum = 0.0;
  const int n = 4096;
  for (int key = 0; key < n; ++key) sum += base.fork(static_cast<std::uint64_t>(key)).uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.02);

  Xorshift s0 = base.fork(0);
  Xorshift s1 = base.fork(1);
  std::vector<std::uint64_t> draws0(16), draws1(16);
  for (auto& v : draws0) v = s0.next();
  for (auto& v : draws1) v = s1.next();
  int matches = 0;
  for (int lag = 0; lag < 8; ++lag) {
    for (int i = 0; i + lag < 16; ++i) matches += draws0[i + lag] == draws1[i];
  }
  EXPECT_EQ(matches, 0) << "consecutive keyed streams overlap";
}

// --------------------------------------------------------------------------
// Order-independent merges
// --------------------------------------------------------------------------

TEST(FaultSpaceCoverageMerge, MergeOrderDoesNotMatter) {
  const auto build = [] { return FaultSpaceCoverage(3, 4, 2); };
  FaultSpaceCoverage shard_a = build();
  shard_a.sample(0, 1, 0.1);
  shard_a.sample(2, 3, 0.9);
  FaultSpaceCoverage shard_b = build();
  shard_b.sample(1, 0, 0.4);
  shard_b.sample(2, 3, 0.2);

  FaultSpaceCoverage ab = build();
  ab.merge(shard_a);
  ab.merge(shard_b);
  FaultSpaceCoverage ba = build();
  ba.merge(shard_b);
  ba.merge(shard_a);
  EXPECT_DOUBLE_EQ(ab.coverage(), ba.coverage());
  EXPECT_EQ(ab.samples(), ba.samples());
  EXPECT_EQ(ab.samples(), 4u);

  // Merging shards equals sampling everything into one instance.
  FaultSpaceCoverage direct = build();
  direct.sample(0, 1, 0.1);
  direct.sample(2, 3, 0.9);
  direct.sample(1, 0, 0.4);
  direct.sample(2, 3, 0.2);
  EXPECT_DOUBLE_EQ(ab.coverage(), direct.coverage());
  EXPECT_EQ(ab.report(), direct.report());
}

TEST(FaultSpaceCoverageMerge, ShapeMismatchThrows) {
  FaultSpaceCoverage a(2, 4, 2);
  FaultSpaceCoverage b(3, 4, 2);
  EXPECT_THROW(a.merge(b), vps::support::InvariantError);
}

TEST(CampaignResultMerge, AggregatesShardStatistics) {
  CampaignResult a;
  a.outcome_counts[static_cast<std::size_t>(Outcome::kNoEffect)] = 8;
  a.outcome_counts[static_cast<std::size_t>(Outcome::kHazard)] = 2;
  a.runs_executed = 10;
  a.records.resize(10);
  a.faults_to_first_hazard = 0;

  CampaignResult b;
  b.outcome_counts[static_cast<std::size_t>(Outcome::kHazard)] = 1;
  b.outcome_counts[static_cast<std::size_t>(Outcome::kTimeout)] = 4;
  b.runs_executed = 5;
  b.records.resize(5);
  b.faults_to_first_hazard = 3;

  a.merge(b);
  EXPECT_EQ(a.runs_executed, 15u);
  EXPECT_EQ(a.count(Outcome::kHazard), 3u);
  EXPECT_EQ(a.count(Outcome::kTimeout), 4u);
  EXPECT_EQ(a.records.size(), 15u);
  // First hazard of the merged sequence: shard b's hazard at offset 10.
  EXPECT_EQ(a.faults_to_first_hazard, 13u);
  EXPECT_NEAR(a.hazard_probability.estimate, 3.0 / 15.0, 1e-12);

  // Counts commute: merging in the other order gives the same tallies.
  CampaignResult a2;
  a2.outcome_counts[static_cast<std::size_t>(Outcome::kNoEffect)] = 8;
  a2.outcome_counts[static_cast<std::size_t>(Outcome::kHazard)] = 2;
  a2.runs_executed = 10;
  CampaignResult b2 = b;
  b2.records.clear();
  b2.merge(a2);
  EXPECT_EQ(b2.outcome_counts, a.outcome_counts);
}

// --------------------------------------------------------------------------
// ParallelCampaign determinism
// --------------------------------------------------------------------------

ScenarioFactory caps_factory(bool crash) {
  return [crash] {
    return std::make_unique<CapsScenario>(
        CapsConfig{.crash = crash, .duration = Time::ms(10)});
  };
}

CampaignResult run_parallel(Strategy strategy, std::size_t workers, std::size_t runs) {
  CampaignConfig cfg;
  cfg.runs = runs;
  cfg.seed = 42;
  cfg.strategy = strategy;
  cfg.location_buckets = 8;
  cfg.workers = workers;
  ParallelCampaign campaign(caps_factory(/*crash=*/false), cfg);
  return campaign.run();
}

TEST(ParallelCampaignTest, BitwiseIdenticalAcrossWorkerCounts) {
  for (const auto strategy : {Strategy::kMonteCarlo, Strategy::kGuided,
                              Strategy::kCoverageDriven, Strategy::kExhaustiveGrid}) {
    SCOPED_TRACE(to_string(strategy));
    const auto w1 = run_parallel(strategy, 1, 24);
    const auto w2 = run_parallel(strategy, 2, 24);
    const auto w8 = run_parallel(strategy, 8, 24);
    expect_identical(w1, w2);
    expect_identical(w1, w8);
  }
}

TEST(ParallelCampaignTest, RunsClassifiesAndCovers) {
  const auto result = run_parallel(Strategy::kMonteCarlo, 4, 30);
  EXPECT_EQ(result.runs_executed, 30u);
  std::uint64_t total = 0;
  for (auto c : result.outcome_counts) total += c;
  EXPECT_EQ(total, 30u);
  EXPECT_EQ(result.records.size(), 30u);
  EXPECT_EQ(result.coverage_curve.size(), 30u);
  EXPECT_GT(result.final_coverage, 0.0);
  // Fault ids are assigned in run order by the coordinator.
  for (std::size_t i = 0; i < result.records.size(); ++i) {
    EXPECT_EQ(result.records[i].fault.id, i + 1);
  }
}

TEST(ParallelCampaignTest, StopAfterHazardsTrimsDeterministically) {
  CampaignConfig cfg;
  cfg.runs = 100;
  cfg.seed = 11;
  cfg.stop_after_hazards = 1;
  cfg.location_buckets = 8;

  cfg.workers = 1;
  const auto w1 = ParallelCampaign(caps_factory(/*crash=*/true), cfg).run();
  cfg.workers = 8;
  const auto w8 = ParallelCampaign(caps_factory(/*crash=*/true), cfg).run();
  expect_identical(w1, w8);
  if (w1.count(Outcome::kHazard) > 0) {
    EXPECT_EQ(w1.runs_executed, w1.faults_to_first_hazard);
    EXPECT_LT(w1.runs_executed, 100u);
  }
}

// --------------------------------------------------------------------------
// Crash isolation
// --------------------------------------------------------------------------

/// Wraps CapsScenario and throws for every descriptor whose id is divisible
/// by `crash_every` — a deterministic stand-in for a buggy injector/model.
class CrashyCaps final : public Scenario {
 public:
  explicit CrashyCaps(std::uint64_t crash_every) : inner_(CapsConfig{.duration = Time::ms(10)}),
                                                   crash_every_(crash_every) {}
  [[nodiscard]] std::string name() const override { return inner_.name(); }
  [[nodiscard]] vps::sim::Time duration() const override { return inner_.duration(); }
  [[nodiscard]] std::vector<FaultType> fault_types() const override {
    return inner_.fault_types();
  }
  [[nodiscard]] Observation run(const FaultDescriptor* fault, std::uint64_t seed) override {
    if (fault != nullptr && fault->id % crash_every_ == 0) {
      throw std::runtime_error("simulated model crash for fault " + std::to_string(fault->id));
    }
    return inner_.run(fault, seed);
  }

 private:
  CapsScenario inner_;
  std::uint64_t crash_every_;
};

TEST(ParallelCampaignTest, CrashingReplaysQuarantineAndStayDeterministic) {
  CampaignConfig cfg;
  cfg.runs = 24;
  cfg.seed = 42;
  cfg.location_buckets = 8;
  cfg.crash_retries = 1;
  const auto crashy_factory = [] { return std::make_unique<CrashyCaps>(5); };

  cfg.workers = 1;
  const auto w1 = ParallelCampaign(crashy_factory, cfg).run();
  cfg.workers = 4;
  const auto w4 = ParallelCampaign(crashy_factory, cfg).run();
  cfg.workers = 8;
  const auto w8 = ParallelCampaign(crashy_factory, cfg).run();
  expect_identical(w1, w4);
  expect_identical(w1, w8);

  // Every fifth descriptor crashed; the campaign completed all other runs.
  EXPECT_EQ(w1.runs_executed, 24u);
  EXPECT_EQ(w1.count(Outcome::kSimCrash), 24u / 5);
  ASSERT_EQ(w1.quarantine.size(), 24u / 5);
  for (const auto& q : w1.quarantine) {
    EXPECT_EQ(q.fault.id % 5, 0u);
    EXPECT_NE(q.what.find("simulated model crash"), std::string::npos);
    EXPECT_EQ(q.attempts, 2u);  // first try + one retry
  }
  // Quarantined descriptors carry their diagnostics in the record too.
  for (const auto& rec : w1.records) {
    EXPECT_EQ(rec.outcome == Outcome::kSimCrash, !rec.crash_what.empty());
  }
  // The quarantine shows up in the weak-spot report instead of vanishing.
  EXPECT_NE(w1.render_weak_spots().find("quarantine"), std::string::npos);
}

TEST(ParallelCampaignTest, CrashRetriesAreDeterministicPerDescriptor) {
  // Re-running the same crashing campaign reproduces the same quarantine —
  // retries do not inject host nondeterminism into the result.
  CampaignConfig cfg;
  cfg.runs = 20;
  cfg.seed = 7;
  cfg.location_buckets = 8;
  cfg.workers = 4;
  cfg.crash_retries = 3;
  const auto factory = [] { return std::make_unique<CrashyCaps>(3); };
  const auto first = ParallelCampaign(factory, cfg).run();
  const auto second = ParallelCampaign(factory, cfg).run();
  expect_identical(first, second);
  EXPECT_GT(first.quarantine.size(), 0u);
  for (const auto& q : first.quarantine) EXPECT_EQ(q.attempts, 4u);
}

// --------------------------------------------------------------------------
// Where the in-process executor replays
// --------------------------------------------------------------------------

/// Wraps CapsScenario and records, for every faulty replay, the thread it
/// ran on and the instance it ran on.
class ProbeCaps final : public Scenario {
 public:
  struct Replay {
    std::thread::id thread;
    const Scenario* instance;
  };

  ProbeCaps() : inner_(CapsConfig{.duration = Time::ms(10)}) {}
  [[nodiscard]] std::string name() const override { return inner_.name(); }
  [[nodiscard]] vps::sim::Time duration() const override { return inner_.duration(); }
  [[nodiscard]] std::vector<FaultType> fault_types() const override {
    return inner_.fault_types();
  }
  [[nodiscard]] Observation run(const FaultDescriptor* fault, std::uint64_t seed) override {
    if (fault != nullptr) {
      std::lock_guard<std::mutex> lock(mutex_);
      replays_.push_back({std::this_thread::get_id(), this});
    }
    return inner_.run(fault, seed);
  }
  [[nodiscard]] std::vector<Replay> replays() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return replays_;
  }

 private:
  CapsScenario inner_;
  mutable std::mutex mutex_;
  std::vector<Replay> replays_;
};

TEST(InProcessExecutorTest, CampaignReplaysOnTheCallersScenarioOnTheCallingThread) {
  ProbeCaps scenario;
  CampaignConfig cfg;
  cfg.runs = 12;
  cfg.seed = 42;
  cfg.location_buckets = 8;
  cfg.workers = 4;  // ParallelCampaign's knob: Campaign runs one worker
  const CampaignResult result = Campaign(scenario, cfg).run();
  EXPECT_EQ(result.runs_executed, 12u);
  const std::vector<ProbeCaps::Replay> replays = scenario.replays();
  ASSERT_EQ(replays.size(), 12u);
  for (const auto& r : replays) {
    EXPECT_EQ(r.thread, std::this_thread::get_id());
    EXPECT_EQ(r.instance, &scenario);
  }
}

TEST(InProcessExecutorTest, ParallelCampaignBuildsAtMostOneScenarioPerWorker) {
  // Worker 0 replays on the coordinator, so W workers need at most W
  // instances, the coordinator included, and one worker needs exactly one.
  for (const std::size_t workers : {1u, 2u, 4u}) {
    SCOPED_TRACE(workers);
    std::atomic<std::size_t> built{0};
    const ScenarioFactory factory = [&built] {
      built.fetch_add(1, std::memory_order_relaxed);
      return std::make_unique<CapsScenario>(CapsConfig{.duration = Time::ms(10)});
    };
    CampaignConfig cfg;
    cfg.runs = 40;
    cfg.seed = 42;
    cfg.location_buckets = 8;
    cfg.batch_size = 8;
    cfg.workers = workers;
    ParallelCampaign campaign(factory, cfg);
    EXPECT_EQ(campaign.run().runs_executed, 40u);
    if (workers == 1) {
      EXPECT_EQ(built.load(), 1u);
    } else {
      EXPECT_LE(built.load(), workers);
    }
  }
}

// --------------------------------------------------------------------------
// Exact coverage recompute on merge
// --------------------------------------------------------------------------

TEST(CampaignResultMerge, RecomputesCoverageFromDisjointShards) {
  // Two shards covering disjoint fault classes: the exact merged coverage is
  // strictly greater than either shard's own, so a max() fallback would be
  // visibly wrong.
  auto cov_a = std::make_shared<FaultSpaceCoverage>(2, 2, 2);
  cov_a->sample(0, 0, 0.1);
  cov_a->sample(0, 1, 0.6);
  auto cov_b = std::make_shared<FaultSpaceCoverage>(2, 2, 2);
  cov_b->sample(1, 0, 0.1);
  cov_b->sample(1, 1, 0.6);

  CampaignResult a;
  a.runs_executed = 2;
  a.final_coverage = cov_a->coverage();
  a.coverage = cov_a;
  CampaignResult b;
  b.runs_executed = 2;
  b.final_coverage = cov_b->coverage();
  b.coverage = cov_b;

  FaultSpaceCoverage expected(2, 2, 2);
  expected.merge(*cov_a);
  expected.merge(*cov_b);

  a.merge(b);
  EXPECT_DOUBLE_EQ(a.final_coverage, expected.coverage());
  EXPECT_GT(a.final_coverage, cov_a->coverage());
  EXPECT_GT(a.final_coverage, cov_b->coverage());
  ASSERT_NE(a.coverage, nullptr);
  EXPECT_EQ(a.coverage->samples(), 4u);
  // The inputs were copied, not mutated.
  EXPECT_EQ(cov_a->samples(), 2u);
  EXPECT_EQ(cov_b->samples(), 2u);

  // Without a shard on one side the merge falls back to the max lower bound
  // (and adopts the surviving shard for later merges).
  CampaignResult c;
  c.runs_executed = 1;
  c.final_coverage = 0.9;
  CampaignResult d = c;
  d.merge(a);
  EXPECT_DOUBLE_EQ(d.final_coverage, std::max(0.9, a.final_coverage));
  EXPECT_EQ(d.coverage, a.coverage);
}

TEST(ParallelCampaignTest, BatchSizeIsPartOfTheContractWorkersAreNot) {
  // Same batch size, different workers: identical (tested above). Here the
  // converse sanity: an explicit batch size still reproduces across worker
  // counts, even when it does not divide the run count.
  CampaignConfig cfg;
  cfg.runs = 25;
  cfg.seed = 5;
  cfg.strategy = Strategy::kGuided;
  cfg.location_buckets = 8;
  cfg.batch_size = 7;
  cfg.workers = 2;
  const auto a = ParallelCampaign(caps_factory(false), cfg).run();
  cfg.workers = 5;
  const auto b = ParallelCampaign(caps_factory(false), cfg).run();
  expect_identical(a, b);
  EXPECT_EQ(a.runs_executed, 25u);
}

// --------------------------------------------------------------------------
// Provenance across workers + checkpoints
// --------------------------------------------------------------------------

ScenarioFactory traced_caps_factory() {
  return [] {
    return std::make_unique<CapsScenario>(
        CapsConfig{.duration = Time::ms(10), .provenance = true});
  };
}

TEST(ParallelCampaignTest, ProvenanceExportsAreWorkerCountInvariant) {
  // The headline determinism guarantee extended to the provenance layer:
  // JSONL/DOT exports and the latency table are byte-identical for any
  // worker count and across reruns, because the per-run DAGs ride on the
  // records and every aggregate is recomputed from them in run order.
  CampaignConfig cfg;
  cfg.runs = 18;
  cfg.seed = 7;
  cfg.location_buckets = 8;
  cfg.workers = 1;
  const auto w1 = ParallelCampaign(traced_caps_factory(), cfg).run();
  cfg.workers = 2;
  const auto w2 = ParallelCampaign(traced_caps_factory(), cfg).run();
  cfg.workers = 8;
  const auto w8 = ParallelCampaign(traced_caps_factory(), cfg).run();
  expect_identical(w1, w2);
  expect_identical(w1, w8);

  const std::string jsonl = w1.provenance_jsonl();
  EXPECT_FALSE(jsonl.empty());
  EXPECT_EQ(jsonl, w2.provenance_jsonl());
  EXPECT_EQ(jsonl, w8.provenance_jsonl());
  EXPECT_EQ(w1.provenance_dot(), w2.provenance_dot());
  EXPECT_EQ(w1.provenance_dot(), w8.provenance_dot());
  EXPECT_EQ(w1.render_latency(), w2.render_latency());
  EXPECT_EQ(w1.render_latency(), w8.render_latency());

  // Rerun with the same config: still the same bytes.
  cfg.workers = 2;
  EXPECT_EQ(ParallelCampaign(traced_caps_factory(), cfg).run().provenance_jsonl(), jsonl);

  // The latency table is well-formed: every traced run appears under exactly
  // one fault type, detections never exceed traced runs, and at least one
  // fault was actually traced through the model.
  std::uint64_t traced = 0;
  for (const auto& s : w1.detection_latency_stats()) {
    EXPECT_LE(s.detected, s.traced);
    traced += s.traced;
  }
  EXPECT_GT(traced, 0u);
  EXPECT_LE(traced, w1.runs_executed);
}

// --------------------------------------------------------------------------
// Checkpoint saves at the batch barriers
// --------------------------------------------------------------------------

TEST(ParallelCampaignTest, CheckpointSavesEqualToJsonlOfTheSamePrefix) {
  const std::string path = vps_test::temp_path("vps_par_saves.jsonl");
  std::remove(path.c_str());
  const ScenarioFactory factory = [] { return vps::apps::make_scenario("bms:runaway:prov"); };
  CampaignConfig cfg;
  cfg.runs = 64;
  cfg.seed = 2026;
  cfg.strategy = Strategy::kGuided;
  cfg.location_buckets = 8;
  cfg.batch_size = 8;
  cfg.workers = 4;
  cfg.checkpoint_every = 16;
  cfg.preempt_after = 40;  // a barrier off the save cadence
  cfg.checkpoint_path = path;
  ParallelCampaign campaign(factory, cfg);
  vps_test::CheckpointSaveRecorder recorder(path);
  campaign.set_monitor(&recorder);
  const CampaignResult partial = campaign.run();
  recorder.finish();
  ASSERT_TRUE(partial.interrupted);
  ASSERT_EQ(partial.runs_executed, 40u);
  EXPECT_FALSE(partial.provenance_jsonl().empty()) << "the saved records must carry provenance";

  CampaignCheckpoint head;
  head.driver = "parallel_campaign";
  head.scenario = factory()->name();
  head.config = cfg;
  head.golden = campaign.golden();
  vps_test::expect_saves_are_prefixes(recorder.saves(), head, partial.records, {16, 32, 40});
  std::remove(path.c_str());
}

TEST(ParallelCampaignTest, MidBatchHazardStopSavesTheCutPrefix) {
  const std::string path = vps_test::temp_path("vps_par_stop_saves.jsonl");
  std::remove(path.c_str());
  const ScenarioFactory factory = [] { return vps::apps::make_scenario("bms:runaway:prov"); };
  CampaignConfig cfg;
  cfg.runs = 100;
  cfg.seed = 2;  // first hazard at run 59, inside the eighth batch
  cfg.location_buckets = 8;
  cfg.batch_size = 8;
  cfg.workers = 4;
  cfg.stop_after_hazards = 1;
  cfg.checkpoint_every = 1;  // every barrier saves, the cut one included
  cfg.checkpoint_path = path;
  ParallelCampaign campaign(factory, cfg);
  vps_test::CheckpointSaveRecorder recorder(path);
  campaign.set_monitor(&recorder);
  const CampaignResult result = campaign.run();
  recorder.finish();
  ASSERT_EQ(result.count(Outcome::kHazard), 1u);
  ASSERT_NE(result.runs_executed % cfg.batch_size, 0u) << "the stop must cut a batch short";

  std::vector<std::size_t> sizes;
  for (std::size_t n = cfg.batch_size; n < result.runs_executed; n += cfg.batch_size) {
    sizes.push_back(n);
  }
  sizes.push_back(result.runs_executed);
  CampaignCheckpoint head;
  head.driver = "parallel_campaign";
  head.scenario = factory()->name();
  head.config = cfg;
  head.golden = campaign.golden();
  vps_test::expect_saves_are_prefixes(recorder.saves(), head, result.records, sizes);
  std::remove(path.c_str());
}

TEST(Checkpoint, V2RoundTripsProvenanceRecords) {
  using vps::obs::FaultProvenance;
  using vps::obs::HopKind;
  using vps::obs::ProvenanceNode;

  CampaignCheckpoint cp;
  cp.driver = "parallel_campaign";
  cp.scenario = "toy";
  cp.config.runs = 4;
  cp.config.seed = 1;
  cp.golden.completed = true;

  RunRecord rec;
  rec.fault.id = 1;
  rec.fault.type = FaultType::kMemoryBitFlip;
  rec.outcome = Outcome::kDetectedCorrected;
  FaultProvenance fp;
  fp.fault_id = 2;
  fp.label = "mem_bit_flip#1";
  fp.nodes.push_back(
      ProvenanceNode{"inject:mem_bit_flip", HopKind::kInjection, Time::us(3), -1, 0});
  fp.nodes.push_back(ProvenanceNode{"mem:ram", HopKind::kPropagation, Time::us(4), 0, 1});
  fp.nodes.push_back(ProvenanceNode{"hw.ecc:ram", HopKind::kDetection, Time::us(5), 1, 2});
  rec.provenance.push_back(fp);
  cp.records.push_back(rec);

  const std::string text = to_jsonl(cp);
  EXPECT_NE(text.find("\"version\":" + std::to_string(CampaignCheckpoint::kVersion)),
            std::string::npos);
  EXPECT_NE(text.find("\"prov0\""), std::string::npos);

  const CampaignCheckpoint back = checkpoint_from_jsonl(text);
  ASSERT_EQ(back.records.size(), 1u);
  ASSERT_EQ(back.records[0].provenance.size(), 1u);
  const FaultProvenance& got = back.records[0].provenance[0];
  EXPECT_EQ(got.fault_id, 2u);
  EXPECT_EQ(got.label, "mem_bit_flip#1");
  EXPECT_EQ(got.encode(), fp.encode());
  ASSERT_TRUE(got.detection_latency().has_value());
  EXPECT_EQ(*got.detection_latency(), Time::us(2));
  EXPECT_EQ(to_jsonl(back), text);

  // A record without provenance serializes without prov fields, and the line
  // still parses — i.e. the v2 field is genuinely optional (v1 shape).
  cp.records[0].provenance.clear();
  const std::string v1ish = to_jsonl(cp);
  EXPECT_EQ(v1ish.find("\"prov0\""), std::string::npos);
  const CampaignCheckpoint plain = checkpoint_from_jsonl(v1ish);
  ASSERT_EQ(plain.records.size(), 1u);
  EXPECT_TRUE(plain.records[0].provenance.empty());
}

}  // namespace
