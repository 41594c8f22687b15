// Fault-module tests: descriptor/taxonomy mapping, the outcome classifier
// truth table, injector hub bindings (including skip accounting and timed
// reversion), Poisson stressor schedules, and the campaign engine on the
// CAPS and ACC scenarios (determinism, protection effects, strategies).

#include <gtest/gtest.h>

#include "vps/apps/acc.hpp"
#include "vps/apps/caps.hpp"
#include "vps/fault/campaign.hpp"
#include "vps/fault/descriptor.hpp"
#include "vps/fault/injector.hpp"
#include "vps/fault/scenario.hpp"
#include "vps/fault/stressor.hpp"

namespace {

using namespace vps::fault;
using namespace vps::sim;
using vps::apps::AccConfig;
using vps::apps::AccScenario;
using vps::apps::CapsConfig;
using vps::apps::CapsScenario;

TEST(Descriptor, MappingAndFormatting) {
  for (auto c : vps::mp::all_fault_classes()) {
    const FaultType t = default_type_for(c);
    EXPECT_NE(std::string(to_string(t)), "?");
  }
  FaultDescriptor f;
  f.id = 3;
  f.type = FaultType::kRegisterBitFlip;
  f.inject_at = Time::ms(5);
  f.location = "cpu";
  const auto s = f.to_string();
  EXPECT_NE(s.find("fault#3"), std::string::npos);
  EXPECT_NE(s.find("register_bit_flip"), std::string::npos);
}

TEST(Classify, TruthTable) {
  Observation golden;
  golden.completed = true;
  golden.output_signature = 100;

  Observation same = golden;
  EXPECT_EQ(classify(golden, same), Outcome::kNoEffect);

  Observation corrected = golden;
  corrected.corrected = 2;
  EXPECT_EQ(classify(golden, corrected), Outcome::kDetectedCorrected);

  Observation detected_equal = golden;
  detected_equal.detected = 1;
  EXPECT_EQ(classify(golden, detected_equal), Outcome::kDetectedCorrected);

  Observation sdc = golden;
  sdc.output_signature = 999;
  EXPECT_EQ(classify(golden, sdc), Outcome::kSilentDataCorruption);

  Observation detected_wrong = sdc;
  detected_wrong.detected = 1;
  EXPECT_EQ(classify(golden, detected_wrong), Outcome::kDetectedUncorrected);

  Observation wrong_with_reset = sdc;
  wrong_with_reset.resets = 1;
  EXPECT_EQ(classify(golden, wrong_with_reset), Outcome::kDetectedUncorrected);

  Observation hazard = golden;
  hazard.hazard = true;
  EXPECT_EQ(classify(golden, hazard), Outcome::kHazard);

  Observation hung = golden;
  hung.completed = false;
  EXPECT_EQ(classify(golden, hung), Outcome::kTimeout);

  // Hazard dominates even a hang.
  Observation hazard_hang = hazard;
  hazard_hang.completed = false;
  EXPECT_EQ(classify(golden, hazard_hang), Outcome::kHazard);

  // A hazard already present in the golden run is not a new hazard.
  Observation golden_haz = golden;
  golden_haz.hazard = true;
  EXPECT_EQ(classify(golden_haz, hazard), Outcome::kNoEffect);
}

TEST(AnalogChannelTest, OffsetStuckAndClear) {
  AnalogChannel ch([] { return 2.0; });
  EXPECT_DOUBLE_EQ(ch.read(), 2.0);
  ch.set_offset(0.5);
  EXPECT_DOUBLE_EQ(ch.read(), 2.5);
  ch.set_stuck(4.0);
  EXPECT_DOUBLE_EQ(ch.read(), 4.0);  // stuck dominates offset
  ch.clear_faults();
  EXPECT_DOUBLE_EQ(ch.read(), 2.0);
}

TEST(InjectorHubTest, SkipsUnboundTypes) {
  Kernel k;
  InjectorHub hub(k);  // nothing bound at all
  FaultDescriptor f;
  f.type = FaultType::kMemoryBitFlip;
  EXPECT_FALSE(hub.apply(f));
  f.type = FaultType::kCanFrameCorruption;
  EXPECT_FALSE(hub.apply(f));
  EXPECT_EQ(hub.skipped_count(), 2u);
  EXPECT_EQ(hub.applied_count(), 0u);
  EXPECT_TRUE(hub.supported_types().empty());
}

TEST(InjectorHubTest, MemoryAndRegisterInjection) {
  Kernel k;
  vps::ecu::EcuPlatform ecu(k, "ecu");
  ecu.load_program("halt");
  InjectorHub hub(ecu);
  EXPECT_FALSE(hub.supported_types().empty());

  FaultDescriptor mem;
  mem.type = FaultType::kMemoryBitFlip;
  mem.address = 0x100;
  mem.bit = 3;
  EXPECT_TRUE(hub.apply(mem));
  EXPECT_EQ(ecu.ram().peek(0x100), 0x08);

  FaultDescriptor reg;
  reg.type = FaultType::kRegisterBitFlip;
  reg.address = 4;  // maps to r5 (1 + 4 % 15)
  reg.bit = 0;
  EXPECT_TRUE(hub.apply(reg));
  EXPECT_EQ(ecu.cpu().reg(5), 1u);
}

TEST(InjectorHubTest, SensorFaultWithTimedReversion) {
  Kernel k;
  AnalogChannel ch([] { return 1.0; });
  InjectorHub hub(k);
  hub.bind_sensor(ch);
  FaultDescriptor f;
  f.type = FaultType::kSensorOffset;
  f.magnitude = 2.0;
  f.persistence = Persistence::kIntermittent;
  f.duration = Time::ms(5);
  EXPECT_TRUE(hub.apply(f));
  EXPECT_DOUBLE_EQ(ch.read(), 3.0);
  k.run(Time::ms(10));
  EXPECT_DOUBLE_EQ(ch.read(), 1.0);  // reverted after 5ms
}

TEST(InjectorHubTest, ScheduleInjectsAtAbsoluteTime) {
  Kernel k;
  AnalogChannel ch([] { return 0.0; });
  InjectorHub hub(k);
  hub.bind_sensor(ch);
  FaultDescriptor f;
  f.type = FaultType::kSensorStuck;
  f.magnitude = 9.0;
  f.persistence = Persistence::kPermanent;
  f.inject_at = Time::ms(3);
  hub.schedule(f);
  k.run(Time::ms(2));
  EXPECT_DOUBLE_EQ(ch.read(), 0.0);
  k.run(Time::ms(4));
  EXPECT_DOUBLE_EQ(ch.read(), 9.0);
}

TEST(StressorTest, PoissonScheduleMatchesRates) {
  Kernel k;
  InjectorHub hub(k);
  vps::mp::StressorSpec spec;
  spec.state = "test";
  spec.rate_per_second[0] = 50.0;  // memory flips
  spec.rate_per_second[5] = 10.0;  // CAN corruption
  Stressor stressor(hub, spec, 7);
  const auto schedule = stressor.sample_schedule(Time::zero(), Time::sec(10));
  // Expected 500 + 100 faults; Poisson 3-sigma ~ 75.
  EXPECT_GT(schedule.size(), 500u);
  EXPECT_LT(schedule.size(), 700u);
  // Sorted by injection time.
  for (std::size_t i = 1; i < schedule.size(); ++i) {
    EXPECT_LE(schedule[i - 1].inject_at, schedule[i].inject_at);
  }
  // Both classes present, mapped to their default types.
  std::size_t mem = 0, canc = 0;
  for (const auto& f : schedule) {
    mem += f.type == FaultType::kMemoryBitFlip;
    canc += f.type == FaultType::kCanFrameCorruption;
  }
  EXPECT_GT(mem, 400u);
  EXPECT_GT(canc, 50u);
  EXPECT_EQ(mem + canc, schedule.size());
}

TEST(StressorTest, DeterministicForSameSeed) {
  Kernel k;
  InjectorHub hub(k);
  vps::mp::StressorSpec spec;
  spec.rate_per_second[2] = 20.0;
  Stressor a(hub, spec, 11), b(hub, spec, 11);
  const auto sa = a.sample_schedule(Time::zero(), Time::sec(5));
  const auto sb = b.sample_schedule(Time::zero(), Time::sec(5));
  ASSERT_EQ(sa.size(), sb.size());
  for (std::size_t i = 0; i < sa.size(); ++i) {
    EXPECT_EQ(sa[i].inject_at, sb[i].inject_at);
    EXPECT_EQ(sa[i].address, sb[i].address);
  }
}

// --------------------------------------------------------------------------
// CAPS scenario
// --------------------------------------------------------------------------

TEST(Caps, GoldenNormalDoesNotDeploy) {
  CapsScenario scenario(CapsConfig{.crash = false});
  const auto obs = scenario.run(nullptr, 42);
  EXPECT_TRUE(obs.completed);
  EXPECT_FALSE(obs.hazard);
  EXPECT_EQ(obs.detected, 0u);
}

TEST(Caps, GoldenCrashDeploysInTime) {
  CapsScenario scenario(CapsConfig{.crash = true});
  const auto obs = scenario.run(nullptr, 42);
  EXPECT_TRUE(obs.completed);
  EXPECT_FALSE(obs.hazard) << "crash variant must deploy before the deadline";
}

TEST(Caps, GoldenRunsAreDeterministic) {
  CapsScenario scenario(CapsConfig{.crash = true});
  const auto a = scenario.run(nullptr, 7);
  const auto b = scenario.run(nullptr, 7);
  EXPECT_EQ(a.output_signature, b.output_signature);
  EXPECT_EQ(a.detected, b.detected);
  const auto c = scenario.run(nullptr, 8);
  EXPECT_TRUE(c.completed);
}

TEST(Caps, SensorStuckLowMissesCrashDeployment) {
  CapsScenario scenario(CapsConfig{.crash = true});
  FaultDescriptor f;
  f.type = FaultType::kSensorStuck;
  f.magnitude = 0.0;  // line reads ground
  f.persistence = Persistence::kPermanent;
  f.inject_at = Time::ms(1);
  const auto golden = scenario.run(nullptr, 42);
  const auto faulty = scenario.run(&f, 42);
  EXPECT_EQ(classify(golden, faulty), Outcome::kHazard);
}

TEST(Caps, SensorStuckHighFiresInNormalOperation) {
  CapsScenario scenario(CapsConfig{.crash = false});
  FaultDescriptor f;
  f.type = FaultType::kSensorStuck;
  f.magnitude = 40.0;  // 40g stuck: above deployment threshold
  f.persistence = Persistence::kPermanent;
  f.inject_at = Time::ms(2);
  const auto golden = scenario.run(nullptr, 42);
  const auto faulty = scenario.run(&f, 42);
  EXPECT_EQ(classify(golden, faulty), Outcome::kHazard);
}

TEST(Caps, SourceCorruptionIsDetectedByLinkProtection) {
  CapsScenario scenario(CapsConfig{.crash = false, .protected_link = true});
  FaultDescriptor f;
  f.type = FaultType::kCanFrameCorruption;
  f.persistence = Persistence::kIntermittent;
  f.inject_at = Time::ms(4);
  f.duration = Time::ms(6);
  const auto golden = scenario.run(nullptr, 42);
  const auto faulty = scenario.run(&f, 42);
  EXPECT_GT(faulty.detected, golden.detected) << "integrity check must fire";
  const auto outcome = classify(golden, faulty);
  EXPECT_TRUE(outcome == Outcome::kDetectedCorrected || outcome == Outcome::kDetectedUncorrected);
}

TEST(Caps, BrownoutResetIsDetectedRecovery) {
  CapsScenario scenario(CapsConfig{.crash = false});
  FaultDescriptor f;
  f.type = FaultType::kSupplyBrownout;
  f.inject_at = Time::ms(5);
  const auto golden = scenario.run(nullptr, 42);
  const auto faulty = scenario.run(&f, 42);
  EXPECT_GE(faulty.resets, 1u);
  EXPECT_EQ(classify(golden, faulty), Outcome::kDetectedCorrected);
}

// --------------------------------------------------------------------------
// ACC scenario (timing errors)
// --------------------------------------------------------------------------

TEST(Acc, GoldenFollowsWithoutCollision) {
  AccScenario scenario;
  const auto obs = scenario.run(nullptr, 1);
  EXPECT_TRUE(obs.completed);
  EXPECT_FALSE(obs.hazard);
  EXPECT_EQ(obs.deadline_misses, 0u);
  EXPECT_GT(scenario.last_min_gap_m(), 3.0);
}

TEST(Acc, SlowdownCausesDeadlineMissesAndDegradation) {
  // "The right value at the wrong time can still be an error": the control
  // law is unchanged, only its execution time inflates.
  AccScenario scenario;
  const auto golden = scenario.run(nullptr, 1);
  const double golden_min_gap = scenario.last_min_gap_m();
  FaultDescriptor f;
  f.type = FaultType::kExecutionSlowdown;
  f.address = 0;   // the control task
  f.magnitude = 30.0;  // 8ms -> 240ms: control runs at 1/12 of its rate
  f.persistence = Persistence::kIntermittent;
  f.inject_at = Time::sec(7);
  f.duration = Time::sec(6);  // covers the braking event
  const auto faulty = scenario.run(&f, 1);
  EXPECT_GT(faulty.deadline_misses, 0u);
  // The values computed are still correct — only late. The deadline monitor
  // must flag it, and the braking response must measurably degrade.
  const auto outcome = classify(golden, faulty);
  EXPECT_TRUE(outcome == Outcome::kDetectedUncorrected || outcome == Outcome::kHazard ||
              outcome == Outcome::kDetectedCorrected)
      << to_string(outcome);
  EXPECT_LT(scenario.last_min_gap_m(), golden_min_gap - 1.0)
      << "timing-only fault must degrade the braking response";
}

TEST(Acc, ControlTaskKillDuringBrakingIsHazardous) {
  AccScenario scenario;
  const auto golden = scenario.run(nullptr, 1);
  FaultDescriptor f;
  f.type = FaultType::kTaskKill;
  f.address = 0;
  f.persistence = Persistence::kPermanent;
  f.inject_at = Time::sec(7);
  const auto faulty = scenario.run(&f, 1);
  EXPECT_EQ(classify(golden, faulty), Outcome::kHazard) << "min gap "
                                                        << scenario.last_min_gap_m();
}

// --------------------------------------------------------------------------
// Campaign engine
// --------------------------------------------------------------------------

TEST(CampaignTest, RunsAndClassifiesEverything) {
  CapsScenario scenario(CapsConfig{.crash = false, .duration = Time::ms(10)});
  CampaignConfig cfg;
  cfg.runs = 30;
  cfg.seed = 5;
  Campaign campaign(scenario, cfg);
  const auto result = campaign.run();
  EXPECT_EQ(result.runs_executed, 30u);
  std::uint64_t total = 0;
  for (auto c : result.outcome_counts) total += c;
  EXPECT_EQ(total, 30u);
  EXPECT_EQ(result.records.size(), 30u);
  EXPECT_GT(result.final_coverage, 0.0);
  EXPECT_EQ(result.coverage_curve.size(), 30u);
  const auto text = result.render();
  EXPECT_NE(text.find("no_effect"), std::string::npos);
  EXPECT_NE(text.find("P(hazard)"), std::string::npos);
}

TEST(CampaignTest, DeterministicForSameSeed) {
  CapsScenario s1(CapsConfig{.crash = false, .duration = Time::ms(10)});
  CapsScenario s2(CapsConfig{.crash = false, .duration = Time::ms(10)});
  CampaignConfig cfg;
  cfg.runs = 20;
  cfg.seed = 9;
  const auto a = Campaign(s1, cfg).run();
  const auto b = Campaign(s2, cfg).run();
  EXPECT_EQ(a.outcome_counts, b.outcome_counts);
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    EXPECT_EQ(a.records[i].fault.type, b.records[i].fault.type);
    EXPECT_EQ(a.records[i].fault.address, b.records[i].fault.address);
    EXPECT_EQ(a.records[i].outcome, b.records[i].outcome);
  }
}

TEST(CampaignTest, CoverageDrivenClosesFasterThanMonteCarlo) {
  // Identical budget; the coverage-driven strategy must reach (near-)full
  // class x location coverage in fewer runs.
  AccScenario mc_scenario, cov_scenario;
  CampaignConfig mc_cfg;
  mc_cfg.runs = 60;
  mc_cfg.seed = 3;
  mc_cfg.strategy = Strategy::kMonteCarlo;
  mc_cfg.location_buckets = 8;
  CampaignConfig cov_cfg = mc_cfg;
  cov_cfg.strategy = Strategy::kCoverageDriven;
  const auto mc = Campaign(mc_scenario, mc_cfg).run();
  const auto cov = Campaign(cov_scenario, cov_cfg).run();
  // Runs needed to reach 90% of final coverage.
  const auto runs_to = [](const CampaignResult& r, double target) {
    for (std::size_t i = 0; i < r.coverage_curve.size(); ++i) {
      if (r.coverage_curve[i] >= target) return i + 1;
    }
    return r.coverage_curve.size() + 1;
  };
  EXPECT_GE(cov.final_coverage, mc.final_coverage);
  EXPECT_LE(runs_to(cov, 0.8), runs_to(mc, 0.8));
}

TEST(CampaignTest, StopAfterHazardsShortens) {
  CapsScenario scenario(CapsConfig{.crash = true, .duration = Time::ms(15)});
  CampaignConfig cfg;
  cfg.runs = 100;
  cfg.seed = 11;
  cfg.stop_after_hazards = 1;
  Campaign campaign(scenario, cfg);
  const auto result = campaign.run();
  if (result.count(Outcome::kHazard) > 0) {
    EXPECT_EQ(result.runs_executed, result.faults_to_first_hazard);
    EXPECT_LT(result.runs_executed, 100u);
  }
}

TEST(CampaignTest, DiagnosticCoverageDefinition) {
  CampaignResult r;
  r.outcome_counts[static_cast<std::size_t>(Outcome::kDetectedCorrected)] = 6;
  r.outcome_counts[static_cast<std::size_t>(Outcome::kDetectedUncorrected)] = 2;
  r.outcome_counts[static_cast<std::size_t>(Outcome::kSilentDataCorruption)] = 2;
  r.runs_executed = 10;
  EXPECT_NEAR(r.diagnostic_coverage(), 0.8, 1e-12);
}

TEST(CampaignTest, DiagnosticCoverageCountsTimeoutsAsDangerous) {
  // Regression: timeouts were ignored by diagnostic_coverage() while
  // weak_spots() ranked them as dangerous, so a campaign consisting purely
  // of hangs reported a perfect DC of 1.0.
  CampaignResult hung;
  hung.outcome_counts[static_cast<std::size_t>(Outcome::kTimeout)] = 10;
  hung.runs_executed = 10;
  EXPECT_DOUBLE_EQ(hung.diagnostic_coverage(), 0.0);

  // A timeout depresses DC exactly like an SDC (both undetected-dangerous).
  CampaignResult with_timeout;
  with_timeout.outcome_counts[static_cast<std::size_t>(Outcome::kDetectedCorrected)] = 6;
  with_timeout.outcome_counts[static_cast<std::size_t>(Outcome::kTimeout)] = 4;
  with_timeout.runs_executed = 10;
  CampaignResult with_sdc;
  with_sdc.outcome_counts[static_cast<std::size_t>(Outcome::kDetectedCorrected)] = 6;
  with_sdc.outcome_counts[static_cast<std::size_t>(Outcome::kSilentDataCorruption)] = 4;
  with_sdc.runs_executed = 10;
  EXPECT_DOUBLE_EQ(with_timeout.diagnostic_coverage(), with_sdc.diagnostic_coverage());
  EXPECT_NEAR(with_timeout.diagnostic_coverage(), 0.6, 1e-12);

  // Both accountings agree that the all-hang campaign is all-dangerous.
  hung.records.push_back({FaultDescriptor{}, Outcome::kTimeout, {}, {}});
  const auto spots = hung.weak_spots();
  ASSERT_EQ(spots.size(), 1u);
  EXPECT_DOUBLE_EQ(spots[0].danger_rate(), 1.0);
}

TEST(CampaignStateTest, LearnSkipsFaultTypesOutsideTheFaultSpace) {
  // Regression: a descriptor whose type is not in the campaign's fault
  // space was silently mapped to cell 0, corrupting the guided weights and
  // the coverage sampling.
  CampaignConfig cfg;
  cfg.runs = 10;
  cfg.location_buckets = 4;
  cfg.strategy = Strategy::kGuided;
  CampaignState state({FaultType::kSensorOffset, FaultType::kSensorStuck}, Time::ms(10), cfg);

  FaultDescriptor foreign;
  foreign.type = FaultType::kTaskKill;  // not offered by this fault space
  foreign.address = 0;                  // would have hit cell 0 before the fix
  foreign.inject_at = Time::ms(5);
  EXPECT_FALSE(state.learn(foreign, Outcome::kHazard));
  EXPECT_EQ(state.coverage().samples(), 0u) << "foreign fault must not be sampled";

  FaultDescriptor known;
  known.type = FaultType::kSensorStuck;
  known.address = 1;
  known.inject_at = Time::ms(5);
  EXPECT_TRUE(state.learn(known, Outcome::kHazard));
  EXPECT_EQ(state.coverage().samples(), 1u);
}

}  // namespace
