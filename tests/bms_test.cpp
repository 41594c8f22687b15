// BMS virtual ECU twin: unit truth tables (fusion, correlation engine,
// telemetry codec), UART line-error semantics, multi-rate alert switching,
// golden mission behaviour (thermal runaway contained, short circuit
// disconnected inside the FTTI hold), end-to-end fault effects, and the
// cross-driver determinism contract — snapshot-fork vs full replay,
// parallel worker counts, a distributed fleet, and checkpoint resume all
// fold bitwise identically.

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "vps/apps/bms.hpp"
#include "vps/apps/registry.hpp"
#include "vps/dist/coordinator.hpp"
#include "vps/ecu/os.hpp"
#include "vps/fault/campaign.hpp"
#include "vps/fault/checkpoint.hpp"
#include "vps/fault/descriptor.hpp"
#include "vps/hw/uart.hpp"
#include "vps/obs/provenance.hpp"
#include "vps/sim/kernel.hpp"

namespace {

using namespace vps;
using namespace vps::apps::bms;
using apps::BmsConfig;
using apps::BmsDiagnostics;
using apps::BmsMission;
using apps::BmsScenario;
using fault::CampaignConfig;
using fault::CampaignResult;
using fault::FaultDescriptor;
using fault::FaultType;
using fault::Observation;
using fault::Persistence;
using sim::Time;

// --------------------------------------------------------------------------
// Sensor fusion truth tables
// --------------------------------------------------------------------------

TEST(BmsFusion, ElectricalTruthTable) {
  const Thresholds th;
  {
    const double v[4] = {3.9, 3.9, 3.9, 3.9};
    EXPECT_EQ(fuse_electrical(v, 4, 10.0, th), 0);
  }
  {
    const double v[4] = {3.9, 4.30, 3.9, 3.9};
    EXPECT_EQ(fuse_electrical(v, 4, 10.0, th), kOverVoltage);
  }
  {
    const double v[4] = {3.9, 3.9, 2.5, 3.9};
    EXPECT_EQ(fuse_electrical(v, 4, 10.0, th), kUnderVoltage);
  }
  {
    const double v[4] = {3.9, 3.9, 3.9, 3.9};
    EXPECT_EQ(fuse_electrical(v, 4, 150.0, th), kOverCurrent);
    EXPECT_EQ(fuse_electrical(v, 4, -150.0, th), kOverCurrent);
  }
  {
    // A reading outside the plausibility window is a sensor defect, not a
    // pack condition: it must NOT raise UV as well.
    const double v[4] = {3.9, 0.0, 3.9, 3.9};
    EXPECT_EQ(fuse_electrical(v, 4, 10.0, th), kImplausible);
  }
  {
    // Implausible current suppresses the over-current verdict too.
    const double v[4] = {3.9, 3.9, 3.9, 3.9};
    EXPECT_EQ(fuse_electrical(v, 4, 500.0, th), kImplausible);
  }
  {
    // Short-circuit signature: sagging cells while conducting hard.
    const double v[4] = {1.4, 1.4, 1.4, 1.4};
    EXPECT_EQ(fuse_electrical(v, 4, 250.0, th), kUnderVoltage | kOverCurrent);
  }
}

TEST(BmsFusion, ThermalTruthTable) {
  const Thresholds th;
  const double ok[4] = {28.0, 29.0, 30.0, 28.0};
  EXPECT_EQ(fuse_thermal(ok, 4, th), 0);
  const double hot[4] = {28.0, 29.0, 62.0, 28.0};
  EXPECT_EQ(fuse_thermal(hot, 4, th), kOverTemp);
  const double broken[4] = {28.0, 29.0, 200.0, 28.0};
  EXPECT_EQ(fuse_thermal(broken, 4, th), kImplausible);
  const double open_wire[4] = {-55.0, 29.0, 62.0, 28.0};
  EXPECT_EQ(fuse_thermal(open_wire, 4, th), kImplausible | kOverTemp);
}

// --------------------------------------------------------------------------
// Correlation engine
// --------------------------------------------------------------------------

TEST(BmsCorrelation, EscalatesOneLevelPerHoldAndLatches) {
  CorrelationEngine::Config cfg;
  cfg.escalate_hold = Time::ms(400);
  cfg.clear_hold = Time::ms(600);
  CorrelationEngine engine(cfg);

  EXPECT_EQ(engine.step(0, Time::ms(0)), State::kNormal);
  EXPECT_EQ(engine.step(kOverTemp, Time::ms(100)), State::kWarning);
  EXPECT_EQ(engine.step(kOverTemp, Time::ms(400)), State::kWarning);
  EXPECT_EQ(engine.step(kOverTemp, Time::ms(500)), State::kCritical);
  EXPECT_EQ(engine.step(kOverTemp, Time::ms(800)), State::kCritical);
  EXPECT_EQ(engine.step(kOverTemp, Time::ms(900)), State::kEmergency);
  EXPECT_TRUE(engine.latched());
  // EMERGENCY latches: an all-clear mask must not release it.
  EXPECT_EQ(engine.step(0, Time::sec(10)), State::kEmergency);
  EXPECT_EQ(engine.escalations(), 3u);
}

TEST(BmsCorrelation, QuietClearsBelowEmergency) {
  CorrelationEngine engine;
  EXPECT_EQ(engine.step(kUnderVoltage, Time::ms(0)), State::kWarning);
  EXPECT_EQ(engine.step(0, Time::ms(100)), State::kWarning);
  EXPECT_EQ(engine.step(0, Time::ms(500)), State::kWarning);  // quiet 400 < 600
  EXPECT_EQ(engine.step(0, Time::ms(701)), State::kNormal);
}

TEST(BmsCorrelation, CombinationSignaturesGoStraightToEmergency) {
  {
    CorrelationEngine engine;
    EXPECT_EQ(engine.step(kOverCurrent | kUnderVoltage, Time::ms(50)), State::kEmergency);
  }
  {
    CorrelationEngine engine;
    EXPECT_EQ(engine.step(kOverTemp | kOverCurrent, Time::ms(50)), State::kEmergency);
  }
  {
    // OT alone is NOT a combination signature — it takes the persistence path.
    CorrelationEngine engine;
    EXPECT_EQ(engine.step(kOverTemp, Time::ms(50)), State::kWarning);
  }
}

// --------------------------------------------------------------------------
// Telemetry codec
// --------------------------------------------------------------------------

TelemetryFrame sample_frame() {
  TelemetryFrame f;
  f.seq = 42;
  f.state = State::kCritical;
  f.anomaly_mask = kOverTemp | kImplausible;
  f.relay_closed = false;
  f.cell_mv = {3950, 3948, 4120, 3951};
  f.cell_cc = {2750, 2803, 6512, -125};
  f.current_da = -412;
  f.soc_pm = 793;
  f.uptime_ms = 123456;
  return f;
}

TEST(BmsTelemetry, EncodeDecodeRoundTripsEveryField) {
  const TelemetryFrame f = sample_frame();
  const auto bytes = encode_telemetry(f);
  ASSERT_EQ(bytes.size(), kTelemetryFrameBytes);
  EXPECT_EQ(bytes[0], kTelemetrySync);

  TelemetryFrame back;
  ASSERT_TRUE(decode_telemetry(bytes.data(), back));
  EXPECT_EQ(back.seq, f.seq);
  EXPECT_EQ(back.state, f.state);
  EXPECT_EQ(back.anomaly_mask, f.anomaly_mask);
  EXPECT_EQ(back.relay_closed, f.relay_closed);
  EXPECT_EQ(back.cell_mv, f.cell_mv);
  EXPECT_EQ(back.cell_cc, f.cell_cc);
  EXPECT_EQ(back.current_da, f.current_da);
  EXPECT_EQ(back.soc_pm, f.soc_pm);
  EXPECT_EQ(back.uptime_ms, f.uptime_ms);
}

TEST(BmsTelemetry, ChecksumCatchesAnySingleCorruptByte) {
  const auto good = encode_telemetry(sample_frame());
  for (std::size_t i = 0; i < kTelemetryFrameBytes; ++i) {
    auto bad = good;
    bad[i] ^= 0x40;
    TelemetryFrame out;
    EXPECT_FALSE(decode_telemetry(bad.data(), out)) << "byte " << i;
  }
}

// --------------------------------------------------------------------------
// UART line model
// --------------------------------------------------------------------------

TEST(BmsUart, DeliversBytesInOrderWithShiftRegisterTiming) {
  sim::Kernel kernel;
  hw::Uart uart(kernel, "u");
  std::vector<std::uint8_t> seen;
  std::vector<Time> at;
  uart.set_on_byte([&](std::uint8_t b) {
    seen.push_back(b);
    at.push_back(kernel.now());
  });
  const std::uint8_t data[3] = {0x00, 0xA5, 0xFF};
  uart.transmit(data, 3);
  (void)kernel.run(Time::ms(5));
  ASSERT_EQ(seen, (std::vector<std::uint8_t>{0x00, 0xA5, 0xFF}));
  // 11 bits per frame (start + 8 data + parity + stop), back to back.
  const Time bit = uart.bit_time();
  EXPECT_EQ(at[0], bit * 11);
  EXPECT_EQ(at[1], bit * 22);
  EXPECT_EQ(at[2], bit * 33);
  EXPECT_EQ(uart.bytes_enqueued(), 3u);
  EXPECT_EQ(uart.bytes_delivered(), 3u);
  EXPECT_TRUE(uart.idle());
}

TEST(BmsUart, SingleDataBitFlipIsAParityError) {
  sim::Kernel kernel;
  hw::Uart uart(kernel, "u");
  std::uint64_t delivered = 0;
  uart.set_on_byte([&](std::uint8_t) { ++delivered; });
  const std::uint8_t b = 0xA5;
  uart.transmit(&b, 1);
  const Time bit = uart.bit_time();
  // Start bit shifts at 1*bit, data bit 0 at 2*bit: corrupt in between.
  (void)kernel.run(bit + bit / 2);
  uart.corrupt_bits(1);
  (void)kernel.run(Time::ms(2));
  EXPECT_EQ(uart.parity_errors(), 1u);
  EXPECT_EQ(uart.framing_errors(), 0u);
  EXPECT_EQ(delivered, 0u);
  EXPECT_EQ(uart.frames_corrupted(), 1u);
}

TEST(BmsUart, EvenBitFlipsPassParityAndCorruptSilently) {
  sim::Kernel kernel;
  hw::Uart uart(kernel, "u");
  std::vector<std::uint8_t> seen;
  uart.set_on_byte([&](std::uint8_t v) { seen.push_back(v); });
  const std::uint8_t b = 0xA5;
  uart.transmit(&b, 1);
  const Time bit = uart.bit_time();
  (void)kernel.run(bit + bit / 2);
  uart.corrupt_bits(2);  // flips data bits 0 and 1 — parity is blind to pairs
  (void)kernel.run(Time::ms(2));
  EXPECT_EQ(uart.parity_errors(), 0u);
  EXPECT_EQ(uart.framing_errors(), 0u);
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0], 0xA5 ^ 0x03);  // the wrong byte arrived "cleanly"
}

TEST(BmsUart, CorruptStartBitIsAFramingError) {
  sim::Kernel kernel;
  hw::Uart uart(kernel, "u");
  std::uint64_t delivered = 0;
  uart.set_on_byte([&](std::uint8_t) { ++delivered; });
  uart.corrupt_bits(1);  // idle line: the next shifted bit is a start bit
  const std::uint8_t b = 0x5A;
  uart.transmit(&b, 1);
  (void)kernel.run(Time::ms(2));
  EXPECT_EQ(uart.framing_errors(), 1u);
  EXPECT_EQ(delivered, 0u);
}

// --------------------------------------------------------------------------
// Multi-rate scheduling: set_period
// --------------------------------------------------------------------------

TEST(BmsScheduling, SetPeriodSwitchesRateMidRun) {
  sim::Kernel kernel;
  ecu::OsScheduler os(kernel, "os");
  const ecu::TaskId id = os.add_task({.name = "loop", .period = Time::ms(100), .body = {}});
  (void)kernel.run(Time::sec(1));
  const std::uint64_t before = os.stats(id).activations;
  os.set_period(id, Time::ms(20));
  EXPECT_EQ(os.current_period(id), Time::ms(20));
  (void)kernel.run(Time::sec(2));
  const std::uint64_t after = os.stats(id).activations;
  // ~10 activations in the first second, ~50 in the second.
  EXPECT_GE(before, 9u);
  EXPECT_LE(before, 12u);
  EXPECT_GE(after - before, 45u);
  EXPECT_LE(after - before, 55u);
}

TEST(BmsScheduling, SetPeriodSurvivesSnapshotRestore) {
  sim::Kernel kernel;
  ecu::OsScheduler os(kernel, "os");
  const ecu::TaskId id = os.add_task({.name = "loop", .period = Time::ms(100), .body = {}});
  (void)kernel.run(Time::ms(500));
  os.set_period(id, Time::ms(20));
  (void)kernel.run(Time::ms(700));

  const auto ks = kernel.snapshot();
  const auto oss = os.snapshot();
  (void)kernel.run(Time::sec(2));
  const std::uint64_t want = os.stats(id).activations;

  kernel.restore(ks);
  os.restore(oss);
  EXPECT_EQ(os.current_period(id), Time::ms(20));
  (void)kernel.run(Time::sec(2));
  EXPECT_EQ(os.stats(id).activations, want);
}

// --------------------------------------------------------------------------
// Golden missions
// --------------------------------------------------------------------------

BmsConfig quick(BmsMission mission) {
  BmsConfig cfg;
  cfg.mission = mission;
  cfg.duration = Time::sec(12);
  cfg.event_at = Time::sec(4);
  return cfg;
}

TEST(BmsMissionTest, NominalDriveCycleStaysNormal) {
  BmsScenario scenario(quick(BmsMission::kNominal));
  const Observation obs = scenario.run(nullptr, 42);
  const BmsDiagnostics& d = scenario.last_diagnostics();
  EXPECT_TRUE(obs.completed);
  EXPECT_FALSE(obs.hazard);
  EXPECT_EQ(obs.detected, 0u);
  EXPECT_EQ(d.final_state, State::kNormal);
  EXPECT_TRUE(d.relay_closed);
  EXPECT_EQ(d.disconnect_time, Time::max());
  EXPECT_EQ(d.anomaly_union, 0u);
  EXPECT_GE(d.frames_sent, 20u);
  EXPECT_GE(d.frames_valid, d.frames_sent - 1);  // last frame may be in flight
  EXPECT_EQ(d.crc_failures, 0u);
  EXPECT_EQ(d.deadline_misses, 0u);
}

TEST(BmsMissionTest, ThermalRunawayIsContainedBelowHazardTemperature) {
  BmsScenario nominal(quick(BmsMission::kNominal));
  (void)nominal.run(nullptr, 42);
  const std::uint64_t nominal_fast = nominal.last_diagnostics().fast_activations;

  BmsScenario scenario(quick(BmsMission::kThermalRunaway));
  const Observation obs = scenario.run(nullptr, 42);
  const BmsDiagnostics& d = scenario.last_diagnostics();
  EXPECT_TRUE(obs.completed);
  EXPECT_FALSE(obs.hazard) << "max temp " << d.max_cell_temp_c;
  EXPECT_EQ(d.final_state, State::kEmergency);
  EXPECT_FALSE(d.relay_closed);
  EXPECT_GT(d.disconnect_time, Time::sec(4));
  EXPECT_LT(d.disconnect_time, Time::sec(12));
  EXPECT_GT(d.max_cell_temp_c, 60.0);
  EXPECT_LT(d.max_cell_temp_c, 85.0);
  EXPECT_NE(d.anomaly_union & kOverTemp, 0u);
  // Alert mode tightened the loops: the fast loop ran far more often than
  // in the nominal mission of identical length.
  EXPECT_GT(d.fast_activations, nominal_fast + 50);
}

TEST(BmsMissionTest, ShortCircuitDisconnectsInsideTheCurrentHold) {
  BmsScenario scenario(quick(BmsMission::kShortCircuit));
  const Observation obs = scenario.run(nullptr, 42);
  const BmsDiagnostics& d = scenario.last_diagnostics();
  EXPECT_TRUE(obs.completed);
  EXPECT_FALSE(obs.hazard) << "over-current conduction " << d.max_over_current_s << " s";
  EXPECT_EQ(d.final_state, State::kEmergency);
  EXPECT_FALSE(d.relay_closed);
  EXPECT_GT(d.disconnect_time, Time::sec(4));
  EXPECT_LT(d.disconnect_time, Time::ms(4600));
  EXPECT_LT(d.max_over_current_s, 0.3);
  EXPECT_NE(d.anomaly_union & kOverCurrent, 0u);
  EXPECT_NE(d.anomaly_union & kUnderVoltage, 0u);
}

TEST(BmsMissionTest, GoldenRunsAreDeterministic) {
  BmsScenario a(quick(BmsMission::kThermalRunaway));
  BmsScenario b(quick(BmsMission::kThermalRunaway));
  const Observation oa = a.run(nullptr, 7);
  const Observation ob = b.run(nullptr, 7);
  EXPECT_EQ(oa.output_signature, ob.output_signature);
  EXPECT_EQ(oa.detected, ob.detected);
  EXPECT_EQ(a.last_diagnostics().frames_valid, b.last_diagnostics().frames_valid);
}

// --------------------------------------------------------------------------
// Fault effects end to end
// --------------------------------------------------------------------------

TEST(BmsFaultTest, KilledThermalTaskMissesTheRunawayAndTheHazardOccurs) {
  BmsScenario scenario(quick(BmsMission::kThermalRunaway));
  FaultDescriptor f;
  f.id = 1;
  f.type = FaultType::kTaskKill;
  f.persistence = Persistence::kPermanent;
  f.address = 1;  // thermal task
  f.inject_at = Time::ms(100);
  const Observation obs = scenario.run(&f, 42);
  const BmsDiagnostics& d = scenario.last_diagnostics();
  EXPECT_TRUE(obs.completed);
  EXPECT_TRUE(obs.hazard) << "max temp " << d.max_cell_temp_c;
  EXPECT_TRUE(d.relay_closed);  // nobody saw it coming
  EXPECT_GE(d.max_cell_temp_c, 85.0);
}

TEST(BmsFaultTest, UartNoiseBurstIsCaughtByTheLineOrFrameChecks) {
  BmsScenario golden_scenario(quick(BmsMission::kNominal));
  const Observation golden = golden_scenario.run(nullptr, 42);

  BmsScenario scenario(quick(BmsMission::kNominal));
  FaultDescriptor f;
  f.id = 2;
  f.type = FaultType::kBusErrorInjection;
  f.persistence = Persistence::kTransient;
  f.bit = 3;  // 4-bit burst
  f.inject_at = Time::sec(6);
  const Observation obs = scenario.run(&f, 42);
  const BmsDiagnostics& d = scenario.last_diagnostics();
  EXPECT_TRUE(obs.completed);
  EXPECT_FALSE(obs.hazard);
  EXPECT_GT(obs.detected, golden.detected);
  EXPECT_GT(d.uart_parity_errors + d.uart_framing_errors + d.crc_failures + d.sync_drops, 0u);
  EXPECT_LT(d.frames_valid, golden_scenario.last_diagnostics().frames_valid);
}

TEST(BmsFaultTest, StuckHotTemperatureSensorForcesASpuriousSafeStop) {
  BmsScenario scenario(quick(BmsMission::kNominal));
  FaultDescriptor f;
  f.id = 3;
  f.type = FaultType::kSensorStuck;
  f.persistence = Persistence::kPermanent;
  f.address = 5;             // temperature channel of cell 1
  f.magnitude = 4.0;         // rescaled to 4*30-20 = 100 °C
  f.inject_at = Time::sec(3);
  const Observation obs = scenario.run(&f, 42);
  const BmsDiagnostics& d = scenario.last_diagnostics();
  EXPECT_TRUE(obs.completed);
  EXPECT_FALSE(obs.hazard);
  EXPECT_EQ(d.final_state, State::kEmergency);  // false positive, but safe
  EXPECT_FALSE(d.relay_closed);
  EXPECT_NE(d.anomaly_union & kOverTemp, 0u);
  EXPECT_GT(obs.detected, 0u);
}

// --------------------------------------------------------------------------
// Replay and driver determinism
// --------------------------------------------------------------------------

void expect_identical_obs(const Observation& full, const Observation& forked,
                          const std::string& context) {
  EXPECT_EQ(full.output_signature, forked.output_signature) << context;
  EXPECT_EQ(full.completed, forked.completed) << context;
  EXPECT_EQ(full.hazard, forked.hazard) << context;
  EXPECT_EQ(full.detected, forked.detected) << context;
  EXPECT_EQ(full.deadline_misses, forked.deadline_misses) << context;
  ASSERT_EQ(full.provenance.size(), forked.provenance.size()) << context;
  for (std::size_t i = 0; i < full.provenance.size(); ++i) {
    EXPECT_EQ(obs::provenance_to_json(full.provenance[i]),
              obs::provenance_to_json(forked.provenance[i]))
        << context << " provenance[" << i << "]";
  }
}

TEST(BmsReplay, SnapshotForkMatchesFullReplayBitwise) {
  for (const char* spec : {"bms:runaway:quick:prov", "bms:short:quick"}) {
    SCOPED_TRACE(spec);
    auto forked = apps::make_scenario(spec);
    auto full = apps::make_scenario(spec);
    forked->set_snapshot_replay(true);
    full->set_snapshot_replay(false);

    CampaignConfig config;
    config.runs = 16;
    config.seed = 42;
    fault::CampaignState state(full->fault_types(), full->duration(), config);

    expect_identical_obs(full->run(nullptr, config.seed), forked->run(nullptr, config.seed),
                         std::string(spec) + " golden");
    for (std::size_t run = 0; run < config.runs; ++run) {
      const FaultDescriptor fault = state.generate(run);
      expect_identical_obs(full->run(&fault, config.seed), forked->run(&fault, config.seed),
                           std::string(spec) + " run " + std::to_string(run));
    }
  }
}

void expect_identical_results(const CampaignResult& a, const CampaignResult& b,
                              const std::string& context) {
  EXPECT_EQ(a.outcome_counts, b.outcome_counts) << context;
  EXPECT_EQ(a.runs_executed, b.runs_executed) << context;
  EXPECT_EQ(a.final_coverage, b.final_coverage) << context;
  ASSERT_EQ(a.records.size(), b.records.size()) << context;
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    EXPECT_EQ(a.records[i].outcome, b.records[i].outcome) << context << " run=" << i;
    EXPECT_EQ(a.records[i].fault.to_string(), b.records[i].fault.to_string())
        << context << " run=" << i;
  }
  EXPECT_EQ(a.provenance_jsonl(), b.provenance_jsonl()) << context;
}

TEST(BmsReplay, ParallelCampaignIsWorkerCountInvariant) {
  const auto factory = [] { return apps::make_scenario("bms:runaway:quick:prov"); };
  CampaignConfig cfg;
  cfg.runs = 16;
  cfg.seed = 11;
  cfg.location_buckets = 8;

  CampaignConfig full_cfg = cfg;
  full_cfg.snapshot_replay = false;
  full_cfg.workers = 1;
  const CampaignResult want = fault::ParallelCampaign(factory, full_cfg).run();

  for (const std::size_t workers : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    CampaignConfig c = cfg;
    c.snapshot_replay = true;
    c.workers = workers;
    const CampaignResult got = fault::ParallelCampaign(factory, c).run();
    expect_identical_results(want, got, "workers=" + std::to_string(workers));
  }
}

TEST(BmsReplay, DistributedFleetMatchesInProcessBaseline) {
  const auto factory = [] { return apps::make_scenario("bms:short:quick"); };
  CampaignConfig cfg;
  cfg.runs = 12;
  cfg.seed = 5;
  cfg.location_buckets = 8;
  const CampaignResult baseline = fault::ParallelCampaign(factory, cfg).run();

  dist::DistConfig dc;
  dc.campaign = cfg;
  dc.workers = 2;
  dist::DistCampaign campaign(factory, dc);
  const CampaignResult got = campaign.run();
  expect_identical_results(baseline, got, "fleet=2");
  EXPECT_EQ(campaign.fleet_stats().worker_deaths, 0u);
}

TEST(BmsReplay, CheckpointResumesAcrossWorkerCounts) {
  const std::string path = ::testing::TempDir() + "/vps_bms_resume.jsonl";
  const auto factory = [] { return apps::make_scenario("bms:runaway:quick"); };
  CampaignConfig cfg;
  cfg.runs = 16;
  cfg.seed = 21;
  cfg.batch_size = 8;
  cfg.location_buckets = 8;

  cfg.workers = 2;
  const CampaignResult uninterrupted = fault::ParallelCampaign(factory, cfg).run();

  CampaignConfig cut = cfg;
  cut.preempt_after = 8;
  cut.checkpoint_path = path;
  const CampaignResult partial = fault::ParallelCampaign(factory, cut).run();
  ASSERT_TRUE(partial.interrupted);

  const fault::CampaignCheckpoint cp = fault::load_checkpoint(path);
  CampaignConfig resume_cfg = cfg;
  for (const std::size_t workers : {std::size_t{1}, std::size_t{8}}) {
    resume_cfg.workers = workers;
    const CampaignResult resumed = fault::ParallelCampaign(factory, resume_cfg).resume(cp);
    expect_identical_results(uninterrupted, resumed,
                             "resume workers=" + std::to_string(workers));
  }
  std::remove(path.c_str());
}

}  // namespace
