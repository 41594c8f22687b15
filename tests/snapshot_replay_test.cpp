// Snapshot-and-fork replay equivalence: for every registry scenario, a
// faulty replay forked from a cached golden epoch snapshot must be bitwise
// identical — Observation fields, provenance DAGs, derived campaign metrics
// — to a full from-scratch replay, at any worker count. This is the CI
// guard for the replay engine's core contract (see DESIGN.md).

#include <gtest/gtest.h>

#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "vps/apps/registry.hpp"
#include "vps/can/bus.hpp"
#include "vps/ecu/os.hpp"
#include "vps/ecu/platform.hpp"
#include "vps/fault/campaign.hpp"
#include "vps/fault/scenario.hpp"
#include "vps/fault/snapshot_replay.hpp"
#include "vps/obs/provenance.hpp"
#include "vps/sim/kernel.hpp"
#include "vps/support/ensure.hpp"
#include "vps/support/rng.hpp"

namespace {

using namespace vps;
using fault::CampaignConfig;
using fault::FaultDescriptor;
using fault::Observation;
using sim::Time;

void expect_identical(const Observation& full, const Observation& forked,
                      const std::string& context) {
  EXPECT_EQ(full.output_signature, forked.output_signature) << context;
  EXPECT_EQ(full.completed, forked.completed) << context;
  EXPECT_EQ(full.hazard, forked.hazard) << context;
  EXPECT_EQ(full.detected, forked.detected) << context;
  EXPECT_EQ(full.corrected, forked.corrected) << context;
  EXPECT_EQ(full.resets, forked.resets) << context;
  EXPECT_EQ(full.deadline_misses, forked.deadline_misses) << context;
  ASSERT_EQ(full.provenance.size(), forked.provenance.size()) << context;
  for (std::size_t i = 0; i < full.provenance.size(); ++i) {
    // The JSON encoding covers every node field (site, kind, timestamp,
    // parent, depth), so string equality is a bitwise DAG comparison.
    EXPECT_EQ(obs::provenance_to_json(full.provenance[i]),
              obs::provenance_to_json(forked.provenance[i]))
        << context << " provenance[" << i << "]";
  }
}

/// Drives the same generated fault list through two scenario instances —
/// one with snapshot forking, one forced to full replays — and requires
/// bit-identical observations. Faults are drawn by the campaign's own
/// generator so the injection times span the whole run (early injections
/// exercise the full-replay fallback, late ones the deep-epoch forks).
void check_scenario(const std::string& spec, std::size_t runs, std::uint64_t seed) {
  auto forked = apps::make_scenario(spec);
  auto full = apps::make_scenario(spec);
  ASSERT_NE(forked, nullptr);
  ASSERT_NE(full, nullptr);
  forked->set_snapshot_replay(true);
  full->set_snapshot_replay(false);

  CampaignConfig config;
  config.runs = runs;
  config.seed = seed;
  fault::CampaignState state(full->fault_types(), full->duration(), config);

  const Observation golden_full = full->run(nullptr, seed);
  const Observation golden_forked = forked->run(nullptr, seed);
  expect_identical(golden_full, golden_forked, spec + " golden");

  for (std::size_t run = 0; run < runs; ++run) {
    const FaultDescriptor fault = state.generate(run);
    const Observation obs_full = full->run(&fault, seed);
    const Observation obs_forked = forked->run(&fault, seed);
    expect_identical(obs_full, obs_forked,
                     spec + " run " + std::to_string(run) + " " + fault.to_string());
  }
}

TEST(SnapshotReplay, CapsNormalProtected) { check_scenario("caps:normal:protected", 24, 42); }

TEST(SnapshotReplay, CapsCrashUnprotected) { check_scenario("caps:crash:unprotected", 24, 7); }

TEST(SnapshotReplay, CapsCrashProtectedEccProvenance) {
  check_scenario("caps:crash:protected:ecc:prov", 24, 1234);
}

TEST(SnapshotReplay, CapsNormalUnprotectedProvenance) {
  check_scenario("caps:normal:unprotected:prov", 16, 99);
}

TEST(SnapshotReplay, Acc) { check_scenario("acc", 24, 42); }

TEST(SnapshotReplay, BmsRunawayProvenance) { check_scenario("bms:runaway:quick:prov", 16, 42); }

TEST(SnapshotReplay, BmsNominal) { check_scenario("bms:nominal:quick", 16, 7); }

TEST(SnapshotReplay, CapsCrashSeed3007Run142RebootsWithAOneMicrosecondWatchdog) {
  // Run 142 of caps:crash at seed 3007 (campaign_bench's config): the PC
  // upset (PC ^= 0x20) re-runs the boot code with r3 = 1, which sets a
  // 1 us watchdog period, re-enables it and kicks, all in one activation.
  // The watchdog must time out 1 us after that kick, as the event-based
  // guard did, and the reset recovers the firmware. A deadline that slept
  // through the shortened period timed out at the old deadline instead,
  // and the run became a hazard.
  FaultDescriptor fault;
  fault.id = 143;
  fault.type = fault::FaultType::kPcCorruption;
  fault.persistence = fault::Persistence::kTransient;
  fault.inject_at = Time::ps(8'007'885'225);
  fault.location = "pc_corruption/bucket2";
  fault.address = 5'327'290;
  fault.bit = 21;
  for (const bool forked : {false, true}) {
    auto scenario = apps::make_scenario("caps:crash");
    scenario->set_snapshot_replay(forked);
    const Observation golden = scenario->run(nullptr, 3007);
    const Observation faulty = scenario->run(&fault, 3007);
    const std::string context = forked ? "forked" : "full";
    EXPECT_EQ(fault::classify(golden, faulty), fault::Outcome::kDetectedCorrected) << context;
    EXPECT_EQ(faulty.resets, 1u) << context;
  }
}

void expect_same_records(const fault::CampaignResult& want, const fault::CampaignResult& got,
                         const std::string& context) {
  ASSERT_EQ(want.records.size(), got.records.size()) << context;
  for (std::size_t i = 0; i < want.records.size(); ++i) {
    EXPECT_EQ(want.records[i].outcome, got.records[i].outcome) << context << " run=" << i;
    EXPECT_EQ(want.records[i].fault.to_string(), got.records[i].fault.to_string())
        << context << " run=" << i;
    ASSERT_EQ(want.records[i].provenance.size(), got.records[i].provenance.size())
        << context << " run=" << i;
    for (std::size_t p = 0; p < want.records[i].provenance.size(); ++p) {
      EXPECT_EQ(obs::provenance_to_json(want.records[i].provenance[p]),
                obs::provenance_to_json(got.records[i].provenance[p]))
          << context << " run=" << i;
    }
  }
  EXPECT_EQ(want.final_coverage, got.final_coverage) << context;
}

/// The sequential driver must produce identical records with forking on or
/// off — classification, learning and coverage fold identically.
TEST(SnapshotReplay, SequentialCampaignEquivalence) {
  const std::string spec = "caps:crash:protected:prov";
  CampaignConfig config;
  config.runs = 16;
  config.seed = 11;

  config.snapshot_replay = false;
  auto full_scenario = apps::make_scenario(spec);
  fault::Campaign reference(*full_scenario, config);
  const fault::CampaignResult want = reference.run();

  config.snapshot_replay = true;
  auto forked_scenario = apps::make_scenario(spec);
  fault::Campaign campaign(*forked_scenario, config);
  expect_same_records(want, campaign.run(), "sequential fork-vs-full");
}

/// The parallel driver must produce identical aggregate results with
/// forking on or off, regardless of worker count: every replay forks from a
/// snapshot cached inside the worker's own scenario instance, so scheduling
/// cannot perturb results.
TEST(SnapshotReplay, ParallelCampaignEquivalenceAcrossWorkers) {
  const std::string spec = "caps:crash:protected:prov";
  CampaignConfig base_config;
  base_config.runs = 16;
  base_config.seed = 11;

  CampaignConfig full_config = base_config;
  full_config.snapshot_replay = false;
  full_config.workers = 1;
  fault::ParallelCampaign reference([&spec] { return apps::make_scenario(spec); }, full_config);
  const fault::CampaignResult want = reference.run();

  for (const std::size_t workers : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    CampaignConfig config = base_config;
    config.snapshot_replay = true;
    config.workers = workers;
    fault::ParallelCampaign campaign([&spec] { return apps::make_scenario(spec); }, config);
    expect_same_records(want, campaign.run(), "workers=" + std::to_string(workers));
  }
}

// --------------------------------------------------------------------------
// The replay core on a toy system: branches no twin reaches
// --------------------------------------------------------------------------

/// What the toy system's restore() saw: how often it ran, and the instant
/// of the last epoch it overlaid; and the first noise value the last run
/// from time zero drew.
struct ToyProbe {
  std::size_t restores = 0;
  Time restored_from = Time::max();
  double first_noise = 0.0;
};

struct ToyConfig {
  Time duration = Time::ms(80);
  sim::RunBudget run_budget{.max_deltas_without_advance = 1000};
  /// Golden livelock: a delta-notification storm from this instant on.
  Time storm_at = Time::max();
  ToyProbe* probe = nullptr;
};

struct ToySnapshot {
  sim::KernelSnapshot kernel;
  std::uint64_t counter = 0;
  std::size_t noise_cursor = 0;
  bool tick_pending = false;
};

/// The smallest system the replay core accepts: a 1 ms tick folds the time
/// and one draw of the seed's noise tape into a seed-dependent counter, and
/// the fault XORs its id into the counter at inject_at. The tick does not
/// commute with the XOR, so an injection ordered one event early or late
/// changes the result; a tape left on another seed's stream, or a cursor a
/// restore does not carry over, does too.
struct ToySystem {
  sim::Kernel kernel;
  sim::Event storm{kernel, "toy.storm"};
  ToyProbe* probe;
  support::NormalTape& noise;
  std::uint64_t counter;
  std::size_t noise_cursor = 0;
  bool tick_pending = false;

  ToySystem(const ToyConfig& cfg, std::uint64_t seed, support::NormalTape& tape)
      : probe(cfg.probe), noise(tape), counter(seed) {
    kernel.spawn("toy.tick", tick_loop());
    if (cfg.storm_at != Time::max()) {
      kernel.method("toy.feedback", [this] { storm.notify(); }, {&storm}, /*initialize=*/false);
      storm.notify(cfg.storm_at);
    }
  }

  [[nodiscard]] sim::Coro tick_loop() {
    for (;;) {
      if (tick_pending) {
        tick_pending = false;
        const double z = noise.draw(noise_cursor++, 0.0, 1.0);
        if (noise_cursor == 1) probe->first_noise = z;
        counter = counter * 6364136223846793005ULL + kernel.now().picoseconds() +
                  std::bit_cast<std::uint64_t>(z);
      }
      tick_pending = true;
      co_await sim::delay(Time::ms(1));
    }
  }

  void inject(const FaultDescriptor& fault) {
    kernel.spawn("toy.fault", [](ToySystem& s, std::uint64_t id, Time delay) -> sim::Coro {
      co_await sim::delay(delay);
      s.counter ^= id;
    }(*this, fault.id, fault.inject_at - kernel.now()));
  }

  void capture(ToySnapshot& s) const {
    s.kernel = kernel.snapshot();
    s.counter = counter;
    s.noise_cursor = noise_cursor;
    s.tick_pending = tick_pending;
  }

  void restore(const ToySnapshot& s) {
    kernel.restore(s.kernel);
    counter = s.counter;
    noise_cursor = s.noise_cursor;
    tick_pending = s.tick_pending;
    ++probe->restores;
    probe->restored_from = s.kernel.now;
  }
};

using ToyReplay = fault::SnapshotReplay<ToySystem, ToySnapshot>;

Observation toy_observe(ToySystem& sys, sim::RunStatus status) {
  Observation obs;
  obs.completed = !status.budget_exhausted();
  obs.output_signature = static_cast<std::uint32_t>(sys.counter ^ (sys.counter >> 32));
  return obs;
}

FaultDescriptor toy_fault(std::uint64_t id, Time inject_at) {
  FaultDescriptor fault;
  fault.id = id;
  fault.inject_at = inject_at;
  return fault;
}

/// Replays `fault` (null = golden) on `forked` with forking on and on a
/// fresh instance with it off; the two observations must be identical.
Observation check_toy(ToyReplay& forked, const ToyConfig& cfg, const FaultDescriptor* fault,
                      std::uint64_t seed, const std::string& context) {
  ToyReplay full;
  const Observation want = full.run(cfg, fault, seed, /*fork=*/false, toy_observe);
  const Observation got = forked.run(cfg, fault, seed, /*fork=*/true, toy_observe);
  expect_identical(want, got, context);
  return got;
}

TEST(SnapshotReplayCore, InjectionAtAnEpochInstantForksFromTheEpochBefore) {
  ToyProbe probe;
  const ToyConfig cfg{.probe = &probe};
  ToyReplay forked;
  (void)check_toy(forked, cfg, nullptr, 5, "golden");
  for (std::size_t k = 1; k < fault::kReplayEpochs; ++k) {
    const FaultDescriptor fault = toy_fault(k, cfg.duration * k / fault::kReplayEpochs);
    const std::size_t restores_before = probe.restores;
    (void)check_toy(forked, cfg, &fault, 5, "inject at epoch " + std::to_string(k));
    if (k == 1) {
      EXPECT_EQ(probe.restores, restores_before) << "no epoch lies strictly before the first";
    } else {
      EXPECT_EQ(probe.restores, restores_before + 1) << "epoch " << k;
      EXPECT_EQ(probe.restored_from, cfg.duration * (k - 1) / fault::kReplayEpochs)
          << "epoch " << k;
    }
  }
}

TEST(SnapshotReplayCore, InjectionBeforeTheFirstEpochRunsAsAFullReplay) {
  ToyProbe probe;
  const ToyConfig cfg{.probe = &probe};
  ToyReplay forked;
  (void)check_toy(forked, cfg, nullptr, 5, "golden");
  const Time first_epoch = cfg.duration / fault::kReplayEpochs;
  for (const Time at : {Time::zero(), Time::ms(3), first_epoch - Time::us(1)}) {
    const FaultDescriptor fault = toy_fault(9, at);
    (void)check_toy(forked, cfg, &fault, 5, "inject at " + at.to_string());
  }
  EXPECT_EQ(probe.restores, 0u);
}

TEST(SnapshotReplayCore, AlternatingSeedsRecaptureOnOneInstance) {
  ToyProbe probe;
  const ToyConfig cfg{.probe = &probe};
  ToyReplay forked;  // cold, like a freshly forked worker: no golden run first
  const FaultDescriptor fault = toy_fault(3, cfg.duration * 3 / 4 + Time::us(500));
  std::size_t restores = 0;
  for (const std::uint64_t seed : {std::uint64_t{11}, std::uint64_t{22}, std::uint64_t{11}}) {
    (void)check_toy(forked, cfg, &fault, seed, "seed " + std::to_string(seed));
    EXPECT_EQ(probe.restores, ++restores) << "seed " << seed;
    // The systems of both instances read the tape of the seed they ran.
    EXPECT_EQ(std::bit_cast<std::uint64_t>(probe.first_noise),
              std::bit_cast<std::uint64_t>(support::Xorshift(seed).normal()))
        << "seed " << seed;
  }
}

TEST(SnapshotReplayCore, GoldenLivelockLeavesNoCache) {
  ToyProbe probe;
  ToyConfig cfg{.probe = &probe};
  // The storm trips the budget in the fourth capture segment, after three
  // epochs were already imaged.
  cfg.storm_at = cfg.duration * 3 / fault::kReplayEpochs + Time::ms(2);
  ToyReplay forked;
  EXPECT_FALSE(check_toy(forked, cfg, nullptr, 5, "golden").completed);
  // The first injection could fork from an epoch imaged before the trip;
  // with no cache left, it and every later one replay in full.
  for (const std::size_t k : {std::size_t{2}, std::size_t{7}}) {
    const FaultDescriptor fault =
        toy_fault(k, cfg.duration * k / fault::kReplayEpochs + Time::ms(1));
    (void)check_toy(forked, cfg, &fault, 5, "inject after epoch " + std::to_string(k));
  }
  EXPECT_EQ(probe.restores, 0u);
}

// --------------------------------------------------------------------------
// Restore shape checks: a snapshot restored onto a twin of another shape
// must fail, never resize the twin to fit
// --------------------------------------------------------------------------

/// Runs `restore` and requires an InvariantError whose text contains
/// `message`.
template <class F>
void expect_restore_fails(F restore, const std::string& message) {
  try {
    restore();
    ADD_FAILURE() << "restore accepted a snapshot of another shape; want: " << message;
  } catch (const support::InvariantError& e) {
    EXPECT_NE(std::string(e.what()).find(message), std::string::npos) << e.what();
  }
}

sim::Coro idle_process() {
  for (;;) co_await sim::delay(Time::ms(1));
}

TEST(RestoreShape, KernelRejectsAnotherProcessOrEventCount) {
  const std::string message = "Kernel::restore: system shape differs from the snapshot source";
  sim::Kernel source;
  source.spawn("a", idle_process());
  sim::Event source_event(source, "e");
  (void)source.run(Time::ms(3));
  const sim::KernelSnapshot snap = source.snapshot();

  sim::Kernel fewer_processes;
  sim::Event e1(fewer_processes, "e");
  expect_restore_fails([&] { fewer_processes.restore(snap); }, message);

  sim::Kernel more_events;
  more_events.spawn("a", idle_process());
  sim::Event e2(more_events, "e");
  sim::Event extra(more_events, "extra");
  expect_restore_fails([&] { more_events.restore(snap); }, message);
}

TEST(RestoreShape, OsSchedulerRejectsAnotherTaskCount) {
  const auto build = [](sim::Kernel& kernel, std::size_t tasks) {
    auto os = std::make_unique<ecu::OsScheduler>(kernel, "os");
    for (std::size_t i = 0; i < tasks; ++i) {
      os->add_task({.name = "t" + std::to_string(i),
                    .period = Time::ms(10),
                    .wcet = Time::ms(1),
                    .body = {}});
    }
    return os;
  };
  sim::Kernel k2;
  const auto two = build(k2, 2);
  (void)k2.run(Time::ms(25));
  const ecu::OsScheduler::Snapshot snap = two->snapshot();
  for (const std::size_t tasks : {std::size_t{1}, std::size_t{3}}) {
    sim::Kernel k;
    const auto other = build(k, tasks);
    expect_restore_fails([&] { other->restore(snap); },
                         "OsScheduler::restore: task count differs from snapshot");
  }
}

struct QuietNode final : can::CanNode {
  void on_frame(const can::CanFrame&) override {}
};

TEST(RestoreShape, CanBusRejectsAnotherNodeCount) {
  sim::Kernel k2;
  can::CanBus two(k2, "can0");
  QuietNode a;
  QuietNode b;
  two.attach(a);
  two.attach(b);
  const can::CanBus::Snapshot snap = two.snapshot();
  for (const std::size_t nodes : {std::size_t{1}, std::size_t{3}}) {
    sim::Kernel k;
    can::CanBus other(k, "can0");
    std::vector<QuietNode> attached(nodes);
    for (QuietNode& n : attached) other.attach(n);
    expect_restore_fails([&] { other.restore(snap); },
                         "CanBus::restore: node count differs from snapshot");
  }
}

TEST(RestoreShape, EcuPlatformRejectsAnotherCanAttachment) {
  const std::string message = "EcuPlatform::restore: CAN attachment differs from snapshot";
  sim::Kernel k1;
  can::CanBus bus1(k1, "can0");
  ecu::EcuPlatform with_can(k1, "ecu");
  with_can.attach_can(bus1);
  sim::Kernel k2;
  ecu::EcuPlatform without_can(k2, "ecu");
  const ecu::EcuPlatform::Snapshot can_snap = with_can.snapshot();
  const ecu::EcuPlatform::Snapshot plain_snap = without_can.snapshot();
  expect_restore_fails([&] { without_can.restore(can_snap); }, message);
  expect_restore_fails([&] { with_can.restore(plain_snap); }, message);
}

}  // namespace
