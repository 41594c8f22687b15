// ECU runtime tests: E2E protection state machine, CAN controller bridging
// (register-level and C++-level), OS scheduler timing properties (response
// times, preemption, deadline misses under injected execution inflation),
// alive supervision, and the integrated EcuPlatform.

#include <gtest/gtest.h>

#include <vector>

#include "vps/ecu/alive_supervision.hpp"
#include "vps/ecu/e2e.hpp"
#include "vps/ecu/os.hpp"
#include "vps/ecu/platform.hpp"

namespace {

using namespace vps::ecu;
using namespace vps::sim;
using vps::can::CanBus;
using vps::can::CanFrame;

// --------------------------------------------------------------------------
// E2E protection
// --------------------------------------------------------------------------

TEST(E2e, RoundTripOk) {
  const E2eConfig cfg{.data_id = 0x1234, .max_delta_counter = 2};
  E2eProtector tx(cfg);
  E2eChecker rx(cfg);
  const std::vector<std::uint8_t> payload{10, 20, 30};
  for (int i = 0; i < 40; ++i) {  // spans multiple counter wraps
    const auto msg = tx.protect(payload);
    EXPECT_EQ(rx.check(msg), E2eStatus::kOk) << "iteration " << i;
    EXPECT_EQ(rx.last_payload()[1], 20);
  }
  EXPECT_EQ(rx.stats().ok, 40u);
}

TEST(E2e, DetectsCorruptionAnywhere) {
  const E2eConfig cfg{.data_id = 7};
  E2eProtector tx(cfg);
  const std::vector<std::uint8_t> payload{0xAB, 0xCD};
  const auto msg = tx.protect(payload);
  for (std::size_t byte = 0; byte < msg.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      // The alive counter occupies only the low nibble of byte 1; the upper
      // nibble is unused on the wire (as in Profile 1) and not protected.
      if (byte == 1 && bit >= 4) continue;
      E2eChecker rx(cfg);
      auto corrupted = msg;
      corrupted[byte] ^= static_cast<std::uint8_t>(1u << bit);
      const auto status = rx.check(corrupted);
      EXPECT_EQ(status, E2eStatus::kWrongCrc)
          << "byte " << byte << " bit " << bit << " -> " << to_string(status);
    }
  }
}

TEST(E2e, DetectsRepetition) {
  const E2eConfig cfg{.data_id = 1};
  E2eProtector tx(cfg);
  E2eChecker rx(cfg);
  const std::vector<std::uint8_t> payload{1};
  const auto msg = tx.protect(payload);
  EXPECT_EQ(rx.check(msg), E2eStatus::kOk);
  EXPECT_EQ(rx.check(msg), E2eStatus::kRepeated);  // stuck sender
  EXPECT_EQ(rx.stats().repeated, 1u);
}

TEST(E2e, ToleratedLossThenResync) {
  const E2eConfig cfg{.data_id = 1, .max_delta_counter = 2};
  E2eProtector tx(cfg);
  E2eChecker rx(cfg);
  const std::vector<std::uint8_t> payload{1};
  EXPECT_EQ(rx.check(tx.protect(payload)), E2eStatus::kOk);
  (void)tx.protect(payload);  // one message lost on the wire
  EXPECT_EQ(rx.check(tx.protect(payload)), E2eStatus::kOkSomeLost);
  (void)tx.protect(payload);
  (void)tx.protect(payload);
  (void)tx.protect(payload);  // three lost: beyond max_delta
  EXPECT_EQ(rx.check(tx.protect(payload)), E2eStatus::kWrongSequence);
  // After the resync the stream is accepted again.
  EXPECT_EQ(rx.check(tx.protect(payload)), E2eStatus::kOk);
}

TEST(E2e, DifferentDataIdsDoNotCrossTalk) {
  E2eProtector tx(E2eConfig{.data_id = 0x10});
  E2eChecker rx(E2eConfig{.data_id = 0x20});
  const std::vector<std::uint8_t> payload{5};
  // A message from the wrong signal group must fail the CRC (masquerading).
  EXPECT_EQ(rx.check(tx.protect(payload)), E2eStatus::kWrongCrc);
}

// --------------------------------------------------------------------------
// OS scheduler
// --------------------------------------------------------------------------

TEST(Os, PeriodicTaskRunsAtRate) {
  Kernel k;
  OsScheduler os(k, "os");
  int runs = 0;
  os.add_task({.name = "t10ms",
               .period = Time::ms(10),
               .wcet = Time::ms(1),
               .priority = 1,
               .body = [&] { ++runs; }});
  k.run(Time::ms(100));
  EXPECT_EQ(runs, 10);
  const auto& s = os.stats(0);
  EXPECT_EQ(s.completions, 10u);
  EXPECT_EQ(s.deadline_misses, 0u);
  EXPECT_EQ(s.max_response, Time::ms(1));
  EXPECT_NEAR(os.utilization(), 0.1, 0.01);
}

TEST(Os, HigherPriorityPreempts) {
  Kernel k;
  OsScheduler os(k, "os");
  std::vector<std::pair<std::string, Time>> completions;
  const TaskId lo = os.add_task({.name = "lo",
                                 .period = Time::ms(100),
                                 .wcet = Time::ms(10),
                                 .priority = 1,
                                 .body = [&] { completions.emplace_back("lo", k.now()); }});
  const TaskId hi = os.add_task({.name = "hi",
                                 .period = Time::ms(5),
                                 .wcet = Time::ms(1),
                                 .priority = 9,
                                 .body = [&] { completions.emplace_back("hi", k.now()); }});
  k.run(Time::ms(50));
  // hi runs at t=0,5,10 (1ms each) before lo's 10ms budget drains:
  // lo executes in [1,5], [6,10], [11,13] -> response 13ms.
  EXPECT_EQ(os.stats(hi).deadline_misses, 0u);
  EXPECT_EQ(os.stats(lo).completions, 1u);
  EXPECT_EQ(os.stats(lo).max_response, Time::ms(13));
  EXPECT_GE(os.stats(lo).preemptions, 2u);
  ASSERT_FALSE(completions.empty());
  EXPECT_EQ(completions[0].first, "hi");  // hi finishes first despite later release
}

TEST(Os, ExplicitDeadlineShorterThanPeriod) {
  Kernel k;
  OsScheduler os(k, "os");
  const TaskId t = os.add_task({.name = "tight",
                                .period = Time::ms(10),
                                .wcet = Time::ms(3),
                                .deadline = Time::ms(2),  // unschedulable by design
                                .priority = 1,
                                .body = {}});
  k.run(Time::ms(50));
  EXPECT_EQ(os.stats(t).completions, 5u);
  EXPECT_EQ(os.stats(t).deadline_misses, 5u);
}

TEST(Os, ExecutionInflationCausesDeadlineMisses) {
  // E11 core mechanism: a fault that only *slows* a task (e.g. software
  // error correction) produces correct values but violates timing.
  Kernel k;
  OsScheduler os(k, "os");
  const TaskId t = os.add_task(
      {.name = "control", .period = Time::ms(10), .wcet = Time::ms(4), .priority = 1, .body = {}});
  k.run(Time::ms(100));
  EXPECT_EQ(os.total_deadline_misses(), 0u);
  os.set_execution_factor(t, 3.0);  // 4ms -> 12ms > 10ms period
  k.run(Time::ms(200));
  EXPECT_GT(os.stats(t).deadline_misses + os.stats(t).overruns_dropped, 0u);
}

TEST(Os, KilledTaskStopsAndRevives) {
  Kernel k;
  OsScheduler os(k, "os");
  int runs = 0;
  const TaskId t = os.add_task({.name = "t",
                                .period = Time::ms(10),
                                .wcet = Time::ms(1),
                                .priority = 1,
                                .body = [&] { ++runs; }});
  k.run(Time::ms(50));
  const int before = runs;
  EXPECT_EQ(before, 5);
  os.kill_task(t);
  k.run(Time::ms(100));
  EXPECT_EQ(runs, before);  // no executions while dead
  os.revive_task(t);
  k.run(Time::ms(150));
  EXPECT_GT(runs, before);
}

TEST(Os, FullUtilizationSchedulableAtRateMonotonicOrder) {
  Kernel k;
  OsScheduler os(k, "os");
  // U = 0.4 + 0.3 + 0.2 = 0.9 with harmonic periods: schedulable under RM.
  const TaskId a = os.add_task(
      {.name = "a", .period = Time::ms(10), .wcet = Time::ms(4), .priority = 3, .body = {}});
  const TaskId b = os.add_task(
      {.name = "b", .period = Time::ms(20), .wcet = Time::ms(6), .priority = 2, .body = {}});
  const TaskId c = os.add_task(
      {.name = "c", .period = Time::ms(40), .wcet = Time::ms(8), .priority = 1, .body = {}});
  k.run(Time::ms(400));
  EXPECT_EQ(os.stats(a).deadline_misses, 0u);
  EXPECT_EQ(os.stats(b).deadline_misses, 0u);
  EXPECT_EQ(os.stats(c).deadline_misses, 0u);
  EXPECT_NEAR(os.utilization(), 0.9, 0.02);
}

// --------------------------------------------------------------------------
// Alive supervision
// --------------------------------------------------------------------------

TEST(AliveSupervisionTest, HealthyEntityNeverEscalates) {
  Kernel k;
  AliveSupervision sup(k, "wdgm", Time::ms(10));
  const auto id = sup.add_entity("task_a");
  k.spawn("reporter", [](AliveSupervision& sup, AliveSupervision::EntityId id) -> Coro {
    for (int i = 0; i < 100; ++i) {
      co_await delay(Time::ms(5));
      sup.report_alive(id);
    }
  }(sup, id));
  k.run(Time::ms(400));
  EXPECT_EQ(sup.failures(), 0u);
  EXPECT_FALSE(sup.is_failed(id));
}

TEST(AliveSupervisionTest, SilentEntityEscalatesAfterThreshold) {
  Kernel k;
  AliveSupervision sup(k, "wdgm", Time::ms(10), /*failed_cycles_to_escalate=*/3);
  const auto id = sup.add_entity("task_a");
  std::vector<Time> failure_times;
  sup.set_on_failure([&](AliveSupervision::EntityId) { failure_times.push_back(k.now()); });
  // Report for 50ms, then go silent.
  k.spawn("reporter", [](AliveSupervision& sup, AliveSupervision::EntityId id) -> Coro {
    for (int i = 0; i < 10; ++i) {
      co_await delay(Time::ms(5));
      sup.report_alive(id);
    }
  }(sup, id));
  k.run(Time::ms(200));
  ASSERT_EQ(failure_times.size(), 1u);  // latched, fires once
  EXPECT_TRUE(sup.is_failed(id));
  // Escalation after 3 empty cycles past the last report (~50ms + 3*10ms).
  EXPECT_GE(failure_times[0], Time::ms(70));
  EXPECT_LE(failure_times[0], Time::ms(90));
  sup.acknowledge(id);
  EXPECT_FALSE(sup.is_failed(id));
}

// --------------------------------------------------------------------------
// CAN controller + platform integration
// --------------------------------------------------------------------------

TEST(Platform, TwoEcusExchangeCanFramesFromSoftware) {
  Kernel k;
  CanBus canbus(k, "can0", 500000);
  EcuPlatform tx_ecu(k, "tx");
  EcuPlatform rx_ecu(k, "rx");
  tx_ecu.attach_can(canbus);
  rx_ecu.attach_can(canbus);

  // TX program: send one frame (id 0x123, dlc 2, data 0xBBAA) via registers.
  tx_ecu.load_program(R"(
    li r1, 0x40005000
    li r2, 0x123
    sw r2, 0(r1)       ; TX_ID
    addi r2, r0, 2
    sw r2, 4(r1)       ; TX_DLC
    li r2, 0xBBAA
    sw r2, 8(r1)       ; TX_DATA_LO
    sw r0, 16(r1)      ; TX_SEND
    halt
  )");
  // RX program: poll RX_COUNT, then copy id and data into registers.
  rx_ecu.load_program(R"(
      li r1, 0x40005000
    wait:
      lw r2, 20(r1)    ; RX_COUNT
      beq r2, r0, wait
      lw r3, 24(r1)    ; RX_ID
      lw r4, 28(r1)    ; RX_DLC
      lw r5, 32(r1)    ; RX_DATA_LO
      sw r0, 40(r1)    ; RX_POP
      halt
  )");
  k.run(Time::ms(50));
  EXPECT_EQ(rx_ecu.cpu().state(), vps::hw::Cpu::State::kHalted);
  EXPECT_EQ(rx_ecu.cpu().reg(3), 0x123u);
  EXPECT_EQ(rx_ecu.cpu().reg(4), 2u);
  EXPECT_EQ(rx_ecu.cpu().reg(5), 0xBBAAu);
  EXPECT_EQ(canbus.stats().frames_delivered, 1u);
}

TEST(Platform, CanRxRaisesInterruptLine) {
  Kernel k;
  CanBus canbus(k, "can0", 500000);
  EcuPlatform ecu(k, "ecu");
  ecu.attach_can(canbus);

  // A plain C++-level node sends to the platform.
  struct Sender : vps::can::CanNode {
    void on_frame(const CanFrame&) override {}
  } sender;
  canbus.attach(sender);

  // Enable the CAN RX line in the INTC from software, then WFI.
  ecu.load_program(R"(
      j main
    .org 0x10
      addi r10, r10, 1   ; irq taken
      li   r6, 0x40000000
      addi r7, r0, 1
      sw   r7, 12(r6)    ; complete line 1
      reti
    main:
      li   r1, 0x40000000
      addi r2, r0, 2     ; enable line 1 (CAN RX)
      sw   r2, 4(r1)
      ei
      wfi
      halt
  )");
  k.spawn("traffic", [](CanBus& bus, Sender& sender) -> Coro {
    co_await delay(Time::us(300));
    bus.submit(sender, CanFrame::make(0x0AB, std::vector<std::uint8_t>{1, 2}));
  }(canbus, sender));
  k.run(Time::ms(10));
  EXPECT_EQ(ecu.cpu().state(), vps::hw::Cpu::State::kHalted);
  EXPECT_EQ(ecu.cpu().reg(10), 1u);
  EXPECT_EQ(ecu.can().rx_pending(), 1u);
}

TEST(Platform, RxFifoOverflowCountsDrops) {
  Kernel k;
  CanBus canbus(k, "can0", 500000);
  EcuPlatform ecu(k, "ecu");
  ecu.attach_can(canbus);
  struct Sender : vps::can::CanNode {
    void on_frame(const CanFrame&) override {}
  } sender;
  canbus.attach(sender);
  // 20 frames into a 16-deep FIFO with no software draining it.
  for (int i = 0; i < 20; ++i) {
    canbus.submit(sender, CanFrame::make(static_cast<std::uint16_t>(i),
                                         std::vector<std::uint8_t>{static_cast<std::uint8_t>(i)}));
  }
  k.run(Time::ms(50));
  EXPECT_EQ(ecu.can().rx_pending(), CanController::kRxFifoDepth);
  EXPECT_EQ(ecu.can().rx_overflows(), 4u);
}

TEST(Platform, WatchdogResetIncrementsResetCounter) {
  Kernel k;
  EcuPlatform ecu(k, "ecu");
  ecu.load_program(R"(
      li r1, 0x40002000
      addi r2, r0, 100
      sw r2, 4(r1)      ; wdg period 100us
      addi r2, r0, 1
      sw r2, 0(r1)      ; enable
    hang:
      j hang
  )");
  // One watchdog period (100us) plus margin: exactly one reset. (After the
  // reset the program re-arms the watchdog and hangs again, so longer runs
  // accumulate one reset per period.)
  k.run(Time::us(150));
  EXPECT_EQ(ecu.reset_count(), 1u);
  k.run(Time::ms(2));
  EXPECT_GT(ecu.reset_count(), 10u);
}

}  // namespace
