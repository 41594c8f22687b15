// Loop fast-forward in the AR32 ISS (hw::Cpu), checked against
// per-instruction stepping. The reference is the same platform with a
// no-op trace hook: a hook sees every instruction, so it turns
// fast-forward off. Both platforms run in lock step and, at every quantum
// boundary, every architectural and statistical state a fast-forward moves
// must agree: the CPU snapshot (registers, PC, stats, quantum keeper), the
// kernel stats, the router and RAM counters, and the watchdog, timer,
// interrupt-controller, GPIO, ADC and CAN images. Positive cases must
// fast-forward; negative cases (including a probed bus) must not
// (Cpu::fast_forwarded() == 0).

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "vps/can/bus.hpp"
#include "vps/ecu/platform.hpp"
#include "vps/obs/probe.hpp"

namespace {

using namespace vps;
using sim::Time;

/// Kick-and-poll firmware (the CAPS airbag loop): kick the watchdog, poll
/// the CAN RX count, and on a frame pop it and count it in RAM at 0x2000.
constexpr const char* kKickAndPoll = R"(
      li   r1, 0x40005000    ; CAN controller
      li   r2, 0x40002000    ; watchdog
      addi r3, r0, 2000
      sw   r3, 4(r2)         ; period 2000 us
      addi r3, r0, 1
      sw   r3, 0(r2)         ; enable
    loop:
      sw   r0, 8(r2)         ; kick
      lw   r5, 20(r1)        ; RX_COUNT
      beq  r5, r0, loop
      lw   r6, 32(r1)        ; RX_DATA_LO
      sw   r0, 40(r1)        ; RX_POP
      lw   r7, 0x2000(r0)
      addi r7, r7, 1
      sw   r7, 0x2000(r0)    ; frames seen
      j    loop
)";

/// Waits for timer interrupts by polling the timer's expiry count; the
/// handler acknowledges the timer and the controller and counts in RAM.
constexpr const char* kTimerIrqWait = R"(
      j    main
      .org 0x10
    isr:
      li   r10, 0x40001000
      addi r11, r0, 1
      sw   r11, 8(r10)       ; timer STATUS, write 1 to clear
      li   r10, 0x40000000
      sw   r0, 12(r10)       ; intc COMPLETE line 0
      lw   r11, 0x2000(r0)
      addi r11, r11, 1
      sw   r11, 0x2000(r0)   ; ticks handled
      reti
    main:
      li   r1, 0x40001000    ; timer
      addi r3, r0, 95
      sw   r3, 4(r1)         ; period 95 us
      addi r3, r0, 3
      sw   r3, 0(r1)         ; enable, periodic
      li   r2, 0x40000000    ; intc
      addi r3, r0, 1
      sw   r3, 4(r2)         ; enable line 0
      ei
    wait:
      lw   r5, 12(r1)        ; EXPIRY_COUNT
      beq  r5, r6, wait
      mov  r6, r5
      j    wait
)";

/// Boots, counts the boot in RAM, then hangs until the watchdog resets it.
constexpr const char* kHungLoop = R"(
      li   r2, 0x40002000
      addi r3, r0, 230
      sw   r3, 4(r2)         ; period 230 us
      addi r3, r0, 1
      sw   r3, 0(r2)         ; enable
      lw   r4, 0x2000(r0)
      addi r4, r4, 1
      sw   r4, 0x2000(r0)    ; boot count
    hang:
      j    hang
)";

/// Submits the TX mailbox on every iteration.
constexpr const char* kTxSendLoop = R"(
      li   r1, 0x40005000
      addi r3, r0, 0x123
      sw   r3, 0(r1)         ; TX_ID
      addi r3, r0, 2
      sw   r3, 4(r1)         ; TX_DLC
    loop:
      sw   r0, 16(r1)        ; TX_SEND
      j    loop
)";

/// Polls the ADC: every read samples the source and counts a conversion.
constexpr const char* kAdcPoll = R"(
      li   r1, 0x40004000
    loop:
      lw   r5, 0(r1)         ; DATA
      beq  r5, r0, loop
      halt
)";

constexpr const char* kCountingLoop = R"(
    loop:
      addi r2, r2, 1
      j    loop
)";

/// Stores to RAM through DMI on every iteration.
constexpr const char* kDmiStoreLoop = R"(
    loop:
      sw   r0, 0x2000(r0)
      j    loop
)";

/// Puts a one-byte frame on the bus every `period`.
class FrameSource final : public can::CanNode {
 public:
  FrameSource(sim::Kernel& kernel, can::CanBus& bus, Time period) : bus_(bus), period_(period) {
    bus.attach(*this);
    kernel.spawn("source", run());
  }
  void on_frame(const can::CanFrame&) override {}

 private:
  [[nodiscard]] sim::Coro run() {
    for (std::uint8_t n = 0;; ++n) {
      co_await sim::delay(period_);
      const std::uint8_t payload[1] = {n};
      bus_.submit(*this, can::CanFrame::make(0x050, payload));
    }
  }

  can::CanBus& bus_;
  Time period_;
};

struct Options {
  Time quantum = Time::us(10);
  hw::EccMode ecc = hw::EccMode::kNone;
  Time frame_period = Time::zero();  ///< zero: no frame source
};

struct Rig {
  sim::Kernel kernel;
  can::CanBus bus;
  ecu::EcuPlatform ecu;
  std::unique_ptr<FrameSource> source;

  Rig(const char* program, const Options& opt)
      : bus(kernel, "can0", 500000), ecu(kernel, "ecu", platform_config(opt)) {
    ecu.attach_can(bus);
    ecu.load_program(program);
    if (opt.frame_period != Time::zero()) {
      source = std::make_unique<FrameSource>(kernel, bus, opt.frame_period);
    }
  }

  static ecu::EcuPlatform::Config platform_config(const Options& opt) {
    ecu::EcuPlatform::Config pc;
    pc.ecc = opt.ecc;
    pc.cpu.quantum = opt.quantum;
    return pc;
  }
};

using Fields = std::vector<std::pair<std::string, std::uint64_t>>;

Fields state_of(Rig& r) {
  Fields f;
  const auto add = [&f](std::string name, std::uint64_t v) { f.emplace_back(std::move(name), v); };
  const hw::Cpu::Snapshot c = r.ecu.cpu().snapshot();
  add("cpu.state", static_cast<std::uint64_t>(c.state));
  add("cpu.fault_cause", static_cast<std::uint64_t>(c.fault_cause));
  add("cpu.fault_address", c.fault_address);
  add("cpu.pc", c.pc);
  for (std::size_t i = 0; i < c.regs.size(); ++i) add("cpu.r" + std::to_string(i), c.regs[i]);
  add("cpu.irq_enabled", c.irq_enabled);
  add("cpu.in_irq", c.in_irq);
  add("cpu.saved_pc", c.saved_pc);
  add("cpu.instructions", c.stats.instructions);
  add("cpu.loads", c.stats.loads);
  add("cpu.stores", c.stats.stores);
  add("cpu.branches_taken", c.stats.branches_taken);
  add("cpu.irqs_taken", c.stats.irqs_taken);
  add("cpu.dmi_accesses", c.stats.dmi_accesses);
  add("cpu.bus_accesses", c.stats.bus_accesses);
  add("cpu.qk.local", c.qk.local.picoseconds());
  add("cpu.qk.sync_count", c.qk.sync_count);
  add("cpu.dmi_held", c.dmi_held);
  const sim::KernelStats& k = r.kernel.stats();
  add("kernel.now", r.kernel.now().picoseconds());
  add("kernel.activations", k.activations);
  add("kernel.delta_cycles", k.delta_cycles);
  add("kernel.timed_steps", k.timed_steps);
  add("kernel.notifications", k.notifications);
  add("kernel.updates", k.updates);
  add("bus.forwarded", r.ecu.bus().forwarded());
  add("bus.decode_errors", r.ecu.bus().decode_errors());
  add("ram.reads", r.ecu.ram().reads());
  add("ram.writes", r.ecu.ram().writes());
  add("ram.corrected", r.ecu.ram().corrected_errors());
  add("ram.uncorrectable", r.ecu.ram().uncorrectable_errors());
  add("ram[0x2000]", r.ecu.ram().peek32(0x2000));
  const hw::Watchdog::Snapshot w = r.ecu.watchdog().snapshot();
  add("wdg.ctrl", w.ctrl);
  add("wdg.period_us", w.period_us);
  add("wdg.timeouts", w.timeouts);
  add("wdg.sleeping", w.sleeping);
  add("wdg.deadline", w.deadline.picoseconds());
  add("wdg.deadline_seq", w.deadline_seq);
  add("wdg.kick_delta", w.kick_delta);
  const hw::Timer::Snapshot t = r.ecu.timer().snapshot();
  add("timer.ctrl", t.ctrl);
  add("timer.period_us", t.period_us);
  add("timer.status", t.status);
  add("timer.expiries", t.expiries);
  add("timer.config_generation", t.config_generation);
  add("timer.armed", t.armed);
  const hw::InterruptController::Snapshot ic = r.ecu.intc().snapshot();
  add("intc.pending", ic.pending);
  add("intc.enable", ic.enable);
  add("intc.irq_out", ic.irq_out.value);
  add("intc.irq_out.changes", ic.irq_out.change_count);
  const hw::Gpio::Snapshot g = r.ecu.gpio().snapshot();
  add("gpio.out", g.out.value);
  add("gpio.out.changes", g.out.change_count);
  add("gpio.in", g.in.value);
  add("adc.conversions", r.ecu.adc().snapshot().conversions);
  const ecu::CanController::Snapshot can = r.ecu.can().snapshot();
  add("can.tx_mailbox.id", can.tx_mailbox.id);
  add("can.tx_mailbox.dlc", can.tx_mailbox.dlc);
  add("can.rx_fifo", can.rx_fifo.size());
  add("can.rx_overflows", can.rx_overflows);
  add("can.bus.frames_delivered", r.bus.stats().frames_delivered);
  add("resets", r.ecu.reset_count());
  return f;
}

/// An injection applied to both platforms at a quantum boundary.
struct Injection {
  Time at;
  std::function<void(Rig&)> apply;
};

/// The two platforms of one lock-step run, kept for the caller's checks.
struct Lockstep {
  std::unique_ptr<Rig> ff;
  std::unique_ptr<Rig> ref;
  std::uint64_t ref_hook_calls = 0;
};

/// Runs `program` for `duration` on a fast-forwarding platform and on the
/// hook-stepped reference, comparing their states at every quantum
/// boundary.
Lockstep run_lockstep(const char* program, const Options& opt, Time duration,
                      const std::vector<Injection>& injections = {}) {
  Lockstep ls;
  ls.ff = std::make_unique<Rig>(program, opt);
  ls.ref = std::make_unique<Rig>(program, opt);
  ls.ref->ecu.cpu().set_trace_hook(
      [&calls = ls.ref_hook_calls](std::uint32_t, const hw::Decoded&) { ++calls; });
  const Time step = opt.quantum == Time::zero() ? Time::us(10) : opt.quantum;
  for (Time t = step; t <= duration; t += step) {
    ls.ff->kernel.run(t);
    ls.ref->kernel.run(t);
    for (const Injection& inj : injections) {
      if (inj.at == t) {
        inj.apply(*ls.ff);
        inj.apply(*ls.ref);
      }
    }
    const Fields a = state_of(*ls.ff);
    const Fields b = state_of(*ls.ref);
    EXPECT_EQ(a.size(), b.size());
    bool same = a.size() == b.size();
    for (std::size_t i = 0; same && i < a.size(); ++i) {
      EXPECT_EQ(a[i].second, b[i].second) << a[i].first << " at " << t.to_string();
      same = a[i].second == b[i].second;
    }
    if (!same) break;  // one divergence is enough to report
  }
  EXPECT_EQ(ls.ref->ecu.cpu().fast_forwarded(), 0u);
  EXPECT_EQ(ls.ref_hook_calls, ls.ref->ecu.cpu().stats().instructions);
  return ls;
}

double ff_share(Rig& r) {
  const auto& cpu = r.ecu.cpu();
  return static_cast<double>(cpu.fast_forwarded()) /
         static_cast<double>(cpu.stats().instructions);
}

// --- positive cases ---------------------------------------------------------

TEST(IssFastForward, KickAndPollWithCanFramesMatchesStepping) {
  Options opt;
  opt.frame_period = Time::us(470);
  Lockstep ls = run_lockstep(kKickAndPoll, opt, Time::ms(5));
  EXPECT_GT(ls.ff->ecu.ram().peek32(0x2000), 5u);  // frames arrived and were counted
  EXPECT_EQ(ls.ff->ecu.watchdog().timeout_count(), 0u);
  EXPECT_GE(ff_share(*ls.ff), 0.9) << "the poll loop must fast-forward >= 90 % of it";
}

TEST(IssFastForward, KickAndPollWithEccMatchesStepping) {
  Options opt;
  opt.frame_period = Time::us(470);
  opt.ecc = hw::EccMode::kSecded;
  // A flipped bit in the loop's `lw` word: the next fetch corrects and
  // scrubs it, which is no repeatable access, and fast-forward resumes.
  const std::vector<Injection> inj = {
      {Time::us(1000), [](Rig& r) { r.ecu.ram().flip_bit(0x20, 3); }},
      {Time::us(2500), [](Rig& r) { r.ecu.ram().flip_bit(0x28, 0); }},
  };
  Lockstep ls = run_lockstep(kKickAndPoll, opt, Time::ms(4), inj);
  EXPECT_GE(ls.ff->ecu.ram().corrected_errors(), 1u);
  EXPECT_GT(ls.ff->ecu.ram().peek32(0x2000), 4u);
  EXPECT_GE(ff_share(*ls.ff), 0.9);
}

TEST(IssFastForward, InjectionsBetweenQuantaMatchStepping) {
  Options opt;
  opt.frame_period = Time::us(330);
  const std::vector<Injection> inj = {
      {Time::us(300), [](Rig& r) { r.ecu.cpu().corrupt_register(5, 1u << 0); }},
      {Time::us(600), [](Rig& r) { r.ecu.cpu().corrupt_register(7, 1u << 4); }},
      {Time::us(900), [](Rig& r) { r.ecu.cpu().corrupt_pc(1u << 3); }},
      {Time::us(1200), [](Rig& r) { r.ecu.ram().flip_bit(0x2000, 1); }},
      {Time::us(1500), [](Rig& r) { r.ecu.cpu().corrupt_register(2, 1u << 2); }},
      {Time::us(2100), [](Rig& r) { r.ecu.ram().flip_bit(0x1D, 2); }},
  };
  Lockstep ls = run_lockstep(kKickAndPoll, opt, Time::ms(6), inj);
  EXPECT_GT(ls.ff->ecu.cpu().fast_forwarded(), 0u);
}

TEST(IssFastForward, TimerIrqWaitLoopMatchesStepping) {
  Lockstep ls = run_lockstep(kTimerIrqWait, Options{}, Time::ms(3));
  EXPECT_GT(ls.ff->ecu.ram().peek32(0x2000), 20u);  // the handler ran per expiry
  EXPECT_GT(ls.ff->ecu.cpu().stats().irqs_taken, 20u);
  EXPECT_GT(ls.ff->ecu.cpu().fast_forwarded(), 0u);
}

TEST(IssFastForward, HungLoopResetByWatchdogMatchesStepping) {
  Lockstep ls = run_lockstep(kHungLoop, Options{}, Time::ms(2));
  EXPECT_GE(ls.ff->ecu.watchdog().timeout_count(), 1u);
  EXPECT_GE(ls.ff->ecu.ram().peek32(0x2000), 2u);  // booted again after the reset
  EXPECT_GE(ff_share(*ls.ff), 0.9);
}

// --- negative cases: identical state, nothing fast-forwarded ----------------

TEST(IssFastForward, TxSendLoopIsNeverFastForwarded) {
  Lockstep ls = run_lockstep(kTxSendLoop, Options{}, Time::us(300));
  EXPECT_EQ(ls.ff->ecu.cpu().fast_forwarded(), 0u);
  EXPECT_GT(ls.ff->bus.stats().frames_delivered, 0u);
  EXPECT_EQ(ls.ff->bus.stats().frames_delivered, ls.ref->bus.stats().frames_delivered);
}

TEST(IssFastForward, AdcPollingLoopIsNeverFastForwarded) {
  Lockstep ls = run_lockstep(kAdcPoll, Options{}, Time::us(500));
  EXPECT_EQ(ls.ff->ecu.cpu().fast_forwarded(), 0u);
  EXPECT_GT(ls.ff->ecu.adc().conversions(), 10u);
}

TEST(IssFastForward, CountingLoopIsNeverFastForwarded) {
  Lockstep ls = run_lockstep(kCountingLoop, Options{}, Time::us(500));
  EXPECT_EQ(ls.ff->ecu.cpu().fast_forwarded(), 0u);
  EXPECT_GT(ls.ff->ecu.cpu().reg(2), 1000u);
}

TEST(IssFastForward, DmiStoreLoopIsNeverFastForwarded) {
  Lockstep ls = run_lockstep(kDmiStoreLoop, Options{}, Time::us(500));
  EXPECT_EQ(ls.ff->ecu.cpu().fast_forwarded(), 0u);
  EXPECT_GT(ls.ff->ecu.cpu().stats().dmi_accesses, 1000u);
}

TEST(IssFastForward, ProbedBusIsNeverFastForwarded) {
  // Every probed transaction is a latency sample, so the router clears the
  // flag and the poll loop steps; the probe sees each access.
  Options opt;
  opt.frame_period = Time::us(150);
  Rig ff(kKickAndPoll, opt);
  Rig ref(kKickAndPoll, opt);
  obs::TransactionProbe ff_probe(ff.kernel, "bus");
  obs::TransactionProbe ref_probe(ref.kernel, "bus");
  ff.ecu.bus().set_probe(&ff_probe);
  ref.ecu.bus().set_probe(&ref_probe);
  ref.ecu.cpu().set_trace_hook([](std::uint32_t, const hw::Decoded&) {});
  ff.kernel.run(Time::us(600));
  ref.kernel.run(Time::us(600));
  EXPECT_EQ(ff.ecu.cpu().fast_forwarded(), 0u);
  EXPECT_EQ(ff_probe.transactions(), ref_probe.transactions());
  EXPECT_EQ(ff_probe.transactions(), ff.ecu.bus().forwarded());
  EXPECT_EQ(state_of(ff), state_of(ref));
}

TEST(IssFastForward, ZeroQuantumIsNeverFastForwarded) {
  Options opt;
  opt.quantum = Time::zero();
  opt.frame_period = Time::us(150);
  Lockstep ls = run_lockstep(kKickAndPoll, opt, Time::us(600));
  EXPECT_EQ(ls.ff->ecu.cpu().fast_forwarded(), 0u);
  EXPECT_GT(ls.ff->ecu.ram().peek32(0x2000), 2u);
}

}  // namespace
