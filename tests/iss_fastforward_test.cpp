// Loop fast-forward and quantum replay in the AR32 ISS (hw::Cpu), checked
// against per-instruction stepping. The reference is the same platform
// with a no-op trace hook: a hook sees every instruction, so it turns both
// off. Both platforms run in lock step and, at the end of every run(until)
// segment, every architectural and statistical state either moves must
// agree: the CPU snapshot (registers, PC, stats, quantum keeper), the
// kernel stats, next_seq and inline steps, the router and RAM counters, and
// the watchdog, timer, interrupt-controller, GPIO, ADC and CAN images.
//
// Loop fast-forward (DESIGN.md §10) is checked at every quantum boundary.
// Positive cases must fast-forward; negative cases (including a probed
// bus) must not (Cpu::fast_forwarded() == 0).
//
// Quantum replay (DESIGN.md §14) needs syncs the kernel applies in place,
// and a sync that crosses a run(until) end never is. So its cases run in
// 1 ms segments and in odd 333 us ones, whose ends fall mid-chain. Positive
// cases must replay (Cpu::replayed_quanta() > 0, more than 99 % of their
// instructions not interpreted); chain breakers must match the reference
// across the break; the rest must never replay. A run of quanta round a
// closed cycle of records is applied in bulk (Cpu::bulk_quanta()); a cycle
// whose records make different re-arm writes never is, and a RunBudget
// that trips inside such a run must trip as the reference's does.

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
#include "vps/obs/provenance.hpp"

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
  Time segment = Time::zero();       ///< run(until) step; zero: one quantum
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
  add("kernel.next_seq", r.kernel.snapshot().next_seq);
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

/// Reports the first field that differs; true when all agree.
bool same_state(Rig& a, Rig& b, const std::string& where) {
  const Fields x = state_of(a);
  const Fields y = state_of(b);
  EXPECT_EQ(x.size(), y.size());
  for (std::size_t i = 0; i < x.size() && i < y.size(); ++i) {
    EXPECT_EQ(x[i].second, y[i].second) << x[i].first << " at " << where;
    if (x[i].second != y[i].second) return false;
  }
  return x.size() == y.size();
}

/// Runs `program` for `duration` on a fast-forwarding platform and on the
/// hook-stepped reference, comparing their states at the end of every
/// segment (every quantum boundary by default).
Lockstep run_lockstep(const char* program, const Options& opt, Time duration,
                      const std::vector<Injection>& injections = {}) {
  Lockstep ls;
  ls.ff = std::make_unique<Rig>(program, opt);
  ls.ref = std::make_unique<Rig>(program, opt);
  ls.ref->ecu.cpu().set_trace_hook(
      [&calls = ls.ref_hook_calls](std::uint32_t, const hw::Decoded&) { ++calls; });
  const Time quantum = opt.quantum == Time::zero() ? Time::us(10) : opt.quantum;
  const Time step = opt.segment == Time::zero() ? quantum : opt.segment;
  for (Time t = step; t <= duration; t += step) {
    ls.ff->kernel.run(t);
    ls.ref->kernel.run(t);
    for (const Injection& inj : injections) {
      if (inj.at == t) {
        inj.apply(*ls.ff);
        inj.apply(*ls.ref);
      }
    }
    EXPECT_EQ(ls.ff->kernel.inline_steps(), ls.ref->kernel.inline_steps()) << t.to_string();
    if (!same_state(*ls.ff, *ls.ref, t.to_string())) break;  // one divergence is enough
  }
  EXPECT_EQ(ls.ref->ecu.cpu().fast_forwarded(), 0u);
  EXPECT_EQ(ls.ref->ecu.cpu().replayed_quanta(), 0u);
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

// --- quantum replay: positive cases -----------------------------------------

/// The segments every replay case runs in: 1 ms, and an odd 333 us whose
/// ends fall mid-chain.
const Time kSegments[] = {Time::ms(1), Time::us(333)};

/// A poll loop of 200 ns, which divides the 10 us quantum: every quantum
/// starts at the loop's top, a cycle of one record.
constexpr const char* kDividingPoll = R"(
      li   r1, 0x40005000
      li   r2, 0x40002000
      addi r3, r0, 2000
      sw   r3, 4(r2)
      addi r3, r0, 1
      sw   r3, 0(r2)
    loop:
      sw   r0, 8(r2)         ; kick
      lw   r5, 20(r1)        ; RX_COUNT
      nop
      nop
      nop
      beq  r5, r0, loop
      halt
)";

/// Kick-and-poll with the watchdog never enabled: every kick changes
/// nothing, so a quantum makes no re-arm write.
constexpr const char* kPureKicks = R"(
      li   r1, 0x40005000
      li   r2, 0x40002000
    loop:
      sw   r0, 8(r2)         ; kick a disabled watchdog
      lw   r5, 20(r1)        ; RX_COUNT
      beq  r5, r0, loop
      lw   r6, 32(r1)
      sw   r0, 40(r1)        ; RX_POP
      lw   r7, 0x2000(r0)
      addi r7, r7, 1
      sw   r7, 0x2000(r0)
      j    loop
)";

void expect_replayed(Rig& r) {
  EXPECT_GT(r.ecu.cpu().replayed_quanta(), 0u);
  EXPECT_GT(r.ecu.cpu().bulk_quanta(), 0u);
  EXPECT_GT(ff_share(r), 0.99) << "interpreted "
                               << r.ecu.cpu().stats().instructions - r.ecu.cpu().fast_forwarded();
}

TEST(IssQuantumReplay, KickAndPollWithCanFramesReplays) {
  // A 10 us quantum is no multiple of the loop's 140 ns period: quanta
  // start at three loop positions in turn, a cycle of three records.
  for (const Time segment : kSegments) {
    SCOPED_TRACE(segment.to_string());
    Options opt;
    opt.frame_period = Time::ms(1);
    opt.segment = segment;
    Lockstep ls = run_lockstep(kKickAndPoll, opt, Time::ms(10));
    EXPECT_EQ(ls.ff->ecu.ram().peek32(0x2000), 9u);  // frames sent at 1..9 ms
    EXPECT_EQ(ls.ff->ecu.watchdog().timeout_count(), 0u);
    expect_replayed(*ls.ff);
  }
}

TEST(IssQuantumReplay, LoopWhosePeriodDividesTheQuantumReplays) {
  for (const Time segment : kSegments) {
    SCOPED_TRACE(segment.to_string());
    Options opt;
    opt.segment = segment;
    Lockstep ls = run_lockstep(kDividingPoll, opt, Time::ms(10));
    expect_replayed(*ls.ff);
    // A cycle of one: after each break one quantum is recorded and the
    // next already replays.
    hw::Cpu& cpu = ls.ff->ecu.cpu();
    EXPECT_GT(cpu.replayed_quanta() * 10, cpu.quantum_keeper().sync_count() * 8)
        << cpu.replayed_quanta() << " of " << cpu.quantum_keeper().sync_count();
  }
}

TEST(IssQuantumReplay, DisabledWatchdogReplaysPureKicks) {
  for (const Time segment : kSegments) {
    SCOPED_TRACE(segment.to_string());
    Options opt;
    opt.frame_period = Time::ms(1);
    opt.segment = segment;
    Lockstep ls = run_lockstep(kPureKicks, opt, Time::ms(10));
    EXPECT_FALSE(ls.ff->ecu.watchdog().enabled());
    EXPECT_EQ(ls.ff->ecu.ram().peek32(0x2000), 9u);  // frames sent at 1..9 ms
    expect_replayed(*ls.ff);
  }
}

TEST(IssQuantumReplay, EccMemoryWithFetchesThroughTlmReplays) {
  for (const Time segment : kSegments) {
    SCOPED_TRACE(segment.to_string());
    Options opt;
    opt.frame_period = Time::ms(1);
    opt.ecc = hw::EccMode::kSecded;
    opt.segment = segment;
    // Flipped bits in the loop's words: the next fetch corrects and
    // scrubs each, which no record may hold.
    const std::vector<Injection> inj = {
        {segment * 2, [](Rig& r) { r.ecu.ram().flip_bit(0x20, 3); }},
        {segment * 4, [](Rig& r) { r.ecu.ram().flip_bit(0x28, 0); }},
        {segment * 5, [](Rig& r) { r.ecu.ram().flip_bit(0x24, 7); }},
    };
    Lockstep ls = run_lockstep(kKickAndPoll, opt, Time::ms(10), inj);
    EXPECT_GE(ls.ff->ecu.ram().corrected_errors(), 3u);
    EXPECT_EQ(ls.ff->ecu.cpu().stats().dmi_accesses, 0u);  // fetches took the bus
    expect_replayed(*ls.ff);
  }
}

TEST(IssQuantumReplay, InjectionsBetweenSegmentsReplay) {
  for (const Time segment : kSegments) {
    SCOPED_TRACE(segment.to_string());
    Options opt;
    opt.frame_period = Time::ms(1);
    opt.segment = segment;
    const std::vector<Injection> inj = {
        {segment * 1, [](Rig& r) { r.ecu.cpu().corrupt_register(5, 1u << 0); }},
        {segment * 2, [](Rig& r) { r.ecu.cpu().corrupt_register(7, 1u << 4); }},
        {segment * 3, [](Rig& r) { r.ecu.cpu().corrupt_pc(1u << 3); }},
        {segment * 4, [](Rig& r) { r.ecu.ram().flip_bit(0x2000, 1); }},
        {segment * 5, [](Rig& r) { r.ecu.cpu().set_reg(6, 0xDEAD); }},
    };
    Lockstep ls = run_lockstep(kKickAndPoll, opt, Time::ms(10), inj);
    expect_replayed(*ls.ff);
  }
}

TEST(IssQuantumReplay, CycleWhoseRecordsKickDifferentlyReplaysOneByOne) {
  // A poll iteration of 15 us: 743 nops (20 ns each), the kick (55 ns), a
  // PERIOD_US read (55 ns) and the back-branch (30 ns). Two iterations
  // take three 10 us quanta, a cycle of three records, and the kick lands
  // in two of them. Applied in bulk, a run could end on the quantum
  // without a kick, and the watchdog would keep a deadline that a skipped
  // kick moved; so these quanta are replayed one by one.
  std::string program = R"(
      li   r2, 0x40002000
      addi r3, r0, 2000
      sw   r3, 4(r2)         ; period 2000 us
      addi r3, r0, 1
      sw   r3, 0(r2)         ; enable
    loop:
  )";
  for (int i = 0; i < 743; ++i) program += "      nop\n";
  program += R"(
      sw   r0, 8(r2)         ; kick
      lw   r5, 4(r2)         ; PERIOD_US
      j    loop
  )";
  for (const Time segment : kSegments) {
    SCOPED_TRACE(segment.to_string());
    Options opt;
    opt.segment = segment;
    Lockstep ls = run_lockstep(program.c_str(), opt, Time::ms(10));
    hw::Cpu& cpu = ls.ff->ecu.cpu();
    EXPECT_EQ(ls.ff->ecu.watchdog().timeout_count(), 0u);
    EXPECT_GT(cpu.replayed_quanta() * 2, cpu.quantum_keeper().sync_count())
        << cpu.replayed_quanta() << " of " << cpu.quantum_keeper().sync_count();
    EXPECT_EQ(cpu.bulk_quanta(), 0u);
  }
}

TEST(IssQuantumReplay, BudgetTripsInsideABulkRunLikeTheReference) {
  // Runs of budgeted run(until) calls, each stopping on its budget well
  // inside a run of quanta applied in bulk: the trip's reason and instant
  // and every state must equal the reference's.
  sim::RunBudget activations;
  activations.max_activations = 37;
  sim::RunBudget deltas;
  deltas.max_delta_cycles = 41;
  for (const sim::RunBudget& budget : {activations, deltas}) {
    Options opt;
    opt.frame_period = Time::ms(1);
    Rig ff(kKickAndPoll, opt);
    Rig ref(kKickAndPoll, opt);
    ref.ecu.cpu().set_trace_hook([](std::uint32_t, const hw::Decoded&) {});
    int trips = 0;
    for (int i = 0; i < 1000 && ff.kernel.now() < Time::ms(8); ++i) {
      const sim::RunStatus a = ff.kernel.run(Time::ms(8), budget);
      const sim::RunStatus b = ref.kernel.run(Time::ms(8), budget);
      ASSERT_EQ(a.reason, b.reason) << "run " << i;
      ASSERT_EQ(a.time, b.time) << "run " << i;
      if (a.budget_exhausted()) ++trips;
      EXPECT_EQ(ff.kernel.inline_steps(), ref.kernel.inline_steps()) << "run " << i;
      if (!same_state(ff, ref, "run " + std::to_string(i))) break;
    }
    EXPECT_GT(trips, 15);
    EXPECT_EQ(ff.ecu.ram().peek32(0x2000), 7u);  // frames sent at 1..7 ms
    EXPECT_GT(ff.ecu.cpu().bulk_quanta() * 10, ff.ecu.cpu().replayed_quanta() * 8)
        << ff.ecu.cpu().bulk_quanta() << " of " << ff.ecu.cpu().replayed_quanta();
  }
}

TEST(IssQuantumReplay, TimerIrqWaitReplaysBetweenTicks) {
  // IRQs are enabled, but between two timer ticks only the CPU runs, so
  // the IRQ line cannot rise: the quanta of the wait loop take no IRQ and
  // replay. Each tick's entry breaks the chain, and the quantum after it
  // takes the IRQ on the same instruction as the reference.
  for (const Time segment : kSegments) {
    SCOPED_TRACE(segment.to_string());
    Options opt;
    opt.segment = segment;
    Lockstep ls = run_lockstep(kTimerIrqWait, opt, Time::ms(4));
    EXPECT_GT(ls.ff->ecu.cpu().stats().irqs_taken, 40u);
    EXPECT_EQ(ls.ff->ecu.ram().peek32(0x2000), ls.ff->ecu.cpu().stats().irqs_taken);
    EXPECT_GT(ls.ff->ecu.cpu().replayed_quanta(), 100u);
    EXPECT_GT(ls.ff->ecu.cpu().bulk_quanta(), 0u);
  }
}

// --- quantum replay: chain breakers -----------------------------------------

TEST(IssQuantumReplay, OneMicrosecondWatchdogWakesTheGuardEveryQuantum) {
  // The guard's deadline falls inside every quantum, so no sync is applied
  // in place and every kick ends in a timeout and a reboot.
  constexpr const char* kShortPeriod = R"(
      li   r1, 0x40005000
      li   r2, 0x40002000
      addi r3, r0, 1
      sw   r3, 4(r2)         ; period 1 us
      sw   r3, 0(r2)         ; enable
      lw   r4, 0x2000(r0)
      addi r4, r4, 1
      sw   r4, 0x2000(r0)    ; boot count
    loop:
      sw   r0, 8(r2)
      lw   r5, 20(r1)
      beq  r5, r0, loop
      j    loop
  )";
  for (const Time segment : kSegments) {
    SCOPED_TRACE(segment.to_string());
    Options opt;
    opt.segment = segment;
    Lockstep ls = run_lockstep(kShortPeriod, opt, Time::ms(2));
    EXPECT_GT(ls.ff->ecu.watchdog().timeout_count(), 100u);
    EXPECT_GT(ls.ff->ecu.ram().peek32(0x2000), 100u);
  }
}

TEST(IssQuantumReplay, CanFramesBreakChains) {
  // A frame every 157 us lands at every position of the three-record
  // cycle; the quantum after it must see the frame, not replay a poll.
  for (const Time segment : kSegments) {
    SCOPED_TRACE(segment.to_string());
    Options opt;
    opt.frame_period = Time::us(157);
    opt.segment = segment;
    Lockstep ls = run_lockstep(kKickAndPoll, opt, Time::ms(6));
    EXPECT_GT(ls.ff->ecu.ram().peek32(0x2000), 30u);
    EXPECT_GT(ls.ff->ecu.cpu().replayed_quanta(), 0u);
  }
}

TEST(IssQuantumReplay, RunEndsMidChain) {
  // 77 us segments: each run ends some eight quanta into a chain.
  Options opt;
  opt.frame_period = Time::us(470);
  opt.segment = Time::us(77);
  Lockstep ls = run_lockstep(kKickAndPoll, opt, Time::ms(3));
  EXPECT_GT(ls.ff->ecu.cpu().replayed_quanta(), 0u);
}

TEST(IssQuantumReplay, SnapshotRestoredMidChainOntoFreshTwin) {
  // The twin starts with no chain; it must run on like the platform it
  // came from and like the reference, and replay as many quanta as its
  // origin does from there.
  Options opt;
  const Time segment = Time::us(333);
  Rig origin(kKickAndPoll, opt);
  Rig ref(kKickAndPoll, opt);
  ref.ecu.cpu().set_trace_hook([](std::uint32_t, const hw::Decoded&) {});
  Time t = segment;
  for (; t <= segment * 3; t += segment) {
    origin.kernel.run(t);
    ref.kernel.run(t);
  }
  EXPECT_GT(origin.ecu.cpu().replayed_quanta(), 0u);
  const std::uint64_t replayed_at_fork = origin.ecu.cpu().replayed_quanta();
  const std::uint64_t inline_at_fork = origin.kernel.inline_steps();
  Rig twin(kKickAndPoll, opt);
  twin.kernel.restore(origin.kernel.snapshot());
  twin.bus.restore(origin.bus.snapshot());
  twin.ecu.restore(origin.ecu.snapshot());
  for (; t <= Time::ms(4); t += segment) {
    origin.kernel.run(t);
    twin.kernel.run(t);
    ref.kernel.run(t);
    if (!same_state(origin, ref, "origin at " + t.to_string())) break;
    if (!same_state(twin, ref, "twin at " + t.to_string())) break;
  }
  EXPECT_GT(twin.ecu.cpu().replayed_quanta(), 0u);
  EXPECT_EQ(twin.ecu.cpu().replayed_quanta(), origin.ecu.cpu().replayed_quanta() - replayed_at_fork);
  EXPECT_EQ(twin.kernel.inline_steps(), origin.kernel.inline_steps() - inline_at_fork);
}

// --- quantum replay: never -------------------------------------------------

/// Runs the never-replay lock step in 1 ms segments.
Lockstep run_never(const char* program, Options opt, Time duration) {
  opt.segment = Time::ms(1);
  Lockstep ls = run_lockstep(program, opt, duration);
  EXPECT_EQ(ls.ff->ecu.cpu().replayed_quanta(), 0u);
  return ls;
}

TEST(IssQuantumReplay, TxSendLoopNeverReplays) {
  Lockstep ls = run_never(kTxSendLoop, Options{}, Time::ms(2));
  EXPECT_GT(ls.ff->bus.stats().frames_delivered, 0u);
}

TEST(IssQuantumReplay, AdcPollingNeverReplays) {
  Lockstep ls = run_never(kAdcPoll, Options{}, Time::ms(2));
  EXPECT_GT(ls.ff->ecu.adc().conversions(), 100u);
}

TEST(IssQuantumReplay, DmiStoreLoopNeverReplays) {
  Lockstep ls = run_never(kDmiStoreLoop, Options{}, Time::ms(2));
  EXPECT_GT(ls.ff->ecu.cpu().stats().dmi_accesses, 1000u);
}

TEST(IssQuantumReplay, LoopWhoseRegistersAdvanceNeverReplays) {
  // A 2.5 us loop runs four times a quantum, too few misses to fall back
  // to stepping, and reads only repeatable registers, so every quantum
  // qualifies and starts at the same pc (a cycle of one by pc). But r9
  // counts the iterations, so no quantum starts in a core state an
  // earlier one started in.
  std::string program = R"(
      li   r2, 0x40002000
    loop:
      addi r9, r9, 1
  )";
  for (int i = 0; i < 30; ++i) program += "      lw   r5, 4(r2)\n";  // PERIOD_US, 55 ns
  for (int i = 0; i < 40; ++i) program += "      nop\n";                // 20 ns
  program += "      j    loop\n";
  Lockstep ls = run_never(program.c_str(), Options{}, Time::ms(2));
  EXPECT_GT(ls.ff->ecu.cpu().reg(9), 500u);
}

TEST(IssQuantumReplay, ProbedBusNeverReplays) {
  // A probe sees every access, so the router resets each one to kState.
  // That holds for a re-arm too: a 10.005 us loop run at a 10.005 us
  // quantum, whose every quantum makes one bus access, the re-arming kick,
  // must not replay either.
  std::string slow_kick = R"(
      li   r2, 0x40002000
      addi r3, r0, 2000
      sw   r3, 4(r2)
      addi r3, r0, 1
      sw   r3, 0(r2)
    loop:
      sw   r0, 8(r2)
  )";
  for (int i = 0; i < 496; ++i) slow_kick += "      nop\n";  // kick 55 ns, nop 20 ns, j 30 ns
  slow_kick += "      j    loop\n";
  const std::pair<std::string, Time> cases[] = {{kKickAndPoll, Time::us(10)},
                                                {slow_kick, Time::ns(10'005)}};
  for (const auto& [program, quantum] : cases) {
    Options opt;
    opt.frame_period = Time::us(470);
    opt.quantum = quantum;
    Rig ff(program.c_str(), opt);
    Rig ref(program.c_str(), opt);
    obs::TransactionProbe ff_probe(ff.kernel, "bus");
    obs::TransactionProbe ref_probe(ref.kernel, "bus");
    ff.ecu.bus().set_probe(&ff_probe);
    ref.ecu.bus().set_probe(&ref_probe);
    ref.ecu.cpu().set_trace_hook([](std::uint32_t, const hw::Decoded&) {});
    for (Time t = Time::ms(1); t <= Time::ms(3); t += Time::ms(1)) {
      ff.kernel.run(t);
      ref.kernel.run(t);
      if (!same_state(ff, ref, t.to_string())) break;
    }
    EXPECT_EQ(ff.ecu.cpu().replayed_quanta(), 0u);
    EXPECT_EQ(ff_probe.transactions(), ref_probe.transactions());
    EXPECT_EQ(ff_probe.transactions(), ff.ecu.bus().forwarded());
  }
}

TEST(IssQuantumReplay, ProvenanceTrackerNeverReplays) {
  Options opt;
  opt.frame_period = Time::us(470);
  Rig ff(kKickAndPoll, opt);
  Rig ref(kKickAndPoll, opt);
  obs::ProvenanceTracker ff_tracker(ff.kernel);
  obs::ProvenanceTracker ref_tracker(ref.kernel);
  for (auto [rig, tracker] : {std::pair{&ff, &ff_tracker}, std::pair{&ref, &ref_tracker}}) {
    rig->ecu.cpu().set_provenance(tracker);
    rig->ecu.ram().set_provenance(tracker);
    rig->ecu.bus().set_provenance(tracker);
  }
  ref.ecu.cpu().set_trace_hook([](std::uint32_t, const hw::Decoded&) {});
  for (Time t = Time::ms(1); t <= Time::ms(3); t += Time::ms(1)) {
    ff.kernel.run(t);
    ref.kernel.run(t);
    if (!same_state(ff, ref, t.to_string())) break;
  }
  EXPECT_EQ(ff.ecu.cpu().replayed_quanta(), 0u);
  EXPECT_EQ(ff.ecu.cpu().fast_forwarded(), 0u);
}

}  // namespace
