// Inline timed steps in sim::Kernel, checked against the queued path. The
// reference is the same system with a no-op KernelObserver attached: an
// observer must see every delta cycle, time advance and activation, so it
// turns inline steps off and every wait takes the timed queue. Both
// systems run in lock step over the same run(until) segments, and after
// each one their kernel images must agree: KernelStats, next_seq and
// init_seq_mark, every process's activations, wait generation and
// timeout flag, every event image, the timed entries sorted by key (only
// the heap's array order may differ), and the model state. Positive cases
// must take inline steps; negative cases must not take one at the wait
// under test. Budgeted runs must trip with the same RunStatus and counters.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "kernel_image.hpp"
#include "vps/can/bus.hpp"
#include "vps/ecu/os.hpp"
#include "vps/ecu/platform.hpp"
#include "vps/hw/uart.hpp"
#include "vps/sim/kernel.hpp"
#include "vps/sim/signal.hpp"

namespace {

using namespace vps;
using sim::Time;

struct NopObserver final : sim::KernelObserver {};

using vps_test::add;
using vps_test::Fields;
using vps_test::kernel_fields;
using vps_test::same;
using vps_test::stats_fields;

/// The kernel image and the model state of a rig: a struct holding a
/// `sim::Kernel kernel` and a `Fields model() const`.
template <typename Rig>
Fields state_of(const Rig& r) {
  Fields f = kernel_fields(r.kernel);
  const Fields m = r.model();
  f.insert(f.end(), m.begin(), m.end());
  return f;
}

/// A rig under test and its queued-path reference.
template <typename Rig>
struct Pair {
  NopObserver observer;
  std::unique_ptr<Rig> fast = std::make_unique<Rig>();
  std::unique_ptr<Rig> ref = std::make_unique<Rig>();

  Pair() { ref->kernel.add_observer(observer); }

  /// Runs both to `until` and compares them; true when they agree.
  bool step(Time until) {
    const sim::RunStatus a = fast->kernel.run(until, sim::RunBudget{});
    const sim::RunStatus b = ref->kernel.run(until, sim::RunBudget{});
    EXPECT_EQ(a.reason, b.reason) << until.to_string();
    return same(state_of(*fast), state_of(*ref), until.to_string());
  }

  void run(const std::vector<Time>& segments) {
    for (Time t : segments) {
      if (!step(t)) return;  // one divergence is enough to report
    }
    EXPECT_EQ(ref->kernel.inline_steps(), 0u) << "an observer must turn inline steps off";
  }
};

std::vector<Time> segments(Time first, Time step, int n = 8) {
  std::vector<Time> out;
  for (int i = 0; i < n; ++i) out.push_back(first + step * static_cast<std::uint64_t>(i));
  return out;
}

double inline_share(const sim::Kernel& k) {
  return static_cast<double>(k.inline_steps()) / static_cast<double>(k.stats().timed_steps);
}

// --- the BMS-like system -----------------------------------------------------

/// A UART streaming 32-byte telemetry frames from an OS task every 20 ms,
/// and a 10 ms plant loop: the BMS twin's shape. Restore-safe like it.
struct BmsLike {
  sim::Kernel kernel;
  ecu::OsScheduler os{kernel, "os"};
  hw::Uart uart{kernel, "uart"};
  std::uint64_t plant = 1;
  bool plant_pending = false;
  std::uint64_t frames_sent = 0;
  std::uint64_t rx_bytes = 0;
  std::uint64_t rx_hash = 0;

  struct Snapshot {
    sim::KernelSnapshot kernel;
    ecu::OsScheduler::Snapshot os;
    hw::Uart::Snapshot uart;
    std::array<std::uint64_t, 4> app{};
    bool plant_pending = false;
  };

  BmsLike() {
    kernel.spawn("plant", plant_loop());
    os.add_task({.name = "telemetry",
                 .period = Time::ms(20),
                 .wcet = Time::ms(1),
                 .priority = 4,
                 .body = [this] { send_frame(); }});
    os.add_task({.name = "control",
                 .period = Time::ms(50),
                 .wcet = Time::ms(3),
                 .priority = 8,
                 .body = {}});
    uart.set_on_byte([this](std::uint8_t b) {
      ++rx_bytes;
      rx_hash = rx_hash * 1099511628211ULL + b;
    });
  }

  void send_frame() {
    std::array<std::uint8_t, 32> frame{};
    for (std::size_t i = 0; i < frame.size(); ++i) {
      frame[i] = static_cast<std::uint8_t>(plant >> (i % 8 * 8)) ^ static_cast<std::uint8_t>(i);
    }
    uart.transmit(frame.data(), frame.size());
    ++frames_sent;
  }

  [[nodiscard]] sim::Coro plant_loop() {
    for (;;) {
      if (plant_pending) {
        plant_pending = false;
        plant = plant * 6364136223846793005ULL + 1442695040888963407ULL;
      }
      plant_pending = true;
      co_await sim::delay(Time::ms(10));
    }
  }

  [[nodiscard]] Snapshot capture() const {
    return Snapshot{kernel.snapshot(), os.snapshot(), uart.snapshot(),
                    {plant, frames_sent, rx_bytes, rx_hash}, plant_pending};
  }

  void restore(const Snapshot& s) {
    kernel.restore(s.kernel);
    os.restore(s.os);
    uart.restore(s.uart);
    plant = s.app[0];
    frames_sent = s.app[1];
    rx_bytes = s.app[2];
    rx_hash = s.app[3];
    plant_pending = s.plant_pending;
  }

  [[nodiscard]] Fields model() const {
    Fields f;
    add(f, "plant", plant);
    add(f, "plant_pending", plant_pending);
    add(f, "frames_sent", frames_sent);
    add(f, "rx_bytes", rx_bytes);
    add(f, "rx_hash", rx_hash);
    const Fields u = vps_test::uart_fields(uart);
    f.insert(f.end(), u.begin(), u.end());
    const ecu::OsScheduler::Snapshot o = os.snapshot();
    add(f, "os.busy", o.busy_time.picoseconds());
    add(f, "os.running", static_cast<std::uint64_t>(o.running));
    add(f, "os.slice_start", o.slice_start.picoseconds());
    for (const auto& t : o.tasks) {
      add(f, "task.activations", t.stats.activations);
      add(f, "task.completions", t.stats.completions);
      add(f, "task.preemptions", t.stats.preemptions);
      add(f, "task.max_response", t.stats.max_response.picoseconds());
      add(f, "task.next_release", t.next_release.picoseconds());
    }
    return f;
  }
};

/// Segment ends in ms; 41.5 and 81.9 fall mid-frame (a frame shifts for
/// ~3.06 ms from 1 ms after each 20 ms release), 121 on a frame's first bit.
const std::vector<Time> kBmsSegments = {Time::us(13'000),  Time::us(41'500),  Time::us(67'300),
                                        Time::us(81'900),  Time::us(100'000), Time::us(121'000),
                                        Time::us(150'200), Time::us(180'000)};
const Time kBurstAt = Time::us(41'500);

TEST(KernelInlineStep, BmsLikeSystemMatchesQueuedPath) {
  Pair<BmsLike> p;
  p.run(kBmsSegments);
  const sim::Kernel& k = p.fast->kernel;
  EXPECT_GE(inline_share(k), 0.9) << k.inline_steps() << " of " << k.stats().timed_steps;
  // Most bytes land in place behind the frame before them (DESIGN.md §13);
  // the reference queues every wait, so it lands none.
  const hw::Uart& u = p.fast->uart;
  EXPECT_GE(static_cast<double>(u.bytes_in_place()), 0.9 * static_cast<double>(u.bytes_delivered()))
      << u.bytes_in_place() << " of " << u.bytes_delivered();
  EXPECT_EQ(p.ref->uart.bytes_in_place(), 0u);
  EXPECT_GT(p.fast->rx_bytes, 200u);
  EXPECT_EQ(p.fast->uart.parity_errors() + p.fast->uart.framing_errors(), 0u);
}

TEST(KernelInlineStep, CorruptBitsBurstMidFrameMatchesQueuedPath) {
  Pair<BmsLike> p;
  for (Time t : kBmsSegments) {
    if (!p.step(t)) return;
    if (t == kBurstAt) {
      ASSERT_FALSE(p.fast->uart.idle()) << "the burst must land mid-frame";
      p.fast->uart.corrupt_bits(5);
      p.ref->uart.corrupt_bits(5);
    }
  }
  EXPECT_EQ(p.fast->uart.frames_corrupted(), 1u);
  EXPECT_GE(p.fast->uart.parity_errors() + p.fast->uart.framing_errors(), 1u);
  EXPECT_GE(inline_share(p.fast->kernel), 0.9);
}

TEST(KernelInlineStep, RestoredTwinContinuesIdentically) {
  // Every segment's snapshot, restored onto a fresh twin, must run on to
  // the same state at every later segment as the system it came from.
  BmsLike origin;
  std::vector<BmsLike::Snapshot> snaps;
  std::vector<Fields> states;
  const auto inject = [](BmsLike& s, Time t) {
    if (t == kBurstAt) s.uart.corrupt_bits(3);
  };
  for (Time t : kBmsSegments) {
    (void)origin.kernel.run(t);
    inject(origin, t);
    snaps.push_back(origin.capture());
    states.push_back(state_of(origin));
  }
  for (std::size_t i = 0; i + 1 < kBmsSegments.size(); ++i) {
    BmsLike twin;
    twin.restore(snaps[i]);
    for (std::size_t j = i + 1; j < kBmsSegments.size(); ++j) {
      (void)twin.kernel.run(kBmsSegments[j]);
      inject(twin, kBmsSegments[j]);
      if (!same(state_of(twin), states[j], "twin from " + kBmsSegments[i].to_string() + " at " +
                                  kBmsSegments[j].to_string())) {
        return;
      }
    }
    EXPECT_GT(twin.kernel.inline_steps(), 0u);
  }
}

// --- the CAPS CPU on its firmware loop ----------------------------------------

/// E4's kick-and-poll firmware (bench_decoupling): kick the watchdog, poll
/// the CAN RX count, and add each frame's payload to RAM at 0x2000.
constexpr const char* kKickAndPoll = R"(
    li   r1, 0x40005000
    li   r2, 0x40002000
    addi r3, r0, 2000
    sw   r3, 4(r2)
    addi r3, r0, 1
    sw   r3, 0(r2)
  loop:
    sw   r0, 8(r2)        ; kick
    lw   r5, 20(r1)       ; RX_COUNT
    beq  r5, r0, loop
    lw   r6, 32(r1)
    sw   r0, 40(r1)       ; RX_POP
    lw   r7, 0x2000(r0)
    add  r7, r7, r6
    sw   r7, 0x2000(r0)   ; sum of frame payloads
    j    loop
)";

/// Puts a one-byte frame on the bus every millisecond, like the CAPS
/// sensor node.
class FrameSource final : public can::CanNode {
 public:
  FrameSource(sim::Kernel& kernel, can::CanBus& bus) : bus_(bus) {
    bus.attach(*this);
    kernel.spawn("source", run());
  }
  void on_frame(const can::CanFrame&) override {}

 private:
  [[nodiscard]] sim::Coro run() {
    for (std::uint8_t n = 1;; ++n) {
      co_await sim::delay(Time::ms(1));
      const std::uint8_t payload[1] = {n};
      bus_.submit(*this, can::CanFrame::make(0x050, payload));
    }
  }

  can::CanBus& bus_;
};

/// E4's kick-and-poll platform: an EcuPlatform with a 10 us quantum on a
/// 500 kbit/s CAN bus, a frame every 1 ms. A CAPS replay's CPU and
/// watchdog, where nearly every quantum sync is the only activation due.
struct KickAndPoll {
  sim::Kernel kernel;
  can::CanBus bus{kernel, "can0", 500000};
  mutable ecu::EcuPlatform ecu{kernel, "ecu"};  // its accessors are non-const
  std::unique_ptr<FrameSource> source;

  KickAndPoll() {
    ecu.attach_can(bus);
    ecu.load_program(kKickAndPoll);
    source = std::make_unique<FrameSource>(kernel, bus);
  }

  [[nodiscard]] Fields model() const {
    Fields f;
    const hw::Cpu::Snapshot c = ecu.cpu().snapshot();
    add(f, "cpu.state", static_cast<std::uint64_t>(c.state));
    add(f, "cpu.pc", c.pc);
    for (std::size_t i = 0; i < c.regs.size(); ++i) add(f, "cpu.r" + std::to_string(i), c.regs[i]);
    add(f, "cpu.instructions", c.stats.instructions);
    add(f, "cpu.loads", c.stats.loads);
    add(f, "cpu.stores", c.stats.stores);
    add(f, "cpu.branches_taken", c.stats.branches_taken);
    add(f, "cpu.irqs_taken", c.stats.irqs_taken);
    add(f, "cpu.dmi_accesses", c.stats.dmi_accesses);
    add(f, "cpu.bus_accesses", c.stats.bus_accesses);
    // No fast_forwarded(): only the side without an observer replays.
    add(f, "cpu.qk.local", c.qk.local.picoseconds());
    add(f, "cpu.qk.sync_count", c.qk.sync_count);
    const hw::Watchdog::Snapshot w = ecu.watchdog().snapshot();
    add(f, "wdg.ctrl", w.ctrl);
    add(f, "wdg.period_us", w.period_us);
    add(f, "wdg.timeouts", w.timeouts);
    add(f, "wdg.sleeping", w.sleeping);
    add(f, "wdg.deadline", w.deadline.picoseconds());
    add(f, "wdg.deadline_seq", w.deadline_seq);
    add(f, "wdg.kick_delta", w.kick_delta);
    add(f, "ram[0x2000]", ecu.ram().peek32(0x2000));
    return f;
  }
};

TEST(KernelInlineStep, KickAndPollFirmwareMatchesQueuedPath) {
  // The watchdog's kick moves a deadline and notifies nothing, so the
  // CPU's sync at a quantum boundary is an inline step unless a frame, the
  // guard's wake or a segment end is due first.
  Pair<KickAndPoll> p;
  p.run(segments(Time::us(2'500), Time::us(2'500)));  // to 20 ms
  const sim::Kernel& k = p.fast->kernel;
  EXPECT_GE(inline_share(k), 0.9) << k.inline_steps() << " of " << k.stats().timed_steps;
  // E4's counts: the ISS work did not move, the kicks notify nothing.
  // The reference's observer keeps every sync queued, so it never replays
  // a quantum (DESIGN.md §14) and fast_forwarded() is pinned per side
  // instead of compared.
  EXPECT_EQ(p.fast->ecu.cpu().snapshot().stats.instructions, 428'725u);
  EXPECT_EQ(p.fast->ecu.cpu().fast_forwarded(), 427'080u);
  EXPECT_EQ(p.ref->ecu.cpu().fast_forwarded(), 410'601u);
  EXPECT_EQ(p.fast->ecu.ram().peek32(0x2000), 190u);  // frames 1..19
  EXPECT_LE(k.stats().notifications, 100u);
  EXPECT_EQ(p.fast->ecu.watchdog().timeout_count(), 0u);
}

// --- wait_with_timeout --------------------------------------------------------

/// A 7 us watchdog-style wait that mostly times out alone (inline), and a
/// poker that notifies its event every 50 us, where the event wins.
struct TimeoutRig {
  sim::Kernel kernel;
  sim::Event ev{kernel, "ev"};
  std::uint64_t timeouts = 0;
  std::uint64_t wakes = 0;

  TimeoutRig() {
    kernel.spawn("waiter", waiter());
    kernel.spawn("poker", poker());
  }

  [[nodiscard]] sim::Coro waiter() {
    for (;;) {
      const bool fired = co_await sim::wait_with_timeout(ev, Time::us(7));
      ++(fired ? wakes : timeouts);
    }
  }

  [[nodiscard]] sim::Coro poker() {
    for (;;) {
      co_await sim::delay(Time::us(50));
      ev.notify();
    }
  }

  [[nodiscard]] Fields model() const { return {{"timeouts", timeouts}, {"wakes", wakes}}; }
};

TEST(KernelInlineStep, WaitWithTimeoutTimesOutInlineAndEventWins) {
  Pair<TimeoutRig> p;
  p.run(segments(Time::us(37), Time::us(61)));
  EXPECT_GT(p.fast->timeouts, 40u);
  EXPECT_GE(p.fast->wakes, 8u);
  // Timeouts before the poker's entry inline; the wait the event wins, and
  // the one overlapping the poker's entry, do not.
  EXPECT_GT(p.fast->kernel.inline_steps(), p.fast->timeouts / 2);
  EXPECT_LT(p.fast->kernel.inline_steps(), p.fast->timeouts);
}

// --- negative cases -------------------------------------------------------------

/// One thread process running `body`, plus whatever the test adds.
struct Solo {
  sim::Kernel kernel;
  sim::Event ev{kernel, "ev"};
  sim::Signal<std::uint32_t> sig{kernel, "sig", 0};
  std::uint64_t iterations = 0;
  std::vector<bool> inlined;  ///< per wait under test: was it applied inline?

  [[nodiscard]] Fields model() const {
    return {{"iterations", iterations}, {"sig", sig.read()}, {"sig.changes", sig.change_count()}};
  }

  /// co_await delay(d), recording whether it was an inline step.
  [[nodiscard]] sim::Coro wait(Time d) {
    const std::uint64_t before = kernel.inline_steps();
    co_await sim::delay(d);
    inlined.push_back(kernel.inline_steps() != before);
  }
};

/// A Solo whose process runs `Body::run`.
template <typename Body>
struct Spawned : Solo {
  Spawned() { kernel.spawn("body", Body::run(*this)); }
};

[[nodiscard]] sim::Coro sleeper(Time period) {
  for (;;) co_await sim::delay(period);
}

struct SameInstant {
  static sim::Coro run(Solo& s) {
    s.kernel.spawn("twin", sleeper(Time::us(10)));
    for (;;) {
      co_await s.wait(Time::us(10));
      ++s.iterations;
    }
  }
};

TEST(KernelInlineStep, AnotherEntryAtTheSameInstantIsNotInlined) {
  Pair<Spawned<SameInstant>> p;
  p.run(segments(Time::us(25), Time::us(30)));
  EXPECT_GT(p.fast->iterations, 20u);
  EXPECT_EQ(p.fast->kernel.inline_steps(), 0u);
}

struct NotifyThenWait {
  static sim::Coro run(Solo& s) {
    for (;;) {
      s.ev.notify();
      co_await s.wait(Time::us(10));
      ++s.iterations;
    }
  }
};

TEST(KernelInlineStep, PendingDeltaNotificationIsNotInlined) {
  Pair<Spawned<NotifyThenWait>> p;
  p.run(segments(Time::us(25), Time::us(30)));
  EXPECT_GT(p.fast->iterations, 20u);
  EXPECT_EQ(p.fast->kernel.inline_steps(), 0u);
}

struct WriteThenWait {
  static sim::Coro run(Solo& s) {
    for (std::uint32_t i = 1;; ++i) {
      s.sig.write(i);
      co_await s.wait(Time::us(10));
      ++s.iterations;
    }
  }
};

TEST(KernelInlineStep, SignalWriteBeforeTheDelayIsNotInlined) {
  Pair<Spawned<WriteThenWait>> p;
  p.run(segments(Time::us(25), Time::us(30)));
  EXPECT_GT(p.fast->sig.change_count(), 20u);
  EXPECT_EQ(p.fast->kernel.inline_steps(), 0u);
}

struct Ticker {
  static sim::Coro run(Solo& s) {
    for (;;) {
      co_await s.wait(Time::us(10));
      ++s.iterations;
    }
  }
};

TEST(KernelInlineStep, WaitPastRunUntilIsNotInlined) {
  // Every segment ends 5 us into a 10 us wait.
  Pair<Spawned<Ticker>> p;
  p.run(segments(Time::us(5), Time::us(10)));
  EXPECT_EQ(p.fast->iterations, 7u);
  EXPECT_EQ(p.fast->kernel.inline_steps(), 0u);
}

TEST(KernelInlineStep, FirstEvaluatePhaseIsNotInlined) {
  // The first wait is in the first evaluate phase, before the kernel has
  // reserved its seq; every later one is applied inline.
  Pair<Spawned<Ticker>> p;
  p.run(segments(Time::us(95), Time::us(100)));
  ASSERT_FALSE(p.fast->inlined.empty());
  EXPECT_FALSE(p.fast->inlined.front());
  const sim::Kernel& k = p.fast->kernel;
  EXPECT_EQ(k.inline_steps() + 8, k.stats().timed_steps)
      << "one queued wait at the start and one past each segment end";
}

struct ZeroDelays {
  static sim::Coro run(Solo& s) {
    for (;;) {
      co_await s.wait(Time::zero());
      co_await s.wait(Time::zero());
      co_await sim::delay(Time::us(10));
      ++s.iterations;
    }
  }
};

TEST(KernelInlineStep, ZeroDelayIsNotInlined) {
  Pair<Spawned<ZeroDelays>> p;
  p.run(segments(Time::us(25), Time::us(30)));
  EXPECT_GT(p.fast->iterations, 20u);
  EXPECT_GT(p.fast->kernel.inline_steps(), 0u);  // the 10 us waits
  EXPECT_TRUE(std::none_of(p.fast->inlined.begin(), p.fast->inlined.end(),
                           [](bool b) { return b; }));
}

struct StopThenWait {
  static sim::Coro run(Solo& s) {
    for (;;) {
      if (++s.iterations % 10 == 0) s.kernel.stop();
      co_await s.wait(Time::us(10));
    }
  }
};

TEST(KernelInlineStep, StopIsNotInlined) {
  Pair<Spawned<StopThenWait>> p;
  for (int i = 0; i < 8; ++i) {
    const sim::RunStatus a = p.fast->kernel.run(Time::ms(1), sim::RunBudget{});
    const sim::RunStatus b = p.ref->kernel.run(Time::ms(1), sim::RunBudget{});
    EXPECT_EQ(a.reason, sim::StopReason::kStopRequested);
    EXPECT_EQ(a.reason, b.reason);
    EXPECT_EQ(a.time, b.time);
    if (!same(state_of(*p.fast), state_of(*p.ref), "stop " + std::to_string(i))) return;
  }
  EXPECT_EQ(p.fast->iterations, 80u);
  // In every ten waits, the one after stop() is queued.
  const std::vector<bool>& w = p.fast->inlined;
  for (std::size_t i = 9; i < w.size(); i += 10) EXPECT_FALSE(w[i]) << i;
  EXPECT_GT(p.fast->kernel.inline_steps(), 50u);
}

/// A method that throws when the poke event fires at 10 us, runnable ahead
/// of a thread that then waits in the same evaluate phase.
struct ThrowRig : Solo {
  ThrowRig() {
    kernel.spawn("arm", [](Solo& s) -> sim::Coro {
      s.ev.notify(Time::us(10));
      co_return;
    }(*this));
    kernel.method("thrower", [] { throw std::runtime_error("model fault"); }, {&ev}, false);
    kernel.spawn("body", [](Solo& s) -> sim::Coro {
      co_await sim::delay(Time::us(10));
      for (;;) {
        co_await s.wait(Time::us(5));
        ++s.iterations;
      }
    }(*this));
  }
};

TEST(KernelInlineStep, PendingExceptionIsNotInlined) {
  Pair<ThrowRig> p;
  EXPECT_THROW((void)p.fast->kernel.run(Time::us(100)), std::runtime_error);
  EXPECT_THROW((void)p.ref->kernel.run(Time::us(100)), std::runtime_error);
  ASSERT_TRUE(same(state_of(*p.fast), state_of(*p.ref), "after the throw"));
  ASSERT_EQ(p.fast->inlined.size(), 0u);  // the wait at 10 us has not resumed yet
  p.run(segments(Time::us(100), Time::us(100)));
  ASSERT_FALSE(p.fast->inlined.empty());
  EXPECT_FALSE(p.fast->inlined.front()) << "the wait with an exception pending";
  EXPECT_GT(p.fast->kernel.inline_steps(), 100u);
}

struct KillSelfThenWait {
  static sim::Coro run(Solo& s) {
    co_await sim::delay(Time::us(10));
    co_await sim::delay(Time::us(10));
    s.kernel.current_process()->kill();
    co_await sim::delay(Time::us(10));
    ++s.iterations;  // must never run
    for (;;) co_await sim::delay(Time::us(10));
  }
};

TEST(KernelInlineStep, ProcessThatKillsItselfNeverResumes) {
  Pair<Spawned<KillSelfThenWait>> p;
  p.run(segments(Time::us(45), Time::us(10)));
  EXPECT_EQ(p.fast->iterations, 0u);
  EXPECT_EQ(p.fast->kernel.inline_steps(), 1u);  // the second wait only
}

// --- budgets ------------------------------------------------------------------------

/// `hops` zero-time delta hops (notify and await its own event), then a
/// 1 us wait, forever.
template <int kHops>
struct Hopper {
  static sim::Coro run(Solo& s) {
    for (;;) {
      for (int i = 0; i < kHops; ++i) {
        s.ev.notify();
        co_await s.ev;
      }
      co_await sim::delay(Time::us(1));
      ++s.iterations;
    }
  }
};

/// Runs a budgeted segment on both systems after an unbudgeted warm-up;
/// the trip must agree in reason, time and counters, and both must then
/// run on to the same state.
template <typename Rig>
void expect_same_trip(const sim::RunBudget& budget, const std::string& label) {
  Pair<Rig> p;
  ASSERT_TRUE(p.step(Time::us(20))) << label;
  const sim::RunStatus a = p.fast->kernel.run(Time::ms(5), budget);
  const sim::RunStatus b = p.ref->kernel.run(Time::ms(5), budget);
  EXPECT_EQ(a.reason, b.reason) << label;
  EXPECT_EQ(a.time, b.time) << label;
  EXPECT_TRUE(a.budget_exhausted()) << label;
  if (!same(stats_fields(p.fast->kernel), stats_fields(p.ref->kernel), label)) return;
  EXPECT_TRUE(p.step(Time::ms(6))) << label;
}

TEST(KernelInlineStep, ActivationBudgetTripsLikeQueuedPath) {
  for (std::uint64_t n : {1u, 2u, 3u, 7u, 37u, 38u}) {
    expect_same_trip<Spawned<Hopper<0>>>({.max_activations = n}, "activations " + std::to_string(n));
    expect_same_trip<Spawned<Hopper<2>>>({.max_activations = n},
                                         "activations, hops " + std::to_string(n));
  }
}

TEST(KernelInlineStep, DeltaBudgetTripsLikeQueuedPath) {
  for (std::uint64_t n : {1u, 2u, 3u, 7u, 41u, 42u}) {
    expect_same_trip<Spawned<Hopper<0>>>({.max_delta_cycles = n}, "deltas " + std::to_string(n));
    expect_same_trip<Spawned<Hopper<2>>>({.max_delta_cycles = n},
                                         "deltas, hops " + std::to_string(n));
  }
}

TEST(KernelInlineStep, LivelockBudgetTripsLikeQueuedPath) {
  // Three hops make four deltas per instant: a limit of 4 trips exactly at
  // the boundary an inline step would skip; 1..3 trip earlier. With 5 no
  // limit trips and the waits inline; that case checks the state only.
  for (std::uint64_t n : {1u, 2u, 3u, 4u}) {
    expect_same_trip<Spawned<Hopper<3>>>({.max_deltas_without_advance = n},
                                         "livelock " + std::to_string(n));
  }
  Pair<Spawned<Hopper<3>>> p;
  for (Time t : segments(Time::us(20), Time::us(20))) {
    (void)p.fast->kernel.run(t, {.max_deltas_without_advance = 5});
    (void)p.ref->kernel.run(t, {.max_deltas_without_advance = 5});
    if (!same(state_of(*p.fast), state_of(*p.ref), t.to_string())) return;
  }
  EXPECT_GT(p.fast->kernel.inline_steps(), 100u);
}

}  // namespace
