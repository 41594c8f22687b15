// The deadline watchdog (hw::Watchdog) checked against the event-based
// guard it replaced, kept here as a test-only reference model
// (EventWatchdog): there a kick delta-notified a kick event, and the guard
// process re-armed a wait_with_timeout on it in the next delta, reading
// CTRL and PERIOD_US there. Both run the same scripted register accesses,
// each on its own kernel, in lock step over short run(until) steps; after
// every step their timeout counts, the instant of every timeout, its order
// against the probe processes active at that instant, and the register
// images must agree. The cases where DESIGN.md §12 says they differ (the
// seq rule's tie residual and the phase rule's two next-delta cases) pin
// the stated difference instead.

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "vps/hw/peripherals.hpp"
#include "vps/sim/kernel.hpp"

namespace {

using namespace vps;
using sim::Time;

/// The event-based guard, as hw::Watchdog was before it became a deadline.
class EventWatchdog final : public hw::RegisterDevice {
 public:
  EventWatchdog(sim::Kernel& kernel, std::string name)
      : RegisterDevice(kernel, std::move(name), Time::ns(20), /*pure_reads=*/true),
        kick_event_(kernel, this->name() + ".kick"),
        reconfigured_(kernel, this->name() + ".reconfig") {
    spawn("guard", run());
  }

  void set_on_timeout(std::function<void()> fn) { on_timeout_ = std::move(fn); }
  [[nodiscard]] bool enabled() const noexcept { return (state_.ctrl & 1u) != 0; }

  struct Snapshot {
    std::uint32_t ctrl = 0;
    std::uint32_t period_us = 10000;
    std::uint32_t timeouts = 0;
    bool armed = false;  ///< a wait_with_timeout is outstanding
  };
  [[nodiscard]] Snapshot snapshot() const { return state_; }

 protected:
  std::uint32_t read_register(std::uint32_t offset, Time& /*delay*/) override {
    switch (offset) {
      case hw::Watchdog::kCtrl: return state_.ctrl;
      case hw::Watchdog::kPeriodUs: return state_.period_us;
      case hw::Watchdog::kTimeoutCount: return state_.timeouts;
      default: return 0;
    }
  }
  void write_register(std::uint32_t offset, std::uint32_t value, Time& /*delay*/) override {
    switch (offset) {
      case hw::Watchdog::kCtrl:
        state_.ctrl = value;
        reconfigured_.notify();
        break;
      case hw::Watchdog::kPeriodUs:
        state_.period_us = std::max(1u, value);
        reconfigured_.notify();
        break;
      case hw::Watchdog::kKick: kick_event_.notify(); break;
      default: break;
    }
  }
  [[nodiscard]] std::uint32_t register_space() const override { return 0x10; }

 private:
  [[nodiscard]] sim::Coro run() {
    for (;;) {
      if (state_.armed) {
        state_.armed = false;
        const bool kicked = !kernel().current_process()->last_wait_timed_out();
        if (!kicked && enabled()) {
          ++state_.timeouts;
          state_.ctrl &= ~1u;
          if (on_timeout_) on_timeout_();
        }
      }
      while (!enabled()) co_await reconfigured_;
      state_.armed = true;
      (void)co_await sim::wait_with_timeout(kick_event_, Time::us(state_.period_us));
    }
  }

  Snapshot state_;
  sim::Event kick_event_;
  sim::Event reconfigured_;
  std::function<void()> on_timeout_;
};

using Log = std::vector<std::pair<std::uint64_t, std::string>>;  // (ps, what)

/// A kernel, a watchdog of type W, a script's delta hop and the log of
/// timeouts and probe marks.
template <typename W>
struct Rig {
  sim::Kernel kernel;
  W wdg{kernel, "wdg"};
  sim::Event hop{kernel, "hop"};
  Log log;

  Rig() {
    wdg.set_on_timeout([this] { mark("timeout"); });
  }

  void mark(std::string what) { log.emplace_back(kernel.now().picoseconds(), std::move(what)); }

  void write(std::uint32_t offset, std::uint32_t value) {
    tlm::GenericPayload p(tlm::Command::kWrite, offset, 4);
    p.set_value_le(value);
    Time delay = Time::zero();
    wdg.b_transport(p, delay);
    EXPECT_TRUE(p.ok());
  }
  void kick() { write(hw::Watchdog::kKick, 1); }
  void set_period(std::uint32_t us) { write(hw::Watchdog::kPeriodUs, us); }
  void set_ctrl(std::uint32_t v) { write(hw::Watchdog::kCtrl, v); }

  /// Resumes in the next delta of this instant, after every process the
  /// current delta woke ahead of `hop`.
  [[nodiscard]] sim::Coro next_delta() {
    hop.notify();
    co_await hop;
  }

  /// A process that marks `what` after `wait`, and kicks when `what` is
  /// "kick"; it makes its wait later in the current evaluate phase.
  void probe(Time wait, std::string what) { kernel.spawn(what, probe_body(wait, what)); }

 private:
  [[nodiscard]] sim::Coro probe_body(Time wait, std::string what) {
    co_await sim::delay(wait);
    if (what == "kick") kick();
    mark(std::move(what));
  }
};

template <typename A, typename B>
bool same_registers(const Rig<A>& a, const Rig<B>& b, const std::string& where) {
  const auto x = a.wdg.snapshot();
  const auto y = b.wdg.snapshot();
  EXPECT_EQ(x.ctrl, y.ctrl) << where;
  EXPECT_EQ(x.period_us, y.period_us) << where;
  EXPECT_EQ(x.timeouts, y.timeouts) << where;
  return x.ctrl == y.ctrl && x.period_us == y.period_us && x.timeouts == y.timeouts;
}

/// The reference and the deadline watchdog running one script.
struct Lockstep {
  Rig<EventWatchdog> ref;
  Rig<hw::Watchdog> dut;

  template <typename Script>
  explicit Lockstep(Script script) {
    ref.kernel.spawn("script", script(ref));
    dut.kernel.spawn("script", script(dut));
  }

  /// Runs both to `end` in steps of `step`, comparing after each; stops at
  /// the first divergence. Returns true when every step agreed.
  bool run(Time end, Time step = Time::us(1)) {
    for (Time t = step; t <= end; t += step) {
      (void)ref.kernel.run(t);
      (void)dut.kernel.run(t);
      const std::string where = "at " + t.to_string();
      EXPECT_EQ(ref.log, dut.log) << where;
      if (ref.log != dut.log || !same_registers(ref, dut, where)) return false;
    }
    return true;
  }
};

Log timeouts_at(std::initializer_list<std::uint64_t> us) {
  Log log;
  for (std::uint64_t t : us) log.emplace_back(Time::us(t).picoseconds(), "timeout");
  return log;
}

// --- kicks and silence -------------------------------------------------------------

template <typename R>
sim::Coro kick_every_quantum(R& r) {
  r.set_period(100);
  r.set_ctrl(1);
  for (int i = 0; i < 50; ++i) {  // kicks at 0..490 us
    r.kick();
    co_await sim::delay(Time::us(10));
  }
  co_await sim::delay(Time::us(300));  // times out at 590 us
  r.set_ctrl(1);                       // re-armed at 800 us
  for (int i = 0; i < 5; ++i) {        // kicks at 800..840 us
    r.kick();
    co_await sim::delay(Time::us(10));
  }
}

TEST(WatchdogDeadline, KickEveryQuantumMatchesEventGuard) {
  Lockstep ls([](auto& r) { return kick_every_quantum(r); });
  ASSERT_TRUE(ls.run(Time::us(1'100)));
  EXPECT_EQ(ls.dut.log, timeouts_at({590, 940}));
}

template <typename R>
sim::Coro never_kicked(R& r) {
  r.set_period(50);
  r.set_ctrl(1);  // times out at 50 us, which disables it
  co_await sim::delay(Time::us(200));
  r.set_ctrl(1);  // times out at 250 us
  co_await sim::delay(Time::us(25));
  r.set_ctrl(1);  // while armed: moves nothing
}

TEST(WatchdogDeadline, NoKickMatchesEventGuard) {
  Lockstep ls([](auto& r) { return never_kicked(r); });
  ASSERT_TRUE(ls.run(Time::us(400)));
  EXPECT_EQ(ls.dut.log, timeouts_at({50, 250}));
}

// --- the period shortened around a kick -----------------------------------------------

template <typename R>
sim::Coro shortened_then_kicked(R& r, bool kick_first) {
  r.set_period(100);
  r.set_ctrl(1);
  for (int i = 0; i < 20; ++i) {  // kicks at 0..190 us
    r.kick();
    co_await sim::delay(Time::us(10));
  }
  co_await sim::delay(Time::us(5));  // 205 us: the seed-3007 boot path in one activation
  if (kick_first) r.kick();
  r.set_period(1);
  r.set_ctrl(1);
  if (!kick_first) r.kick();
  co_await sim::delay(Time::us(10));  // 215 us: timed out at 206 us, so disabled
  r.kick();
  r.set_period(100);
  r.set_ctrl(1);  // armed again: times out at 315 us
}

TEST(WatchdogDeadline, PeriodShortenedThenKickedInOneActivation) {
  // The seed-3007 case: the deadline moves from 290 us to 206 us, earlier
  // than the guard sleeps towards.
  Lockstep ls([](auto& r) { return shortened_then_kicked(r, /*kick_first=*/false); });
  ASSERT_TRUE(ls.run(Time::us(400)));
  EXPECT_EQ(ls.dut.log, timeouts_at({206, 315}));
}

TEST(WatchdogDeadline, KickedThenPeriodShortenedInOneActivation) {
  Lockstep ls([](auto& r) { return shortened_then_kicked(r, /*kick_first=*/true); });
  ASSERT_TRUE(ls.run(Time::us(400)));
  EXPECT_EQ(ls.dut.log, timeouts_at({206, 315}));
}

template <typename R>
sim::Coro shortened_then_kicked_later(R& r) {
  r.set_period(100);
  r.set_ctrl(1);
  for (int i = 0; i < 20; ++i) {  // kicks at 0..190 us: deadline 290 us
    r.kick();
    co_await sim::delay(Time::us(10));
  }
  co_await sim::delay(Time::us(5));
  r.set_period(3);  // 205 us: moves nothing yet
  co_await sim::delay(Time::us(5));
  r.kick();  // 210 us: deadline 213 us
}

TEST(WatchdogDeadline, KickAfterPeriodShortenedMovesDeadlineEarlier) {
  Lockstep ls([](auto& r) { return shortened_then_kicked_later(r); });
  ASSERT_TRUE(ls.run(Time::us(400)));
  EXPECT_EQ(ls.dut.log, timeouts_at({213}));
}

// --- disable and re-enable ----------------------------------------------------------------

template <typename R>
sim::Coro kick_disable_reenable(R& r) {
  r.set_period(100);
  r.set_ctrl(1);
  for (int i = 0; i <= 20; ++i) {  // kicks at 0..200 us
    r.kick();
    co_await sim::delay(Time::us(10));
  }
  r.kick();  // 210 us, with a disable in the same activation
  r.set_ctrl(0);
  co_await sim::delay(Time::us(40));
  r.set_ctrl(1);  // 250 us, before the old deadlines (300, 310 us): arms at 350 us
}

TEST(WatchdogDeadline, KickAndDisableThenReenableBeforeOldDeadline) {
  Lockstep ls([](auto& r) { return kick_disable_reenable(r); });
  ASSERT_TRUE(ls.run(Time::us(500)));
  EXPECT_EQ(ls.dut.log, timeouts_at({350}));
}

template <typename R>
sim::Coro disable_reenable_without_kick(R& r, bool reenable) {
  r.set_period(100);
  r.set_ctrl(1);
  for (int i = 0; i <= 10; ++i) {  // kicks at 0..100 us: deadline 200 us
    r.kick();
    co_await sim::delay(Time::us(10));
  }
  co_await sim::delay(Time::us(20));
  r.set_ctrl(0);  // 130 us: the armed guard does not see it
  co_await sim::delay(Time::us(30));
  if (reenable) r.set_ctrl(1);  // 160 us
  co_await sim::delay(Time::us(100));
  r.set_ctrl(1);  // 260 us: arms at 360 us unless armed
}

TEST(WatchdogDeadline, DisableWhileArmedThenReenableReachesOldDeadline) {
  Lockstep ls([](auto& r) { return disable_reenable_without_kick(r, true); });
  ASSERT_TRUE(ls.run(Time::us(500)));
  EXPECT_EQ(ls.dut.log, timeouts_at({200, 360}));
}

TEST(WatchdogDeadline, DisabledAtOldDeadlineDoesNotTimeOut) {
  Lockstep ls([](auto& r) { return disable_reenable_without_kick(r, false); });
  ASSERT_TRUE(ls.run(Time::us(500)));
  EXPECT_EQ(ls.dut.log, timeouts_at({360}));
}

// --- a kick at the deadline instant ---------------------------------------------------------

template <typename R>
sim::Coro kick_at_deadline(R& r, bool before_guard) {
  r.set_period(100);
  r.set_ctrl(1);
  // Made before the last kick, this probe's entry sorts ahead of the
  // guard's at 200 us; made after the guard re-armed, behind it.
  if (before_guard) r.probe(Time::us(200), "kick");
  for (int i = 0; i <= 10; ++i) {  // kicks at 0..100 us: deadline 200 us
    r.kick();
    co_await sim::delay(Time::us(10));
  }
  if (!before_guard) r.probe(Time::us(90), "kick");
  co_await sim::delay(Time::us(90));  // 200 us
  r.kick();  // this script runs after both at 200 us
  co_await sim::delay(Time::us(50));
  r.set_ctrl(1);  // 250 us: arms at 350 us
}

TEST(WatchdogDeadline, KickAtDeadlineBeforeTheGuardIsTooLate) {
  Lockstep ls([](auto& r) { return kick_at_deadline(r, /*before_guard=*/true); });
  ASSERT_TRUE(ls.run(Time::us(500)));
  const Log expected = {{Time::us(200).picoseconds(), "kick"},
                        {Time::us(200).picoseconds(), "timeout"},
                        {Time::us(350).picoseconds(), "timeout"}};
  EXPECT_EQ(ls.dut.log, expected);
}

TEST(WatchdogDeadline, KickAtDeadlineAfterTheGuardIsTooLate) {
  Lockstep ls([](auto& r) { return kick_at_deadline(r, /*before_guard=*/false); });
  ASSERT_TRUE(ls.run(Time::us(500)));
  const Log expected = {{Time::us(200).picoseconds(), "timeout"},
                        {Time::us(200).picoseconds(), "kick"},
                        {Time::us(350).picoseconds(), "timeout"}};
  EXPECT_EQ(ls.dut.log, expected);
}

// --- one instant, different deltas --------------------------------------------------

enum class Order {
  kKickThenNextDeltaWrite,   ///< the write runs after the guard the kick woke
  kWriteThenNextDeltaKick,
  kKickThenLaterStepWrite,   ///< a zero delay: after every delta of the instant
  kNextDeltaWriteAheadOfGuard,
};

/// Kicks every 10 us with a 100 us period until 90 us; at 100 us a kick and
/// a write of period 50 land in different deltas, in the order given.
template <typename R>
sim::Coro kick_and_write_apart(R& r, Order order) {
  r.set_period(100);
  r.set_ctrl(1);
  for (int i = 0; i < 10; ++i) {
    r.kick();
    co_await sim::delay(Time::us(10));
  }
  switch (order) {
    case Order::kKickThenNextDeltaWrite:
      r.kick();
      co_await r.next_delta();
      r.set_period(50);
      break;
    case Order::kWriteThenNextDeltaKick:
      r.set_period(50);
      co_await r.next_delta();
      r.kick();
      break;
    case Order::kKickThenLaterStepWrite:
      r.kick();
      co_await sim::delay(Time::zero());
      r.set_period(50);
      break;
    case Order::kNextDeltaWriteAheadOfGuard:
      r.hop.notify();  // queued ahead of the kick event: wakes this script first
      r.kick();
      co_await r.hop;
      r.set_period(50);
      break;
  }
}

TEST(WatchdogDeadline, KickThenPeriodWriteInTheNextDelta) {
  Lockstep ls([](auto& r) { return kick_and_write_apart(r, Order::kKickThenNextDeltaWrite); });
  ASSERT_TRUE(ls.run(Time::us(300)));
  EXPECT_EQ(ls.dut.log, timeouts_at({200}));
}

TEST(WatchdogDeadline, PeriodWriteThenKickInTheNextDelta) {
  Lockstep ls([](auto& r) { return kick_and_write_apart(r, Order::kWriteThenNextDeltaKick); });
  ASSERT_TRUE(ls.run(Time::us(300)));
  EXPECT_EQ(ls.dut.log, timeouts_at({150}));
}

TEST(WatchdogDeadline, KickThenPeriodWriteAfterAZeroDelay) {
  Lockstep ls([](auto& r) { return kick_and_write_apart(r, Order::kKickThenLaterStepWrite); });
  ASSERT_TRUE(ls.run(Time::us(300)));
  EXPECT_EQ(ls.dut.log, timeouts_at({200}));
}

TEST(WatchdogDeadline, WriteInTheNextDeltaAheadOfTheGuardIsThePhaseResidual) {
  // The event guard re-arms in the next delta and reads PERIOD_US there, so
  // a write that delta makes before it counts; the deadline is resolved
  // from the registers as the kick's own delta leaves them (DESIGN §12).
  Lockstep ls([](auto& r) { return kick_and_write_apart(r, Order::kNextDeltaWriteAheadOfGuard); });
  (void)ls.ref.kernel.run(Time::us(300));
  (void)ls.dut.kernel.run(Time::us(300));
  EXPECT_EQ(ls.ref.log, timeouts_at({150}));
  EXPECT_EQ(ls.dut.log, timeouts_at({200}));
}

/// At 100 us the script enables the watchdog, and in the next delta, ahead
/// of the guard that the write woke, kicks it; a process it spawns then
/// writes period 50 after the guard armed, in that same delta.
template <typename R>
sim::Coro kick_ahead_of_the_arming_guard(R& r) {
  r.set_period(100);
  co_await sim::delay(Time::us(100));
  r.hop.notify();  // queued ahead of the reconfiguration: wakes this script first
  r.set_ctrl(1);
  co_await r.hop;
  r.kick();
  r.kernel.spawn("writer", [](R& rig) -> sim::Coro {
    rig.set_period(50);
    co_return;
  }(r));
}

TEST(WatchdogDeadline, KickAheadOfTheArmingGuardIsThePhaseResidual) {
  // The event guard arms in this delta and, kicked, re-arms in the next
  // one, reading the period written after its arm; the deadline ignores a
  // kick that finds it disarmed (DESIGN §12).
  Lockstep ls([](auto& r) { return kick_ahead_of_the_arming_guard(r); });
  (void)ls.ref.kernel.run(Time::us(300));
  (void)ls.dut.kernel.run(Time::us(300));
  EXPECT_EQ(ls.ref.log, timeouts_at({150}));
  EXPECT_EQ(ls.dut.log, timeouts_at({200}));
}

// --- ties at the deadline -----------------------------------------------------------

/// Where the entry that ties with the deadline (200 us) is made.
enum class Tie {
  kBeforeTheKicks,         ///< at 0 us, a wait of two periods
  kAtTheKickBeforeIt,      ///< at 100 us, in an earlier activation than the kick
  kAfterTheReArm,          ///< at 100 us, in the delta after the guard re-armed
  kAfterTheKickSamePhase,  ///< residual: at 100 us, later in the kick's phase
  kNextDeltaAheadOfGuard,  ///< residual: at 100 us, early in the next delta
};

/// Kicks every 10 us with a 100 us period; the last kick at 100 us sets the
/// deadline to 200 us, where the probe's entry ties with the guard's.
template <typename R>
sim::Coro tie_at_deadline(R& r, Tie tie) {
  r.set_period(100);
  r.set_ctrl(1);
  if (tie == Tie::kBeforeTheKicks) r.probe(Time::us(200), "probe");
  // Its second wait is made at 100 us, ahead of this script's activation.
  if (tie == Tie::kAtTheKickBeforeIt) r.kernel.spawn("probe", [](R& rig) -> sim::Coro {
    co_await sim::delay(Time::us(100));
    co_await sim::delay(Time::us(100));
    rig.mark("probe");
  }(r));
  for (int i = 0; i < 10; ++i) {  // kicks at 0..90 us
    r.kick();
    co_await sim::delay(Time::us(10));
  }
  if (tie == Tie::kNextDeltaAheadOfGuard) r.hop.notify();
  r.kick();  // 100 us
  switch (tie) {
    case Tie::kAfterTheReArm:
      co_await r.next_delta();
      break;
    case Tie::kNextDeltaAheadOfGuard:
      co_await r.hop;
      break;
    case Tie::kAfterTheKickSamePhase:
      break;
    default:
      co_return;
  }
  co_await sim::delay(Time::us(100));
  r.mark("probe");
}

Log tie_log(bool probe_first) {
  const std::uint64_t t = Time::us(200).picoseconds();
  if (probe_first) return {{t, "probe"}, {t, "timeout"}};
  return {{t, "timeout"}, {t, "probe"}};
}

TEST(WatchdogDeadline, TieWithAnEntryMadeBeforeTheKicks) {
  Lockstep ls([](auto& r) { return tie_at_deadline(r, Tie::kBeforeTheKicks); });
  ASSERT_TRUE(ls.run(Time::us(300)));
  EXPECT_EQ(ls.dut.log, tie_log(/*probe_first=*/true));
}

TEST(WatchdogDeadline, TieWithAnEntryMadeAtTheKickBeforeIt) {
  Lockstep ls([](auto& r) { return tie_at_deadline(r, Tie::kAtTheKickBeforeIt); });
  ASSERT_TRUE(ls.run(Time::us(300)));
  EXPECT_EQ(ls.dut.log, tie_log(/*probe_first=*/true));
}

TEST(WatchdogDeadline, TieWithAnEntryMadeAfterTheReArm) {
  Lockstep ls([](auto& r) { return tie_at_deadline(r, Tie::kAfterTheReArm); });
  ASSERT_TRUE(ls.run(Time::us(300)));
  EXPECT_EQ(ls.dut.log, tie_log(/*probe_first=*/false));
}

TEST(WatchdogDeadline, TieMadeAfterTheKickBeforeTheReArmIsTheSeqResidual) {
  // The deadline's entry takes the seq drawn at the kick; the event guard
  // drew its seq when it re-armed, in the next delta. An entry made in
  // between, one period long, sorts ahead of the event guard's timeout
  // and behind the deadline's (DESIGN §12).
  for (const Tie tie : {Tie::kAfterTheKickSamePhase, Tie::kNextDeltaAheadOfGuard}) {
    Lockstep ls([tie](auto& r) { return tie_at_deadline(r, tie); });
    (void)ls.ref.kernel.run(Time::us(300));
    (void)ls.dut.kernel.run(Time::us(300));
    EXPECT_EQ(ls.ref.log, tie_log(/*probe_first=*/true));
    EXPECT_EQ(ls.dut.log, tie_log(/*probe_first=*/false));
    EXPECT_EQ(ls.dut.wdg.timeout_count(), 1u);
  }
}

// --- snapshot and restore -----------------------------------------------------------

/// Kicks at 0..50 us with a 100 us period (deadline 150 us), then ends.
template <typename R>
sim::Coro early_kicks(R& r) {
  r.set_period(100);
  r.set_ctrl(1);
  for (int i = 0; i < 6; ++i) {
    r.kick();
    co_await sim::delay(Time::us(10));
  }
}

/// From `start`: a kick at 120 us (deadline 220 us), a re-enable at 300 us.
template <typename R>
sim::Coro late_kicks(R& r, Time start) {
  co_await sim::delay(Time::us(120) - start);
  r.kick();
  co_await sim::delay(Time::us(180));
  r.set_ctrl(1);
}

TEST(WatchdogDeadline, SnapshotWhileArmedRestoresOntoATwin) {
  const Time cut = Time::us(80);
  Rig<EventWatchdog> ref;
  ref.kernel.spawn("script", early_kicks(ref));
  ref.kernel.spawn("late", late_kicks(ref, Time::zero()));  // last at elaboration

  Rig<hw::Watchdog> origin;
  origin.kernel.spawn("script", early_kicks(origin));
  (void)origin.kernel.run(cut);
  ASSERT_NE(origin.wdg.snapshot().deadline, Time::max()) << "armed at the cut";
  const sim::KernelSnapshot kernel_image = origin.kernel.snapshot();
  const hw::Watchdog::Snapshot wdg_image = origin.wdg.snapshot();

  Rig<hw::Watchdog> twin;
  twin.kernel.spawn("script", early_kicks(twin));
  twin.kernel.restore(kernel_image);
  twin.wdg.restore(wdg_image);
  twin.log = origin.log;
  twin.kernel.spawn("late", late_kicks(twin, cut));  // a forked injection's slot

  (void)ref.kernel.run(cut);
  for (Time t = cut + Time::us(1); t <= Time::us(500); t += Time::us(1)) {
    (void)ref.kernel.run(t);
    (void)twin.kernel.run(t);
    ASSERT_EQ(ref.log, twin.log) << "at " << t.to_string();
    ASSERT_TRUE(same_registers(ref, twin, "at " + t.to_string()));
  }
  EXPECT_EQ(twin.log, timeouts_at({220, 400}));
}

}  // namespace
