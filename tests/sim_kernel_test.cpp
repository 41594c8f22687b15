// Unit tests for the discrete-event kernel: time arithmetic, event
// notification semantics, coroutine thread processes, method processes,
// delta cycles, signals, fifos, and the VCD tracer.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "vps/hw/peripherals.hpp"
#include "vps/sim/fifo.hpp"
#include "vps/sim/kernel.hpp"
#include "vps/sim/module.hpp"
#include "vps/sim/signal.hpp"
#include "vps/sim/time.hpp"
#include "vps/sim/trace.hpp"
#include "vps/support/ensure.hpp"

namespace {

using namespace vps::sim;

TEST(Time, ArithmeticAndLiterals) {
  EXPECT_EQ((3_ns).picoseconds(), 3000u);
  EXPECT_EQ(1_us, 1000_ns);
  EXPECT_EQ(2_ms + 500_us, 2500_us);
  EXPECT_EQ(1_sec - 1_ms, 999_ms);
  EXPECT_EQ((10_ns) * 3, 30_ns);
  EXPECT_EQ((100_ns) / (10_ns), 10u);
  EXPECT_EQ((105_ns) % (10_ns), 5_ns);
  EXPECT_LT(1_ns, 1_us);
}

TEST(Time, FromSecondsRoundTrip) {
  EXPECT_EQ(Time::from_seconds(1.0), 1_sec);
  EXPECT_EQ(Time::from_seconds(0.0), Time::zero());
  EXPECT_EQ(Time::from_seconds(-2.0), Time::zero());
  EXPECT_NEAR(Time::from_seconds(0.0035).to_seconds(), 0.0035, 1e-12);
}

TEST(Time, ToString) {
  EXPECT_EQ((5_ns).to_string(), "5ns");
  EXPECT_EQ((2_ms).to_string(), "2ms");
  EXPECT_EQ(Time::zero().to_string(), "0s");
  EXPECT_EQ((1500_ns).to_string(), "1500ns");
}

TEST(Kernel, EmptyRunTerminates) {
  Kernel k;
  EXPECT_EQ(k.run(), Time::zero());
  EXPECT_FALSE(k.has_pending_activity());
}

TEST(Kernel, ThreadProcessDelays) {
  Kernel k;
  std::vector<std::uint64_t> log;
  k.spawn("p", [](Kernel& k, std::vector<std::uint64_t>& log) -> Coro {
    log.push_back(k.now().picoseconds());
    co_await delay(10_ns);
    log.push_back(k.now().picoseconds());
    co_await delay(5_ns);
    log.push_back(k.now().picoseconds());
  }(k, log));
  k.run();
  ASSERT_EQ(log.size(), 3u);
  EXPECT_EQ(log[0], 0u);
  EXPECT_EQ(log[1], 10000u);
  EXPECT_EQ(log[2], 15000u);
  EXPECT_EQ(k.now(), 15_ns);
}

TEST(Kernel, RunUntilLimitStopsEarly) {
  Kernel k;
  int wakeups = 0;
  k.spawn("p", [](int& wakeups) -> Coro {
    for (int i = 0; i < 100; ++i) {
      co_await delay(10_ns);
      ++wakeups;
    }
  }(wakeups));
  k.run(35_ns);
  EXPECT_EQ(wakeups, 3);
  EXPECT_EQ(k.now(), 35_ns);
  k.run(1_us);
  EXPECT_EQ(wakeups, 100);
}

TEST(Kernel, EventDeltaNotification) {
  Kernel k;
  Event e(k, "e");
  int fired = 0;
  k.spawn("waiter", [](Event& e, int& fired) -> Coro {
    co_await e;
    ++fired;
  }(e, fired));
  k.spawn("notifier", [](Event& e) -> Coro {
    co_await delay(3_ns);
    e.notify();
  }(e));
  k.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(k.now(), 3_ns);
}

TEST(Kernel, TimedNotificationAndCancel) {
  Kernel k;
  Event e(k, "e");
  int fired = 0;
  k.method("m", [&] { ++fired; }, {&e}, /*initialize=*/false);
  e.notify(10_ns);
  e.notify(20_ns);
  k.spawn("canceller", [](Event& e) -> Coro {
    co_await delay(15_ns);
    e.cancel();  // kills the 20ns notification
  }(e));
  k.run();
  EXPECT_EQ(fired, 1);
}

TEST(Kernel, ImmediateNotificationRunsSameDelta) {
  Kernel k;
  Event e(k, "e");
  std::vector<std::string> order;
  k.method("listener", [&] { order.push_back("listener@" + k.now().to_string()); }, {&e},
           /*initialize=*/false);
  k.spawn("src", [](Event& e, std::vector<std::string>& order) -> Coro {
    order.push_back("pre");
    e.notify_immediate();
    order.push_back("post");
    co_return;
  }(e, order));
  k.run();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], "pre");
  EXPECT_EQ(order[1], "post");       // src finishes its slice first
  EXPECT_EQ(order[2], "listener@0s");  // listener ran in the same evaluation phase
}

TEST(Kernel, MethodStaticSensitivityReruns) {
  Kernel k;
  Event e(k, "tick");
  int runs = 0;
  k.method("m", [&] { ++runs; }, {&e}, /*initialize=*/true);
  k.spawn("ticker", [](Event& e) -> Coro {
    for (int i = 0; i < 5; ++i) {
      co_await delay(1_ns);
      e.notify();
    }
  }(e));
  k.run();
  EXPECT_EQ(runs, 6);  // 1 initialize + 5 notifications
}

TEST(Kernel, WaitWithTimeoutEventWins) {
  Kernel k;
  Event e(k, "e");
  bool got_event = false;
  k.spawn("w", [](Event& e, bool& got) -> Coro { got = co_await wait_with_timeout(e, 100_ns); }(e, got_event));
  k.spawn("n", [](Event& e) -> Coro {
    co_await delay(10_ns);
    e.notify();
  }(e));
  k.run();
  EXPECT_TRUE(got_event);
  EXPECT_EQ(k.now(), 10_ns);
}

TEST(Kernel, WaitWithTimeoutTimeoutWins) {
  Kernel k;
  Event e(k, "e");
  bool got_event = true;
  k.spawn("w", [](Event& e, bool& got) -> Coro { got = co_await wait_with_timeout(e, 100_ns); }(e, got_event));
  k.run();
  EXPECT_FALSE(got_event);
  EXPECT_EQ(k.now(), 100_ns);
}

TEST(Kernel, WaitWithTimeoutLeavesNoStaleWakeup) {
  Kernel k;
  Event e(k, "e");
  std::vector<std::uint64_t> wake_times;
  k.spawn("w", [](Kernel& k, Event& e, std::vector<std::uint64_t>& times) -> Coro {
    (void)co_await wait_with_timeout(e, 100_ns);  // event fires at 10ns
    times.push_back(k.now().picoseconds());
    co_await delay(500_ns);  // the stale 100ns timeout must not shorten this
    times.push_back(k.now().picoseconds());
  }(k, e, wake_times));
  k.spawn("n", [](Event& e) -> Coro {
    co_await delay(10_ns);
    e.notify();
  }(e));
  k.run();
  ASSERT_EQ(wake_times.size(), 2u);
  EXPECT_EQ(wake_times[0], (10_ns).picoseconds());
  EXPECT_EQ(wake_times[1], (510_ns).picoseconds());
}

TEST(Kernel, NestedCoroutinesPropagateContext) {
  Kernel k;
  std::vector<std::uint64_t> log;
  auto inner = [](Kernel& k, std::vector<std::uint64_t>& log) -> Coro {
    co_await delay(7_ns);
    log.push_back(k.now().picoseconds());
  };
  k.spawn("outer", [](Kernel& k, std::vector<std::uint64_t>& log, auto inner) -> Coro {
    co_await inner(k, log);
    co_await inner(k, log);
    log.push_back(k.now().picoseconds());
  }(k, log, inner));
  k.run();
  ASSERT_EQ(log.size(), 3u);
  EXPECT_EQ(log[0], 7000u);
  EXPECT_EQ(log[1], 14000u);
  EXPECT_EQ(log[2], 14000u);
}

TEST(Kernel, ExceptionInProcessPropagatesToRun) {
  Kernel k;
  k.spawn("bad", []() -> Coro {
    co_await delay(1_ns);
    throw std::runtime_error("model exploded");
  }());
  EXPECT_THROW(k.run(), std::runtime_error);
}

TEST(Kernel, ExceptionInNestedCoroPropagates) {
  Kernel k;
  auto inner = []() -> Coro {
    co_await delay(1_ns);
    throw std::runtime_error("inner bad");
  };
  bool caught_in_outer = false;
  k.spawn("outer", [](auto inner, bool& caught) -> Coro {
    try {
      co_await inner();
    } catch (const std::runtime_error&) {
      caught = true;
    }
  }(inner, caught_in_outer));
  k.run();
  EXPECT_TRUE(caught_in_outer);
}

TEST(Kernel, TerminatedEventAllowsJoin) {
  Kernel k;
  auto& worker = k.spawn("worker", []() -> Coro { co_await delay(42_ns); }());
  bool joined = false;
  k.spawn("parent", [](Kernel& k, Process& w, bool& joined) -> Coro {
    co_await w.terminated_event();
    joined = w.done() && k.now() == 42_ns;
  }(k, worker, joined));
  k.run();
  EXPECT_TRUE(joined);
}

TEST(Kernel, KillPreventsFurtherActivations) {
  Kernel k;
  int wakeups = 0;
  auto& victim = k.spawn("victim", [](int& wakeups) -> Coro {
    for (;;) {
      co_await delay(10_ns);
      ++wakeups;
    }
  }(wakeups));
  k.spawn("killer", [](Process& v) -> Coro {
    co_await delay(35_ns);
    v.kill();
  }(victim));
  k.run(1_us);
  EXPECT_EQ(wakeups, 3);
  EXPECT_TRUE(victim.done());
}

TEST(Kernel, StopEndsRun) {
  Kernel k;
  int wakeups = 0;
  k.spawn("p", [](Kernel& k, int& wakeups) -> Coro {
    for (;;) {
      co_await delay(10_ns);
      if (++wakeups == 3) k.stop();
    }
  }(k, wakeups));
  k.run();
  EXPECT_EQ(wakeups, 3);
  EXPECT_EQ(k.now(), 30_ns);
}

TEST(Kernel, StatsCountActivity) {
  Kernel k;
  Event e(k, "e");
  k.spawn("p", [](Event& e) -> Coro {
    for (int i = 0; i < 10; ++i) {
      co_await delay(1_ns);
      e.notify();
    }
  }(e));
  k.run();
  EXPECT_GE(k.stats().activations, 10u);
  EXPECT_GE(k.stats().notifications, 10u);
  EXPECT_GE(k.stats().timed_steps, 10u);
}

TEST(Kernel, DeterministicSameTimeOrdering) {
  // Two processes scheduled for the same instant run in registration order.
  for (int rep = 0; rep < 3; ++rep) {
    Kernel k;
    std::vector<int> order;
    k.spawn("a", [](std::vector<int>& order) -> Coro {
      co_await delay(5_ns);
      order.push_back(1);
    }(order));
    k.spawn("b", [](std::vector<int>& order) -> Coro {
      co_await delay(5_ns);
      order.push_back(2);
    }(order));
    k.run();
    ASSERT_EQ(order.size(), 2u);
    EXPECT_EQ(order[0], 1);
    EXPECT_EQ(order[1], 2);
  }
}

TEST(Kernel, PendingActivityAndNextTime) {
  Kernel k;
  Event e(k, "e");
  EXPECT_FALSE(k.has_pending_activity());
  EXPECT_EQ(k.next_activity_time(), Time::max());
  e.notify(25_ns);
  EXPECT_TRUE(k.has_pending_activity());
  EXPECT_EQ(k.next_activity_time(), 25_ns);
  k.run();
  EXPECT_EQ(e.fire_count(), 1u);
  // A runnable process makes "now" the next activity time.
  k.spawn("p", []() -> Coro { co_return; }());
  EXPECT_EQ(k.next_activity_time(), k.now());
  k.run();
  EXPECT_FALSE(k.has_pending_activity());
}

TEST(Kernel, EventFireCountAccumulates) {
  Kernel k;
  Event e(k, "e");
  k.spawn("n", [](Event& e) -> Coro {
    for (int i = 0; i < 4; ++i) {
      e.notify();
      co_await delay(1_ns);
    }
    e.notify_immediate();
  }(e));
  k.run();
  EXPECT_EQ(e.fire_count(), 5u);
}

TEST(Signal, DeltaCycleSemantics) {
  Kernel k;
  Signal<int> s(k, "s", 0);
  int observed_during_write_delta = -1;
  k.spawn("writer", [](Signal<int>& s, int& obs) -> Coro {
    s.write(5);
    obs = s.read();  // still old value within the same evaluation
    co_return;
  }(s, observed_during_write_delta));
  k.run();
  EXPECT_EQ(observed_during_write_delta, 0);
  EXPECT_EQ(s.read(), 5);
}

TEST(Signal, ChangedEventFiresOnlyOnChange) {
  Kernel k;
  Signal<int> s(k, "s", 0);
  int changes = 0;
  k.method("watcher", [&] { ++changes; }, {&s.changed()}, /*initialize=*/false);
  k.spawn("writer", [](Signal<int>& s) -> Coro {
    s.write(0);  // no change
    co_await delay(1_ns);
    s.write(7);  // change
    co_await delay(1_ns);
    s.write(7);  // no change
    co_await delay(1_ns);
    s.write(8);  // change
  }(s));
  k.run();
  EXPECT_EQ(changes, 2);
  EXPECT_EQ(s.change_count(), 2u);
}

TEST(Signal, LastWriteInDeltaWins) {
  Kernel k;
  Signal<int> s(k, "s", 0);
  k.spawn("w", [](Signal<int>& s) -> Coro {
    s.write(1);
    s.write(2);
    s.write(3);
    co_return;
  }(s));
  k.run();
  EXPECT_EQ(s.read(), 3);
  EXPECT_EQ(s.change_count(), 1u);
}

TEST(Signal, ForceBypassesDeltaProtocol) {
  Kernel k;
  Signal<int> s(k, "s", 0);
  int seen = -1;
  k.spawn("f", [](Signal<int>& s, int& seen) -> Coro {
    s.force(9);
    seen = s.read();  // visible immediately
    co_return;
  }(s, seen));
  k.run();
  EXPECT_EQ(seen, 9);
}

TEST(Fifo, NonBlockingOps) {
  Kernel k;
  Fifo<int> f(k, "f", 2);
  EXPECT_TRUE(f.nb_push(1));
  EXPECT_TRUE(f.nb_push(2));
  EXPECT_FALSE(f.nb_push(3));
  EXPECT_TRUE(f.full());
  EXPECT_EQ(f.nb_pop().value(), 1);
  EXPECT_EQ(f.nb_pop().value(), 2);
  EXPECT_FALSE(f.nb_pop().has_value());
}

TEST(Fifo, BlockingProducerConsumer) {
  Kernel k;
  Fifo<int> f(k, "f", 2);
  std::vector<int> received;
  k.spawn("producer", [](Fifo<int>& f) -> Coro {
    for (int i = 0; i < 10; ++i) co_await f.push(i);
  }(f));
  k.spawn("consumer", [](Fifo<int>& f, std::vector<int>& received) -> Coro {
    for (int i = 0; i < 10; ++i) {
      int v = 0;
      co_await f.pop(v);
      received.push_back(v);
      co_await delay(3_ns);  // slow consumer back-pressures producer
    }
  }(f, received));
  k.run();
  ASSERT_EQ(received.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(received[static_cast<std::size_t>(i)], i);
}

TEST(Fifo, RejectsZeroCapacity) {
  Kernel k;
  EXPECT_THROW(Fifo<int>(k, "f", 0), vps::support::InvariantError);
}

TEST(Module, HierarchicalNames) {
  Kernel k;
  struct Top : Module {
    using Module::Module;
  };
  Top top(k, "top");
  struct Sub : Module {
    Sub(Module& parent) : Module(parent, "sub") {}
  };
  Sub sub(top);
  EXPECT_EQ(sub.name(), "top.sub");
  EXPECT_EQ(&sub.kernel(), &k);
}

TEST(Vcd, WritesChangesToFile) {
  const std::string path = "/tmp/vps_vcd_test.vcd";
  {
    Kernel k;
    Signal<bool> clk(k, "clk", false);
    Signal<std::uint8_t> bus(k, "bus", 0);
    VcdTracer vcd(k, path);
    vcd.trace(clk);
    vcd.trace(bus);
    k.spawn("driver", [](Signal<bool>& clk, Signal<std::uint8_t>& bus) -> Coro {
      for (std::uint8_t i = 0; i < 4; ++i) {
        clk.write(!clk.read());
        bus.write(i);
        co_await delay(10_ns);
      }
    }(clk, bus));
    k.run();
    EXPECT_GT(vcd.change_records(), 0u);
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  std::string content((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  EXPECT_NE(content.find("$timescale 1ps $end"), std::string::npos);
  EXPECT_NE(content.find("clk"), std::string::npos);
  EXPECT_NE(content.find("#10000"), std::string::npos);
  std::remove(path.c_str());
}

// --- regression tests for the PR-2 bugfix anchors ---------------------------

// Time arithmetic saturates instead of wrapping (the old two's-complement
// wrap made `now + Time::max()` a tiny deadline and Time::sec(huge) a
// nonsense small count).
TEST(Time, SaturatingArithmetic) {
  EXPECT_EQ(Time::max() + 1_ns, Time::max());
  EXPECT_EQ(1_ns + Time::max(), Time::max());
  EXPECT_EQ(Time::max() + Time::max(), Time::max());
  EXPECT_EQ(Time::sec(std::numeric_limits<std::uint64_t>::max()), Time::max());
  EXPECT_EQ(Time::max() * 2, Time::max());
  EXPECT_EQ(1_ns - 1_us, Time::zero());  // subtraction clamps at zero
  EXPECT_EQ(Time::zero() - Time::max(), Time::zero());
  // Ordinary arithmetic is unaffected.
  EXPECT_EQ(1_us + 1_ns, Time::ps(1001000));
  EXPECT_EQ(1_us - 1_ns, Time::ps(999000));
  Time t = Time::max();
  t += 5_ms;
  EXPECT_EQ(t, Time::max());
  t -= Time::max();
  EXPECT_EQ(t, Time::zero());
}

// run_for(Time::max()) means "until activity is exhausted". Before the
// saturating fix, now + max wrapped to (now - 1ps) and run() returned
// immediately without executing anything.
TEST(Kernel, RunForTimeMaxDoesNotWrap) {
  Kernel k;
  int steps = 0;
  k.spawn("p", [](int& steps) -> Coro {
    for (int i = 0; i < 3; ++i) {
      co_await delay(10_ns);
      ++steps;
    }
  }(steps));
  k.run_for(Time::max());
  EXPECT_EQ(steps, 3);
  EXPECT_EQ(k.now(), 30_ns);
}

// Commit hooks are multi-subscriber with independent handle-based removal
// (the old single-slot set_commit_hook silently evicted prior observers).
TEST(Signal, MultipleCommitHooksCoexist) {
  Kernel k;
  Signal<int> sig(k, "sig", 0);
  std::vector<int> a, b;
  const CommitHookId ha = sig.add_commit_hook([&a](const int& v) { a.push_back(v); });
  const CommitHookId hb = sig.add_commit_hook([&b](const int& v) { b.push_back(v); });
  EXPECT_NE(ha, hb);
  EXPECT_EQ(sig.commit_hook_count(), 2u);

  k.spawn("w", [](Signal<int>& sig) -> Coro {
    sig.write(1);
    co_await delay(1_ns);
    sig.write(2);
    co_await delay(1_ns);
  }(sig));
  k.run();
  EXPECT_EQ(a, (std::vector<int>{1, 2}));
  EXPECT_EQ(b, (std::vector<int>{1, 2}));

  // Removing one hook must not disturb the other.
  sig.remove_commit_hook(ha);
  EXPECT_EQ(sig.commit_hook_count(), 1u);
  sig.force(7);
  EXPECT_EQ(a, (std::vector<int>{1, 2}));
  EXPECT_EQ(b, (std::vector<int>{1, 2, 7}));
  sig.remove_commit_hook(hb);
  EXPECT_EQ(sig.commit_hook_count(), 0u);
  sig.remove_commit_hook(hb);  // double-remove is a no-op
}

// The concrete instance of the eviction bug: attaching a VCD tracer and a
// user monitor to the same signal; both must see every commit.
TEST(Signal, TracerAndMonitorCoexist) {
  const std::string path = "/tmp/vps_vcd_coexist_test.vcd";
  Kernel k;
  Signal<std::uint8_t> bus(k, "bus", 0);
  std::vector<int> monitored;
  (void)bus.add_commit_hook([&monitored](const std::uint8_t& v) { monitored.push_back(v); });
  VcdTracer vcd(k, path);
  vcd.trace(bus);  // must not evict the monitor
  EXPECT_EQ(bus.commit_hook_count(), 2u);

  k.spawn("w", [](Signal<std::uint8_t>& bus) -> Coro {
    for (std::uint8_t i = 1; i <= 3; ++i) {
      bus.write(i);
      co_await delay(10_ns);
    }
  }(bus));
  k.run();
  EXPECT_EQ(monitored, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(vcd.change_records(), 3u);
  std::remove(path.c_str());
}

// Destroying the tracer before the signals it traces must detach its commit
// hooks: afterwards the hooks that captured the dead tracer are gone and
// further writes are safe (previously a use-after-free under ASan).
TEST(Vcd, TracerDestroyedBeforeSignalsDetachesHooks) {
  const std::string path = "/tmp/vps_vcd_lifetime_test.vcd";
  Kernel k;
  Signal<bool> clk(k, "clk", false);
  Signal<std::uint8_t> bus(k, "bus", 0);
  {
    VcdTracer vcd(k, path);
    vcd.trace(clk);
    vcd.trace(bus);
    EXPECT_EQ(clk.commit_hook_count(), 1u);
    EXPECT_EQ(bus.commit_hook_count(), 1u);
  }  // tracer destroyed here, signals live on
  EXPECT_EQ(clk.commit_hook_count(), 0u);
  EXPECT_EQ(bus.commit_hook_count(), 0u);
  k.spawn("w", [](Signal<bool>& clk, Signal<std::uint8_t>& bus) -> Coro {
    clk.write(true);
    bus.write(42);
    co_await delay(1_ns);
  }(clk, bus));
  k.run();  // would crash (dangling `this` in the hook) without detach
  EXPECT_TRUE(clk.read());
  std::remove(path.c_str());
}

// Byte-exact golden file: the VCD writer's output is fully deterministic
// (sim-time timestamps only), so observability changes that perturb the
// format are caught here rather than in a downstream waveform viewer.
TEST(Vcd, GoldenFileOutput) {
  const std::string path = "/tmp/vps_vcd_golden_test.vcd";
  {
    Kernel k;
    Signal<bool> clk(k, "clk", false);
    Signal<std::uint8_t> bus(k, "bus", 0);
    VcdTracer vcd(k, path);
    vcd.trace(clk);
    vcd.trace(bus);
    k.spawn("driver", [](Signal<bool>& clk, Signal<std::uint8_t>& bus) -> Coro {
      for (std::uint8_t i = 1; i <= 3; ++i) {
        clk.write(!clk.read());
        bus.write(i);
        co_await delay(10_ns);
      }
    }(clk, bus));
    k.run();
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  const std::string content((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
  const std::string golden = R"($timescale 1ps $end
$scope module vps $end
$var wire 1 ! clk $end
$var wire 8 " bus $end
$upscope $end
$enddefinitions $end
$dumpvars
0!
b00000000 "
$end
#0
1!
b00000001 "
#10000
0!
b00000010 "
#20000
1!
b00000011 "
)";
  EXPECT_EQ(content, golden);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Watchdog budgets (RunBudget / RunStatus)
// ---------------------------------------------------------------------------

TEST(RunBudget, DeltaLivelockStopsWithLivelockReason) {
  Kernel k;
  Event e(k, "e");
  // Delta livelock: the method re-notifies its own trigger every delta, so
  // time never advances and an unbudgeted run would spin forever.
  k.method("storm", [&] { e.notify(); }, {&e}, /*initialize=*/true);
  const RunStatus status = k.run_until_idle(RunBudget{.max_deltas_without_advance = 100});
  EXPECT_EQ(status.reason, StopReason::kLivelock);
  EXPECT_TRUE(status.budget_exhausted());
  EXPECT_EQ(status.time, Time::zero());  // never left t = 0
  EXPECT_STREQ(to_string(status.reason), "livelock");
}

TEST(RunBudget, ImmediateSelfNotificationStopsOnActivationBudget) {
  Kernel k;
  Event e(k, "e");
  // Immediate self-notification never lets the evaluate phase drain, so no
  // delta boundary is ever reached: only the activation budget can catch it.
  k.method("storm", [&] { e.notify_immediate(); }, {&e}, /*initialize=*/true);
  const RunStatus status = k.run_until_idle(RunBudget{.max_activations = 1000});
  EXPECT_EQ(status.reason, StopReason::kActivationBudget);
  EXPECT_TRUE(status.budget_exhausted());
  EXPECT_GE(k.stats().activations, 1000u);
}

TEST(RunBudget, DeltaCycleBudgetStops) {
  Kernel k;
  Event e(k, "e");
  k.method("storm", [&] { e.notify(); }, {&e}, /*initialize=*/true);
  const RunStatus status = k.run_until_idle(RunBudget{.max_delta_cycles = 50});
  EXPECT_EQ(status.reason, StopReason::kDeltaBudget);
  EXPECT_GE(k.stats().delta_cycles, 50u);
}

TEST(RunBudget, LivelockCounterResetsOnTimeAdvance) {
  Kernel k;
  k.spawn("healthy", []() -> Coro {
    for (int i = 0; i < 50; ++i) co_await delay(1_ns);
  }());
  // A healthy periodic process advances time every delta or two — far below
  // the heuristic threshold, so a tight livelock guard must not fire.
  const RunStatus status = k.run_until_idle(RunBudget{.max_deltas_without_advance = 3});
  EXPECT_EQ(status.reason, StopReason::kIdle);
  EXPECT_FALSE(status.budget_exhausted());
  EXPECT_EQ(k.now(), 50_ns);
}

TEST(RunBudget, DistinguishesIdleFromTimeLimit) {
  Kernel k;
  k.spawn("p", []() -> Coro { co_await delay(10_ns); }());
  Kernel k2;
  k2.spawn("p", []() -> Coro {
    for (;;) co_await delay(10_ns);
  }());
  EXPECT_EQ(k.run_until_idle().reason, StopReason::kIdle);
  EXPECT_EQ(k2.run_for(25_ns, RunBudget{}).reason, StopReason::kTimeLimit);
  EXPECT_EQ(k2.now(), 25_ns);
}

TEST(RunBudget, BudgetsAreRelativeToRunEntryAndResumable) {
  Kernel k;
  int wakeups = 0;
  k.spawn("p", [](int& wakeups) -> Coro {
    for (int i = 0; i < 10; ++i) {
      co_await delay(1_ns);
      ++wakeups;
    }
  }(wakeups));
  const RunStatus first = k.run_until_idle(RunBudget{.max_activations = 3});
  EXPECT_EQ(first.reason, StopReason::kActivationBudget);
  EXPECT_LT(wakeups, 10);
  // A fresh call gets a fresh allowance (limits are relative to run() entry,
  // not lifetime totals), so the same budget eventually finishes the work.
  RunStatus last = first;
  for (int guard = 0; guard < 20 && last.budget_exhausted(); ++guard) {
    last = k.run_until_idle(RunBudget{.max_activations = 3});
  }
  EXPECT_EQ(last.reason, StopReason::kIdle);
  EXPECT_EQ(wakeups, 10);
  EXPECT_EQ(k.now(), 10_ns);
}

TEST(RunBudget, LegacyUnbudgetedRunStillReturnsTime) {
  Kernel k;
  k.spawn("p", []() -> Coro { co_await delay(7_ns); }());
  EXPECT_EQ(k.run(), 7_ns);
}

// ---------------------------------------------------------------------------
// Multiple kernel observers
// ---------------------------------------------------------------------------

struct CountingObserver final : KernelObserver {
  int deltas = 0;
  int trips = 0;
  StopReason last_trip = StopReason::kIdle;
  void on_delta_cycle(Time) override { ++deltas; }
  void on_budget_trip(const RunStatus& status) override {
    ++trips;
    last_trip = status.reason;
  }
};

TEST(KernelObserver, MultipleObserversAllReceiveCallbacks) {
  Kernel k;
  CountingObserver a;
  CountingObserver b;
  k.add_observer(a);
  k.add_observer(b);
  EXPECT_EQ(k.observer_count(), 2u);
  k.spawn("p", []() -> Coro { co_await delay(1_ns); }());
  k.run();
  EXPECT_GT(a.deltas, 0);
  EXPECT_EQ(a.deltas, b.deltas);  // both saw every delta boundary

  k.remove_observer(a);
  EXPECT_FALSE(k.has_observer(a));
  EXPECT_TRUE(k.has_observer(b));
  const int a_before = a.deltas;
  k.spawn("q", []() -> Coro { co_await delay(1_ns); }());
  k.run();
  EXPECT_EQ(a.deltas, a_before);  // detached: no further callbacks
  EXPECT_GT(b.deltas, a.deltas);
}

TEST(KernelObserver, DuplicateAttachIsAnInvariantError) {
  Kernel k;
  CountingObserver a;
  k.add_observer(a);
  EXPECT_THROW(k.add_observer(a), vps::support::InvariantError);
  k.remove_observer(a);
  k.remove_observer(a);  // removing a detached observer is a no-op
  EXPECT_EQ(k.observer_count(), 0u);
}

TEST(KernelObserver, BudgetTripNotifiesEveryObserver) {
  Kernel k;
  Event e(k, "e");
  k.method("storm", [&] { e.notify(); }, {&e}, /*initialize=*/true);
  CountingObserver a;
  CountingObserver b;
  k.add_observer(a);
  k.add_observer(b);
  const RunStatus status = k.run_until_idle(RunBudget{.max_deltas_without_advance = 10});
  EXPECT_EQ(status.reason, StopReason::kLivelock);
  EXPECT_EQ(a.trips, 1);
  EXPECT_EQ(b.trips, 1);
  EXPECT_EQ(a.last_trip, StopReason::kLivelock);
}

// ---------------------------------------------------------------------------
// Restore: a process spawned onto a restored kernel orders like one spawned
// last at elaboration of the uncut run
// ---------------------------------------------------------------------------

/// An alarm that re-arms at 1 ms for 5 ms and a 1 ms ticker, logging `A`
/// and `t`. Both are restore-safe: the work owed at a resume runs at loop
/// top, gated on member state. The alarm's re-arm is the first entry made
/// after elaboration, so it would share its seq with a forked injection
/// if the first evaluate phase did not reserve one.
struct TickAlarm {
  Kernel kernel;
  std::string log;
  bool tick_pending = false;
  int alarm_phase = 0;

  TickAlarm() {
    kernel.spawn("alarm", alarm());
    kernel.spawn("ticker", ticker());
  }

  Coro ticker() {
    for (;;) {
      if (tick_pending) log += 't';
      tick_pending = true;
      co_await delay(1_ms);
    }
  }

  Coro alarm() {
    for (;;) {
      if (alarm_phase == 0) {
        alarm_phase = 1;
        co_await delay(1_ms);
      } else if (alarm_phase == 1) {
        alarm_phase = 2;
        co_await delay(4_ms);
      } else {
        log += 'A';
        co_return;
      }
    }
  }

  void restore(const TickAlarm& source) {
    kernel.restore(source.kernel.snapshot());
    log = source.log;
    tick_pending = source.tick_pending;
    alarm_phase = source.alarm_phase;
  }
};

/// Logs each mark at its instant, one plain delay per mark.
Coro marker(TickAlarm& s, std::vector<std::pair<Time, char>> marks) {
  for (const auto& [at, mark] : marks) {
    co_await delay(at - s.kernel.now());
    s.log += mark;
  }
}

/// The log of an uncut run to 8 ms, where `inject` spawns its process last
/// at elaboration, and that of a twin restored from a 3 ms snapshot of a
/// run without it, where `inject` spawns it right after restore(). At
/// 4 ms no two of the twin's timed entries may share a (when, seq) key,
/// or the heap's layout would decide which one pops first.
std::pair<std::string, std::string> uncut_and_forked(
    const std::function<void(TickAlarm&)>& inject) {
  TickAlarm uncut;
  inject(uncut);
  (void)uncut.kernel.run(8_ms);
  TickAlarm source;
  (void)source.kernel.run(3_ms);
  TickAlarm twin;
  twin.restore(source);
  inject(twin);
  (void)twin.kernel.run(4_ms);
  std::vector<std::pair<Time, std::uint64_t>> keys;
  for (const auto& e : twin.kernel.snapshot().timed) keys.emplace_back(e.when, e.seq);
  std::sort(keys.begin(), keys.end());
  EXPECT_TRUE(std::adjacent_find(keys.begin(), keys.end()) == keys.end()) << "tied timed keys";
  (void)twin.kernel.run(8_ms);
  return {uncut.log, twin.log};
}

TEST(KernelRestore, ProcessSpawnedAfterRestoreOrdersLikeOneSpawnedLastAtElaboration) {
  // At 5 ms the injector's wait, made at elaboration, sorts ahead of the
  // alarm's, made at 1 ms; after a restore the injector makes its wait
  // at 3 ms, yet it must still go first.
  const auto [uncut, forked] = uncut_and_forked(
      [](TickAlarm& s) { s.kernel.spawn("injector", marker(s, {{5_ms, 'X'}})); });
  EXPECT_EQ(uncut, "ttttXAtttt");
  EXPECT_EQ(forked, uncut);
}

TEST(KernelRestore, FirstWaitAfterRestoreIsQueuedAndLaterWaitsAllocateAsUsual) {
  // Nothing else is due by 3.5 ms, so an inline step could take the first
  // wait; it must not, or the second wait would take the reserved seq and
  // sort ahead of the alarm at 5 ms.
  const auto [uncut, forked] = uncut_and_forked([](TickAlarm& s) {
    s.kernel.spawn("injector", marker(s, {{3500_us, 'X'}, {5_ms, 'Y'}}));
  });
  EXPECT_EQ(uncut, "tttXtAYtttt");
  EXPECT_EQ(forked, uncut);
}

TEST(KernelRestore, SecondTimedEntryBeforeTheFirstDeltaBoundaryThrows) {
  TickAlarm source;
  (void)source.kernel.run(3_ms);
  TickAlarm twin;
  twin.restore(source);
  twin.kernel.spawn("first", marker(twin, {{5_ms, 'X'}}));
  twin.kernel.spawn("second", marker(twin, {{5_ms, 'Y'}}));
  EXPECT_THROW((void)twin.kernel.run(8_ms), vps::support::InvariantError);
}

TEST(KernelRestore, SnapshotNeedsADeltaBoundarySinceConstructionOrRestore) {
  // Before it, a fresh kernel has not reserved its seq and a restored one
  // may still hand it out, so neither image could be restored faithfully.
  Kernel fresh;
  EXPECT_THROW((void)fresh.snapshot(), vps::support::InvariantError);
  (void)fresh.run(1_ms);
  const KernelSnapshot snap = fresh.snapshot();
  Kernel twin;
  twin.restore(snap);
  EXPECT_THROW((void)twin.snapshot(), vps::support::InvariantError);
  (void)twin.run(2_ms);
  EXPECT_NO_THROW((void)twin.snapshot());
}

// ---------------------------------------------------------------------------
// Dynamic waiters
// ---------------------------------------------------------------------------

TEST(KernelWaiters, PeriodicTimerLeavesNoStaleWaiters) {
  // A periodic timer re-arms a wait_with_timeout on its reconfiguration
  // event every period, and that event fires only on a register write.
  // Each wait used to leave its entry behind (10,001 after 100 ms at
  // 10 us), and every snapshot() copied them all; a process's new wait now
  // replaces its stale entry.
  Kernel kernel;
  vps::hw::Timer timer(kernel, "timer");
  const auto write = [&timer](std::uint32_t offset, std::uint32_t value) {
    vps::tlm::GenericPayload p(vps::tlm::Command::kWrite, offset, 4);
    p.set_value_le(value);
    Time delay;
    timer.b_transport(p, delay);
  };
  write(vps::hw::Timer::kPeriodUs, 10);
  write(vps::hw::Timer::kCtrl, 3);  // enabled, periodic
  (void)kernel.run(100_ms);
  EXPECT_GE(timer.expiry_count(), 9'999u);
  const KernelSnapshot s = kernel.snapshot();
  for (std::size_t i = 0; i < s.events.size(); ++i) {
    EXPECT_LE(s.events[i].dynamic_waiters.size(), s.processes.size()) << "event " << i;
  }
}

}  // namespace
