// E3 — kernel synchronization overhead (paper Sec. 3.4: "synchronization
// poses an extreme overhead in SystemC"). Measures the raw cost of the
// primitives every VP simulation is built from: timed waits (context
// switches), delta notifications, signal commits, and event fan-out. Each
// row reports how many waits the kernel applied as inline timed steps.

#include <benchmark/benchmark.h>

#include "vps/sim/fifo.hpp"
#include "vps/sim/kernel.hpp"
#include "vps/sim/signal.hpp"

using namespace vps::sim;

namespace {

/// Attached to the `Observed` rows: an observer must see every delta
/// cycle, time advance and activation, so it turns the kernel's inline
/// timed steps off and every wait takes the timed queue.
struct NopObserver final : KernelObserver {};

void report_inline_steps(benchmark::State& state, const Kernel& kernel) {
  state.counters["inline_steps"] = static_cast<double>(kernel.inline_steps());
}

// Timed-wait throughput: N processes sleeping round-robin. A lone process
// is always the next and only activation, so each of its waits is an
// inline timed step; with N > 1 the processes share every instant and
// each wait is queued. The Observed rows show the queued cost at N = 1.
void timed_waits(benchmark::State& state, bool observed) {
  const auto n_processes = static_cast<std::size_t>(state.range(0));
  NopObserver observer;
  for (auto _ : state) {
    Kernel kernel;
    if (observed) kernel.add_observer(observer);
    for (std::size_t p = 0; p < n_processes; ++p) {
      kernel.spawn("p" + std::to_string(p), []() -> Coro {
        for (int i = 0; i < 1000; ++i) co_await delay(10_ns);
      }());
    }
    kernel.run();
    state.counters["activations"] = static_cast<double>(kernel.stats().activations);
    report_inline_steps(state, kernel);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n_processes) * 1000);
}
void BM_TimedWaits(benchmark::State& state) { timed_waits(state, false); }
void BM_TimedWaitsObserved(benchmark::State& state) { timed_waits(state, true); }
BENCHMARK(BM_TimedWaits)->Arg(1)->Arg(4)->Arg(16)->Arg(64);
BENCHMARK(BM_TimedWaitsObserved)->Arg(1)->Arg(4)->Arg(16)->Arg(64);

// Event ping-pong: two processes notifying each other (delta + timed mix).
void BM_EventPingPong(benchmark::State& state) {
  for (auto _ : state) {
    Kernel kernel;
    Event ping(kernel, "ping"), pong(kernel, "pong");
    kernel.spawn("a", [](Event& ping, Event& pong) -> Coro {
      for (int i = 0; i < 5000; ++i) {
        pong.notify();
        co_await ping;
      }
    }(ping, pong));
    kernel.spawn("b", [](Event& ping, Event& pong) -> Coro {
      for (int i = 0; i < 5000; ++i) {
        co_await pong;
        ping.notify();
      }
    }(ping, pong));
    kernel.run();
    report_inline_steps(state, kernel);
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_EventPingPong);

// Signal commit cost: evaluate/update/delta cycle per write.
void BM_SignalCommits(benchmark::State& state) {
  for (auto _ : state) {
    Kernel kernel;
    Signal<std::uint32_t> sig(kernel, "s", 0);
    kernel.spawn("w", [](Signal<std::uint32_t>& sig) -> Coro {
      for (std::uint32_t i = 1; i <= 20000; ++i) {
        sig.write(i);
        co_await delay(1_ns);
      }
    }(sig));
    kernel.run();
    report_inline_steps(state, kernel);
  }
  state.SetItemsProcessed(state.iterations() * 20000);
}
BENCHMARK(BM_SignalCommits);

// Event fan-out: one notification waking N statically sensitive methods.
void BM_EventFanout(benchmark::State& state) {
  const auto fanout = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    Kernel kernel;
    Event e(kernel, "e");
    std::uint64_t sink = 0;
    for (std::size_t i = 0; i < fanout; ++i) {
      kernel.method("m" + std::to_string(i), [&sink] { ++sink; }, {&e}, false);
    }
    kernel.spawn("notifier", [](Event& e) -> Coro {
      for (int i = 0; i < 1000; ++i) {
        e.notify();
        co_await delay(1_ns);
      }
    }(e));
    kernel.run();
    report_inline_steps(state, kernel);
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * 1000 * static_cast<std::int64_t>(fanout));
}
BENCHMARK(BM_EventFanout)->Arg(1)->Arg(8)->Arg(64);

// FIFO handshake: blocking producer/consumer pair.
void BM_FifoHandshake(benchmark::State& state) {
  for (auto _ : state) {
    Kernel kernel;
    Fifo<int> fifo(kernel, "f", 4);
    kernel.spawn("prod", [](Fifo<int>& f) -> Coro {
      for (int i = 0; i < 5000; ++i) co_await f.push(i);
    }(fifo));
    kernel.spawn("cons", [](Fifo<int>& f) -> Coro {
      int v = 0;
      for (int i = 0; i < 5000; ++i) co_await f.pop(v);
    }(fifo));
    kernel.run();
    report_inline_steps(state, kernel);
  }
  state.SetItemsProcessed(state.iterations() * 5000);
}
BENCHMARK(BM_FifoHandshake);

}  // namespace

BENCHMARK_MAIN();
