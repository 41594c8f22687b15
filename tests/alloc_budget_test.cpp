// Allocation budget of the simulation hot path. This binary replaces the
// global operator new/delete with counting versions, which is why it is an
// executable of its own. A passing check, a TLM bus access and a simulated
// quantum must not touch the heap: a message composed eagerly on a
// per-event path (ensure(ok, "lit" + name)) or a heap-backed payload shows
// up here as thousands of extra allocations per simulated second, long
// before it shows up as replay time. The same holds for a quantum whose
// polling loop the ISS fast-forwards, with the kernel's sync and wake-ups
// around it, and for a UART frame whose line bits the kernel applies as
// inline timed steps.

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "vps/apps/acc.hpp"
#include "vps/apps/bms.hpp"
#include "vps/apps/caps.hpp"
#include "vps/can/bus.hpp"
#include "vps/ecu/platform.hpp"
#include "vps/hw/memory.hpp"
#include "vps/hw/peripherals.hpp"
#include "vps/hw/uart.hpp"
#include "vps/sim/kernel.hpp"
#include "vps/support/ensure.hpp"
#include "vps/tlm/payload.hpp"
#include "vps/tlm/router.hpp"
#include "vps/tlm/sockets.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n == 0 ? 1 : n);
}

void* counted_aligned_alloc(std::size_t n, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(align);
  return std::aligned_alloc(a, (n + a - 1) / a * a);  // size must be a multiple of a
}

}  // namespace

void* operator new(std::size_t n) {
  if (void* p = counted_alloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) {
  if (void* p = counted_alloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept { return counted_alloc(n); }
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept { return counted_alloc(n); }
void* operator new(std::size_t n, std::align_val_t a) {
  if (void* p = counted_aligned_alloc(n, a)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n, std::align_val_t a) {
  if (void* p = counted_aligned_alloc(n, a)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace {

using namespace vps;
using sim::Time;

/// Heap allocations made while `body` runs.
template <typename Fn>
std::uint64_t allocations_during(Fn&& body) {
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  body();
  return g_allocations.load(std::memory_order_relaxed) - before;
}

TEST(AllocBudget, CounterSeesHeapAllocations) {
  // Guards the guard: a replacement that never ran would pass every case.
  std::vector<std::uint64_t> v;  // outlives the window, so the allocation cannot be elided
  const std::uint64_t n = allocations_during([&] { v.resize(64); });
  EXPECT_GE(n, 1u);
  EXPECT_EQ(v.size(), 64u);
}

TEST(AllocBudget, PassingEnsureWithLiteralAllocatesNothing) {
  volatile bool ok = true;  // keeps the check (and its message) from folding away
  const std::uint64_t n = allocations_during([&] {
    for (int i = 0; i < 100; ++i) {
      support::ensure(ok, "a passing check with a message past the SSO buffer");
    }
  });
  EXPECT_EQ(n, 0u);
}

TEST(AllocBudget, BusAccessesThroughRouterAllocateNothing) {
  sim::Kernel kernel;
  hw::Watchdog watchdog(kernel, "wdt");
  hw::Memory ram("ram", 4096, Time::ns(5));
  tlm::Router bus("bus", Time::ns(2));
  bus.map(0x0, 4096, ram.socket());
  bus.map(0x4000'0000, 0x10, watchdog.socket());
  tlm::InitiatorSocket cpu("cpu.isock");
  cpu.bind(bus.target_socket());

  Time delay = Time::zero();
  std::uint64_t checksum = 0;
  bool all_ok = true;
  const auto round = [&](std::uint32_t i) {
    tlm::GenericPayload w(tlm::Command::kWrite, (i * 4) % 4096, 4);
    w.set_value_le(i);
    cpu.b_transport(w, delay);
    tlm::GenericPayload r(tlm::Command::kRead, (i * 4) % 4096, 4);
    cpu.b_transport(r, delay);
    checksum += r.value_le();
    tlm::GenericPayload kick(tlm::Command::kWrite, 0x4000'0000 + hw::Watchdog::kKick, 4);
    kick.set_value_le(1);
    cpu.b_transport(kick, delay);
    tlm::GenericPayload count(tlm::Command::kRead, 0x4000'0000 + hw::Watchdog::kTimeoutCount, 4);
    cpu.b_transport(count, delay);
    checksum += count.value_le();
    all_ok = all_ok && w.ok() && r.ok() && kick.ok() && count.ok();
  };
  round(0);  // warm-up

  const std::uint64_t n = allocations_during([&] {
    for (std::uint32_t i = 1; i <= 1000; ++i) round(i);
  });
  EXPECT_EQ(n, 0u);
  EXPECT_TRUE(all_ok);
  EXPECT_EQ(checksum, 1000u * 1001u / 2u);  // every read saw its write
}

/// Allocations of the extra `d` in a full (fork-off) golden run: the run at
/// 2d minus the run at d. Construction, the firmware load and first-use
/// statics cancel out; what is left grows with simulated time.
template <typename Scenario, typename Config>
std::uint64_t allocations_per_extra_duration(Config config, Time d) {
  const auto golden_run = [&](Time duration) {
    config.duration = duration;
    Scenario scenario(config);
    scenario.set_snapshot_replay(false);
    bool completed = false;
    const std::uint64_t n =
        allocations_during([&] { completed = scenario.run(nullptr, 2026).completed; });
    EXPECT_TRUE(completed);
    return n;
  };
  (void)golden_run(d);  // warm-up: lazily built statics land here
  const std::uint64_t at_d = golden_run(d);
  const std::uint64_t at_2d = golden_run(d + d);
  EXPECT_GE(at_2d, at_d);
  return at_2d - at_d;
}

TEST(AllocBudget, CapsCrashGoldenRunPerExtraTenMs) {
  // Nothing grows with simulated time: every quantum is free, and the CAN
  // frame encoder, which built three bit vectors per frame to time it (30
  // allocations per 10 ms, ten frames), now counts a frame's wire bits in
  // a fixed buffer.
  apps::CapsConfig config;
  config.crash = true;
  EXPECT_EQ((allocations_per_extra_duration<apps::CapsScenario>(config, Time::ms(10))), 0u);
}

TEST(AllocBudget, FastForwardedPollLoopAllocatesNothing) {
  // The CAPS kick-and-poll loop with no frame arriving: after a warm-up,
  // nearly every 10 us quantum is replayed from the record of an earlier
  // one (DESIGN.md §14). After the watchdog guard's once-a-period wake the
  // next three quanta are interpreted (a few iterations and one
  // fast-forward each) and recorded, a cycle of three records. From the
  // fourth on, the quanta up to the guard's next wake are applied in bulk:
  // one run of inline steps in the kernel and the records' statistics
  // multiplied out. The quantum after such a run is replayed for real: a
  // re-arming kick through b_transport, the aggregated repeats and the
  // quantum keeper's sync, which the kernel queues. A kick only moves the
  // watchdog's deadline. So the 5 ms window is mostly quanta applied in
  // bulk.
  sim::Kernel kernel;
  can::CanBus bus(kernel, "can0", 500000);
  ecu::EcuPlatform ecu(kernel, "ecu");
  ecu.attach_can(bus);
  ecu.load_program(R"(
      li   r1, 0x40005000
      li   r2, 0x40002000
      addi r3, r0, 2000
      sw   r3, 4(r2)
      addi r3, r0, 1
      sw   r3, 0(r2)
    loop:
      sw   r0, 8(r2)
      lw   r5, 20(r1)
      beq  r5, r0, loop
      halt
  )");
  // Warm-up past one watchdog period, so every queue has its capacity.
  kernel.run(Time::ms(3));
  const std::uint64_t ff_before = ecu.cpu().fast_forwarded();
  const std::uint64_t replayed_before = ecu.cpu().replayed_quanta();
  const std::uint64_t bulk_before = ecu.cpu().bulk_quanta();
  const std::uint64_t inline_before = kernel.inline_steps();
  const std::uint64_t n = allocations_during([&] { kernel.run(Time::ms(8)); });
  EXPECT_EQ(n, 0u);
  EXPECT_GT(ecu.cpu().fast_forwarded(), ff_before + 100'000u);  // 5 ms of polling
  EXPECT_GT(ecu.cpu().replayed_quanta(), replayed_before + 400u);  // of 500 quanta
  EXPECT_GT(ecu.cpu().bulk_quanta(), bulk_before + 400u);          // of those
  EXPECT_GT(kernel.inline_steps(), inline_before + 400u);       // of 500 quantum syncs
  EXPECT_EQ(ecu.watchdog().timeout_count(), 0u);
  EXPECT_EQ(ecu.cpu().state(), hw::Cpu::State::kRunning);
}

TEST(AllocBudget, UartFrameShiftedByInlineStepsAllocatesNothing) {
  // A lone UART is the next and only activation at every frame's last bit,
  // so the kernel applies each clean frame's one wait in place: no timed
  // entry, no suspend.
  sim::Kernel kernel;
  hw::Uart uart(kernel, "uart");
  std::uint64_t received = 0;
  uart.set_on_byte([&received](std::uint8_t b) { received += b; });
  std::uint8_t frame[32];
  for (std::uint8_t i = 0; i < 32; ++i) frame[i] = i;
  // Warm-up: the TX FIFO takes its capacity, and so do both sides of the
  // kernel's swapped notification and waiter vectors (two frames).
  for (Time t : {Time::ms(5), Time::ms(10)}) {
    uart.transmit(frame, sizeof frame);
    kernel.run(t);
  }
  ASSERT_TRUE(uart.idle());
  const std::uint64_t inline_before = kernel.inline_steps();
  const std::uint64_t n = allocations_during([&] {
    uart.transmit(frame, sizeof frame);
    kernel.run(Time::ms(15));
  });
  EXPECT_EQ(n, 0u);
  EXPECT_EQ(uart.bytes_delivered(), 96u);
  EXPECT_EQ(received, 3u * (31u * 32u / 2u));
  EXPECT_EQ(kernel.inline_steps() - inline_before, 32u);  // one per byte
}

TEST(AllocBudget, BmsRunawayProvGoldenRunPerExtraTenSeconds) {
  apps::BmsConfig config;
  config.mission = apps::BmsMission::kThermalRunaway;
  config.provenance = true;
  EXPECT_LE((allocations_per_extra_duration<apps::BmsScenario>(config, Time::sec(10))), 3'000u);
}

TEST(AllocBudget, AccGoldenRunPerExtraTenSeconds) {
  EXPECT_LE((allocations_per_extra_duration<apps::AccScenario>(apps::AccConfig{}, Time::sec(10))),
            500u);
}

}  // namespace
