// The frame-step UART (hw::Uart) checked against the bit-level UART it
// replaced, kept here as a test-only reference model (BitUart): there the
// shift process made one timed wait per line bit. Both run the same
// traffic and the same line bursts, each on its own kernel, in lock step
// over run(until) segments; after every segment the delivered bytes and
// their instants, the error counters, bits_shifted(), idle() and the
// provenance DAGs must agree. A third leg runs hw::Uart on a kernel with
// an observer attached, so that every wait takes the timed queue: the
// frame-step UART's inline steps and in-place runs must leave its kernel
// and UART images exactly as that queued path does. The two orderings
// DESIGN.md §13 names as residuals pin the stated difference instead.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "kernel_image.hpp"
#include "vps/hw/uart.hpp"
#include "vps/obs/provenance.hpp"
#include "vps/sim/kernel.hpp"
#include "vps/sim/module.hpp"

namespace {

using namespace vps;
using sim::Time;
using vps_test::kernel_fields;
using vps_test::stats_fields;
using vps_test::uart_fields;

/// The bit-level UART, as hw::Uart was before a clean frame took one step.
class BitUart final : public sim::Module {
 public:
  BitUart(sim::Kernel& kernel, std::string name, hw::UartConfig config = {})
      : Module(kernel, std::move(name)),
        config_(config),
        bit_time_(Time::ps((1'000'000'000'000ULL + config.baud / 2) / config.baud)),
        tx_enqueued_(kernel, this->name() + ".tx_enqueued") {
    spawn("shift", shift_loop());
  }

  void transmit(const std::uint8_t* data, std::size_t n) {
    state_.tx_fifo.insert(state_.tx_fifo.end(), data, data + n);
    tx_enqueued_.notify();
  }
  void set_on_byte(std::function<void(std::uint8_t)> on_byte) { on_byte_ = std::move(on_byte); }
  void corrupt_bits(std::uint32_t count, std::uint64_t poison_id = 0) {
    state_.corrupt_remaining += count;
    state_.corrupt_poison = poison_id;
    state_.corrupt_touched = false;
  }
  void set_provenance(obs::ProvenanceTracker* tracker) noexcept { provenance_ = tracker; }

  [[nodiscard]] Time bit_time() const noexcept { return bit_time_; }
  [[nodiscard]] bool idle() const noexcept { return !state_.shifting && state_.tx_fifo.empty(); }
  [[nodiscard]] std::uint64_t bytes_delivered() const noexcept { return state_.bytes_delivered; }
  [[nodiscard]] std::uint64_t bits_shifted() const noexcept { return state_.bits_shifted; }
  [[nodiscard]] std::uint64_t parity_errors() const noexcept { return state_.parity_errors; }
  [[nodiscard]] std::uint64_t framing_errors() const noexcept { return state_.framing_errors; }
  [[nodiscard]] std::uint64_t frames_corrupted() const noexcept { return state_.frames_corrupted; }

 private:
  [[nodiscard]] std::uint32_t frame_bits() const noexcept { return config_.parity ? 11 : 10; }

  [[nodiscard]] sim::Coro shift_loop() {
    for (;;) {
      if (state_.bit_pending) {
        state_.bit_pending = false;
        shift_bit();
      }
      if (state_.shifting) {
        state_.bit_pending = true;
        co_await sim::delay(bit_time_);
        continue;
      }
      if (!state_.tx_fifo.empty()) {
        load_frame();
        continue;
      }
      co_await tx_enqueued_;
    }
  }

  void load_frame() {
    const std::uint16_t data = state_.tx_fifo.front();
    state_.tx_fifo.erase(state_.tx_fifo.begin());
    std::uint16_t frame = static_cast<std::uint16_t>(data << 1);
    if (config_.parity) {
      std::uint16_t p = 0;
      for (int i = 0; i < 8; ++i) p ^= (data >> i) & 1u;
      frame |= static_cast<std::uint16_t>(p << 9 | 1u << 10);
    } else {
      frame |= 1u << 9;
    }
    state_.tx_frame = frame;
    state_.rx_frame = 0;
    state_.bit_index = 0;
    state_.shifting = true;
  }

  void shift_bit() {
    std::uint16_t bit = (state_.tx_frame >> state_.bit_index) & 1u;
    if (state_.corrupt_remaining > 0) {
      --state_.corrupt_remaining;
      bit ^= 1u;
      state_.frame_corrupted = true;
      if (provenance_ != nullptr && state_.corrupt_poison != 0 && !state_.corrupt_touched) {
        state_.corrupt_touched = true;
        provenance_->touch(state_.corrupt_poison, "uart:" + name());
      }
    }
    state_.rx_frame |= static_cast<std::uint16_t>(bit << state_.bit_index);
    ++state_.bit_index;
    ++state_.bits_shifted;
    if (state_.bit_index == frame_bits()) {
      state_.shifting = false;
      finish_frame();
    }
  }

  void finish_frame() {
    const bool was_corrupted = state_.frame_corrupted;
    state_.frame_corrupted = false;
    if (was_corrupted) ++state_.frames_corrupted;
    const bool start = (state_.rx_frame & 1u) != 0;
    const bool stop = ((state_.rx_frame >> (frame_bits() - 1)) & 1u) != 0;
    const auto data = static_cast<std::uint8_t>((state_.rx_frame >> 1) & 0xFFu);
    if (start || !stop) {
      ++state_.framing_errors;
      if (provenance_ != nullptr && was_corrupted && state_.corrupt_poison != 0) {
        provenance_->detect(state_.corrupt_poison, "uart.framing:" + name());
      }
      return;
    }
    if (config_.parity) {
      std::uint16_t p = (state_.rx_frame >> 9) & 1u;
      for (int i = 0; i < 8; ++i) p ^= (data >> i) & 1u;
      if (p != 0) {
        ++state_.parity_errors;
        if (provenance_ != nullptr && was_corrupted && state_.corrupt_poison != 0) {
          provenance_->detect(state_.corrupt_poison, "uart.parity:" + name());
        }
        return;
      }
    }
    ++state_.bytes_delivered;
    if (on_byte_) on_byte_(data);
  }

  struct State {
    std::vector<std::uint8_t> tx_fifo;
    bool shifting = false;
    bool bit_pending = false;
    std::uint32_t bit_index = 0;
    std::uint16_t tx_frame = 0;
    std::uint16_t rx_frame = 0;
    bool frame_corrupted = false;
    std::uint32_t corrupt_remaining = 0;
    std::uint64_t corrupt_poison = 0;
    bool corrupt_touched = false;
    std::uint64_t bytes_delivered = 0;
    std::uint64_t bits_shifted = 0;
    std::uint64_t parity_errors = 0;
    std::uint64_t framing_errors = 0;
    std::uint64_t frames_corrupted = 0;
  };

  hw::UartConfig config_;
  Time bit_time_;
  sim::Event tx_enqueued_;
  std::function<void(std::uint8_t)> on_byte_;
  obs::ProvenanceTracker* provenance_ = nullptr;
  State state_;
};

const Time kBit = Time::ps((1'000'000'000'000ULL + 115200 / 2) / 115200);
const Time kFrame = kBit * 11;

/// Bit `i` of frame `f` (frames back to back from 0) shifts at this instant.
Time bit_at(std::uint64_t f, std::uint64_t i) { return kFrame * f + kBit * (i + 1); }

using Log = std::vector<std::pair<std::uint64_t, std::string>>;  // (ps, what)

/// A kernel, a UART of type U with a provenance tracker, and the log of
/// delivered bytes and probe marks.
template <typename U>
struct Rig {
  sim::Kernel kernel;
  U uart;
  sim::Event ev{kernel, "ev"};
  obs::ProvenanceTracker tracker{kernel};
  Log log;

  explicit Rig(hw::UartConfig config = {}) : uart(kernel, "uart", config) {
    uart.set_on_byte([this](std::uint8_t b) { mark("byte " + std::to_string(b)); });
    uart.set_provenance(&tracker);
  }

  void mark(std::string what) { log.emplace_back(kernel.now().picoseconds(), std::move(what)); }

  void send(std::uint8_t first, std::size_t n) {
    std::vector<std::uint8_t> bytes(n);
    for (std::size_t i = 0; i < n; ++i) bytes[i] = static_cast<std::uint8_t>(first + 37 * i);
    uart.transmit(bytes.data(), n);
  }

  /// A line burst of `count` bits; a non-zero `id` attributes it.
  void burst(std::uint32_t count, std::uint64_t id = 0) {
    if (id != 0) tracker.begin_fault(id, "burst#" + std::to_string(id), "inject:line");
    uart.corrupt_bits(count, id);
  }

  /// A process that makes its wait `wait` now and then bursts.
  void burst_after(Time wait, std::uint32_t count, std::uint64_t id = 0) {
    kernel.spawn("burst", [](Rig& r, Time wait, std::uint32_t n, std::uint64_t id) -> sim::Coro {
      co_await sim::delay(wait);
      r.burst(n, id);
    }(*this, wait, count, id));
  }

  /// A process that makes its wait `wait` now and then marks `what`.
  void probe_after(Time wait, std::string what) {
    kernel.spawn(what, [](Rig& r, Time wait, std::string what) -> sim::Coro {
      co_await sim::delay(wait);
      r.mark(std::move(what));
    }(*this, wait, what));
  }

  /// A process that marks `what` each time `ev` fires.
  void listen(std::string what) {
    kernel.spawn(what, [](Rig& r, std::string what) -> sim::Coro {
      for (;;) {
        co_await r.ev;
        r.mark(what);
      }
    }(*this, what));
  }

  /// Makes the k-th delivered byte (from 1) run `act(*this)` from the
  /// delivery callback, after it is logged.
  template <typename Act>
  void at_byte(std::uint64_t k, Act act) {
    uart.set_on_byte([this, k, act, n = std::uint64_t{0}](std::uint8_t b) mutable {
      mark("byte " + std::to_string(b));
      if (++n == k) act(*this);
    });
  }
};

struct NopObserver final : sim::KernelObserver {};

/// The bit-level reference and the frame-step UART fed the same traffic,
/// the latter also on a kernel whose observer queues every wait.
struct Lockstep {
  NopObserver observer;
  Rig<BitUart> ref;
  Rig<hw::Uart> dut;
  Rig<hw::Uart> queued;

  explicit Lockstep(hw::UartConfig config = {}) : ref(config), dut(config), queued(config) {
    queued.kernel.add_observer(observer);
  }

  template <typename F>
  void all(F f) {
    f(ref);
    f(dut);
    f(queued);
  }

  /// Runs all three to `t` and compares; false at the first divergence.
  bool step(Time t) {
    (void)ref.kernel.run(t);
    (void)dut.kernel.run(t);
    (void)queued.kernel.run(t);
    return same("at " + t.to_string());
  }

  /// Steps all three to `end` in half bit times from now, so that every
  /// segment ends on a bit instant or halfway between two.
  bool run(Time end) {
    for (Time t = next_half_bit(); t <= end; t += dut.uart.bit_time() / 2) {
      if (!step(t)) return false;
    }
    return true;
  }

  [[nodiscard]] Time next_half_bit() const {
    const Time half = dut.uart.bit_time() / 2;
    return half * (dut.kernel.now() / half + 1);
  }

  bool same(const std::string& where) {
    const hw::Uart& d = dut.uart;
    const BitUart& r = ref.uart;
    EXPECT_EQ(ref.log, dut.log) << where;
    EXPECT_EQ(r.bytes_delivered(), d.bytes_delivered()) << where;
    EXPECT_EQ(r.parity_errors(), d.parity_errors()) << where;
    EXPECT_EQ(r.framing_errors(), d.framing_errors()) << where;
    EXPECT_EQ(r.frames_corrupted(), d.frames_corrupted()) << where;
    EXPECT_EQ(r.bits_shifted(), d.bits_shifted()) << where;
    EXPECT_EQ(r.idle(), d.idle()) << where;
    EXPECT_EQ(ref.tracker.to_jsonl(), dut.tracker.to_jsonl()) << where;
    EXPECT_EQ(queued.log, dut.log) << where;
    EXPECT_EQ(queued.tracker.to_jsonl(), dut.tracker.to_jsonl()) << where;
    return ref.log == dut.log && r.bytes_delivered() == d.bytes_delivered() &&
           r.parity_errors() == d.parity_errors() && r.framing_errors() == d.framing_errors() &&
           r.frames_corrupted() == d.frames_corrupted() && r.bits_shifted() == d.bits_shifted() &&
           r.idle() == d.idle() && ref.tracker.to_jsonl() == dut.tracker.to_jsonl() &&
           queued.log == dut.log && queued.tracker.to_jsonl() == dut.tracker.to_jsonl() &&
           vps_test::same(kernel_fields(dut.kernel), kernel_fields(queued.kernel), where) &&
           vps_test::same(uart_fields(dut.uart), uart_fields(queued.uart), where);
  }
};

std::uint64_t errors(const hw::Uart& u) { return u.parity_errors() + u.framing_errors(); }

// --- clean traffic -------------------------------------------------------------------

TEST(UartFrame, CleanBurstsMatchBitLevelInOneTimedStepPerByte) {
  Lockstep ls;
  ls.all([](auto& r) { r.send(3, 24); });
  ASSERT_TRUE(ls.run(kFrame * 30));
  ls.all([](auto& r) { r.send(200, 9); });  // a second burst onto an idle line
  ASSERT_TRUE(ls.run(kFrame * 45));
  EXPECT_EQ(ls.dut.uart.bytes_delivered(), 33u);
  EXPECT_TRUE(ls.dut.uart.idle());
  // The UART is the kernel's only timed activity: a timed step per byte,
  // where the bit-level UART took one per line bit.
  EXPECT_EQ(ls.dut.kernel.stats().timed_steps, 33u);
  EXPECT_EQ(ls.ref.kernel.stats().timed_steps, 33u * 11u);
}

TEST(UartFrame, UnalignedSegmentsReadTheBitsDueByTheirEnd) {
  Lockstep ls;
  ls.all([](auto& r) { r.send(0x55, 6); });
  for (Time t = Time::ns(1'300); t <= kFrame * 7; t += Time::ns(1'300)) {
    ASSERT_TRUE(ls.step(t));
  }
}

TEST(UartFrame, TenBitFramesAtAnotherBaudMatchBitLevel) {
  // No parity bit: ten-bit frames. 9,600 baud: a bit time of 104,166,667
  // ps, odd, so the segment next to bit n ends n ps before it.
  const hw::UartConfig config{.baud = 9600, .parity = false};
  Lockstep ls(config);
  const Time bit = ls.dut.uart.bit_time();
  ls.all([&](auto& r) {
    r.send(0x3A, 6);
    r.burst_after(bit * 14, 3, 51);             // frame 1's bits 3..5
    r.burst_after(bit * 39 + bit / 3, 12, 52);  // frame 3's bit 9 to frame 5's bit 0
  });
  ASSERT_TRUE(ls.run(bit * 15 + bit / 2));
  ls.all([](auto& r) { r.burst(2, 53); });  // mid-burst: bits 6 and 7 as well
  ASSERT_TRUE(ls.run(bit * 70));
  EXPECT_EQ(ls.dut.uart.bytes_delivered() + ls.dut.uart.framing_errors(), 6u);
  EXPECT_GE(ls.dut.uart.frames_corrupted(), 3u);
  EXPECT_EQ(ls.dut.uart.parity_errors(), 0u);
}

// --- bursts between bits and on an idle line ----------------------------------------------

TEST(UartFrame, BurstOnAnIdleLineShiftsTheNextFrameBitByBit) {
  Lockstep ls;
  ls.all([](auto& r) {
    r.burst(3, 1);  // idle: the next frame's start bit and data bits 0, 1
    r.send(0x5A, 2);
  });
  ASSERT_TRUE(ls.run(kFrame * 3));
  EXPECT_EQ(ls.dut.uart.framing_errors(), 1u);
  // Three corrupted bits, then one wait for the clean rest, then the
  // clean second frame.
  EXPECT_EQ(ls.dut.kernel.stats().timed_steps, 3u + 1u + 1u);
}

TEST(UartFrame, BurstMidFrameBetweenBitsFromOutsideAProcess) {
  for (std::uint64_t bit = 0; bit < 11; ++bit) {
    for (std::uint32_t count : {1u, 2u, 4u}) {
      Lockstep ls;
      ls.all([](auto& r) { r.send(0xA5, 3); });
      ASSERT_TRUE(ls.run(kFrame));  // frame 1 starts at kFrame
      ASSERT_TRUE(ls.step(bit_at(1, bit) - kBit / 2)) << "bit " << bit;
      ls.all([&](auto& r) { r.burst(count, 7); });
      ASSERT_TRUE(ls.run(kFrame * 4)) << "bit " << bit << " count " << count;
      EXPECT_EQ(ls.dut.uart.frames_corrupted(), bit + count > 11 ? 2u : 1u)
          << "bit " << bit << " count " << count;
    }
  }
}

TEST(UartFrame, BurstMidFrameBetweenBitsFromAProcess) {
  for (std::uint64_t bit = 0; bit < 11; ++bit) {
    Lockstep ls;
    ls.all([&](auto& r) {
      r.send(0x0F, 3);
      r.burst_after(bit_at(1, bit) - kBit / 3, 2, 9);
    });
    ASSERT_TRUE(ls.run(kFrame * 4)) << "bit " << bit;
    EXPECT_EQ(ls.dut.uart.frames_corrupted(), bit == 10 ? 2u : 1u) << "bit " << bit;
  }
}

// --- bursts at exactly a bit instant -------------------------------------------------------

TEST(UartFrame, BurstAtABitInstantFromAProcessQueuedAtElaborationTakesThatBit) {
  // The injector's entry, made at elaboration, sorts before the bit's,
  // made a bit time earlier: the burst takes that bit on both sides.
  for (std::uint64_t bit = 0; bit < 11; ++bit) {
    Lockstep ls;
    ls.all([&](auto& r) {
      r.burst_after(bit_at(1, bit), 2, 3);
      r.send(0xC3, 3);
    });
    ASSERT_TRUE(ls.run(kFrame * 4)) << "bit " << bit;
    EXPECT_GE(ls.dut.uart.frames_corrupted(), 1u);
  }
}

TEST(UartFrame, BurstAtARunEndInstantFromOutsideAProcessTakesTheNextBit) {
  // run(until) executes the entries due at `until`: the bit due then has
  // shifted on both sides, so the burst starts with the next one.
  for (std::uint64_t bit = 0; bit < 11; ++bit) {
    for (std::uint32_t count : {1u, 3u}) {
      Lockstep ls;
      ls.all([](auto& r) { r.send(0x96, 3); });
      ASSERT_TRUE(ls.step(bit_at(1, bit))) << "bit " << bit;
      ls.all([&](auto& r) { r.burst(count, 5); });
      ASSERT_TRUE(ls.run(kFrame * 4)) << "bit " << bit << " count " << count;
    }
  }
}

// --- bursts across and within frames ------------------------------------------------------

TEST(UartFrame, BurstSpanningTwoFrames) {
  Lockstep ls;
  ls.all([](auto& r) {
    r.send(0x3C, 4);
    r.burst_after(bit_at(1, 7) - kBit / 4, 9, 11);  // bits 7..10 and the next frame's 0..4
  });
  ASSERT_TRUE(ls.run(kFrame * 5));
  EXPECT_EQ(ls.dut.uart.frames_corrupted(), 2u);
}

TEST(UartFrame, TwoBurstsInOneFrame) {
  Lockstep ls;
  ls.all([](auto& r) {
    r.send(0x81, 3);
    r.burst_after(bit_at(1, 1) - kBit / 2, 2, 21);  // bits 1, 2
    r.burst_after(bit_at(1, 6) - kBit / 2, 1, 22);  // bit 6, after the clean bits 3..5
  });
  ASSERT_TRUE(ls.run(kFrame * 4));
  EXPECT_EQ(ls.dut.uart.frames_corrupted(), 1u);
  EXPECT_EQ(ls.dut.tracker.faults().size(), 2u);
}

TEST(UartFrame, BurstEndingMidFrameLeavesOneWaitForTheRest) {
  Lockstep ls;
  ls.all([](auto& r) { r.send(0x24, 1); });
  ASSERT_TRUE(ls.step(bit_at(0, 2) - kBit / 2));
  ls.all([](auto& r) { r.burst(2, 31); });  // bits 2 and 3
  ASSERT_TRUE(ls.run(kFrame * 2));
  // The wake at bit 2, a wait for bit 3, then one wait for bits 4..10.
  EXPECT_EQ(ls.dut.kernel.stats().timed_steps, 3u);
  EXPECT_EQ(ls.ref.kernel.stats().timed_steps, 11u);
  EXPECT_EQ(errors(ls.dut.uart), 0u);  // data bits 1 and 2: parity is blind to pairs
  EXPECT_EQ(ls.dut.uart.bytes_delivered(), 1u);
}

// --- snapshot and restore ------------------------------------------------------------------

TEST(UartFrame, SnapshotMidFrameAndMidBurstRestoresOntoATwin) {
  // Cuts: mid clean frame; right after a burst from outside a process,
  // with its wake pending; mid-burst, between two corrupted bits. A burst
  // from a process spawned right after restore(), at a bit instant, must
  // order like one spawned last at elaboration of the uncut run.
  const Time half = kBit / 2;
  const Time burst_at = bit_at(2, 3) - half;  // frame 2's bits 3..5
  const Time late_at = bit_at(4, 6);          // frame 4's bits 6 and 7
  for (const Time cut : {bit_at(1, 4) - kBit / 3, burst_at, bit_at(2, 4) + kBit / 3}) {
    const std::string from = "twin from " + cut.to_string();
    Rig<hw::Uart> origin;
    Rig<BitUart> ref;
    origin.send(0x71, 6);
    ref.send(0x71, 6);
    ref.burst_after(late_at, 2);  // last at elaboration
    if (cut >= burst_at) {
      (void)origin.kernel.run(burst_at);
      (void)ref.kernel.run(burst_at);
      origin.burst(3);
      ref.burst(3);
    }
    if (cut > origin.kernel.now()) {
      (void)origin.kernel.run(cut);
      (void)ref.kernel.run(cut);
    }
    const sim::KernelSnapshot kernel_image = origin.kernel.snapshot();
    const hw::Uart::Snapshot uart_image = origin.uart.snapshot();

    Rig<hw::Uart> twin;
    twin.kernel.restore(kernel_image);
    twin.uart.restore(uart_image);
    twin.log = origin.log;
    twin.burst_after(late_at - cut, 2);  // a forked injection's slot

    for (Time t = half * (cut / half + 1); t <= kFrame * 7; t += half) {
      (void)ref.kernel.run(t);
      (void)twin.kernel.run(t);
      if (t == burst_at) {
        ref.burst(3);
        twin.burst(3);
      }
      const std::string where = from + " at " + t.to_string();
      ASSERT_EQ(ref.log, twin.log) << where;
      ASSERT_EQ(ref.uart.bits_shifted(), twin.uart.bits_shifted()) << where;
      ASSERT_EQ(ref.uart.idle(), twin.uart.idle()) << where;
    }
    EXPECT_EQ(twin.uart.frames_corrupted(), 2u) << from;
    EXPECT_EQ(twin.uart.parity_errors(), ref.uart.parity_errors()) << from;
    EXPECT_EQ(twin.uart.framing_errors(), ref.uart.framing_errors()) << from;
    EXPECT_EQ(twin.uart.bytes_delivered(), 5u) << from;
  }
}

TEST(UartFrame, BurstFromOutsideAProcessRightAfterRestoreLeavesTheReservedSeq) {
  // A burst between restore() and the next run(), during a clean frame,
  // wakes the shift process through a timed entry. That entry must leave
  // the seq restore() reserves to the process spawned next (a forked
  // injection), which must neither throw at its first wait nor order
  // otherwise than one spawned last at elaboration of the uncut run.
  const Time half = kBit / 2;
  const Time cut = bit_at(1, 4) - kBit / 3;  // mid clean frame
  const Time probe_at = bit_at(3, 10);       // frame 3's last bit: its delivery
  Rig<hw::Uart> origin;
  Rig<BitUart> ref;
  origin.send(0x71, 6);
  ref.send(0x71, 6);
  ref.probe_after(probe_at, "probe");  // last at elaboration
  (void)origin.kernel.run(cut);
  (void)ref.kernel.run(cut);

  Rig<hw::Uart> twin;
  twin.kernel.restore(origin.kernel.snapshot());
  twin.uart.restore(origin.uart.snapshot());
  twin.log = origin.log;
  ref.burst(2);
  twin.burst(2);
  twin.probe_after(probe_at - cut, "probe");  // a forked injection's slot

  for (Time t = half * (cut / half + 1); t <= kFrame * 7; t += half) {
    (void)ref.kernel.run(t);
    ASSERT_NO_THROW((void)twin.kernel.run(t)) << t.to_string();
    ASSERT_EQ(ref.log, twin.log) << t.to_string();
    ASSERT_EQ(ref.uart.bits_shifted(), twin.uart.bits_shifted()) << t.to_string();
    ASSERT_EQ(ref.uart.idle(), twin.uart.idle()) << t.to_string();
  }
  EXPECT_EQ(twin.uart.frames_corrupted(), 1u);
  EXPECT_EQ(twin.uart.bytes_delivered(), ref.uart.bytes_delivered());
  EXPECT_NE(std::find(twin.log.begin(), twin.log.end(),
                      std::pair<std::uint64_t, std::string>{probe_at.picoseconds(), "probe"}),
            twin.log.end());
}

// --- the two residuals (DESIGN.md §13) ------------------------------------------------------

/// A frame sent at kSendAt delivers at its last bit, kSendAt + kFrame; a
/// probe made at `made_at` is due then too.
const Time kSendAt = kBit * 3;

template <typename R>
void probe_at_frame_end(R& r, Time made_at) {
  r.kernel.spawn("sender", [](R& r) -> sim::Coro {
    co_await sim::delay(kSendAt);
    r.send(0x42, 1);
  }(r));
  r.kernel.spawn("maker", [](R& r, Time made_at) -> sim::Coro {
    co_await sim::delay(made_at);
    r.probe_after(kSendAt + kFrame - made_at, "probe");
  }(r, made_at));
}

/// The delivery of byte 0x42 and the probe, in the given order.
Log delivery_and_probe(bool probe_first) {
  const std::uint64_t t = (kSendAt + kFrame).picoseconds();
  const std::pair<std::uint64_t, std::string> probe{t, "probe"}, byte{t, "byte 66"};
  return probe_first ? Log{probe, byte} : Log{byte, probe};
}

TEST(UartFrame, EntryDueAtTheLastBitMadeBeforeTheFrameRunsFirstOnBothSides) {
  Lockstep ls;
  ls.all([](auto& r) { probe_at_frame_end(r, kSendAt - kBit / 2); });
  ASSERT_TRUE(ls.run(kSendAt + kFrame * 2));
  EXPECT_EQ(ls.dut.log, delivery_and_probe(/*probe_first=*/true));
}

TEST(UartFrame, EntryDueAtTheLastBitMadeAfterTheLastButOneBitRunsAfterOnBothSides) {
  Lockstep ls;
  ls.all([](auto& r) { probe_at_frame_end(r, kSendAt + kBit * 10 + kBit / 2); });
  ASSERT_TRUE(ls.run(kSendAt + kFrame * 2));
  EXPECT_EQ(ls.dut.log, delivery_and_probe(/*probe_first=*/false));
}

TEST(UartFrame, EntryDueAtTheLastBitMadeMidFrameIsTheDeliveryResidual) {
  // Residual 1: the delivery's entry is made at the frame's start, the
  // bit-level UART's last-bit entry at its last-but-one bit. An entry made
  // in between, due at the last bit, now runs after the delivery.
  for (const Time made_at :
       {kSendAt + kBit / 2, kSendAt + kBit * 5, kSendAt + kBit * 9 + kBit / 2}) {
    Rig<BitUart> ref;
    Rig<hw::Uart> dut;
    probe_at_frame_end(ref, made_at);
    probe_at_frame_end(dut, made_at);
    (void)ref.kernel.run(kSendAt + kFrame * 2);
    (void)dut.kernel.run(kSendAt + kFrame * 2);
    EXPECT_EQ(ref.log, delivery_and_probe(/*probe_first=*/true)) << made_at.to_string();
    EXPECT_EQ(dut.log, delivery_and_probe(/*probe_first=*/false)) << made_at.to_string();
  }
}

TEST(UartFrame, BurstAtABitInstantFromAWaitMadeWithinTheLastBitIsTheCatchUpResidual) {
  // Residual 2: the burst's wait is made after the bit-level UART's entry
  // for frame bit 5, so there that bit has shifted and the burst takes
  // bits 6 and 7 (data bits 5, 6); the frame-step UART has no entry at
  // bit 5 and the burst takes bits 5 and 6 (data bits 4, 5). Both pairs
  // pass parity.
  const auto script = [](auto& r) {
    r.send(0x00, 1);
    r.kernel.spawn("late", [](auto& r) -> sim::Coro {
      co_await sim::delay(bit_at(0, 4) + kBit / 2);
      r.burst_after(kBit / 2, 2, 41);
    }(r));
  };
  Rig<BitUart> ref;
  Rig<hw::Uart> dut;
  script(ref);
  script(dut);
  (void)ref.kernel.run(kFrame * 2);
  (void)dut.kernel.run(kFrame * 2);
  const std::uint64_t end = kFrame.picoseconds();
  EXPECT_EQ(ref.log, (Log{{end, "byte " + std::to_string(0x60)}}));
  EXPECT_EQ(dut.log, (Log{{end, "byte " + std::to_string(0x30)}}));
  // The corrupted bits' first contact differs by one bit time.
  ASSERT_EQ(dut.tracker.faults().size(), 1u);
  EXPECT_EQ(dut.tracker.faults()[0].nodes.back().at, bit_at(0, 5));
  EXPECT_EQ(ref.tracker.faults()[0].nodes.back().at, bit_at(0, 6));
}

// --- in-place runs (DESIGN.md §13) ----------------------------------------------------------
//
// A clean frame that lands lands the clean frames queued behind it in the
// same activation, while each one's wait would be an inline step. A wait
// must end within the run(until), so these cases step in frames, not in
// half bits.

TEST(UartFrame, FourQueuedFramesLandInPlaceBehindTheFirst) {
  Lockstep ls;
  ls.all([](auto& r) { r.send(0x11, 4); });
  ASSERT_TRUE(ls.step(kFrame * 5));
  EXPECT_EQ(ls.dut.uart.bytes_delivered(), 4u);
  // The first frame's wait is made in the first evaluate phase, which
  // queues it; its landing lands the other three in one activation.
  EXPECT_EQ(ls.dut.uart.bytes_in_place(), 3u);
  EXPECT_EQ(ls.dut.kernel.inline_steps(), 3u);
  EXPECT_EQ(ls.dut.kernel.stats().timed_steps, 4u);
  EXPECT_EQ(ls.queued.uart.bytes_in_place(), 0u);
}

TEST(UartFrame, ProbeDueAtAMidBurstByteEndOrInsideAByteStopsTheRunBeforeIt) {
  // Probes made at elaboration, due at byte 2's end or inside byte 2: the
  // bit-level UART runs the probe first, as its entry is the older. The
  // run stops at byte 2's wait, which is queued behind the probe, and byte
  // 2's landing starts the next run. A probe at byte 2's end ends in the
  // same evaluate phase and notifies its terminated event, so byte 3's
  // wait is queued too.
  const std::pair<Time, std::uint64_t> cases[] = {
      {kFrame * 3, 3},             // bytes 1, 4 and 5 in place
      {kFrame * 2 + kBit * 5, 4},  // bytes 1, 3, 4 and 5
  };
  for (const auto& [at, in_place] : cases) {
    Lockstep ls;
    ls.all([&](auto& r) {
      r.send(0x5C, 6);
      r.probe_after(at, "probe");
    });
    ASSERT_TRUE(ls.step(kFrame * 7)) << at.to_string();
    EXPECT_EQ(ls.dut.uart.bytes_delivered(), 6u) << at.to_string();
    EXPECT_EQ(ls.dut.uart.bytes_in_place(), in_place) << at.to_string();
  }
}

TEST(UartFrame, OnByteThatTransmitsCorruptsOrNotifiesInsideARunMatches) {
  // The delivery callback runs inside a run: whatever it does that the
  // next wait could see ends the run there, as the queued path would.
  for (const std::uint64_t k : {1u, 2u, 3u, 5u}) {
    const std::string at = "at byte " + std::to_string(k);
    {
      Lockstep ls;
      ls.all([&](auto& r) {
        r.send(0x21, 6);
        r.at_byte(k, [](auto& r) { r.send(0xE0, 2); });
      });
      ASSERT_TRUE(ls.step(kFrame * 4)) << "transmit " << at;
      ASSERT_TRUE(ls.step(kFrame * 10)) << "transmit " << at;
      EXPECT_EQ(ls.dut.uart.bytes_delivered(), 8u) << at;
    }
    {
      Lockstep ls;
      ls.all([&](auto& r) {
        r.send(0x21, 6);
        r.at_byte(k, [](auto& r) { r.burst(3, 61); });  // the next frame's bits 0..2
      });
      ASSERT_TRUE(ls.step(kFrame * 8)) << "corrupt_bits " << at;
      EXPECT_EQ(ls.dut.uart.frames_corrupted(), 1u) << at;
      EXPECT_EQ(ls.dut.uart.framing_errors(), 1u) << at;
    }
    {
      Lockstep ls;
      ls.all([&](auto& r) {
        r.send(0x21, 6);
        r.listen("heard");
        r.at_byte(k, [](auto& r) { r.ev.notify(); });
      });
      ASSERT_TRUE(ls.step(kFrame * 8)) << "notify " << at;
      const std::pair<std::uint64_t, std::string> heard{(kFrame * k).picoseconds(), "heard"};
      EXPECT_NE(std::find(ls.dut.log.begin(), ls.dut.log.end(), heard), ls.dut.log.end()) << at;
    }
  }
}

TEST(UartFrame, RunEndingAtAByteEndOrMidByteRestoresOntoATwinMidBurst) {
  // A run(until) ending at a byte end lands that byte in place and queues
  // the next wait; one ending mid-byte queues that byte's wait. Restored
  // onto a fresh twin, either image goes on like the bit-level UART, and
  // like the origin in every kernel and UART field.
  for (const Time cut : {kFrame * 3, kFrame * 3 + kBit * 4 + kBit / 3}) {
    const std::string from = "twin from " + cut.to_string();
    Rig<BitUart> ref;
    Rig<hw::Uart> origin;
    ref.send(0x47, 9);
    origin.send(0x47, 9);
    (void)ref.kernel.run(cut);
    (void)origin.kernel.run(cut);
    EXPECT_EQ(origin.uart.bytes_in_place(), 2u) << from;  // bytes 1 and 2

    Rig<hw::Uart> twin;
    twin.kernel.restore(origin.kernel.snapshot());
    twin.uart.restore(origin.uart.snapshot());
    twin.log = origin.log;
    for (const Time t : {cut + kFrame, kFrame * 8 + kBit * 2, kFrame * 11}) {
      (void)ref.kernel.run(t);
      (void)origin.kernel.run(t);
      (void)twin.kernel.run(t);
      const std::string where = from + " at " + t.to_string();
      ASSERT_EQ(ref.log, twin.log) << where;
      ASSERT_EQ(ref.uart.bits_shifted(), twin.uart.bits_shifted()) << where;
      ASSERT_EQ(ref.uart.idle(), twin.uart.idle()) << where;
      ASSERT_EQ(origin.log, twin.log) << where;
      ASSERT_TRUE(vps_test::same(kernel_fields(twin.kernel), kernel_fields(origin.kernel), where));
      ASSERT_TRUE(vps_test::same(uart_fields(twin.uart), uart_fields(origin.uart), where));
    }
    EXPECT_EQ(twin.uart.bytes_delivered(), 9u) << from;
    // Bytes 5..7: the twin's first activation, before its first delta
    // boundary, lands byte 3 alone, and the segment end queues byte 8.
    EXPECT_EQ(twin.uart.bytes_in_place(), 3u) << from;
  }
}

TEST(UartFrame, BudgetTripsInsideAnInPlaceRunLikeTheQueuedPath) {
  // Budgeted run(until) calls, each stopping on its budget inside a run of
  // frames landed in place: the trip's reason and instant, the counters,
  // the delivered bytes and the UART image equal the queued path's.
  sim::RunBudget activations;
  activations.max_activations = 7;
  sim::RunBudget deltas;
  deltas.max_delta_cycles = 9;
  for (const sim::RunBudget& budget : {activations, deltas}) {
    NopObserver observer;
    Rig<hw::Uart> fast;
    Rig<hw::Uart> queued;
    queued.kernel.add_observer(observer);
    fast.send(0x33, 60);
    queued.send(0x33, 60);
    int trips = 0;
    for (int i = 0; i < 100; ++i) {
      const sim::RunStatus a = fast.kernel.run(kFrame * 61, budget);
      const sim::RunStatus b = queued.kernel.run(kFrame * 61, budget);
      const std::string where = "run " + std::to_string(i);
      ASSERT_EQ(a.reason, b.reason) << where;
      ASSERT_EQ(a.time, b.time) << where;
      ASSERT_EQ(fast.log, queued.log) << where;
      ASSERT_TRUE(vps_test::same(stats_fields(fast.kernel), stats_fields(queued.kernel), where));
      ASSERT_TRUE(vps_test::same(uart_fields(fast.uart), uart_fields(queued.uart), where));
      if (!a.budget_exhausted()) break;
      ++trips;
    }
    EXPECT_GT(trips, 5);
    EXPECT_EQ(fast.uart.bytes_delivered(), 60u);
    EXPECT_GT(fast.uart.bytes_in_place(), 30u);
  }
}

}  // namespace
