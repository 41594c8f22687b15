#include "vps/hw/uart.hpp"

#include <algorithm>

#include "vps/support/ensure.hpp"

namespace vps::hw {

using sim::Time;
using support::ensure;

namespace {

// 1 when `x` holds an odd number of ones. Folded by hand: std::popcount
// is a libgcc call on a baseline x86-64 build.
constexpr std::uint16_t odd_ones(std::uint16_t x) noexcept {
  x ^= x >> 8;
  x ^= x >> 4;
  x ^= x >> 2;
  x ^= x >> 1;
  return x & 1u;
}

}  // namespace

Uart::Uart(sim::Kernel& kernel, std::string name, UartConfig config)
    : Module(kernel, std::move(name)),
      config_(config),
      bit_time_(Time::ps((1'000'000'000'000ULL + config.baud / 2) / config.baud)),
      tx_enqueued_(kernel, this->name() + ".tx_enqueued"),
      wake_(kernel, this->name() + ".wake") {
  ensure(config.baud > 0, "Uart: baud rate must be positive");
  spawn("shift", shift_loop());
}

void Uart::transmit(const std::uint8_t* data, std::size_t n) {
  std::vector<std::uint8_t>& fifo = state_.tx_fifo;
  fifo.erase(fifo.begin(), fifo.begin() + static_cast<std::ptrdiff_t>(state_.tx_head));
  state_.tx_head = 0;
  fifo.insert(fifo.end(), data, data + n);
  state_.bytes_enqueued += n;
  tx_enqueued_.notify();
}

void Uart::corrupt_bits(std::uint32_t count, std::uint64_t poison_id) {
  if (state_.frame_owed && count > 0) resume_bitwise();
  state_.corrupt_remaining += count;
  state_.corrupt_poison = poison_id;
  state_.corrupt_touched = false;
}

std::uint64_t Uart::bits_shifted() const noexcept {
  if (!state_.frame_owed) return state_.bits_shifted;
  return state_.bits_shifted + (bits_due(/*before_now=*/false) - state_.bit_index);
}

// The frame's bits due by now, or strictly before now, counted from bit 0
// and never below bit_index. The last bit is never counted: it is the
// shift process's own entry, which lands and delivers the frame.
std::uint32_t Uart::bits_due(bool before_now) const noexcept {
  const Time elapsed = now() - state_.frame_start;
  std::uint64_t due = elapsed / bit_time_;
  if (before_now && elapsed % bit_time_ == Time::zero() && due > 0) --due;
  due = std::min<std::uint64_t>(due, frame_bits() - 1);
  return std::max(state_.bit_index, static_cast<std::uint32_t>(due));
}

// A burst during a clean frame. Bits due before now shifted clean; so did
// the one due now when called between run() calls, because run(until)
// executes the entries due at `until`. From a process at a bit's instant
// the burst takes that bit: in a bit-level UART the injector's entry, made
// at elaboration or right after restore(), sorts before the bit's, made a
// bit time earlier. The shift process then goes on bit by bit from the
// next bit, woken there by wake_, or by its frame-end entry for the last.
void Uart::resume_bitwise() {
  const bool in_process = kernel().current_process() != nullptr;
  shift_clean(bits_due(/*before_now=*/in_process));
  state_.frame_owed = false;
  state_.bit_pending = true;
  if (state_.bit_index + 1 == frame_bits()) return;
  const Time at = state_.frame_start + bit_time_ * (state_.bit_index + 1);
  // Never a delta notification: a call between runs must leave the kernel
  // quiescent for snapshot(). Only a call from a process leaves a bit due
  // now, and that bit is shifted in the current evaluate phase. The timed
  // wake takes a reserved seq, so it leaves the seq restore() reserves for
  // a forked injection to that injection.
  if (at == now()) {
    wake_.notify_immediate();
  } else {
    wake_.notify(at - now(), kernel().reserve_seq());
  }
}

void Uart::load_frame() {
  const std::uint16_t data = state_.tx_fifo[state_.tx_head++];
  if (!queued()) {  // drained: keep the capacity for the next transmit()
    state_.tx_fifo.clear();
    state_.tx_head = 0;
  }
  // Bit 0 = start (0), bits 1..8 = data LSB-first, then [even parity,] stop (1).
  std::uint16_t frame = static_cast<std::uint16_t>(data << 1);
  if (config_.parity) {
    frame |= static_cast<std::uint16_t>(odd_ones(data) << 9);
    frame |= 1u << 10;  // stop
  } else {
    frame |= 1u << 9;  // stop
  }
  state_.tx_frame = frame;
  state_.rx_frame = 0;
  state_.bit_index = 0;
  state_.frame_start = now();
  state_.shifting = true;
}

// The clean frames queued behind one that just landed, landed in place:
// each at its own end, with now() there, while each one's wait would be an
// inline timed step (DESIGN.md sec. 13, "In-place runs"). on_byte_ may
// transmit, corrupt or notify, so the kernel checks every wait after the
// landing before it. The first frame whose wait would be queued is left
// loaded, and the shift loop waits for it as for any clean frame.
void Uart::land_queued_frames() {
  if (!clean_frame_queued()) return;
  load_frame();
  const sim::Kernel::InlineWait frame_wait{byte_time()};
  bytes_in_place_ += kernel().inline_waits(
      {&frame_wait, 1},
      [this](Time) {
        shift_clean(frame_bits());
        if (!clean_frame_queued()) return false;
        load_frame();
        return true;
      },
      &wake_);
}

// Lands bits [bit_index, end) as driven, in one step.
void Uart::shift_clean(std::uint32_t end) {
  const std::uint32_t n = end - state_.bit_index;
  const auto mask = static_cast<std::uint16_t>(((1u << n) - 1u) << state_.bit_index);
  state_.rx_frame |= static_cast<std::uint16_t>(state_.tx_frame & mask);
  state_.bit_index = end;
  state_.bits_shifted += n;
  if (end == frame_bits()) {
    state_.shifting = false;
    finish_frame();
  }
}

void Uart::shift_bit() {
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

void Uart::finish_frame() {
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
  // Even parity: the data bits (1..8) and the parity bit (9) hold an even
  // number of ones.
  if (config_.parity && odd_ones(state_.rx_frame & 0x3FEu) != 0) {
    ++state_.parity_errors;
    if (provenance_ != nullptr && was_corrupted && state_.corrupt_poison != 0) {
      provenance_->detect(state_.corrupt_poison, "uart.parity:" + name());
    }
    return;
  }
  // An even number of data-bit flips passes parity: the byte is delivered
  // silently corrupted — the residual the layer above must catch.
  ++state_.bytes_delivered;
  if (on_byte_) on_byte_(data);
}

sim::Coro Uart::shift_loop() {
  for (;;) {
    if (state_.frame_owed) {
      state_.frame_owed = false;
      shift_clean(frame_bits());
      land_queued_frames();
    } else if (state_.bit_pending) {
      state_.bit_pending = false;
      shift_bit();
    }
    if (state_.shifting) {
      if (state_.corrupt_remaining == 0) {
        // A clean frame, or the clean rest of one after a burst: one wait
        // to its last bit, unless corrupt_bits() wakes the process earlier.
        state_.frame_owed = true;
        (void)co_await sim::wait_with_timeout(wake_, frame_end() - now());
      } else {
        state_.bit_pending = true;
        co_await sim::delay(bit_time_);
      }
      continue;
    }
    if (queued()) {
      load_frame();
      continue;
    }
    co_await tx_enqueued_;
  }
}

}  // namespace vps::hw
