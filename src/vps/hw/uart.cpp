#include "vps/hw/uart.hpp"

#include "vps/support/ensure.hpp"

namespace vps::hw {

using sim::Time;
using support::ensure;

Uart::Uart(sim::Kernel& kernel, std::string name, UartConfig config)
    : Module(kernel, std::move(name)),
      config_(config),
      bit_time_(Time::ps((1'000'000'000'000ULL + config.baud / 2) / config.baud)),
      tx_enqueued_(kernel, this->name() + ".tx_enqueued") {
  ensure(config.baud > 0, "Uart: baud rate must be positive");
  spawn("shift", shift_loop());
}

void Uart::transmit(const std::uint8_t* data, std::size_t n) {
  state_.tx_fifo.insert(state_.tx_fifo.end(), data, data + n);
  state_.bytes_enqueued += n;
  tx_enqueued_.notify();
}

void Uart::corrupt_bits(std::uint32_t count, std::uint64_t poison_id) {
  state_.corrupt_remaining += count;
  state_.corrupt_poison = poison_id;
  state_.corrupt_touched = false;
}

void Uart::load_frame() {
  const std::uint16_t data = state_.tx_fifo.front();
  state_.tx_fifo.erase(state_.tx_fifo.begin());
  // Bit 0 = start (0), bits 1..8 = data LSB-first, then [even parity,] stop (1).
  std::uint16_t frame = static_cast<std::uint16_t>(data << 1);
  if (config_.parity) {
    std::uint16_t p = 0;
    for (int i = 0; i < 8; ++i) p ^= (data >> i) & 1u;
    frame |= static_cast<std::uint16_t>(p << 9);
    frame |= 1u << 10;  // stop
  } else {
    frame |= 1u << 9;  // stop
  }
  state_.tx_frame = frame;
  state_.rx_frame = 0;
  state_.bit_index = 0;
  state_.shifting = true;
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
  // An even number of data-bit flips passes parity: the byte is delivered
  // silently corrupted — the residual the layer above must catch.
  ++state_.bytes_delivered;
  if (on_byte_) on_byte_(data);
}

sim::Coro Uart::shift_loop() {
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

}  // namespace vps::hw
