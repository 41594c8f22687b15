#pragma once

/// CPU-facing CAN controller: bridges the register bus to the CAN bus model.
/// Provides a bounded receive FIFO, transmit mailbox, and an RX callback for
/// interrupt wiring. Also usable directly from C++-level software models.
///
/// Registers:
///   0x00 TX_ID (RW)        0x04 TX_DLC (RW)
///   0x08 TX_DATA_LO (RW)   0x0C TX_DATA_HI (RW)
///   0x10 TX_SEND (WO: any write submits the mailbox)
///   0x14 RX_COUNT (RO)     0x18 RX_ID (RO)      0x1C RX_DLC (RO)
///   0x20 RX_DATA_LO (RO)   0x24 RX_DATA_HI (RO)
///   0x28 RX_POP (WO)       0x2C STATUS (RO: node state | tec<<8 | rec<<16)

#include <deque>
#include <functional>
#include <optional>

#include "vps/can/bus.hpp"
#include "vps/hw/peripherals.hpp"

namespace vps::ecu {

class CanController final : public hw::RegisterDevice, public can::CanNode {
 public:
  static constexpr std::uint32_t kTxId = 0x00;
  static constexpr std::uint32_t kTxDlc = 0x04;
  static constexpr std::uint32_t kTxDataLo = 0x08;
  static constexpr std::uint32_t kTxDataHi = 0x0C;
  static constexpr std::uint32_t kTxSend = 0x10;
  static constexpr std::uint32_t kRxCount = 0x14;
  static constexpr std::uint32_t kRxId = 0x18;
  static constexpr std::uint32_t kRxDlc = 0x1C;
  static constexpr std::uint32_t kRxDataLo = 0x20;
  static constexpr std::uint32_t kRxDataHi = 0x24;
  static constexpr std::uint32_t kRxPop = 0x28;
  static constexpr std::uint32_t kStatus = 0x2C;

  static constexpr std::size_t kRxFifoDepth = 16;

  CanController(sim::Kernel& kernel, std::string name, can::CanBus& bus);

  // --- C++-level software interface ---------------------------------------
  void send(const can::CanFrame& frame) { bus_.submit(*this, frame); }
  [[nodiscard]] std::optional<can::CanFrame> pop_rx();
  [[nodiscard]] std::size_t rx_pending() const noexcept { return regs_.rx_fifo.size(); }
  /// Invoked on every accepted frame (wire to InterruptController::raise).
  void set_on_rx(std::function<void()> fn) { on_rx_ = std::move(fn); }

  [[nodiscard]] std::uint64_t rx_overflows() const noexcept { return regs_.rx_overflows; }
  [[nodiscard]] can::CanBus& bus() noexcept { return bus_; }

  void on_frame(const can::CanFrame& frame) override;

  // --- snapshot-and-fork replay -------------------------------------------
  /// Node-level state (TEC/REC/bus-off, pending tx queue) is captured by
  /// CanBus::Snapshot; this covers only the controller-local registers.
  struct Snapshot {
    can::CanFrame tx_mailbox{};
    std::deque<can::CanFrame> rx_fifo;
    std::uint64_t rx_overflows = 0;
  };
  [[nodiscard]] Snapshot snapshot() const { return regs_; }
  void restore(const Snapshot& s) { regs_ = s; }

 protected:
  std::uint32_t read_register(std::uint32_t offset, sim::Time& delay) override;
  void write_register(std::uint32_t offset, std::uint32_t value, sim::Time& delay) override;
  [[nodiscard]] std::uint32_t register_space() const override { return 0x30; }

 private:
  can::CanBus& bus_;
  Snapshot regs_;
  std::function<void()> on_rx_;
};

}  // namespace vps::ecu
