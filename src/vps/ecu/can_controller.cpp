#include "vps/ecu/can_controller.hpp"

namespace vps::ecu {

using sim::Time;

CanController::CanController(sim::Kernel& kernel, std::string name, can::CanBus& bus)
    : RegisterDevice(kernel, std::move(name), Time::ns(20), /*pure_reads=*/true), bus_(bus) {
  bus_.attach(*this);
}

std::optional<can::CanFrame> CanController::pop_rx() {
  if (rx_fifo_.empty()) return std::nullopt;
  can::CanFrame f = rx_fifo_.front();
  rx_fifo_.pop_front();
  return f;
}

void CanController::on_frame(const can::CanFrame& frame) {
  if (rx_fifo_.size() >= kRxFifoDepth) {
    ++rx_overflows_;  // oldest-preserving overflow: the new frame is lost
    return;
  }
  rx_fifo_.push_back(frame);
  if (on_rx_) on_rx_();
}

namespace {
std::uint32_t pack_lo(const can::CanFrame& f) {
  return static_cast<std::uint32_t>(f.data[0]) | (static_cast<std::uint32_t>(f.data[1]) << 8) |
         (static_cast<std::uint32_t>(f.data[2]) << 16) |
         (static_cast<std::uint32_t>(f.data[3]) << 24);
}
std::uint32_t pack_hi(const can::CanFrame& f) {
  return static_cast<std::uint32_t>(f.data[4]) | (static_cast<std::uint32_t>(f.data[5]) << 8) |
         (static_cast<std::uint32_t>(f.data[6]) << 16) |
         (static_cast<std::uint32_t>(f.data[7]) << 24);
}
void unpack(can::CanFrame& f, std::uint32_t lo, std::uint32_t hi) {
  for (int i = 0; i < 4; ++i) {
    f.data[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(lo >> (8 * i));
    f.data[static_cast<std::size_t>(4 + i)] = static_cast<std::uint8_t>(hi >> (8 * i));
  }
}
}  // namespace

std::uint32_t CanController::read_register(std::uint32_t offset, Time& /*delay*/) {
  switch (offset) {
    case kTxId: return tx_mailbox_.id;
    case kTxDlc: return tx_mailbox_.dlc;
    case kTxDataLo: return pack_lo(tx_mailbox_);
    case kTxDataHi: return pack_hi(tx_mailbox_);
    case kRxCount: return static_cast<std::uint32_t>(rx_fifo_.size());
    case kRxId: return rx_fifo_.empty() ? 0 : rx_fifo_.front().id;
    case kRxDlc: return rx_fifo_.empty() ? 0 : rx_fifo_.front().dlc;
    case kRxDataLo: return rx_fifo_.empty() ? 0 : pack_lo(rx_fifo_.front());
    case kRxDataHi: return rx_fifo_.empty() ? 0 : pack_hi(rx_fifo_.front());
    case kStatus:
      return static_cast<std::uint32_t>(state()) | (static_cast<std::uint32_t>(tec()) << 8) |
             (static_cast<std::uint32_t>(rec()) << 16);
    default: return 0;
  }
}

void CanController::write_register(std::uint32_t offset, std::uint32_t value, Time& /*delay*/) {
  switch (offset) {
    case kTxId: tx_mailbox_.id = static_cast<std::uint16_t>(value & can::kMaxStandardId); break;
    case kTxDlc: tx_mailbox_.dlc = static_cast<std::uint8_t>(value > 8 ? 8 : value); break;
    case kTxDataLo: unpack(tx_mailbox_, value, pack_hi(tx_mailbox_)); break;
    case kTxDataHi: unpack(tx_mailbox_, pack_lo(tx_mailbox_), value); break;
    case kTxSend: bus_.submit(*this, tx_mailbox_); break;
    case kRxPop:
      if (!rx_fifo_.empty()) rx_fifo_.pop_front();
      break;
    default: break;
  }
}

}  // namespace vps::ecu
