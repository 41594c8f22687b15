#include "vps/ecu/can_controller.hpp"

namespace vps::ecu {

using sim::Time;

CanController::CanController(sim::Kernel& kernel, std::string name, can::CanBus& bus)
    : RegisterDevice(kernel, std::move(name), Time::ns(20), /*pure_reads=*/true), bus_(bus) {
  bus_.attach(*this);
}

std::optional<can::CanFrame> CanController::pop_rx() {
  if (regs_.rx_fifo.empty()) return std::nullopt;
  can::CanFrame f = regs_.rx_fifo.front();
  regs_.rx_fifo.pop_front();
  return f;
}

void CanController::on_frame(const can::CanFrame& frame) {
  if (regs_.rx_fifo.size() >= kRxFifoDepth) {
    ++regs_.rx_overflows;  // oldest-preserving overflow: the new frame is lost
    return;
  }
  regs_.rx_fifo.push_back(frame);
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
    case kTxId: return regs_.tx_mailbox.id;
    case kTxDlc: return regs_.tx_mailbox.dlc;
    case kTxDataLo: return pack_lo(regs_.tx_mailbox);
    case kTxDataHi: return pack_hi(regs_.tx_mailbox);
    case kRxCount: return static_cast<std::uint32_t>(regs_.rx_fifo.size());
    case kRxId: return regs_.rx_fifo.empty() ? 0 : regs_.rx_fifo.front().id;
    case kRxDlc: return regs_.rx_fifo.empty() ? 0 : regs_.rx_fifo.front().dlc;
    case kRxDataLo: return regs_.rx_fifo.empty() ? 0 : pack_lo(regs_.rx_fifo.front());
    case kRxDataHi: return regs_.rx_fifo.empty() ? 0 : pack_hi(regs_.rx_fifo.front());
    case kStatus:
      return static_cast<std::uint32_t>(state()) | (static_cast<std::uint32_t>(tec()) << 8) |
             (static_cast<std::uint32_t>(rec()) << 16);
    default: return 0;
  }
}

void CanController::write_register(std::uint32_t offset, std::uint32_t value, Time& /*delay*/) {
  switch (offset) {
    case kTxId: regs_.tx_mailbox.id = static_cast<std::uint16_t>(value & can::kMaxStandardId); break;
    case kTxDlc: regs_.tx_mailbox.dlc = static_cast<std::uint8_t>(value > 8 ? 8 : value); break;
    case kTxDataLo: unpack(regs_.tx_mailbox, value, pack_hi(regs_.tx_mailbox)); break;
    case kTxDataHi: unpack(regs_.tx_mailbox, pack_lo(regs_.tx_mailbox), value); break;
    case kTxSend: bus_.submit(*this, regs_.tx_mailbox); break;
    case kRxPop:
      if (!regs_.rx_fifo.empty()) regs_.rx_fifo.pop_front();
      break;
    default: break;
  }
}

}  // namespace vps::ecu
