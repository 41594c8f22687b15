#include "vps/can/frame.hpp"

#include <array>
#include <cstdio>

#include "vps/support/crc.hpp"
#include "vps/support/ensure.hpp"

namespace vps::can {

using support::ensure;

CanFrame CanFrame::make(std::uint16_t id, std::span<const std::uint8_t> payload) {
  ensure(id <= kMaxStandardId, "CanFrame: identifier exceeds 11 bits");
  ensure(payload.size() <= 8, "CanFrame: payload exceeds 8 bytes");
  CanFrame f;
  f.id = id;
  f.dlc = static_cast<std::uint8_t>(payload.size());
  for (std::size_t i = 0; i < payload.size(); ++i) f.data[i] = payload[i];
  return f;
}

std::string CanFrame::to_string() const {
  char buf[64];
  std::snprintf(buf, sizeof buf, "CAN id=0x%03X dlc=%u%s", id, dlc, remote ? " RTR" : "");
  std::string out = buf;
  for (std::uint8_t i = 0; i < dlc; ++i) {
    std::snprintf(buf, sizeof buf, " %02X", data[i]);
    out += buf;
  }
  return out;
}

namespace {
void push_bits(std::vector<bool>& bits, std::uint32_t value, int count) {
  for (int i = count - 1; i >= 0; --i) bits.push_back(((value >> i) & 1u) != 0);
}

/// The stuffed region of a standard frame, SOF..CRC, in a fixed buffer:
/// at most 19 header bits, 64 data bits and 15 CRC bits. The frame's wire
/// time needs only its length, so counting it touches no heap.
struct StuffedRegion {
  std::array<bool, 19 + 64 + 15> bit{};
  std::size_t size = 0;

  void push(std::uint32_t value, int count) noexcept {
    for (int i = count - 1; i >= 0; --i) bit[size++] = ((value >> i) & 1u) != 0;
  }
  [[nodiscard]] std::span<const bool> bits() const noexcept { return {bit.data(), size}; }
};

/// SOF..data field, the CRC-15 input; frame_bits_unstuffed's bits.
StuffedRegion header_and_data(const CanFrame& frame) {
  ensure(frame.id <= kMaxStandardId && frame.dlc <= 8, "frame_bits: malformed frame");
  StuffedRegion r;
  r.push(0, 1);                // SOF (dominant)
  r.push(frame.id, 11);        // identifier
  r.push(frame.remote, 1);     // RTR
  r.push(0, 2);                // IDE = standard, r0
  r.push(frame.dlc, 4);        // DLC
  if (!frame.remote) {
    for (std::uint8_t i = 0; i < frame.dlc; ++i) r.push(frame.data[i], 8);
  }
  return r;
}
}  // namespace

std::vector<bool> frame_bits_unstuffed(const CanFrame& frame) {
  ensure(frame.id <= kMaxStandardId && frame.dlc <= 8, "frame_bits: malformed frame");
  std::vector<bool> bits;
  bits.push_back(false);               // SOF (dominant)
  push_bits(bits, frame.id, 11);       // identifier
  bits.push_back(frame.remote);        // RTR
  bits.push_back(false);               // IDE = standard
  bits.push_back(false);               // r0
  push_bits(bits, frame.dlc, 4);       // DLC
  if (!frame.remote) {
    for (std::uint8_t i = 0; i < frame.dlc; ++i) push_bits(bits, frame.data[i], 8);
  }
  return bits;
}

std::uint16_t frame_crc(const CanFrame& frame) {
  return support::crc15_can(header_and_data(frame).bits());
}

// The reference encoder: frame_bit_count and frame_crc must agree with it.
std::vector<bool> serialize_frame(const CanFrame& frame) {
  std::vector<bool> unstuffed = frame_bits_unstuffed(frame);
  const std::uint16_t crc = support::crc15_can(unstuffed);
  push_bits(unstuffed, crc, 15);

  // Bit stuffing: after five identical bits, insert the complement.
  std::vector<bool> wire;
  wire.reserve(unstuffed.size() + unstuffed.size() / 5 + 16);
  int run = 0;
  bool run_value = false;
  for (bool b : unstuffed) {
    if (!wire.empty() && b == run_value) {
      ++run;
    } else {
      run_value = b;
      run = 1;
    }
    wire.push_back(b);
    if (run == 5) {
      wire.push_back(!b);
      run_value = !b;
      run = 1;
    }
  }

  wire.push_back(true);   // CRC delimiter
  wire.push_back(false);  // ACK slot (driven dominant by receivers)
  wire.push_back(true);   // ACK delimiter
  for (int i = 0; i < 7; ++i) wire.push_back(true);  // EOF
  for (int i = 0; i < 3; ++i) wire.push_back(true);  // IFS
  return wire;
}

std::size_t frame_bit_count(const CanFrame& frame) {
  StuffedRegion r = header_and_data(frame);
  r.push(support::crc15_can(r.bits()), 15);
  // serialize_frame's stuffing, counted: after five identical bits comes
  // one stuff bit, the complement, which starts the next run.
  std::size_t stuffed = 0;
  int run = 0;
  bool run_value = false;
  for (std::size_t i = 0; i < r.size; ++i) {
    const bool b = r.bit[i];
    if (i != 0 && b == run_value) {
      ++run;
    } else {
      run_value = b;
      run = 1;
    }
    if (run == 5) {
      ++stuffed;
      run_value = !b;
      run = 1;
    }
  }
  // CRC delimiter, ACK slot, ACK delimiter, EOF (7) and IFS (3).
  return r.size + stuffed + 13;
}

std::optional<CanFrame> deserialize_frame(const std::vector<bool>& wire) {
  // 1. Destuff: after five identical bits the next must be the complement;
  //    a sixth identical bit is a form error. Only SOF..CRC is stuffed, so
  //    destuff incrementally and stop once enough payload bits are in hand.
  std::vector<bool> bits;
  bits.reserve(wire.size());
  int run = 0;
  bool run_value = false;
  std::size_t consumed = 0;  // wire bits consumed for the stuffed region

  // Upper bound of the stuffed region: parse lazily. We destuff the whole
  // stream first and cut at the computed frame length afterwards; trailing
  // unstuffed fields (delimiters/EOF) may then contain >5-bit runs, so the
  // run check only applies while we still need stuffed payload bits.
  const auto needed_bits = [&bits]() -> std::size_t {
    // SOF(1)+ID(11)+RTR+IDE+r0+DLC(4) = 19 header bits, then data, then 15 CRC.
    if (bits.size() < 19) return 19;
    std::uint8_t dlc = 0;
    for (int i = 15; i < 19; ++i) dlc = static_cast<std::uint8_t>((dlc << 1) | (bits[static_cast<std::size_t>(i)] ? 1 : 0));
    if (dlc > 8) return static_cast<std::size_t>(-1);  // form error
    const bool remote = bits[12];
    return 19u + (remote ? 0u : 8u * dlc) + 15u;
  };

  for (std::size_t i = 0; i < wire.size(); ++i) {
    const std::size_t target = needed_bits();
    if (target == static_cast<std::size_t>(-1)) return std::nullopt;
    if (bits.size() >= target) break;
    const bool b = wire[i];
    if (!bits.empty() && b == run_value) {
      ++run;
      if (run > 5) return std::nullopt;  // stuffing violation
    } else {
      run_value = b;
      run = 1;
    }
    if (run == 5) {
      // The next wire bit is a stuff bit and must be the complement.
      bits.push_back(b);
      if (i + 1 >= wire.size()) return std::nullopt;
      if (wire[i + 1] == b) return std::nullopt;
      run_value = wire[i + 1];
      run = 1;
      ++i;  // consume the stuff bit
    } else {
      bits.push_back(b);
    }
    consumed = i + 1;
  }

  const std::size_t total = needed_bits();
  if (total == static_cast<std::size_t>(-1) || bits.size() < total) return std::nullopt;

  // 2. Parse fields.
  if (bits[0]) return std::nullopt;  // SOF must be dominant
  CanFrame frame;
  std::uint16_t id = 0;
  for (int i = 1; i <= 11; ++i) id = static_cast<std::uint16_t>((id << 1) | (bits[static_cast<std::size_t>(i)] ? 1 : 0));
  frame.id = id;
  frame.remote = bits[12];
  if (bits[13]) return std::nullopt;  // IDE: only standard frames modeled
  std::uint8_t dlc = 0;
  for (int i = 15; i < 19; ++i) dlc = static_cast<std::uint8_t>((dlc << 1) | (bits[static_cast<std::size_t>(i)] ? 1 : 0));
  frame.dlc = dlc;
  std::size_t pos = 19;
  if (!frame.remote) {
    for (std::uint8_t byte = 0; byte < dlc; ++byte) {
      std::uint8_t v = 0;
      for (int bit = 0; bit < 8; ++bit) v = static_cast<std::uint8_t>((v << 1) | (bits[pos++] ? 1 : 0));
      frame.data[byte] = v;
    }
  }
  std::uint16_t crc = 0;
  for (int i = 0; i < 15; ++i) crc = static_cast<std::uint16_t>((crc << 1) | (bits[pos++] ? 1 : 0));

  // 3. CRC + trailing form checks (CRC delimiter and ACK delimiter recessive).
  if (frame_crc(frame) != crc) return std::nullopt;
  if (consumed < wire.size() && !wire[consumed]) return std::nullopt;      // CRC delim
  if (consumed + 2 < wire.size() && !wire[consumed + 2]) return std::nullopt;  // ACK delim
  return frame;
}

}  // namespace vps::can
