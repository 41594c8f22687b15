#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace vps::support {

/// CRC-8 SAE-J1850 (poly 0x1D, init 0xFF, xor-out 0xFF) — the polynomial
/// used by AUTOSAR E2E profile 1 for end-to-end protection of signals.
[[nodiscard]] std::uint8_t crc8_sae_j1850(std::span<const std::uint8_t> data);

/// CRC-15 as specified by CAN 2.0 (poly x^15+x^14+x^10+x^8+x^7+x^4+x^3+1,
/// i.e. 0x4599). Operates on a bit sequence because CAN computes the CRC
/// over the unstuffed bit stream: a vector<bool> from frame serialization,
/// or a fixed bit buffer (can::frame_crc, can::frame_bit_count).
[[nodiscard]] std::uint16_t crc15_can(const std::vector<bool>& bits);
[[nodiscard]] std::uint16_t crc15_can(std::span<const bool> bits);

/// CRC-32 (IEEE 802.3, reflected). Used for memory-image signatures when
/// comparing golden vs faulty simulation state.
[[nodiscard]] std::uint32_t crc32_ieee(std::span<const std::uint8_t> data);

/// Incremental CRC-32 for streaming comparison signatures.
class Crc32 {
 public:
  void update(std::span<const std::uint8_t> data) noexcept;
  void update_u64(std::uint64_t v) noexcept;
  [[nodiscard]] std::uint32_t value() const noexcept { return state_ ^ 0xFFFFFFFFu; }

 private:
  std::uint32_t state_ = 0xFFFFFFFFu;
};

}  // namespace vps::support
