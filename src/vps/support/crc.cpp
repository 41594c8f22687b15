#include "vps/support/crc.hpp"

#include <array>

namespace vps::support {
namespace {

constexpr std::array<std::uint32_t, 256> make_crc32_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    table[i] = c;
  }
  return table;
}

const std::array<std::uint32_t, 256> kCrc32Table = make_crc32_table();

}  // namespace

std::uint8_t crc8_sae_j1850(std::span<const std::uint8_t> data) {
  std::uint8_t crc = 0xFF;
  for (std::uint8_t byte : data) {
    crc ^= byte;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 0x80u) ? static_cast<std::uint8_t>((crc << 1) ^ 0x1D)
                          : static_cast<std::uint8_t>(crc << 1);
    }
  }
  return static_cast<std::uint8_t>(crc ^ 0xFF);
}

namespace {
template <typename Bits>
std::uint16_t crc15(const Bits& bits) {
  std::uint16_t crc = 0;
  for (bool bit : bits) {
    // Branch-free: whether the polynomial applies follows the data.
    const unsigned feedback = static_cast<unsigned>(bit) ^ ((crc >> 14) & 1u);
    crc = static_cast<std::uint16_t>(((crc << 1) & 0x7FFFu) ^ (0x4599u & (0u - feedback)));
  }
  return crc;
}
}  // namespace

std::uint16_t crc15_can(const std::vector<bool>& bits) { return crc15(bits); }
std::uint16_t crc15_can(std::span<const bool> bits) { return crc15(bits); }

std::uint32_t crc32_ieee(std::span<const std::uint8_t> data) {
  Crc32 crc;
  crc.update(data);
  return crc.value();
}

void Crc32::update(std::span<const std::uint8_t> data) noexcept {
  for (std::uint8_t byte : data) {
    state_ = kCrc32Table[(state_ ^ byte) & 0xFFu] ^ (state_ >> 8);
  }
}

void Crc32::update_u64(std::uint64_t v) noexcept {
  std::array<std::uint8_t, 8> bytes{};
  for (int i = 0; i < 8; ++i) bytes[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(v >> (8 * i));
  update(bytes);
}

}  // namespace vps::support
