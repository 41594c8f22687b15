#include "vps/support/crc.hpp"

#include <array>

namespace vps::support {
namespace {

using Crc32Tables = std::array<std::array<std::uint32_t, 256>, 8>;

// Slicing-by-8: table 0 is the bytewise table; entry i of table k is the
// CRC of byte i followed by k zero bytes, so one step folds eight bytes
// with eight independent lookups.
constexpr Crc32Tables make_crc32_tables() {
  Crc32Tables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < t.size(); ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    }
  }
  return t;
}

constexpr Crc32Tables kCrc32 = make_crc32_tables();

// Folds the eight bytes of `word`, least significant first, into `crc`.
constexpr std::uint32_t crc32_step8(std::uint32_t crc, std::uint64_t word) noexcept {
  const std::uint32_t lo = crc ^ static_cast<std::uint32_t>(word);
  const auto hi = static_cast<std::uint32_t>(word >> 32);
  return kCrc32[7][lo & 0xFFu] ^ kCrc32[6][(lo >> 8) & 0xFFu] ^ kCrc32[5][(lo >> 16) & 0xFFu] ^
         kCrc32[4][lo >> 24] ^ kCrc32[3][hi & 0xFFu] ^ kCrc32[2][(hi >> 8) & 0xFFu] ^
         kCrc32[1][(hi >> 16) & 0xFFu] ^ kCrc32[0][hi >> 24];
}

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
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  for (; n >= 8; n -= 8, p += 8) {
    std::uint64_t word = 0;  // little-endian whatever the host: p[0] is the low byte
    for (int i = 0; i < 8; ++i) word |= std::uint64_t{p[i]} << (8 * i);
    state_ = crc32_step8(state_, word);
  }
  for (; n > 0; --n, ++p) state_ = kCrc32[0][(state_ ^ *p) & 0xFFu] ^ (state_ >> 8);
}

void Crc32::update_u64(std::uint64_t v) noexcept { state_ = crc32_step8(state_, v); }

}  // namespace vps::support
