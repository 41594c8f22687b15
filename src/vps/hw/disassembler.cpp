#include "vps/hw/disassembler.hpp"

#include <cstdio>

#include "vps/hw/isa.hpp"

namespace vps::hw {

std::string disassemble(std::uint32_t word) {
  char buf[64];
  if (!is_valid_opcode(static_cast<std::uint8_t>(word >> 24))) {
    std::snprintf(buf, sizeof buf, ".word 0x%08X", word);
    return buf;
  }
  const Decoded d = decode(word);
  const char* m = mnemonic(d.opcode);
  switch (operand_format(d.opcode)) {
    case Format::kNone: return m;
    case Format::kReg:
      std::snprintf(buf, sizeof buf, "%s r%u, r%u, r%u", m, d.rd, d.rs1, d.rs2);
      return buf;
    case Format::kSignedImm:
      std::snprintf(buf, sizeof buf, "%s r%u, r%u, %d", m, d.rd, d.rs1, d.simm());
      return buf;
    case Format::kUnsignedImm:
      std::snprintf(buf, sizeof buf, "%s r%u, r%u, 0x%X", m, d.rd, d.rs1, d.uimm());
      return buf;
    case Format::kUpperImm:
      std::snprintf(buf, sizeof buf, "%s r%u, 0x%X", m, d.rd, d.uimm());
      return buf;
    case Format::kLoad:
    case Format::kStore:
      std::snprintf(buf, sizeof buf, "%s r%u, %d(r%u)", m, d.rd, d.simm(), d.rs1);
      return buf;
    case Format::kBranch:
      std::snprintf(buf, sizeof buf, "%s r%u, r%u, %+d", m, d.rd, d.rs1, d.simm());
      return buf;
    case Format::kJump:
      std::snprintf(buf, sizeof buf, "%s r%u, %+d", m, d.rd, d.simm());
      return buf;
  }
  return "?";
}

std::string disassemble_program(std::span<const std::uint8_t> image, std::uint32_t origin) {
  std::string out;
  char buf[32];
  for (std::size_t off = 0; off + 4 <= image.size(); off += 4) {
    const std::uint32_t word = static_cast<std::uint32_t>(image[off]) |
                               (static_cast<std::uint32_t>(image[off + 1]) << 8) |
                               (static_cast<std::uint32_t>(image[off + 2]) << 16) |
                               (static_cast<std::uint32_t>(image[off + 3]) << 24);
    std::snprintf(buf, sizeof buf, "%08X:  ", origin + static_cast<std::uint32_t>(off));
    out += buf;
    out += disassemble(word);
    out += '\n';
  }
  return out;
}

}  // namespace vps::hw
