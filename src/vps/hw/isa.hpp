#pragma once

/// AR32: the 32-bit load/store ISA of the ECU substrate. A deliberately
/// small, regular instruction set so the ISS stays fast enough for
/// mission-profile-length stress tests while still executing real control
/// software (tasks, interrupts, E2E protection) compiled by the bundled
/// assembler.
///
/// Encoding (little-endian 32-bit words):
///   [31:24] opcode  [23:20] rd  [19:16] rs1  [15:12] rs2   (R-type)
///   [31:24] opcode  [23:20] rd  [19:16] rs1  [15:0]  imm16 (I-type)
///
/// r0 reads as zero and ignores writes. Branches compare rd with rs1 and
/// jump pc-relative by imm16 (signed, in bytes). JAL links into rd.

#include <array>
#include <cstdint>

namespace vps::hw {

inline constexpr int kRegisterCount = 16;

enum class Opcode : std::uint8_t {
  kNop = 0x00,
  kHalt = 0x01,
  kWfi = 0x02,
  kEi = 0x03,
  kDi = 0x04,
  kReti = 0x05,

  kAdd = 0x10,
  kSub = 0x11,
  kAnd = 0x12,
  kOr = 0x13,
  kXor = 0x14,
  kShl = 0x15,
  kShr = 0x16,
  kSra = 0x17,
  kMul = 0x18,
  kSlt = 0x19,
  kSltu = 0x1A,

  kAddi = 0x20,
  kAndi = 0x21,
  kOri = 0x22,
  kXori = 0x23,
  kShli = 0x24,
  kShri = 0x25,
  kLui = 0x26,
  kSlti = 0x27,

  kLw = 0x30,
  kLb = 0x31,
  kLbu = 0x32,
  kLh = 0x33,
  kLhu = 0x34,
  kSw = 0x35,
  kSh = 0x36,
  kSb = 0x37,

  kBeq = 0x40,
  kBne = 0x41,
  kBlt = 0x42,
  kBge = 0x43,
  kBltu = 0x44,
  kBgeu = 0x45,

  kJal = 0x50,
  kJalr = 0x51,
};

struct Decoded {
  Opcode opcode = Opcode::kNop;
  std::uint8_t rd = 0;
  std::uint8_t rs1 = 0;
  std::uint8_t rs2 = 0;
  std::uint16_t imm16 = 0;

  [[nodiscard]] std::int32_t simm() const noexcept { return static_cast<std::int16_t>(imm16); }
  [[nodiscard]] std::uint32_t uimm() const noexcept { return imm16; }
};

[[nodiscard]] constexpr std::uint32_t encode_r(Opcode op, unsigned rd, unsigned rs1,
                                               unsigned rs2) noexcept {
  return (static_cast<std::uint32_t>(op) << 24) | ((rd & 0xFu) << 20) | ((rs1 & 0xFu) << 16) |
         ((rs2 & 0xFu) << 12);
}

[[nodiscard]] constexpr std::uint32_t encode_i(Opcode op, unsigned rd, unsigned rs1,
                                               std::uint16_t imm) noexcept {
  return (static_cast<std::uint32_t>(op) << 24) | ((rd & 0xFu) << 20) | ((rs1 & 0xFu) << 16) | imm;
}

[[nodiscard]] constexpr Decoded decode(std::uint32_t word) noexcept {
  Decoded d;
  d.opcode = static_cast<Opcode>(word >> 24);
  d.rd = static_cast<std::uint8_t>((word >> 20) & 0xF);
  d.rs1 = static_cast<std::uint8_t>((word >> 16) & 0xF);
  d.rs2 = static_cast<std::uint8_t>((word >> 12) & 0xF);
  d.imm16 = static_cast<std::uint16_t>(word & 0xFFFF);
  return d;
}

/// How an instruction's operands read in assembly, which fields of its
/// word they fill, and so which registers it reads and writes.
enum class Format : std::uint8_t {
  kNone,         ///< no operands: nop, halt, wfi, ei, di, reti
  kReg,          ///< rd, rs1, rs2
  kSignedImm,    ///< rd, rs1, simm16 (addi, slti, jalr)
  kUnsignedImm,  ///< rd, rs1, uimm16 (andi, ori, xori, shli, shri)
  kUpperImm,     ///< rd, uimm16 (lui)
  kLoad,         ///< rd, simm16(rs1)
  kStore,        ///< rd, simm16(rs1): stores rd
  kBranch,       ///< rd, rs1, target
  kJump,         ///< rd, target (jal)
};

struct OpcodeInfo {
  const char* mnemonic = nullptr;  ///< null: the byte is no opcode
  Format format = Format::kNone;
};

/// The AR32 opcodes, indexed by opcode byte. The ISS's decoder, the
/// assembler, the disassembler and the taint tracker all read this table.
inline constexpr std::array<OpcodeInfo, 256> kOpcodeTable = [] {
  std::array<OpcodeInfo, 256> table{};
  const auto def = [&table](Opcode op, const char* mnemonic, Format format) {
    table[static_cast<std::uint8_t>(op)] = {mnemonic, format};
  };
  def(Opcode::kNop, "nop", Format::kNone);
  def(Opcode::kHalt, "halt", Format::kNone);
  def(Opcode::kWfi, "wfi", Format::kNone);
  def(Opcode::kEi, "ei", Format::kNone);
  def(Opcode::kDi, "di", Format::kNone);
  def(Opcode::kReti, "reti", Format::kNone);

  def(Opcode::kAdd, "add", Format::kReg);
  def(Opcode::kSub, "sub", Format::kReg);
  def(Opcode::kAnd, "and", Format::kReg);
  def(Opcode::kOr, "or", Format::kReg);
  def(Opcode::kXor, "xor", Format::kReg);
  def(Opcode::kShl, "shl", Format::kReg);
  def(Opcode::kShr, "shr", Format::kReg);
  def(Opcode::kSra, "sra", Format::kReg);
  def(Opcode::kMul, "mul", Format::kReg);
  def(Opcode::kSlt, "slt", Format::kReg);
  def(Opcode::kSltu, "sltu", Format::kReg);

  def(Opcode::kAddi, "addi", Format::kSignedImm);
  def(Opcode::kAndi, "andi", Format::kUnsignedImm);
  def(Opcode::kOri, "ori", Format::kUnsignedImm);
  def(Opcode::kXori, "xori", Format::kUnsignedImm);
  def(Opcode::kShli, "shli", Format::kUnsignedImm);
  def(Opcode::kShri, "shri", Format::kUnsignedImm);
  def(Opcode::kLui, "lui", Format::kUpperImm);
  def(Opcode::kSlti, "slti", Format::kSignedImm);

  def(Opcode::kLw, "lw", Format::kLoad);
  def(Opcode::kLb, "lb", Format::kLoad);
  def(Opcode::kLbu, "lbu", Format::kLoad);
  def(Opcode::kLh, "lh", Format::kLoad);
  def(Opcode::kLhu, "lhu", Format::kLoad);
  def(Opcode::kSw, "sw", Format::kStore);
  def(Opcode::kSh, "sh", Format::kStore);
  def(Opcode::kSb, "sb", Format::kStore);

  def(Opcode::kBeq, "beq", Format::kBranch);
  def(Opcode::kBne, "bne", Format::kBranch);
  def(Opcode::kBlt, "blt", Format::kBranch);
  def(Opcode::kBge, "bge", Format::kBranch);
  def(Opcode::kBltu, "bltu", Format::kBranch);
  def(Opcode::kBgeu, "bgeu", Format::kBranch);

  def(Opcode::kJal, "jal", Format::kJump);
  def(Opcode::kJalr, "jalr", Format::kSignedImm);
  return table;
}();

[[nodiscard]] constexpr bool is_valid_opcode(std::uint8_t raw) noexcept {
  return kOpcodeTable[raw].mnemonic != nullptr;
}

/// "?" for a byte that is no opcode.
[[nodiscard]] constexpr const char* mnemonic(Opcode op) noexcept {
  const char* m = kOpcodeTable[static_cast<std::uint8_t>(op)].mnemonic;
  return m != nullptr ? m : "?";
}

[[nodiscard]] constexpr Format operand_format(Opcode op) noexcept {
  return kOpcodeTable[static_cast<std::uint8_t>(op)].format;
}

}  // namespace vps::hw
