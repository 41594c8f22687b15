#include "vps/hw/assembler.hpp"

#include <cctype>
#include <optional>

#include "vps/hw/isa.hpp"
#include "vps/support/ensure.hpp"
#include "vps/support/strings.hpp"

namespace vps::hw {
namespace {

using support::trim;

struct Operand {
  enum class Kind { kRegister, kImmediate, kSymbol, kMemory } kind;
  int reg = 0;           // kRegister / kMemory base
  std::int64_t value = 0;  // kImmediate / kMemory offset
  std::string symbol;    // kSymbol
};

/// The register `tok` names, if any: r0–r15 in plain decimal, zero, sp or
/// ra (any case). One rule for register operands and memory-operand bases.
std::optional<int> register_number(std::string_view tok) {
  const std::string t = support::to_lower(std::string(trim(tok)));
  if (t == "zero") return 0;
  if (t == "sp") return 14;
  if (t == "ra") return 13;
  if (t.size() < 2 || t.size() > 3 || t[0] != 'r') return std::nullopt;
  int n = 0;
  for (const char c : t.substr(1)) {
    if (!std::isdigit(static_cast<unsigned char>(c))) return std::nullopt;
    n = 10 * n + (c - '0');
  }
  if (n >= kRegisterCount) return std::nullopt;
  return n;
}

std::optional<std::int64_t> try_parse_number(std::string_view tok) {
  const auto t = trim(tok);
  if (t.empty()) return std::nullopt;
  if (t.size() == 3 && t.front() == '\'' && t.back() == '\'') return t[1];
  const char c = t.front();
  if (c != '-' && c != '+' && !std::isdigit(static_cast<unsigned char>(c))) return std::nullopt;
  try {
    return support::parse_int(t);
  } catch (const std::invalid_argument&) {
    return std::nullopt;
  }
}

Operand parse_operand(std::string_view tok, std::size_t line) {
  const auto t = std::string(trim(tok));
  if (t.empty()) throw AsmError(line, "empty operand");
  // Memory operand: off(rN)
  const auto open = t.find('(');
  if (open != std::string::npos && t.back() == ')') {
    Operand op;
    op.kind = Operand::Kind::kMemory;
    const auto off = trim(std::string_view(t).substr(0, open));
    op.value = off.empty() ? 0 : try_parse_number(off).value_or(0);
    if (!off.empty() && !try_parse_number(off)) throw AsmError(line, "bad offset '" + t + "'");
    const std::string base = t.substr(open + 1, t.size() - open - 2);
    const auto reg = register_number(base);
    if (!reg) throw AsmError(line, "bad register '" + base + "'");
    op.reg = *reg;
    return op;
  }
  if (const auto num = try_parse_number(t)) {
    return Operand{Operand::Kind::kImmediate, 0, *num, {}};
  }
  if (const auto reg = register_number(t)) return Operand{Operand::Kind::kRegister, *reg, 0, {}};
  Operand op;
  op.kind = Operand::Kind::kSymbol;
  op.symbol = t;
  return op;
}

struct Line {
  std::size_t number;
  std::string mnemonic;
  std::vector<Operand> operands;
};

std::uint16_t check_imm16_signed(std::int64_t v, std::size_t line) {
  if (v < -32768 || v > 32767) throw AsmError(line, "immediate out of signed 16-bit range");
  return static_cast<std::uint16_t>(static_cast<std::int16_t>(v));
}

std::uint16_t check_imm16_unsigned(std::int64_t v, std::size_t line) {
  if (v < 0 || v > 0xFFFF) throw AsmError(line, "immediate out of unsigned 16-bit range");
  return static_cast<std::uint16_t>(v);
}

/// The opcode whose mnemonic is `m`, if any.
std::optional<Opcode> find_opcode(const std::string& m) {
  for (std::size_t raw = 0; raw < kOpcodeTable.size(); ++raw) {
    const char* mnemonic = kOpcodeTable[raw].mnemonic;
    if (mnemonic != nullptr && m == mnemonic) return static_cast<Opcode>(raw);
  }
  return std::nullopt;
}

/// Per-mnemonic instruction size in bytes (for the first pass).
std::size_t instruction_size(const std::string& m) {
  if (m == "li" || m == "call") return 8;  // expands to two instructions
  return 4;
}

}  // namespace

std::uint32_t Program::label(const std::string& name) const {
  const auto it = labels.find(name);
  support::ensure(it != labels.end(), "Program: unknown label " + name);
  return it->second;
}

Program assemble(const std::string& source, std::uint32_t origin) {
  Program prog;
  prog.origin = origin;

  // --- tokenize into logical lines --------------------------------------
  std::map<std::string, std::uint32_t> labels;
  std::uint64_t pc = origin;  // 64 bits wide, so that no directive can wrap it
  std::size_t line_no = 0;
  // Every move of the location counter stays inside the 32-bit address
  // space and the image under kMaxImageBytes.
  const auto move_to = [&](std::uint64_t to) {
    if (to > 0xFFFFFFFFu) throw AsmError(line_no, "location counter past 0xFFFFFFFF");
    if (to - origin > kMaxImageBytes) {
      throw AsmError(line_no, "image larger than " + std::to_string(kMaxImageBytes) + " bytes");
    }
    pc = to;
  };

  std::vector<std::pair<Line, std::uint32_t>> placed;  // line + address

  for (const auto& raw_line : support::split(source, '\n')) {
    ++line_no;
    std::string text = raw_line;
    for (const char comment : {';', '#'}) {
      const auto pos = text.find(comment);
      if (pos != std::string::npos) text.resize(pos);
    }
    std::string_view sv = trim(text);
    // Labels (possibly several on one line).
    while (true) {
      const auto colon = sv.find(':');
      if (colon == std::string_view::npos) break;
      const std::string label(trim(sv.substr(0, colon)));
      if (label.empty()) throw AsmError(line_no, "empty label");
      if (labels.contains(label)) throw AsmError(line_no, "duplicate label '" + label + "'");
      labels[label] = pc;
      sv = trim(sv.substr(colon + 1));
    }
    if (sv.empty()) continue;

    // Directives.
    if (sv.front() == '.') {
      const auto toks = support::tokenize(sv);
      const std::string dir = support::to_lower(toks[0]);
      if (dir == ".org") {
        if (toks.size() != 2) throw AsmError(line_no, ".org needs one operand");
        const auto v = try_parse_number(toks[1]);
        if (!v || *v < static_cast<std::int64_t>(pc)) {
          throw AsmError(line_no, ".org must not move backwards");
        }
        move_to(static_cast<std::uint64_t>(*v));
        continue;
      }
      if (dir == ".word" || dir == ".space") {
        Line l{line_no, dir, {}};
        std::string rest(trim(sv.substr(dir.size())));
        for (const auto& part : support::split(rest, ',')) {
          if (!trim(part).empty()) l.operands.push_back(parse_operand(part, line_no));
        }
        std::uint64_t size = 4 * l.operands.size();
        if (dir == ".space") {
          if (l.operands.size() != 1 || l.operands[0].kind != Operand::Kind::kImmediate ||
              l.operands[0].value < 0) {
            throw AsmError(line_no, ".space needs a non-negative immediate size");
          }
          size = static_cast<std::uint64_t>(l.operands[0].value);
        } else if (l.operands.empty()) {
          throw AsmError(line_no, ".word needs operands");
        }
        placed.emplace_back(std::move(l), pc);
        move_to(pc + size);
        continue;
      }
      throw AsmError(line_no, "unknown directive " + dir);
    }

    // Instruction.
    const auto first_space = sv.find_first_of(" \t");
    Line l{line_no, support::to_lower(std::string(sv.substr(0, first_space))), {}};
    if (first_space != std::string_view::npos) {
      for (const auto& part : support::split(std::string(sv.substr(first_space)), ',')) {
        if (!trim(part).empty()) l.operands.push_back(parse_operand(part, line_no));
      }
    }
    const auto size = instruction_size(l.mnemonic);
    placed.emplace_back(std::move(l), pc);
    move_to(pc + size);
  }

  // --- second pass: encode ----------------------------------------------
  prog.image.assign(pc - origin, 0);
  prog.labels = labels;

  auto put32 = [&](std::uint32_t addr, std::uint32_t value) {
    const std::size_t off = addr - origin;
    support::ensure(off + 4 <= prog.image.size(), "assembler image overflow");
    prog.image[off] = static_cast<std::uint8_t>(value);
    prog.image[off + 1] = static_cast<std::uint8_t>(value >> 8);
    prog.image[off + 2] = static_cast<std::uint8_t>(value >> 16);
    prog.image[off + 3] = static_cast<std::uint8_t>(value >> 24);
  };

  auto resolve = [&](const Operand& op, std::size_t line) -> std::int64_t {
    if (op.kind == Operand::Kind::kImmediate) return op.value;
    if (op.kind == Operand::Kind::kSymbol) {
      const auto it = labels.find(op.symbol);
      if (it == labels.end()) throw AsmError(line, "undefined symbol '" + op.symbol + "'");
      return it->second;
    }
    throw AsmError(line, "expected immediate or symbol");
  };

  auto want = [&](const Line& l, std::size_t n) {
    if (l.operands.size() != n) {
      throw AsmError(l.number, l.mnemonic + " expects " + std::to_string(n) + " operands");
    }
  };
  auto reg_of = [&](const Line& l, std::size_t i) -> unsigned {
    if (l.operands[i].kind != Operand::Kind::kRegister) {
      throw AsmError(l.number, "operand " + std::to_string(i + 1) + " must be a register");
    }
    return static_cast<unsigned>(l.operands[i].reg);
  };

  for (const auto& [l, addr] : placed) {
    const auto& m = l.mnemonic;
    if (m == ".word") {
      std::uint32_t a = addr;
      for (const auto& op : l.operands) {
        put32(a, static_cast<std::uint32_t>(resolve(op, l.number)));
        a += 4;
      }
      continue;
    }
    if (m == ".space") continue;  // already zero-filled

    if (const auto op = find_opcode(m)) {
      const Format format = operand_format(*op);
      switch (format) {
        case Format::kNone:
          want(l, 0);
          put32(addr, encode_i(*op, 0, 0, 0));
          break;
        case Format::kReg:
          want(l, 3);
          put32(addr, encode_r(*op, reg_of(l, 0), reg_of(l, 1), reg_of(l, 2)));
          break;
        case Format::kSignedImm:
        case Format::kUnsignedImm: {
          want(l, 3);
          const std::int64_t v = resolve(l.operands[2], l.number);
          const std::uint16_t imm = format == Format::kSignedImm
                                        ? check_imm16_signed(v, l.number)
                                        : check_imm16_unsigned(v, l.number);
          put32(addr, encode_i(*op, reg_of(l, 0), reg_of(l, 1), imm));
          break;
        }
        case Format::kUpperImm: {
          want(l, 2);
          const std::int64_t v = resolve(l.operands[1], l.number);
          put32(addr, encode_i(*op, reg_of(l, 0), 0, check_imm16_unsigned(v, l.number)));
          break;
        }
        case Format::kLoad:
        case Format::kStore:
          want(l, 2);
          if (l.operands[1].kind != Operand::Kind::kMemory) {
            throw AsmError(l.number, "need off(reg)");
          }
          put32(addr, encode_i(*op, reg_of(l, 0), static_cast<unsigned>(l.operands[1].reg),
                               check_imm16_signed(l.operands[1].value, l.number)));
          break;
        case Format::kBranch: {
          want(l, 3);
          const std::int64_t target = resolve(l.operands[2], l.number);
          const std::int64_t off = target - static_cast<std::int64_t>(addr);
          put32(addr, encode_i(*op, reg_of(l, 0), reg_of(l, 1), check_imm16_signed(off, l.number)));
          break;
        }
        case Format::kJump: {
          want(l, 2);
          const std::int64_t target = resolve(l.operands[1], l.number);
          const std::int64_t off = target - static_cast<std::int64_t>(addr);
          put32(addr, encode_i(*op, reg_of(l, 0), 0, check_imm16_signed(off, l.number)));
          break;
        }
      }
    } else if (m == "j") {
      want(l, 1);
      const std::int64_t off = resolve(l.operands[0], l.number) - static_cast<std::int64_t>(addr);
      put32(addr, encode_i(Opcode::kJal, 0, 0, check_imm16_signed(off, l.number)));
    } else if (m == "call") {
      want(l, 1);
      // Expands to: jal ra, target ; nop (slot reserved so `ret` can assume
      // fixed-size call sites; keeps first-pass sizing trivial).
      const std::int64_t off = resolve(l.operands[0], l.number) - static_cast<std::int64_t>(addr);
      put32(addr, encode_i(Opcode::kJal, 13, 0, check_imm16_signed(off, l.number)));
      put32(addr + 4, encode_i(Opcode::kAddi, 0, 0, 0));
    } else if (m == "ret") {
      want(l, 0);
      put32(addr, encode_i(Opcode::kJalr, 0, 13, 4));
    } else if (m == "li") {
      want(l, 2);
      const auto v = static_cast<std::uint32_t>(resolve(l.operands[1], l.number));
      const unsigned rd = reg_of(l, 0);
      put32(addr, encode_i(Opcode::kLui, rd, 0, static_cast<std::uint16_t>(v >> 16)));
      put32(addr + 4, encode_i(Opcode::kOri, rd, rd, static_cast<std::uint16_t>(v & 0xFFFF)));
    } else if (m == "mov") {
      want(l, 2);
      put32(addr, encode_i(Opcode::kAddi, reg_of(l, 0), reg_of(l, 1), 0));
    } else {
      throw AsmError(l.number, "unknown mnemonic '" + m + "'");
    }
  }
  return prog;
}

}  // namespace vps::hw
