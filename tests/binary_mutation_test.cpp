// Binary-mutation tests: disassembler round-trips, machine-level mutant
// enumeration, image patching, and end-to-end firmware qualification on
// the ISS — a weak firmware test suite scores lower than a strong one
// against the identical binary mutant population (paper refs [22,30]).

#include <gtest/gtest.h>

#include "vps/ecu/platform.hpp"
#include "vps/hw/assembler.hpp"
#include "vps/hw/disassembler.hpp"
#include "vps/mutation/binary_mutation.hpp"

namespace {

using namespace vps;
using hw::assemble;
using mutation::enumerate_binary_mutants;
using mutation::run_binary_mutation;

TEST(Disassembler, FormatsRepresentativeInstructions) {
  EXPECT_EQ(hw::disassemble(hw::encode_r(hw::Opcode::kAdd, 1, 2, 3)), "add r1, r2, r3");
  EXPECT_EQ(hw::disassemble(hw::encode_i(hw::Opcode::kAddi, 1, 0, 5)), "addi r1, r0, 5");
  EXPECT_EQ(hw::disassemble(hw::encode_i(hw::Opcode::kAddi, 1, 0, 0xFFFC)), "addi r1, r0, -4");
  EXPECT_EQ(hw::disassemble(hw::encode_i(hw::Opcode::kLw, 3, 2, 8)), "lw r3, 8(r2)");
  EXPECT_EQ(hw::disassemble(hw::encode_i(hw::Opcode::kBne, 2, 0, 0xFFF8)), "bne r2, r0, -8");
  EXPECT_EQ(hw::disassemble(hw::encode_i(hw::Opcode::kHalt, 0, 0, 0)), "halt");
  EXPECT_EQ(hw::disassemble(0xFF000000u), ".word 0xFF000000");
}

std::uint32_t word_at(const std::vector<std::uint8_t>& image, std::size_t off) {
  return static_cast<std::uint32_t>(image[off]) | (static_cast<std::uint32_t>(image[off + 1]) << 8) |
         (static_cast<std::uint32_t>(image[off + 2]) << 16) |
         (static_cast<std::uint32_t>(image[off + 3]) << 24);
}

TEST(Disassembler, EveryOpcodeRoundTripsThroughTheAssembler) {
  // Canonical words (fields the format leaves unused are zero) with
  // boundary registers and immediates. At origin 0 a branch's or jal's
  // printed offset is its target, so each listing assembles back.
  int opcodes = 0;
  for (unsigned raw = 0; raw < hw::kOpcodeTable.size(); ++raw) {
    if (!hw::is_valid_opcode(static_cast<std::uint8_t>(raw))) continue;
    ++opcodes;
    const auto op = static_cast<hw::Opcode>(raw);
    std::vector<std::uint32_t> words;
    for (const unsigned a : {0u, 15u}) {
      for (const unsigned b : {0u, 15u}) {
        for (const std::uint16_t imm : {0x0000, 0x0001, 0x7FFF, 0x8000, 0xFFFF}) {
          switch (hw::operand_format(op)) {
            case hw::Format::kNone: words.push_back(hw::encode_i(op, 0, 0, 0)); break;
            case hw::Format::kReg: words.push_back(hw::encode_r(op, a, b, imm & 0xFu)); break;
            case hw::Format::kSignedImm:
            case hw::Format::kUnsignedImm:
            case hw::Format::kLoad:
            case hw::Format::kStore:
            case hw::Format::kBranch: words.push_back(hw::encode_i(op, a, b, imm)); break;
            case hw::Format::kUpperImm:
            case hw::Format::kJump: words.push_back(hw::encode_i(op, a, 0, imm)); break;
          }
        }
      }
    }
    for (const std::uint32_t word : words) {
      const std::string text = hw::disassemble(word);
      try {
        const hw::Program p = assemble(text);
        ASSERT_EQ(p.image.size(), 4u) << text;
        EXPECT_EQ(word_at(p.image, 0), word) << text;
      } catch (const hw::AsmError& e) {
        ADD_FAILURE() << text << ": " << e.what();
      }
    }
  }
  EXPECT_EQ(opcodes, 41);
}

TEST(Disassembler, AssembleDisassembleRoundTrip) {
  // Disassembling an assembled program and re-assembling the listing's
  // mnemonics must reproduce the image (for label-free instructions).
  const hw::Program p = assemble(R"(
    addi r1, r0, 7
    add  r2, r1, r1
    sub  r3, r2, r1
    shli r4, r3, 2
    sw   r4, 16(r0)
    lw   r5, 16(r0)
    halt
  )");
  std::string listing;
  for (std::size_t off = 0; off < p.image.size(); off += 4) {
    listing += hw::disassemble(word_at(p.image, off)) + "\n";
  }
  const hw::Program q = assemble(listing);
  EXPECT_EQ(p.image, q.image);
}

TEST(Disassembler, ProgramListingHasAddresses) {
  const hw::Program p = assemble("nop\nhalt\n");
  const auto listing = hw::disassemble_program(p.image, 0x100);
  EXPECT_NE(listing.find("00000100:  nop"), std::string::npos);
  EXPECT_NE(listing.find("00000104:  halt"), std::string::npos);
}

TEST(BinaryMutants, EnumerationCoversExpectedOperators) {
  const hw::Program p = assemble(R"(
      addi r1, r0, 5     ; imm+1 mutant
      add  r2, r1, r1    ; add->sub
      beq  r2, r0, skip  ; beq->bne
      mul  r3, r2, r1    ; mul->add
    skip:
      halt               ; no mutant
      .word 0xFF00AA55   ; data: skipped
  )");
  const auto mutants = enumerate_binary_mutants(p);
  ASSERT_EQ(mutants.size(), 4u);
  EXPECT_NE(mutants[0].description.find("addi r1, r0, 6"), std::string::npos);
  EXPECT_NE(mutants[1].description.find("sub r2"), std::string::npos);
  EXPECT_NE(mutants[2].description.find("bne"), std::string::npos);
  EXPECT_NE(mutants[3].description.find("add r3"), std::string::npos);
  for (const auto& m : mutants) EXPECT_NE(m.original, m.mutated);
}

TEST(BinaryMutants, NopEncodedAddiIsNotMutated) {
  const hw::Program p = assemble("nop\nnop\nhalt\n");
  EXPECT_TRUE(enumerate_binary_mutants(p).empty());
}

// Firmware under qualification: computes sum(1..n) for n at 0x1000 and a
// saturation flag (sum >= 105) at 0x1008, result at 0x1004. The threshold
// 105 is a reachable sum (n = 14), so the off-by-one immediate mutant is
// killable — thresholds between triangular numbers would make it an
// equivalent mutant.
const char* kFirmware = R"(
      li   r1, 0x1000
      lw   r2, 0(r1)      ; n
      addi r3, r0, 0      ; sum
    loop:
      add  r3, r3, r2
      addi r2, r2, -1
      bne  r2, r0, loop
      sw   r3, 4(r1)      ; sum
      slti r4, r3, 105
      xori r4, r4, 1      ; saturated = sum >= 105
      sw   r4, 8(r1)
      halt
)";

struct FirmwareRun {
  std::uint32_t sum = 0;
  std::uint32_t saturated = 0;
  bool halted = false;
};

FirmwareRun run_firmware(const std::vector<std::uint8_t>& image, std::uint32_t n) {
  sim::Kernel kernel;
  ecu::EcuPlatform ecu(kernel, "dut");
  ecu.ram().load(0, image);
  ecu.ram().poke32(0x1000, n);
  kernel.run(sim::Time::ms(5));
  FirmwareRun r;
  r.halted = ecu.cpu().state() == hw::Cpu::State::kHalted;
  r.sum = ecu.ram().peek32(0x1004);
  r.saturated = ecu.ram().peek32(0x1008);
  return r;
}

TEST(BinaryMutationEngine, StrongFirmwareSuiteOutscoresWeak) {
  const hw::Program fw = assemble(kFirmware);

  // Weak: one input, checks only that it halted with a nonzero sum.
  const auto weak = run_binary_mutation(fw, [](const std::vector<std::uint8_t>& image) {
    const auto r = run_firmware(image, 3);
    return r.halted && r.sum != 0;
  });

  // Strong: exact sums at two inputs plus the saturation boundary.
  const auto strong = run_binary_mutation(fw, [](const std::vector<std::uint8_t>& image) {
    const auto a = run_firmware(image, 3);
    if (!a.halted || a.sum != 6 || a.saturated != 0) return false;
    const auto b = run_firmware(image, 14);  // 105 >= 105: exactly at threshold
    if (!b.halted || b.sum != 105 || b.saturated != 1) return false;
    const auto c = run_firmware(image, 13);  // 91 < 105
    return c.halted && c.sum == 91 && c.saturated == 0;
  });

  EXPECT_EQ(weak.total_mutants, strong.total_mutants);
  EXPECT_GE(strong.total_mutants, 5u);
  EXPECT_GT(strong.score(), weak.score());
  EXPECT_GT(strong.score(), 0.85) << strong.render();
}

TEST(BinaryMutationEngine, RejectsFailingBaseline) {
  const hw::Program fw = assemble(kFirmware);
  EXPECT_THROW((void)run_binary_mutation(fw, [](const auto&) { return false; }),
               vps::support::InvariantError);
}

TEST(BinaryMutationEngine, MutantsAreDeterministic) {
  const hw::Program fw = assemble(kFirmware);
  const auto a = enumerate_binary_mutants(fw);
  const auto b = enumerate_binary_mutants(fw);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].mutated, b[i].mutated);
    EXPECT_EQ(a[i].address, b[i].address);
  }
}

}  // namespace
