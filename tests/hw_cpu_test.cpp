// Integration tests for the AR32 core + assembler + memory + peripherals:
// programs are assembled, loaded, executed, and the architectural state is
// checked. Also covers interrupts, WFI, watchdog recovery, temporal
// decoupling invariance, and register fault injection.

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "vps/hw/assembler.hpp"
#include "vps/hw/cpu.hpp"
#include "vps/hw/memory.hpp"
#include "vps/hw/peripherals.hpp"
#include "vps/obs/provenance.hpp"
#include "vps/tlm/router.hpp"

namespace {

using namespace vps::hw;
using namespace vps::sim;
using vps::tlm::Router;

// Canonical test SoC: 64 KiB RAM at 0, peripherals above.
struct Soc {
  Kernel kernel;
  Memory ram;
  Router bus;
  InterruptController intc;
  Timer timer;
  Watchdog wdg;
  Gpio gpio;
  Adc adc;
  Cpu cpu;

  static constexpr std::uint32_t kRamBase = 0x00000000;
  static constexpr std::uint32_t kIntcBase = 0x40000000;
  static constexpr std::uint32_t kTimerBase = 0x40001000;
  static constexpr std::uint32_t kWdgBase = 0x40002000;
  static constexpr std::uint32_t kGpioBase = 0x40003000;
  static constexpr std::uint32_t kAdcBase = 0x40004000;

  explicit Soc(Cpu::Config config = {}, EccMode ecc = EccMode::kNone)
      : ram("ram", 64 * 1024, Time::ns(10), ecc),
        bus("bus", Time::ns(5)),
        intc(kernel, "intc"),
        timer(kernel, "timer"),
        wdg(kernel, "wdg"),
        gpio(kernel, "gpio"),
        adc(kernel, "adc"),
        cpu(kernel, "cpu", config) {
    bus.map(kRamBase, 64 * 1024, ram.socket());
    bus.map(kIntcBase, 0x10, intc.socket());
    bus.map(kTimerBase, 0x10, timer.socket());
    bus.map(kWdgBase, 0x10, wdg.socket());
    bus.map(kGpioBase, 0x08, gpio.socket());
    bus.map(kAdcBase, 0x08, adc.socket());
    cpu.socket().bind(bus.target_socket());
    cpu.connect_irq(intc.irq_out());
    timer.set_on_expire([this] { intc.raise(0); });
  }

  void load(const std::string& source) {
    const Program prog = assemble(source);
    ram.load(prog.origin, prog.image);
  }
};

TEST(Assembler, EncodesBasicProgram) {
  const Program p = assemble(R"(
    start:
      addi r1, r0, 5    ; r1 = 5
      add  r2, r1, r1
      halt
  )");
  EXPECT_EQ(p.size(), 12u);
  EXPECT_EQ(p.label("start"), 0u);
  const auto d = decode(static_cast<std::uint32_t>(p.image[0]) |
                        (static_cast<std::uint32_t>(p.image[1]) << 8) |
                        (static_cast<std::uint32_t>(p.image[2]) << 16) |
                        (static_cast<std::uint32_t>(p.image[3]) << 24));
  EXPECT_EQ(d.opcode, Opcode::kAddi);
  EXPECT_EQ(d.rd, 1);
  EXPECT_EQ(d.imm16, 5);

  // Register operands and memory-operand bases take the same names.
  EXPECT_EQ(assemble("add r1, zero, r2\naddi sp, ZERO, 1\nlw r1, 0(zero)\nsw ra, 4(sp)").image,
            assemble("add r1, r0, r2\naddi r14, r0, 1\nlw r1, 0(r0)\nsw r13, 4(r14)").image);
}

TEST(Assembler, ErrorsCarryLineNumbers) {
  // An unknown mnemonic, and operands on instructions that take none.
  for (const char* source :
       {"nop\nbogus r1, r2\n", "nop\nhalt r1\n", "nop\nnop r1, r2\n", "nop\nreti 5\n"}) {
    try {
      (void)assemble(source);
      ADD_FAILURE() << "expected AsmError: " << source;
    } catch (const AsmError& e) {
      EXPECT_EQ(e.line(), 2u) << source;
    }
  }
  EXPECT_THROW((void)assemble("addi r1, r0, 99999"), AsmError);   // imm range
  EXPECT_THROW((void)assemble("add r1, r2"), AsmError);           // arity
  EXPECT_THROW((void)assemble("x: nop\nx: nop"), AsmError);       // dup label
  EXPECT_THROW((void)assemble("j nowhere"), AsmError);            // undefined
  EXPECT_THROW((void)assemble(".org 8\n.org 0"), AsmError);       // backwards

  // A register is r0-r15 in plain decimal, zero, sp or ra; no sign, no hex.
  // The location counter may not wrap past 2^32 nor the image grow past
  // kMaxImageBytes (the second pass allocates it).
  const std::string too_big = std::to_string(kMaxImageBytes + 1);
  for (const std::string& source : std::vector<std::string>{
           "nop\nlw r1, 8(r+1)\n", "nop\nlw r1, 8(r0x5)\n", "nop\nlw r1, 8(r16)\n",
           "nop\nnop\n.space -4\n", "nop\nnop\n.org 0x100000004\nhere: nop\n",
           "nop\nnop\n.org 0x100000000\nnop\n", "nop\nnop\n.space " + too_big + "\n",
           "nop\nnop\n.org " + too_big + "\n"}) {
    try {
      (void)assemble(source);
      ADD_FAILURE() << "expected AsmError: " << source;
    } catch (const AsmError& e) {
      EXPECT_EQ(e.line(), source.starts_with("nop\nnop\n") ? 3u : 2u) << source;
    }
  }
  EXPECT_EQ(assemble(".space " + std::to_string(kMaxImageBytes)).size(), kMaxImageBytes);
}

TEST(Assembler, DirectivesAndLiterals) {
  const Program p = assemble(R"(
      j main
    .org 0x10
    data:
      .word 0xDEADBEEF, 42
      .space 8
    main:
      halt
  )");
  EXPECT_EQ(p.label("data"), 0x10u);
  EXPECT_EQ(p.label("main"), 0x20u);
  EXPECT_EQ(p.image[0x10], 0xEF);
  EXPECT_EQ(p.image[0x13], 0xDE);
  EXPECT_EQ(p.image[0x14], 42);
}

Soc& run_program(Soc& soc, const std::string& src, Time limit = Time::ms(10)) {
  soc.load(src);
  soc.kernel.run(limit);
  return soc;
}

TEST(Cpu, ArithmeticAndLogic) {
  Soc soc;
  run_program(soc, R"(
    addi r1, r0, 7
    addi r2, r0, 3
    add  r3, r1, r2     ; 10
    sub  r4, r1, r2     ; 4
    mul  r5, r1, r2     ; 21
    and  r6, r1, r2     ; 3
    or   r7, r1, r2     ; 7
    xor  r8, r1, r2     ; 4
    shli r9, r1, 4      ; 112
    slt  r10, r2, r1    ; 1
    halt
  )");
  EXPECT_EQ(soc.cpu.state(), Cpu::State::kHalted);
  EXPECT_EQ(soc.cpu.reg(3), 10u);
  EXPECT_EQ(soc.cpu.reg(4), 4u);
  EXPECT_EQ(soc.cpu.reg(5), 21u);
  EXPECT_EQ(soc.cpu.reg(6), 3u);
  EXPECT_EQ(soc.cpu.reg(7), 7u);
  EXPECT_EQ(soc.cpu.reg(8), 4u);
  EXPECT_EQ(soc.cpu.reg(9), 112u);
  EXPECT_EQ(soc.cpu.reg(10), 1u);
}

TEST(Cpu, RegisterZeroIsHardwired) {
  Soc soc;
  run_program(soc, R"(
    addi r0, r0, 123
    add  r1, r0, r0
    halt
  )");
  EXPECT_EQ(soc.cpu.reg(0), 0u);
  EXPECT_EQ(soc.cpu.reg(1), 0u);
}

TEST(Cpu, LoopComputesSum) {
  // Sum 1..100 = 5050.
  Soc soc;
  run_program(soc, R"(
      addi r1, r0, 0      ; acc
      addi r2, r0, 100    ; i
    loop:
      add  r1, r1, r2
      addi r2, r2, -1
      bne  r2, r0, loop
      halt
  )");
  EXPECT_EQ(soc.cpu.reg(1), 5050u);
  EXPECT_GT(soc.cpu.stats().branches_taken, 90u);
}

TEST(Cpu, MemoryLoadsStoresAllWidths) {
  Soc soc;
  run_program(soc, R"(
      li   r1, 0x1000
      li   r2, 0x89ABCDEF
      sw   r2, 0(r1)
      lw   r3, 0(r1)
      lbu  r4, 3(r1)      ; 0x89
      lb   r5, 3(r1)      ; sign-extended 0x89
      lhu  r6, 2(r1)      ; 0x89AB
      lh   r7, 2(r1)      ; sign-extended
      sb   r2, 4(r1)      ; 0xEF
      lbu  r8, 4(r1)
      halt
  )");
  EXPECT_EQ(soc.cpu.reg(3), 0x89ABCDEFu);
  EXPECT_EQ(soc.cpu.reg(4), 0x89u);
  EXPECT_EQ(soc.cpu.reg(5), 0xFFFFFF89u);
  EXPECT_EQ(soc.cpu.reg(6), 0x89ABu);
  EXPECT_EQ(soc.cpu.reg(7), 0xFFFF89ABu);
  EXPECT_EQ(soc.cpu.reg(8), 0xEFu);
}

TEST(Cpu, CallAndReturn) {
  Soc soc;
  run_program(soc, R"(
      addi r1, r0, 10
      call double_it
      call double_it
      halt
    double_it:
      add r1, r1, r1
      ret
  )");
  EXPECT_EQ(soc.cpu.state(), Cpu::State::kHalted);
  EXPECT_EQ(soc.cpu.reg(1), 40u);
}

TEST(Cpu, IllegalInstructionFaults) {
  Soc soc;
  soc.load(".word 0xFF000000");
  soc.kernel.run(Time::ms(1));
  EXPECT_EQ(soc.cpu.state(), Cpu::State::kFaulted);
  EXPECT_EQ(soc.cpu.fault_cause(), Cpu::FaultCause::kIllegalInstruction);
}

TEST(Cpu, BusErrorOnUnmappedAccess) {
  Soc soc;
  run_program(soc, R"(
    li r1, 0x70000000
    lw r2, 0(r1)
    halt
  )");
  EXPECT_EQ(soc.cpu.state(), Cpu::State::kFaulted);
  EXPECT_EQ(soc.cpu.fault_cause(), Cpu::FaultCause::kBusError);
  EXPECT_EQ(soc.cpu.fault_address(), 0x70000000u);
}

TEST(Cpu, GpioOutputReachesSignal) {
  Soc soc;
  run_program(soc, R"(
    li r1, 0x40003000
    li r2, 0xA5
    sw r2, 0(r1)
    halt
  )");
  EXPECT_EQ(soc.gpio.out().read(), 0xA5u);
}

TEST(Cpu, AdcConversionReadsSource) {
  Soc soc;
  soc.adc.set_source([] { return 2.5; });  // half of vref=5.0
  run_program(soc, R"(
    li r1, 0x40004000
    lw r2, 0(r1)
    halt
  )");
  EXPECT_NEAR(static_cast<double>(soc.cpu.reg(2)), 2048.0, 2.0);
  EXPECT_EQ(soc.adc.conversions(), 1u);
}

TEST(Cpu, TimerInterruptHandlerRuns) {
  Soc soc;
  // Main enables timer IRQ then spins; handler counts into r10 and returns.
  run_program(soc, R"(
      j    main
    .org 0x10                 ; IRQ vector
      addi r10, r10, 1        ; count interrupts
      li   r6, 0x40000000
      addi r7, r0, 1
      sw   r7, 12(r6)         ; INTC COMPLETE line 0... value is line index
      sw   r0, 12(r6)         ; clear line 0 (value = line number = 0)
      li   r6, 0x40001000
      addi r7, r0, 1
      sw   r7, 8(r6)          ; TIMER STATUS write-1-to-clear
      reti
    main:
      li   r1, 0x40000000     ; intc
      addi r2, r0, 1
      sw   r2, 4(r1)          ; enable line 0
      li   r1, 0x40001000     ; timer
      addi r2, r0, 100
      sw   r2, 4(r1)          ; period = 100us
      addi r2, r0, 3
      sw   r2, 0(r1)          ; enable, periodic
      ei
    spin:
      addi r9, r9, 1
      slti r3, r10, 5
      bne  r3, r0, spin       ; until 5 interrupts
      di
      halt
  )", Time::ms(20));
  EXPECT_EQ(soc.cpu.state(), Cpu::State::kHalted);
  EXPECT_EQ(soc.cpu.reg(10), 5u);
  EXPECT_GE(soc.cpu.stats().irqs_taken, 5u);
  EXPECT_GE(soc.timer.expiry_count(), 5u);
}

TEST(Cpu, WfiSleepsUntilInterrupt) {
  Soc soc;
  run_program(soc, R"(
      j    main
    .org 0x10
      addi r10, r10, 1
      sw   r0, 12(r6)         ; intc complete line 0
      addi r7, r0, 1
      sw   r7, 8(r5)          ; timer status clear
      reti
    main:
      li   r6, 0x40000000
      li   r5, 0x40001000
      addi r2, r0, 1
      sw   r2, 4(r6)          ; enable intc line 0
      addi r2, r0, 500
      sw   r2, 4(r5)          ; timer period 500us
      addi r2, r0, 1
      sw   r2, 0(r5)          ; one-shot enable
      ei
      wfi
      halt
  )", Time::ms(5));
  EXPECT_EQ(soc.cpu.state(), Cpu::State::kHalted);
  EXPECT_EQ(soc.cpu.reg(10), 1u);
  // The sleep must actually skip time: far fewer instructions than a 500us
  // spin would need.
  EXPECT_LT(soc.cpu.stats().instructions, 100u);
  EXPECT_GE(soc.kernel.now(), Time::us(500));
}

TEST(Cpu, WatchdogResetsHungCore) {
  Cpu::Config cfg;
  Soc soc(cfg);
  int resets = 0;
  soc.wdg.set_on_timeout([&] {
    ++resets;
    soc.cpu.reset();
  });
  // Program: on cold start r1==0 -> mark, hang in a loop without kicking.
  // The flag survives reset (it is in RAM), so after the watchdog reset the
  // program takes the healthy path and halts.
  run_program(soc, R"(
      li   r1, 0x2000
      lw   r2, 0(r1)
      bne  r2, r0, recovered
      addi r2, r0, 1
      sw   r2, 0(r1)          ; set "crashed once" flag
      li   r3, 0x40002000
      addi r4, r0, 200
      sw   r4, 4(r3)          ; wdg period 200us
      addi r4, r0, 1
      sw   r4, 0(r3)          ; enable watchdog
    hang:
      j hang                  ; never kicks
    recovered:
      halt
  )", Time::ms(10));
  EXPECT_EQ(resets, 1);
  EXPECT_EQ(soc.cpu.state(), Cpu::State::kHalted);
  EXPECT_EQ(soc.wdg.timeout_count(), 1u);
}

TEST(Cpu, RegisterInjectionChangesResult) {
  Soc soc;
  soc.load(R"(
      addi r1, r0, 100
      addi r2, r0, 200
    loop:
      addi r3, r3, 1
      slti r4, r3, 1000
      bne  r4, r0, loop
      add  r5, r1, r2
      halt
  )");
  // Flip bit 3 of r1 mid-run.
  soc.kernel.spawn("injector", [](Soc& soc) -> Coro {
    co_await delay(Time::us(20));
    soc.cpu.corrupt_register(1, 1u << 3);
  }(soc));
  soc.kernel.run(Time::ms(10));
  EXPECT_EQ(soc.cpu.state(), Cpu::State::kHalted);
  EXPECT_EQ(soc.cpu.reg(5), 100u + 200u + 8u - 0u);  // 100^8=108 -> 308
}

/// Which registers an instruction's taint tracking reads, writes and
/// stores, listed per opcode independently of the opcode table's formats
/// that hw::Cpu derives them from.
struct TaintRoles {
  bool reads_rs1 = false;
  bool reads_rs2 = false;
  bool reads_rd = false;
  bool writes_rd = false;
  bool is_store = false;
};

TaintRoles reference_taint_roles(Opcode op) {
  TaintRoles r;
  switch (op) {
    case Opcode::kAdd:
    case Opcode::kSub:
    case Opcode::kAnd:
    case Opcode::kOr:
    case Opcode::kXor:
    case Opcode::kShl:
    case Opcode::kShr:
    case Opcode::kSra:
    case Opcode::kMul:
    case Opcode::kSlt:
    case Opcode::kSltu:
      r.reads_rs1 = r.reads_rs2 = r.writes_rd = true;
      break;
    case Opcode::kAddi:
    case Opcode::kAndi:
    case Opcode::kOri:
    case Opcode::kXori:
    case Opcode::kShli:
    case Opcode::kShri:
    case Opcode::kSlti:
      r.reads_rs1 = r.writes_rd = true;
      break;
    case Opcode::kLui:
      r.writes_rd = true;
      break;
    case Opcode::kLw:
    case Opcode::kLb:
    case Opcode::kLbu:
    case Opcode::kLh:
    case Opcode::kLhu:
      r.reads_rs1 = r.writes_rd = true;  // address register feeds the result
      break;
    case Opcode::kSw:
    case Opcode::kSh:
    case Opcode::kSb:
      r.reads_rs1 = r.reads_rd = true;  // address + data registers
      r.is_store = true;
      break;
    case Opcode::kBeq:
    case Opcode::kBne:
    case Opcode::kBlt:
    case Opcode::kBge:
    case Opcode::kBltu:
    case Opcode::kBgeu:
      r.reads_rs1 = r.reads_rd = true;  // branches compare rd with rs1
      break;
    case Opcode::kJal:
      r.writes_rd = true;
      break;
    case Opcode::kJalr:
      r.reads_rs1 = true;
      r.writes_rd = true;
      break;
    default:
      break;
  }
  return r;
}

TEST(Cpu, TaintFollowsEveryOpcodesOperandRoles) {
  // One instruction with rd = r1, rs1 = r2 and rs2 = r3 (also the top
  // nibble of the immediate, which formats without rs2 ignore), with r1, r2
  // and r3 carrying faults 1, 2 and 3 in every combination. Every path out
  // of the instruction lands on a halt: fall-through, the branch and jal
  // target 0x3008, and the jalr target and load/store address 0x3108.
  constexpr std::uint16_t kImm = 0x3008;
  constexpr std::uint32_t kAddress = 0x100 + kImm;
  int opcodes = 0;
  for (unsigned raw = 0; raw < kOpcodeTable.size(); ++raw) {
    if (!is_valid_opcode(static_cast<std::uint8_t>(raw))) continue;
    ++opcodes;
    const auto op = static_cast<Opcode>(raw);
    const TaintRoles roles = reference_taint_roles(op);
    for (unsigned tainted = 0; tainted < 8; ++tainted) {
      SCOPED_TRACE(std::string(mnemonic(op)) + ", tainted set " + std::to_string(tainted));
      Soc soc;
      vps::obs::ProvenanceTracker tracker(soc.kernel);
      soc.cpu.set_provenance(&tracker);
      soc.ram.set_provenance(&tracker);
      soc.ram.poke32(0, encode_i(op, 1, 2, kImm));
      for (const std::uint32_t halt_at : {4u, std::uint32_t{kImm}, kAddress}) {
        soc.ram.poke32(halt_at, encode_i(Opcode::kHalt, 0, 0, 0));
      }
      soc.cpu.set_reg(2, 0x100);
      std::uint32_t mask = 0;
      for (int r = 1; r <= 3; ++r) {
        tracker.begin_fault(static_cast<std::uint64_t>(r), "f" + std::to_string(r), "inject");
        if ((tainted & (1u << (r - 1))) != 0) {
          soc.cpu.corrupt_register(r, 0, static_cast<std::uint64_t>(r));
          mask |= 1u << r;
        }
      }
      soc.kernel.run(Time::us(50));

      // The reference: the first tainted operand read (rs1, rs2, rd) is
      // the contact, a store carries rd's fault, and a write of rd gives
      // it the contact's fault or cleans it. Fault r is register r's.
      const auto tainted_reg = [&](int r) { return (mask & (1u << r)) != 0 ? r : 0; };
      int source = 0;
      if (roles.reads_rs1 && tainted_reg(2) != 0) {
        source = 2;
      } else if (roles.reads_rs2 && tainted_reg(3) != 0) {
        source = 3;
      } else if (roles.reads_rd && tainted_reg(1) != 0) {
        source = 1;
      }
      const auto store_poison = static_cast<std::uint64_t>(roles.is_store ? tainted_reg(1) : 0);
      if (roles.writes_rd) mask = source != 0 ? mask | 2u : mask & ~2u;

      std::vector<std::pair<std::uint64_t, std::string>> contacts;
      for (const auto& fault : tracker.faults()) {
        for (const auto& node : fault.nodes) {
          if (node.site.starts_with("cpu:")) contacts.emplace_back(fault.fault_id, node.site);
        }
      }
      std::vector<std::pair<std::uint64_t, std::string>> want_contacts;
      if (source != 0) {
        want_contacts.emplace_back(static_cast<std::uint64_t>(source),
                                   "cpu:cpu.r" + std::to_string(source));
      }
      EXPECT_EQ(contacts, want_contacts);
      const Cpu::Snapshot core = soc.cpu.snapshot();
      EXPECT_EQ(core.taint_mask, mask);
      if ((mask & 2u) != 0) {
        EXPECT_EQ(core.reg_taint[1], static_cast<std::uint64_t>(roles.writes_rd ? source : 1));
      }
      const auto poison = soc.ram.snapshot().word_poison;
      if (store_poison != 0) {
        EXPECT_EQ(poison, (decltype(poison){{kAddress / 4, store_poison}}));
      } else {
        EXPECT_TRUE(poison.empty());
      }
    }
  }
  EXPECT_EQ(opcodes, 41);
}

TEST(Cpu, QuantumSizeDoesNotChangeArchitecturalResult) {
  std::uint32_t results[3];
  Time end_times[3];
  const Time quanta[3] = {Time::zero(), Time::us(1), Time::us(100)};
  for (int i = 0; i < 3; ++i) {
    Cpu::Config cfg;
    cfg.quantum = quanta[i];
    Soc soc(cfg);
    run_program(soc, R"(
        addi r2, r0, 500
      loop:
        add  r1, r1, r2
        addi r2, r2, -1
        bne  r2, r0, loop
        halt
    )");
    results[i] = soc.cpu.reg(1);
    end_times[i] = soc.kernel.now();
  }
  EXPECT_EQ(results[0], results[1]);
  EXPECT_EQ(results[1], results[2]);
  EXPECT_EQ(results[0], 125250u);
  // Decoupling must not distort total simulated time (LT accumulation).
  EXPECT_EQ(end_times[0], end_times[1]);
  EXPECT_EQ(end_times[1], end_times[2]);
}

TEST(Cpu, DmiAcceleratesMemoryAccess) {
  Cpu::Config with_dmi;
  with_dmi.use_dmi = true;
  Cpu::Config without_dmi;
  without_dmi.use_dmi = false;
  const char* src = R"(
      addi r2, r0, 1000
    loop:
      addi r2, r2, -1
      bne  r2, r0, loop
      halt
  )";
  Soc a(with_dmi);
  run_program(a, src);
  Soc b(without_dmi);
  run_program(b, src);
  EXPECT_EQ(a.cpu.reg(2), b.cpu.reg(2));
  EXPECT_GT(a.cpu.stats().dmi_accesses, 1000u);
  EXPECT_EQ(b.cpu.stats().dmi_accesses, 0u);
}

TEST(Cpu, EccMemoryHaltsOnUncorrectableFetch) {
  Cpu::Config cfg;
  Soc soc(cfg, EccMode::kSecded);
  soc.load(R"(
    loop:
      addi r1, r1, 1
      j loop
  )");
  soc.kernel.spawn("injector", [](Soc& soc) -> Coro {
    co_await delay(Time::us(10));
    // Double-bit flip in the first instruction word: uncorrectable.
    soc.ram.flip_codeword_bit(0, 3);
    soc.ram.flip_codeword_bit(0, 17);
  }(soc));
  soc.kernel.run(Time::ms(1));
  EXPECT_EQ(soc.cpu.state(), Cpu::State::kFaulted);
  EXPECT_EQ(soc.cpu.fault_cause(), Cpu::FaultCause::kBusError);
  EXPECT_EQ(soc.ram.uncorrectable_errors(), 1u);
}

TEST(Cpu, EccMemoryMasksSingleBitFetchUpset) {
  Cpu::Config cfg;
  Soc soc(cfg, EccMode::kSecded);
  soc.load(R"(
      addi r2, r0, 2000
    loop:
      addi r2, r2, -1
      bne  r2, r0, loop
      halt
  )");
  soc.kernel.spawn("injector", [](Soc& soc) -> Coro {
    co_await delay(Time::us(10));
    soc.ram.flip_codeword_bit(1, 9);  // single-bit: must be corrected
  }(soc));
  soc.kernel.run(Time::ms(10));
  EXPECT_EQ(soc.cpu.state(), Cpu::State::kHalted);
  EXPECT_GE(soc.ram.corrected_errors(), 1u);
}

}  // namespace
