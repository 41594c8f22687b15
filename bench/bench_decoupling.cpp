// E4 — temporal decoupling (paper Sec. 3.4: "approaches are required that
// increase simulation performance ... e.g., by temporal decoupling").
// Sweeps the CPU quantum while simulating a fixed 50 ms workload and
// reports wall-clock speedup relative to the fully synchronized run
// (quantum 0 = kernel sync after every instruction), verifying that the
// architectural result never changes.

#include <chrono>
#include <cstdio>

#include "vps/ecu/platform.hpp"
#include "vps/obs/profile.hpp"
#include "vps/support/table.hpp"

using namespace vps;
using Clock = std::chrono::steady_clock;

namespace {

// Bounded workload (~3.6M instructions, ~54 ms simulated at 100 MHz): every
// quantum setting executes the identical program to completion, so results
// must agree exactly; only the kernel-synchronization count changes.
constexpr const char* kWorkload = R"(
    li   r4, 0x2000
    addi r5, r0, 300      ; outer iterations
  outer:
    addi r2, r0, 2000
  loop:
    lw   r3, 0(r4)
    add  r3, r3, r2
    sw   r3, 0(r4)
    addi r2, r2, -1
    bne  r2, r0, loop
    addi r5, r5, -1
    bne  r5, r0, outer
    halt
)";

struct Sample {
  double wall_seconds;
  std::uint64_t instructions;
  std::uint64_t kernel_activations;
  std::uint64_t quantum_syncs;
  std::uint32_t result;
};

Sample run_with_quantum(sim::Time quantum) {
  VPS_PROFILE_SCOPE("decoupling.run_with_quantum");
  sim::Kernel kernel;
  ecu::EcuPlatform::Config cfg;
  cfg.cpu.quantum = quantum;
  ecu::EcuPlatform ecu(kernel, "ecu", cfg);
  ecu.load_program(kWorkload);
  const auto t0 = Clock::now();
  kernel.run(sim::Time::sec(2));  // program halts well before this bound
  const auto t1 = Clock::now();
  Sample s;
  s.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  s.instructions = ecu.cpu().stats().instructions;
  s.kernel_activations = kernel.stats().activations;
  s.quantum_syncs = ecu.cpu().quantum_keeper().sync_count();
  s.result = ecu.ram().peek32(0x2000);
  return s;
}

}  // namespace

int main() {
  std::printf("== E4: temporal decoupling — speedup vs quantum (bounded workload) ==\n\n");
  const sim::Time quanta[] = {sim::Time::zero(), sim::Time::us(1),  sim::Time::us(10),
                              sim::Time::us(100), sim::Time::ms(1), sim::Time::ms(10)};

  const Sample reference = run_with_quantum(sim::Time::zero());
  support::Table table({"quantum", "wall [s]", "speedup", "MIPS", "kernel activations",
                        "QK syncs", "result identical"});
  std::size_t mismatches = 0;
  for (const auto q : quanta) {
    const Sample s = run_with_quantum(q);
    const bool identical =
        s.result == reference.result && s.instructions == reference.instructions;
    if (!identical) ++mismatches;
    char wall[32], speedup[32], mips[32];
    std::snprintf(wall, sizeof wall, "%.4f", s.wall_seconds);
    std::snprintf(speedup, sizeof speedup, "%.1fx", reference.wall_seconds / s.wall_seconds);
    std::snprintf(mips, sizeof mips, "%.1f",
                  static_cast<double>(s.instructions) / s.wall_seconds / 1e6);
    table.add_row({q == sim::Time::zero() ? "sync-every-instr" : q.to_string(), wall, speedup,
                   mips, std::to_string(s.kernel_activations), std::to_string(s.quantum_syncs),
                   identical ? "yes" : "NO"});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("Expected shape (paper): speedup grows with the quantum and saturates\n"
              "once kernel synchronization stops dominating; functional results and\n"
              "instruction counts must not change (LT time annotation is exact).\n"
              "QK syncs counts actual kernel yields only — flush calls with no\n"
              "accumulated local time are free and not counted.\n\n");
  std::printf("%s\n", obs::Profiler::instance().report().c_str());
  if (mismatches != 0) {
    std::printf("BUG: %zu quantum settings changed the result or the instruction count\n",
                mismatches);
    return 1;
  }
  return 0;
}
