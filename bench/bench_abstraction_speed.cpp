// E5 — simulation speed across abstraction levels (paper Sec. 2.2/2.3:
// higher abstraction buys orders of magnitude; ref [12] microarchitecture
// level). The same function — the airbag threshold comparator processing a
// stream of sensor samples — is evaluated at three levels:
//   gate:      structural netlist, event-free cycle evaluation
//   iss:       AR32 firmware on the instruction-set simulator + TLM bus
//   abstract:  behavioural C++ (TLM-LT-style functional model)

#include <chrono>
#include <cstdio>

#include "vps/ecu/platform.hpp"
#include "vps/gate/builders.hpp"
#include "vps/support/rng.hpp"
#include "vps/support/table.hpp"

using namespace vps;
using Clock = std::chrono::steady_clock;

namespace {

constexpr std::size_t kSamples = 200000;
constexpr std::uint64_t kThreshold = 200;

std::vector<std::uint8_t> make_samples(std::uint64_t seed) {
  support::Xorshift rng(seed);
  std::vector<std::uint8_t> samples(kSamples);
  for (auto& s : samples) s = static_cast<std::uint8_t>(rng.next());
  return samples;
}

struct Level {
  const char* name;
  double seconds;
  std::uint64_t fires;
};

Level run_gate(const std::vector<std::uint8_t>& samples) {
  const auto circuit = gate::build_airbag_comparator(8, kThreshold, /*tmr=*/false);
  gate::Evaluator eval(circuit.netlist);
  std::uint64_t fires = 0;
  const auto t0 = Clock::now();
  for (const auto s : samples) {
    eval.set_input_word(circuit.accel_inputs, s);
    eval.evaluate();
    fires += eval.value(circuit.fire);
  }
  const auto t1 = Clock::now();
  return {"gate-level netlist", std::chrono::duration<double>(t1 - t0).count(), fires};
}

Level run_iss(const std::vector<std::uint8_t>& samples) {
  // Firmware: read a sample from a RAM ring, compare, count fires, repeat.
  sim::Kernel kernel;
  ecu::EcuPlatform::Config cfg;
  cfg.ram_size = 512 * 1024;
  cfg.cpu.quantum = sim::Time::us(100);
  ecu::EcuPlatform ecu(kernel, "ecu", cfg);
  ecu.load_program(R"(
      li   r1, 0x10000      ; sample buffer
      li   r2, 0x10000
      li   r5, 0            ; fire count
      li   r6, 200          ; threshold
      li   r7, 0x8000       ; sample count cell
      lw   r8, 0(r7)
    loop:
      lbu  r3, 0(r1)
      addi r1, r1, 1
      slti r4, r3, 201
      bne  r4, r0, next
      addi r5, r5, 1
    next:
      addi r8, r8, -1
      bne  r8, r0, loop
      li   r9, 0x8004
      sw   r5, 0(r9)
      halt
  )");
  ecu.ram().poke32(0x8000, static_cast<std::uint32_t>(samples.size()));
  for (std::size_t i = 0; i < samples.size(); ++i) {
    ecu.ram().poke(0x10000 + i, samples[i]);
  }
  const auto t0 = Clock::now();
  kernel.run(sim::Time::sec(10));
  const auto t1 = Clock::now();
  return {"AR32 ISS firmware", std::chrono::duration<double>(t1 - t0).count(),
          ecu.ram().peek32(0x8004)};
}

Level run_abstract(const std::vector<std::uint8_t>& samples) {
  std::uint64_t fires = 0;
  const auto t0 = Clock::now();
  for (const auto s : samples) fires += s > kThreshold;
  const auto t1 = Clock::now();
  return {"abstract C++ model", std::chrono::duration<double>(t1 - t0).count(), fires};
}

}  // namespace

int main() {
  const auto samples = make_samples(99);
  const Level levels[] = {run_gate(samples), run_iss(samples), run_abstract(samples)};

  std::printf("== E5: same function, three abstraction levels (%zu samples) ==\n\n", kSamples);
  support::Table table({"level", "wall [s]", "samples/s", "slowdown vs abstract",
                        "fires (must agree)"});
  const double fastest = levels[2].seconds > 0 ? levels[2].seconds : 1e-9;
  for (const auto& l : levels) {
    char wall[32], rate[32], slow[32];
    std::snprintf(wall, sizeof wall, "%.5f", l.seconds);
    std::snprintf(rate, sizeof rate, "%.3g", static_cast<double>(kSamples) / l.seconds);
    std::snprintf(slow, sizeof slow, "%.0fx", l.seconds / fastest);
    table.add_row({l.name, wall, rate, slow, std::to_string(l.fires)});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("Expected shape (paper): each step up in abstraction buys one or more\n"
              "orders of magnitude of simulation speed at identical function.\n");
  if (levels[0].fires != levels[2].fires || levels[1].fires != levels[2].fires) {
    std::printf("BUG: the abstraction levels disagree on the fire count\n");
    return 1;
  }
  return 0;
}
