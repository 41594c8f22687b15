// E19 — snapshot-and-fork replay + word-parallel gate sweeps (extension).
// Two engines, one contract: results must be bitwise identical to the
// straightforward implementation, or the speedup is meaningless.
//
//   (a) System level: campaign replays fork from cached golden epoch
//       snapshots and execute only the divergent suffix. Per-run wall time
//       is measured per injection point (early/mid/late in the scenario);
//       the later the injection, the larger the skipped prefix.
//   (b) Gate level: the PPSFP fault simulator packs 64 stuck-at faults per
//       machine word, vs the per-fault serial loop it replaced (both with
//       and without the hoisted-golden fix, satellite of this change).
//
// Usage: bench_replay_snapshot [runs]   (default 24; a bad argument prints
// a usage line and exits 64)

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <optional>
#include <vector>

#include "bench_args.hpp"
#include "vps/apps/acc.hpp"
#include "vps/apps/caps.hpp"
#include "vps/gate/fault_sim.hpp"
#include "vps/gate/netlist.hpp"

using namespace vps;
using Clock = std::chrono::steady_clock;

namespace {

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  return xs.empty() ? 0.0 : xs[xs.size() / 2];
}

bool same_observation(const fault::Observation& a, const fault::Observation& b) {
  return a.output_signature == b.output_signature && a.completed == b.completed &&
         a.hazard == b.hazard && a.detected == b.detected && a.corrected == b.corrected &&
         a.resets == b.resets && a.deadline_misses == b.deadline_misses &&
         a.provenance.size() == b.provenance.size();
}

/// Times `faults` one by one on `scenario`, returning per-run seconds.
/// The first forked run pays the one-off golden epoch capture; reporting
/// the median keeps that amortized cost out of the steady-state number.
std::vector<double> time_runs(fault::Scenario& scenario,
                              const std::vector<fault::FaultDescriptor>& faults,
                              std::uint64_t seed, std::vector<fault::Observation>& out) {
  std::vector<double> times;
  times.reserve(faults.size());
  for (const auto& f : faults) {
    const auto t0 = Clock::now();
    out.push_back(scenario.run(&f, seed));
    times.push_back(seconds_since(t0));
  }
  return times;
}

std::vector<fault::FaultDescriptor> caps_faults(sim::Time inject_at, std::size_t count) {
  std::vector<fault::FaultDescriptor> faults;
  for (std::size_t i = 0; i < count; ++i) {
    fault::FaultDescriptor f;
    f.id = i;
    f.inject_at = inject_at;
    switch (i % 3) {
      case 0:
        f.type = fault::FaultType::kMemoryBitFlip;
        f.location = "ram";
        f.address = 0x40 + i * 8;
        f.bit = static_cast<int>(i % 8);
        break;
      case 1:
        f.type = fault::FaultType::kCanFrameCorruption;
        f.location = "can0";
        f.bit = static_cast<int>(i % 3);
        f.address = i;
        break;
      default:
        f.type = fault::FaultType::kRegisterBitFlip;
        f.location = "cpu";
        f.address = i % 16;
        f.bit = static_cast<int>(i % 32);
        break;
    }
    faults.push_back(f);
  }
  return faults;
}

std::vector<fault::FaultDescriptor> acc_faults(sim::Time inject_at, std::size_t count) {
  std::vector<fault::FaultDescriptor> faults;
  for (std::size_t i = 0; i < count; ++i) {
    fault::FaultDescriptor f;
    f.id = i;
    f.inject_at = inject_at;
    if (i % 2 == 0) {
      f.type = fault::FaultType::kSensorOffset;
      f.location = "radar";
      f.magnitude = 0.5 + 0.25 * static_cast<double>(i);
      f.duration = sim::Time::ms(200);
    } else {
      f.type = fault::FaultType::kExecutionSlowdown;
      f.location = "acc_os";
      f.address = i % 2;
      f.magnitude = 2.0;
      f.duration = sim::Time::ms(400);
    }
    faults.push_back(f);
  }
  return faults;
}

// The pre-change gate sweep: one scalar Evaluator per fault, golden
// responses recomputed inside the fault loop, early exit on detection.
gate::FaultSimResult serial_sweep(const gate::Netlist& netlist,
                                  const std::vector<gate::TestVector>& vectors,
                                  bool hoist_golden) {
  const gate::FaultSimulator sim(netlist);
  gate::FaultSimResult result;
  const auto sites = sim.enumerate_faults();
  result.total_faults = sites.size();

  std::vector<std::uint64_t> golden(vectors.size());
  const auto compute_golden = [&] {
    gate::Evaluator eval(netlist);
    for (std::size_t i = 0; i < vectors.size(); ++i) {
      eval.reset();
      golden[i] = sim.response(eval, vectors[i]);
      ++result.simulations;
    }
  };
  if (hoist_golden) compute_golden();

  for (const auto& site : sites) {
    if (!hoist_golden) compute_golden();
    gate::Evaluator eval(netlist);
    eval.inject_stuck_at(site.net, site.stuck_value);
    bool detected = false;
    for (std::size_t i = 0; i < vectors.size(); ++i) {
      eval.reset();
      const std::uint64_t r = sim.response(eval, vectors[i]);
      ++result.simulations;
      if (r != golden[i]) {
        detected = true;
        break;
      }
    }
    if (detected) {
      ++result.detected;
    } else {
      result.undetected.push_back(site);
    }
  }
  return result;
}

/// N-bit ripple-carry adder with a greater-than flag — the same shape the
/// fault-sim regression tests pin, scaled up to a few hundred fault sites.
gate::Netlist make_adder(int bits) {
  gate::Netlist n;
  std::vector<gate::NetId> a(bits), b(bits);
  for (int i = 0; i < bits; ++i) a[i] = n.add_input("a" + std::to_string(i));
  for (int i = 0; i < bits; ++i) b[i] = n.add_input("b" + std::to_string(i));
  gate::NetId carry = n.constant(false);
  for (int i = 0; i < bits; ++i) {
    const auto axb = n.add(gate::GateKind::kXor, a[i], b[i]);
    const auto sum = n.add(gate::GateKind::kXor, axb, carry);
    const auto c1 = n.add(gate::GateKind::kAnd, a[i], b[i]);
    const auto c2 = n.add(gate::GateKind::kAnd, axb, carry);
    carry = n.add(gate::GateKind::kOr, c1, c2);
    char name[8];
    std::snprintf(name, sizeof name, "s%02d", i);
    n.mark_output(name, sum);
  }
  n.mark_output("cout", carry);
  return n;
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<std::size_t> arg = bench::runs_arg(argc, argv, 24);
  if (!arg) return 64;  // EX_USAGE
  const std::size_t runs = *arg;

  std::printf("== E19: snapshot-fork replay + PPSFP gate sweeps ==\n\n");

  // -- (a) system-level replay ---------------------------------------------
  std::printf("-- CAPS crash scenario, %zu faulty replays per injection point --\n", runs);
  const apps::CapsConfig caps_cfg{.crash = true, .duration = sim::Time::ms(20)};
  for (const double frac : {0.25, 0.50, 0.90}) {
    const auto inject_at = sim::Time::ps(
        static_cast<std::uint64_t>(static_cast<double>(caps_cfg.duration.picoseconds()) * frac));
    const auto faults = caps_faults(inject_at, runs);

    apps::CapsScenario full(caps_cfg);
    full.set_snapshot_replay(false);
    apps::CapsScenario forked(caps_cfg);
    forked.set_snapshot_replay(true);

    std::vector<fault::Observation> obs_full, obs_forked;
    const auto t_full = time_runs(full, faults, 42, obs_full);
    const auto t_forked = time_runs(forked, faults, 42, obs_forked);

    bool identical = true;
    for (std::size_t i = 0; i < faults.size(); ++i) {
      identical = identical && same_observation(obs_full[i], obs_forked[i]);
    }
    const double mf = median(t_full);
    const double mk = median(t_forked);
    std::printf("  inject @ %3.0f%%  full %8.2f ms/run  forked %8.2f ms/run  "
                "speedup %5.1fx  identical: %s\n",
                frac * 100.0, mf * 1e3, mk * 1e3, mf / mk, identical ? "yes" : "NO — BUG");
    if (!identical) return 1;
  }

  const std::size_t acc_runs = std::max<std::size_t>(4, runs / 4);
  std::printf("\n-- ACC scenario (20 s simulated), %zu faulty replays per point --\n", acc_runs);
  const apps::AccConfig acc_cfg{};
  for (const double frac : {0.50, 0.90}) {
    const auto inject_at = sim::Time::ps(
        static_cast<std::uint64_t>(static_cast<double>(acc_cfg.duration.picoseconds()) * frac));
    const auto faults = acc_faults(inject_at, acc_runs);

    apps::AccScenario full(acc_cfg);
    full.set_snapshot_replay(false);
    apps::AccScenario forked(acc_cfg);
    forked.set_snapshot_replay(true);

    std::vector<fault::Observation> obs_full, obs_forked;
    const auto t_full = time_runs(full, faults, 42, obs_full);
    const auto t_forked = time_runs(forked, faults, 42, obs_forked);

    bool identical = true;
    for (std::size_t i = 0; i < faults.size(); ++i) {
      identical = identical && same_observation(obs_full[i], obs_forked[i]);
    }
    const double mf = median(t_full);
    const double mk = median(t_forked);
    std::printf("  inject @ %3.0f%%  full %8.2f ms/run  forked %8.2f ms/run  "
                "speedup %5.1fx  identical: %s\n",
                frac * 100.0, mf * 1e3, mk * 1e3, mf / mk, identical ? "yes" : "NO — BUG");
    if (!identical) return 1;
  }

  // -- (b) gate-level PPSFP -------------------------------------------------
  const auto netlist = make_adder(24);
  std::vector<gate::TestVector> vectors;
  for (std::uint64_t v = 0; v < 48; ++v) {
    vectors.push_back({(v * 0x9E3779B97F4AULL) & 0xFFFFFFFFFFFFULL, 0});
  }
  std::printf("\n-- gate sweep: %zu fault sites x %zu vectors (24-bit adder) --\n",
              netlist.fault_site_count(), vectors.size());

  const auto t_old = Clock::now();
  const auto r_old = serial_sweep(netlist, vectors, /*hoist_golden=*/false);
  const double s_old = seconds_since(t_old);

  const auto t_hoist = Clock::now();
  const auto r_hoist = serial_sweep(netlist, vectors, /*hoist_golden=*/true);
  const double s_hoist = seconds_since(t_hoist);

  const gate::FaultSimulator sim(netlist);
  const auto t_word = Clock::now();
  const auto r_word = sim.run(vectors);
  const double s_word = seconds_since(t_word);

  const bool gate_same = r_word.total_faults == r_hoist.total_faults &&
                         r_word.detected == r_hoist.detected &&
                         r_word.simulations == r_hoist.simulations &&
                         r_word.undetected.size() == r_hoist.undetected.size();
  std::printf("  %-32s %9.2f ms   (golden recomputed per fault)\n",
              "serial, pre-change", s_old * 1e3);
  std::printf("  %-32s %9.2f ms   speedup %5.1fx\n", "serial, hoisted golden", s_hoist * 1e3,
              s_old / s_hoist);
  std::printf("  %-32s %9.2f ms   speedup %5.1fx   coverage %.1f%%   identical: %s\n",
              "PPSFP (64 faults/word)", s_word * 1e3, s_old / s_word,
              100.0 * r_word.coverage(), gate_same ? "yes" : "NO — BUG");
  return gate_same ? 0 : 1;
}
