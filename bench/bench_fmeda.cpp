// E12 — ISO 26262 architectural metrics from simulation: diagnostic
// coverage per fault class is *measured* by CAPS campaigns (with and
// without ECC), combined with the mission-profile FIT rates into an FMEDA,
// and the resulting SPFM/LFM/PMHF are checked against the ASIL targets.
// The ablation shows how a single mechanism (SEC-DED ECC) moves the metrics.
// Each variant also prints the run counts every measured DC rests on.
//
// Usage: bench_fmeda [runs]   (runs per variant, default 250; a bad argument
// prints a usage line and exits 64)

#include <cstdio>
#include <map>
#include <optional>
#include <string>

#include "bench_args.hpp"
#include "vps/apps/caps.hpp"
#include "vps/fault/campaign.hpp"
#include "vps/mp/derivation.hpp"
#include "vps/mp/mission_profile.hpp"
#include "vps/safety/fmeda.hpp"
#include "vps/support/table.hpp"

using namespace vps;

namespace {

struct MeasuredDc {
  double dc = 0.0;
  bool safety_related = true;  ///< false when simulation never saw a dangerous outcome
  std::uint64_t runs = 0;
  std::uint64_t dangerous = 0;  ///< the DC's denominator
  std::uint64_t detected = 0;   ///< its numerator
};

/// Measured diagnostic coverage per fault type from one campaign.
std::map<fault::FaultType, MeasuredDc> measure_dc(const apps::CapsConfig& config,
                                                  std::size_t runs) {
  apps::CapsScenario scenario(config);
  fault::CampaignConfig cfg;
  cfg.runs = runs;
  cfg.seed = 99;
  fault::Campaign campaign(scenario, cfg);
  const auto result = campaign.run();

  std::map<fault::FaultType, MeasuredDc> dc;
  for (const auto& rec : result.records) {
    MeasuredDc& m = dc[rec.fault.type];
    ++m.runs;
    switch (rec.outcome) {
      case fault::Outcome::kDetectedCorrected:
      case fault::Outcome::kDetectedUncorrected:
        ++m.detected;
        ++m.dangerous;
        break;
      case fault::Outcome::kSilentDataCorruption:
      case fault::Outcome::kHazard:
      case fault::Outcome::kTimeout:
        ++m.dangerous;
        break;
      case fault::Outcome::kNoEffect:
      case fault::Outcome::kSimCrash:
        break;  // masked/quarantined faults are not part of the DC denominator
    }
  }
  for (auto& [type, m] : dc) {
    // A class the campaign never saw produce a safety-goal-relevant outcome
    // is, on the simulation evidence, not safety-related for this item (one
    // of the analyses VPs enable pre-silicon).
    m.safety_related = m.dangerous != 0;
    if (m.safety_related) {
      m.dc = static_cast<double>(m.detected) / static_cast<double>(m.dangerous);
    }
  }
  return dc;
}

/// The run counts each measured DC rests on, one row per fault type.
std::string render_evidence(const std::map<fault::FaultType, MeasuredDc>& dc) {
  support::Table table({"fault type", "runs", "dangerous", "detected", "DC"});
  for (const auto& [type, m] : dc) {
    char ratio[16];
    std::snprintf(ratio, sizeof ratio, "%.2f", m.dc);
    table.add_row({fault::to_string(type), std::to_string(m.runs), std::to_string(m.dangerous),
                   std::to_string(m.detected), m.safety_related ? ratio : "-"});
  }
  return table.render();
}

safety::Fmeda build_fmeda(const mp::FaultRateTable& rates,
                          const std::map<fault::FaultType, MeasuredDc>& dc) {
  safety::Fmeda fmeda;
  const auto dc_for = [&dc](fault::FaultType t) {
    const auto it = dc.find(t);
    return it == dc.end() ? MeasuredDc{0.0, true} : it->second;
  };
  const auto add = [&](mp::FaultClass c, const char* component, fault::FaultType t) {
    const auto m = dc_for(t);
    fmeda.add_row({component, mp::to_string(c), rates.mission_average_fit(c), m.safety_related,
                   m.dc, 0.9});
  };
  add(mp::FaultClass::kMemoryBitFlip, "sram", fault::FaultType::kMemoryBitFlip);
  add(mp::FaultClass::kRegisterUpset, "cpu", fault::FaultType::kRegisterBitFlip);
  add(mp::FaultClass::kCanCorruption, "can link", fault::FaultType::kCanFrameCorruption);
  add(mp::FaultClass::kSensorDrift, "accel sensor", fault::FaultType::kSensorOffset);
  add(mp::FaultClass::kConnectorOpen, "sensor harness", fault::FaultType::kSensorStuck);
  add(mp::FaultClass::kSupplyBrownout, "supply", fault::FaultType::kSupplyBrownout);
  return fmeda;
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<std::size_t> arg = bench::runs_arg(argc, argv, 250);
  if (!arg) return 64;  // EX_USAGE
  const std::size_t runs = *arg;
  const auto rates = mp::derive_fault_rates(mp::reference_car_profile());

  std::printf("== E12: FMEDA from measured diagnostic coverage (%zu runs/variant) ==\n\n", runs);

  // Safety goal under analysis: SG2 "deploy in a crash" (the crash variant
  // is where dangerous outcomes actually occur, so DC is measurable).
  for (const bool ecc : {false, true}) {
    apps::CapsConfig config;
    config.crash = true;
    config.duration = sim::Time::ms(15);
    config.ecc = ecc ? hw::EccMode::kSecded : hw::EccMode::kNone;
    const auto dc = measure_dc(config, runs);
    const auto fmeda = build_fmeda(rates, dc);
    const auto metrics = fmeda.metrics();
    std::printf("---- variant: %s ----\n\n%s\n", ecc ? "with SEC-DED ECC" : "without ECC",
                fmeda.render().c_str());
    std::printf("measured DC = detected / dangerous runs per fault type:\n%s\n",
                render_evidence(dc).c_str());
    std::printf("meets ASIL-B: %s   ASIL-C: %s   ASIL-D: %s\n\n",
                metrics.meets(safety::Asil::kB) ? "yes" : "no",
                metrics.meets(safety::Asil::kC) ? "yes" : "no",
                metrics.meets(safety::Asil::kD) ? "yes" : "no");
  }
  std::printf(
      "Expected shape (paper): the simulation-measured DC feeds the standard\n"
      "ISO 26262-5 computation; adding ECC lifts the SRAM row's DC to ~1 and\n"
      "visibly improves SPFM/PMHF. The architecture still misses the ASIL\n"
      "targets because the sensor harness path (connector-open -> missed\n"
      "deployment) has no safety mechanism — exactly the kind of weak spot\n"
      "the paper wants VPs to expose before silicon exists.\n");
  return 0;
}
