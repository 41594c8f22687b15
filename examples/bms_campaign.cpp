// CI e2e for the BMS virtual ECU twin — two halves, one exit code:
//
//   (1) Replay-engine guard: the same BMS campaigns run with snapshot
//       replay forced OFF (every run a full replay — the golden) and ON
//       (runs fork from cached epoch snapshots), exported as
//       checkpoint-codec JSONL and byte-diffed. Any divergence — an
//       outcome, a provenance edge, a hexfloat digit — exits nonzero.
//
//   (2) Safety pipeline: the provenance-traced runaway campaign feeds the
//       ISO 26262-5 FMEDA — claimed diagnostic coverage replaced by the
//       campaign's measured per-fault-type coverage, and the measured p99
//       detection latency checked against each row's FTTI budget (a
//       detection arriving after the FTTI credits nothing). This is the
//       E23 pipeline of EXPERIMENTS.md in miniature.

#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <string>

#include "vps/apps/registry.hpp"
#include "vps/fault/campaign.hpp"
#include "vps/fault/codec.hpp"
#include "vps/safety/fmeda.hpp"

using namespace vps;

namespace {

fault::ScenarioFactory factory(const std::string& spec) {
  return [spec] { return apps::make_scenario(spec); };
}

std::string to_jsonl(const fault::CampaignResult& result) {
  std::string out;
  for (std::size_t i = 0; i < result.records.size(); ++i) {
    std::string line = "{";
    fault::codec::append_record(line, result.records[i], i);
    line += "}";
    out += fault::codec::with_crc(line);
    out += '\n';
  }
  return out;
}

bool check(const std::string& spec, std::size_t runs, const std::string& jsonl_dir,
           fault::CampaignResult* keep_forked = nullptr) {
  fault::CampaignConfig cfg;
  cfg.runs = runs;
  cfg.seed = 2311;
  cfg.strategy = fault::Strategy::kGuided;
  cfg.location_buckets = 8;
  cfg.workers = 4;
  cfg.batch_size = 8;

  // The driver applies the config's replay mode to every scenario it
  // builds, so the reference is forced through the config, not the factory.
  fault::CampaignConfig full_cfg = cfg;
  full_cfg.snapshot_replay = false;
  const auto golden = fault::ParallelCampaign(factory(spec), full_cfg).run();
  auto forked = fault::ParallelCampaign(factory(spec), cfg).run();

  const std::string golden_jsonl = to_jsonl(golden);
  const std::string forked_jsonl = to_jsonl(forked);

  // Keep the artifacts: on mismatch CI uploads them for a line diff.
  std::string base = spec;
  for (char& c : base) {
    if (c == ':') c = '_';
  }
  std::ofstream(jsonl_dir + "/" + base + ".full.jsonl") << golden_jsonl;
  std::ofstream(jsonl_dir + "/" + base + ".forked.jsonl") << forked_jsonl;

  const bool records_same = golden_jsonl == forked_jsonl;
  const bool metrics_same = golden.outcome_counts == forked.outcome_counts &&
                            golden.final_coverage == forked.final_coverage &&
                            golden.provenance_jsonl() == forked.provenance_jsonl();
  std::printf("%-24s %3zu runs  %6zu JSONL bytes  records: %s  metrics: %s\n", spec.c_str(), runs,
              golden_jsonl.size(), records_same ? "identical" : "DIVERGED",
              metrics_same ? "identical" : "DIVERGED");
  if (keep_forked != nullptr) *keep_forked = std::move(forked);
  return records_same && metrics_same;
}

/// How one campaign fault type appears in the FMEDA: which physical
/// component fails, how, at what assumed rate, and how quickly the safety
/// mechanism must react for its detection to count (the FTTI budget).
struct FmedaBinding {
  fault::FaultType type;
  const char* component;
  const char* failure_mode;
  double fit;
  /// Runaway physics: over-temp crossing ~3.2 s after onset, hazard
  /// temperature ~6.7 s — sensing faults get the ~3.5 s in between.
  /// Telemetry/OS faults are covered by the 1.5 s alive timeout and the
  /// per-period deadline monitors, so their budgets are tighter.
  double ftti_budget_s;
};

bool report_fmeda(const fault::CampaignResult& campaign, sim::Time mission) {
  static constexpr FmedaBinding kBindings[] = {
      {fault::FaultType::kSensorOffset, "cell sensor", "offset drift", 18.0, 3.5},
      {fault::FaultType::kSensorStuck, "cell sensor", "stuck-at", 12.0, 3.5},
      {fault::FaultType::kBusErrorInjection, "telemetry uart", "line error", 25.0, 2.0},
      {fault::FaultType::kTaskKill, "bms mcu", "task kill", 6.0, 2.0},
      {fault::FaultType::kExecutionSlowdown, "bms mcu", "execution slowdown", 9.0, 2.0},
  };

  // Measured per-type diagnostic coverage: detected over dangerous+detected.
  struct TypeCounts {
    std::uint64_t injected = 0;
    std::uint64_t bad = 0;
    std::uint64_t detected = 0;
  };
  std::map<fault::FaultType, TypeCounts> per_type;
  for (const auto& rec : campaign.records) {
    auto& c = per_type[rec.fault.type];
    ++c.injected;
    c.bad += rec.outcome == fault::Outcome::kHazard ||
             rec.outcome == fault::Outcome::kSilentDataCorruption ||
             rec.outcome == fault::Outcome::kTimeout;
    c.detected += rec.outcome == fault::Outcome::kDetectedCorrected ||
                  rec.outcome == fault::Outcome::kDetectedUncorrected;
  }

  const double hi_us = mission.to_seconds() * 1e6;
  const auto latency = campaign.detection_latency_stats(0.0, hi_us, 2048);

  safety::Fmeda fmeda;
  std::size_t measured_rows = 0;
  for (const auto& b : kBindings) {
    safety::FmedaRow row;
    row.component = b.component;
    row.failure_mode = b.failure_mode;
    row.fit = b.fit;
    row.safety_related = true;
    row.latent_coverage = 0.9;
    row.ftti_budget_s = b.ftti_budget_s;
    // A type whose every injection folded to no-effect never endangered the
    // goal; credit it fully rather than claiming an untestable mechanism.
    const auto it = per_type.find(b.type);
    const std::uint64_t relevant = it == per_type.end() ? 0 : it->second.bad + it->second.detected;
    row.diagnostic_coverage =
        relevant == 0 ? 1.0
                      : static_cast<double>(it->second.detected) / static_cast<double>(relevant);
    fmeda.add_row(row);
    for (const auto& ls : latency) {
      if (ls.type == b.type && ls.detected > 0) {
        measured_rows += fmeda.set_measured_latency(b.component, b.failure_mode,
                                                    ls.latency_us.percentile(0.99) / 1e6);
      }
    }
  }
  // Non-safety-related filler so SPFM is computed over a realistic base.
  fmeda.add_row({"pack enclosure", "cosmetic", 40.0, false, 0.0, 1.0});

  std::printf("\n== FMEDA from the traced runaway campaign ==\n\n%s\n", fmeda.render().c_str());
  std::printf("%s\n", campaign.render_latency(0.0, hi_us, 2048).c_str());

  const auto metrics = fmeda.metrics();
  std::printf("SPFM %.4f  LFM %.4f  PMHF %.2f FIT  -> meets ASIL C: %s\n", metrics.spfm,
              metrics.lfm, metrics.pmhf_fit, metrics.meets(safety::Asil::kC) ? "yes" : "NO");

  // The pipeline itself must have closed the loop: at least one row carries
  // a campaign-measured latency, and the traced mechanisms kept coverage.
  if (measured_rows == 0) {
    std::printf("FMEDA ERROR: no detection latency measured — provenance missing?\n");
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string dir = argc > 1 ? argv[1] : ".";
  std::printf("== BMS campaigns: snapshot-forked vs full-replay golden (JSONL byte diff) ==\n");
  bool ok = true;
  fault::CampaignResult runaway;
  ok = check("bms:runaway:quick:prov", 32, dir, &runaway) && ok;
  ok = check("bms:short:quick:prov", 24, dir) && ok;
  ok = check("bms:nominal:quick", 16, dir) && ok;
  if (!ok) {
    std::printf("DIVERGENCE: snapshot-forked replay is not bitwise equal to full replay\n");
    return 1;
  }
  std::printf("all BMS campaigns bitwise identical with snapshot replay on/off\n");

  const auto mission = apps::make_scenario("bms:runaway:quick")->duration();
  if (!report_fmeda(runaway, mission)) return 1;
  return 0;
}
