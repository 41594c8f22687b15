// CI guard for snapshot-and-fork replay: run the same campaign with
// snapshot replay forced OFF (every run is a full replay — the golden) and
// forced ON (runs fork from cached epoch snapshots), export both record
// streams as checkpoint-codec JSONL, and byte-diff them. Any divergence —
// an outcome, a provenance edge, a hexfloat digit — exits nonzero. Covers
// CAPS (provenance-heavy, unprotected, SEC-DED RAM), ACC (timing-heavy)
// and BMS (UART-heavy, provenance) under the parallel driver.
//
// Both sides of this diff run the same ISS and kernel, so CI also compares
// the `*.full.jsonl` files against tests/golden/replay_equivalence/,
// written by earlier revisions: a change to the simulation itself (e.g.
// the ISS's loop fast-forward or the kernel's inline timed steps) must
// leave every record bit in place.

#include <cstdio>
#include <fstream>
#include <memory>
#include <string>

#include "vps/apps/registry.hpp"
#include "vps/fault/campaign.hpp"
#include "vps/fault/codec.hpp"

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

bool check(const std::string& spec, std::size_t runs, const std::string& jsonl_dir) {
  fault::CampaignConfig cfg;
  cfg.runs = runs;
  cfg.seed = 2027;
  cfg.strategy = fault::Strategy::kGuided;
  cfg.location_buckets = 8;
  cfg.workers = 4;
  cfg.batch_size = 16;

  // The driver applies the config's replay mode to every scenario it
  // builds, so the reference is forced through the config, not the factory.
  fault::CampaignConfig full_cfg = cfg;
  full_cfg.snapshot_replay = false;
  const auto golden = fault::ParallelCampaign(factory(spec), full_cfg).run();
  const auto forked = fault::ParallelCampaign(factory(spec), cfg).run();

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
                            golden.coverage_curve == forked.coverage_curve;
  std::printf("%-28s %3zu runs  %5zu JSONL bytes  records: %s  metrics: %s\n", spec.c_str(),
              runs, golden_jsonl.size(), records_same ? "identical" : "DIVERGED",
              metrics_same ? "identical" : "DIVERGED");
  return records_same && metrics_same;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string dir = argc > 1 ? argv[1] : ".";
  std::printf("== snapshot-forked campaign vs full-replay golden (JSONL byte diff) ==\n");
  bool ok = true;
  ok = check("caps:crash:protected:prov", 48, dir) && ok;
  ok = check("caps:normal:unprotected", 32, dir) && ok;
  ok = check("caps:crash:ecc", 32, dir) && ok;
  ok = check("acc", 32, dir) && ok;
  ok = check("bms:runaway:prov", 32, dir) && ok;
  if (!ok) {
    std::printf("DIVERGENCE: snapshot-forked replay is not bitwise equal to full replay\n");
    return 1;
  }
  std::printf("all campaigns bitwise identical with snapshot replay on/off\n");
  return 0;
}
