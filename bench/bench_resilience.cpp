// E16 — resilience machinery cost. Four questions: (1) what does the
// watchdog budget check add to the scheduler hot loop (target: <= ~2% with
// no budget set — the check then degenerates to one branch per delta and
// per activation); (2) what do periodic checkpoints add to a campaign and
// how fast is a save/load round trip; (3) what does a barrier save cost as
// the checkpoint grows (prints BUG: and exits 1 if the file differs from
// to_jsonl or the writer wrote more than the file plus one end line per
// save); (4) what does the crash-isolation boundary (try/catch per replay
// + retries) cost when nothing throws.
//
// Usage: bench_resilience [horizon_ns] [runs] — integers >= 1 (defaults
// 300000 and 200); anything else prints a usage line and exits 64.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench_args.hpp"
#include "vps/apps/caps.hpp"
#include "vps/apps/registry.hpp"
#include "vps/fault/campaign.hpp"
#include "vps/fault/checkpoint.hpp"
#include "vps/sim/kernel.hpp"
#include "vps/support/table.hpp"

using namespace vps;

namespace {

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// A delta-heavy workload: `procs` processes each ticking every ns with an
/// extra delta hop, so both budget check sites (per activation, per delta)
/// sit on the measured path.
double run_workload(std::uint64_t horizon_ns, const sim::RunBudget& budget, bool budgeted) {
  sim::Kernel kernel;
  for (int p = 0; p < 4; ++p) {
    kernel.spawn("load" + std::to_string(p), [](sim::Kernel& k, std::uint64_t horizon) -> sim::Coro {
      while (k.now().picoseconds() < horizon * 1000) {
        co_await sim::delay(sim::Time::ns(1));
      }
    }(kernel, horizon_ns));
  }
  const auto t0 = std::chrono::steady_clock::now();
  if (budgeted) {
    (void)kernel.run(sim::Time::max(), budget);
  } else {
    (void)kernel.run();  // legacy unbudgeted entry point
  }
  return ms_since(t0);
}

fault::CampaignConfig campaign_config(std::size_t runs) {
  fault::CampaignConfig cfg;
  cfg.runs = runs;
  cfg.seed = 16;
  cfg.location_buckets = 8;
  return cfg;
}

apps::CapsScenario caps() {
  return apps::CapsScenario(apps::CapsConfig{.duration = sim::Time::ms(10)});
}

/// Nearest-rank percentile of `samples`.
double percentile(std::vector<double> samples, double p) {
  std::sort(samples.begin(), samples.end());
  const auto rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(samples.size())));
  return samples[std::max<std::size_t>(rank, 1) - 1];
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// A barrier save as the checkpoint grows: one CheckpointWriter fed 400
/// barriers of 16 records, the records of a short bms:runaway:prov campaign
/// cycled. Returns false after printing BUG: when the final file differs
/// from to_jsonl() or the writer wrote more than the final file plus one end
/// line per save.
bool barrier_saves() {
  constexpr std::size_t kBarriers = 400;
  constexpr std::size_t kPerBarrier = 16;
  constexpr std::size_t kWindow = 50;
  const std::string spec = "bms:runaway:prov";
  fault::CampaignConfig cfg;
  cfg.runs = 64;
  cfg.seed = 2026;
  cfg.location_buckets = 8;
  cfg.batch_size = kPerBarrier;
  cfg.workers = 1;
  fault::ParallelCampaign campaign([&spec] { return apps::make_scenario(spec); }, cfg);
  const fault::CampaignResult source = campaign.run();

  fault::CampaignCheckpoint cp;
  cp.driver = "parallel_campaign";
  cp.scenario = apps::make_scenario(spec)->name();
  cp.config = cfg;
  cp.golden = campaign.golden();
  const std::string path = "/tmp/vps_bench_resilience_saves.jsonl";
  std::remove(path.c_str());
  fault::CheckpointWriter writer(path, cp.driver, cp.scenario, cp.config, cp.golden);
  std::vector<double> save_us;
  for (std::size_t b = 0; b < kBarriers; ++b) {
    for (std::size_t i = 0; i < kPerBarrier; ++i) {
      cp.records.push_back(source.records[cp.records.size() % source.records.size()]);
    }
    const auto t0 = std::chrono::steady_clock::now();
    writer.save(cp.records);
    save_us.push_back(ms_since(t0) * 1e3);
  }
  const std::string file = read_file(path);
  std::remove(path.c_str());
  const std::string expected = fault::to_jsonl(cp);
  const std::size_t end_line = expected.size() - (expected.rfind('\n', expected.size() - 2) + 1);
  const std::uint64_t bound = expected.size() + writer.saves() * end_line;

  std::printf("-- barrier saves (%zu barriers of %zu %s records, cycled from %zu) --\n",
              kBarriers, kPerBarrier, spec.c_str(), source.records.size());
  support::Table t({"metric", "value"});
  char buf[96];
  std::snprintf(buf, sizeof buf, "%llu B", static_cast<unsigned long long>(writer.bytes_written()));
  t.add_row({"bytes written", buf});
  std::snprintf(buf, sizeof buf, "%zu B (%zu records)", file.size(), cp.records.size());
  t.add_row({"final file size", buf});
  std::snprintf(buf, sizeof buf, "%llu B (%llu saves x %zu B end line)",
                static_cast<unsigned long long>(bound - expected.size()),
                static_cast<unsigned long long>(writer.saves()), end_line);
  t.add_row({"bound: final size +", buf});
  const std::vector<double> first(save_us.begin(), save_us.begin() + kWindow);
  const std::vector<double> last(save_us.end() - kWindow, save_us.end());
  std::snprintf(buf, sizeof buf, "%.1f / %.1f", percentile(first, 0.5), percentile(first, 0.99));
  t.add_row({"save us p50 / p99, first 50 saves", buf});
  std::snprintf(buf, sizeof buf, "%.1f / %.1f", percentile(last, 0.5), percentile(last, 0.99));
  t.add_row({"save us p50 / p99, last 50 saves", buf});
  std::printf("%s\n", t.render().c_str());

  bool ok = true;
  if (file != expected) {
    std::printf("BUG: the final checkpoint differs from to_jsonl() of the same records\n");
    ok = false;
  }
  if (writer.bytes_written() > bound) {
    std::printf("BUG: %llu bytes written exceed the final size plus one end line per save (%llu)\n",
                static_cast<unsigned long long>(writer.bytes_written()),
                static_cast<unsigned long long>(bound));
    ok = false;
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t horizon = 300'000;  // ns of kernel workload
  std::uint64_t runs = 200;
  if (argc > 3 || (argc > 1 && !bench::parse_count(argv[1], horizon)) ||
      (argc > 2 && !bench::parse_count(argv[2], runs))) {
    std::fprintf(stderr,
                 "usage: %s [horizon_ns] [runs]   (integers >= 1, defaults 300000 and 200)\n",
                 argv[0]);
    return 64;  // EX_USAGE
  }

  std::printf("== E16: resilience machinery cost ==\n\n");

  // --- 1. scheduler budget-check overhead ---------------------------------
  std::printf("-- budget checks (%llu ns delta-heavy workload, 4 processes) --\n",
              static_cast<unsigned long long>(horizon));
  (void)run_workload(horizon, {}, false);  // warm-up
  const double base_ms = run_workload(horizon, {}, false);
  const double unlimited_ms = run_workload(horizon, sim::RunBudget{}, true);
  const double guarded_ms = run_workload(
      horizon, sim::RunBudget{.max_deltas_without_advance = std::uint64_t{1} << 20}, true);
  support::Table sched({"configuration", "wall ms", "overhead"});
  char buf[64], ovh[32];
  std::snprintf(buf, sizeof buf, "%.1f", base_ms);
  sched.add_row({"legacy run() (no budget)", buf, "(baseline)"});
  std::snprintf(buf, sizeof buf, "%.1f", unlimited_ms);
  std::snprintf(ovh, sizeof ovh, "%+.1f%%", (unlimited_ms / base_ms - 1.0) * 100.0);
  sched.add_row({"budgeted run, RunBudget{} (unlimited)", buf, ovh});
  std::snprintf(buf, sizeof buf, "%.1f", guarded_ms);
  std::snprintf(ovh, sizeof ovh, "%+.1f%%", (guarded_ms / base_ms - 1.0) * 100.0);
  sched.add_row({"budgeted run, livelock guard armed", buf, ovh});
  std::printf("%s\n", sched.render().c_str());

  // --- 2. checkpoint cost --------------------------------------------------
  std::printf("-- checkpointing (CAPS campaign, %llu runs) --\n",
              static_cast<unsigned long long>(runs));
  const std::string path = "/tmp/vps_bench_resilience_cp.jsonl";
  auto plain_scn = caps();
  auto t0 = std::chrono::steady_clock::now();
  const auto plain = fault::Campaign(plain_scn, campaign_config(runs)).run();
  const double plain_ms = ms_since(t0);

  auto cp_cfg = campaign_config(runs);
  cp_cfg.checkpoint_every = 25;
  cp_cfg.checkpoint_path = path;
  auto cp_scn = caps();
  t0 = std::chrono::steady_clock::now();
  const auto checkpointed = fault::Campaign(cp_scn, cp_cfg).run();
  const double cp_ms = ms_since(t0);

  // Direct save/load round trip on the full record set.
  fault::CampaignCheckpoint cp;
  cp.driver = "parallel_campaign";
  cp.scenario = plain_scn.name();
  cp.config = cp_cfg;
  cp.golden = plain_scn.run(nullptr, cp_cfg.seed);
  cp.records = plain.records;
  t0 = std::chrono::steady_clock::now();
  fault::save_checkpoint(cp, path);
  const double save_ms = ms_since(t0);
  t0 = std::chrono::steady_clock::now();
  const auto loaded = fault::load_checkpoint(path);
  const double load_ms = ms_since(t0);

  support::Table cpt({"metric", "value"});
  std::snprintf(buf, sizeof buf, "%.1f ms", plain_ms);
  cpt.add_row({"campaign, no checkpoints", buf});
  std::snprintf(buf, sizeof buf, "%.1f ms (%+.1f%%)", cp_ms, (cp_ms / plain_ms - 1.0) * 100.0);
  cpt.add_row({"campaign, checkpoint every 25 runs", buf});
  std::snprintf(buf, sizeof buf, "%.2f ms (%zu records)", save_ms, cp.records.size());
  cpt.add_row({"save_checkpoint", buf});
  std::snprintf(buf, sizeof buf, "%.2f ms (%zu records)", load_ms, loaded.records.size());
  cpt.add_row({"load_checkpoint", buf});
  std::printf("%s\n", cpt.render().c_str());
  std::remove(path.c_str());
  (void)checkpointed;

  // --- 3. barrier saves as the checkpoint grows ----------------------------
  if (!barrier_saves()) return 1;

  // --- 4. crash-isolation boundary ----------------------------------------
  std::printf("-- crash isolation (try/catch + classify per replay) --\n");
  // The boundary is exercised on every run of both campaigns above; here we
  // time replay_isolated directly against a raw run+classify loop.
  auto scn = caps();
  const auto golden = scn.run(nullptr, 1);
  fault::FaultDescriptor fd;
  fd.id = 1;
  fd.type = fault::FaultType::kCanFrameCorruption;
  fd.inject_at = sim::Time::ms(2);
  const int reps = 50;
  t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < reps; ++i) {
    (void)fault::classify(golden, scn.run(&fd, 1));
  }
  const double raw_ms = ms_since(t0);
  t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < reps; ++i) {
    (void)fault::replay_isolated(scn, fd, 1, golden, 1);
  }
  const double isolated_ms = ms_since(t0);
  support::Table iso({"replay path", "wall ms / replay", "overhead"});
  std::snprintf(buf, sizeof buf, "%.2f", raw_ms / reps);
  iso.add_row({"raw run + classify", buf, "(baseline)"});
  std::snprintf(buf, sizeof buf, "%.2f", isolated_ms / reps);
  std::snprintf(ovh, sizeof ovh, "%+.1f%%", (isolated_ms / raw_ms - 1.0) * 100.0);
  iso.add_row({"replay_isolated (exception boundary)", buf, ovh});
  std::printf("%s\n", iso.render().c_str());

  std::printf(
      "Acceptance: the unlimited-budget row must stay within ~2%% of the\n"
      "legacy baseline (single hoisted branch per delta/activation), and the\n"
      "exception boundary must be free when nothing throws.\n");
  return 0;
}
