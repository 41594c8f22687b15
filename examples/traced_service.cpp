// Traced campaign service end to end: two tenants share one chaotic
// campaign server with run-lifecycle tracing armed on every tier — the
// server, all four pool workers, and both tenant clients each write their
// own trace JSONL. After the campaigns fold, the per-process files are
// merged the way tools/vps-tracecat does it (same library calls) and the
// program asserts the two properties the observability layer promises:
//
//   1. Determinism: tracing is pure observation. Both tenants' folded
//      record JSONL must be byte-identical to a solo in-process campaign
//      run with tracing off — chaos, healing and tracing all armed cannot
//      move a single bit of campaign output.
//   2. Completeness: every run of both tenants leaves the full
//      submit → admission → dispatch → replay → stream → fold chain in
//      the merged timeline. A missing hop means lost instrumentation.
//
// Artifacts (written to the working directory, uploaded by CI on failure):
//   traced_service.chains.txt   per-run chain summary (golden-diffed by CI)
//   traced_service.trace.json   merged Chrome-trace timeline (Perfetto)
//
// Usage: traced_service [chaos-seed]   (default 1)

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include "vps/apps/caps.hpp"
#include "vps/apps/registry.hpp"
#include "vps/dist/coordinator.hpp"
#include "vps/dist/server.hpp"
#include "vps/dist/trace.hpp"
#include "vps/dist/worker.hpp"
#include "vps/fault/campaign.hpp"
#include "vps/fault/checkpoint.hpp"
#include "vps/obs/trace.hpp"

using namespace vps;

namespace {

constexpr const char* kHost = "127.0.0.1";
constexpr const char* kTraceDir = "traced_service_traces";

/// Forks a self-healing pool worker with chaos and tracing both armed. Must
/// be forked before the server thread starts (fork + threads don't mix);
/// drops every inherited descriptor so the server's listener dies with the
/// server, not with the last worker.
pid_t fork_traced_worker(std::uint16_t port, std::uint64_t chaos_seed) {
  const pid_t pid = ::fork();
  if (pid != 0) return pid;
  for (int fd = 3; fd < 1024; ++fd) ::close(fd);
  dist::PoolConfig pc;
  pc.host = kHost;
  pc.port = port;
  pc.backoff_initial_ms = 20;
  pc.backoff_max_ms = 150;
  pc.max_reconnects = 40;
  pc.idle_timeout_ms = 2000;
  pc.chaos.seed = chaos_seed;
  pc.trace_dir = kTraceDir;
  const int code = dist::serve_pool(
      pc, [](const dist::SetupMsg& setup) { return apps::make_scenario(setup.scenario_spec); });
  ::_exit(code);
}

void reap(pid_t pid) {
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
}

std::string folded_jsonl(const std::string& scenario, const fault::CampaignConfig& cfg,
                         const fault::Observation& golden, const fault::CampaignResult& result) {
  fault::CampaignCheckpoint cp;
  cp.driver = "parallel_campaign";
  cp.scenario = scenario;
  cp.config = cfg;
  cp.golden = golden;
  cp.records = result.records;
  return to_jsonl(cp);
}

bool write_file(const char* path, const std::string& data) {
  std::FILE* out = std::fopen(path, "wb");
  if (out == nullptr) return false;
  const bool ok = std::fwrite(data.data(), 1, data.size(), out) == data.size();
  std::fclose(out);
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  const std::uint64_t seed = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 1;

  // Fresh trace directory: stale files from a previous run would pollute the
  // merged timeline (and the golden-diffed chain summary).
  std::error_code ec;
  std::filesystem::remove_all(kTraceDir, ec);
  std::filesystem::create_directory(kTraceDir);

  fault::CampaignConfig cfg;
  cfg.runs = 48;
  cfg.seed = 11;
  cfg.batch_size = 16;
  const fault::ScenarioFactory factory = [] {
    return std::make_unique<apps::CapsScenario>(apps::CapsConfig{.crash = true});
  };

  // 1. Solo in-process golden, tracing off: the bits both tenants must hit.
  std::printf("== solo golden: caps:crash (%zu runs), tracing off ==\n", cfg.runs);
  const fault::CampaignResult solo = fault::ParallelCampaign(factory, cfg).run();

  // 2. Traced chaotic campaign server.
  dist::ServerConfig sc;
  sc.heartbeat_timeout_ms = 1500;
  sc.chaos.seed = seed;
  sc.trace_dir = kTraceDir;
  dist::CampaignServer server(sc);
  const std::uint16_t port = server.port();
  std::printf("== traced chaotic campaign server on port %u (seed %llu) ==\n", port,
              static_cast<unsigned long long>(seed));

  // 3. Four traced pool workers — forked before any thread starts.
  std::vector<pid_t> pool;
  for (int i = 0; i < 4; ++i) pool.push_back(fork_traced_worker(port, seed + 1));
  server.start();

  // 4. Two tenants submit concurrently, both traced, over chaotic links.
  const auto tenant_config = [&](const char* tenant, std::uint64_t chaos_seed) {
    dist::DistConfig dc;
    dc.campaign = cfg;
    dc.server_host = kHost;
    dc.server_port = port;
    dc.tenant = tenant;
    dc.scenario_spec = "caps:crash";
    dc.chaos.seed = chaos_seed;
    dc.heartbeat_timeout_ms = 1000;
    dc.hello_timeout_ms = 3000;
    dc.max_requeues = 10;
    dc.reconnect_backoff_ms = 50;
    dc.reconnect_backoff_max_ms = 500;
    dc.trace_dir = kTraceDir;
    return dc;
  };
  dist::DistCampaign campaign_a(factory, tenant_config("tenant-a", seed + 2));
  dist::DistCampaign campaign_b(factory, tenant_config("tenant-b", seed + 3));
  fault::CampaignResult result_b;
  std::thread tenant_b([&] { result_b = campaign_b.run(); });
  const fault::CampaignResult result_a = campaign_a.run();
  tenant_b.join();

  const dist::FleetStats fa = campaign_a.fleet_stats();
  const dist::FleetStats fb = campaign_b.fleet_stats();
  std::printf("== healed: %llu reconnects, %llu frames dropped, %llu bytes corrupted ==\n",
              static_cast<unsigned long long>(fa.reconnects + fb.reconnects),
              static_cast<unsigned long long>(fa.chaos_frames_dropped + fb.chaos_frames_dropped),
              static_cast<unsigned long long>(fa.chaos_bytes_corrupted + fb.chaos_bytes_corrupted));

  // Every campaign is folded. A pool worker between sessions would retry the
  // stopped server's port until its reconnect budget ran out: end the pool.
  server.stop();
  for (pid_t pid : pool) ::kill(pid, SIGTERM);
  for (pid_t pid : pool) reap(pid);

  // 5. Determinism verdict: both traced chaotic folds byte-identical to solo.
  const std::string scenario = factory()->name();
  const std::string golden_jsonl = folded_jsonl(scenario, cfg, campaign_a.golden(), solo);
  const std::string jsonl_a = folded_jsonl(scenario, cfg, campaign_a.golden(), result_a);
  const std::string jsonl_b = folded_jsonl(scenario, cfg, campaign_b.golden(), result_b);
  const bool bits_ok = golden_jsonl == jsonl_a && golden_jsonl == jsonl_b;
  std::printf("traced+chaotic folds identical to untraced solo: %s\n",
              bits_ok ? "yes" : "NO — BUG");
  if (!bits_ok) {
    fault::save_checkpoint(fault::CampaignCheckpoint{"parallel_campaign", scenario, cfg,
                                                     campaign_a.golden(), solo.records},
                           "traced_service.solo.jsonl");
    fault::save_checkpoint(fault::CampaignCheckpoint{"parallel_campaign", scenario, cfg,
                                                     campaign_a.golden(), result_a.records},
                           "traced_service.tenant_a.jsonl");
    fault::save_checkpoint(fault::CampaignCheckpoint{"parallel_campaign", scenario, cfg,
                                                     campaign_b.golden(), result_b.records},
                           "traced_service.tenant_b.jsonl");
    std::printf("  wrote traced_service.{solo,tenant_a,tenant_b}.jsonl for inspection\n");
  }

  // 6. Merge the per-process traces (vps-tracecat's library path) and demand
  //    a complete six-hop chain for every run of both tenants.
  const std::vector<std::string> files = dist::list_trace_files(kTraceDir);
  std::printf("== merging %zu trace files ==\n", files.size());
  const dist::DistTrace trace = dist::load_dist_trace(files);
  obs::ChromeTraceSink timeline("traced_service.trace.json");
  dist::merge_to_chrome(trace, timeline);
  if (!write_file("traced_service.chains.txt", dist::chains_summary(trace)) ||
      !timeline.close()) {
    std::fprintf(stderr, "traced_service: cannot write artifacts\n");
    return 1;
  }
  const std::vector<std::string> missing = dist::incomplete_chains(trace);
  std::printf("lifecycle chains complete for all runs: %s\n",
              missing.empty() ? "yes" : "NO — BUG");
  for (const std::string& line : missing) std::printf("  incomplete: %s\n", line.c_str());
  std::printf("artifacts: traced_service.chains.txt, traced_service.trace.json (%zu sources)\n",
              trace.sources.size());

  return bits_ok && missing.empty() ? 0 : 1;
}
