// Chaos campaign end to end: every link in the campaign service — server
// side, worker side, and tenant side — runs behind a seeded fault injector
// that drops frames, flips bits, delays and splits writes, and tears down
// connections mid-stream. The service has to heal all of it: the server
// requeues work lost with dead workers, the pool workers reconnect and
// re-REGISTER, and the tenant client rides out torn links by reattaching to
// its job by token. The verdict is the determinism contract: the folded
// record JSONL of the chaotic run must be byte-identical to a solo
// in-process campaign. Exits nonzero on any divergence — exactly how CI
// uses this program.
//
// Usage: chaos_campaign [chaos-seed]
//   The seed (default 1) keys the server/worker/client fault streams.
//   Per-connection streams are forked per pid and per session, so reruns
//   with the same seed in fresh processes still explore new schedules —
//   the invariant has to hold for all of them.

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include "vps/apps/caps.hpp"
#include "vps/apps/registry.hpp"
#include "vps/dist/coordinator.hpp"
#include "vps/dist/server.hpp"
#include "vps/dist/worker.hpp"
#include "vps/fault/campaign.hpp"
#include "vps/fault/checkpoint.hpp"

using namespace vps;

namespace {

constexpr const char* kHost = "127.0.0.1";

/// Forks a self-healing pool worker with outbound chaos on every session.
/// The child must be forked before the server thread starts (fork + threads
/// don't mix) and drops every inherited descriptor — above all the server's
/// listening socket, which would otherwise keep the port alive after the
/// server stops and turn worker shutdown into a black-hole wait.
pid_t fork_chaotic_worker(std::uint16_t port, std::uint64_t chaos_seed) {
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

}  // namespace

int main(int argc, char** argv) {
  const std::uint64_t seed =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 1;

  fault::CampaignConfig cfg;
  cfg.runs = 48;
  cfg.seed = 11;
  cfg.batch_size = 16;
  const fault::ScenarioFactory factory = [] {
    return std::make_unique<apps::CapsScenario>(apps::CapsConfig{.crash = true});
  };

  // 1. Solo in-process golden: the bits the chaotic run must reproduce.
  std::printf("== solo golden: caps:crash (%zu runs) ==\n", cfg.runs);
  const fault::CampaignResult solo = fault::ParallelCampaign(factory, cfg).run();

  // 2. Campaign server with chaos on every accepted connection's sends.
  dist::ServerConfig sc;
  sc.heartbeat_timeout_ms = 1500;
  sc.chaos.seed = seed;
  dist::CampaignServer server(sc);
  const std::uint16_t port = server.port();
  std::printf("== chaotic campaign server on port %u (seed %llu) ==\n", port,
              static_cast<unsigned long long>(seed));

  // 3. Four pool workers, each injecting faults on its own sends too.
  std::vector<pid_t> pool;
  for (int i = 0; i < 4; ++i) pool.push_back(fork_chaotic_worker(port, seed + 1));
  server.start();

  // 4. The tenant submits over an equally unreliable link.
  dist::DistConfig dc;
  dc.campaign = cfg;
  dc.server_host = kHost;
  dc.server_port = port;
  dc.tenant = "chaos";
  dc.scenario_spec = "caps:crash";
  dc.chaos.seed = seed + 2;
  dc.heartbeat_timeout_ms = 1000;
  dc.hello_timeout_ms = 3000;
  dc.max_requeues = 10;
  dc.reconnect_backoff_ms = 50;
  dc.reconnect_backoff_max_ms = 500;
  dist::DistCampaign campaign(factory, dc);
  const fault::CampaignResult chaotic = campaign.run();

  const dist::FleetStats fs = campaign.fleet_stats();
  std::printf(
      "== healed: %llu client reconnects, %llu frames dropped, %llu bytes corrupted ==\n",
      static_cast<unsigned long long>(fs.reconnects),
      static_cast<unsigned long long>(fs.chaos_frames_dropped),
      static_cast<unsigned long long>(fs.chaos_bytes_corrupted));

  // Every campaign is folded. A pool worker between sessions would retry the
  // stopped server's port until its reconnect budget ran out: end the pool.
  server.stop();
  for (pid_t pid : pool) ::kill(pid, SIGTERM);
  for (pid_t pid : pool) reap(pid);

  // 5. The verdict CI depends on: byte-identical folded JSONL.
  const std::string scenario = factory()->name();
  const std::string golden_jsonl = folded_jsonl(scenario, cfg, campaign.golden(), solo);
  const std::string chaos_jsonl = folded_jsonl(scenario, cfg, campaign.golden(), chaotic);
  const bool same = golden_jsonl == chaos_jsonl;
  std::printf("chaotic folded JSONL (%zu bytes) identical to solo: %s\n", golden_jsonl.size(),
              same ? "yes" : "NO — BUG");
  if (!same) {
    fault::save_checkpoint(
        fault::CampaignCheckpoint{"parallel_campaign", scenario, cfg, campaign.golden(),
                                  solo.records},
        "chaos_campaign.solo.jsonl");
    fault::save_checkpoint(
        fault::CampaignCheckpoint{"parallel_campaign", scenario, cfg, campaign.golden(),
                                  chaotic.records},
        "chaos_campaign.chaotic.jsonl");
    std::printf("  wrote chaos_campaign.{solo,chaotic}.jsonl for inspection\n");
  }
  return same ? 0 : 1;
}
