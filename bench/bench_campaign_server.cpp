// E20 — campaign-server overhead: runs/second of the same CAPS crash
// campaign submitted to the persistent campaign server (standing 4-worker
// pool, jobs multiplexed over one TCP listener) vs E18's one-shot
// distributed fleet (fork per campaign) and the in-process baseline. The
// interesting deltas: the per-run tax of the server hop on a cold pool
// (first submission pays the SETUP/HELLO handshake), on a warm pool
// (fleet spin-up amortized away), and with two tenants sharing the pool
// concurrently. Every configuration must reproduce the baseline bitwise.
// The plain warm-pool campaign and each taxed E21/E22 campaign run five
// rounds, alternated run by run on standing fleets, so host drift lands
// on both sides of a tax. A tax is the taxed row's median over its
// reference's median, and it reads as unresolved while the two rows'
// min–max ranges overlap.
//
// Usage: bench_campaign_server [runs]   (default 96; a bad argument prints
// a usage line and exits 64)

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "bench_args.hpp"
#include "vps/apps/registry.hpp"
#include "vps/dist/coordinator.hpp"
#include "vps/dist/server.hpp"
#include "vps/dist/transport.hpp"
#include "vps/dist/worker.hpp"
#include "vps/fault/campaign.hpp"

using namespace vps;
using Clock = std::chrono::steady_clock;

namespace {

constexpr const char* kHost = "127.0.0.1";

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Pool workers rebuild the scenario from the registry spec, so the client
// factory must be the registry's own — any private config tweak (e.g. a
// shortened sim duration) would silently fold a different campaign.
fault::ScenarioFactory caps_factory() {
  return [] { return apps::make_scenario("caps:crash"); };
}

/// Pool worker on a single session. Like fork_chaos_worker, it drops every
/// inherited fd: the other standing servers' listeners among them.
pid_t fork_pool_worker(std::uint16_t port) {
  const pid_t pid = ::fork();
  if (pid != 0) return pid;
  for (int fd = 3; fd < 1024; ++fd) ::close(fd);
  int code = 3;
  {
    dist::Channel channel(dist::tcp_connect(kHost, port));
    code = dist::serve_pool(channel, [](const dist::SetupMsg& setup) {
      return apps::make_scenario(setup.scenario_spec);
    });
  }
  ::_exit(code);
}

/// Self-healing pool worker with a chaos policy on its sends (E21) and/or a
/// trace directory (E22). Drops every inherited fd — above all the server's
/// listening socket, which would otherwise outlive the server in this child
/// and black-hole reconnects.
pid_t fork_chaos_worker(std::uint16_t port, const dist::ChaosConfig& chaos,
                        const std::string& trace_dir = {}) {
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
  pc.chaos = chaos;
  pc.trace_dir = trace_dir;
  ::_exit(dist::serve_pool(
      pc, [](const dist::SetupMsg& setup) { return apps::make_scenario(setup.scenario_spec); }));
}

fault::CampaignResult submit(std::uint16_t port, const char* tenant,
                             const fault::CampaignConfig& cfg,
                             const dist::ChaosConfig& chaos = {},
                             const std::string& trace_dir = {}) {
  dist::DistConfig dc;
  dc.campaign = cfg;
  dc.server_host = kHost;
  dc.server_port = port;
  dc.tenant = tenant;
  dc.scenario_spec = "caps:crash";
  dc.chaos = chaos;
  dc.trace_dir = trace_dir;
  dist::DistCampaign campaign(caps_factory(), dc);
  return campaign.run();
}

void reap_all(const std::vector<pid_t>& pool) {
  for (const pid_t pid : pool) {
    int status = 0;
    pid_t r;
    do {
      r = ::waitpid(pid, &status, 0);
    } while (r < 0 && errno == EINTR);
  }
}

bool identical(const fault::CampaignResult& a, const fault::CampaignResult& b) {
  return a.outcome_counts == b.outcome_counts && a.coverage_curve == b.coverage_curve;
}

void row(const char* label, std::size_t runs, double s, double base_per_run_us, bool same) {
  const double per_run_us = s / static_cast<double>(runs) * 1e6;
  std::printf("%-32s %8.1f runs/s  %9.1f us/run  vs in-process %+8.1f us/run  identical: %s\n",
              label, static_cast<double>(runs) / s, per_run_us, per_run_us - base_per_run_us,
              same ? "yes" : "NO — BUG");
}

/// Five campaigns of one configuration: the median, fastest and slowest
/// per-run time.
struct Spread {
  double median_us = 0;
  double min_us = 0;
  double max_us = 0;
};

constexpr int kRepeats = 5;

Spread spread_of(std::vector<double> per_run_us) {
  std::sort(per_run_us.begin(), per_run_us.end());
  return {per_run_us[per_run_us.size() / 2], per_run_us.front(), per_run_us.back()};
}

/// Prints the tax of `taxed` over `base`, median against median. While
/// their min–max ranges overlap it is unresolved. Otherwise it is held to
/// `target`: at most `max_pct` meets it, and the "noise" target (no
/// `max_pct`) is missed on either side. No target: the tax only.
void tax_line(const char* label, const Spread& taxed, const Spread& base, const char* target,
              std::optional<double> max_pct) {
  const double tax_pct = (taxed.median_us - base.median_us) / base.median_us * 100.0;
  std::printf("    %s: %+.2f %%  (%.1f .. %.1f vs %.1f .. %.1f us/run)", label, tax_pct,
              taxed.min_us, taxed.max_us, base.min_us, base.max_us);
  if (taxed.min_us <= base.max_us && base.min_us <= taxed.max_us) {
    std::printf("  unresolved\n");
  } else if (target != nullptr) {
    const bool meets = max_pct.has_value() && tax_pct <= *max_pct;
    std::printf("  %s its target (%s)\n", meets ? "meets" : "misses", target);
  } else {
    std::printf("\n");
  }
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<std::size_t> arg = bench::runs_arg(argc, argv, 96);
  if (!arg) return 64;  // EX_USAGE
  const std::size_t runs = *arg;

  fault::CampaignConfig cfg;
  cfg.runs = runs;
  cfg.seed = 2026;
  cfg.strategy = fault::Strategy::kGuided;
  cfg.location_buckets = 8;
  cfg.batch_size = 16;

  std::printf("== E20: campaign-server overhead (CAPS crash, %zu runs, 4 workers) ==\n\n", runs);

  // In-process and one-shot-fleet references (E18's endpoints).
  const auto t_base = Clock::now();
  const auto baseline = fault::ParallelCampaign(caps_factory(), cfg).run();
  const double base_s = seconds_since(t_base);
  const double base_per_run_us = base_s / static_cast<double>(runs) * 1e6;
  row("in-process (1 thread)", runs, base_s, base_per_run_us, true);

  {
    dist::DistConfig dc;
    dc.campaign = cfg;
    dc.workers = 4;
    dist::DistCampaign campaign(caps_factory(), dc);
    const auto t0 = Clock::now();
    const auto result = campaign.run();
    row("one-shot fleet, 4 workers", runs, seconds_since(t0), base_per_run_us,
        identical(result, baseline));
    if (!identical(result, baseline)) return 1;
  }

  // Four standing pools, each behind its own campaign server: plain (E20
  // and the reference of the taxes), chaos armed inert on every link
  // (E21), and the self-healing worker path with tracing off and on
  // (E22). All stay up to the end, so the taxed campaigns can alternate
  // with the plain one. Every worker is forked before any server thread
  // starts (fork safety); a bound listener's backlog holds the connects
  // until its serve loop accepts.
  dist::ChaosConfig inert;
  inert.seed = 7;
  inert.drop_frame = inert.corrupt_frame = inert.delay_frame = inert.disconnect = 0.0;
  dist::ChaosConfig active;
  active.seed = 7;
  const char* trace_dir = "bench_trace_e22";
  std::error_code ec;
  std::filesystem::remove_all(trace_dir, ec);
  std::filesystem::create_directory(trace_dir);

  dist::CampaignServer server{dist::ServerConfig{}};
  dist::ServerConfig chaos_sc;
  chaos_sc.chaos = inert;
  dist::CampaignServer chaos_server{chaos_sc};
  dist::CampaignServer off_server{dist::ServerConfig{}};
  dist::ServerConfig on_sc;
  on_sc.trace_dir = trace_dir;
  dist::CampaignServer on_server{on_sc};
  std::vector<pid_t> pool;
  for (int i = 0; i < 4; ++i) pool.push_back(fork_pool_worker(server.port()));
  for (int i = 0; i < 4; ++i) pool.push_back(fork_chaos_worker(chaos_server.port(), inert));
  for (int i = 0; i < 4; ++i) pool.push_back(fork_chaos_worker(off_server.port(), {}));
  for (int i = 0; i < 4; ++i) pool.push_back(fork_chaos_worker(on_server.port(), {}, trace_dir));
  for (dist::CampaignServer* s : {&server, &chaos_server, &off_server, &on_server}) s->start();
  const auto teardown = [&] {
    for (dist::CampaignServer* s : {&server, &chaos_server, &off_server, &on_server}) s->stop();
    reap_all(pool);
    std::filesystem::remove_all(trace_dir, ec);
  };

  // Cold submission: pool is standing but this job still pays its
  // SETUP/HELLO handshake on every worker.
  {
    const auto t0 = Clock::now();
    const auto result = submit(server.port(), "cold", cfg);
    row("server, cold pool", runs, seconds_since(t0), base_per_run_us,
        identical(result, baseline));
    if (!identical(result, baseline)) return teardown(), 1;
  }

  // Two tenants sharing the pool concurrently: per-tenant wall time roughly
  // doubles (half the pool each under fair share) but both folds must stay
  // bitwise identical to the solo baseline.
  {
    fault::CampaignResult a, b;
    const auto t0 = Clock::now();
    std::thread ta([&] { a = submit(server.port(), "tenant-a", cfg); });
    std::thread tb([&] { b = submit(server.port(), "tenant-b", cfg); });
    ta.join();
    tb.join();
    const double s = seconds_since(t0);
    const bool same = identical(a, baseline) && identical(b, baseline);
    row("server, 2 tenants x same load", 2 * runs, s, base_per_run_us, same);
    if (!same) return teardown(), 1;
  }

  // The taxed fleets' first submissions pay their SETUP/HELLO handshakes.
  (void)submit(chaos_server.port(), "e21-warmup", cfg, inert);
  (void)submit(off_server.port(), "e22-warmup", cfg);
  (void)submit(on_server.port(), "e22-warmup", cfg, {}, trace_dir);

  // Warm submissions, one of each configuration per round. The plain one
  // is the steady-state cost a tenant of a long-lived server sees, and
  // the reference of the E21 and E22 taxes.
  struct Config {
    const char* label;
    std::function<fault::CampaignResult()> submit_once;
    std::vector<double> per_run_us;
  };
  std::vector<Config> configs = {
      {"server, warm pool", [&] { return submit(server.port(), "warm", cfg); }, {}},
      {"server, warm, chaos inert",
       [&] { return submit(chaos_server.port(), "e21-inert", cfg, inert); }, {}},
      {"server, warm, tracing off", [&] { return submit(off_server.port(), "e22-off", cfg); }, {}},
      {"server, warm, tracing on",
       [&] { return submit(on_server.port(), "e22-on", cfg, {}, trace_dir); }, {}},
  };
  std::printf("\n== E20-E22: warm pools, %d rounds alternating the configurations ==\n\n",
              kRepeats);
  for (int round = 1; round <= kRepeats; ++round) {
    for (Config& c : configs) {
      const auto t0 = Clock::now();
      const auto result = c.submit_once();
      const double s = seconds_since(t0);
      c.per_run_us.push_back(s / static_cast<double>(runs) * 1e6);
      const std::string name = std::string(c.label) + ", run " + std::to_string(round);
      row(name.c_str(), runs, s, base_per_run_us, identical(result, baseline));
      if (!identical(result, baseline)) return teardown(), 1;
    }
  }
  const Spread warm = spread_of(configs[0].per_run_us);
  const Spread inert_row = spread_of(configs[1].per_run_us);
  const Spread off_row = spread_of(configs[2].per_run_us);
  const Spread on_row = spread_of(configs[3].per_run_us);

  // E21 — chaos instrumentation tax. Every link (server, workers, client)
  // carries an *armed but inert* ChaosPolicy: seed nonzero so the per-frame
  // action roll and counters run, every fault probability zero so nothing is
  // injected. The delta vs the plain warm row is the price of shipping the
  // injector always-attached; the target is ≤2 % per run. A second row arms
  // the default fault mix on the client link to show what a healed run
  // actually costs.
  std::printf("\n== E21: chaos shim tax (same load, warm pool) ==\n\n");
  tax_line("shim tax vs plain warm pool", inert_row, warm, "<= 2 %", 2.0);
  {
    dist::DistConfig probe;  // client-side healing knobs for the active row
    probe.campaign = cfg;
    probe.server_host = kHost;
    probe.server_port = chaos_server.port();
    probe.tenant = "e21-active";
    probe.scenario_spec = "caps:crash";
    probe.chaos = active;
    probe.heartbeat_timeout_ms = 100;
    probe.reconnect_backoff_ms = 5;
    probe.reconnect_backoff_max_ms = 50;
    dist::DistCampaign campaign(caps_factory(), probe);
    const auto t0 = Clock::now();
    const auto result = campaign.run();
    row("server, warm, chaos active", runs, seconds_since(t0), base_per_run_us,
        identical(result, baseline));
    if (!identical(result, baseline)) return teardown(), 1;
  }

  // E22 — run-lifecycle tracing tax. Both E22 fleets use the same
  // PoolConfig worker path so the comparison is apples to apples; only the
  // trace directory differs. Disabled tracing is one null-pointer test per
  // emission site plus the skipped v3 wire fields — the delta vs the plain
  // warm pool must stay within noise. The enabled row pays JSONL
  // formatting and a flush per span on every tier; its overhead is the
  // price of a fully traced fleet.
  std::printf("\n== E22: run-lifecycle tracing tax (same load, warm pool) ==\n\n");
  tax_line("disabled-tracing tax vs plain warm pool", off_row, warm, "noise", std::nullopt);
  tax_line("enabled-tracing tax vs tracing off (all tiers traced)", on_row, off_row, nullptr,
           std::nullopt);

  teardown();
  std::printf("\nevery server-mode configuration reproduced the in-process result bitwise\n");
  return 0;
}
