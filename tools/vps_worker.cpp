// vps-worker: worker-process binary of the distributed fault-injection
// campaign. `--connect HOST:PORT` joins a campaign server's worker pool:
// it connects, REGISTERs, and serves many campaigns at once (job-tagged
// SETUPs, scenario cache per job) until the server shuts it down. The
// server is a running vps-serverd, or the private server a local-mode
// DistCampaign starts, which fork+execs this binary with
// `--max-reconnects 0 --idle-timeout-ms -1`: one session, no idle limit.
//
// Self-healing: a lost link, a refused connect or a restarted server is
// ridden out by reconnecting with exponential backoff + deterministic
// jitter and re-REGISTERing — only SHUTDOWN (or a fatal REJECT/version
// mismatch), or running out of --max-reconnects, ends the process.
//
// Knobs:
//   --retry-ms MS          initial reconnect backoff (doubles to 50x)
//   --max-reconnects N     consecutive failed sessions before giving up
//   --idle-timeout-ms MS   silence tolerated in a session before reconnecting
//                          (-1 waits forever)
//   --chaos-seed N         deterministic outbound fault injection (0 = off)
//   --trace-dir DIR        write run-lifecycle trace JSONL (replay spans,
//                          reconnect events) for vps-tracecat to merge
//
// The scenario is rebuilt locally from the SETUP message's registry spec,
// so the worker shares no address space — a replay that corrupts or kills
// this process cannot take the client, the server, or its siblings down
// with it.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "vps/apps/registry.hpp"
#include "vps/dist/worker.hpp"

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --connect HOST:PORT [--retry-ms MS] [--max-reconnects N] "
               "[--idle-timeout-ms MS] [--chaos-seed N] [--trace-dir DIR]\n"
               "  --connect HOST:PORT join a campaign server's worker pool\n"
               "                      (auto-reconnects across server restarts)\n"
               "  --retry-ms MS       initial reconnect backoff (default 100)\n"
               "  --max-reconnects N  consecutive failures before giving up (default 100)\n"
               "  --idle-timeout-ms MS longest server silence per session (default 30000,\n"
               "                      -1 = no limit)\n"
               "  --chaos-seed N      inject deterministic network faults (0 = off)\n"
               "  --trace-dir DIR     write run-lifecycle trace JSONL into DIR\n\n%s",
               argv0, vps::apps::registry_help().c_str());
  return 64;  // EX_USAGE
}

}  // namespace

int main(int argc, char** argv) {
  std::string connect_to;
  vps::dist::PoolConfig pool;
  for (int i = 1; i < argc; ++i) {
    const auto want_value = [&](const char* flag) {
      return std::strcmp(argv[i], flag) == 0 && i + 1 < argc;
    };
    if (want_value("--connect")) {
      connect_to = argv[++i];
    } else if (want_value("--retry-ms")) {
      pool.backoff_initial_ms = std::atoi(argv[++i]);
      pool.backoff_max_ms = pool.backoff_initial_ms * 50;
    } else if (want_value("--max-reconnects")) {
      pool.max_reconnects = std::atoi(argv[++i]);
    } else if (want_value("--idle-timeout-ms")) {
      pool.idle_timeout_ms = std::atoi(argv[++i]);
    } else if (want_value("--chaos-seed")) {
      pool.chaos.seed = static_cast<std::uint64_t>(std::strtoull(argv[++i], nullptr, 10));
    } else if (want_value("--trace-dir")) {
      pool.trace_dir = argv[++i];
    } else {
      return usage(argv[0]);
    }
  }
  const std::size_t colon = connect_to.rfind(':');
  if (colon == std::string::npos) return usage(argv[0]);
  const int port = std::atoi(connect_to.c_str() + colon + 1);
  if (port <= 0 || port > 65535) return usage(argv[0]);
  pool.host = connect_to.substr(0, colon);
  pool.port = static_cast<std::uint16_t>(port);
  try {
    return vps::dist::serve_pool(pool, [](const vps::dist::SetupMsg& setup) {
      return vps::apps::make_scenario(setup.scenario_spec);
    });
  } catch (const std::exception& e) {
    std::fprintf(stderr, "vps-worker: %s\n", e.what());
    return 3;
  }
}
