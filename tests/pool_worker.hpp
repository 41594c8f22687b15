#pragma once

// Standing-pool workers for the suites that run DistCampaign through an
// in-process CampaignServer.

#include <cerrno>
#include <cstdint>
#include <memory>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include "vps/apps/registry.hpp"
#include "vps/dist/transport.hpp"
#include "vps/dist/worker.hpp"

namespace vps_test {

inline std::unique_ptr<vps::fault::Scenario> registry_scenario(const vps::dist::SetupMsg& setup) {
  return vps::apps::make_scenario(setup.scenario_spec);
}

/// Forks one standing-pool worker that connects to the server at
/// 127.0.0.1:`port` and serves the scenarios `build` makes until SHUTDOWN.
/// Must be called before any thread is spawned in the test process (fork
/// safety).
inline pid_t fork_pool_worker(std::uint16_t port,
                              const vps::dist::ScenarioBuilder& build = registry_scenario) {
  const pid_t pid = ::fork();
  if (pid != 0) return pid;
  int code = 3;
  {
    vps::dist::Channel channel(vps::dist::tcp_connect("127.0.0.1", port));
    code = vps::dist::serve_pool(channel, build);
  }
  ::_exit(code);
}

inline void reap(pid_t pid) {
  int status = 0;
  pid_t r;
  do {
    r = ::waitpid(pid, &status, 0);
  } while (r < 0 && errno == EINTR);
}

}  // namespace vps_test
