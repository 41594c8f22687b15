#pragma once

/// Worker side of the distributed campaign: the pool worker's serve loop,
/// which speaks the framed protocol to a campaign server — a running
/// vps-serverd, or the private server of a local-mode DistCampaign. The
/// same loop backs fork-only workers (the child inherits the
/// ScenarioFactory and serves straight out of fork()) and the vps-worker
/// binary (fork+exec, or started by hand: each scenario is rebuilt in a
/// pristine process from the SETUP message's registry spec).

#include <functional>
#include <memory>

#include "vps/dist/protocol.hpp"
#include "vps/dist/transport.hpp"
#include "vps/fault/campaign.hpp"

namespace vps::dist {

/// Builds the worker's scenario from a job's SETUP message. Fork-mode
/// workers ignore the message and call the inherited factory; exec-mode
/// workers parse `setup.scenario_spec` through the app registry.
using ScenarioBuilder = std::function<std::unique_ptr<fault::Scenario>(const SetupMsg&)>;

/// Runs one pool session on `channel`: the worker speaks first with
/// REGISTER, then serves many campaigns at once — each job-tagged SETUP
/// builds (and caches, keyed by job id) that job's scenario and answers
/// HELLO; each ASSIGN is answered by a RESULT after its replay; RELEASE
/// drops a finished job's cache; SHUTDOWN ends the session.
///
/// Returns the process exit code: 0 after a clean SHUTDOWN, 2 when the
/// server vanished (EOF), 3 on a protocol violation or scenario-build
/// failure (details on stderr). Never throws — the caller is about to
/// _exit() with the return value and must not unwind a forked child.
/// Single session: the reconnecting variant below is what a standing pool
/// deploys.
[[nodiscard]] int serve_pool(Channel& channel, const ScenarioBuilder& build) noexcept;

/// Self-healing pool worker: connect + serve_pool sessions in a loop.
struct PoolConfig {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  int connect_timeout_ms = 5000;
  /// Consecutive failed sessions (connect refused/timed out, or a link that
  /// died before delivering a single frame) tolerated before giving up with
  /// exit code 2. A session that made progress resets the budget — a pool
  /// that keeps being useful never exhausts it.
  int max_reconnects = 100;
  int backoff_initial_ms = 100;
  int backoff_max_ms = 5000;
  /// Longest silence tolerated inside a session before the link is declared
  /// lost and reconnected. An idle worker normally hears periodic traffic
  /// (SETUPs, ASSIGNs, RELEASEs); a server that stops talking entirely —
  /// frozen process, half-open TCP, a listener whose accept loop died — must
  /// not pin the worker in an unbounded wait. -1 waits forever.
  int idle_timeout_ms = 30'000;
  /// Outbound fault injection on every session's channel (seed 0 = off).
  ChaosConfig chaos;
  /// Run-lifecycle trace directory (dist/trace.hpp). Empty = tracing off:
  /// no file, no JSONL writes, one pointer test per replay. When set, the
  /// worker writes trace.worker.<pid>.jsonl with replay spans and
  /// reconnect events.
  std::string trace_dir;
};

/// Runs serve_pool sessions against cfg.host:cfg.port until a clean
/// SHUTDOWN (exit 0) or a fatal, non-retryable condition (REJECT, protocol
/// version mismatch, scenario-build failure — exit 3). Everything else —
/// refused connects, server restarts, chaos-torn links, stream corruption —
/// is healed by reconnecting with exponential backoff and deterministic
/// jitter (Xorshift, delay uniform in [base/2, 1.5·base)) and re-REGISTERing
/// with an incremented RegisterMsg::reconnects. The per-job scenario cache is
/// per-session: a reconnect starts clean, so job ids from a restarted server
/// can never collide with stale cache entries; in-flight runs lost with the
/// link are requeued server-side exactly like a dead worker's.
[[nodiscard]] int serve_pool(const PoolConfig& cfg, const ScenarioBuilder& build) noexcept;

}  // namespace vps::dist
