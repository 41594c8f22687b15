#pragma once

/// Coordinator side of the distributed campaign: DistCampaign shards the
/// run indices of one fault-injection campaign across worker processes and
/// merges their verdicts back into a CampaignResult that is bitwise
/// identical to the in-process ParallelCampaign — for any fleet size, and
/// even when workers are killed mid-campaign.
///
/// Determinism contract: DistCampaign runs on the same batch-barrier engine
/// as ParallelCampaign (fault::BatchedCampaign), which generates, folds,
/// checkpoints and preempts; this file only supplies its executor — the
/// link to a campaign server. A replay is a pure function of descriptor +
/// seed + golden, so who executed a run can never change what the run
/// produced or how it folded.
///
/// Supervision: the campaign server (server.hpp) is the one supervision
/// loop. Local mode starts a private CampaignServer on 127.0.0.1 and forks
/// its worker pool against it; the server declares workers dead and
/// requeues their runs (bounded by DistConfig::max_requeues, then recorded
/// as Outcome::kSimCrash and quarantined, like an in-process crash). The
/// coordinator owns the processes: it SIGKILLs and reaps each worker the
/// server drops, and fails within a second once no worker is left.

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "vps/dist/transport.hpp"
#include "vps/fault/campaign.hpp"

namespace vps::dist {

/// Poll timeout for the server's supervision loop: milliseconds until the
/// earliest of `deadlines`, clamped to [0, fallback_ms]. With no deadlines
/// pending the loop just wakes at the fallback cadence. Computing the min
/// across the whole pool (not any single worker's deadline) is what keeps
/// detection latency bounded by the heartbeat window itself.
[[nodiscard]] int poll_timeout_ms(std::chrono::steady_clock::time_point now,
                                  const std::vector<std::chrono::steady_clock::time_point>& deadlines,
                                  int fallback_ms) noexcept;

struct DistConfig {
  fault::CampaignConfig campaign;
  /// Fleet size (worker processes). 0 and 1 both mean one worker;
  /// CampaignConfig::workers (the thread-pool width) is ignored here.
  std::size_t workers = 2;
  /// Path of the vps-worker binary. Empty selects fork-only mode: the child
  /// serves the private server straight out of fork() with the inherited
  /// ScenarioFactory (the default for tests — any factory works). Non-empty
  /// selects fork+exec of `vps-worker --connect 127.0.0.1:PORT` for one
  /// session: the binary rebuilds the scenario from `scenario_spec` via the
  /// app registry, in a pristine address space.
  std::string worker_path;
  /// Registry spec (e.g. "caps:crash") for exec-mode and server-pool
  /// workers; carried in SUBMIT and SETUP. Ignored (diagnostic only) by
  /// fork-mode workers.
  std::string scenario_spec;
  /// Worker must answer SETUP with HELLO within this long, or it is dropped.
  /// Also bounds the wait for the server's answer to SUBMIT.
  int hello_timeout_ms = 10'000;
  /// A worker holding assignments that sends no frame this long is declared
  /// hung, SIGKILLed and its work requeued; idle workers are exempt. The
  /// client re-sends a batch's unanswered ASSIGNs after this long without a
  /// frame from the server, and reconnects after 3 × this + 10 s. Must be > 0.
  int heartbeat_timeout_ms = 30'000;
  /// A run may be requeued onto a survivor at most this many times before it
  /// is recorded as kSimCrash and quarantined.
  std::size_t max_requeues = 2;
  /// Test/CI hook: once the private server has relayed this many results in
  /// total, SIGKILL the pool worker that produced the last one, before the
  /// server gives it more work — deterministic loss of a worker that holds
  /// a run while the batch has more, without external orchestration. 0
  /// disables. Local mode only.
  std::size_t kill_after_results = 0;
  /// Non-empty selects server mode: instead of forking its own pool, the
  /// campaign is submitted to a running vps-serverd at server_host:server_port.
  /// Descriptors are still generated here and results still fold here at the
  /// batch barrier, so the determinism contract is unchanged — the server is
  /// purely a run router over its standing worker pool.
  std::string server_host;
  std::uint16_t server_port = 0;
  /// Fair-share/bookkeeping label this client submits under (server mode).
  std::string tenant;
  /// Link self-healing (both modes): a lost/corrupt/silent link to the server is
  /// healed by reconnecting and re-SUBMITting with the same job token — the
  /// server reattaches the orphaned job (or admits it anew after a stateless
  /// restart) and the client re-ASSIGNs every run of the current batch that
  /// has no verdict yet. Bounded by max_reconnects consecutive failed
  /// attempts; backoff doubles from reconnect_backoff_ms with deterministic
  /// jitter. A REJECT is never retried — it is an explicit answer.
  int max_reconnects = 20;
  int reconnect_backoff_ms = 100;
  int reconnect_backoff_max_ms = 2'000;
  /// Bound on each TCP connect attempt to the server.
  int connect_timeout_ms = 5'000;
  /// Outbound fault injection on the client→server link (seed 0 = off),
  /// in both modes: in local mode it acts on the link to the private server.
  ChaosConfig chaos;
  /// Run-lifecycle trace directory (dist/trace.hpp). Empty = tracing off.
  /// When set, the client writes trace.client.<pid>.<job_token>.jsonl with
  /// submit/fold instants per run and reconnect events, in both modes; the
  /// private server and workers of local mode do not trace. Merge with
  /// vps-tracecat. Tracing never feeds the fold — results are bitwise
  /// identical with it on or off.
  std::string trace_dir;
};

/// Aggregate fleet counters of one run()/resume() call. The first four are
/// local mode's (in server mode the pool is the server's, which counts them
/// as server.* metrics): deaths the private server declared, the in-flight
/// runs they orphaned, and the runs that exhausted max_requeues. The
/// frames_* and bytes_* count the client↔server link in both modes.
struct FleetStats {
  std::uint64_t workers_spawned = 0;
  std::uint64_t worker_deaths = 0;
  std::uint64_t requeued_runs = 0;
  std::uint64_t crashed_runs = 0;
  std::uint64_t frames_sent = 0;
  std::uint64_t frames_received = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_received = 0;
  std::uint64_t reconnects = 0;  ///< server-mode links reestablished
  std::uint64_t chaos_frames_dropped = 0;    ///< injected by this client's policy
  std::uint64_t chaos_bytes_corrupted = 0;   ///< injected by this client's policy
};

/// Distributed campaign driver: a BatchedCampaign whose executor is the
/// link to a campaign server — a private one with its own forked workers
/// or, with DistConfig::server_host set, a running vps-serverd. Its
/// checkpoints resume in-process and vice versa.
class DistCampaign final : public fault::BatchedCampaign {
 public:
  DistCampaign(fault::ScenarioFactory factory, DistConfig config);

  [[nodiscard]] const FleetStats& fleet_stats() const noexcept { return fleet_stats_; }

 private:
  [[nodiscard]] std::unique_ptr<fault::BatchExecutor> make_executor() override;

  DistConfig dist_config_;
  FleetStats fleet_stats_;
};

}  // namespace vps::dist
