#pragma once

/// Persistent multi-tenant campaign server (vps-serverd): a standing
/// service many clients share. A local-mode DistCampaign runs a private
/// instance of it, so this is the one place that supervises workers.
///
/// Roles on one TCP listener, told apart by the first bytes of each
/// connection ("1SPV" frame magic → framed peer, "GET" → metrics scrape):
///
///   workers  connect, REGISTER, and join an elastic pool. Before a worker
///            serves a job it is SETUP for it (job-tagged, built from the
///            client's SUBMIT) and answers HELLO — the server validates the
///            scenario name the worker built; a mismatch REJECTs the job to
///            its client and keeps the worker. Workers cache scenarios per
///            job; RELEASE drops a finished job's cache.
///   clients  SUBMIT one campaign (tenant label, scenario spec + expected
///            name, determinism-relevant config, requeue budget, golden).
///            Admission is bounded: a full job table answers REJECT, never
///            queues unboundedly, never hangs. After ACCEPT the client
///            streams job-tagged ASSIGN frames batch by batch and the
///            server relays each worker RESULT back as RESULT_STREAM.
///   scrapes  "GET /metrics"-style requests answered with the plaintext
///            name-sorted obs::MetricRegistry render (no HTTP dependency);
///            "GET /jobs" answers a deterministic per-job live status view
///            (tenant, queued/in-flight/relayed runs, p50/p95 queue-wait and
///            replay latency, worker assignment map, healing counters).
///
/// The server is deliberately a pure run router: descriptors are generated
/// and results are folded on the *client* (DistCampaign server mode) at the
/// same batch barrier the in-process drivers use, so the determinism
/// contract — bitwise-identical folds at any pool size, across tenant
/// interleavings, and through mid-campaign worker death — holds by
/// construction. Fair share across tenants is enforced at dispatch: a free
/// worker slot always goes to the admitted job with the fewest runs in
/// flight.
///
/// Supervision: a worker that hangs up, fails a send, sends no frame for the
/// heartbeat window while holding work, sits on a partial frame that long
/// or leaves a SETUP unanswered past the hello timeout is declared dead and
/// dropped; its in-flight runs are requeued (bounded per run — exhaustion
/// synthesizes an Outcome::kSimCrash RESULT_STREAM so the tenant's campaign
/// completes rather than stalls). The owner of the worker processes hears
/// of each death through on_worker_death().

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>

#include "vps/dist/chaos.hpp"
#include "vps/obs/metrics.hpp"

namespace vps::dist {

struct ServerConfig {
  std::string host = "127.0.0.1";
  /// 0 picks an ephemeral port; CampaignServer::port() reports the bound one.
  std::uint16_t port = 0;
  /// Admission bound: at most this many concurrently admitted jobs; the
  /// next SUBMIT is answered with REJECT.
  std::size_t max_jobs = 8;
  /// A worker must answer a job SETUP with HELLO within this long.
  int hello_timeout_ms = 10'000;
  /// Silence/partial-frame window after which a worker holding work is
  /// declared wedged and dropped.
  int heartbeat_timeout_ms = 30'000;
  /// Crash-recovery state directory (must exist; empty = volatile server).
  /// Admitted jobs are persisted to <state_dir>/jobs.jsonl — the checkpoint
  /// codec's JSONL with a CRC-32 per line, written atomically (tmp+rename) —
  /// and a restarted server with the same state dir re-adopts them as
  /// orphans awaiting their tenant's reattach. A job table that exists but
  /// cannot be read makes the constructor throw.
  std::string state_dir;
  /// How long a job whose client connection is gone (crashed tenant, torn
  /// link, server restart) is held for a job_token reattach before the job
  /// is torn down.
  int orphan_grace_ms = 30'000;
  /// Outbound fault injection on every accepted connection (seed 0 = off).
  ChaosConfig chaos;
  /// Run-lifecycle trace directory (dist/trace.hpp). Empty = tracing off.
  /// When set, the server writes trace.server.<pid>.jsonl with admission /
  /// dispatch spans, stream instants, healing events (requeue, orphan,
  /// reattach, recovery, chaos) and the clockref samples vps-tracecat uses
  /// to align worker and client trace files.
  std::string trace_dir;
};

/// The standing campaign server. The constructor binds and listens (so the
/// ephemeral port is known before any thread starts — callers can fork pool
/// workers that connect immediately; the TCP backlog holds them until the
/// serve loop accepts). start()/stop() run the loop on an internal thread;
/// serve() is the blocking equivalent for vps-serverd's main.
class CampaignServer {
 public:
  explicit CampaignServer(ServerConfig config);
  ~CampaignServer();
  CampaignServer(const CampaignServer&) = delete;
  CampaignServer& operator=(const CampaignServer&) = delete;

  [[nodiscard]] std::uint16_t port() const noexcept;

  /// One worker death, as the serve loop declared it.
  struct WorkerDeath {
    std::uint64_t pid = 0;       ///< as the worker REGISTERed it
    std::uint64_t requeued = 0;  ///< its in-flight runs, requeued or crashed
    std::uint64_t crashed = 0;   ///< of those, runs past their requeue budget
  };
  /// Called each time the serve loop declares a pool worker dead. It runs
  /// on the loop's thread, so it must only record. Set it before start().
  void on_worker_death(std::function<void(const WorkerDeath&)> hook);
  /// Called each time the serve loop relays a pool worker's result, with
  /// that worker's REGISTER pid, before the worker is given more work. It
  /// runs on the loop's thread. Set it before start().
  void on_result(std::function<void(std::uint64_t pid)> hook);

  /// Spawns the serve loop on an internal thread.
  void start();
  /// Asks the loop to finish (SHUTDOWN to pool workers, flush state, close
  /// everything) and joins the thread. Idempotent.
  void stop();
  /// Graceful drain (what vps-serverd maps SIGTERM to): stop admitting fresh
  /// campaigns (REJECT "draining"; job_token reattaches still honored), let
  /// admitted jobs run to completion, then flush state and shut the pool
  /// down cleanly. Returns immediately; the serve loop (internal thread or
  /// blocking serve()) exits once the job table is empty — call stop() to
  /// join.
  void request_drain();
  /// Dies like a SIGKILL, for crash-recovery tests: the loop exits without
  /// SHUTDOWN frames or a final state flush (incremental persists remain on
  /// disk) and every connection drops. A new CampaignServer on the same
  /// port + state_dir then plays the restarted server.
  void crash();
  /// Blocking serve loop; returns once `stop_flag` becomes true (or, when
  /// `drain_flag` fires, once the job table drains empty).
  void serve(const std::atomic<bool>& stop_flag, const std::atomic<bool>* drain_flag = nullptr);

  /// The server's own registry ("server.*" counters/gauges plus whatever a
  /// scrape renders). Only the serve loop touches it while running — read it
  /// after stop(), or through the scrape endpoint.
  [[nodiscard]] const obs::MetricRegistry& metrics() const noexcept;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
  std::thread thread_;
  std::atomic<bool> stop_requested_{false};
  std::atomic<bool> drain_requested_{false};
  std::atomic<bool> abrupt_{false};
};

}  // namespace vps::dist
