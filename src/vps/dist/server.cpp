#include "vps/dist/server.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "vps/dist/coordinator.hpp"
#include "vps/dist/protocol.hpp"
#include "vps/dist/trace.hpp"
#include "vps/dist/transport.hpp"
#include "vps/fault/codec.hpp"
#include "vps/obs/trace.hpp"
#include "vps/support/ensure.hpp"
#include "vps/support/file.hpp"
#include "vps/support/stats.hpp"

namespace vps::dist {

using support::ensure;
using Clock = std::chrono::steady_clock;

namespace {

/// Runs one worker may hold at once. Two keep a worker busy: it starts its
/// next run while the last one's result crosses the wire, so no round trip
/// sits between runs. A deeper pipeline would only strand more runs on a
/// worker that dies or hangs (each one a requeue) and stack a batch's tail
/// on whichever worker got ready first, where the barrier waits for it.
constexpr std::size_t kWorkerPipeline = 2;

/// One run handed to a worker and not yet answered. `payload` keeps the raw
/// ASSIGN bytes so a requeue resends exactly what the client sent — the
/// server never re-encodes (or even fully understands) the descriptor.
struct Inflight {
  std::uint64_t job = 0;
  std::uint64_t run = 0;
  std::string payload;
  std::uint32_t requeues = 0;
  /// Always-on host timestamps (two clock reads per run): queue wait =
  /// dispatched − arrived, worker round trip = RESULT arrival − dispatched.
  /// A requeue resets arrived_ns so a retry's wait never includes the failed
  /// round trip (and never goes negative — see saturating_elapsed_ns).
  std::uint64_t arrived_ns = 0;
  std::uint64_t dispatched_ns = 0;
};

struct Conn {
  enum class Role { kSniffing, kWorker, kClient, kDraining };

  explicit Conn(int fd) : channel(fd) {}

  Channel channel;
  Role role = Role::kSniffing;
  /// The silence clock: restarted by every frame the peer sends and, for a
  /// worker, when dispatch() hands it work while it holds none.
  Clock::time_point last_heard = Clock::now();
  bool dead = false;
  /// Chaos activity already folded into the server metrics (delta folding:
  /// the policy's counters only grow, the registry gets the increments).
  ChaosCounters chaos_folded;
  // worker state
  std::uint64_t pid = 0;
  std::set<std::uint64_t> ready_jobs;     ///< SETUP/HELLO completed
  std::map<std::uint64_t, Clock::time_point> pending_setup;  ///< SETUP sent, HELLO due by
  std::vector<Inflight> inflight;
  // client state
  std::set<std::uint64_t> owned_jobs;
  std::uint64_t client_tok = 0;  ///< job_token of this client's SUBMIT (clockref key)
  /// Best (smallest) observed arrival − peer-send clock delta for this peer;
  /// a clockref line is emitted only when a sample improves it, so the trace
  /// holds the tightest bound without a line per ASSIGN.
  std::int64_t clock_off = 0;
  bool clock_off_valid = false;
};

struct Job {
  std::uint64_t id = 0;
  SubmitMsg submit;
  Conn* client = nullptr;
  std::deque<Inflight> pending;  ///< runs admitted but not yet dispatched
  std::size_t inflight = 0;      ///< runs currently on workers
  /// Relay watermark, persisted with the job so a recovered server knows how
  /// far the campaign had streamed (diagnostics; correctness comes from the
  /// client re-ASSIGNing every run it has no verdict for).
  std::uint64_t results_relayed = 0;
  /// Set while no live client connection owns the job (tenant crashed, link
  /// torn, or the job was just recovered from the state dir): the job waits
  /// this long for a job_token reattach, then is torn down. Results arriving
  /// meanwhile are dropped — re-executing them later folds identically.
  std::optional<Clock::time_point> orphan_deadline;
  /// Live-status aggregates for GET /jobs (always on; fed from the
  /// Inflight timestamps and the RESULT's replay_ns).
  support::Histogram queue_wait_ms = support::Histogram(0.0, 5000.0, 500);
  support::Histogram replay_ms = support::Histogram(0.0, 5000.0, 500);
  std::uint64_t requeued = 0;
  std::map<std::uint64_t, std::uint64_t> worker_runs;  ///< results per worker pid
  std::map<std::uint64_t, std::string> crashed;  ///< run → its synthesized verdict
};

}  // namespace

struct CampaignServer::Impl {
  ServerConfig config;
  TcpListener listener;
  obs::MetricRegistry metrics;
  std::vector<std::unique_ptr<Conn>> conns;
  std::map<std::uint64_t, Job> jobs;
  std::uint64_t next_job = 1;
  bool draining = false;
  std::uint64_t chaos_streams = 0;  ///< distinct ChaosPolicy stream per accepted conn
  std::unique_ptr<DistTraceWriter> trace;  ///< null = tracing off
  std::function<void(const WorkerDeath&)> death_hook;  ///< see on_worker_death()
  std::function<void(std::uint64_t)> result_hook;      ///< see on_result()

  explicit Impl(ServerConfig cfg)
      : config(std::move(cfg)), listener(make_tcp_listener(config.host, config.port)) {
    ignore_sigpipe();
    trace = DistTraceWriter::open(config.trace_dir, "server");
    // Self-healing counters exist from the first scrape, not from the first
    // incident — a zero line is itself the "no healing needed yet" signal.
    metrics.counter("dist.reconnects").add(0);
    metrics.counter("dist.chaos.frames_dropped").add(0);
    metrics.counter("dist.chaos.bytes_corrupted").add(0);
    metrics.counter("dist.jobs_recovered").add(0);
    try {
      load_state();
    } catch (...) {
      ::close(listener.fd);
      throw;
    }
  }

  ~Impl() {
    if (listener.fd >= 0) ::close(listener.fd);
  }

  // --- crash-recoverable job state -----------------------------------------

  [[nodiscard]] std::string state_path() const { return config.state_dir + "/jobs.jsonl"; }

  /// Persists the admission state: one header line plus one line per
  /// admitted job — the job's SUBMIT payload (the checkpoint codec's flat
  /// JSON, identical spellings to the wire) extended with the job id and the
  /// relay watermark. Every line carries a CRC-32; the write is atomic
  /// (tmp + rename), so a crash mid-persist leaves the previous good file.
  void persist_state() {
    if (config.state_dir.empty()) return;
    namespace codec = fault::codec;
    std::string out;
    std::string header = "{\"kind\":\"server_state\",\"version\":1";
    codec::append_u64(header, "next_job", next_job);
    header += '}';
    out += codec::with_crc(header) + "\n";
    for (const auto& [id, job] : jobs) {
      std::string line = encode_submit(job.submit);
      line.pop_back();  // reopen the submit object to append the server fields
      codec::append_u64(line, "id", id);
      codec::append_u64(line, "relayed", job.results_relayed);
      line += '}';
      out += codec::with_crc(line) + "\n";
    }
    std::string error;
    if (!support::write_file_atomic(state_path(), {out}, &error)) {
      std::fprintf(stderr, "vps-serverd: %s — state not persisted\n", error.c_str());
    }
  }

  /// Re-adopts jobs a previous server instance persisted: each becomes an
  /// orphan (no client connection) holding its admission slot for
  /// orphan_grace_ms, waiting for the tenant's job_token reattach. Corrupt
  /// lines are skipped with a warning — one bad record must not take the
  /// healthy jobs down with it.
  void load_state() {
    if (config.state_dir.empty()) return;
    namespace codec = fault::codec;
    // A read error throws: loading a short table would make the next
    // persist_state() drop the jobs it lost for good.
    const std::optional<std::string> table = support::read_file(state_path(), "CampaignServer");
    if (!table) return;  // fresh state dir
    const std::string& text = *table;

    const auto grace = Clock::now() + std::chrono::milliseconds(config.orphan_grace_ms);
    std::size_t recovered = 0;
    std::size_t pos = 0;
    while (pos < text.size()) {
      const std::size_t eol = text.find('\n', pos);
      const std::string line =
          text.substr(pos, eol == std::string::npos ? std::string::npos : eol - pos);
      pos = eol == std::string::npos ? text.size() : eol + 1;
      if (line.empty()) continue;
      std::string crc_error;
      if (!codec::check_crc(line, &crc_error)) {
        std::fprintf(stderr, "vps-serverd: skipping corrupt state line: %s\n", crc_error.c_str());
        continue;
      }
      try {
        const codec::LineParser p(line);
        const std::string& kind = p.str("kind");
        if (kind == "server_state") {
          next_job = std::max(next_job, p.u64("next_job"));
          continue;
        }
        if (kind != "submit") continue;
        Job job;
        job.submit = decode_submit(line);
        job.id = p.u64("id");
        job.results_relayed = p.has("relayed") ? p.u64("relayed") : 0;
        job.orphan_deadline = grace;
        next_job = std::max(next_job, job.id + 1);
        if (trace != nullptr) {
          trace->event("job_recovered", job.submit.job_token, 0, dist_now_ns(),
                       {{"job", job.id}});
        }
        jobs[job.id] = std::move(job);
        ++recovered;
      } catch (const std::exception& e) {
        std::fprintf(stderr, "vps-serverd: skipping unreadable state line: %s\n", e.what());
      }
    }
    if (recovered > 0) {
      std::fprintf(stderr, "vps-serverd: recovered %zu job(s) from %s\n", recovered,
                   state_path().c_str());
      metrics.counter("dist.jobs_recovered").add(static_cast<double>(recovered));
    }
  }

  // --- bookkeeping ---------------------------------------------------------

  void fold_chaos(Conn& c) {
    const auto& policy = c.channel.chaos();
    if (policy == nullptr) return;
    const ChaosCounters& now = policy->counters();
    const std::uint64_t dropped = now.frames_dropped - c.chaos_folded.frames_dropped;
    const std::uint64_t corrupted = now.bytes_corrupted - c.chaos_folded.bytes_corrupted;
    metrics.counter("dist.chaos.frames_dropped").add(static_cast<double>(dropped));
    metrics.counter("dist.chaos.bytes_corrupted").add(static_cast<double>(corrupted));
    if (trace != nullptr && (dropped != 0 || corrupted != 0)) {
      trace->event("chaos", c.client_tok, 0, dist_now_ns(),
                   {{"frames_dropped", dropped}, {"bytes_corrupted", corrupted}, {"pid", c.pid}});
    }
    c.chaos_folded = now;
  }

  void update_gauges() {
    std::size_t workers = 0;
    for (const auto& c : conns) {
      fold_chaos(*c);
      if (!c->dead && c->role == Conn::Role::kWorker) ++workers;
    }
    metrics.gauge("server.workers_alive").set(static_cast<double>(workers));
    metrics.gauge("server.jobs_active").set(static_cast<double>(jobs.size()));
  }

  /// Streams one verdict to the job's client, if it has a live one.
  void stream(Job& job, const std::string& payload) {
    if (job.client == nullptr || job.client->dead) return;
    if (!job.client->channel.send_frame(MsgType::kResultStream, payload)) {
      on_client_death(*job.client);
    }
  }

  /// Sends the synthesized kSimCrash verdict for a run whose requeue budget
  /// is exhausted — the tenant's campaign completes with the verdict the
  /// in-process drivers give a replay that keeps crashing, never stalls —
  /// and keeps it for a re-sent ASSIGN of the run, which never runs again.
  void synthesize_crash(Job& job, const Inflight& entry) {
    ResultMsg crash;
    crash.job = job.id;
    crash.run = entry.run;
    crash.replay.outcome = fault::Outcome::kSimCrash;
    crash.replay.attempts = entry.requeues;
    crash.replay.crash_what =
        "dist: run " + std::to_string(entry.run) + " requeued " +
        std::to_string(job.submit.max_requeues) +
        " time(s), each assigned worker died before returning a result";
    metrics.counter("server.crashed_runs").add(1);
    if (trace != nullptr) {
      trace->event("crash_synthesized", job.submit.job_token, entry.run, dist_now_ns(),
                   {{"job", job.id}, {"requeues", entry.requeues}});
    }
    job.crashed[entry.run] = encode_result(crash);
    stream(job, job.crashed[entry.run]);
  }

  /// Drops a job: releases every worker's cached scenario, forgets pending
  /// and in-flight work (stray RESULTs for it are discarded on arrival).
  void remove_job(std::uint64_t id) {
    auto it = jobs.find(id);
    if (it == jobs.end()) return;
    for (auto& c : conns) {
      if (c->dead || c->role != Conn::Role::kWorker) continue;
      const bool knew = c->ready_jobs.erase(id) > 0 || c->pending_setup.erase(id) > 0;
      c->inflight.erase(std::remove_if(c->inflight.begin(), c->inflight.end(),
                                       [id](const Inflight& e) { return e.job == id; }),
                        c->inflight.end());
      if (knew) {
        if (!c->channel.send_frame(MsgType::kRelease, encode_job(JobMsg{id}))) {
          on_worker_death(*c);
        }
      }
    }
    if (it->second.client != nullptr) it->second.client->owned_jobs.erase(id);
    jobs.erase(it);
    persist_state();
  }

  /// Declares a worker dead: requeues its in-flight runs (front of the
  /// owning job's queue, preserving dispatch priority) or synthesizes the
  /// crash verdict once a run's budget is spent.
  void on_worker_death(Conn& w) {
    w.dead = true;
    metrics.counter("server.worker_deaths").add(1);
    std::vector<Inflight> orphaned = std::move(w.inflight);
    w.inflight.clear();
    if (!orphaned.empty()) {
      std::fprintf(stderr, "vps-serverd: worker pid %llu died, requeuing %zu in-flight run(s)\n",
                   static_cast<unsigned long long>(w.pid), orphaned.size());
    }
    if (trace != nullptr && w.role == Conn::Role::kWorker) {
      trace->event("worker_death", 0, 0, dist_now_ns(),
                   {{"pid", w.pid}, {"inflight_lost", orphaned.size()}});
    }
    WorkerDeath death{w.pid, 0, 0};
    for (Inflight& entry : orphaned) {
      auto it = jobs.find(entry.job);
      if (it == jobs.end()) continue;  // job already released
      Job& job = it->second;
      --job.inflight;
      ++entry.requeues;
      ++job.requeued;
      ++death.requeued;
      metrics.counter("server.requeued_runs").add(1);
      if (trace != nullptr) {
        trace->event("requeue", job.submit.job_token, entry.run, dist_now_ns(),
                     {{"job", job.id}, {"requeues", entry.requeues}, {"pid", w.pid}});
      }
      if (entry.requeues > job.submit.max_requeues) {
        ++death.crashed;
        synthesize_crash(job, entry);
      } else {
        // Retry waits start now; the failed round trip is the requeue
        // event's story, not part of the next dispatch's queue time.
        entry.arrived_ns = dist_now_ns();
        entry.dispatched_ns = 0;
        job.pending.push_front(std::move(entry));
      }
    }
    if (death_hook) death_hook(death);
  }

  void on_client_death(Conn& c) {
    c.dead = true;
    const std::set<std::uint64_t> owned = c.owned_jobs;
    c.owned_jobs.clear();
    for (std::uint64_t id : owned) {
      auto it = jobs.find(id);
      if (it == jobs.end()) continue;
      Job& job = it->second;
      if (job.submit.job_token != 0) {
        // The tenant can prove ownership later: orphan the job instead of
        // tearing it down, holding its slot open for a reattach.
        job.client = nullptr;
        job.orphan_deadline = Clock::now() + std::chrono::milliseconds(config.orphan_grace_ms);
        metrics.counter("server.jobs_orphaned").add(1);
        if (trace != nullptr) {
          trace->event("job_orphaned", job.submit.job_token, 0, dist_now_ns(),
                       {{"job", id}});
        }
        std::fprintf(stderr,
                     "vps-serverd: client of job %llu gone — orphaned for %d ms awaiting reattach\n",
                     static_cast<unsigned long long>(id), config.orphan_grace_ms);
      } else {
        remove_job(id);
      }
    }
  }

  void kill_conn(Conn& c) {
    if (c.dead) return;
    switch (c.role) {
      case Conn::Role::kWorker: on_worker_death(c); break;
      case Conn::Role::kClient: on_client_death(c); break;
      default: c.dead = true; break;
    }
  }

  /// Records a v3 handshake clock sample about a peer. A clockref line is
  /// written only when the sample tightens the peer's offset bound — the
  /// merge-side estimator is min(local − remote), so only improvements carry
  /// information.
  void note_clock_sample(Conn& c, std::uint64_t local_ns, std::uint64_t remote_ns) {
    if (trace == nullptr) return;
    const std::int64_t candidate =
        static_cast<std::int64_t>(local_ns) - static_cast<std::int64_t>(remote_ns);
    if (c.clock_off_valid && candidate >= c.clock_off) return;
    c.clock_off = candidate;
    c.clock_off_valid = true;
    const bool worker = c.role == Conn::Role::kWorker;
    trace->clockref(worker ? "worker" : "client", worker ? c.pid : 0,
                    worker ? 0 : c.client_tok, local_ns, remote_ns);
  }

  // --- dispatch ------------------------------------------------------------

  /// Fair share: every free worker slot goes to the admitted job with the
  /// fewest runs in flight that still has pending work. A worker not yet
  /// SETUP for the chosen job gets the (job-tagged) SETUP and meanwhile
  /// serves the fairest job it *is* ready for, so capacity never idles on a
  /// handshake.
  void dispatch() {
    bool progressed = true;
    while (progressed) {
      progressed = false;
      for (auto& cp : conns) {
        Conn& w = *cp;
        if (w.dead || w.role != Conn::Role::kWorker) continue;
        if (w.inflight.size() >= kWorkerPipeline) continue;

        Job* best_any = nullptr;
        Job* best_ready = nullptr;
        for (auto& [id, job] : jobs) {
          if (job.pending.empty()) continue;
          if (best_any == nullptr || job.inflight < best_any->inflight) best_any = &job;
          if (w.ready_jobs.count(id) != 0 &&
              (best_ready == nullptr || job.inflight < best_ready->inflight)) {
            best_ready = &job;
          }
        }
        if (best_any != nullptr && w.ready_jobs.count(best_any->id) == 0 &&
            w.pending_setup.count(best_any->id) == 0) {
          const SubmitMsg& submit = best_any->submit;
          const SetupMsg setup{.job = best_any->id,
                               .scenario_spec = submit.scenario_spec,
                               .seed = submit.config.seed,
                               .crash_retries = submit.config.crash_retries,
                               .job_token = submit.job_token,
                               .golden = submit.golden};
          if (!w.channel.send_frame(MsgType::kHello, encode_setup(setup))) {
            on_worker_death(w);
            continue;
          }
          w.pending_setup[best_any->id] =
              Clock::now() + std::chrono::milliseconds(config.hello_timeout_ms);
        }
        if (best_ready == nullptr) continue;
        Inflight entry = std::move(best_ready->pending.front());
        best_ready->pending.pop_front();
        if (!w.channel.send_frame(MsgType::kAssign, entry.payload)) {
          best_ready->pending.push_front(std::move(entry));
          on_worker_death(w);
          continue;
        }
        entry.dispatched_ns = dist_now_ns();
        const std::uint64_t queue_ns = saturating_elapsed_ns(entry.arrived_ns, entry.dispatched_ns);
        best_ready->queue_wait_ms.add(static_cast<double>(queue_ns) / 1e6);
        if (trace != nullptr) {
          trace->span("admission", best_ready->submit.job_token, entry.run, entry.arrived_ns,
                      queue_ns);
        }
        ++best_ready->inflight;
        // An idle worker had nothing to say; its silence counts from now.
        if (w.inflight.empty()) w.last_heard = Clock::now();
        w.inflight.push_back(std::move(entry));
        progressed = true;
      }
    }
  }

  // --- per-frame handling --------------------------------------------------

  void handle_worker_frame(Conn& w, Frame& frame) {
    switch (frame.type) {
      case MsgType::kHello: {
        const HelloMsg hello = decode_hello(frame.payload);
        if (w.pending_setup.erase(hello.job) == 0) {
          std::fprintf(stderr, "vps-serverd: worker pid %llu sent HELLO for job %llu it was never SETUP for\n",
                       static_cast<unsigned long long>(w.pid),
                       static_cast<unsigned long long>(hello.job));
          kill_conn(w);
          return;
        }
        auto it = jobs.find(hello.job);
        if (it != jobs.end() && hello.scenario != it->second.submit.scenario) {
          // The spec, not the worker, is wrong: every worker would build the
          // same scenario. Tell the client, drop the job, keep the worker.
          const Job& job = it->second;
          const std::string reason = "spec '" + job.submit.scenario_spec + "' builds scenario '" +
                                     hello.scenario + "', the campaign runs '" +
                                     job.submit.scenario + "'";
          std::fprintf(stderr, "vps-serverd: rejecting job %llu: %s\n",
                       static_cast<unsigned long long>(hello.job), reason.c_str());
          metrics.counter("server.jobs_rejected").add(1);
          if (job.client != nullptr && !job.client->dead) {
            (void)job.client->channel.send_frame(MsgType::kReject,
                                                 encode_reject(RejectMsg{reason}));
          }
          remove_job(hello.job);
          it = jobs.end();
        }
        if (it == jobs.end()) {
          // Job released (or rejected) while the worker was building; tell
          // it to drop.
          (void)w.channel.send_frame(MsgType::kRelease, encode_job(JobMsg{hello.job}));
          return;
        }
        w.ready_jobs.insert(hello.job);
        break;
      }
      case MsgType::kResult: {
        const ResultMsg msg = decode_result(frame.payload);
        auto entry = std::find_if(w.inflight.begin(), w.inflight.end(), [&msg](const Inflight& e) {
          return e.job == msg.job && e.run == msg.run;
        });
        if (entry == w.inflight.end()) return;  // stale: job released mid-flight
        const std::uint64_t arrived_ns = entry->arrived_ns;
        const std::uint64_t dispatched_ns = entry->dispatched_ns;
        w.inflight.erase(entry);
        auto it = jobs.find(msg.job);
        if (it == jobs.end()) return;
        Job& job = it->second;
        --job.inflight;
        metrics.counter("server.results_relayed").add(1);
        ++job.results_relayed;
        ++job.worker_runs[w.pid];
        const std::uint64_t now_ns = dist_now_ns();
        const std::uint64_t queue_ns = saturating_elapsed_ns(arrived_ns, dispatched_ns);
        if (msg.replay_ns != 0) job.replay_ms.add(static_cast<double>(msg.replay_ns) / 1e6);
        if (trace != nullptr) {
          trace->span("dispatch", job.submit.job_token, msg.run, dispatched_ns,
                      saturating_elapsed_ns(dispatched_ns, now_ns));
          trace->span("stream", job.submit.job_token, msg.run, now_ns, 0);
        }
        // Refresh the on-disk watermark occasionally — cheap insurance, not
        // a correctness requirement (the client re-ASSIGNs unverdicted runs).
        if (job.results_relayed % 256 == 0) persist_state();
        // Splice the server-measured queue wait into the relayed payload so
        // the client can split queue vs replay time without a re-encode of
        // the verdict fields it must relay byte-exactly.
        if (queue_ns != 0 && !frame.payload.empty() && frame.payload.back() == '}') {
          frame.payload.pop_back();
          frame.payload += ",\"queue_ns\":" + std::to_string(queue_ns) + "}";
        }
        stream(job, frame.payload);
        if (result_hook) result_hook(w.pid);
        break;
      }
      default:
        std::fprintf(stderr, "vps-serverd: unexpected %s frame from worker pid %llu\n",
                     to_string(frame.type), static_cast<unsigned long long>(w.pid));
        kill_conn(w);
        break;
    }
  }

  void handle_client_frame(Conn& c, Frame& frame) {
    switch (frame.type) {
      case MsgType::kAssign: {
        const AssignMsg msg = decode_assign(frame.payload);
        const std::uint64_t arrived_ns = dist_now_ns();
        if (msg.ts_ns != 0) note_clock_sample(c, arrived_ns, msg.ts_ns);
        auto it = jobs.find(msg.job);
        if (it == jobs.end() || c.owned_jobs.count(msg.job) == 0) {
          std::fprintf(stderr, "vps-serverd: ASSIGN for unknown/foreign job %llu — dropping client\n",
                       static_cast<unsigned long long>(msg.job));
          kill_conn(c);
          return;
        }
        if (msg.run >= it->second.submit.config.runs) {
          std::fprintf(stderr,
                       "vps-serverd: ASSIGN of run %llu in job %llu of %zu runs — dropping "
                       "client\n",
                       static_cast<unsigned long long>(msg.run),
                       static_cast<unsigned long long>(msg.job), it->second.submit.config.runs);
          kill_conn(c);
          return;
        }
        // A client re-ASSIGNs every run it has no verdict for after a
        // reattach or a heartbeat window without a frame. A run past its
        // requeue budget gets its kept verdict again, never a worker; a run
        // still queued or on a worker is skipped, so it is never doubled up
        // (double execution would be wasted work — the duplicate RESULT is
        // first-verdict-wins on the client anyway).
        if (const auto crash = it->second.crashed.find(msg.run);
            crash != it->second.crashed.end()) {
          stream(it->second, crash->second);
          return;
        }
        for (const Inflight& e : it->second.pending) {
          if (e.run == msg.run) return;
        }
        for (const auto& w : conns) {
          if (w->dead || w->role != Conn::Role::kWorker) continue;
          for (const Inflight& e : w->inflight) {
            if (e.job == msg.job && e.run == msg.run) return;
          }
        }
        Inflight entry;
        entry.job = msg.job;
        entry.run = msg.run;
        entry.payload = std::move(frame.payload);
        entry.arrived_ns = arrived_ns;
        it->second.pending.push_back(std::move(entry));
        break;
      }
      case MsgType::kRelease: {
        const JobMsg msg = decode_job(frame.payload);
        if (c.owned_jobs.count(msg.job) != 0) {
          metrics.counter("server.jobs_released").add(1);
          remove_job(msg.job);
        }
        break;
      }
      default:
        std::fprintf(stderr, "vps-serverd: unexpected %s frame from a client\n",
                     to_string(frame.type));
        kill_conn(c);
        break;
    }
  }

  /// Answers `c` with REJECT and drops it when the send fails or `close`
  /// asks to (a peer speaking another protocol has nothing more to say).
  static void reject(Conn& c, const std::string& reason, bool close) {
    if (!c.channel.send_frame(MsgType::kReject, encode_reject(RejectMsg{reason})) || close) {
      c.dead = true;
    }
  }

  static std::string version_mismatch(std::uint32_t version) {
    return "protocol v" + std::to_string(version) + ", server speaks v" +
           std::to_string(kProtocolVersion);
  }

  /// First frame of a framed peer decides its role.
  void handle_first_frame(Conn& c, Frame& frame) {
    if (frame.type == MsgType::kRegister) {
      const RegisterMsg reg = decode_register(frame.payload);
      if (reg.version != kProtocolVersion) {
        reject(c, version_mismatch(reg.version), /*close=*/true);
        return;
      }
      c.role = Conn::Role::kWorker;
      c.pid = reg.pid;
      metrics.counter("server.workers_registered").add(1);
      if (reg.reconnects > 0) metrics.counter("dist.reconnects").add(1);
      if (reg.ts_ns != 0) note_clock_sample(c, dist_now_ns(), reg.ts_ns);
      if (trace != nullptr) {
        trace->event("worker_registered", 0, 0, dist_now_ns(),
                     {{"pid", reg.pid}, {"reconnects", reg.reconnects}});
      }
      return;
    }
    if (frame.type == MsgType::kSubmit) {
      SubmitMsg submit = decode_submit(frame.payload);
      if (submit.version != kProtocolVersion) {
        metrics.counter("server.jobs_rejected").add(1);
        reject(c, version_mismatch(submit.version), /*close=*/true);
        return;
      }
      c.role = Conn::Role::kClient;
      c.client_tok = submit.job_token;
      if (submit.ts_ns != 0) note_clock_sample(c, dist_now_ns(), submit.ts_ns);
      // Reattach: a SUBMIT carrying the token of a job whose client is gone
      // resumes that job instead of admitting a duplicate. A token never
      // matches a job a live client still holds (steal-proof), and reattach
      // is honored even while draining — it finishes work, it does not add
      // any.
      if (submit.job_token != 0) {
        for (auto& [id, job] : jobs) {
          if (job.submit.job_token != submit.job_token || job.submit.tenant != submit.tenant)
            continue;
          if (job.client != nullptr && !job.client->dead) break;  // held — admit fresh below
          job.client = &c;
          job.orphan_deadline.reset();
          c.owned_jobs.insert(id);
          metrics.counter("server.jobs_reattached").add(1);
          if (trace != nullptr) {
            trace->event("job_reattached", submit.job_token, 0, dist_now_ns(), {{"job", id}});
          }
          std::fprintf(stderr, "vps-serverd: tenant '%s' reattached to job %llu\n",
                       submit.tenant.c_str(), static_cast<unsigned long long>(id));
          if (!c.channel.send_frame(MsgType::kAccept, encode_accept(AcceptMsg{id}))) {
            on_client_death(c);
          }
          return;
        }
      }
      if (draining) {
        metrics.counter("server.jobs_rejected").add(1);
        reject(c, "server draining — not admitting new campaigns, resubmit elsewhere",
               /*close=*/false);
        return;
      }
      if (jobs.size() >= config.max_jobs) {
        metrics.counter("server.jobs_rejected").add(1);
        reject(c,
               "job table full (" + std::to_string(jobs.size()) + "/" +
                   std::to_string(config.max_jobs) + " campaigns admitted) — resubmit later",
               /*close=*/false);
        return;
      }
      const std::uint64_t id = next_job++;
      Job& job = jobs[id];
      job.id = id;
      job.submit = std::move(submit);
      job.client = &c;
      c.owned_jobs.insert(id);
      metrics.counter("server.jobs_accepted").add(1);
      if (trace != nullptr) {
        trace->event("job_admitted", job.submit.job_token, 0, dist_now_ns(), {{"job", id}});
      }
      persist_state();
      if (!c.channel.send_frame(MsgType::kAccept, encode_accept(AcceptMsg{id}))) {
        on_client_death(c);
      }
      return;
    }
    std::fprintf(stderr, "vps-serverd: peer opened with %s, expected REGISTER or SUBMIT\n",
                 to_string(frame.type));
    c.dead = true;
  }

  /// One deterministic line block per admitted job (id order), then the live
  /// worker map (pid order), then the healing counters — the GET /jobs body.
  /// Rendering depends only on server state, never on iteration artifacts,
  /// so equal states scrape equal bytes (same discipline as the metrics
  /// render).
  [[nodiscard]] std::string render_jobs() {
    char buf[64];
    std::string out = "jobs " + std::to_string(jobs.size()) + "\n";
    for (const auto& [id, job] : jobs) {
      std::snprintf(buf, sizeof buf, "%016llx",
                    static_cast<unsigned long long>(job.submit.job_token));
      out += "job=" + std::to_string(id) + " tenant=" + job.submit.tenant + " token=" + buf +
             " queued=" + std::to_string(job.pending.size()) +
             " inflight=" + std::to_string(job.inflight) +
             " relayed=" + std::to_string(job.results_relayed) +
             " requeued=" + std::to_string(job.requeued) +
             " orphaned=" + (job.orphan_deadline.has_value() ? "yes" : "no") + "\n";
      out += "  queue_wait_ms samples=" + std::to_string(job.queue_wait_ms.total()) +
             " p50=" + obs::format_double(job.queue_wait_ms.percentile(0.50), 6) +
             " p95=" + obs::format_double(job.queue_wait_ms.percentile(0.95), 6) + "\n";
      out += "  replay_ms samples=" + std::to_string(job.replay_ms.total()) +
             " p50=" + obs::format_double(job.replay_ms.percentile(0.50), 6) +
             " p95=" + obs::format_double(job.replay_ms.percentile(0.95), 6) + "\n";
      out += "  worker_runs";
      for (const auto& [pid, runs] : job.worker_runs) {
        out += " pid=" + std::to_string(pid) + ":" + std::to_string(runs);
      }
      out += "\n";
    }
    std::vector<const Conn*> workers;
    for (const auto& c : conns) {
      if (!c->dead && c->role == Conn::Role::kWorker) workers.push_back(c.get());
    }
    std::sort(workers.begin(), workers.end(),
              [](const Conn* a, const Conn* b) { return a->pid < b->pid; });
    out += "workers " + std::to_string(workers.size()) + "\n";
    for (const Conn* w : workers) {
      out += "worker pid=" + std::to_string(w->pid) +
             " inflight=" + std::to_string(w->inflight.size()) +
             " ready_jobs=" + std::to_string(w->ready_jobs.size()) + "\n";
    }
    auto counter = [&](const char* name) {
      return std::to_string(static_cast<std::uint64_t>(metrics.counter(name).value()));
    };
    out += "counters reconnects=" + counter("dist.reconnects") +
           " worker_deaths=" + counter("server.worker_deaths") +
           " requeued_runs=" + counter("server.requeued_runs") +
           " chaos_frames_dropped=" + counter("dist.chaos.frames_dropped") +
           " chaos_bytes_corrupted=" + counter("dist.chaos.bytes_corrupted") +
           " jobs_recovered=" + counter("dist.jobs_recovered") + "\n";
    return out;
  }

  /// Sniffs a fresh connection's first bytes: frame magic ("1SPV") marks a
  /// framed peer, "G" a scrape. "GET /jobs" answers the live job status,
  /// any other GET the metrics render — both as a minimal plaintext-over-
  /// HTTP response; the connection then drains until the peer closes so the
  /// reply is never cut off by a reset.
  void handle_sniff(Conn& c) {
    char buf[4096];
    const ssize_t n = ::recv(c.channel.fd(), buf, sizeof buf, 0);
    if (n <= 0) {
      if (n < 0 && (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK)) return;
      c.dead = true;
      return;
    }
    if (buf[0] == 'G') {
      metrics.counter("server.scrapes").add(1);
      update_gauges();
      // "GET <path> ..." — take the second token as the path. A request so
      // fragmented its first segment lacks the path is treated as /metrics.
      const std::string head(buf, static_cast<std::size_t>(n));
      std::string path;
      if (const std::size_t sp = head.find(' '); sp != std::string::npos) {
        const std::size_t end = head.find_first_of(" \r\n", sp + 1);
        path = head.substr(sp + 1, end == std::string::npos ? std::string::npos : end - sp - 1);
      }
      const std::string body = path.rfind("/jobs", 0) == 0 ? render_jobs() : metrics.render();
      const std::string response =
          "HTTP/1.0 200 OK\r\nContent-Type: text/plain; charset=utf-8\r\nContent-Length: " +
          std::to_string(body.size()) + "\r\n\r\n" + body;
      std::size_t off = 0;
      while (off < response.size()) {
        const ssize_t sent =
            ::send(c.channel.fd(), response.data() + off, response.size() - off, MSG_NOSIGNAL);
        if (sent < 0) {
          if (errno == EINTR) continue;
          c.dead = true;
          return;
        }
        off += static_cast<std::size_t>(sent);
      }
      ::shutdown(c.channel.fd(), SHUT_WR);
      c.role = Conn::Role::kDraining;
      return;
    }
    // Framed peer: hand the sniffed bytes to the channel as if pump() had
    // received them, then let normal frame handling decide the role.
    c.channel.feed_inbound(buf, static_cast<std::size_t>(n));
    drain_frames(c);
  }

  void drain_frames(Conn& c) {
    try {
      while (auto frame = c.channel.next_frame()) {
        c.last_heard = Clock::now();
        if (c.role == Conn::Role::kSniffing) {
          handle_first_frame(c, *frame);
        } else if (c.role == Conn::Role::kWorker) {
          handle_worker_frame(c, *frame);
        } else if (c.role == Conn::Role::kClient) {
          handle_client_frame(c, *frame);
        }
        if (c.dead) return;
      }
    } catch (const std::exception& e) {
      // Corrupted stream (bad magic/CRC) or malformed payload: a protocol
      // violation tears down the one connection, never the server.
      std::fprintf(stderr, "vps-serverd: protocol violation, dropping peer: %s\n", e.what());
      kill_conn(c);
    }
  }

  // --- the loop ------------------------------------------------------------

  struct Deadline { Clock::time_point at; const char* reason; };

  /// When `c` is overdue, and why: silent a heartbeat window while holding
  /// work, stuck that long mid-frame or before its first frame, or a SETUP
  /// unanswered past the hello timeout. The poll timeout waits for the
  /// earliest such deadline and the wedge sweep drops a peer past it.
  [[nodiscard]] std::optional<Deadline> overdue(const Conn& c) const {
    const auto hb = std::chrono::milliseconds(config.heartbeat_timeout_ms);
    std::optional<Deadline> first;
    const auto consider = [&first](Clock::time_point at, const char* reason) {
      if (!first || at < first->at) first = Deadline{at, reason};
    };
    if (c.role == Conn::Role::kWorker && !c.inflight.empty()) {
      consider(c.last_heard + hb, "silent while holding work");
    }
    if (c.role == Conn::Role::kSniffing) consider(c.last_heard + hb, "never spoke");
    if (const auto since = c.channel.partial_since()) consider(*since + hb, "stuck mid-frame");
    for (const auto& [job, due] : c.pending_setup) consider(due, "never answered SETUP");
    return first;
  }

  void serve(const std::atomic<bool>& stop_flag, const std::atomic<bool>* drain_flag,
             const std::atomic<bool>& abrupt_flag) {
    while (!stop_flag.load(std::memory_order_relaxed)) {
      if (drain_flag != nullptr && drain_flag->load(std::memory_order_relaxed)) draining = true;
      if (draining && jobs.empty()) break;  // drained dry — exit cleanly

      std::vector<struct pollfd> pfds;
      std::vector<Conn*> polled;
      std::vector<Clock::time_point> deadlines;
      pfds.push_back({listener.fd, POLLIN, 0});
      for (auto& c : conns) {
        if (c->dead) continue;
        pfds.push_back({c->channel.fd(), POLLIN, 0});
        polled.push_back(c.get());
        if (const auto due = overdue(*c)) deadlines.push_back(due->at);
      }
      for (const auto& [id, job] : jobs) {
        if (job.orphan_deadline) deadlines.push_back(*job.orphan_deadline);
      }
      const int timeout = poll_timeout_ms(Clock::now(), deadlines, 200);
      const int rc = ::poll(pfds.data(), pfds.size(), timeout);
      if (rc < 0) {
        if (errno == EINTR) continue;
        ensure(false, std::string("vps-serverd: poll failed: ") + std::strerror(errno));
      }

      // Accept sweep (nonblocking listener; drain the whole backlog).
      if ((pfds[0].revents & POLLIN) != 0) {
        int fd;
        while ((fd = tcp_accept(listener.fd)) >= 0) {
          auto conn = std::make_unique<Conn>(fd);
          if (config.chaos.enabled()) {
            // Server-side streams live in their own key range (bit 48) so
            // they can never collide with worker/client per-pid streams.
            conn->channel.set_chaos(std::make_shared<ChaosPolicy>(
                config.chaos, (1ULL << 48) + chaos_streams++));
          }
          conns.push_back(std::move(conn));
        }
      }

      for (std::size_t i = 0; i < polled.size(); ++i) {
        Conn& c = *polled[i];
        if (c.dead) continue;
        if ((pfds[i + 1].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
        if (c.role == Conn::Role::kSniffing && c.channel.stats().bytes_received == 0) {
          handle_sniff(c);
          continue;
        }
        if (c.role == Conn::Role::kDraining) {
          char buf[1024];
          const ssize_t n = ::recv(c.channel.fd(), buf, sizeof buf, 0);
          if (n == 0 || (n < 0 && errno != EINTR && errno != EAGAIN && errno != EWOULDBLOCK)) {
            c.dead = true;
          }
          continue;
        }
        bool stream_ok = false;
        try {
          stream_ok = c.channel.pump();
        } catch (const std::exception& e) {
          std::fprintf(stderr, "vps-serverd: corrupt stream, dropping peer: %s\n", e.what());
          kill_conn(c);
          continue;
        }
        drain_frames(c);
        if (!stream_ok && !c.dead) kill_conn(c);
      }

      // Wedge sweep: drop every peer past its deadline.
      const auto sweep_now = Clock::now();
      for (Conn* c : polled) {
        if (c->dead) continue;
        if (const auto due = overdue(*c); due && sweep_now > due->at) {
          std::fprintf(stderr, "vps-serverd: dropping wedged peer (%s)\n", due->reason);
          kill_conn(*c);
        }
      }

      // Orphan sweep: jobs whose tenant never reattached within the grace
      // window release their admission slot (and their workers' caches).
      std::vector<std::uint64_t> expired;
      for (const auto& [id, job] : jobs) {
        if (job.orphan_deadline && sweep_now > *job.orphan_deadline) expired.push_back(id);
      }
      for (std::uint64_t id : expired) {
        std::fprintf(stderr, "vps-serverd: orphaned job %llu never reattached — releasing\n",
                     static_cast<unsigned long long>(id));
        metrics.counter("server.jobs_expired").add(1);
        if (trace != nullptr) {
          const auto it = jobs.find(id);
          trace->event("job_expired", it != jobs.end() ? it->second.submit.job_token : 0, 0,
                       dist_now_ns(), {{"job", id}});
        }
        remove_job(id);
      }

      dispatch();
      update_gauges();

      conns.erase(std::remove_if(conns.begin(), conns.end(),
                                 [](const std::unique_ptr<Conn>& c) { return c->dead; }),
                  conns.end());
    }

    // Whatever way the loop ended, the listening socket must die with it.
    // A dead process loses its listener to the kernel; an in-process stop
    // that kept it open would be a black hole — the kernel keeps completing
    // handshakes into a backlog nobody will ever drain, and reconnecting
    // peers wait out their idle budget against a server that is gone.
    if (listener.fd >= 0) {
      ::close(listener.fd);
      listener.fd = -1;
    }

    if (abrupt_flag.load(std::memory_order_relaxed)) {
      // Simulated SIGKILL: no SHUTDOWN frames, no final flush — connections
      // drop as the Conn destructors close their fds, exactly what the
      // kernel would do to a killed process. Incremental persists remain.
      conns.clear();
      return;
    }

    // Orderly shutdown: pool workers get SHUTDOWN so `vps-worker --connect`
    // processes exit 0 instead of seeing an EOF, and the state file reflects
    // the final job table (empty after a completed drain) for the next
    // incarnation to adopt.
    for (auto& c : conns) {
      if (!c->dead && c->role == Conn::Role::kWorker) {
        (void)c->channel.send_frame(MsgType::kShutdown, "");
      }
    }
    conns.clear();
    persist_state();
    update_gauges();
  }
};

CampaignServer::CampaignServer(ServerConfig config)
    : impl_(std::make_unique<Impl>(std::move(config))) {}

CampaignServer::~CampaignServer() { stop(); }

std::uint16_t CampaignServer::port() const noexcept { return impl_->listener.port; }

void CampaignServer::on_worker_death(std::function<void(const WorkerDeath&)> hook) {
  impl_->death_hook = std::move(hook);
}

void CampaignServer::on_result(std::function<void(std::uint64_t pid)> hook) {
  impl_->result_hook = std::move(hook);
}

void CampaignServer::start() {
  ensure(!thread_.joinable(), "CampaignServer: already started");
  stop_requested_.store(false);
  thread_ = std::thread([this] { impl_->serve(stop_requested_, &drain_requested_, abrupt_); });
}

void CampaignServer::stop() {
  stop_requested_.store(true);
  if (thread_.joinable()) thread_.join();
}

void CampaignServer::request_drain() { drain_requested_.store(true); }

void CampaignServer::crash() {
  abrupt_.store(true);
  stop_requested_.store(true);
  if (thread_.joinable()) thread_.join();
}

void CampaignServer::serve(const std::atomic<bool>& stop_flag,
                           const std::atomic<bool>* drain_flag) {
  impl_->serve(stop_flag, drain_flag, abrupt_);
}

const obs::MetricRegistry& CampaignServer::metrics() const noexcept { return impl_->metrics; }

}  // namespace vps::dist
