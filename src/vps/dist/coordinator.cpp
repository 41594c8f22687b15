#include "vps/dist/coordinator.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <thread>
#include <utility>

#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include "vps/dist/worker.hpp"
#include "vps/fault/checkpoint.hpp"
#include "vps/fault/driver_util.hpp"
#include "vps/obs/dist_trace.hpp"
#include "vps/support/ensure.hpp"
#include "vps/support/stats.hpp"

namespace vps::dist {

using fault::CampaignCheckpoint;
using fault::CampaignConfig;
using fault::CampaignResult;
using fault::CampaignState;
using fault::FaultDescriptor;
using fault::Outcome;
using fault::ReplayResult;
using fault::detail::fold_run;
using fault::detail::kDefaultBatch;
using fault::detail::stop_condition_met;
using support::ensure;

using Clock = std::chrono::steady_clock;

/// Checkpoint driver tag, deliberately ParallelCampaign's: the two batched
/// drivers share one generation/learning cadence, so their checkpoints are
/// interchangeable.
constexpr const char* kCheckpointDriver = "parallel_campaign";

struct DistCampaign::Worker {
  pid_t pid = -1;
  std::unique_ptr<Channel> channel;
  bool alive = false;
  /// Batch positions assigned to this worker that have no RESULT yet.
  std::vector<std::size_t> inflight;
  Clock::time_point last_heard;
};

/// RAII fleet: whatever path leaves execute() — return, ensure() throw,
/// scenario exception — every still-running child is SIGKILLed and reaped.
struct DistCampaign::Fleet {
  std::vector<Worker> workers;
  FleetStats* stats = nullptr;

  ~Fleet() {
    for (Worker& w : workers) reap(w, /*force_kill=*/true);
  }

  /// Closes the channel (folding its counters into the stats), kills the
  /// process if requested, and waits for it — never leaves a zombie.
  void reap(Worker& w, bool force_kill) {
    if (w.channel != nullptr) {
      if (stats != nullptr) {
        stats->frames_sent += w.channel->stats().frames_sent;
        stats->frames_received += w.channel->stats().frames_received;
        stats->bytes_sent += w.channel->stats().bytes_sent;
        stats->bytes_received += w.channel->stats().bytes_received;
      }
      w.channel->close();
      w.channel.reset();
    }
    if (w.pid > 0) {
      if (force_kill) ::kill(w.pid, SIGKILL);
      int status = 0;
      pid_t r;
      do {
        r = ::waitpid(w.pid, &status, 0);
      } while (r < 0 && errno == EINTR);
      w.pid = -1;
    }
    w.alive = false;
  }

  [[nodiscard]] std::size_t alive_count() const noexcept {
    std::size_t n = 0;
    for (const Worker& w : workers) n += w.alive ? 1 : 0;
    return n;
  }
};

namespace {

/// Forks one worker. In fork-only mode the child serves with the inherited
/// factory; in exec mode it dup2s its socket onto fd 3 and execs the
/// vps-worker binary. `all_pairs` is every socketpair of the fleet — the
/// child closes all ends that are not its own, so a dead coordinator (or
/// dead sibling) produces a visible EOF instead of a connection kept alive
/// by an unrelated process holding a duplicate descriptor.
pid_t spawn_worker(std::size_t index, const std::vector<SocketPair>& all_pairs,
                   const fault::ScenarioFactory& factory, const DistConfig& config) {
  const pid_t pid = ::fork();
  ensure(pid >= 0, std::string("dist: fork failed: ") + std::strerror(errno));
  if (pid != 0) return pid;

  // --- child ---
  const int my_fd = all_pairs[index].worker_fd;
  for (std::size_t i = 0; i < all_pairs.size(); ++i) {
    ::close(all_pairs[i].coordinator_fd);
    if (i != index) ::close(all_pairs[i].worker_fd);
  }
  if (config.worker_path.empty()) {
    // Fork-only worker: serve straight out of the fork with the inherited
    // factory. _exit, not exit — a forked child must not run the parent's
    // atexit handlers or flush its inherited stdio buffers twice.
    int code = 3;
    {
      Channel channel(my_fd);
      code = serve(channel, [&factory, &config](const SetupMsg&) {
        return fault::detail::build_scenario(factory, config.campaign, "DistCampaign");
      });
    }
    ::_exit(code);
  }
  // Exec worker: hand the socket over on fd 3 and replace the image.
  if (my_fd != 3) {
    if (::dup2(my_fd, 3) < 0) ::_exit(127);
    ::close(my_fd);
  }
  ::execl(config.worker_path.c_str(), "vps-worker", "--fd", "3",
          static_cast<char*>(nullptr));
  ::_exit(127);  // exec failed: the coordinator sees EOF instead of HELLO
}

int remaining_ms(Clock::time_point deadline) noexcept {
  const auto left =
      std::chrono::duration_cast<std::chrono::milliseconds>(deadline - Clock::now()).count();
  return left <= 0 ? 0 : static_cast<int>(std::min<long long>(left, 1'000'000));
}

}  // namespace

int poll_timeout_ms(Clock::time_point now, const std::vector<Clock::time_point>& deadlines,
                    int fallback_ms) noexcept {
  long long best = fallback_ms;
  for (const Clock::time_point d : deadlines) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(d - now).count();
    best = std::min(best, std::max<long long>(0, left));
  }
  return static_cast<int>(best);
}

DistCampaign::DistCampaign(fault::ScenarioFactory factory, DistConfig config)
    : factory_(std::move(factory)), config_(std::move(config)) {
  ensure(static_cast<bool>(factory_), "DistCampaign: empty scenario factory");
  ignore_sigpipe();
}

void DistCampaign::ensure_coordinator() {
  if (coordinator_ != nullptr) return;
  coordinator_ = fault::detail::build_scenario(factory_, config_.campaign, "DistCampaign");
}

CampaignResult DistCampaign::run() {
  ensure_coordinator();
  if (!golden_valid_) {
    golden_ = coordinator_->run(nullptr, config_.campaign.seed);
    golden_valid_ = true;
    ensure(golden_.completed,
           "DistCampaign: golden run did not complete for " + coordinator_->name());
  }
  CampaignState state(coordinator_->fault_types(), coordinator_->duration(), config_.campaign);
  return execute(0, CampaignResult{}, state);
}

CampaignResult DistCampaign::resume(const CampaignCheckpoint& checkpoint) {
  ensure_coordinator();
  fault::detail::validate_checkpoint(checkpoint, kCheckpointDriver, coordinator_->name(),
                                     config_.campaign);
  golden_ = checkpoint.golden;
  golden_valid_ = true;

  CampaignState state(coordinator_->fault_types(), coordinator_->duration(), config_.campaign);
  CampaignResult result;
  const std::size_t next =
      fault::detail::replay_prefix_batched(checkpoint, config_.campaign, state, result);
  return execute(next, std::move(result), state);
}

void DistCampaign::publish_fleet_metrics() const {
  if (metrics_ == nullptr) return;
  metrics_->counter("dist.workers_spawned").add(fleet_stats_.workers_spawned);
  metrics_->counter("dist.worker_deaths").add(fleet_stats_.worker_deaths);
  metrics_->counter("dist.requeued_runs").add(fleet_stats_.requeued_runs);
  metrics_->counter("dist.crashed_runs").add(fleet_stats_.crashed_runs);
  metrics_->counter("dist.frames_sent").add(fleet_stats_.frames_sent);
  metrics_->counter("dist.frames_received").add(fleet_stats_.frames_received);
  metrics_->counter("dist.bytes_sent").add(fleet_stats_.bytes_sent);
  metrics_->counter("dist.bytes_received").add(fleet_stats_.bytes_received);
  metrics_->counter("dist.reconnects").add(fleet_stats_.reconnects);
  metrics_->counter("dist.chaos.frames_dropped").add(fleet_stats_.chaos_frames_dropped);
  metrics_->counter("dist.chaos.bytes_corrupted").add(fleet_stats_.chaos_bytes_corrupted);
}

CampaignResult DistCampaign::execute(std::size_t start_run, CampaignResult result,
                                     CampaignState& state) {
  if (!config_.server_host.empty()) {
    return execute_remote(start_run, std::move(result), state);
  }
  const auto started = Clock::now();
  const auto elapsed = [&started] {
    return std::chrono::duration<double>(Clock::now() - started).count();
  };
  const CampaignConfig& cc = config_.campaign;
  const std::size_t fleet_size = std::max<std::size_t>(1, config_.workers);

  // --- spawn the fleet -----------------------------------------------------
  std::vector<SocketPair> pairs;
  pairs.reserve(fleet_size);
  for (std::size_t i = 0; i < fleet_size; ++i) pairs.push_back(make_socket_pair());

  Fleet fleet;
  fleet.stats = &fleet_stats_;
  fleet.workers.resize(fleet_size);
  for (std::size_t i = 0; i < fleet_size; ++i) {
    Worker& w = fleet.workers[i];
    w.pid = spawn_worker(i, pairs, factory_, config_);
    ::close(pairs[i].worker_fd);
    w.channel = std::make_unique<Channel>(pairs[i].coordinator_fd);
    w.alive = true;
    w.last_heard = Clock::now();
    ++fleet_stats_.workers_spawned;
  }

  // --- handshake: SETUP out, HELLO back ------------------------------------
  SetupMsg setup;
  setup.scenario_spec =
      config_.scenario_spec.empty() ? coordinator_->name() : config_.scenario_spec;
  setup.seed = cc.seed;
  setup.crash_retries = cc.crash_retries;
  setup.golden = golden_;
  const std::string setup_payload = encode_setup(setup);
  const auto hello_deadline = Clock::now() + std::chrono::milliseconds(config_.hello_timeout_ms);
  for (std::size_t i = 0; i < fleet_size; ++i) {
    Worker& w = fleet.workers[i];
    ensure(w.channel->send_frame(MsgType::kHello, setup_payload),
           "dist: worker " + std::to_string(i) +
               " died before SETUP could be delivered (spawn failure — bad worker binary "
               "path or worker crashed on startup)");
    auto frame = w.channel->wait_frame(remaining_ms(hello_deadline));
    ensure(frame.has_value(),
           "dist: worker " + std::to_string(i) +
               (w.channel->open() ? " did not answer SETUP within the hello timeout"
                                  : " exited before completing the handshake (spawn failure — "
                                    "bad worker binary path or worker crashed on startup)"));
    ensure(frame->type == MsgType::kHello, std::string("dist: worker ") + std::to_string(i) +
                                               " answered SETUP with " + to_string(frame->type));
    const HelloMsg hello = decode_hello(frame->payload);
    ensure(hello.version == kProtocolVersion,
           "dist: worker " + std::to_string(i) + " speaks protocol v" +
               std::to_string(hello.version) + ", coordinator speaks v" +
               std::to_string(kProtocolVersion));
    ensure(hello.scenario == coordinator_->name(),
           "dist: worker " + std::to_string(i) + " built scenario '" + hello.scenario +
               "', coordinator runs '" + coordinator_->name() + "'");
    w.last_heard = Clock::now();
  }

  // --- batch loop ----------------------------------------------------------
  const support::Xorshift base(cc.seed);
  const std::size_t batch = cc.batch_size == 0 ? kDefaultBatch : cc.batch_size;
  std::optional<fault::CheckpointWriter> checkpoint = fault::detail::checkpoint_writer(
      cc, kCheckpointDriver, coordinator_->name(), golden_);
  const bool checkpointing = checkpoint.has_value() && cc.checkpoint_every != 0;

  std::size_t next_run = start_run;
  std::size_t executed_this_call = 0;
  std::size_t runs_since_checkpoint = 0;
  std::uint64_t results_total = 0;
  bool kill_hook_fired = config_.kill_after_results == 0;
  bool stopped = stop_condition_met(cc, result);  // resumed past the stop

  // Declares `w` dead: reap it and requeue its in-flight work onto the
  // least-loaded survivor (or synthesize kSimCrash once a run exhausted its
  // requeue budget). Defined here so both the send and the collect paths
  // share it.
  std::vector<std::optional<ReplayResult>> replays;
  std::vector<std::uint32_t> requeues;
  std::vector<FaultDescriptor>* batch_faults = nullptr;
  std::size_t batch_results = 0;
  const auto assign_one = [&](Worker& w, std::size_t slot) -> bool {
    AssignMsg msg;
    msg.run = next_run + slot;
    msg.fault = (*batch_faults)[slot];
    if (!w.channel->send_frame(MsgType::kAssign, encode_assign(msg))) return false;
    w.inflight.push_back(slot);
    return true;
  };
  const std::function<void(Worker&)> on_worker_death = [&](Worker& w) {
    std::vector<std::size_t> orphaned = std::move(w.inflight);
    w.inflight.clear();
    fleet.reap(w, /*force_kill=*/true);
    ++fleet_stats_.worker_deaths;
    std::fprintf(stderr, "dist: worker died, requeuing %zu in-flight run(s) onto %zu survivor(s)\n",
                 orphaned.size(), fleet.alive_count());
    for (std::size_t slot : orphaned) {
      if (replays[slot].has_value()) continue;  // result arrived before the EOF
      ++requeues[slot];
      ++fleet_stats_.requeued_runs;
      if (requeues[slot] > config_.max_requeues) {
        // The run keeps taking its workers down with it — same verdict the
        // in-process drivers give a replay that keeps throwing.
        ReplayResult crash;
        crash.outcome = Outcome::kSimCrash;
        crash.attempts = requeues[slot];
        crash.crash_what = "dist: run " + std::to_string(next_run + slot) + " requeued " +
                           std::to_string(config_.max_requeues) +
                           " time(s), each assigned worker died before returning a result";
        replays[slot] = std::move(crash);
        ++fleet_stats_.crashed_runs;
        ++batch_results;
        continue;
      }
      Worker* target = nullptr;
      for (Worker& cand : fleet.workers) {
        if (!cand.alive) continue;
        if (target == nullptr || cand.inflight.size() < target->inflight.size()) target = &cand;
      }
      ensure(target != nullptr, "dist: all workers died with runs still in flight");
      if (!assign_one(*target, slot)) {
        on_worker_death(*target);  // recurses; terminates because the fleet shrinks
        // The current slot was not recorded as target's inflight (send
        // failed), so requeue it again by hand on the next survivor.
        --requeues[slot];
        --fleet_stats_.requeued_runs;
        Worker* next_target = nullptr;
        for (Worker& cand : fleet.workers) {
          if (!cand.alive) continue;
          if (next_target == nullptr || cand.inflight.size() < next_target->inflight.size()) {
            next_target = &cand;
          }
        }
        ensure(next_target != nullptr, "dist: all workers died with runs still in flight");
        ++requeues[slot];
        ++fleet_stats_.requeued_runs;
        ensure(assign_one(*next_target, slot),
               "dist: workers keep dying faster than runs can be reassigned");
      }
    }
  };

  while (next_run < cc.runs && !stopped) {
    const std::size_t n = std::min(batch, cc.runs - next_run);

    // Generate the whole batch on the coordinator: adaptive strategies see
    // the weights/coverage as of the last barrier (same as ParallelCampaign).
    std::vector<FaultDescriptor> faults;
    faults.reserve(n);
    for (std::size_t b = 0; b < n; ++b) {
      support::Xorshift run_rng = base.fork(next_run + b);
      faults.push_back(state.generate(next_run + b, run_rng));
    }

    replays.assign(n, std::nullopt);
    requeues.assign(n, 0);
    batch_faults = &faults;
    batch_results = 0;

    // Fan out round-robin over the survivors.
    {
      std::vector<Worker*> alive;
      for (Worker& w : fleet.workers) {
        if (w.alive) alive.push_back(&w);
      }
      ensure(!alive.empty(), "dist: no workers alive at batch start");
      for (std::size_t b = 0; b < n; ++b) {
        Worker& w = *alive[b % alive.size()];
        if (!w.alive) continue;  // died while assigning this batch
        if (!assign_one(w, b)) on_worker_death(w);
      }
      // Slots whose round-robin worker was already dead by their turn.
      for (std::size_t b = 0; b < n; ++b) {
        if (replays[b].has_value()) continue;
        bool assigned = false;
        for (const Worker& w : fleet.workers) {
          if (w.alive &&
              std::find(w.inflight.begin(), w.inflight.end(), b) != w.inflight.end()) {
            assigned = true;
            break;
          }
        }
        if (!assigned) {
          Worker* target = nullptr;
          for (Worker& cand : fleet.workers) {
            if (!cand.alive) continue;
            if (target == nullptr || cand.inflight.size() < target->inflight.size()) {
              target = &cand;
            }
          }
          ensure(target != nullptr, "dist: all workers died while assigning a batch");
          if (!assign_one(*target, b)) on_worker_death(*target);
        }
      }
    }

    // Collect until every slot has a verdict.
    while (batch_results < n) {
      std::vector<struct pollfd> pfds;
      std::vector<Worker*> polled;
      for (Worker& w : fleet.workers) {
        if (!w.alive) continue;
        pfds.push_back({w.channel->fd(), POLLIN, 0});
        polled.push_back(&w);
      }
      ensure(!pfds.empty(), "dist: all workers died with runs still in flight");

      // Wake at the earliest expiry across the whole fleet — a worker whose
      // heartbeat (or partial-frame) deadline lands between fixed-cadence
      // wakeups would otherwise be detected up to a full poll period late.
      const auto poll_now = Clock::now();
      const auto hb_window = std::chrono::milliseconds(config_.heartbeat_timeout_ms);
      std::vector<Clock::time_point> deadlines;
      for (const Worker* wp : polled) {
        if (!wp->inflight.empty()) deadlines.push_back(wp->last_heard + hb_window);
        if (const auto since = wp->channel->partial_since()) {
          deadlines.push_back(*since + hb_window);
        }
      }
      const int timeout =
          poll_timeout_ms(poll_now, deadlines, std::min(config_.heartbeat_timeout_ms, 1000));
      const int rc = ::poll(pfds.data(), pfds.size(), timeout);
      if (rc < 0) {
        if (errno == EINTR) continue;
        ensure(false, std::string("dist: poll failed: ") + std::strerror(errno));
      }

      for (std::size_t i = 0; i < polled.size(); ++i) {
        Worker& w = *polled[i];
        if (!w.alive) continue;  // killed earlier in this sweep
        if ((pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
        const bool stream_ok = w.channel->pump();
        // Drain every frame the pump buffered — results that raced the EOF
        // still count, so a worker killed after finishing its work loses
        // nothing.
        while (auto frame = w.channel->next_frame()) {
          w.last_heard = Clock::now();
          switch (frame->type) {
            case MsgType::kHeartbeat:
              break;  // liveness only; last_heard update above is the point
            case MsgType::kResult: {
              ResultMsg msg = decode_result(frame->payload);
              if (msg.run < next_run || msg.run >= next_run + n) [[unlikely]] {
                support::fail("dist: RESULT for run " + std::to_string(msg.run) +
                              " outside the current batch");
              }
              const std::size_t slot = msg.run - next_run;
              auto it = std::find(w.inflight.begin(), w.inflight.end(), slot);
              if (it != w.inflight.end()) w.inflight.erase(it);
              if (!replays[slot].has_value()) {
                // First verdict wins; a duplicate from a requeue race is
                // byte-identical anyway (replays are pure).
                replays[slot] = std::move(msg.replay);
                ++batch_results;
              }
              ++results_total;
              if (!kill_hook_fired && results_total >= config_.kill_after_results) {
                kill_hook_fired = true;
                const std::size_t victim = config_.kill_worker % fleet.workers.size();
                if (fleet.workers[victim].alive) {
                  ::kill(fleet.workers[victim].pid, SIGKILL);
                }
              }
              break;
            }
            default:
              ensure(false, std::string("dist: unexpected ") + to_string(frame->type) +
                                " frame from a worker");
          }
        }
        if (!stream_ok) on_worker_death(w);
      }

      // Hang detection: a worker holding work that has said nothing for the
      // whole heartbeat window is wedged — kill it and move its work. So is
      // a worker sitting on an incomplete frame for that long, whatever its
      // assignment state: a truncated RESULT tail must never park the
      // reassembly buffer (and the campaign) forever.
      const auto now = Clock::now();
      for (Worker& w : fleet.workers) {
        if (!w.alive) continue;
        const bool busy_silent =
            !w.inflight.empty() &&
            now - w.last_heard > std::chrono::milliseconds(config_.heartbeat_timeout_ms);
        const auto since = w.channel->partial_since();
        const bool wedged_partial =
            since.has_value() &&
            now - *since > std::chrono::milliseconds(config_.heartbeat_timeout_ms);
        if (busy_silent || wedged_partial) {
          std::fprintf(stderr, "dist: worker pid %d %s past the heartbeat timeout, killing\n",
                       static_cast<int>(w.pid),
                       wedged_partial ? "stuck mid-frame" : "silent");
          ::kill(w.pid, SIGKILL);
          on_worker_death(w);
        }
      }
    }
    batch_faults = nullptr;

    // Barrier: reduce in run-index order — learning, coverage and the
    // closure curve replay exactly as ParallelCampaign would.
    std::size_t processed = 0;
    for (std::size_t b = 0; b < n; ++b) {
      ReplayResult& r = *replays[b];
      fold_run(result, state, next_run + b,
               {std::move(faults[b]), r.outcome, std::move(r.crash_what),
                std::move(r.provenance)},
               r.attempts);
      processed = b + 1;
      if (stop_condition_met(cc, result)) {
        stopped = true;
        break;
      }
    }
    next_run += n;
    executed_this_call += processed;
    if (monitor_ != nullptr) {
      obs::CampaignProgress progress = progress_snapshot(
          coordinator_->name(), result, cc.runs, state.coverage().coverage(), elapsed());
      progress.workers_alive = fleet.alive_count();
      progress.worker_deaths = fleet_stats_.worker_deaths;
      progress.requeued_runs = fleet_stats_.requeued_runs;
      monitor_->on_progress(progress);
    }
    if (checkpointing) {
      runs_since_checkpoint += processed;
      if (runs_since_checkpoint >= cc.checkpoint_every) {
        checkpoint->save(result.records);
        runs_since_checkpoint = 0;
      }
    }
    if (!stopped && cc.preempt_after != 0 && executed_this_call >= cc.preempt_after &&
        next_run < cc.runs) {
      if (checkpoint) checkpoint->save(result.records);
      result.interrupted = true;
      break;
    }
  }

  // --- orderly shutdown ----------------------------------------------------
  for (Worker& w : fleet.workers) {
    if (!w.alive) continue;
    (void)w.channel->send_frame(MsgType::kShutdown, "");
    fleet.reap(w, /*force_kill=*/false);
  }

  fault::detail::finalize(result, state);
  if (!result.interrupted) {
    if (metrics_ != nullptr) {
      result.publish_metrics(*metrics_);
      publish_fleet_metrics();
    }
    if (monitor_ != nullptr) {
      obs::CampaignProgress progress =
          progress_snapshot(coordinator_->name(), result, cc.runs, result.final_coverage,
                            elapsed(), /*include_latency=*/true);
      progress.worker_deaths = fleet_stats_.worker_deaths;
      progress.requeued_runs = fleet_stats_.requeued_runs;
      monitor_->on_complete(progress);
    }
  }
  return result;
}

namespace {

/// Stable client-side job identity: FNV-1a over the determinism-relevant
/// campaign fields. The same campaign resubmitted from a fresh process (after
/// a client crash, or across a server restart) hashes to the same token, so
/// the server can reattach the orphaned job instead of admitting a duplicate.
std::uint64_t job_token_for(const SubmitMsg& submit) {
  std::uint64_t h = 1469598103934665603ULL;
  const auto mix_bytes = [&h](const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 1099511628211ULL;
    }
  };
  const auto mix_str = [&](const std::string& s) {
    mix_bytes(s.data(), s.size());
    mix_bytes("\0", 1);  // length delimiter: ("ab","c") != ("a","bc")
  };
  const auto mix_u64 = [&](std::uint64_t v) { mix_bytes(&v, sizeof v); };
  mix_str(submit.tenant);
  mix_str(submit.scenario_spec);
  mix_str(submit.scenario);
  mix_u64(submit.config.seed);
  mix_u64(submit.config.runs);
  mix_u64(submit.max_requeues);
  return h == 0 ? 1 : h;  // 0 is the wire sentinel for "no token"
}

}  // namespace

CampaignResult DistCampaign::execute_remote(std::size_t start_run, CampaignResult result,
                                            CampaignState& state) {
  const auto started = Clock::now();
  const auto elapsed = [&started] {
    return std::chrono::duration<double>(Clock::now() - started).count();
  };
  const CampaignConfig& cc = config_.campaign;

  // --- submit (self-healing: retried with backoff until the server answers) -
  SubmitMsg submit;
  submit.tenant = config_.tenant.empty() ? "default" : config_.tenant;
  submit.scenario_spec =
      config_.scenario_spec.empty() ? coordinator_->name() : config_.scenario_spec;
  submit.scenario = coordinator_->name();
  submit.config = cc;
  submit.max_requeues = config_.max_requeues;
  submit.golden = golden_;
  submit.job_token = job_token_for(submit);

  // The token is in the trace filename because two tenant threads share one
  // pid — per-campaign files can then never collide.
  std::unique_ptr<obs::DistTraceWriter> trace;
  try {
    trace = obs::DistTraceWriter::open(config_.trace_dir, "client", submit.job_token);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dist: tracing disabled: %s\n", e.what());
  }

  // Always-on queue-vs-replay split from the v3 RESULT timing fields (both
  // zero when the server/worker predates v3 — the split is then omitted).
  support::Histogram queue_wait_ms(0.0, 5000.0, 500);
  support::Histogram replay_ms(0.0, 5000.0, 500);
  std::uint64_t remote_timed_runs = 0;
  const auto fill_latency_split = [&](obs::CampaignProgress& p) {
    p.remote_runs = remote_timed_runs;
    if (remote_timed_runs == 0) return;  // all-v2 fleet: reporter omits the split
    p.queue_wait_p50_ms = queue_wait_ms.percentile(0.50);
    p.queue_wait_p95_ms = queue_wait_ms.percentile(0.95);
    p.replay_p50_ms = replay_ms.percentile(0.50);
    p.replay_p95_ms = replay_ms.percentile(0.95);
  };

  std::optional<Channel> channel;
  std::uint64_t job = 0;
  std::uint64_t connect_attempts = 0;
  int backoff_ms = std::max(1, config_.reconnect_backoff_ms);
  // Deterministic jitter: seeded from the campaign, forked by pid so two
  // clients of one server never sleep in lockstep.
  support::Xorshift jitter =
      support::Xorshift(cc.seed + 0x73656c666865ULL).fork(static_cast<std::uint64_t>(::getpid()));

  // Folds the dying channel's transfer + chaos counters into fleet_stats_ so
  // no bytes are lost across reconnects, then drops it.
  const auto fold_channel = [&] {
    if (!channel.has_value()) return;
    fleet_stats_.frames_sent += channel->stats().frames_sent;
    fleet_stats_.frames_received += channel->stats().frames_received;
    fleet_stats_.bytes_sent += channel->stats().bytes_sent;
    fleet_stats_.bytes_received += channel->stats().bytes_received;
    if (channel->chaos() != nullptr) {
      fleet_stats_.chaos_frames_dropped += channel->chaos()->counters().frames_dropped;
      fleet_stats_.chaos_bytes_corrupted += channel->chaos()->counters().bytes_corrupted;
    }
    channel.reset();
  };

  // Connect + SUBMIT + await the admission verdict. Connection-level failures
  // (refused, timed out, link died before ACCEPT) are retried with doubling
  // backoff and jitter, bounded by max_reconnects consecutive failures — this
  // is what lets a tenant ride out a server crash + restart. A REJECT is an
  // explicit answer and always fatal, on the first attempt and on every
  // reconnect alike.
  const auto connect_and_submit = [&] {
    int failures = 0;
    for (;;) {
      std::optional<Frame> reply;
      try {
        Channel fresh(tcp_connect(config_.server_host, config_.server_port,
                                  config_.connect_timeout_ms));
        if (config_.chaos.enabled()) {
          // Distinct stream per attempt: replaying the seed replays the
          // faults, reconnecting does not replay the same fault schedule.
          fresh.set_chaos(std::make_shared<ChaosPolicy>(
              config_.chaos, (static_cast<std::uint64_t>(::getpid()) << 20) + 0x80000ULL +
                                 connect_attempts));
        }
        ++connect_attempts;
        // Fresh clock sample per attempt: the server pairs it with its own
        // arrival clock to align this client's trace file.
        submit.ts_ns = obs::dist_now_ns();
        ensure(fresh.send_frame(MsgType::kSubmit, encode_submit(submit)),
               "dist: campaign server hung up before SUBMIT could be delivered");
        reply = fresh.wait_frame(config_.hello_timeout_ms);
        ensure(reply.has_value(),
               fresh.open() ? "dist: campaign server did not answer SUBMIT in time"
                            : "dist: campaign server closed the connection on SUBMIT");
        channel.emplace(std::move(fresh));
      } catch (const std::exception& e) {
        if (++failures > config_.max_reconnects) {
          ensure(false,
                 std::string("dist: could not reach campaign server after retries: ") + e.what());
        }
        std::fprintf(stderr, "dist: SUBMIT attempt failed (%s) — retrying in ~%d ms\n", e.what(),
                     backoff_ms);
        std::this_thread::sleep_for(std::chrono::milliseconds(
            static_cast<long>(jitter.uniform(0.5 * backoff_ms, 1.5 * backoff_ms))));
        backoff_ms = std::min(backoff_ms * 2, std::max(1, config_.reconnect_backoff_max_ms));
        continue;
      }
      if (reply->type == MsgType::kReject) {
        fold_channel();
        ensure(false, "dist: campaign server rejected submission: " +
                          decode_reject(reply->payload).reason);
      }
      ensure(reply->type == MsgType::kAccept,
             std::string("dist: campaign server answered SUBMIT with ") + to_string(reply->type));
      job = decode_accept(reply->payload).job;
      backoff_ms = std::max(1, config_.reconnect_backoff_ms);
      return;
    }
  };

  // Link-loss recovery: account for the dead channel, reconnect, re-SUBMIT.
  // The job token makes the re-SUBMIT a reattach when the server still holds
  // the job (orphan grace) and a fresh admission when it does not (volatile
  // restart) — either way `job` is current again afterwards.
  const auto reestablish = [&](const std::string& why) {
    std::fprintf(stderr, "dist: link to campaign server lost (%s) — reconnecting\n", why.c_str());
    fold_channel();
    ++fleet_stats_.reconnects;
    if (trace != nullptr) {
      trace->event("reconnect", submit.job_token, 0, obs::dist_now_ns(),
                   {{"reconnects", fleet_stats_.reconnects}});
    }
    connect_and_submit();
  };

  connect_and_submit();

  // --- batch loop: identical generation/fold cadence to the local fleet ----
  const support::Xorshift base(cc.seed);
  const std::size_t batch = cc.batch_size == 0 ? kDefaultBatch : cc.batch_size;
  std::optional<fault::CheckpointWriter> checkpoint = fault::detail::checkpoint_writer(
      cc, kCheckpointDriver, coordinator_->name(), golden_);
  const bool checkpointing = checkpoint.has_value() && cc.checkpoint_every != 0;
  // The server absorbs worker death internally (requeue or synthesized
  // kSimCrash), so the client only fails once the server itself has been
  // silent for several heartbeat windows.
  const auto silence_budget =
      std::chrono::milliseconds(3LL * config_.heartbeat_timeout_ms + 10'000);

  std::size_t next_run = start_run;
  std::size_t executed_this_call = 0;
  std::size_t runs_since_checkpoint = 0;
  bool stopped = stop_condition_met(cc, result);  // resumed past the stop

  while (next_run < cc.runs && !stopped) {
    const std::size_t n = std::min(batch, cc.runs - next_run);
    std::vector<FaultDescriptor> faults;
    faults.reserve(n);
    for (std::size_t b = 0; b < n; ++b) {
      support::Xorshift run_rng = base.fork(next_run + b);
      faults.push_back(state.generate(next_run + b, run_rng));
    }

    // Dispatch + collect, healing the link as needed. After every reconnect
    // only the runs still missing a verdict are re-ASSIGNed; first verdict
    // wins, so a run that was executed twice (old assignment still in flight
    // on some worker, new assignment after the reattach) folds exactly once —
    // and deterministically, because a replay is a pure function of
    // descriptor + seed + golden.
    std::vector<std::optional<ReplayResult>> replays(n);
    std::size_t batch_results = 0;
    bool dispatched = false;
    auto silence_deadline = Clock::now() + silence_budget;
    while (batch_results < n) {
      if (!dispatched) {
        bool sent_all = true;
        for (std::size_t b = 0; b < n; ++b) {
          if (replays[b].has_value()) continue;
          AssignMsg msg;
          msg.job = job;
          msg.run = next_run + b;
          msg.ts_ns = obs::dist_now_ns();
          msg.fault = faults[b];
          if (!channel->send_frame(MsgType::kAssign, encode_assign(msg))) {
            sent_all = false;
            break;
          }
          if (trace != nullptr) trace->span("submit", submit.job_token, msg.run, msg.ts_ns, 0);
        }
        if (!sent_all) {
          reestablish("ASSIGN could not be delivered");
          continue;
        }
        dispatched = true;
        silence_deadline = Clock::now() + silence_budget;
      }

      std::optional<Frame> frame;
      try {
        frame = channel->wait_frame(1000);
      } catch (const std::exception& e) {
        // Corrupted/misaligned inbound stream — heal it like a hangup.
        reestablish(e.what());
        dispatched = false;
        continue;
      }
      if (!frame.has_value()) {
        if (!channel->open()) {
          reestablish("campaign server hung up mid-campaign");
          dispatched = false;
          continue;
        }
        if (Clock::now() >= silence_deadline) {
          reestablish("campaign server went silent past the heartbeat budget");
          dispatched = false;
          continue;
        }
        continue;
      }
      silence_deadline = Clock::now() + silence_budget;
      ensure(frame->type == MsgType::kResultStream,
             std::string("dist: unexpected ") + to_string(frame->type) +
                 " frame from the campaign server");
      ResultMsg msg = decode_result(frame->payload);
      // A verdict from outside the current batch is a stale duplicate from a
      // pre-reconnect assignment that lost its first-verdict race — ignore.
      if (msg.run < next_run || msg.run >= next_run + n) continue;
      const std::size_t slot = msg.run - next_run;
      if (!replays[slot].has_value()) {
        replays[slot] = std::move(msg.replay);
        ++batch_results;
        // Timing rides beside the verdict, never inside it: losers of the
        // first-verdict race drop their timing with their verdict.
        if (msg.replay_ns != 0 || msg.queue_ns != 0) {
          ++remote_timed_runs;
          if (msg.queue_ns != 0) queue_wait_ms.add(static_cast<double>(msg.queue_ns) / 1e6);
          if (msg.replay_ns != 0) replay_ms.add(static_cast<double>(msg.replay_ns) / 1e6);
        }
      }
    }

    // Barrier: fold in run-index order, exactly as the local paths do.
    std::size_t processed = 0;
    for (std::size_t b = 0; b < n; ++b) {
      ReplayResult& r = *replays[b];
      if (r.outcome == Outcome::kSimCrash && r.attempts > 0) {
        ++fleet_stats_.crashed_runs;
      }
      fold_run(result, state, next_run + b,
               {std::move(faults[b]), r.outcome, std::move(r.crash_what),
                std::move(r.provenance)},
               r.attempts);
      if (trace != nullptr) {
        trace->span("fold", submit.job_token, next_run + b, obs::dist_now_ns(), 0);
      }
      processed = b + 1;
      if (stop_condition_met(cc, result)) {
        stopped = true;
        break;
      }
    }
    next_run += n;
    executed_this_call += processed;
    if (monitor_ != nullptr) {
      obs::CampaignProgress progress = progress_snapshot(
          coordinator_->name(), result, cc.runs, state.coverage().coverage(), elapsed());
      fill_latency_split(progress);
      monitor_->on_progress(progress);
    }
    if (checkpointing) {
      runs_since_checkpoint += processed;
      if (runs_since_checkpoint >= cc.checkpoint_every) {
        checkpoint->save(result.records);
        runs_since_checkpoint = 0;
      }
    }
    if (!stopped && cc.preempt_after != 0 && executed_this_call >= cc.preempt_after &&
        next_run < cc.runs) {
      if (checkpoint) checkpoint->save(result.records);
      result.interrupted = true;
      break;
    }
  }

  // Tell the server the job is done so pool workers can drop its scenario.
  // Best-effort: if the link is down the orphan grace timer cleans up instead.
  if (channel.has_value() && channel->open()) {
    (void)channel->send_frame(MsgType::kRelease, encode_job(JobMsg{job}));
  }
  fold_channel();

  fault::detail::finalize(result, state);
  if (!result.interrupted) {
    if (metrics_ != nullptr) {
      result.publish_metrics(*metrics_);
      publish_fleet_metrics();
      if (remote_timed_runs > 0) {
        metrics_->histogram("dist.queue_wait_ms", 0.0, 5000.0, 500).merge(queue_wait_ms);
        metrics_->histogram("dist.replay_ms", 0.0, 5000.0, 500).merge(replay_ms);
      }
    }
    if (monitor_ != nullptr) {
      obs::CampaignProgress progress =
          progress_snapshot(coordinator_->name(), result, cc.runs, result.final_coverage,
                            elapsed(), /*include_latency=*/true);
      fill_latency_split(progress);
      monitor_->on_complete(progress);
    }
  }
  return result;
}

}  // namespace vps::dist
