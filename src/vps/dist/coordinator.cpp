#include "vps/dist/coordinator.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <deque>
#include <memory>
#include <optional>
#include <thread>
#include <utility>

#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include "vps/dist/worker.hpp"
#include "vps/fault/driver_util.hpp"
#include "vps/obs/dist_trace.hpp"
#include "vps/support/ensure.hpp"
#include "vps/support/stats.hpp"

namespace vps::dist {

using fault::FaultDescriptor;
using fault::Outcome;
using fault::ReplayResult;
using support::ensure;

using Clock = std::chrono::steady_clock;

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

/// Adds a closing channel's transfer counters to the fleet stats.
void add_transfer(FleetStats& stats, const Channel& channel) {
  stats.frames_sent += channel.stats().frames_sent;
  stats.frames_received += channel.stats().frames_received;
  stats.bytes_sent += channel.stats().bytes_sent;
  stats.bytes_received += channel.stats().bytes_received;
}

/// Publishes the fleet counters as "dist.*" metrics.
void publish_fleet(const FleetStats& stats, obs::MetricRegistry& metrics) {
  metrics.counter("dist.workers_spawned").add(stats.workers_spawned);
  metrics.counter("dist.worker_deaths").add(stats.worker_deaths);
  metrics.counter("dist.requeued_runs").add(stats.requeued_runs);
  metrics.counter("dist.crashed_runs").add(stats.crashed_runs);
  metrics.counter("dist.frames_sent").add(stats.frames_sent);
  metrics.counter("dist.frames_received").add(stats.frames_received);
  metrics.counter("dist.bytes_sent").add(stats.bytes_sent);
  metrics.counter("dist.bytes_received").add(stats.bytes_received);
  metrics.counter("dist.reconnects").add(stats.reconnects);
  metrics.counter("dist.chaos.frames_dropped").add(stats.chaos_frames_dropped);
  metrics.counter("dist.chaos.bytes_corrupted").add(stats.chaos_bytes_corrupted);
}

/// The verdicts of a batch in which every slot has one, in slot order.
std::vector<ReplayResult> take_verdicts(std::vector<std::optional<ReplayResult>>& verdicts) {
  std::vector<ReplayResult> replays;
  replays.reserve(verdicts.size());
  for (std::optional<ReplayResult>& v : verdicts) replays.push_back(std::move(*v));
  return replays;
}

struct Worker {
  pid_t pid = -1;
  std::unique_ptr<Channel> channel;
  bool alive = false;
  /// Batch slots assigned to this worker that have no RESULT yet.
  std::vector<std::size_t> inflight;
  Clock::time_point last_heard;
};

/// The local-fleet executor. It owns the worker processes of one
/// run()/resume() call: start() spawns them and runs the SETUP/HELLO
/// handshake, finish() shuts them down in order, and whatever path leaves
/// the call — return, ensure() throw, scenario exception — the destructor
/// SIGKILLs and reaps every child still running.
class FleetExecutor final : public fault::BatchExecutor {
 public:
  FleetExecutor(const DistConfig& config, FleetStats& stats) : config_(config), stats_(stats) {}
  ~FleetExecutor() override {
    for (Worker& w : workers_) reap(w, /*force_kill=*/true);
  }

  void start(const fault::ScenarioFactory& factory, const std::string& scenario,
             const fault::Observation& golden);

  std::vector<ReplayResult> replay(std::size_t first,
                                   const std::vector<FaultDescriptor>& faults) override {
    first_ = first;
    faults_ = &faults;
    verdicts_.assign(faults.size(), std::nullopt);
    requeues_.assign(faults.size(), 0);
    missing_ = faults.size();
    for (std::size_t b = 0; b < faults.size(); ++b) unassigned_.push_back(b);
    assign_queued();
    while (missing_ > 0) supervise();
    return take_verdicts(verdicts_);
  }

  void annotate(obs::CampaignProgress& progress) const override {
    progress.workers_alive = alive_count();
    progress.worker_deaths = stats_.worker_deaths;
    progress.requeued_runs = stats_.requeued_runs;
  }

  void finish() override {
    for (Worker& w : workers_) {
      if (!w.alive) continue;
      (void)w.channel->send_frame(MsgType::kShutdown, "");
      reap(w, /*force_kill=*/false);
    }
  }

  void publish(obs::MetricRegistry& metrics) const override { publish_fleet(stats_, metrics); }

 private:
  void reap(Worker& w, bool force_kill);
  [[nodiscard]] std::size_t alive_count() const noexcept {
    return static_cast<std::size_t>(
        std::count_if(workers_.begin(), workers_.end(), [](const Worker& w) { return w.alive; }));
  }
  void assign_queued();
  void supervise();
  void on_death(Worker& w);

  const DistConfig& config_;
  FleetStats& stats_;
  std::vector<Worker> workers_;
  std::uint64_t results_total_ = 0;  ///< RESULT frames of this call (kill hook)
  // The batch being replayed.
  std::size_t first_ = 0;
  const std::vector<FaultDescriptor>* faults_ = nullptr;
  std::vector<std::optional<ReplayResult>> verdicts_;
  std::vector<std::uint32_t> requeues_;
  std::deque<std::size_t> unassigned_;  ///< slots waiting for a worker
  std::size_t missing_ = 0;             ///< slots without a verdict
};

/// Closes the channel (folding its counters into the stats), kills the
/// process if requested, and waits for it — never leaves a zombie.
void FleetExecutor::reap(Worker& w, bool force_kill) {
  if (w.channel != nullptr) {
    add_transfer(stats_, *w.channel);
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

void FleetExecutor::start(const fault::ScenarioFactory& factory, const std::string& scenario,
                          const fault::Observation& golden) {
  const std::size_t fleet_size = std::max<std::size_t>(1, config_.workers);
  std::vector<SocketPair> pairs;
  pairs.reserve(fleet_size);
  for (std::size_t i = 0; i < fleet_size; ++i) pairs.push_back(make_socket_pair());
  workers_.resize(fleet_size);
  for (std::size_t i = 0; i < fleet_size; ++i) {
    Worker& w = workers_[i];
    w.pid = spawn_worker(i, pairs, factory, config_);
    ::close(pairs[i].worker_fd);
    w.channel = std::make_unique<Channel>(pairs[i].coordinator_fd);
    w.alive = true;
    w.last_heard = Clock::now();
    ++stats_.workers_spawned;
  }

  // Handshake: SETUP out, HELLO back.
  SetupMsg setup;
  setup.scenario_spec = config_.scenario_spec.empty() ? scenario : config_.scenario_spec;
  setup.seed = config_.campaign.seed;
  setup.crash_retries = config_.campaign.crash_retries;
  setup.golden = golden;
  const std::string setup_payload = encode_setup(setup);
  const auto hello_deadline = Clock::now() + std::chrono::milliseconds(config_.hello_timeout_ms);
  for (std::size_t i = 0; i < fleet_size; ++i) {
    Worker& w = workers_[i];
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
    ensure(hello.scenario == scenario, "dist: worker " + std::to_string(i) + " built scenario '" +
                                           hello.scenario + "', coordinator runs '" + scenario +
                                           "'");
    w.last_heard = Clock::now();
  }
}

/// Hands every queued slot to the least-loaded live worker, ties to the
/// lowest index: at a barrier every worker is idle, so a batch goes out
/// round-robin. A failed send is a worker death like any other, and that
/// worker's runs rejoin the queue.
void FleetExecutor::assign_queued() {
  while (!unassigned_.empty()) {
    Worker* target = nullptr;
    for (Worker& w : workers_) {
      if (w.alive && (target == nullptr || w.inflight.size() < target->inflight.size())) {
        target = &w;
      }
    }
    ensure(target != nullptr, "dist: all workers died with runs still in flight");
    const std::size_t slot = unassigned_.front();
    AssignMsg msg;
    msg.run = first_ + slot;
    msg.fault = (*faults_)[slot];
    if (target->channel->send_frame(MsgType::kAssign, encode_assign(msg))) {
      target->inflight.push_back(slot);
      unassigned_.pop_front();
    } else {
      on_death(*target);
    }
  }
}

/// One supervision sweep: waits for traffic or the earliest deadline in
/// the fleet, takes in every buffered frame, declares dead every worker
/// that hung up or overstayed the heartbeat window, and hands their runs
/// to the survivors.
void FleetExecutor::supervise() {
  std::vector<struct pollfd> pfds;
  std::vector<Worker*> polled;
  for (Worker& w : workers_) {
    if (!w.alive) continue;
    pfds.push_back({w.channel->fd(), POLLIN, 0});
    polled.push_back(&w);
  }
  ensure(!pfds.empty(), "dist: all workers died with runs still in flight");

  // Wake at the earliest expiry across the whole fleet — a worker whose
  // heartbeat (or partial-frame) deadline lands between fixed-cadence
  // wakeups would otherwise be detected up to a full poll period late.
  const auto hb_window = std::chrono::milliseconds(config_.heartbeat_timeout_ms);
  std::vector<Clock::time_point> deadlines;
  for (const Worker* wp : polled) {
    if (!wp->inflight.empty()) deadlines.push_back(wp->last_heard + hb_window);
    if (const auto since = wp->channel->partial_since()) deadlines.push_back(*since + hb_window);
  }
  const int timeout =
      poll_timeout_ms(Clock::now(), deadlines, std::min(config_.heartbeat_timeout_ms, 1000));
  if (::poll(pfds.data(), pfds.size(), timeout) < 0) {
    if (errno == EINTR) return;
    ensure(false, std::string("dist: poll failed: ") + std::strerror(errno));
  }

  for (std::size_t i = 0; i < polled.size(); ++i) {
    Worker& w = *polled[i];
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
          if (msg.run < first_ || msg.run >= first_ + verdicts_.size()) [[unlikely]] {
            support::fail("dist: RESULT for run " + std::to_string(msg.run) +
                          " outside the current batch");
          }
          const std::size_t slot = msg.run - first_;
          auto it = std::find(w.inflight.begin(), w.inflight.end(), slot);
          if (it != w.inflight.end()) w.inflight.erase(it);
          if (!verdicts_[slot].has_value()) {
            // First verdict wins; a duplicate from a requeue race is
            // byte-identical anyway (replays are pure).
            verdicts_[slot] = std::move(msg.replay);
            --missing_;
          }
          if (++results_total_ == config_.kill_after_results) {
            const Worker& victim = workers_[config_.kill_worker % workers_.size()];
            if (victim.alive) ::kill(victim.pid, SIGKILL);
          }
          break;
        }
        default:
          ensure(false, std::string("dist: unexpected ") + to_string(frame->type) +
                            " frame from a worker");
      }
    }
    if (!stream_ok) on_death(w);
  }

  // Hang detection: a worker holding work that has said nothing for the
  // whole heartbeat window is wedged — kill it and move its work. So is
  // a worker sitting on an incomplete frame for that long, whatever its
  // assignment state: a truncated RESULT tail must never park the
  // reassembly buffer (and the campaign) forever.
  const auto now = Clock::now();
  for (Worker& w : workers_) {
    if (!w.alive) continue;
    const bool busy_silent = !w.inflight.empty() && now - w.last_heard > hb_window;
    const auto since = w.channel->partial_since();
    const bool wedged_partial = since.has_value() && now - *since > hb_window;
    if (busy_silent || wedged_partial) {
      std::fprintf(stderr, "dist: worker pid %d %s past the heartbeat timeout, killing\n",
                   static_cast<int>(w.pid), wedged_partial ? "stuck mid-frame" : "silent");
      on_death(w);
    }
  }
  assign_queued();
}

/// Declares `w` dead: kills and reaps it, and queues each of its runs that
/// has no verdict yet for a survivor — or, once the run exhausted its
/// requeue budget, gives it the verdict the in-process drivers give a
/// replay that keeps throwing: kSimCrash.
void FleetExecutor::on_death(Worker& w) {
  const std::vector<std::size_t> orphaned = std::move(w.inflight);
  w.inflight.clear();
  reap(w, /*force_kill=*/true);
  ++stats_.worker_deaths;
  std::fprintf(stderr, "dist: worker died, requeuing %zu in-flight run(s) onto %zu survivor(s)\n",
               orphaned.size(), alive_count());
  for (const std::size_t slot : orphaned) {
    if (verdicts_[slot].has_value()) continue;  // result arrived before the EOF
    ++stats_.requeued_runs;
    if (++requeues_[slot] <= config_.max_requeues) {
      unassigned_.push_back(slot);
      continue;
    }
    ReplayResult crash;
    crash.outcome = Outcome::kSimCrash;
    crash.attempts = requeues_[slot];
    crash.crash_what = "dist: run " + std::to_string(first_ + slot) + " requeued " +
                       std::to_string(config_.max_requeues) +
                       " time(s), each assigned worker died before returning a result";
    verdicts_[slot] = std::move(crash);
    ++stats_.crashed_runs;
    --missing_;
  }
}

/// The campaign-server executor: SUBMITs the campaign to a running
/// vps-serverd and streams each batch to it as ASSIGNs, collecting the
/// relayed RESULT_STREAM frames. The server owns the worker pool and
/// absorbs worker death itself.
class ServerExecutor final : public fault::BatchExecutor {
 public:
  ServerExecutor(const DistConfig& config, FleetStats& stats, const std::string& scenario,
                 const fault::Observation& golden);

  std::vector<ReplayResult> replay(std::size_t first,
                                   const std::vector<FaultDescriptor>& faults) override;

  void folded(std::size_t run) override {
    if (trace_ != nullptr) trace_->span("fold", submit_.job_token, run, obs::dist_now_ns(), 0);
  }

  void annotate(obs::CampaignProgress& progress) const override {
    progress.remote_runs = timed_runs_;
    if (timed_runs_ == 0) return;  // all-v2 fleet: reporter omits the split
    progress.queue_wait_p50_ms = queue_wait_ms_.percentile(0.50);
    progress.queue_wait_p95_ms = queue_wait_ms_.percentile(0.95);
    progress.replay_p50_ms = replay_ms_.percentile(0.50);
    progress.replay_p95_ms = replay_ms_.percentile(0.95);
  }

  void finish() override {
    // Tell the server the job is done so pool workers can drop its scenario.
    // Best-effort: if the link is down the orphan grace timer cleans up instead.
    if (channel_.has_value() && channel_->open()) {
      (void)channel_->send_frame(MsgType::kRelease, encode_job(JobMsg{job_}));
    }
    drop_channel();
  }

  void publish(obs::MetricRegistry& metrics) const override {
    publish_fleet(stats_, metrics);
    if (timed_runs_ > 0) {
      metrics.histogram("dist.queue_wait_ms", 0.0, 5000.0, 500).merge(queue_wait_ms_);
      metrics.histogram("dist.replay_ms", 0.0, 5000.0, 500).merge(replay_ms_);
    }
  }

 private:
  void connect_and_submit();
  void reestablish(const std::string& why);
  void drop_channel();

  const DistConfig& config_;
  FleetStats& stats_;
  SubmitMsg submit_;
  std::unique_ptr<obs::DistTraceWriter> trace_;
  // Always-on queue-vs-replay split from the v3 RESULT timing fields (both
  // zero when the server/worker predates v3 — the split is then omitted).
  support::Histogram queue_wait_ms_{0.0, 5000.0, 500};
  support::Histogram replay_ms_{0.0, 5000.0, 500};
  std::uint64_t timed_runs_ = 0;
  std::optional<Channel> channel_;
  std::uint64_t job_ = 0;
  std::uint64_t connect_attempts_ = 0;
  int backoff_ms_;
  support::Xorshift jitter_;
};

ServerExecutor::ServerExecutor(const DistConfig& config, FleetStats& stats,
                               const std::string& scenario, const fault::Observation& golden)
    : config_(config),
      stats_(stats),
      backoff_ms_(std::max(1, config.reconnect_backoff_ms)),
      // Deterministic jitter: seeded from the campaign, forked by pid so two
      // clients of one server never sleep in lockstep.
      jitter_(support::Xorshift(config.campaign.seed + 0x73656c666865ULL)
                  .fork(static_cast<std::uint64_t>(::getpid()))) {
  submit_.tenant = config.tenant.empty() ? "default" : config.tenant;
  submit_.scenario_spec = config.scenario_spec.empty() ? scenario : config.scenario_spec;
  submit_.scenario = scenario;
  submit_.config = config.campaign;
  submit_.max_requeues = config.max_requeues;
  submit_.golden = golden;
  submit_.job_token = job_token_for(submit_);

  // The token is in the trace filename because two tenant threads share one
  // pid — per-campaign files can then never collide.
  try {
    trace_ = obs::DistTraceWriter::open(config.trace_dir, "client", submit_.job_token);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dist: tracing disabled: %s\n", e.what());
  }
  connect_and_submit();
}

/// Folds the channel's transfer and chaos counters into the fleet stats, so
/// no bytes are lost across reconnects, then drops it.
void ServerExecutor::drop_channel() {
  if (!channel_.has_value()) return;
  add_transfer(stats_, *channel_);
  if (channel_->chaos() != nullptr) {
    stats_.chaos_frames_dropped += channel_->chaos()->counters().frames_dropped;
    stats_.chaos_bytes_corrupted += channel_->chaos()->counters().bytes_corrupted;
  }
  channel_.reset();
}

/// Connect + SUBMIT + await the admission verdict. Connection-level failures
/// (refused, timed out, link died before ACCEPT) are retried with doubling
/// backoff and jitter, bounded by max_reconnects consecutive failures — this
/// is what lets a tenant ride out a server crash + restart. A REJECT is an
/// explicit answer and always fatal, on the first attempt and on every
/// reconnect alike.
void ServerExecutor::connect_and_submit() {
  int failures = 0;
  for (;;) {
    std::optional<Frame> reply;
    try {
      Channel fresh(
          tcp_connect(config_.server_host, config_.server_port, config_.connect_timeout_ms));
      if (config_.chaos.enabled()) {
        // Distinct stream per attempt: replaying the seed replays the
        // faults, reconnecting does not replay the same fault schedule.
        fresh.set_chaos(std::make_shared<ChaosPolicy>(
            config_.chaos,
            (static_cast<std::uint64_t>(::getpid()) << 20) + 0x80000ULL + connect_attempts_));
      }
      ++connect_attempts_;
      // Fresh clock sample per attempt: the server pairs it with its own
      // arrival clock to align this client's trace file.
      submit_.ts_ns = obs::dist_now_ns();
      ensure(fresh.send_frame(MsgType::kSubmit, encode_submit(submit_)),
             "dist: campaign server hung up before SUBMIT could be delivered");
      reply = fresh.wait_frame(config_.hello_timeout_ms);
      ensure(reply.has_value(), fresh.open()
                                    ? "dist: campaign server did not answer SUBMIT in time"
                                    : "dist: campaign server closed the connection on SUBMIT");
      channel_.emplace(std::move(fresh));
    } catch (const std::exception& e) {
      if (++failures > config_.max_reconnects) {
        ensure(false,
               std::string("dist: could not reach campaign server after retries: ") + e.what());
      }
      std::fprintf(stderr, "dist: SUBMIT attempt failed (%s) — retrying in ~%d ms\n", e.what(),
                   backoff_ms_);
      std::this_thread::sleep_for(std::chrono::milliseconds(
          static_cast<long>(jitter_.uniform(0.5 * backoff_ms_, 1.5 * backoff_ms_))));
      backoff_ms_ = std::min(backoff_ms_ * 2, std::max(1, config_.reconnect_backoff_max_ms));
      continue;
    }
    if (reply->type == MsgType::kReject) {
      drop_channel();
      ensure(false, "dist: campaign server rejected submission: " +
                        decode_reject(reply->payload).reason);
    }
    ensure(reply->type == MsgType::kAccept,
           std::string("dist: campaign server answered SUBMIT with ") + to_string(reply->type));
    job_ = decode_accept(reply->payload).job;
    backoff_ms_ = std::max(1, config_.reconnect_backoff_ms);
    return;
  }
}

/// Link-loss recovery: account for the dead channel, reconnect, re-SUBMIT.
/// The job token makes the re-SUBMIT a reattach when the server still holds
/// the job (orphan grace) and a fresh admission when it does not (volatile
/// restart) — either way `job_` is current again afterwards.
void ServerExecutor::reestablish(const std::string& why) {
  std::fprintf(stderr, "dist: link to campaign server lost (%s) — reconnecting\n", why.c_str());
  drop_channel();
  ++stats_.reconnects;
  if (trace_ != nullptr) {
    trace_->event("reconnect", submit_.job_token, 0, obs::dist_now_ns(),
                  {{"reconnects", stats_.reconnects}});
  }
  connect_and_submit();
}

/// Dispatch + collect, healing the link as needed. After every reconnect
/// only the runs still missing a verdict are re-ASSIGNed; first verdict
/// wins, so a run that was executed twice (old assignment still in flight
/// on some worker, new assignment after the reattach) folds exactly once —
/// and deterministically, because a replay is a pure function of
/// descriptor + seed + golden.
std::vector<ReplayResult> ServerExecutor::replay(std::size_t first,
                                                 const std::vector<FaultDescriptor>& faults) {
  // The server absorbs worker death internally (requeue or synthesized
  // kSimCrash), so the client only fails once the server itself has been
  // silent for several heartbeat windows.
  const auto silence_budget =
      std::chrono::milliseconds(3LL * config_.heartbeat_timeout_ms + 10'000);
  const std::size_t n = faults.size();
  std::vector<std::optional<ReplayResult>> verdicts(n);
  std::size_t missing = n;
  bool dispatched = false;
  auto silence_deadline = Clock::now() + silence_budget;
  while (missing > 0) {
    if (!dispatched) {
      bool sent_all = true;
      for (std::size_t b = 0; b < n && sent_all; ++b) {
        if (verdicts[b].has_value()) continue;
        AssignMsg msg;
        msg.job = job_;
        msg.run = first + b;
        msg.ts_ns = obs::dist_now_ns();
        msg.fault = faults[b];
        sent_all = channel_->send_frame(MsgType::kAssign, encode_assign(msg));
        if (sent_all && trace_ != nullptr) {
          trace_->span("submit", submit_.job_token, msg.run, msg.ts_ns, 0);
        }
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
      frame = channel_->wait_frame(1000);
    } catch (const std::exception& e) {
      // Corrupted/misaligned inbound stream — heal it like a hangup.
      reestablish(e.what());
      dispatched = false;
      continue;
    }
    if (!frame.has_value()) {
      if (!channel_->open()) {
        reestablish("campaign server hung up mid-campaign");
        dispatched = false;
      } else if (Clock::now() >= silence_deadline) {
        reestablish("campaign server went silent past the heartbeat budget");
        dispatched = false;
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
    if (msg.run < first || msg.run >= first + n) continue;
    const std::size_t slot = msg.run - first;
    if (!verdicts[slot].has_value()) {
      verdicts[slot] = std::move(msg.replay);
      --missing;
      // Timing rides beside the verdict, never inside it: losers of the
      // first-verdict race drop their timing with their verdict.
      if (msg.replay_ns != 0 || msg.queue_ns != 0) {
        ++timed_runs_;
        if (msg.queue_ns != 0) queue_wait_ms_.add(static_cast<double>(msg.queue_ns) / 1e6);
        if (msg.replay_ns != 0) replay_ms_.add(static_cast<double>(msg.replay_ns) / 1e6);
      }
    }
  }
  return take_verdicts(verdicts);
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
    : BatchedCampaign(std::move(factory), config.campaign, "DistCampaign"),
      dist_config_(std::move(config)) {
  ignore_sigpipe();
}

std::unique_ptr<fault::BatchExecutor> DistCampaign::make_executor() {
  if (!dist_config_.server_host.empty()) {
    return std::make_unique<ServerExecutor>(dist_config_, fleet_stats_, coordinator_->name(),
                                            golden_);
  }
  auto fleet = std::make_unique<FleetExecutor>(dist_config_, fleet_stats_);
  fleet->start(factory_, coordinator_->name(), golden_);
  return fleet;
}

}  // namespace vps::dist
