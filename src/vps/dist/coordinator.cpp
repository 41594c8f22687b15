#include "vps/dist/coordinator.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include "vps/dist/server.hpp"
#include "vps/dist/trace.hpp"
#include "vps/dist/worker.hpp"
#include "vps/fault/driver_util.hpp"
#include "vps/support/ensure.hpp"
#include "vps/support/stats.hpp"

namespace vps::dist {

using fault::FaultDescriptor;
using fault::ReplayResult;
using support::ensure;

using Clock = std::chrono::steady_clock;

namespace {

/// Drops every descriptor a forked child inherited, the private server's
/// listener above all: a child holding a copy would keep the listener alive
/// after the server stops (server.cpp explains why that is a black hole).
void close_inherited_fds() noexcept {
  if (::close_range(3, ~0U, 0) == 0) return;
  const long max_fd = ::sysconf(_SC_OPEN_MAX);  // kernels before 5.9
  for (long fd = 3; fd < (max_fd > 0 ? max_fd : 1024); ++fd) ::close(static_cast<int>(fd));
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

/// The private service of a local-mode campaign: a CampaignServer on
/// 127.0.0.1:0 and `workers` pool children forked against it. The server
/// decides when a worker is dead; this class owns the processes. Every
/// waitpid() runs on the client thread. The kill hook signals from the
/// server thread, so it and every reap made while the server runs hold
/// mutex_: a reaped pid is never signalled again (pids get reused).
class LocalPool {
 public:
  LocalPool(const fault::ScenarioFactory& factory, const DistConfig& config)
      : server_(private_server_config(config)), window_(config.heartbeat_timeout_ms) {
    server_.on_worker_death([this](const CampaignServer::WorkerDeath& death) {
      const std::lock_guard<std::mutex> lock(mutex_);
      dropped_.push_back(death);
    });
    if (config.kill_after_results != 0) {
      // The server calls this before it refills the worker, which then
      // still holds its other pipelined run, however far the client lags.
      server_.on_result([this, n = config.kill_after_results,
                         relayed = std::size_t{0}](std::uint64_t pid) mutable {
        if (++relayed != n) return;
        const std::lock_guard<std::mutex> lock(mutex_);
        for (const pid_t child : children_) {
          if (child > 0 && static_cast<std::uint64_t>(child) == pid) ::kill(child, SIGKILL);
        }
      });
    }
    // Fork before the server thread exists, so a child may run any code.
    const std::string target = "127.0.0.1:" + std::to_string(port());
    const std::size_t size = std::max<std::size_t>(1, config.workers);
    for (std::size_t i = 0; i < size; ++i) {
      const pid_t pid = ::fork();
      if (pid == 0) run_child(factory, config, port(), target);
      if (pid < 0) {
        const int err = errno;
        kill_all();
        support::fail(std::string("dist: fork failed: ") + std::strerror(err));
      }
      children_.push_back(pid);
    }
    server_.start();
  }

  /// Error path: nothing may outlive the campaign that threw.
  ~LocalPool() { kill_all(); }

  LocalPool(const LocalPool&) = delete;
  LocalPool& operator=(const LocalPool&) = delete;

  [[nodiscard]] std::uint16_t port() const noexcept { return server_.port(); }
  [[nodiscard]] std::size_t size() const noexcept { return children_.size(); }
  [[nodiscard]] std::size_t alive() const noexcept {
    return static_cast<std::size_t>(std::count_if(children_.begin(), children_.end(),
                                                  [](pid_t pid) { return pid > 0; }));
  }

  /// Counts the deaths the server declared since the last call, then
  /// SIGKILLs and reaps those workers: a dropped worker may be wedged and
  /// would otherwise burn a core until the campaign ends.
  void collect_deaths(FleetStats& stats) {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (const CampaignServer::WorkerDeath& death : dropped_) {
      ++stats.worker_deaths;
      stats.requeued_runs += death.requeued;
      stats.crashed_runs += death.crashed;
      for (pid_t& child : children_) {
        if (child > 0 && static_cast<std::uint64_t>(child) == death.pid) reap(child);
      }
    }
    dropped_.clear();
  }

  /// Reaps the children that exited on their own; true while any is left.
  [[nodiscard]] bool any_alive() {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (pid_t& child : children_) {
      if (child > 0 && ::waitpid(child, nullptr, WNOHANG) == child) child = -1;
    }
    return alive() > 0;
  }

  /// Orderly end, after the client RELEASEd its job: the server SHUTDOWNs
  /// every live worker, and the children get one heartbeat window to exit
  /// on their own — a pool worker destroys its scenarios on RELEASE and
  /// SHUTDOWN before it exits. A child still alive then is SIGKILLed and
  /// reaped: one still replaying a run the client re-sent after its
  /// verdict was on the wire, or one whose teardown hangs, must not hold
  /// the campaign.
  void shutdown(FleetStats& stats) {
    server_.stop();
    collect_deaths(stats);
    const Clock::time_point deadline = Clock::now() + window_;
    Clock::duration pause = std::chrono::microseconds(50);
    for (Clock::time_point now = Clock::now(); any_alive() && now < deadline; now = Clock::now()) {
      std::this_thread::sleep_for(std::min(pause, deadline - now));
      pause = std::min<Clock::duration>(pause * 2, std::chrono::milliseconds(5));
    }
    for (pid_t& child : children_) reap(child);
  }

  /// Asks the server to exit once the job table is empty, so that the
  /// client's RELEASE ends its loop instead of the next poll timeout.
  void drain() { server_.request_drain(); }

 private:
  static ServerConfig private_server_config(const DistConfig& config) {
    ServerConfig sc;
    sc.hello_timeout_ms = config.hello_timeout_ms;
    sc.heartbeat_timeout_ms = config.heartbeat_timeout_ms;
    return sc;
  }

  /// The body of one child: serve the private server for one session, then
  /// _exit — never exit(), which would run the parent's atexit handlers and
  /// flush its inherited stdio buffers a second time.
  [[noreturn]] static void run_child(const fault::ScenarioFactory& factory,
                                     const DistConfig& config, std::uint16_t port,
                                     const std::string& target) {
    close_inherited_fds();
    if (!config.worker_path.empty()) {
      ::execl(config.worker_path.c_str(), "vps-worker", "--connect", target.c_str(),
              "--max-reconnects", "0", "--idle-timeout-ms", "-1", static_cast<char*>(nullptr));
      ::_exit(127);  // exec failed: the client reports a spawn failure
    }
    int code = 3;
    try {
      Channel channel(tcp_connect("127.0.0.1", port));
      code = serve_pool(channel, [&factory, &config](const SetupMsg&) {
        return fault::detail::build_scenario(factory, config.campaign, "DistCampaign");
      });
    } catch (...) {
      std::fprintf(stderr, "vps-worker[%d]: could not reach the private server\n", ::getpid());
    }
    ::_exit(code);
  }

  /// SIGKILLs `child` and waits for it; clears the pid.
  static void reap(pid_t& child) {
    if (child <= 0) return;
    ::kill(child, SIGKILL);
    while (::waitpid(child, nullptr, 0) < 0 && errno == EINTR) {
    }
    child = -1;
  }

  void kill_all() {
    server_.stop();
    for (pid_t& child : children_) reap(child);
  }

  CampaignServer server_;
  std::chrono::milliseconds window_;  ///< the heartbeat window shutdown() grants
  std::mutex mutex_;
  std::vector<pid_t> children_;  ///< -1 once reaped; set under mutex_ while the server runs
  std::vector<CampaignServer::WorkerDeath> dropped_;  ///< guarded by mutex_
};

/// The campaign-server executor: SUBMITs the campaign to a campaign server
/// — a running vps-serverd, or the private one of a LocalPool — and streams
/// each batch to it as ASSIGNs, collecting the relayed RESULT_STREAM
/// frames. The server owns the worker pool and absorbs worker death itself.
class ServerExecutor final : public fault::BatchExecutor {
 public:
  ServerExecutor(const DistConfig& config, FleetStats& stats, const std::string& scenario,
                 const fault::Observation& golden, std::unique_ptr<LocalPool> pool);

  std::vector<ReplayResult> replay(std::size_t first,
                                   const std::vector<FaultDescriptor>& faults) override;

  void folded(std::size_t run) override {
    if (trace_ != nullptr) trace_->span("fold", submit_.job_token, run, dist_now_ns(), 0);
  }

  void annotate(obs::CampaignProgress& progress) const override {
    if (pool_ != nullptr) {
      progress.workers_alive = pool_->alive();
      progress.worker_deaths = stats_.worker_deaths;
      progress.requeued_runs = stats_.requeued_runs;
    }
    progress.remote_runs = timed_runs_;
    if (timed_runs_ == 0) return;  // all-v2 fleet: reporter omits the split
    progress.queue_wait_p50_ms = queue_wait_ms_.percentile(0.50);
    progress.queue_wait_p95_ms = queue_wait_ms_.percentile(0.95);
    progress.replay_p50_ms = replay_ms_.percentile(0.50);
    progress.replay_p95_ms = replay_ms_.percentile(0.95);
  }

  void finish() override {
    if (pool_ != nullptr) pool_->drain();
    // Tell the server the job is done so pool workers can drop its scenario.
    // Best-effort: if the link is down the orphan grace timer cleans up instead.
    if (channel_.has_value() && channel_->open()) {
      (void)channel_->send_frame(MsgType::kRelease, encode_job(JobMsg{job_}));
    }
    drop_channel();
    if (pool_ != nullptr) pool_->shutdown(stats_);
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
  void drop_channel();

  const DistConfig& config_;
  FleetStats& stats_;
  SubmitMsg submit_;
  std::unique_ptr<DistTraceWriter> trace_;
  // Always-on queue-vs-replay split from the v3 RESULT timing fields (both
  // zero when the server/worker predates v3 — the split is then omitted).
  support::Histogram queue_wait_ms_{0.0, 5000.0, 500};
  support::Histogram replay_ms_{0.0, 5000.0, 500};
  std::uint64_t timed_runs_ = 0;
  std::unique_ptr<LocalPool> pool_;  ///< null in server mode
  std::string host_;
  std::uint16_t port_;
  std::optional<Channel> channel_;
  std::uint64_t job_ = 0;
  std::uint64_t connect_attempts_ = 0;
  std::uint64_t results_ = 0;  ///< RESULT_STREAM frames of this call
  int backoff_ms_;
  support::Xorshift jitter_;
};

ServerExecutor::ServerExecutor(const DistConfig& config, FleetStats& stats,
                               const std::string& scenario, const fault::Observation& golden,
                               std::unique_ptr<LocalPool> pool)
    : config_(config),
      stats_(stats),
      pool_(std::move(pool)),
      host_(pool_ != nullptr ? "127.0.0.1" : config.server_host),
      port_(pool_ != nullptr ? pool_->port() : config.server_port),
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
  trace_ = DistTraceWriter::open(config.trace_dir, "client", submit_.job_token);
  connect_and_submit();
}

/// Folds the channel's transfer and chaos counters into the fleet stats, so
/// no bytes are lost across reconnects, then drops it.
void ServerExecutor::drop_channel() {
  if (!channel_.has_value()) return;
  stats_.frames_sent += channel_->stats().frames_sent;
  stats_.frames_received += channel_->stats().frames_received;
  stats_.bytes_sent += channel_->stats().bytes_sent;
  stats_.bytes_received += channel_->stats().bytes_received;
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
      Channel fresh(tcp_connect(host_, port_, config_.connect_timeout_ms));
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
      submit_.ts_ns = dist_now_ns();
      ensure(fresh.send_frame(MsgType::kSubmit, encode_submit(submit_)),
             "dist: campaign server hung up before SUBMIT could be delivered");
      reply = fresh.wait_frame(config_.hello_timeout_ms);
      ensure(reply.has_value(), fresh.open()
                                    ? "dist: campaign server did not answer SUBMIT in time"
                                    : "dist: campaign server closed the connection on SUBMIT");
      channel_.emplace(std::move(fresh));
      // Anything but an admission verdict fails the attempt: on a reattach
      // whose ACCEPT chaos dropped, the job's relayed results come first.
      if (reply->type != MsgType::kAccept && reply->type != MsgType::kReject) [[unlikely]] {
        support::fail(std::string("dist: campaign server answered SUBMIT with ") +
                      to_string(reply->type));
      }
    } catch (const std::exception& e) {
      drop_channel();
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
      support::fail("dist: campaign server rejected submission: " +
                    decode_reject(reply->payload).reason);
    }
    job_ = decode_accept(reply->payload).job;
    backoff_ms_ = std::max(1, config_.reconnect_backoff_ms);
    return;
  }
}

/// Dispatch + collect, healing the link as needed. The runs still missing
/// a verdict are re-ASSIGNed after every reconnect, and on the open link
/// after a heartbeat window without a frame: that heals a dropped ASSIGN
/// or RESULT_STREAM, while the server skips the runs it still queues or
/// holds. First verdict wins, so a run that was executed twice (old
/// assignment still in flight on some worker, new assignment after the
/// reattach) folds exactly once — and deterministically, because a replay
/// is a pure function of descriptor + seed + golden.
std::vector<ReplayResult> ServerExecutor::replay(std::size_t first,
                                                 const std::vector<FaultDescriptor>& faults) {
  // The server absorbs worker death internally (requeue or synthesized
  // kSimCrash), so the client only reconnects once the server itself has
  // been silent for several heartbeat windows.
  const auto window = std::chrono::milliseconds(config_.heartbeat_timeout_ms);
  const auto silence_budget = 3 * window + std::chrono::milliseconds(10'000);
  const std::size_t n = faults.size();
  std::vector<std::optional<ReplayResult>> verdicts(n);
  std::size_t missing = n;
  bool dispatched = false;
  auto heard = Clock::now();  // the last frame, or the link's (re)establishment
  auto resent = heard;        // the later of `heard` and the last re-send
  // Link-loss recovery: reconnect and re-SUBMIT. The job token makes that a
  // reattach while the server holds the job (orphan grace) and a fresh
  // admission after a volatile restart; either way `job_` is current again.
  const auto heal = [&](const std::string& why) {
    std::fprintf(stderr, "dist: link to campaign server lost (%s) — reconnecting\n", why.c_str());
    drop_channel();
    ++stats_.reconnects;
    if (trace_ != nullptr) {
      trace_->event("reconnect", submit_.job_token, 0, dist_now_ns(),
                    {{"reconnects", stats_.reconnects}});
    }
    connect_and_submit();
    dispatched = false;
    heard = resent = Clock::now();
  };
  while (missing > 0) {
    if (!dispatched) {
      bool sent_all = true;
      for (std::size_t b = 0; b < n && sent_all; ++b) {
        if (verdicts[b].has_value()) continue;
        const AssignMsg msg{
            .job = job_, .run = first + b, .ts_ns = dist_now_ns(), .fault = faults[b]};
        sent_all = channel_->send_frame(MsgType::kAssign, encode_assign(msg));
        if (sent_all && trace_ != nullptr) {
          trace_->span("submit", submit_.job_token, msg.run, msg.ts_ns, 0);
        }
      }
      if (!sent_all) {
        heal("ASSIGN could not be delivered");
        continue;
      }
      dispatched = true;
    }

    std::optional<Frame> frame;
    try {
      frame = channel_->wait_frame(poll_timeout_ms(Clock::now(), {resent + window}, 1000));
    } catch (const std::exception& e) {
      // Corrupted/misaligned inbound stream — heal it like a hangup.
      heal(e.what());
      continue;
    }
    if (pool_ != nullptr) pool_->collect_deaths(stats_);
    if (!frame.has_value()) {
      if (pool_ != nullptr && !pool_->any_alive()) {
        support::fail(results_ == 0
                          ? "dist: every worker exited before delivering a result (spawn failure "
                            "— bad worker binary path or worker crashed on startup)"
                          : "dist: all workers died with runs still in flight");
      }
      const auto now = Clock::now();
      if (!channel_->open()) {
        heal("campaign server hung up mid-campaign");
      } else if (now >= heard + silence_budget) {
        heal("campaign server went silent past the heartbeat budget");
      } else if (now >= resent + window) {
        resent = now;
        dispatched = false;
      }
      continue;
    }
    heard = resent = Clock::now();
    if (frame->type == MsgType::kReject) {
      drop_channel();
      support::fail("dist: campaign server rejected the job: " +
                    decode_reject(frame->payload).reason);
    }
    ensure(frame->type == MsgType::kResultStream,
           std::string("dist: unexpected ") + to_string(frame->type) +
               " frame from the campaign server");
    ++results_;
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
  std::vector<ReplayResult> replays;
  replays.reserve(n);
  for (std::optional<ReplayResult>& v : verdicts) replays.push_back(std::move(*v));
  return replays;
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
  ensure(dist_config_.heartbeat_timeout_ms > 0, "DistCampaign: heartbeat_timeout_ms must be > 0");
  std::unique_ptr<LocalPool> pool;
  if (dist_config_.server_host.empty()) {
    pool = std::make_unique<LocalPool>(factory_, dist_config_);
    fleet_stats_.workers_spawned += pool->size();
  }
  return std::make_unique<ServerExecutor>(dist_config_, fleet_stats_, coordinator_->name(),
                                          golden_, std::move(pool));
}

}  // namespace vps::dist
