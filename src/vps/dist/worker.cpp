#include "vps/dist/worker.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <exception>
#include <map>
#include <string>
#include <thread>

#include <unistd.h>

#include "vps/dist/trace.hpp"
#include "vps/support/ensure.hpp"
#include "vps/support/rng.hpp"

namespace vps::dist {

namespace {

/// How one pool session against the server ended.
enum class SessionEnd {
  kShutdown,  ///< server asked us to drain: exit cleanly
  kLost,      ///< link/server gone: a reconnecting caller should try again
  kFatal,     ///< REJECT / version mismatch / broken build: retrying is useless
};

/// One REGISTER→serve session. `made_progress` reports whether the server
/// delivered at least one frame — the reconnect loop resets its failure
/// budget only for sessions that did, so a dead address still exhausts it.
/// Transport-level exceptions (stream corruption, recv errors) propagate to
/// the caller, which decides whether they are fatal (single-session mode) or
/// just another lost link (reconnect mode).
SessionEnd serve_pool_session(Channel& channel, const ScenarioBuilder& build,
                              std::uint64_t reconnects, int idle_timeout_ms,
                              bool& made_progress, DistTraceWriter* trace) {
  RegisterMsg reg;
  reg.pid = static_cast<std::uint64_t>(::getpid());
  reg.reconnects = reconnects;
  // v3 handshake clock sample: the server pairs this with its own arrival
  // clock so vps-tracecat can align this worker's trace file.
  reg.ts_ns = dist_now_ns();
  if (!channel.send_frame(MsgType::kRegister, encode_register(reg))) return SessionEnd::kLost;

  // One cache entry per admitted campaign the server has SETUP us for: the
  // scenario instance plus the determinism inputs every replay of that job
  // needs (seed, golden, crash retries).
  struct JobState {
    std::unique_ptr<fault::Scenario> scenario;
    SetupMsg setup;
  };
  std::map<std::uint64_t, JobState> jobs;

  std::uint64_t runs_done = 0;
  for (;;) {
    auto frame = channel.wait_frame(idle_timeout_ms);
    if (!frame.has_value()) {
      // Still-open channel means the wait timed out: the server accepted the
      // connection but went silent (frozen, half-open, dead accept loop).
      // Either way this session is over; the pool loop decides what's next.
      std::fprintf(stderr, "vps-worker[%d]: campaign server %s after %llu runs\n", ::getpid(),
                   channel.open() ? "went silent" : "vanished",
                   static_cast<unsigned long long>(runs_done));
      return SessionEnd::kLost;
    }
    made_progress = true;
    switch (frame->type) {
      case MsgType::kShutdown:
        return SessionEnd::kShutdown;
      case MsgType::kReject: {
        const RejectMsg reject = decode_reject(frame->payload);
        std::fprintf(stderr, "vps-worker[%d]: server rejected registration: %s\n", ::getpid(),
                     reject.reason.c_str());
        return SessionEnd::kFatal;
      }
      case MsgType::kHello: {  // job-tagged SETUP
        SetupMsg setup = decode_setup(frame->payload);
        if (setup.version != kProtocolVersion) {
          std::fprintf(stderr, "vps-worker[%d]: protocol version mismatch (server v%u, worker v%u)\n",
                       ::getpid(), setup.version, kProtocolVersion);
          return SessionEnd::kFatal;
        }
        JobState state;
        try {
          state.scenario = build(setup);
        } catch (const std::exception& e) {
          std::fprintf(stderr, "vps-worker[%d]: scenario build for spec '%s' failed: %s\n",
                       ::getpid(), setup.scenario_spec.c_str(), e.what());
          return SessionEnd::kFatal;
        }
        if (state.scenario == nullptr) {
          std::fprintf(stderr, "vps-worker[%d]: scenario builder returned null for spec '%s'\n",
                       ::getpid(), setup.scenario_spec.c_str());
          return SessionEnd::kFatal;
        }
        const HelloMsg hello{setup.job, state.scenario->name()};
        state.setup = std::move(setup);
        jobs[state.setup.job] = std::move(state);
        if (!channel.send_frame(MsgType::kHello, encode_hello(hello))) return SessionEnd::kLost;
        break;
      }
      case MsgType::kRelease:
        jobs.erase(decode_job(frame->payload).job);
        break;
      case MsgType::kAssign: {
        const AssignMsg assign = decode_assign(frame->payload);
        const auto it = jobs.find(assign.job);
        if (it == jobs.end()) [[unlikely]] {
          support::fail("vps-worker: ASSIGN for job " + std::to_string(assign.job) +
                        " this worker was never SETUP for");
        }
        const JobState& job = it->second;
        ResultMsg result;
        result.job = assign.job;
        result.run = assign.run;
        const std::uint64_t replay_begin = dist_now_ns();
        result.replay = fault::replay_isolated(*job.scenario, assign.fault, job.setup.seed,
                                               job.setup.golden, job.setup.crash_retries);
        // Always-on timing: two clock reads per run are noise next to a
        // replay, and they power the client's queue-vs-replay split and the
        // server's /jobs percentiles even with tracing disarmed.
        result.replay_ns = saturating_elapsed_ns(replay_begin, dist_now_ns());
        ++runs_done;
        if (trace != nullptr)
          trace->span("replay", job.setup.job_token, assign.run, replay_begin, result.replay_ns);
        if (!channel.send_frame(MsgType::kResult, encode_result(result))) return SessionEnd::kLost;
        break;
      }
      default:
        support::ensure(false, std::string("vps-worker: unexpected ") + to_string(frame->type) +
                                   " frame from the campaign server");
    }
  }
}

}  // namespace

int serve_pool(Channel& channel, const ScenarioBuilder& build) noexcept {
  try {
    bool made_progress = false;
    switch (serve_pool_session(channel, build, /*reconnects=*/0, /*idle_timeout_ms=*/-1,
                               made_progress, /*trace=*/nullptr)) {
      case SessionEnd::kShutdown: return 0;
      case SessionEnd::kLost: return 2;
      case SessionEnd::kFatal: return 3;
    }
    return 3;  // unreachable
  } catch (const std::exception& e) {
    std::fprintf(stderr, "vps-worker[%d]: fatal: %s\n", ::getpid(), e.what());
    return 3;
  } catch (...) {
    std::fprintf(stderr, "vps-worker[%d]: fatal: unknown exception\n", ::getpid());
    return 3;
  }
}

int serve_pool(const PoolConfig& cfg, const ScenarioBuilder& build) noexcept {
  // Deterministic backoff jitter: a per-process Xorshift stream keyed by pid
  // (and the chaos seed, so chaos runs are replayable end to end). Jitter
  // decorrelates a pool of workers all stampeding a freshly restarted server.
  support::Xorshift jitter =
      support::Xorshift(cfg.chaos.seed + 0x706f6f6cULL)  // "pool"
          .fork(static_cast<std::uint64_t>(::getpid()));

  // One trace file for the whole pool process, spanning every session —
  // reconnect events landing between replay spans is exactly the story the
  // merged timeline should tell. Null (and costless) when trace_dir is empty.
  const std::unique_ptr<DistTraceWriter> trace = DistTraceWriter::open(cfg.trace_dir, "worker");

  std::uint64_t connects = 0;  // sessions that reached the server
  int failures = 0;
  int backoff_ms = cfg.backoff_initial_ms;
  for (;;) {
    bool made_progress = false;
    SessionEnd end = SessionEnd::kLost;
    try {
      Channel channel(tcp_connect(cfg.host, cfg.port, cfg.connect_timeout_ms));
      if (cfg.chaos.enabled()) {
        // Distinct stream per session: fault patterns on one link must not
        // replay on the next.
        const std::uint64_t stream =
            (static_cast<std::uint64_t>(::getpid()) << 20) + connects;
        channel.set_chaos(std::make_shared<ChaosPolicy>(cfg.chaos, stream));
      }
      ++connects;
      if (trace != nullptr && connects > 1) {
        trace->event("reconnect", 0, 0, dist_now_ns(),
                     {{"session", connects - 1}, {"failures", static_cast<std::uint64_t>(failures)}});
      }
      end = serve_pool_session(channel, build, connects - 1, cfg.idle_timeout_ms, made_progress,
                               trace.get());
    } catch (const std::exception& e) {
      // Refused/timed-out connect, stream corruption (incl. injected), recv
      // errors: all just a bad link to this worker — reconnect, don't die.
      std::fprintf(stderr, "vps-worker[%d]: session lost: %s\n", ::getpid(), e.what());
    }
    if (end == SessionEnd::kShutdown) return 0;
    if (end == SessionEnd::kFatal) return 3;
    if (made_progress) {
      failures = 0;
      backoff_ms = cfg.backoff_initial_ms;
    }
    if (++failures > cfg.max_reconnects) {
      std::fprintf(stderr, "vps-worker[%d]: giving up after %d consecutive failed sessions\n",
                   ::getpid(), failures - 1);
      return 2;
    }
    const int delay =
        static_cast<int>(jitter.uniform(0.5 * backoff_ms, 1.5 * backoff_ms));
    std::this_thread::sleep_for(std::chrono::milliseconds(delay));
    backoff_ms = std::min(backoff_ms * 2, cfg.backoff_max_ms);
  }
}

}  // namespace vps::dist
