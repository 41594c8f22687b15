#include "workloads.hpp"

#include <cerrno>
#include <cstdio>
#include <filesystem>

#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include "vps/apps/registry.hpp"
#include "vps/dist/server.hpp"
#include "vps/dist/transport.hpp"
#include "vps/dist/worker.hpp"

namespace campaign_bench {

namespace fault = vps::fault;
namespace dist = vps::dist;
namespace obs = vps::obs;

const char* executor_name(Executor executor) noexcept {
  switch (executor) {
    case Executor::kInProcess: return "ParallelCampaign";
    case Executor::kServer: return "DistCampaign -> CampaignServer";
    case Executor::kFleet: return "DistCampaign local fleet";
  }
  return "?";
}

const std::vector<Workload>& workloads() {
  // Why these three (BENCHMARK.json, which lists all but acc_server, says
  // it in one line each):
  //   caps_inproc: ISS-firmware replays of 4-50 ms on a 4-thread pool (= nproc);
  //     the twin substrate does nearly all the work, stragglers set the tail.
  //   acc_server: sub-ms replays, so protocol, transport, server dispatch and
  //     the client fold are a large share; 3 pool workers leave a core for
  //     the client and the server loop.
  //   bms_fleet_ckpt: ~500 B provenance records on a one-shot fleet that
  //     rewrites the whole checkpoint file at every barrier.
  static const std::vector<Workload> kAll{
      {"caps_inproc", "caps:crash", Executor::kInProcess, 4, false, 10.0, 4},
      {"acc_server", "acc", Executor::kServer, 3, false, 300.0, 16},
      {"bms_fleet_ckpt", "bms:runaway:prov", Executor::kFleet, 3, true, 20.0, 8},
  };
  return kAll;
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

std::vector<std::string> workload_names() {
  std::vector<std::string> names;
  for (const Workload& w : workloads()) names.push_back(w.name);
  return names;
}

fault::CampaignConfig campaign_config(std::uint64_t seed, std::size_t runs) {
  fault::CampaignConfig c;
  c.runs = runs;
  c.seed = seed;
  c.strategy = fault::Strategy::kGuided;
  c.location_buckets = kLocationBuckets;
  c.batch_size = kBatchSize;
  c.snapshot_replay = true;
  return c;
}

std::int64_t Execution::first_replay_ns() const noexcept {
  std::int64_t first = 0;
  for (const ReplaySample& s : samples) {
    if (s.run == kGoldenRun) continue;
    if (first == 0 || s.start_ns < first) first = s.start_ns;
  }
  return first;
}

namespace {

constexpr const char* kHost = "127.0.0.1";

/// Barrier clock: the drivers call on_progress at every batch barrier, just
/// before they write that barrier's checkpoint — so the file seen here is
/// the previous barrier's.
class BarrierMonitor final : public obs::CampaignMonitor {
 public:
  explicit BarrierMonitor(std::string checkpoint_path)
      : checkpoint_path_(std::move(checkpoint_path)) {}

  void on_progress(const obs::CampaignProgress&) override {
    barriers_ns.push_back(now_ns());
    note_checkpoint();
  }
  void on_complete(const obs::CampaignProgress& progress) override { final_progress = progress; }

  void note_checkpoint() {
    struct stat st {};
    if (!checkpoint_path_.empty() && ::stat(checkpoint_path_.c_str(), &st) == 0) {
      checkpoint_bytes.push_back(static_cast<std::uint64_t>(st.st_size));
    }
  }

  std::vector<std::int64_t> barriers_ns;
  std::vector<std::uint64_t> checkpoint_bytes;
  obs::CampaignProgress final_progress;

 private:
  std::string checkpoint_path_;
};

/// One standing-pool worker, forked before the server's loop thread starts.
/// The child drops every inherited descriptor (the listener above all) and
/// serves one session; SHUTDOWN ends it with exit code 0.
pid_t fork_pool_worker(std::uint16_t port, Probe& probe) {
  const pid_t pid = ::fork();
  if (pid != 0) return pid;
  for (int fd = 3; fd < 1024; ++fd) ::close(fd);
  int code = 3;
  try {
    dist::Channel channel(dist::tcp_connect(kHost, port));
    code = dist::serve_pool(channel, [&probe](const dist::SetupMsg& setup) {
      return probe.wrap(vps::apps::make_scenario(setup.scenario_spec));
    });
  } catch (const std::exception& e) {
    std::fprintf(stderr, "campaign_bench: pool worker failed: %s\n", e.what());
  }
  ::_exit(code);
}

/// Waits for every pool worker; returns how many did not exit cleanly.
std::uint64_t reap(const std::vector<pid_t>& pool) {
  std::uint64_t unclean = 0;
  for (const pid_t pid : pool) {
    int status = 0;
    pid_t r;
    do {
      r = ::waitpid(pid, &status, 0);
    } while (r < 0 && errno == EINTR);
    if (r < 0 || !WIFEXITED(status) || WEXITSTATUS(status) != 0) ++unclean;
  }
  return unclean;
}

}  // namespace

Execution execute(const Workload& workload, const fault::CampaignConfig& base_config,
                  Probe& probe, const std::string& work_dir) {
  std::filesystem::create_directories(work_dir);
  fault::CampaignConfig config = base_config;
  std::string checkpoint_path;
  if (workload.checkpoint) {
    checkpoint_path = work_dir + "/checkpoint.jsonl";
    std::filesystem::remove(checkpoint_path);
    config.checkpoint_every = kBatchSize;
    config.checkpoint_path = checkpoint_path;
  }
  BarrierMonitor monitor(checkpoint_path);
  const std::string spec = workload.scenario;
  const fault::ScenarioFactory factory = [&probe, spec] {
    return probe.wrap(vps::apps::make_scenario(spec));
  };

  Execution ex;
  std::fflush(nullptr);  // forked workers must not inherit unflushed stdio
  ex.t0_ns = now_ns();
  switch (workload.executor) {
    case Executor::kInProcess: {
      config.workers = workload.workers;
      fault::ParallelCampaign campaign(factory, config);
      campaign.set_monitor(&monitor);
      ex.result = campaign.run();
      ex.end_ns = now_ns();
      ex.golden = campaign.golden();
      break;
    }
    case Executor::kFleet: {
      dist::DistConfig dc;
      dc.campaign = config;
      dc.workers = workload.workers;
      dc.scenario_spec = spec;
      dist::DistCampaign campaign(factory, dc);
      campaign.set_monitor(&monitor);
      ex.result = campaign.run();
      ex.end_ns = now_ns();
      ex.golden = campaign.golden();
      ex.fleet = campaign.fleet_stats();
      break;
    }
    case Executor::kServer: {
      dist::CampaignServer server{dist::ServerConfig{}};
      std::vector<pid_t> pool;
      for (std::size_t i = 0; i < workload.workers; ++i) {
        pool.push_back(fork_pool_worker(server.port(), probe));
      }
      server.start();
      {
        dist::DistConfig dc;
        dc.campaign = config;
        dc.server_host = kHost;
        dc.server_port = server.port();
        dc.tenant = "bench";
        dc.scenario_spec = spec;
        dist::DistCampaign campaign(factory, dc);
        campaign.set_monitor(&monitor);
        ex.result = campaign.run();
        ex.end_ns = now_ns();
        ex.golden = campaign.golden();
        ex.fleet = campaign.fleet_stats();
      }
      server.stop();
      ex.fleet.worker_deaths += reap(pool);
      break;
    }
  }
  monitor.note_checkpoint();  // the last barrier's save
  ex.barriers_ns = std::move(monitor.barriers_ns);
  ex.checkpoint_bytes = std::move(monitor.checkpoint_bytes);
  ex.final_progress = monitor.final_progress;
  ex.scenario_name = ex.final_progress.campaign;
  ex.samples = probe.collect();
  return ex;
}

fault::CampaignResult reference_fold(const Workload& workload, std::uint64_t seed,
                                     std::size_t batches) {
  fault::CampaignConfig config = campaign_config(seed, batches * kBatchSize);
  config.workers = 1;
  const std::string spec = workload.scenario;
  fault::ParallelCampaign campaign([spec] { return vps::apps::make_scenario(spec); }, config);
  return campaign.run();
}

}  // namespace campaign_bench
