// The persistent campaign server: admission control (bounded job table,
// explicit REJECT), the metrics scrape endpoint, wedged-peer supervision,
// and the headline guarantee — two tenant campaigns interleaved on one
// standing worker pool fold bitwise identical to their solo in-process
// runs, including with a pool worker SIGKILLed mid-campaign.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include "campaign_compare.hpp"
#include "pool_worker.hpp"
#include "vps/apps/caps.hpp"
#include "vps/apps/registry.hpp"
#include "vps/dist/coordinator.hpp"
#include "vps/dist/protocol.hpp"
#include "vps/dist/server.hpp"
#include "vps/dist/transport.hpp"
#include "vps/dist/worker.hpp"
#include "vps/fault/campaign.hpp"
#include "vps/support/ensure.hpp"

namespace {

using namespace vps::dist;
using vps::apps::CapsConfig;
using vps::apps::CapsScenario;
using vps::fault::CampaignConfig;
using vps::fault::CampaignResult;
using vps::fault::Outcome;
using vps::fault::ParallelCampaign;
using vps::fault::ScenarioFactory;
using vps::support::InvariantError;
using vps_test::expect_identical;
using vps_test::fork_pool_worker;
using vps_test::reap;

constexpr const char* kHost = "127.0.0.1";

SubmitMsg tiny_submit(const std::string& tenant) {
  SubmitMsg submit;
  submit.tenant = tenant;
  submit.scenario_spec = "caps";
  submit.scenario = "caps_normal_protected";
  submit.config.runs = 4;
  submit.config.seed = 1;
  submit.golden.completed = true;
  submit.golden.output_signature = 1;
  return submit;
}

// --------------------------------------------------------------------------
// Multi-tenant determinism on one standing pool
// --------------------------------------------------------------------------

TEST(CampaignServerTest, ThreeTenantsOnOnePoolFoldBitwiseIdenticalToSolo) {
  const ScenarioFactory caps_factory = [] {
    return std::make_unique<CapsScenario>(CapsConfig{.crash = true});
  };
  const ScenarioFactory acc_factory = [] { return vps::apps::make_scenario("acc"); };
  const ScenarioFactory bms_factory = [] {
    return vps::apps::make_scenario("bms:short:quick");
  };

  CampaignConfig caps_cfg;
  caps_cfg.runs = 24;
  caps_cfg.seed = 42;
  caps_cfg.location_buckets = 8;
  CampaignConfig acc_cfg;
  acc_cfg.runs = 12;
  acc_cfg.seed = 9;
  CampaignConfig bms_cfg;
  bms_cfg.runs = 10;
  bms_cfg.seed = 17;
  bms_cfg.location_buckets = 8;

  const CampaignResult caps_solo = ParallelCampaign(caps_factory, caps_cfg).run();
  const CampaignResult acc_solo = ParallelCampaign(acc_factory, acc_cfg).run();
  const CampaignResult bms_solo = ParallelCampaign(bms_factory, bms_cfg).run();

  // Default (30 s) heartbeat budget: a SIGKILLed worker is detected by EOF,
  // not by heartbeat, and sanitizer builds can push one replay past a few
  // seconds of wall time — a tight budget here only makes TSan drop healthy
  // workers as wedged.
  CampaignServer server{ServerConfig{}};

  // Fork the 4-worker pool BEFORE any thread exists. The listener is already
  // bound (constructor), so the TCP backlog holds the connects until the
  // serve loop starts accepting.
  std::vector<pid_t> pool;
  for (int i = 0; i < 4; ++i) pool.push_back(fork_pool_worker(server.port()));
  server.start();

  const auto run_tenant = [&server](const std::string& tenant, const std::string& spec,
                                    const ScenarioFactory& factory, const CampaignConfig& cfg) {
    DistConfig dc;
    dc.campaign = cfg;
    dc.server_host = kHost;
    dc.server_port = server.port();
    dc.tenant = tenant;
    dc.scenario_spec = spec;
    DistCampaign campaign(factory, dc);
    return campaign.run();
  };

  // A throw inside a tenant thread must fail the test, not std::terminate it.
  CampaignResult caps_res;
  CampaignResult acc_res;
  CampaignResult bms_res;
  std::thread caps_tenant([&] {
    try {
      caps_res = run_tenant("caps", "caps:crash", caps_factory, caps_cfg);
    } catch (const std::exception& e) {
      ADD_FAILURE() << "caps tenant threw: " << e.what();
    }
  });
  std::thread acc_tenant([&] {
    try {
      acc_res = run_tenant("acc", "acc", acc_factory, acc_cfg);
    } catch (const std::exception& e) {
      ADD_FAILURE() << "acc tenant threw: " << e.what();
    }
  });
  std::thread bms_tenant([&] {
    try {
      bms_res = run_tenant("bms", "bms:short:quick", bms_factory, bms_cfg);
    } catch (const std::exception& e) {
      ADD_FAILURE() << "bms tenant threw: " << e.what();
    }
  });

  // Kill one pool worker while both campaigns are (very likely) in flight:
  // the server requeues its runs and neither tenant's fold may change.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  ::kill(pool[0], SIGKILL);

  caps_tenant.join();
  acc_tenant.join();
  bms_tenant.join();
  server.stop();
  for (pid_t pid : pool) reap(pid);

  expect_identical(caps_solo, caps_res);
  expect_identical(acc_solo, acc_res);
  expect_identical(bms_solo, bms_res);
}

// --------------------------------------------------------------------------
// Crash accounting: FleetStats::crashed_runs means the same in both modes
// --------------------------------------------------------------------------

/// Every faulty replay throws; the golden run completes.
class AlwaysCrashes final : public vps::fault::Scenario {
 public:
  [[nodiscard]] std::string name() const override { return "always_crashes"; }
  [[nodiscard]] vps::sim::Time duration() const override { return vps::sim::Time::ms(1); }
  [[nodiscard]] std::vector<vps::fault::FaultType> fault_types() const override {
    return {vps::fault::FaultType::kMemoryBitFlip};
  }
  [[nodiscard]] vps::fault::Observation run(const vps::fault::FaultDescriptor* fault,
                                            std::uint64_t) override {
    if (fault != nullptr) {
      throw std::runtime_error("replay of fault " + std::to_string(fault->id) + " crashed");
    }
    vps::fault::Observation obs;
    obs.completed = true;
    obs.output_signature = 1;
    return obs;
  }
};

TEST(CampaignServerTest, CrashedRunsCountsOnlyExhaustedRequeuesInBothModes) {
  const ScenarioFactory factory = [] { return std::make_unique<AlwaysCrashes>(); };
  CampaignConfig cfg;
  cfg.runs = 8;
  cfg.seed = 3;
  cfg.crash_retries = 0;

  DistConfig fleet_dc;
  fleet_dc.campaign = cfg;
  fleet_dc.workers = 2;
  DistCampaign fleet(factory, fleet_dc);
  const CampaignResult fleet_result = fleet.run();

  CampaignServer server{ServerConfig{}};
  const pid_t worker = fork_pool_worker(
      server.port(), [](const SetupMsg&) { return std::make_unique<AlwaysCrashes>(); });
  server.start();
  DistConfig server_dc;
  server_dc.campaign = cfg;
  server_dc.server_host = kHost;
  server_dc.server_port = server.port();
  DistCampaign remote(factory, server_dc);
  const CampaignResult remote_result = remote.run();
  server.stop();
  reap(worker);

  // Every run crashed in its replay and none was ever requeued.
  EXPECT_EQ(fleet_result.quarantine.size(), cfg.runs);
  expect_identical(fleet_result, remote_result);
  EXPECT_EQ(fleet.fleet_stats().crashed_runs, 0u);
  EXPECT_EQ(remote.fleet_stats().crashed_runs, 0u)
      << "server mode counted kSimCrash verdicts, not exhausted requeues";
}

// --------------------------------------------------------------------------
// Admission control
// --------------------------------------------------------------------------

TEST(CampaignServerTest, FullJobTableAnswersRejectNotHang) {
  ServerConfig sc;
  sc.max_jobs = 1;
  CampaignServer server{sc};
  server.start();

  // First tenant occupies the only slot...
  Channel first(tcp_connect(kHost, server.port()));
  ASSERT_TRUE(first.send_frame(MsgType::kSubmit, encode_submit(tiny_submit("a"))));
  auto accept = first.wait_frame(5000);
  ASSERT_TRUE(accept.has_value());
  ASSERT_EQ(accept->type, MsgType::kAccept);
  const std::uint64_t job = decode_accept(accept->payload).job;

  // ...so the second SUBMIT is rejected explicitly, within the timeout.
  Channel second(tcp_connect(kHost, server.port()));
  ASSERT_TRUE(second.send_frame(MsgType::kSubmit, encode_submit(tiny_submit("b"))));
  auto reject = second.wait_frame(5000);
  ASSERT_TRUE(reject.has_value()) << "a full queue must answer, not hang";
  ASSERT_EQ(reject->type, MsgType::kReject);
  EXPECT_NE(decode_reject(reject->payload).reason.find("full"), std::string::npos);

  // Releasing the admitted job frees the slot for the next tenant.
  ASSERT_TRUE(first.send_frame(MsgType::kRelease, encode_job(JobMsg{job})));
  for (int attempt = 0;; ++attempt) {
    Channel retry(tcp_connect(kHost, server.port()));
    ASSERT_TRUE(retry.send_frame(MsgType::kSubmit, encode_submit(tiny_submit("c"))));
    auto reply = retry.wait_frame(5000);
    ASSERT_TRUE(reply.has_value());
    if (reply->type == MsgType::kAccept) break;
    ASSERT_EQ(reply->type, MsgType::kReject);  // RELEASE still in flight
    ASSERT_LT(attempt, 50) << "slot was never freed";
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  server.stop();
}

TEST(CampaignServerTest, ClientModeSurfacesRejectAsACleanError) {
  ServerConfig sc;
  sc.max_jobs = 0;  // everything is rejected
  CampaignServer server{sc};
  server.start();

  DistConfig dc;
  dc.campaign.runs = 4;
  dc.server_host = kHost;
  dc.server_port = server.port();
  DistCampaign campaign([] { return std::make_unique<CapsScenario>(CapsConfig{}); }, dc);
  try {
    (void)campaign.run();
    FAIL() << "a rejected submission must not succeed";
  } catch (const InvariantError& e) {
    EXPECT_NE(std::string(e.what()).find("rejected"), std::string::npos) << e.what();
  }
  server.stop();
}

TEST(CampaignServerTest, ScenarioMismatchRejectsTheJobAndKeepsTheWorker) {
  // Regression: the server used to drop the worker on a mismatched HELLO and
  // never tell the client, which then looped through silence → reconnect →
  // reattach forever.
  const ScenarioFactory factory = [] {
    return std::make_unique<CapsScenario>(CapsConfig{.crash = true});
  };
  CampaignConfig cfg;
  cfg.runs = 8;
  cfg.seed = 11;
  const CampaignResult solo = ParallelCampaign(factory, cfg).run();

  CampaignServer server{ServerConfig{}};
  const pid_t worker = fork_pool_worker(server.port());
  server.start();

  DistConfig dc;
  dc.campaign = cfg;
  dc.server_host = kHost;
  dc.server_port = server.port();
  dc.heartbeat_timeout_ms = 500;
  dc.max_reconnects = 2;
  dc.scenario_spec = "caps:normal";  // the client runs caps_crash_protected
  try {
    (void)DistCampaign(factory, dc).run();
    ADD_FAILURE() << "a mismatched scenario must not succeed";
  } catch (const InvariantError& e) {
    EXPECT_NE(std::string(e.what()).find("caps_normal_protected"), std::string::npos) << e.what();
    EXPECT_NE(std::string(e.what()).find("caps_crash_protected"), std::string::npos) << e.what();
  }

  // The same worker still serves a correct campaign.
  dc.scenario_spec = "caps:crash";
  const CampaignResult fixed = DistCampaign(factory, dc).run();
  server.stop();
  reap(worker);
  expect_identical(solo, fixed);
}

TEST(CampaignServerTest, SubmitAnsweredWithAResultIsAFailedAttemptNotAnAbort) {
  // A scripted peer plays the server: it answers the first SUBMIT with a
  // RESULT_STREAM (what a reattach whose ACCEPT was lost sees first) and
  // the second with a REJECT. The client must retry the first and surface
  // the second.
  const TcpListener listener = make_tcp_listener(kHost, 0);
  std::thread peer([&listener] {
    for (int attempt = 0; attempt < 2; ++attempt) {
      struct pollfd pfd = {listener.fd, POLLIN, 0};
      if (::poll(&pfd, 1, 10'000) <= 0) return;  // the client gave up
      Channel link(tcp_accept(listener.fd));
      const auto submit = link.wait_frame(10'000);
      if (!submit.has_value() || submit->type != MsgType::kSubmit) return;
      if (attempt == 0) {
        ResultMsg stray;
        stray.job = 1;
        stray.replay.outcome = Outcome::kNoEffect;
        (void)link.send_frame(MsgType::kResultStream, encode_result(stray));
      } else {
        (void)link.send_frame(MsgType::kReject, encode_reject(RejectMsg{"scripted peer"}));
      }
      (void)link.wait_frame(10'000);  // until the client hangs up
    }
  });

  DistConfig dc;
  dc.campaign.runs = 4;
  dc.server_host = kHost;
  dc.server_port = listener.port;
  dc.max_reconnects = 2;
  DistCampaign campaign([] { return std::make_unique<CapsScenario>(CapsConfig{}); }, dc);
  try {
    (void)campaign.run();
    ADD_FAILURE() << "a rejected submission must not succeed";
  } catch (const InvariantError& e) {
    EXPECT_NE(std::string(e.what()).find("scripted peer"), std::string::npos) << e.what();
  }
  peer.join();
  ::close(listener.fd);
}

// --------------------------------------------------------------------------
// Metrics scrape endpoint
// --------------------------------------------------------------------------

TEST(CampaignServerTest, MetricsScrapeServesNameSortedRender) {
  ServerConfig sc;
  CampaignServer server{sc};
  server.start();

  const int fd = tcp_connect(kHost, server.port());
  const std::string request = "GET /metrics HTTP/1.0\r\n\r\n";
  ASSERT_EQ(::send(fd, request.data(), request.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(request.size()));
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof buf, 0)) > 0) response.append(buf, static_cast<std::size_t>(n));
  ::close(fd);
  server.stop();

  EXPECT_NE(response.find("200 OK"), std::string::npos) << response;
  EXPECT_NE(response.find("server.jobs_active"), std::string::npos) << response;
  EXPECT_NE(response.find("server.workers_alive"), std::string::npos) << response;
  // The registry renders name-sorted, so the scrape is deterministic.
  EXPECT_LT(response.find("server.jobs_active"), response.find("server.workers_alive"));
}

// --------------------------------------------------------------------------
// Wedged-peer supervision
// --------------------------------------------------------------------------

TEST(CampaignServerTest, WorkerStuckMidFrameIsDropped) {
  // A peer that registers and then trickles half a frame must be dropped at
  // the heartbeat deadline — a truncated tail can never park the server's
  // reassembly buffer (or a tenant's campaign) forever.
  ServerConfig sc;
  sc.heartbeat_timeout_ms = 200;
  CampaignServer server{sc};
  server.start();

  Channel worker(tcp_connect(kHost, server.port()));
  RegisterMsg reg;
  reg.pid = 424242;
  ASSERT_TRUE(worker.send_frame(MsgType::kRegister, encode_register(reg)));

  const std::string wire =
      encode_frame(MsgType::kHeartbeat, "{\"kind\":\"heartbeat\",\"runs_done\":1}");
  ASSERT_GT(::send(worker.fd(), wire.data(), wire.size() / 2, MSG_NOSIGNAL), 0);

  const auto frame = worker.wait_frame(3000);
  EXPECT_FALSE(frame.has_value());
  EXPECT_FALSE(worker.open()) << "server kept a peer stuck mid-frame alive past the deadline";
  server.stop();
}

}  // namespace
