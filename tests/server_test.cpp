// The persistent campaign server: admission control (bounded job table,
// explicit REJECT), the metrics and /jobs scrape endpoints, wedged-peer
// supervision, protocol breaches that must cost one connection, the
// client's healing against scripted servers, and the headline guarantee —
// two tenant campaigns interleaved on one standing worker pool fold
// bitwise identical to their solo in-process runs, including with a pool
// worker SIGKILLed mid-campaign.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
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
using vps::fault::FaultDescriptor;
using vps::fault::FaultType;
using vps::fault::Observation;
using vps::fault::Outcome;
using vps::fault::ParallelCampaign;
using vps::fault::ScenarioFactory;
using vps::support::InvariantError;
using vps_test::expect_identical;
using vps_test::fork_pool_worker;
using vps_test::reap;

constexpr const char* kHost = "127.0.0.1";

/// The whole response (status line, headers, body) to a plaintext GET of
/// `path` on the server's port.
std::string http_get(std::uint16_t port, const std::string& path) {
  const int fd = tcp_connect(kHost, port);
  const std::string request = "GET " + path + " HTTP/1.0\r\n\r\n";
  EXPECT_EQ(::send(fd, request.data(), request.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(request.size()));
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof buf, 0)) > 0) response.append(buf, static_cast<std::size_t>(n));
  ::close(fd);
  return response;
}

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

/// A replay that costs nothing and whose verdict depends on the fault, so a
/// scripted server can replay it itself.
class ParityScenario final : public vps::fault::Scenario {
 public:
  [[nodiscard]] std::string name() const override { return "parity"; }
  [[nodiscard]] vps::sim::Time duration() const override { return vps::sim::Time::ms(1); }
  [[nodiscard]] std::vector<FaultType> fault_types() const override {
    return {FaultType::kMemoryBitFlip};
  }
  [[nodiscard]] Observation run(const FaultDescriptor* fault, std::uint64_t) override {
    Observation obs;
    obs.completed = true;
    obs.output_signature = fault == nullptr ? 0 : fault->id % 2;
    return obs;
  }
};

/// What a scripted server does with the nth ASSIGN it reads, counted over
/// every link.
enum class OnAssign { kAnswer, kSwallow, kHangUp };

/// Plays a campaign server for one client on `listener`: it ACCEPTs every
/// SUBMIT as job 1 and answers, swallows or hangs up on each ASSIGN as
/// `on_assign` says, replaying answered runs on its own ParityScenario. A
/// hang-up shuts the link's sending side, so the client reads an EOF, and
/// waits for the client to reconnect. Returns at the client's RELEASE.
void play_server(const TcpListener& listener,
                 const std::function<OnAssign(std::size_t)>& on_assign) {
  ParityScenario scenario;
  std::size_t assigns = 0;
  for (;;) {
    struct pollfd pfd = {listener.fd, POLLIN, 0};
    if (::poll(&pfd, 1, 20'000) <= 0) return;  // the client gave up
    Channel link(tcp_accept(listener.fd));
    const auto opener = link.wait_frame(10'000);
    if (!opener.has_value() || opener->type != MsgType::kSubmit) return;
    const SubmitMsg submit = decode_submit(opener->payload);
    (void)link.send_frame(MsgType::kAccept, encode_accept(AcceptMsg{1}));
    while (const auto frame = link.wait_frame(20'000)) {
      if (frame->type == MsgType::kRelease) return;
      const AssignMsg assign = decode_assign(frame->payload);
      const OnAssign act = on_assign(assigns++);
      if (act == OnAssign::kSwallow) continue;
      if (act == OnAssign::kHangUp) {
        ::shutdown(link.fd(), SHUT_WR);
        while (link.wait_frame(20'000).has_value()) {
        }
        break;
      }
      ResultMsg result;
      result.job = assign.job;
      result.run = assign.run;
      result.replay = vps::fault::replay_isolated(scenario, assign.fault, submit.config.seed,
                                                  submit.golden, submit.config.crash_retries);
      (void)link.send_frame(MsgType::kResultStream, encode_result(result));
    }
  }
}

/// Runs an 8-run ParityScenario campaign against a scripted server; checks
/// its fold against the solo run and returns the elapsed milliseconds.
long long campaign_against(const std::function<OnAssign(std::size_t)>& on_assign,
                           int heartbeat_ms, std::uint64_t expected_reconnects) {
  const ScenarioFactory factory = [] { return std::make_unique<ParityScenario>(); };
  CampaignConfig cfg;
  cfg.runs = 8;  // one batch
  cfg.seed = 5;
  const CampaignResult solo = ParallelCampaign(factory, cfg).run();

  const TcpListener listener = make_tcp_listener(kHost, 0);
  std::thread peer([&] { play_server(listener, on_assign); });
  DistConfig dc;
  dc.campaign = cfg;
  dc.server_host = kHost;
  dc.server_port = listener.port;
  dc.heartbeat_timeout_ms = heartbeat_ms;
  DistCampaign campaign(factory, dc);
  const auto started = std::chrono::steady_clock::now();
  CampaignResult result;
  try {
    result = campaign.run();
  } catch (const std::exception& e) {
    ADD_FAILURE() << "campaign threw: " << e.what();
  }
  const auto elapsed = std::chrono::steady_clock::now() - started;
  peer.join();
  ::close(listener.fd);
  expect_identical(solo, result);
  EXPECT_EQ(campaign.fleet_stats().reconnects, expected_reconnects);
  return std::chrono::duration_cast<std::chrono::milliseconds>(elapsed).count();
}

TEST(CampaignServerTest, SwallowedAssignIsResentOnTheOpenLinkAfterOneWindow) {
  // The server never hears the third ASSIGN. The client re-sends it after
  // one 200 ms window without a frame, on the same link; it used to wait
  // out its whole silence budget (3 windows + 10 s) and then reconnect.
  const long long ms = campaign_against(
      [](std::size_t n) { return n == 2 ? OnAssign::kSwallow : OnAssign::kAnswer; },
      /*heartbeat_ms=*/200, /*expected_reconnects=*/0);
  EXPECT_LT(ms, 3000) << "the swallowed run waited out the silence budget";
}

TEST(CampaignServerTest, ServerThatHangsUpMidCampaignIsReattached) {
  // The server answers three runs, then closes the link. The client reads
  // the EOF, reconnects, re-SUBMITs and re-ASSIGNs the five runs without a
  // verdict, all inside one heartbeat window: no re-send or silence
  // budget, only the EOF, can have told it.
  const long long ms = campaign_against(
      [](std::size_t n) { return n == 3 ? OnAssign::kHangUp : OnAssign::kAnswer; },
      /*heartbeat_ms=*/5000, /*expected_reconnects=*/1);
  EXPECT_LT(ms, 5000) << "the hang-up was taken for silence";
}

// --------------------------------------------------------------------------
// Metrics scrape endpoint
// --------------------------------------------------------------------------

TEST(CampaignServerTest, MetricsScrapeServesNameSortedRender) {
  ServerConfig sc;
  CampaignServer server{sc};
  server.start();
  const std::string response = http_get(server.port(), "/metrics");
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
      encode_frame(MsgType::kResult, "{\"kind\":\"result\",\"job\":1,\"run\":1}");
  ASSERT_GT(::send(worker.fd(), wire.data(), wire.size() / 2, MSG_NOSIGNAL), 0);

  const auto frame = worker.wait_frame(3000);
  EXPECT_FALSE(frame.has_value());
  EXPECT_FALSE(worker.open()) << "server kept a peer stuck mid-frame alive past the deadline";
  server.stop();
}

/// A scripted pool worker: REGISTERs as `pid`.
Channel register_worker(std::uint16_t port, std::uint64_t pid) {
  Channel worker(tcp_connect(kHost, port));
  RegisterMsg reg;
  reg.pid = pid;
  EXPECT_TRUE(worker.send_frame(MsgType::kRegister, encode_register(reg)));
  return worker;
}

/// A scripted client: SUBMITs `submit` and returns the link and its job id.
std::pair<Channel, std::uint64_t> submit_job(std::uint16_t port, const SubmitMsg& submit) {
  Channel client(tcp_connect(kHost, port));
  EXPECT_TRUE(client.send_frame(MsgType::kSubmit, encode_submit(submit)));
  const auto accept = client.wait_frame(5000);
  EXPECT_TRUE(accept.has_value() && accept->type == MsgType::kAccept);
  const std::uint64_t job = accept.has_value() ? decode_accept(accept->payload).job : 0;
  return {std::move(client), job};
}

/// ASSIGNs run `run` of `job` with a default fault.
bool assign(Channel& client, std::uint64_t job, std::uint64_t run) {
  AssignMsg msg;
  msg.job = job;
  msg.run = run;
  return client.send_frame(MsgType::kAssign, encode_assign(msg));
}

/// The RESULT payload of run `run` of `job`, with a default verdict.
std::string result_for(std::uint64_t job, std::uint64_t run) {
  ResultMsg msg;
  msg.job = job;
  msg.run = run;
  return encode_result(msg);
}

/// Answers the SETUP `worker` is due and returns the ASSIGN that follows.
std::optional<AssignMsg> take_run(Channel& worker) {
  const auto setup = worker.wait_frame(5000);
  if (!setup.has_value() || setup->type != MsgType::kHello) return std::nullopt;
  const SetupMsg msg = decode_setup(setup->payload);
  if (!worker.send_frame(MsgType::kHello, encode_hello({msg.job, "caps_normal_protected"}))) {
    return std::nullopt;
  }
  const auto frame = worker.wait_frame(5000);
  if (!frame.has_value() || frame->type != MsgType::kAssign) return std::nullopt;
  return decode_assign(frame->payload);
}

TEST(CampaignServerTest, IdleWorkerSilenceCountsFromItsNextAssignment) {
  // No heartbeat frame: a worker proves itself alive with its RESULTs, and
  // its silence clock starts when it is handed work while idle. A worker
  // idle for two windows must get a whole window for its next run.
  ServerConfig sc;
  sc.heartbeat_timeout_ms = 300;
  CampaignServer server{sc};
  server.start();
  Channel worker = register_worker(server.port(), 4242);
  auto [client, job] = submit_job(server.port(), tiny_submit("idle"));

  ASSERT_TRUE(assign(client, job, 0));
  const auto first = take_run(worker);
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(worker.send_frame(MsgType::kResult, result_for(job, 0)));
  std::this_thread::sleep_for(std::chrono::milliseconds(600));  // idle: never overdue

  ASSERT_TRUE(assign(client, job, 1));
  const auto second = worker.wait_frame(5000);
  ASSERT_TRUE(second.has_value() && second->type == MsgType::kAssign) << "idle worker was dropped";
  std::this_thread::sleep_for(std::chrono::milliseconds(100));  // a third of its window
  ASSERT_TRUE(worker.send_frame(MsgType::kResult, result_for(job, 1)));

  for (const std::uint64_t run : {0u, 1u}) {
    const auto relayed = client.wait_frame(5000);
    ASSERT_TRUE(relayed.has_value() && relayed->type == MsgType::kResultStream);
    EXPECT_EQ(decode_result(relayed->payload).run, run);
  }
  EXPECT_TRUE(worker.open());
  server.stop();
}

TEST(CampaignServerTest, RunPastItsRequeueBudgetIsAnsweredNotRunAgain) {
  // The worker holding run 0 hangs up, and with a requeue budget of 0 the
  // server synthesizes its kSimCrash verdict. A re-sent ASSIGN for run 0
  // (a client's heal crossing that verdict) gets the same bytes back, and
  // no worker is ever given the run again.
  CampaignServer server{ServerConfig{}};
  server.start();
  SubmitMsg submit = tiny_submit("poison");
  submit.max_requeues = 0;
  auto [client, job] = submit_job(server.port(), submit);
  {
    Channel doomed = register_worker(server.port(), 1);
    ASSERT_TRUE(assign(client, job, 0));
    ASSERT_TRUE(take_run(doomed).has_value());
  }  // hangs up holding run 0
  const auto verdict = client.wait_frame(5000);
  ASSERT_TRUE(verdict.has_value() && verdict->type == MsgType::kResultStream);
  EXPECT_EQ(decode_result(verdict->payload).replay.outcome, Outcome::kSimCrash);

  Channel spare = register_worker(server.port(), 2);
  ASSERT_TRUE(assign(client, job, 0));
  const auto again = client.wait_frame(5000);
  ASSERT_TRUE(again.has_value() && again->type == MsgType::kResultStream);
  EXPECT_EQ(again->payload, verdict->payload);
  EXPECT_FALSE(spare.wait_frame(500).has_value()) << "the spent run was handed out again";
  const std::string metrics = http_get(server.port(), "/metrics");
  const std::size_t at = metrics.find("server.crashed_runs ");
  ASSERT_NE(at, std::string::npos) << metrics;
  EXPECT_EQ(std::stoull(metrics.substr(metrics.find("counter", at) + 7)), 1u) << metrics;
  server.stop();
}

// --------------------------------------------------------------------------
// Hostile peers: a protocol breach costs exactly its own connection
// --------------------------------------------------------------------------

/// Forks a pool worker that connects only once a byte arrives on the pipe
/// `gate` (an EOF there ends it unconnected). Call before any thread exists.
pid_t fork_gated_pool_worker(std::uint16_t port, const int gate[2]) {
  const pid_t pid = ::fork();
  if (pid != 0) return pid;
  ::close(gate[1]);
  char go = 0;
  int code = 3;
  if (::read(gate[0], &go, 1) == 1) {
    Channel channel(tcp_connect(kHost, port));
    code = serve_pool(channel, vps_test::registry_scenario);
  }
  ::_exit(code);
}

/// True once the server has closed `link`; frames it sends first are read
/// and dropped.
bool dropped(Channel& link) {
  while (link.wait_frame(5000).has_value()) {
  }
  return !link.open();
}

TEST(CampaignServerTest, EachProtocolBreachCostsOnlyItsOwnConnection) {
  // Three scripted workers each take two runs of a tenant's campaign and
  // then break the protocol: a HELLO for a job never SETUP, a frame only
  // clients send, a frame type v4 does not define. Three scripted clients
  // ASSIGN into a job they do not own, send a frame only workers send, and
  // ASSIGN a run their own job does not have.
  // Each must lose exactly its own connection, a dropped worker's runs must
  // requeue, and the tenant must fold as it does solo once a real pool
  // worker joins.
  const ScenarioFactory factory = [] {
    return std::make_unique<CapsScenario>(CapsConfig{.crash = true});
  };
  CampaignConfig cfg;
  cfg.runs = 24;  // one batch, so 24 runs wait for the scripted workers
  cfg.seed = 42;
  cfg.location_buckets = 8;
  const CampaignResult solo = ParallelCampaign(factory, cfg).run();

  CampaignServer server{ServerConfig{}};
  std::vector<CampaignServer::WorkerDeath> deaths;  // read after stop()
  server.on_worker_death([&deaths](const CampaignServer::WorkerDeath& d) { deaths.push_back(d); });
  int gate[2];
  ASSERT_EQ(::pipe(gate), 0);
  const pid_t pool_worker = fork_gated_pool_worker(server.port(), gate);
  ::close(gate[0]);
  server.start();

  std::vector<Channel> workers;
  for (const std::uint64_t pid : {900001u, 900002u, 900003u}) {
    workers.push_back(register_worker(server.port(), pid));
  }

  CampaignResult shared;
  std::uint64_t tenant_reconnects = 0;
  std::thread tenant([&] {
    try {
      DistConfig dc;
      dc.campaign = cfg;
      dc.server_host = kHost;
      dc.server_port = server.port();
      dc.tenant = "caps";
      dc.scenario_spec = "caps:crash";
      DistCampaign campaign(factory, dc);
      shared = campaign.run();
      tenant_reconnects = campaign.fleet_stats().reconnects;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "tenant threw: " << e.what();
    }
  });

  const auto breach = [&] {
    std::uint64_t job = 0;
    for (Channel& w : workers) {
      const auto setup = w.wait_frame(10'000);
      ASSERT_TRUE(setup.has_value() && setup->type == MsgType::kHello);
      job = decode_setup(setup->payload).job;
      ASSERT_TRUE(w.send_frame(MsgType::kHello, encode_hello({job, "caps_crash_protected"})));
      for (int i = 0; i < 2; ++i) {
        const auto assign = w.wait_frame(10'000);
        ASSERT_TRUE(assign.has_value() && assign->type == MsgType::kAssign);
      }
    }
    const std::string busy = http_get(server.port(), "/jobs");
    EXPECT_NE(busy.find("\njob=" + std::to_string(job) + " tenant=caps token="), std::string::npos)
        << busy;
    EXPECT_NE(busy.find(" inflight=6 relayed=0 requeued=0 orphaned=no\n"), std::string::npos)
        << busy;
    EXPECT_NE(busy.find("\nworkers 3\nworker pid=900001 inflight=2 ready_jobs=1\n"
                        "worker pid=900002 inflight=2 ready_jobs=1\n"
                        "worker pid=900003 inflight=2 ready_jobs=1\n"),
              std::string::npos)
        << busy;
    EXPECT_NE(busy.find("\ncounters reconnects=0 worker_deaths=0 requeued_runs=0 "),
              std::string::npos)
        << busy;

    const std::string breaches[] = {
        encode_frame(MsgType::kHello, encode_hello({job + 1000, "x"})),  // never SETUP
        encode_frame(MsgType::kSubmit, encode_submit(tiny_submit("w"))),  // a client's frame
        encode_frame(static_cast<MsgType>(4), "{}"),                      // v3's HEARTBEAT
    };
    for (std::size_t i = 0; i < 3; ++i) {
      ASSERT_EQ(::send(workers[i].fd(), breaches[i].data(), breaches[i].size(), MSG_NOSIGNAL),
                static_cast<ssize_t>(breaches[i].size()));
      EXPECT_TRUE(dropped(workers[i])) << "breach " << i;
      const std::string left = http_get(server.port(), "/jobs");
      EXPECT_NE(left.find("\nworkers " + std::to_string(2 - i) + "\n"), std::string::npos)
          << "breach " << i << " cost another worker:\n" << left;
    }

    const std::string idle = http_get(server.port(), "/jobs");
    EXPECT_NE(idle.find(" inflight=0 relayed=0 requeued=6 orphaned=no\n"), std::string::npos)
        << idle;
    EXPECT_NE(idle.find("\nworkers 0\ncounters reconnects=0 worker_deaths=3 requeued_runs=6 "),
              std::string::npos)
        << idle;

    for (const bool foreign_assign : {true, false}) {
      auto [client, own_job] = submit_job(server.port(), tiny_submit("rogue"));
      if (foreign_assign) {
        ASSERT_TRUE(assign(client, job, 0));  // the tenant's job
        EXPECT_TRUE(dropped(client)) << "ASSIGN into another client's job";
      } else {
        ASSERT_TRUE(client.send_frame(MsgType::kResult, result_for(own_job, 0)));
        EXPECT_TRUE(dropped(client)) << "a client sent RESULT";
      }
    }
    // Runs 0-3 are all a 4-run job has; one past them or far past costs the
    // link before anything is queued.
    for (const std::uint64_t run : {std::uint64_t{4}, std::numeric_limits<std::uint64_t>::max()}) {
      auto [client, own_job] = submit_job(server.port(), tiny_submit("rogue"));
      ASSERT_TRUE(assign(client, own_job, run));
      EXPECT_TRUE(dropped(client)) << "ASSIGN of run " << run << " into a 4-run job";
    }
  };
  breach();

  // Whatever happened above, the real worker joins and the tenant finishes.
  EXPECT_EQ(::write(gate[1], "g", 1), 1);
  ::close(gate[1]);
  tenant.join();
  server.stop();
  reap(pool_worker);

  expect_identical(solo, shared);
  EXPECT_EQ(tenant_reconnects, 0u) << "a rogue client cost the tenant its link";
  ASSERT_EQ(deaths.size(), 3u);
  for (std::size_t i = 0; i < deaths.size(); ++i) {
    EXPECT_EQ(deaths[i].pid, 900001u + i);
    EXPECT_EQ(deaths[i].requeued, 2u);
    EXPECT_EQ(deaths[i].crashed, 0u);
  }
}

}  // namespace
