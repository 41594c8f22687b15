// Self-healing distribution layer: deterministic chaos injection, connect
// timeouts, EINTR-proof transfers, protocol-version/garbage-frame hygiene,
// job_token reattach + orphan grace + graceful drain — and the two headline
// guarantees: a campaign completed under chaotic links, and a campaign that
// rode through a server crash + restart, both fold bitwise identical to the
// solo in-process driver.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include "campaign_compare.hpp"
#include "checkpoint_saves.hpp"
#include "pool_worker.hpp"
#include "vps/apps/registry.hpp"
#include "vps/dist/chaos.hpp"
#include "vps/dist/coordinator.hpp"
#include "vps/dist/protocol.hpp"
#include "vps/dist/server.hpp"
#include "vps/dist/transport.hpp"
#include "vps/dist/worker.hpp"
#include "vps/fault/campaign.hpp"
#include "vps/fault/checkpoint.hpp"
#include "vps/support/ensure.hpp"

namespace {

using namespace vps::dist;
using vps::fault::CampaignConfig;
using vps::fault::CampaignResult;
using vps::fault::ParallelCampaign;
using vps::fault::ScenarioFactory;
using vps::support::InvariantError;
using vps_test::expect_identical;
using vps_test::reap;

constexpr const char* kHost = "127.0.0.1";

// Forks one self-healing pool worker (serve_pool with reconnect). Must be
// called before any thread exists in the test process (fork safety).
pid_t fork_reconnecting_worker(std::uint16_t port, std::uint64_t chaos_seed = 0) {
  const pid_t pid = ::fork();
  if (pid != 0) return pid;
  // Drop every fd inherited from the test process — above all the server's
  // listening socket. A child that keeps it open makes the crashed server's
  // port unbindable (EADDRINUSE on restart) while the kernel keeps accepting
  // connections into a backlog nobody drains.
  for (int fd = 3; fd < 1024; ++fd) ::close(fd);
  PoolConfig pc;
  pc.host = kHost;
  pc.port = port;
  pc.backoff_initial_ms = 20;
  pc.backoff_max_ms = 150;
  pc.max_reconnects = 40;
  pc.idle_timeout_ms = 2000;
  pc.chaos.seed = chaos_seed;
  const int code = serve_pool(
      pc, [](const SetupMsg& setup) { return vps::apps::make_scenario(setup.scenario_spec); });
  ::_exit(code);
}

// Raw metrics scrape (no HTTP client dependency). Non-throwing: a scrape
// that cannot connect (server mid-restart) reads as an empty render.
std::string scrape(std::uint16_t port) {
  int fd = -1;
  try {
    fd = tcp_connect(kHost, port, /*connect_timeout_ms=*/2000);
  } catch (const std::exception&) {
    return "";
  }
  const std::string request = "GET /metrics HTTP/1.0\r\n\r\n";
  (void)::send(fd, request.data(), request.size(), MSG_NOSIGNAL);
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof buf, 0)) > 0) response.append(buf, static_cast<std::size_t>(n));
  ::close(fd);
  return response;
}

// Value of one metric line in a render ("name ... <value>"), or -1.
double metric_value(const std::string& render, const std::string& name) {
  const std::size_t at = render.find(name);
  if (at == std::string::npos) return -1.0;
  const std::size_t eol = render.find('\n', at);
  const std::string line = render.substr(at, eol - at);
  const std::size_t space = line.find_last_of(' ');
  return std::strtod(line.c_str() + space + 1, nullptr);
}

// Polls the scrape endpoint until `name` reaches at least `want` (bounded).
bool wait_for_metric(std::uint16_t port, const std::string& name, double want,
                     int timeout_ms = 10'000) {
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (metric_value(scrape(port), name) >= want) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
  }
  return false;
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
// ChaosPolicy: replayable from its seed, uncorrelated across streams
// --------------------------------------------------------------------------

TEST(ChaosPolicyTest, SameSeedAndStreamReplaysTheSameSchedule) {
  ChaosConfig cfg;
  cfg.seed = 7;
  ChaosPolicy a(cfg, /*stream=*/3);
  ChaosPolicy b(cfg, /*stream=*/3);
  ChaosPolicy other(cfg, /*stream=*/4);
  bool diverged = false;
  for (int i = 0; i < 512; ++i) {
    const auto action = a.next_action();
    ASSERT_EQ(action, b.next_action()) << "replay diverged at frame " << i;
    ASSERT_EQ(a.pick_offset(9, 200), b.pick_offset(9, 200));
    if (action != other.next_action()) diverged = true;
  }
  EXPECT_TRUE(diverged) << "distinct streams must not mirror each other";
}

TEST(ChaosPolicyTest, SeedZeroInjectsNothing) {
  ChaosPolicy off(ChaosConfig{}, /*stream=*/1);
  for (int i = 0; i < 256; ++i) EXPECT_EQ(off.next_action(), ChaosPolicy::Action::kPass);
}

// --------------------------------------------------------------------------
// tcp_connect: bounded by the connect timeout, not the kernel's
// --------------------------------------------------------------------------

TEST(TransportTest, ConnectTimesOutOnABlackholedListener) {
  // A listener with backlog 0 whose accept queue is already full drops
  // further SYNs on the floor — the portable way to a local black hole.
  const int lfd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(lfd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = 0;
  ASSERT_EQ(::inet_pton(AF_INET, kHost, &addr.sin_addr), 1);
  ASSERT_EQ(::bind(lfd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
  ASSERT_EQ(::listen(lfd, 0), 0);
  socklen_t len = sizeof addr;
  ASSERT_EQ(::getsockname(lfd, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  const std::uint16_t port = ntohs(addr.sin_port);

  std::vector<int> fillers;
  for (int i = 0; i < 4; ++i) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    (void)::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
    (void)::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr);
    fillers.push_back(fd);
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  const auto started = std::chrono::steady_clock::now();
  try {
    const int fd = tcp_connect(kHost, port, /*connect_timeout_ms=*/300);
    ::close(fd);
    ADD_FAILURE() << "connect into a saturated backlog should not complete";
  } catch (const InvariantError& e) {
    EXPECT_NE(std::string(e.what()).find("timed out"), std::string::npos) << e.what();
  }
  const auto elapsed = std::chrono::steady_clock::now() - started;
  EXPECT_LT(elapsed, std::chrono::seconds(5)) << "timeout did not bound the connect";

  for (int fd : fillers) ::close(fd);
  ::close(lfd);
}

// --------------------------------------------------------------------------
// EINTR: a signal storm may slow a transfer, never break it
// --------------------------------------------------------------------------

TEST(TransportTest, LargeTransferSurvivesASignalStorm) {
  struct sigaction sa{};
  sa.sa_handler = [](int) {};  // no SA_RESTART: every blocking call gets EINTR
  struct sigaction old{};
  ASSERT_EQ(::sigaction(SIGUSR1, &sa, &old), 0);

  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  Channel tx(sv[0]);
  Channel rx(sv[1]);

  const std::string payload(4u * 1024u * 1024u, 'x');
  std::atomic<bool> storming{true};
  std::thread storm([&] {
    while (storming.load()) {
      (void)::kill(::getpid(), SIGUSR1);
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
  });

  bool sent = false;
  std::thread sender([&] { sent = tx.send_frame(MsgType::kResult, payload); });
  std::optional<Frame> frame;
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (!frame.has_value() && std::chrono::steady_clock::now() < deadline) {
    frame = rx.wait_frame(100);
  }
  sender.join();
  storming.store(false);
  storm.join();
  ASSERT_EQ(::sigaction(SIGUSR1, &old, nullptr), 0);

  EXPECT_TRUE(sent);
  ASSERT_TRUE(frame.has_value()) << "transfer never completed under the storm";
  EXPECT_EQ(frame->type, MsgType::kResult);
  EXPECT_EQ(frame->payload, payload);
}

// --------------------------------------------------------------------------
// Protocol hygiene on the v2 server: wrong version, garbage, wrong opener
// --------------------------------------------------------------------------

TEST(CampaignServerTest, V1ClientSubmitGetsRejectThenClose) {
  CampaignServer server{ServerConfig{}};
  server.start();

  // v3 (the last protocol with HEARTBEAT) is turned away like v1.
  for (const std::uint32_t version : {1u, 3u}) {
    Channel c(tcp_connect(kHost, server.port()));
    SubmitMsg submit = tiny_submit("old");
    submit.version = version;
    ASSERT_TRUE(c.send_frame(MsgType::kSubmit, encode_submit(submit)));
    const auto reply = c.wait_frame(5000);
    ASSERT_TRUE(reply.has_value()) << "a version mismatch must answer, not hang";
    ASSERT_EQ(reply->type, MsgType::kReject);
    EXPECT_NE(decode_reject(reply->payload).reason.find("protocol v" + std::to_string(version)),
              std::string::npos);
    EXPECT_FALSE(c.wait_frame(5000).has_value());
    EXPECT_FALSE(c.open()) << "a v" << version << " peer must be disconnected after the REJECT";
  }
  server.stop();
}

TEST(CampaignServerTest, V1WorkerRegisterGetsRejectThenClose) {
  CampaignServer server{ServerConfig{}};
  server.start();

  for (const std::uint32_t version : {1u, 3u}) {
    Channel w(tcp_connect(kHost, server.port()));
    RegisterMsg reg;
    reg.version = version;
    reg.pid = 123;
    ASSERT_TRUE(w.send_frame(MsgType::kRegister, encode_register(reg)));
    const auto reply = w.wait_frame(5000);
    ASSERT_TRUE(reply.has_value());
    ASSERT_EQ(reply->type, MsgType::kReject);
    EXPECT_NE(decode_reject(reply->payload).reason.find("protocol v" + std::to_string(version)),
              std::string::npos);
    EXPECT_FALSE(w.wait_frame(5000).has_value());
    EXPECT_FALSE(w.open()) << "a v" << version << " peer must be disconnected after the REJECT";
  }
  server.stop();
}

TEST(CampaignServerTest, GarbageRegisterPayloadDropsThePeerNotTheServer) {
  CampaignServer server{ServerConfig{}};
  server.start();

  Channel garbage(tcp_connect(kHost, server.port()));
  ASSERT_TRUE(garbage.send_frame(MsgType::kRegister, "this is not a codec line"));
  EXPECT_FALSE(garbage.wait_frame(5000).has_value());
  EXPECT_FALSE(garbage.open()) << "a malformed REGISTER must tear down the one peer";

  // The server itself must still be serving.
  Channel fine(tcp_connect(kHost, server.port()));
  ASSERT_TRUE(fine.send_frame(MsgType::kSubmit, encode_submit(tiny_submit("after"))));
  const auto reply = fine.wait_frame(5000);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->type, MsgType::kAccept);
  server.stop();
}

TEST(CampaignServerTest, UnexpectedOpeningFrameIsDroppedCleanly) {
  CampaignServer server{ServerConfig{}};
  server.start();

  Channel odd(tcp_connect(kHost, server.port()));
  AssignMsg assign;
  assign.job = 1;
  assign.run = 0;
  ASSERT_TRUE(odd.send_frame(MsgType::kAssign, encode_assign(assign)));
  EXPECT_FALSE(odd.wait_frame(5000).has_value());
  EXPECT_FALSE(odd.open()) << "an ASSIGN from a stranger must not hang the sniffer";
  server.stop();
}

// --------------------------------------------------------------------------
// Self-healing counters are first-class scrape citizens
// --------------------------------------------------------------------------

TEST(CampaignServerTest, SelfHealingCountersAppearInTheSortedScrape) {
  CampaignServer server{ServerConfig{}};
  server.start();
  const std::string body = scrape(server.port());
  server.stop();

  EXPECT_NE(body.find("dist.chaos.bytes_corrupted"), std::string::npos) << body;
  EXPECT_NE(body.find("dist.chaos.frames_dropped"), std::string::npos) << body;
  EXPECT_NE(body.find("dist.jobs_recovered"), std::string::npos) << body;
  EXPECT_NE(body.find("dist.reconnects"), std::string::npos) << body;
  // The registry renders name-sorted, so the counters land in lexicographic
  // order — the scrape stays diffable.
  EXPECT_LT(body.find("dist.chaos.bytes_corrupted"), body.find("dist.chaos.frames_dropped"));
  EXPECT_LT(body.find("dist.chaos.frames_dropped"), body.find("dist.jobs_recovered"));
  EXPECT_LT(body.find("dist.jobs_recovered"), body.find("dist.reconnects"));
}

// --------------------------------------------------------------------------
// job_token: orphan on client death, reattach on re-SUBMIT, expire on grace
// --------------------------------------------------------------------------

TEST(CampaignServerTest, OrphanedJobReattachesByTokenWithTheSameId) {
  ServerConfig sc;
  sc.orphan_grace_ms = 30'000;
  CampaignServer server{sc};
  server.start();

  SubmitMsg submit = tiny_submit("tok");
  submit.job_token = 77;

  std::uint64_t first_id = 0;
  {
    Channel c1(tcp_connect(kHost, server.port()));
    ASSERT_TRUE(c1.send_frame(MsgType::kSubmit, encode_submit(submit)));
    const auto accept = c1.wait_frame(5000);
    ASSERT_TRUE(accept.has_value());
    ASSERT_EQ(accept->type, MsgType::kAccept);
    first_id = decode_accept(accept->payload).job;
  }  // client dies abruptly; the job must be orphaned, not torn down

  ASSERT_TRUE(wait_for_metric(server.port(), "server.jobs_orphaned", 1.0));

  Channel c2(tcp_connect(kHost, server.port()));
  ASSERT_TRUE(c2.send_frame(MsgType::kSubmit, encode_submit(submit)));
  const auto reattach = c2.wait_frame(5000);
  ASSERT_TRUE(reattach.has_value());
  ASSERT_EQ(reattach->type, MsgType::kAccept);
  EXPECT_EQ(decode_accept(reattach->payload).job, first_id) << "reattach must resume, not duplicate";

  // A token never matches a job a live client still holds: this SUBMIT is a
  // fresh admission with a fresh id.
  Channel c3(tcp_connect(kHost, server.port()));
  ASSERT_TRUE(c3.send_frame(MsgType::kSubmit, encode_submit(submit)));
  const auto fresh = c3.wait_frame(5000);
  ASSERT_TRUE(fresh.has_value());
  ASSERT_EQ(fresh->type, MsgType::kAccept);
  EXPECT_NE(decode_accept(fresh->payload).job, first_id);
  server.stop();
}

TEST(CampaignServerTest, OrphanGraceExpiryTearsTheJobDown) {
  ServerConfig sc;
  sc.orphan_grace_ms = 100;
  CampaignServer server{sc};
  server.start();

  SubmitMsg submit = tiny_submit("gone");
  submit.job_token = 88;
  std::uint64_t first_id = 0;
  {
    Channel c(tcp_connect(kHost, server.port()));
    ASSERT_TRUE(c.send_frame(MsgType::kSubmit, encode_submit(submit)));
    const auto accept = c.wait_frame(5000);
    ASSERT_TRUE(accept.has_value());
    ASSERT_EQ(accept->type, MsgType::kAccept);
    first_id = decode_accept(accept->payload).job;
  }
  ASSERT_TRUE(wait_for_metric(server.port(), "server.jobs_expired", 1.0));

  // The slot is free again and the token resolves to a brand-new job.
  Channel late(tcp_connect(kHost, server.port()));
  ASSERT_TRUE(late.send_frame(MsgType::kSubmit, encode_submit(submit)));
  const auto reply = late.wait_frame(5000);
  ASSERT_TRUE(reply.has_value());
  ASSERT_EQ(reply->type, MsgType::kAccept);
  EXPECT_NE(decode_accept(reply->payload).job, first_id);
  server.stop();
}

// --------------------------------------------------------------------------
// Graceful drain
// --------------------------------------------------------------------------

TEST(CampaignServerTest, DrainRejectsFreshSubmitsAndExitsOnceEmpty) {
  CampaignServer server{ServerConfig{}};
  server.start();

  Channel admitted(tcp_connect(kHost, server.port()));
  ASSERT_TRUE(admitted.send_frame(MsgType::kSubmit, encode_submit(tiny_submit("a"))));
  const auto accept = admitted.wait_frame(5000);
  ASSERT_TRUE(accept.has_value());
  ASSERT_EQ(accept->type, MsgType::kAccept);
  const std::uint64_t job = decode_accept(accept->payload).job;

  server.request_drain();

  Channel late(tcp_connect(kHost, server.port()));
  ASSERT_TRUE(late.send_frame(MsgType::kSubmit, encode_submit(tiny_submit("b"))));
  const auto reject = late.wait_frame(5000);
  ASSERT_TRUE(reject.has_value()) << "a draining server must answer, not hang";
  ASSERT_EQ(reject->type, MsgType::kReject);
  EXPECT_NE(decode_reject(reject->payload).reason.find("drain"), std::string::npos);

  // Finishing the admitted job lets the loop exit on its own.
  ASSERT_TRUE(admitted.send_frame(MsgType::kRelease, encode_job(JobMsg{job})));
  EXPECT_FALSE(admitted.wait_frame(10'000).has_value());
  EXPECT_FALSE(admitted.open()) << "drained server should close the last connections";
  server.stop();
}

// --------------------------------------------------------------------------
// Headline guarantee 1: chaos on every link, fold bitwise identical to solo
// --------------------------------------------------------------------------

TEST(SelfHealingTest, ChaoticLinksEverywhereFoldBitwiseIdenticalToSolo) {
  const ScenarioFactory factory = [] { return vps::apps::make_scenario("caps:crash"); };
  CampaignConfig cfg;
  cfg.runs = 24;
  cfg.seed = 11;
  cfg.location_buckets = 8;
  const CampaignResult solo = ParallelCampaign(factory, cfg).run();

  ServerConfig sc;
  sc.chaos.seed = 1234;
  // Tight-ish supervision so injected drops are healed in seconds. A healthy
  // worker wrongly swept as wedged only costs a requeue — replays are pure,
  // so requeues can never move a fold bit (and the raised requeue budget
  // below keeps even a sweep-happy TSan run from exhausting a run's budget).
  sc.heartbeat_timeout_ms = 1500;
  sc.hello_timeout_ms = 4000;
  CampaignServer server{sc};

  std::vector<pid_t> pool;
  for (int i = 0; i < 4; ++i) pool.push_back(fork_reconnecting_worker(server.port(), 5678));
  server.start();

  DistConfig dc;
  dc.campaign = cfg;
  dc.server_host = kHost;
  dc.server_port = server.port();
  dc.tenant = "chaos";
  dc.scenario_spec = "caps:crash";
  dc.chaos.seed = 99;
  dc.heartbeat_timeout_ms = 1000;  // client silence budget ≈ 13 s per stall
  dc.hello_timeout_ms = 3000;
  dc.max_requeues = 10;
  dc.reconnect_backoff_ms = 50;
  dc.reconnect_backoff_max_ms = 500;
  DistCampaign campaign(factory, dc);
  const CampaignResult chaotic = campaign.run();

  server.stop();
  for (pid_t pid : pool) reap(pid);

  expect_identical(solo, chaotic);
}

// --------------------------------------------------------------------------
// Headline guarantee 2: server SIGKILL + restart mid-campaign, client
// reattaches by token, recovered fold bitwise identical to solo
// --------------------------------------------------------------------------

TEST(SelfHealingTest, ServerCrashRestartRecoversJobAndClientReattaches) {
  char state_template[] = "/tmp/vps_selfheal_XXXXXX";
  char* state_dir = ::mkdtemp(state_template);
  ASSERT_NE(state_dir, nullptr);

  const ScenarioFactory factory = [] { return vps::apps::make_scenario("caps:crash"); };
  CampaignConfig cfg;
  // The crash lands at the tenant's first batch barrier (CrashGate below),
  // so the campaign is in flight at the crash however fast a replay is.
  cfg.runs = 1600;
  cfg.seed = 5;
  cfg.batch_size = 16;
  const CampaignResult solo = ParallelCampaign(factory, cfg).run();

  ServerConfig sc;
  sc.state_dir = state_dir;
  sc.orphan_grace_ms = 30'000;
  std::optional<CampaignServer> server;
  server.emplace(sc);
  const std::uint16_t port = server->port();

  // Reconnecting pool, forked before any thread exists.
  std::vector<pid_t> pool;
  for (int i = 0; i < 4; ++i) pool.push_back(fork_reconnecting_worker(port));
  server->start();

  DistConfig dc;
  dc.campaign = cfg;
  dc.server_host = kHost;
  dc.server_port = port;
  dc.tenant = "crashy";
  dc.scenario_spec = "caps:crash";
  dc.max_reconnects = 100;  // must outlast the restart gap
  dc.reconnect_backoff_ms = 50;
  dc.reconnect_backoff_max_ms = 500;
  DistCampaign campaign(factory, dc);

  // At its first barrier the tenant signals the test thread and waits
  // until the server has crashed; every later barrier passes.
  struct CrashGate final : vps::obs::CampaignMonitor {
    std::mutex mutex;
    std::condition_variable cv;
    bool at_barrier = false;
    bool released = false;
    void on_progress(const vps::obs::CampaignProgress&) override {
      std::unique_lock<std::mutex> lock(mutex);
      if (at_barrier) return;
      at_barrier = true;
      cv.notify_all();
      cv.wait(lock, [this] { return released; });
    }
    void on_complete(const vps::obs::CampaignProgress&) override {}
    void release() {
      const std::lock_guard<std::mutex> lock(mutex);
      released = true;
      cv.notify_all();
    }
  } gate;
  campaign.set_monitor(&gate);

  CampaignResult recovered;
  std::thread tenant([&] {
    try {
      recovered = campaign.run();
    } catch (const std::exception& e) {
      ADD_FAILURE() << "tenant threw: " << e.what();
    }
  });
  // Whatever goes wrong below, `tenant` must be released and joined before
  // it unwinds — destroying a joinable thread is std::terminate, not a test
  // failure.
  struct Joiner {
    std::thread& t;
    CrashGate& gate;
    ~Joiner() {
      gate.release();
      if (t.joinable()) t.join();
    }
  } join_guard{tenant, gate};

  // Kill the server only once the campaign is demonstrably in flight (its
  // job active, its first batch folded), then play the restart. Any
  // exception here is a test failure, not an abort.
  try {
    EXPECT_TRUE(wait_for_metric(port, "server.jobs_active", 1.0));
    {
      std::unique_lock<std::mutex> lock(gate.mutex);
      EXPECT_TRUE(gate.cv.wait_for(lock, std::chrono::seconds(60), [&] { return gate.at_barrier; }))
          << "the tenant never reached its first batch barrier";
    }
    server->crash();
    server.reset();  // releases the listener; incremental state stays on disk
    gate.release();

    ServerConfig sc2 = sc;
    sc2.port = port;  // same address, same state dir: the restarted server
    server.emplace(sc2);
    server->start();
  } catch (const std::exception& e) {
    ADD_FAILURE() << "restart choreography threw: " << e.what();
  }

  gate.release();
  tenant.join();
  ASSERT_TRUE(server.has_value());
  server->stop();
  for (pid_t pid : pool) reap(pid);

  expect_identical(solo, recovered);
  EXPECT_GE(campaign.fleet_stats().reconnects, 1u) << "client never had to reattach";
  EXPECT_GE(metric_value(server->metrics().render(), "dist.jobs_recovered"), 1.0)
      << server->metrics().render();
}

// --------------------------------------------------------------------------
// Fresh-process hand-off: preempt + checkpoint, resume completes identically
// --------------------------------------------------------------------------

TEST(SelfHealingTest, PreemptedServerCampaignResumesFromCheckpointIdentically) {
  char dir_template[] = "/tmp/vps_ckpt_XXXXXX";
  char* dir = ::mkdtemp(dir_template);
  ASSERT_NE(dir, nullptr);
  const std::string ckpt = std::string(dir) + "/campaign.ckpt";

  const ScenarioFactory factory = [] { return vps::apps::make_scenario("caps:crash"); };
  CampaignConfig cfg;
  cfg.runs = 32;
  cfg.seed = 21;
  cfg.batch_size = 8;
  const CampaignResult solo = ParallelCampaign(factory, cfg).run();

  CampaignServer server{ServerConfig{}};
  std::vector<pid_t> pool;
  for (int i = 0; i < 2; ++i) pool.push_back(fork_reconnecting_worker(server.port()));
  server.start();

  DistConfig dc;
  dc.campaign = cfg;
  dc.campaign.checkpoint_path = ckpt;
  dc.campaign.checkpoint_every = 8;
  dc.campaign.preempt_after = 8;  // first process stops after one batch
  dc.server_host = kHost;
  dc.server_port = server.port();
  dc.tenant = "resume";
  dc.scenario_spec = "caps:crash";
  {
    DistCampaign first(factory, dc);
    const CampaignResult partial = first.run();
    ASSERT_TRUE(partial.interrupted);
  }

  // "Fresh process": a new DistCampaign picks the checkpoint up and carries
  // the same campaign through the same server.
  dc.campaign.preempt_after = 0;
  const auto checkpoint = vps::fault::load_checkpoint(ckpt);
  DistCampaign second(factory, dc);
  const CampaignResult resumed = second.resume(checkpoint);

  server.stop();
  for (pid_t pid : pool) reap(pid);
  expect_identical(solo, resumed);
}

TEST(SelfHealingTest, ServerModeCheckpointSavesEqualToJsonlOfTheSamePrefix) {
  const std::string path = vps_test::temp_path("vps_server_saves.jsonl");
  std::remove(path.c_str());
  const ScenarioFactory factory = [] { return vps::apps::make_scenario("bms:runaway:prov"); };

  CampaignServer server{ServerConfig{}};
  std::vector<pid_t> pool;
  for (int i = 0; i < 2; ++i) pool.push_back(fork_reconnecting_worker(server.port()));
  server.start();

  DistConfig dc;
  dc.campaign.runs = 64;
  dc.campaign.seed = 2026;
  dc.campaign.location_buckets = 8;
  dc.campaign.batch_size = 8;
  dc.campaign.checkpoint_every = 16;
  dc.campaign.preempt_after = 40;  // a barrier off the save cadence
  dc.campaign.checkpoint_path = path;
  dc.server_host = kHost;
  dc.server_port = server.port();
  dc.tenant = "saves";
  dc.scenario_spec = "bms:runaway:prov";
  DistCampaign campaign(factory, dc);
  vps_test::CheckpointSaveRecorder recorder(path);
  campaign.set_monitor(&recorder);
  const CampaignResult partial = campaign.run();
  recorder.finish();
  server.stop();
  for (pid_t pid : pool) reap(pid);
  ASSERT_TRUE(partial.interrupted);
  ASSERT_EQ(partial.runs_executed, 40u);
  EXPECT_FALSE(partial.provenance_jsonl().empty()) << "the saved records must carry provenance";

  vps::fault::CampaignCheckpoint head;
  head.driver = "parallel_campaign";
  head.scenario = factory()->name();
  head.config = dc.campaign;
  head.golden = campaign.golden();
  vps_test::expect_saves_are_prefixes(recorder.saves(), head, partial.records, {16, 32, 40});
  std::remove(path.c_str());
}

// --------------------------------------------------------------------------
// A failed state persist warns and leaves no temp file behind
// --------------------------------------------------------------------------

TEST(CampaignServerTest, FailedStatePersistKeepsServingAndLeavesNoTempFile) {
  char state_template[] = "/tmp/vps_state_XXXXXX";
  char* state_dir = ::mkdtemp(state_template);
  ASSERT_NE(state_dir, nullptr);
  ServerConfig sc;
  sc.state_dir = state_dir;
  CampaignServer server{sc};
  // The job table's path becomes an existing non-empty directory: every
  // persist writes its temp file, then fails to rename it over the
  // directory.
  const std::string table = std::string(state_dir) + "/jobs.jsonl";
  std::filesystem::create_directory(table);
  std::ofstream(table + "/previous") << "keep me";
  server.start();
  Channel c(tcp_connect(kHost, server.port()));
  ASSERT_TRUE(c.send_frame(MsgType::kSubmit, encode_submit(tiny_submit("unpersisted"))));
  const auto accept = c.wait_frame(5000);
  ASSERT_TRUE(accept.has_value());
  EXPECT_EQ(accept->type, MsgType::kAccept) << "a failed persist must not cost the admission";
  ASSERT_TRUE(c.send_frame(MsgType::kRelease, encode_job(JobMsg{decode_accept(accept->payload).job})));
  server.stop();

  EXPECT_TRUE(std::filesystem::is_directory(table));
  EXPECT_EQ(vps_test::read_file(table + "/previous"), "keep me");
  EXPECT_FALSE(std::filesystem::exists(table + ".tmp")) << "a failed persist must not leave its temp file";
  std::filesystem::remove_all(state_dir);
}

TEST(CampaignServerTest, AnUnreadableJobTableFailsConstructionAndIsLeftAlone) {
  char state_template[] = "/tmp/vps_state_XXXXXX";
  char* state_dir = ::mkdtemp(state_template);
  ASSERT_NE(state_dir, nullptr);
  // fopen() succeeds on a directory; fread() then fails with EISDIR. Read
  // as an empty table, the next persist would drop every job it held.
  const std::string table = std::string(state_dir) + "/jobs.jsonl";
  std::filesystem::create_directory(table);
  std::ofstream(table + "/previous") << "keep me";

  ServerConfig sc;
  sc.state_dir = state_dir;
  try {
    CampaignServer server{sc};
    ADD_FAILURE() << "a job table that cannot be read must fail construction";
  } catch (const InvariantError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("cannot read " + table), std::string::npos) << what;
  }
  EXPECT_TRUE(std::filesystem::is_directory(table));
  EXPECT_EQ(vps_test::read_file(table + "/previous"), "keep me");
  EXPECT_EQ(std::distance(std::filesystem::directory_iterator(table),
                          std::filesystem::directory_iterator{}),
            1);
  EXPECT_FALSE(std::filesystem::exists(table + ".tmp"));
  std::filesystem::remove_all(state_dir);
}

}  // namespace
