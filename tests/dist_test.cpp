// Distributed campaign execution: framed protocol codec, transport frame
// recovery, worker fleet supervision, and the headline guarantee — the
// distributed result is bitwise identical to the in-process ParallelCampaign
// for any fleet size, including with a worker SIGKILLed mid-campaign.

#include <gtest/gtest.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include "campaign_compare.hpp"
#include "checkpoint_saves.hpp"
#include "pool_worker.hpp"
#include "vps/apps/caps.hpp"
#include "vps/apps/registry.hpp"
#include "vps/dist/coordinator.hpp"
#include "vps/dist/protocol.hpp"
#include "vps/dist/server.hpp"
#include "vps/dist/transport.hpp"
#include "vps/fault/campaign.hpp"
#include "vps/fault/checkpoint.hpp"
#include "vps/obs/metrics.hpp"
#include "vps/support/ensure.hpp"

namespace {

using namespace vps::dist;
using vps::apps::CapsConfig;
using vps::apps::CapsScenario;
using vps::fault::Campaign;
using vps::fault::CampaignCheckpoint;
using vps::fault::CampaignConfig;
using vps::fault::CampaignResult;
using vps::fault::FaultDescriptor;
using vps::fault::FaultType;
using vps::fault::Observation;
using vps::fault::Outcome;
using vps::fault::ParallelCampaign;
using vps::fault::Persistence;
using vps::fault::Scenario;
using vps::fault::ScenarioFactory;
using vps::fault::Strategy;
using vps::obs::FaultProvenance;
using vps::obs::HopKind;
using vps::sim::Time;
using vps::support::InvariantError;
using vps_test::expect_identical;

// --------------------------------------------------------------------------
// Frame layer
// --------------------------------------------------------------------------

TEST(FrameCodec, RoundTripsFedByteByByte) {
  const std::string payload = "{\"kind\":\"job\",\"job\":7}";
  const std::string wire = encode_frame(MsgType::kRelease, payload);
  EXPECT_EQ(wire.size(), kFrameHeaderSize + payload.size());

  FrameReader reader;
  for (std::size_t i = 0; i < wire.size(); ++i) {
    if (i + 1 < wire.size()) {
      reader.feed(wire.data() + i, 1);
      EXPECT_FALSE(reader.next().has_value()) << "frame completed early at byte " << i;
    } else {
      reader.feed(wire.data() + i, 1);
    }
  }
  auto frame = reader.next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->type, MsgType::kRelease);
  EXPECT_EQ(frame->payload, payload);
  EXPECT_FALSE(reader.next().has_value());
}

TEST(FrameCodec, DeliversMultipleFramesFromOneFeed) {
  std::string wire = encode_frame(MsgType::kAssign, "aaa");
  wire += encode_frame(MsgType::kResult, "bb");
  wire += encode_frame(MsgType::kShutdown, "");

  FrameReader reader;
  reader.feed(wire.data(), wire.size());
  auto f1 = reader.next();
  auto f2 = reader.next();
  auto f3 = reader.next();
  ASSERT_TRUE(f1 && f2 && f3);
  EXPECT_EQ(f1->type, MsgType::kAssign);
  EXPECT_EQ(f1->payload, "aaa");
  EXPECT_EQ(f2->type, MsgType::kResult);
  EXPECT_EQ(f2->payload, "bb");
  EXPECT_EQ(f3->type, MsgType::kShutdown);
  EXPECT_TRUE(f3->payload.empty());
  EXPECT_FALSE(reader.next().has_value());
}

TEST(FrameCodec, TruncatedFrameYieldsNothing) {
  const std::string wire = encode_frame(MsgType::kHello, "payload");
  FrameReader reader;
  reader.feed(wire.data(), wire.size() - 3);
  EXPECT_FALSE(reader.next().has_value());
  EXPECT_EQ(reader.buffered(), wire.size() - 3);
}

TEST(FrameCodec, GarbageMagicThrows) {
  std::string wire = encode_frame(MsgType::kHello, "x");
  wire[0] = 'Z';
  FrameReader reader;
  reader.feed(wire.data(), wire.size());
  EXPECT_THROW((void)reader.next(), InvariantError);
}

TEST(FrameCodec, UnknownTypeThrows) {
  std::string wire = encode_frame(MsgType::kHello, "x");
  wire[4] = 99;
  FrameReader reader;
  reader.feed(wire.data(), wire.size());
  EXPECT_THROW((void)reader.next(), InvariantError);
}

TEST(FrameCodec, UnknownTypeNamesTheTypeNumber) {
  // 4 was v3's HEARTBEAT: v4 defines no such frame, so it is as unknown as 99.
  for (const int type : {0, 4, 12, 99}) {
    std::string wire = encode_frame(MsgType::kHello, "x");
    wire[4] = static_cast<char>(type);
    FrameReader reader;
    reader.feed(wire.data(), wire.size());
    try {
      (void)reader.next();
      ADD_FAILURE() << "unknown frame type " << type << " accepted";
    } catch (const InvariantError& e) {
      EXPECT_NE(std::string(e.what()).find("dist: unknown frame type " + std::to_string(type)),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(FrameCodec, CorruptedPayloadFailsCrc) {
  std::string wire = encode_frame(MsgType::kResult, "{\"kind\":\"result\"}");
  wire[kFrameHeaderSize + 3] ^= 0x01;  // flip one payload bit
  FrameReader reader;
  reader.feed(wire.data(), wire.size());
  EXPECT_THROW((void)reader.next(), InvariantError);
}

TEST(FrameCodec, InsaneLengthFieldThrows) {
  std::string wire = encode_frame(MsgType::kHello, "x");
  // Rewrite the length field (offset 5, little-endian) to kMaxFramePayload+1.
  const std::uint32_t bad = kMaxFramePayload + 1;
  for (int i = 0; i < 4; ++i) wire[5 + i] = static_cast<char>((bad >> (8 * i)) & 0xFF);
  FrameReader reader;
  reader.feed(wire.data(), wire.size());
  EXPECT_THROW((void)reader.next(), InvariantError);
}

TEST(FrameCodec, PartialReportsIncompleteFrame) {
  const std::string wire = encode_frame(MsgType::kResult, "{\"kind\":\"result\"}");
  FrameReader reader;
  EXPECT_FALSE(reader.partial());  // empty buffer: nothing pending

  reader.feed(wire.data(), 5);  // header fragment
  EXPECT_TRUE(reader.partial());

  reader.feed(wire.data() + 5, kFrameHeaderSize - 5 + 3);  // header + payload head
  EXPECT_TRUE(reader.partial());

  reader.feed(wire.data() + kFrameHeaderSize + 3, wire.size() - kFrameHeaderSize - 3);
  EXPECT_FALSE(reader.partial());  // complete frame buffered, just not consumed
  EXPECT_TRUE(reader.next().has_value());
  EXPECT_FALSE(reader.partial());
}

// --------------------------------------------------------------------------
// Transport
// --------------------------------------------------------------------------

TEST(TransportTest, SendFrameResumesAcrossFullSendBuffer) {
  // Regression: EAGAIN on a nonblocking sender used to be treated as fatal.
  // With a tiny SO_SNDBUF a multi-megabyte frame is guaranteed to hit it
  // mid-write; send_frame must poll for writability and resume, delivering
  // the frame intact (the CRC check on the receiving side proves it).
  const SocketPair pair = make_socket_pair();
  const int tiny = 4096;
  ASSERT_EQ(::setsockopt(pair.coordinator_fd, SOL_SOCKET, SO_SNDBUF, &tiny, sizeof tiny), 0);
  const int flags = ::fcntl(pair.coordinator_fd, F_GETFL, 0);
  ASSERT_GE(flags, 0);
  ASSERT_EQ(::fcntl(pair.coordinator_fd, F_SETFL, flags | O_NONBLOCK), 0);

  std::string payload(2 * 1024 * 1024, '\0');
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<char>((i * 131u) & 0xFF);
  }

  Channel sender(pair.coordinator_fd);
  Channel receiver(pair.worker_fd);
  std::optional<Frame> got;
  std::thread reader([&receiver, &got] { got = receiver.wait_frame(10'000); });
  EXPECT_TRUE(sender.send_frame(MsgType::kResult, payload));
  reader.join();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->type, MsgType::kResult);
  EXPECT_EQ(got->payload, payload);
}

TEST(TransportTest, PartialSinceTracksIncompleteFrames) {
  const SocketPair pair = make_socket_pair();
  Channel sender(pair.coordinator_fd);
  Channel receiver(pair.worker_fd);
  EXPECT_FALSE(receiver.partial_since().has_value());

  const std::string wire = encode_frame(MsgType::kRelease, "{\"kind\":\"job\",\"job\":1}");
  ASSERT_GT(::send(sender.fd(), wire.data(), wire.size() / 2, MSG_NOSIGNAL), 0);
  EXPECT_FALSE(receiver.wait_frame(100).has_value());  // mid-frame: no frame yet
  ASSERT_TRUE(receiver.partial_since().has_value());
  const auto since = *receiver.partial_since();

  ASSERT_GT(::send(sender.fd(), wire.data() + wire.size() / 2, wire.size() - wire.size() / 2,
                   MSG_NOSIGNAL),
            0);
  auto frame = receiver.wait_frame(1000);
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->type, MsgType::kRelease);
  EXPECT_FALSE(receiver.partial_since().has_value()) << "frame boundary must reset the clock";
  EXPECT_GE(std::chrono::steady_clock::now(), since);
}

TEST(DistCampaignTest, PollTimeoutTracksEarliestFleetDeadline) {
  using std::chrono::milliseconds;
  const auto now = std::chrono::steady_clock::now();
  EXPECT_EQ(poll_timeout_ms(now, {}, 1000), 1000);
  EXPECT_EQ(poll_timeout_ms(now, {now + milliseconds(250), now + milliseconds(700)}, 1000), 250);
  EXPECT_EQ(poll_timeout_ms(now, {now + milliseconds(700), now + milliseconds(250)}, 1000), 250);
  EXPECT_EQ(poll_timeout_ms(now, {now - milliseconds(10)}, 1000), 0);  // already due
  EXPECT_EQ(poll_timeout_ms(now, {now + milliseconds(5000)}, 1000), 1000);  // fallback caps
}

// --------------------------------------------------------------------------
// Typed message payloads
// --------------------------------------------------------------------------

TEST(MessageCodec, SetupRoundTrips) {
  SetupMsg setup;
  setup.scenario_spec = "caps:crash:unprotected:ecc";
  setup.seed = 0xDEADBEEFCAFEull;
  setup.crash_retries = 3;
  setup.golden.output_signature = 0x12345678;
  setup.golden.completed = true;
  setup.golden.detected = 4;
  setup.golden.corrected = 2;
  setup.golden.resets = 1;
  setup.golden.deadline_misses = 9;

  const SetupMsg back = decode_setup(encode_setup(setup));
  EXPECT_EQ(back.version, kProtocolVersion);
  EXPECT_EQ(back.scenario_spec, setup.scenario_spec);
  EXPECT_EQ(back.seed, setup.seed);
  EXPECT_EQ(back.crash_retries, setup.crash_retries);
  EXPECT_EQ(back.golden.output_signature, setup.golden.output_signature);
  EXPECT_EQ(back.golden.completed, setup.golden.completed);
  EXPECT_EQ(back.golden.detected, setup.golden.detected);
  EXPECT_EQ(back.golden.corrected, setup.golden.corrected);
  EXPECT_EQ(back.golden.resets, setup.golden.resets);
  EXPECT_EQ(back.golden.deadline_misses, setup.golden.deadline_misses);
}

TEST(MessageCodec, HelloRoundTrips) {
  HelloMsg hello;
  hello.job = 4242;
  hello.scenario = "caps_crash_protected";
  const HelloMsg back = decode_hello(encode_hello(hello));
  EXPECT_EQ(back.job, 4242u);
  EXPECT_EQ(back.scenario, "caps_crash_protected");
}

TEST(MessageCodec, AssignRoundTripsEveryDescriptorField) {
  AssignMsg assign;
  assign.run = 133;
  assign.fault.id = 77;
  assign.fault.type = FaultType::kSensorOffset;
  assign.fault.persistence = Persistence::kIntermittent;
  assign.fault.inject_at = Time::us(1234);
  assign.fault.duration = Time::us(56);
  assign.fault.location = "sensor \"main\"\n";  // escapes must survive
  assign.fault.address = 0xFFFFFFFFFFFFFFFFull;
  assign.fault.bit = 31;
  assign.fault.magnitude = -0.7512093478;  // must round-trip bitwise (hexfloat)

  const AssignMsg back = decode_assign(encode_assign(assign));
  EXPECT_EQ(back.run, 133u);
  EXPECT_EQ(back.fault.id, assign.fault.id);
  EXPECT_EQ(back.fault.type, assign.fault.type);
  EXPECT_EQ(back.fault.persistence, assign.fault.persistence);
  EXPECT_EQ(back.fault.inject_at, assign.fault.inject_at);
  EXPECT_EQ(back.fault.duration, assign.fault.duration);
  EXPECT_EQ(back.fault.location, assign.fault.location);
  EXPECT_EQ(back.fault.address, assign.fault.address);
  EXPECT_EQ(back.fault.bit, assign.fault.bit);
  EXPECT_EQ(back.fault.magnitude, assign.fault.magnitude);  // exact, not near
}

TEST(MessageCodec, ResultRoundTripsCrashDiagnosticsAndProvenance) {
  ResultMsg msg;
  msg.run = 9;
  msg.replay.outcome = Outcome::kSimCrash;
  msg.replay.attempts = 3;
  msg.replay.crash_what = "replay blew up: \"bad\ttransition\"";

  FaultProvenance fp;
  fp.fault_id = 10;
  fp.label = "mem_bit_flip#9";
  fp.nodes.push_back({"mem:ram", HopKind::kInjection, Time::us(10), -1, 0});
  fp.nodes.push_back({"bus:bus0", HopKind::kPropagation, Time::us(11), 0, 1});
  fp.nodes.push_back({"hw.ecc:ram", HopKind::kDetection, Time::us(12), 1, 2});
  msg.replay.provenance.push_back(fp);

  const ResultMsg back = decode_result(encode_result(msg));
  EXPECT_EQ(back.run, 9u);
  EXPECT_EQ(back.replay.outcome, Outcome::kSimCrash);
  EXPECT_EQ(back.replay.attempts, 3u);
  EXPECT_EQ(back.replay.crash_what, msg.replay.crash_what);
  ASSERT_EQ(back.replay.provenance.size(), 1u);
  const FaultProvenance& got = back.replay.provenance[0];
  EXPECT_EQ(got.fault_id, 10u);
  EXPECT_EQ(got.label, "mem_bit_flip#9");
  ASSERT_EQ(got.nodes.size(), 3u);
  EXPECT_EQ(got.nodes[2].site, "hw.ecc:ram");
  EXPECT_EQ(got.nodes[2].kind, HopKind::kDetection);
  EXPECT_EQ(got.nodes[2].at, Time::us(12));
  EXPECT_EQ(got.nodes[2].parent, 1);
  EXPECT_EQ(got.nodes[2].depth, 2u);
}

TEST(MessageCodec, MismatchedKindIsRejected) {
  const std::string hello = encode_hello(HelloMsg{});
  EXPECT_THROW((void)decode_assign(hello), InvariantError);
  EXPECT_THROW((void)decode_result(hello), InvariantError);
  EXPECT_THROW((void)decode_setup(hello), InvariantError);
}

// --------------------------------------------------------------------------
// Distributed campaign vs in-process baseline
// --------------------------------------------------------------------------

/// Workers never outlive the coordinator: after run() returns or throws,
/// this process has no child left, not even an unreaped one.
void expect_no_children() {
  errno = 0;
  EXPECT_EQ(::waitpid(-1, nullptr, WNOHANG), -1) << "a worker outlived its campaign";
  EXPECT_EQ(errno, ECHILD);
}

ScenarioFactory caps_factory(bool crash, bool provenance = false) {
  return [crash, provenance] {
    return std::make_unique<CapsScenario>(
        CapsConfig{.crash = crash, .duration = Time::ms(10), .provenance = provenance});
  };
}

/// A 10 ms CAPS scenario whose pool worker SIGKILLs itself at the start
/// of its `nth` faulty replay, once across the fleet: the first worker to
/// get there creates `marker` (O_EXCL) and dies holding that run; any
/// other finds the file and goes on. In the test's own process (a
/// baseline campaign, the coordinator's golden run) it is inert. So the
/// death lands while the worker holds a run, however fast a replay is.
class DyingWorkerScenario final : public Scenario {
 public:
  DyingWorkerScenario(std::string marker, std::size_t nth, pid_t test_pid)
      : inner_(CapsConfig{.crash = false, .duration = Time::ms(10)}),
        marker_(std::move(marker)),
        nth_(nth),
        test_pid_(test_pid) {}

  [[nodiscard]] std::string name() const override { return inner_.name(); }
  [[nodiscard]] Time duration() const override { return inner_.duration(); }
  [[nodiscard]] std::vector<FaultType> fault_types() const override {
    return inner_.fault_types();
  }
  [[nodiscard]] Observation run(const FaultDescriptor* fault, std::uint64_t seed) override {
    if (fault != nullptr && ::getpid() != test_pid_ && ++replays_ == nth_) {
      const int fd = ::open(marker_.c_str(), O_CREAT | O_EXCL | O_WRONLY, 0600);
      if (fd >= 0) ::raise(SIGKILL);
    }
    inner_.set_snapshot_replay(snapshot_replay());
    return inner_.run(fault, seed);
  }

 private:
  CapsScenario inner_;
  std::string marker_;
  std::size_t nth_;
  pid_t test_pid_;
  std::size_t replays_ = 0;
};

/// Builds DyingWorkerScenarios around a fresh marker at `marker`.
ScenarioFactory dying_worker_factory(const std::string& marker, std::size_t nth) {
  (void)::unlink(marker.c_str());
  return [marker, nth, test_pid = ::getpid()] {
    return std::make_unique<DyingWorkerScenario>(marker, nth, test_pid);
  };
}

CampaignConfig small_config(Strategy strategy) {
  CampaignConfig cfg;
  cfg.runs = 24;
  cfg.seed = 42;
  cfg.strategy = strategy;
  cfg.location_buckets = 8;
  return cfg;
}

TEST(DistCampaignTest, BitwiseIdenticalToParallelCampaignAtAnyFleetSize) {
  for (const auto strategy : {Strategy::kMonteCarlo, Strategy::kGuided}) {
    SCOPED_TRACE(to_string(strategy));
    const CampaignConfig cfg = small_config(strategy);
    const CampaignResult baseline = ParallelCampaign(caps_factory(false), cfg).run();

    for (const std::size_t fleet : {1u, 2u, 4u}) {
      SCOPED_TRACE("fleet=" + std::to_string(fleet));
      DistConfig dc;
      dc.campaign = cfg;
      dc.workers = fleet;
      DistCampaign campaign(caps_factory(false), dc);
      const CampaignResult dist = campaign.run();
      expect_identical(baseline, dist);
      EXPECT_EQ(campaign.fleet_stats().workers_spawned, fleet);
      EXPECT_EQ(campaign.fleet_stats().worker_deaths, 0u);
    }
  }
}

TEST(DistCampaignTest, ProvenanceRecordsTravelTheWireIntact) {
  CampaignConfig cfg = small_config(Strategy::kMonteCarlo);
  cfg.runs = 12;
  const CampaignResult baseline =
      ParallelCampaign(caps_factory(true, /*provenance=*/true), cfg).run();

  DistConfig dc;
  dc.campaign = cfg;
  dc.workers = 2;
  const CampaignResult dist = DistCampaign(caps_factory(true, /*provenance=*/true), dc).run();
  expect_identical(baseline, dist);
  // The baseline provenance is non-trivial, so the comparison above proved
  // DAGs actually crossed the process boundary.
  EXPECT_NE(baseline.provenance_jsonl(), "");
}

TEST(DistCampaignTest, WorkerSigkillMidCampaignDoesNotChangeTheResult) {
  const CampaignConfig cfg = small_config(Strategy::kGuided);
  const CampaignResult baseline = ParallelCampaign(caps_factory(false), cfg).run();

  const std::string marker = vps_test::temp_path("dist_test.worker_death");
  for (const std::size_t fleet : {2u, 4u}) {
    SCOPED_TRACE("fleet=" + std::to_string(fleet));
    DistConfig dc;
    dc.campaign = cfg;
    dc.workers = fleet;
    vps::obs::MetricRegistry metrics;
    // The first worker to start its 2nd replay dies holding it.
    DistCampaign campaign(dying_worker_factory(marker, 2), dc);
    campaign.set_metrics(&metrics);
    const CampaignResult dist = campaign.run();
    (void)::unlink(marker.c_str());
    expect_identical(baseline, dist);
    EXPECT_EQ(campaign.fleet_stats().worker_deaths, 1u);
    EXPECT_GE(campaign.fleet_stats().requeued_runs, 1u);
    EXPECT_EQ(metrics.counter("dist.worker_deaths").value(), 1u);
    EXPECT_EQ(metrics.counter("dist.workers_spawned").value(), fleet);
    expect_no_children();
  }
}

TEST(DistCampaignTest, ExhaustedRequeueBudgetQuarantinesTheRun) {
  CampaignConfig cfg = small_config(Strategy::kMonteCarlo);
  DistConfig dc;
  dc.campaign = cfg;
  dc.workers = 2;
  dc.max_requeues = 0;  // any requeue attempt exceeds the budget
  const std::string marker = vps_test::temp_path("dist_test.requeue_budget");
  DistCampaign campaign(dying_worker_factory(marker, 2), dc);
  const CampaignResult result = campaign.run();
  (void)::unlink(marker.c_str());

  EXPECT_EQ(result.runs_executed, cfg.runs);
  ASSERT_GE(result.quarantine.size(), 1u);
  EXPECT_EQ(result.count(Outcome::kSimCrash), result.quarantine.size());
  EXPECT_NE(result.quarantine[0].what.find("requeued"), std::string::npos)
      << result.quarantine[0].what;
  EXPECT_EQ(campaign.fleet_stats().crashed_runs, result.quarantine.size());
}

TEST(DistCampaignTest, LosingTheWholeFleetFailsCleanly) {
  CampaignConfig cfg = small_config(Strategy::kMonteCarlo);
  DistConfig dc;
  dc.campaign = cfg;
  dc.workers = 1;
  dc.kill_after_results = 1;  // kill the only worker while it holds work
  DistCampaign campaign(caps_factory(false), dc);
  EXPECT_THROW((void)campaign.run(), InvariantError);
  expect_no_children();
}

// A scenario whose replay goes silent far past the heartbeat window.
class WedgedScenario final : public Scenario {
 public:
  [[nodiscard]] std::string name() const override { return "wedged"; }
  [[nodiscard]] Time duration() const override { return Time::ms(1); }
  [[nodiscard]] std::vector<FaultType> fault_types() const override {
    return {FaultType::kMemoryBitFlip};
  }
  [[nodiscard]] Observation run(const FaultDescriptor* fault, std::uint64_t) override {
    if (fault != nullptr) {  // the golden run must stay fast
      std::this_thread::sleep_for(std::chrono::milliseconds(400));
    }
    Observation obs;
    obs.completed = true;
    obs.output_signature = 1;
    return obs;
  }
};

TEST(DistCampaignTest, SilentWorkerIsKilledByTheHeartbeatTimeout) {
  CampaignConfig cfg;
  cfg.runs = 1;
  cfg.seed = 7;
  DistConfig dc;
  dc.campaign = cfg;
  dc.workers = 1;
  dc.heartbeat_timeout_ms = 60;
  dc.max_requeues = 0;  // the wedged run goes straight to quarantine
  DistCampaign campaign([] { return std::make_unique<WedgedScenario>(); }, dc);
  const CampaignResult result = campaign.run();
  EXPECT_EQ(result.runs_executed, 1u);
  EXPECT_EQ(result.count(Outcome::kSimCrash), 1u);
  EXPECT_EQ(campaign.fleet_stats().worker_deaths, 1u);
  expect_no_children();
}

/// A 10 ms CAPS scenario whose teardown hangs for 30 s in a forked pool
/// worker, never in the test's own process (the reference campaign, the
/// coordinator's golden run): a worker that outlives the campaign's end.
class HangingTeardownScenario final : public Scenario {
 public:
  explicit HangingTeardownScenario(pid_t test_pid)
      : inner_(CapsConfig{.crash = false, .duration = Time::ms(10)}), test_pid_(test_pid) {}
  ~HangingTeardownScenario() override {
    if (::getpid() != test_pid_) std::this_thread::sleep_for(std::chrono::seconds(30));
  }

  [[nodiscard]] std::string name() const override { return inner_.name(); }
  [[nodiscard]] Time duration() const override { return inner_.duration(); }
  [[nodiscard]] std::vector<FaultType> fault_types() const override {
    return inner_.fault_types();
  }
  [[nodiscard]] Observation run(const FaultDescriptor* fault, std::uint64_t seed) override {
    inner_.set_snapshot_replay(snapshot_replay());
    return inner_.run(fault, seed);
  }

 private:
  CapsScenario inner_;
  pid_t test_pid_;
};

TEST(DistCampaignTest, PoolWorkerStillAliveOneWindowAfterShutdownIsKilled) {
  // Each pool worker tears its scenario down on RELEASE and SHUTDOWN and
  // hangs there. The pool grants one heartbeat window, then SIGKILLs it:
  // run() returns within a few windows, not after the 30 s teardown.
  const CampaignConfig cfg = small_config(Strategy::kMonteCarlo);
  const ScenarioFactory factory = [test_pid = ::getpid()] {
    return std::make_unique<HangingTeardownScenario>(test_pid);
  };
  const CampaignResult reference = ParallelCampaign(factory, cfg).run();
  DistConfig dc;
  dc.campaign = cfg;
  dc.workers = 2;
  dc.heartbeat_timeout_ms = 500;
  DistCampaign campaign(factory, dc);
  const auto started = std::chrono::steady_clock::now();
  const CampaignResult dist = campaign.run();
  const auto elapsed = std::chrono::steady_clock::now() - started;
  expect_identical(reference, dist);
  EXPECT_EQ(campaign.fleet_stats().worker_deaths, 0u);
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed).count(),
            5 * dc.heartbeat_timeout_ms)
      << "a worker hanging in its teardown held run()";
  expect_no_children();
}

// Wedges only the first generated fault (ids are 1-based run order), so in
// a two-worker fleet exactly one worker goes silent while the other keeps
// producing results — the staggered-deadline case.
class FirstRunWedgedScenario final : public Scenario {
 public:
  [[nodiscard]] std::string name() const override { return "first_run_wedged"; }
  [[nodiscard]] Time duration() const override { return Time::ms(1); }
  [[nodiscard]] std::vector<FaultType> fault_types() const override {
    return {FaultType::kMemoryBitFlip};
  }
  [[nodiscard]] Observation run(const FaultDescriptor* fault, std::uint64_t) override {
    if (fault != nullptr && fault->id == 1) {
      std::this_thread::sleep_for(std::chrono::seconds(20));  // SIGKILLed long before
    }
    Observation obs;
    obs.completed = true;
    obs.output_signature = 1;
    return obs;
  }
};

TEST(DistCampaignTest, StaggeredTimeoutIsDetectedAtTheEarliestFleetDeadline) {
  // Regression: the collect loop used to poll at a fixed 1 s cadence, so a
  // heartbeat deadline landing between wakeups was detected up to a full
  // period late (hb=1200 ms → kill at ~2 s). With the fleet-wide earliest
  // deadline driving the timeout, the wedged worker dies at ~1.2 s even
  // while its healthy sibling keeps waking the poll with results.
  CampaignConfig cfg;
  cfg.runs = 6;
  cfg.seed = 7;
  DistConfig dc;
  dc.campaign = cfg;
  dc.workers = 2;
  dc.heartbeat_timeout_ms = 1200;
  dc.max_requeues = 0;  // the wedged run quarantines instead of wedging a survivor
  DistCampaign campaign([] { return std::make_unique<FirstRunWedgedScenario>(); }, dc);
  const auto started = std::chrono::steady_clock::now();
  const CampaignResult result = campaign.run();
  const auto elapsed = std::chrono::steady_clock::now() - started;

  EXPECT_EQ(result.runs_executed, cfg.runs);
  // The wedged worker holds every slot it was round-robined (run 0 plus any
  // it never got to); with a zero requeue budget all of them quarantine.
  EXPECT_GE(result.count(Outcome::kSimCrash), 1u);
  EXPECT_EQ(campaign.fleet_stats().worker_deaths, 1u);
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed).count(), 1900)
      << "wedged worker was detected a full poll period late";
  expect_no_children();
}

// --------------------------------------------------------------------------
// Replay mode: CampaignConfig::snapshot_replay reaches every built scenario
// --------------------------------------------------------------------------

/// Folds a hazard for every faulty run executed with snapshot replay on, so
/// a campaign with snapshot_replay = false folds zero hazards only if every
/// scenario the driver built got the config's replay mode.
class ReplayModeProbe final : public Scenario {
 public:
  [[nodiscard]] std::string name() const override { return "replay_mode_probe"; }
  [[nodiscard]] Time duration() const override { return Time::ms(1); }
  [[nodiscard]] std::vector<FaultType> fault_types() const override {
    return {FaultType::kMemoryBitFlip};
  }
  [[nodiscard]] Observation run(const FaultDescriptor* fault, std::uint64_t) override {
    Observation obs;
    obs.completed = true;
    obs.output_signature = 1;
    obs.hazard = fault != nullptr && snapshot_replay();
    return obs;
  }
};

/// The factory asks for forking; the campaign config must override it.
std::unique_ptr<Scenario> forking_probe() {
  auto probe = std::make_unique<ReplayModeProbe>();
  probe->set_snapshot_replay(true);
  return probe;
}

CampaignConfig full_replay_config() {
  CampaignConfig cfg;
  cfg.runs = 16;
  cfg.seed = 5;
  cfg.snapshot_replay = false;
  return cfg;
}

TEST(ReplayModeTest, ParallelCampaignAppliesTheConfigOverTheFactory) {
  CampaignConfig cfg = full_replay_config();
  cfg.workers = 2;
  const CampaignResult result = ParallelCampaign(forking_probe, cfg).run();
  EXPECT_EQ(result.runs_executed, cfg.runs);
  EXPECT_EQ(result.count(Outcome::kHazard), 0u);
}

TEST(ReplayModeTest, ForkModeFleetWorkersApplyTheConfig) {
  DistConfig dc;
  dc.campaign = full_replay_config();
  dc.workers = 2;
  const CampaignResult result = DistCampaign(forking_probe, dc).run();
  EXPECT_EQ(result.runs_executed, dc.campaign.runs);
  EXPECT_EQ(result.count(Outcome::kHazard), 0u);
}

// --------------------------------------------------------------------------
// Exec-mode workers (the vps-worker binary)
// --------------------------------------------------------------------------

TEST(DistCampaignTest, ExecWorkerBinaryMatchesInProcessResult) {
  // The spec must rebuild exactly the coordinator's scenario — default CAPS
  // config, so "caps:crash" describes it completely.
  const ScenarioFactory factory = [] {
    return std::make_unique<CapsScenario>(CapsConfig{.crash = true});
  };
  CampaignConfig cfg;
  cfg.runs = 8;
  cfg.seed = 11;
  const CampaignResult baseline = ParallelCampaign(factory, cfg).run();

  DistConfig dc;
  dc.campaign = cfg;
  dc.workers = 2;
  dc.worker_path = VPS_WORKER_PATH;
  dc.scenario_spec = "caps:crash";
  const CampaignResult dist = DistCampaign(factory, dc).run();
  expect_identical(baseline, dist);
}

TEST(DistCampaignTest, NonPositiveHeartbeatIsRejectedBeforeAnyWorkerStarts) {
  for (const int heartbeat_ms : {0, -1}) {
    DistConfig dc;
    dc.campaign = small_config(Strategy::kMonteCarlo);
    dc.heartbeat_timeout_ms = heartbeat_ms;
    DistCampaign campaign(caps_factory(false), dc);
    EXPECT_THROW((void)campaign.run(), InvariantError) << heartbeat_ms;
    expect_no_children();
  }
}

TEST(DistCampaignTest, SpawnFailureIsACleanErrorNotAHang) {
  DistConfig dc;
  dc.campaign = small_config(Strategy::kMonteCarlo);
  dc.workers = 2;
  dc.worker_path = "/nonexistent/vps-worker-binary";
  dc.hello_timeout_ms = 2000;
  DistCampaign campaign(caps_factory(false), dc);
  try {
    (void)campaign.run();
    FAIL() << "spawn against a nonexistent binary must not succeed";
  } catch (const InvariantError& e) {
    EXPECT_NE(std::string(e.what()).find("spawn failure"), std::string::npos) << e.what();
  }
  expect_no_children();
}

TEST(DistCampaignTest, ScenarioMismatchIsRejectedAtTheHandshake) {
  const ScenarioFactory factory = [] {
    return std::make_unique<CapsScenario>(CapsConfig{.crash = true});
  };
  DistConfig dc;
  dc.campaign = small_config(Strategy::kMonteCarlo);
  dc.workers = 1;
  dc.worker_path = VPS_WORKER_PATH;
  dc.scenario_spec = "caps:normal";  // coordinator runs caps_crash_protected
  DistCampaign campaign(factory, dc);
  try {
    (void)campaign.run();
    FAIL() << "scenario mismatch must fail the handshake";
  } catch (const InvariantError& e) {
    EXPECT_NE(std::string(e.what()).find("caps_normal_protected"), std::string::npos) << e.what();
  }
  expect_no_children();
}

// --------------------------------------------------------------------------
// Checkpoint/resume under distribution
// --------------------------------------------------------------------------

TEST(DistCampaignTest, CheckpointResumeCrossesDriversAndFleetSizes) {
  CampaignConfig cfg = small_config(Strategy::kGuided);
  const CampaignResult uninterrupted = ParallelCampaign(caps_factory(false), cfg).run();

  // Interrupt a 2-worker distributed campaign mid-way...
  CampaignConfig cut = cfg;
  cut.batch_size = 8;
  cut.preempt_after = 10;  // preempts at the batch-16 barrier
  cut.checkpoint_path = vps_test::temp_path("dist_resume.jsonl");
  DistConfig dc_cut;
  dc_cut.campaign = cut;
  dc_cut.workers = 2;
  const CampaignResult partial = DistCampaign(caps_factory(false), dc_cut).run();
  ASSERT_TRUE(partial.interrupted);
  ASSERT_LT(partial.runs_executed, cfg.runs);

  const CampaignCheckpoint cp = vps::fault::load_checkpoint(cut.checkpoint_path);

  // ...resume it distributed at a different fleet size. The batched cadence
  // must match the uninterrupted baseline; batch_size is determinism-
  // relevant, so the resumed config keeps it.
  CampaignConfig resume_cfg = cfg;
  resume_cfg.batch_size = 8;
  CampaignConfig baseline_cfg = resume_cfg;
  const CampaignResult baseline_b8 = ParallelCampaign(caps_factory(false), baseline_cfg).run();

  DistConfig dc_resume;
  dc_resume.campaign = resume_cfg;
  dc_resume.workers = 4;
  const CampaignResult resumed = DistCampaign(caps_factory(false), dc_resume).resume(cp);
  expect_identical(baseline_b8, resumed);

  // ...and resume the same checkpoint with the in-process driver: the two
  // batched drivers write interchangeable checkpoints.
  ParallelCampaign in_process(caps_factory(false), resume_cfg);
  const CampaignResult resumed_in_process = in_process.resume(cp);
  expect_identical(baseline_b8, resumed_in_process);

  std::remove(cut.checkpoint_path.c_str());
  (void)uninterrupted;  // cadence differs (batch 32) — compared via baseline_b8
}

TEST(DistCampaignTest, FleetCheckpointSavesEqualToJsonlOfTheSamePrefix) {
  const std::string path = vps_test::temp_path("dist_fleet_saves.jsonl");
  std::remove(path.c_str());
  const ScenarioFactory factory = [] { return vps::apps::make_scenario("bms:runaway:prov"); };
  CampaignConfig cfg;
  cfg.runs = 64;
  cfg.seed = 2026;
  cfg.strategy = Strategy::kGuided;
  cfg.location_buckets = 8;
  cfg.batch_size = 8;
  cfg.checkpoint_every = 16;
  cfg.preempt_after = 40;  // a barrier off the save cadence
  cfg.checkpoint_path = path;
  DistConfig dc;
  dc.campaign = cfg;
  dc.workers = 3;
  dc.scenario_spec = "bms:runaway:prov";
  DistCampaign campaign(factory, dc);
  vps_test::CheckpointSaveRecorder recorder(path);
  campaign.set_monitor(&recorder);
  const CampaignResult partial = campaign.run();
  recorder.finish();
  ASSERT_TRUE(partial.interrupted);
  ASSERT_EQ(partial.runs_executed, 40u);
  EXPECT_FALSE(partial.provenance_jsonl().empty()) << "the saved records must carry provenance";

  CampaignCheckpoint head;
  head.driver = "parallel_campaign";
  head.scenario = factory()->name();
  head.config = cfg;
  head.golden = campaign.golden();
  vps_test::expect_saves_are_prefixes(recorder.saves(), head, partial.records, {16, 32, 40});
  std::remove(path.c_str());
}

// --------------------------------------------------------------------------
// One engine, every executor: a mid-batch hazard stop folds and checkpoints
// exactly like the one-thread reference
// --------------------------------------------------------------------------

enum class Executor { kSequential, kThreads, kFleet, kServer };

/// bms:runaway:prov at seed 2 finds its first hazard at run 59 (1-based),
/// inside the eighth batch of eight, so stop_after_hazards = 1 cuts that
/// batch short. Every barrier saves, the cut one included.
CampaignConfig hazard_stop_config(const std::string& checkpoint_path) {
  CampaignConfig cfg;
  cfg.runs = 100;
  cfg.seed = 2;
  cfg.location_buckets = 8;
  cfg.batch_size = 8;
  cfg.stop_after_hazards = 1;
  cfg.checkpoint_every = 1;
  cfg.checkpoint_path = checkpoint_path;
  return cfg;
}

/// Runs `cfg` — or resumes it from `checkpoint` — on one scenario instance
/// in the calling thread, or on `width` threads, fleet workers or server
/// pool workers.
CampaignResult run_on(Executor executor, std::size_t width, CampaignConfig cfg,
                      const CampaignCheckpoint* checkpoint = nullptr) {
  const std::string spec = "bms:runaway:prov";
  const ScenarioFactory factory = [spec] { return vps::apps::make_scenario(spec); };
  const auto go = [checkpoint](auto& campaign) {
    return checkpoint != nullptr ? campaign.resume(*checkpoint) : campaign.run();
  };
  if (executor == Executor::kSequential) {
    const std::unique_ptr<Scenario> scenario = vps::apps::make_scenario(spec);
    Campaign campaign(*scenario, cfg);
    return go(campaign);
  }
  if (executor == Executor::kThreads) {
    cfg.workers = width;
    ParallelCampaign campaign(factory, cfg);
    return go(campaign);
  }
  DistConfig dc;
  dc.campaign = cfg;
  dc.scenario_spec = spec;
  if (executor == Executor::kFleet) {
    dc.workers = width;
    DistCampaign campaign(factory, dc);
    return go(campaign);
  }
  CampaignServer server{ServerConfig{}};
  std::vector<pid_t> pool;
  for (std::size_t i = 0; i < width; ++i) pool.push_back(vps_test::fork_pool_worker(server.port()));
  server.start();
  dc.server_host = "127.0.0.1";
  dc.server_port = server.port();
  CampaignResult result;
  {
    DistCampaign campaign(factory, dc);
    result = go(campaign);
  }
  server.stop();
  for (const pid_t pid : pool) vps_test::reap(pid);
  return result;
}

struct ExecutorCase {
  std::string name;
  Executor executor;
  std::size_t width;
  /// Nonzero: preempt after this many runs, then resume on the second
  /// executor.
  std::size_t preempt_after = 0;
  Executor resume_executor = Executor::kThreads;
  std::size_t resume_width = 0;
};

TEST(CampaignEngineTest, EveryExecutorMatchesTheOneThreadReferenceThroughAMidBatchStop) {
  const std::string reference_path = vps_test::temp_path("engine_reference.jsonl");
  std::remove(reference_path.c_str());
  const CampaignResult reference =
      run_on(Executor::kThreads, 1, hazard_stop_config(reference_path));
  ASSERT_EQ(reference.count(Outcome::kHazard), 1u);
  ASSERT_EQ(reference.faults_to_first_hazard, 59u);
  ASSERT_NE(reference.runs_executed % 8, 0u) << "the stop must cut a batch short";
  const std::string reference_checkpoint = vps_test::read_file(reference_path);
  ASSERT_FALSE(reference_checkpoint.empty());
  std::remove(reference_path.c_str());

  const std::vector<ExecutorCase> cases = {
      {"sequential", Executor::kSequential, 1},
      {"sequential_preempted_resumed_on_threads_4", Executor::kSequential, 1, 24,
       Executor::kThreads, 4},
      {"fleet_3_preempted_resumed_sequentially", Executor::kFleet, 3, 24, Executor::kSequential,
       1},
      {"threads_4", Executor::kThreads, 4},
      {"fleet_1", Executor::kFleet, 1},
      {"fleet_3", Executor::kFleet, 3},
      {"server_2", Executor::kServer, 2},
      {"fleet_3_preempted_resumed_on_server_2", Executor::kFleet, 3, 24, Executor::kServer, 2},
  };
  for (const ExecutorCase& c : cases) {
    SCOPED_TRACE(c.name);
    const std::string path = vps_test::temp_path("engine_" + c.name + ".jsonl");
    std::remove(path.c_str());
    CampaignConfig cfg = hazard_stop_config(path);
    CampaignResult result;
    if (c.preempt_after == 0) {
      result = run_on(c.executor, c.width, cfg);
    } else {
      cfg.preempt_after = c.preempt_after;
      const CampaignResult partial = run_on(c.executor, c.width, cfg);
      ASSERT_TRUE(partial.interrupted);
      ASSERT_EQ(partial.runs_executed, c.preempt_after);
      const CampaignCheckpoint checkpoint = vps::fault::load_checkpoint(path);
      cfg.preempt_after = 0;
      result = run_on(c.resume_executor, c.resume_width, cfg, &checkpoint);
    }
    expect_identical(reference, result);
    EXPECT_EQ(vps_test::read_file(path), reference_checkpoint)
        << "final checkpoint differs from the reference's";
    std::remove(path.c_str());
  }
}

// --------------------------------------------------------------------------
// Scenario registry
// --------------------------------------------------------------------------

TEST(ScenarioRegistry, BuildsTheSpecifiedScenario) {
  EXPECT_EQ(vps::apps::make_scenario("caps")->name(), "caps_normal_protected");
  EXPECT_EQ(vps::apps::make_scenario("caps:crash")->name(), "caps_crash_protected");
  EXPECT_EQ(vps::apps::make_scenario("caps:crash:unprotected")->name(),
            "caps_crash_unprotected");
  EXPECT_EQ(vps::apps::make_scenario("caps:normal:ecc")->name(), "caps_normal_protected_ecc");
  EXPECT_EQ(vps::apps::make_scenario("acc")->name(), "acc_follow_brake");
}

TEST(ScenarioRegistry, RejectsUnknownSpecs) {
  EXPECT_THROW((void)vps::apps::make_scenario(""), InvariantError);
  EXPECT_THROW((void)vps::apps::make_scenario("unknown_app"), InvariantError);
  EXPECT_THROW((void)vps::apps::make_scenario("caps:bogus_option"), InvariantError);
  EXPECT_THROW((void)vps::apps::make_scenario("acc:fast"), InvariantError);
}

}  // namespace
