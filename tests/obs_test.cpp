// Observability-layer tests: JSON escaping, JSONL schema + determinism,
// Chrome trace-event structure, kernel attribution, transaction probes on
// the TLM router and the CAN bus, wall-clock profiling scopes, campaign
// progress monitoring, and fault-injection spans.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "vps/apps/caps.hpp"
#include "vps/can/bus.hpp"
#include "vps/can/frame.hpp"
#include "vps/fault/campaign.hpp"
#include "vps/fault/injector.hpp"
#include "vps/hw/memory.hpp"
#include "vps/obs/campaign_monitor.hpp"
#include "vps/obs/metrics.hpp"
#include "vps/obs/provenance.hpp"
#include "vps/support/ensure.hpp"
#include "vps/obs/kernel_tracer.hpp"
#include "vps/obs/probe.hpp"
#include "vps/obs/trace.hpp"
#include "vps/sim/kernel.hpp"
#include "vps/sim/signal.hpp"
#include "vps/tlm/payload.hpp"
#include "vps/tlm/router.hpp"
#include "vps/tlm/sockets.hpp"

namespace {

using namespace vps;
using namespace vps::sim;
using obs::TraceArg;

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.is_open()) << path;
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

std::size_t count_occurrences(const std::string& haystack, const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t pos = haystack.find(needle); pos != std::string::npos;
       pos = haystack.find(needle, pos + needle.size())) {
    ++n;
  }
  return n;
}

TEST(Json, Escape) {
  EXPECT_EQ(obs::json_escape("plain"), "plain");
  EXPECT_EQ(obs::json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(obs::json_escape("back\\slash"), "back\\\\slash");
  EXPECT_EQ(obs::json_escape("line\nbreak"), "line\\nbreak");
  EXPECT_EQ(obs::json_escape("tab\there"), "tab\\there");
  EXPECT_EQ(obs::json_escape(std::string("nul\0byte", 8)), "nul\\u0000byte");
  EXPECT_EQ(obs::json_escape("\x01"), "\\u0001");
}

TEST(Jsonl, SchemaAndArgs) {
  const std::string path = "/tmp/vps_obs_jsonl_test.jsonl";
  {
    obs::Tracer tracer;
    obs::JsonlSink sink(path);
    tracer.add_sink(sink);
    EXPECT_TRUE(tracer.has_sinks());
    tracer.complete("tlm", "write@0x40", Time::ns(12), Time::ps(250), "bus0",
                    {TraceArg::str("response", "OK"), TraceArg::number("size", 4)});
    tracer.instant("can", "crc_error", Time::us(3));
    tracer.counter("campaign", "caps", Time::ps(7),
                   {TraceArg::number("runs_done", 7), TraceArg::number("coverage", 0.5)});
    tracer.flush();
    EXPECT_EQ(tracer.events(), 3u);
    EXPECT_EQ(sink.lines_written(), 3u);
  }
  const auto lines = lines_of(slurp(path));
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0],
            "{\"kind\":\"complete\",\"ts_ps\":12000,\"dur_ps\":250,\"cat\":\"tlm\","
            "\"name\":\"write@0x40\",\"track\":\"bus0\","
            "\"args\":{\"response\":\"OK\",\"size\":4}}");
  // Instants carry no dur_ps; empty track/args are omitted entirely.
  EXPECT_EQ(lines[1],
            "{\"kind\":\"instant\",\"ts_ps\":3000000,\"cat\":\"can\",\"name\":\"crc_error\"}");
  EXPECT_EQ(lines[2],
            "{\"kind\":\"counter\",\"ts_ps\":7,\"cat\":\"campaign\",\"name\":\"caps\","
            "\"args\":{\"runs_done\":7,\"coverage\":0.5}}");
  std::remove(path.c_str());
}

TEST(Chrome, DocumentStructureAndThreadMetadata) {
  const std::string path = "/tmp/vps_obs_chrome_test.trace.json";
  {
    obs::Tracer tracer;
    obs::ChromeTraceSink sink(path);
    tracer.add_sink(sink);
    tracer.complete("kernel", "worker", Time::us(1), Time::ns(10), "worker");
    tracer.complete("kernel", "worker", Time::us(2), Time::ns(10), "worker");
    tracer.instant("fault", "skipped:stuck#1", Time::us(3), "faults");
    tracer.counter("campaign", "caps", Time::ps(4), {TraceArg::number("runs_done", 4)});
    EXPECT_TRUE(sink.close());
    EXPECT_EQ(sink.events_written(), 4u);
    // Records after close are ignored, not appended to a finalized document.
    tracer.instant("kernel", "late", Time::us(9));
    EXPECT_EQ(sink.events_written(), 4u);
  }
  const std::string content = slurp(path);
  EXPECT_EQ(content.rfind("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[", 0), 0u);
  EXPECT_EQ(content.substr(content.size() - 4), "\n]}\n");
  // One thread_name metadata record per distinct track, emitted on first use:
  // "worker", "faults", and the counter's category lane "campaign".
  EXPECT_EQ(count_occurrences(content, "\"name\":\"thread_name\""), 3u);
  EXPECT_EQ(count_occurrences(content, "\"ph\":\"X\""), 2u);
  EXPECT_EQ(count_occurrences(content, "\"ph\":\"i\""), 1u);
  EXPECT_EQ(count_occurrences(content, "\"ph\":\"C\""), 1u);
  EXPECT_NE(content.find("\"ts\":1.000000"), std::string::npos);  // 1us, ps-exact
  EXPECT_NE(content.find("\"dur\":0.010000"), std::string::npos);    // 10ns
  EXPECT_EQ(content.find("late"), std::string::npos);
  std::remove(path.c_str());
}

TEST(Chrome, CloseReportsAFailedWrite) {
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  obs::ChromeTraceSink sink("/dev/full");  // opens fine; every write fails
  obs::Tracer tracer;
  tracer.add_sink(sink);
  tracer.instant("fault", "lost", Time::us(1));
  EXPECT_FALSE(sink.close());
  EXPECT_FALSE(sink.close());  // idempotent
}

/// Shared workload for the determinism test: two processes, one notifying
/// an event the other waits on.
void traced_run(const std::string& path) {
  Kernel kernel;
  Event tick(kernel, "tick");
  obs::Tracer tracer;
  obs::JsonlSink sink(path);
  tracer.add_sink(sink);
  obs::KernelTracer::Options opts;
  opts.trace_notifications = true;
  obs::KernelTracer kt(kernel, opts);
  kt.set_tracer(&tracer);
  kernel.spawn("producer", [](Event& tick) -> Coro {
    for (int i = 0; i < 5; ++i) {
      co_await delay(10_ns);
      tick.notify();
    }
  }(tick));
  kernel.spawn("consumer", [](Event& tick) -> Coro {
    for (int i = 0; i < 5; ++i) co_await tick;
  }(tick));
  kernel.run();
  tracer.flush();
}

TEST(Trace, ByteIdenticalAcrossRuns) {
  const std::string a = "/tmp/vps_obs_det_a.jsonl";
  const std::string b = "/tmp/vps_obs_det_b.jsonl";
  traced_run(a);
  traced_run(b);
  const std::string ca = slurp(a);
  EXPECT_FALSE(ca.empty());
  EXPECT_EQ(ca, slurp(b));  // sim-time-only timestamps: byte-identical
  std::remove(a.c_str());
  std::remove(b.c_str());
}

TEST(KernelTracer, AttributionMatchesKernelStats) {
  Kernel kernel;
  Event tick(kernel, "tick");
  obs::KernelTracer::Options opts;
  opts.trace_notifications = true;
  obs::KernelTracer kt(kernel, opts);
  kernel.spawn("busy", [](Event& tick) -> Coro {
    for (int i = 0; i < 7; ++i) {
      co_await delay(1_ns);
      tick.notify();
    }
  }(tick));
  kernel.spawn("idle", []() -> Coro { co_await delay(2_ns); }());
  kernel.run();

  EXPECT_EQ(kt.activations_seen(), kernel.stats().activations);
  EXPECT_EQ(kt.notifications_seen(), kernel.stats().notifications);
  EXPECT_EQ(kt.delta_cycles_seen(), kernel.stats().delta_cycles);

  const auto procs = kt.process_attribution();
  ASSERT_GE(procs.size(), 2u);
  EXPECT_EQ(procs[0].name, "busy");  // sorted by activations descending
  std::uint64_t sum = 0;
  for (const auto& p : procs) sum += p.activations;
  EXPECT_EQ(sum, kernel.stats().activations);

  const auto events = kt.event_attribution();
  ASSERT_FALSE(events.empty());
  EXPECT_EQ(events[0].name, "tick");
  EXPECT_EQ(events[0].notifications, 7u);

  const std::string report = kt.report();
  EXPECT_NE(report.find("busy"), std::string::npos);
  EXPECT_NE(report.find("tick"), std::string::npos);
}

TEST(KernelTracer, CoexistsWithOtherObserversAndDetachesOnDestruction) {
  Kernel kernel;
  auto first = std::make_unique<obs::KernelTracer>(kernel);
  EXPECT_TRUE(kernel.has_observer(*first));
  {
    // A second tracer attaches alongside — no eviction in either direction,
    // and destroying the *old* tracer must not detach the new one.
    obs::KernelTracer second(kernel);
    EXPECT_TRUE(kernel.has_observer(*first));
    EXPECT_TRUE(kernel.has_observer(second));
    EXPECT_EQ(kernel.observer_count(), 2u);
    first.reset();
    EXPECT_TRUE(kernel.has_observer(second));
    EXPECT_EQ(kernel.observer_count(), 1u);
  }
  EXPECT_EQ(kernel.observer_count(), 0u);  // last one out detaches
  kernel.spawn("p", []() -> Coro { co_await delay(1_ns); }());
  kernel.run();  // no observer: must not crash
  EXPECT_EQ(kernel.now(), 1_ns);
}

TEST(KernelTracer, CoexistsWithUserObserverAndRecordsBudgetTrips) {
  // A KernelTracer and a plain user observer attached to the same kernel:
  // both must see every callback, and a tripped watchdog budget shows up as
  // a budget_trip instant on the scheduler track.
  struct TripCounter final : sim::KernelObserver {
    int trips = 0;
    void on_budget_trip(const sim::RunStatus&) override { ++trips; }
  };
  Kernel kernel;
  Event e(kernel, "e");
  kernel.method("storm", [&] { e.notify(); }, {&e}, /*initialize=*/true);

  obs::Tracer tracer;
  obs::KernelTracer kt(kernel);
  kt.set_tracer(&tracer);
  TripCounter user;
  kernel.add_observer(user);

  const sim::RunStatus status =
      kernel.run_until_idle(sim::RunBudget{.max_deltas_without_advance = 20});
  EXPECT_EQ(status.reason, sim::StopReason::kLivelock);
  EXPECT_EQ(kt.budget_trips_seen(), 1u);
  EXPECT_EQ(user.trips, 1);
  EXPECT_EQ(kt.delta_cycles_seen(), kernel.stats().delta_cycles);
  EXPECT_GT(tracer.events(), 0u);
  kernel.remove_observer(user);
}

TEST(Probe, AggregatesLatencyAndEmitsSpans) {
  Kernel kernel;
  obs::Tracer tracer;
  obs::TransactionProbe probe(kernel, "bus0", 0.0, 100.0, 10);
  probe.set_tracer(&tracer);
  probe.record("tlm", "write@0x0", Time::zero(), Time::ns(10));
  probe.record("tlm", "read@0x4", Time::ns(50), Time::ns(30));
  probe.mark("tlm", "decode_error");
  EXPECT_EQ(probe.transactions(), 2u);
  EXPECT_EQ(probe.marks(), 1u);
  EXPECT_DOUBLE_EQ(probe.latency().mean(), 20.0);  // (10 + 30) / 2 ns
  EXPECT_EQ(probe.latency_histogram().total(), 2u);
  EXPECT_EQ(tracer.events(), 3u);
}

TEST(Probe, RouterEmitsTransactionSpansAndDecodeMarks) {
  Kernel kernel;
  obs::Tracer tracer;
  obs::JsonlSink sink("/tmp/vps_obs_router_test.jsonl");
  tracer.add_sink(sink);

  tlm::Router router("bus", Time::ns(20));
  hw::Memory mem("mem", 256, Time::ns(50));
  router.map(0x1000, mem.size(), mem.socket());
  obs::TransactionProbe probe(kernel, "bus");
  probe.set_tracer(&tracer);
  router.set_probe(&probe);

  tlm::InitiatorSocket port("port");
  port.bind(router.target_socket());

  tlm::GenericPayload write(tlm::Command::kWrite, 0x1000, 4);
  write.set_value_le(0xDEADBEEF);
  Time delay = Time::zero();
  port.b_transport(write, delay);
  EXPECT_EQ(write.response(), tlm::Response::kOk);
  EXPECT_EQ(delay, Time::ns(70));  // hop + memory latency

  tlm::GenericPayload read(tlm::Command::kRead, 0x1000, 4);
  delay = Time::zero();
  port.b_transport(read, delay);
  EXPECT_EQ(read.value_le(), 0xDEADBEEFu);

  tlm::GenericPayload stray(tlm::Command::kRead, 0x9999, 4);
  delay = Time::zero();
  port.b_transport(stray, delay);
  EXPECT_EQ(stray.response(), tlm::Response::kAddressError);

  EXPECT_EQ(probe.transactions(), 2u);
  EXPECT_EQ(probe.marks(), 1u);
  EXPECT_DOUBLE_EQ(probe.latency().mean(), 70.0);
  tracer.flush();
  const std::string content = slurp("/tmp/vps_obs_router_test.jsonl");
  EXPECT_NE(content.find("write@0x1000"), std::string::npos);
  EXPECT_NE(content.find("read@0x1000"), std::string::npos);
  EXPECT_NE(content.find("decode_error"), std::string::npos);
  EXPECT_NE(content.find("\"response\":\"OK\""), std::string::npos);
  std::remove("/tmp/vps_obs_router_test.jsonl");
}

class Recorder final : public can::CanNode {
 public:
  void on_frame(const can::CanFrame& frame) override { received.push_back(frame); }
  std::vector<can::CanFrame> received;
};

TEST(Probe, CanBusFrameSpans) {
  Kernel kernel;
  can::CanBus bus(kernel, "can0", 500000);
  Recorder a, b;
  bus.attach(a);
  bus.attach(b);
  obs::Tracer tracer;
  obs::TransactionProbe probe(kernel, "can0", 0.0, 500000.0, 10);
  probe.set_tracer(&tracer);
  bus.set_probe(&probe);

  const auto frame = can::CanFrame::make(0x123, std::vector<std::uint8_t>{1, 2});
  bus.submit(a, frame);
  kernel.run();
  ASSERT_EQ(b.received.size(), 1u);
  EXPECT_EQ(probe.transactions(), 1u);
  // The span covers the whole frame on the wire.
  const Time wire = bus.bit_time() * can::frame_bit_count(frame);
  EXPECT_DOUBLE_EQ(probe.latency().mean(),
                   static_cast<double>(wire.picoseconds()) / 1000.0);
  EXPECT_EQ(tracer.events(), 1u);
}

/// Minimal deterministic scenario: no kernel, instant runs. A fault flips
/// the output signature so classification exercises real outcomes.
class ToyScenario final : public fault::Scenario {
 public:
  [[nodiscard]] std::string name() const override { return "toy"; }
  [[nodiscard]] sim::Time duration() const override { return Time::ms(1); }
  [[nodiscard]] std::vector<fault::FaultType> fault_types() const override {
    return {fault::FaultType::kSensorOffset, fault::FaultType::kTaskKill};
  }
  [[nodiscard]] fault::Observation run(const fault::FaultDescriptor* fault,
                                       std::uint64_t seed) override {
    fault::Observation obs;
    obs.completed = true;
    obs.output_signature = static_cast<std::uint32_t>(seed);
    if (fault != nullptr && fault->type == fault::FaultType::kTaskKill) {
      obs.output_signature ^= 1;  // silent corruption
    }
    return obs;
  }
};

TEST(Monitor, CampaignReportsProgressPerRunAndCompletionOnce) {
  ToyScenario scenario;
  fault::CampaignConfig cfg;
  cfg.runs = 10;
  cfg.seed = 42;
  cfg.strategy = fault::Strategy::kMonteCarlo;

  obs::Tracer tracer;
  obs::ProgressReporter::Options opts;
  opts.print = false;
  opts.tracer = &tracer;
  obs::ProgressReporter reporter(opts);

  fault::Campaign campaign(scenario, cfg);
  campaign.set_monitor(&reporter);
  const auto result = campaign.run();
  EXPECT_EQ(result.runs_executed, 10u);
  EXPECT_EQ(reporter.progress_reports(), 10u);   // sequential: one per run
  EXPECT_EQ(reporter.complete_reports(), 1u);
  EXPECT_EQ(tracer.events(), 10u);               // one "campaign" counter per run
}

TEST(Monitor, ParallelCampaignReportsBatchesAndCompletion) {
  fault::CampaignConfig cfg;
  cfg.runs = 20;
  cfg.seed = 42;
  cfg.strategy = fault::Strategy::kMonteCarlo;
  cfg.workers = 2;
  cfg.batch_size = 8;

  obs::ProgressReporter::Options opts;
  opts.print = false;
  obs::ProgressReporter reporter(opts);

  fault::ParallelCampaign campaign([] { return std::make_unique<ToyScenario>(); }, cfg);
  campaign.set_monitor(&reporter);
  const auto result = campaign.run();
  EXPECT_EQ(result.runs_executed, 20u);
  EXPECT_EQ(reporter.progress_reports(), 3u);  // ceil(20 / 8) batch barriers
  EXPECT_EQ(reporter.complete_reports(), 1u);
}

TEST(Injector, EmitsSpansForAppliedAndInstantsForSkipped) {
  Kernel kernel;
  obs::Tracer tracer;
  obs::JsonlSink sink("/tmp/vps_obs_injector_test.jsonl");
  tracer.add_sink(sink);

  double raw = 1.0;
  fault::AnalogChannel channel([&raw] { return raw; });
  fault::InjectorHub hub(kernel);
  hub.bind_sensor(channel);
  hub.set_tracer(&tracer);

  fault::FaultDescriptor offset;
  offset.id = 1;
  offset.type = fault::FaultType::kSensorOffset;
  offset.persistence = fault::Persistence::kPermanent;
  offset.inject_at = Time::us(10);
  offset.magnitude = 0.5;
  hub.schedule(offset);

  fault::FaultDescriptor unbound;  // no platform bound: must be skipped
  unbound.id = 2;
  unbound.type = fault::FaultType::kRegisterBitFlip;
  unbound.inject_at = Time::us(20);
  hub.schedule(unbound);

  kernel.run();
  EXPECT_DOUBLE_EQ(channel.read(), 1.5);
  EXPECT_EQ(hub.applied_count(), 1u);
  EXPECT_EQ(hub.skipped_count(), 1u);
  tracer.flush();
  const std::string content = slurp("/tmp/vps_obs_injector_test.jsonl");
  EXPECT_NE(content.find("\"cat\":\"fault\""), std::string::npos);
  EXPECT_NE(content.find("sensor_offset#1"), std::string::npos);
  EXPECT_NE(content.find("skipped:register_bit_flip#2"), std::string::npos);
  EXPECT_NE(content.find("\"track\":\"faults\""), std::string::npos);
  std::remove("/tmp/vps_obs_injector_test.jsonl");
}

// --------------------------------------------------------------------------
// JSON escaping: full C0 sweep + invalid UTF-8
// --------------------------------------------------------------------------

TEST(Json, RegressionEscapesEveryC0ControlCharacter) {
  // Regression: only a handful of control characters used to be escaped;
  // Chrome's trace viewer rejects any raw byte in 0x00..0x1F. Sweep all 32.
  for (int c = 0x00; c < 0x20; ++c) {
    const std::string in(1, static_cast<char>(c));
    const std::string out = obs::json_escape(in);
    SCOPED_TRACE(c);
    // No raw control byte may survive.
    for (const char ch : out) EXPECT_GE(static_cast<unsigned char>(ch), 0x20u);
    switch (c) {
      case '\b': EXPECT_EQ(out, "\\b"); break;
      case '\f': EXPECT_EQ(out, "\\f"); break;
      case '\n': EXPECT_EQ(out, "\\n"); break;
      case '\r': EXPECT_EQ(out, "\\r"); break;
      case '\t': EXPECT_EQ(out, "\\t"); break;
      default: {
        char expected[8];
        std::snprintf(expected, sizeof expected, "\\u%04x", static_cast<unsigned>(c));
        EXPECT_EQ(out, expected);
      }
    }
  }
}

TEST(Json, PassesUtf8ThroughAndReplacesInvalidBytes) {
  // Well-formed multi-byte sequences survive untouched.
  EXPECT_EQ(obs::json_escape("caf\xC3\xA9"), "caf\xC3\xA9");
  EXPECT_EQ(obs::json_escape("\xE2\x82\xAC"), "\xE2\x82\xAC");   // €
  EXPECT_EQ(obs::json_escape("\xF0\x9F\x9A\x97"), "\xF0\x9F\x9A\x97");  // 🚗
  // Invalid bytes become the escaped replacement character, never raw bytes.
  EXPECT_EQ(obs::json_escape("\xFF"), "\\ufffd");
  EXPECT_EQ(obs::json_escape("\xC3"), "\\ufffd");          // truncated 2-byte
  EXPECT_EQ(obs::json_escape("\xE2\x82"), "\\ufffd\\ufffd");  // truncated 3-byte
  EXPECT_EQ(obs::json_escape("a\x80z"), "a\\ufffdz");      // stray continuation
  EXPECT_EQ(obs::json_escape("\xC0\xAF"), "\\ufffd\\ufffd");  // overlong encoding
}

// --------------------------------------------------------------------------
// ProgressReporter rate guards
// --------------------------------------------------------------------------

std::string emit_progress_line(const obs::CampaignProgress& progress) {
  const std::string path = "/tmp/vps_obs_monitor_guard_test.txt";
  std::FILE* f = std::fopen(path.c_str(), "w");
  EXPECT_NE(f, nullptr);
  obs::ProgressReporter::Options opts;
  opts.stream = f;
  obs::ProgressReporter reporter(opts);
  reporter.on_complete(progress);
  std::fclose(f);
  const std::string line = slurp(path);
  std::remove(path.c_str());
  return line;
}

TEST(Monitor, RegressionDivideByZeroAndNonsenseRunsPerSecondAreClamped) {
  // Regression: the first progress sample arrives with wall_seconds == 0, so
  // a naive runs/wall division printed inf/NaN or absurd spikes.
  obs::CampaignProgress p;
  p.campaign = "guard";
  p.runs_done = 5;
  p.runs_total = 10;
  for (const double rps : {std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN(), -3.0}) {
    p.wall_seconds = 1.0;
    p.runs_per_second = rps;
    const std::string line = emit_progress_line(p);
    EXPECT_NE(line.find("0.0 runs/s"), std::string::npos) << line;
    EXPECT_EQ(line.find("inf"), std::string::npos) << line;
    EXPECT_EQ(line.find("nan"), std::string::npos) << line;
  }
  // Zero wall clock with a "plausible" rate is still nonsense: clamp it too.
  p.wall_seconds = 0.0;
  p.runs_per_second = 1e9;
  EXPECT_NE(emit_progress_line(p).find("0.0 runs/s"), std::string::npos);
  // A sane sample passes through untouched.
  p.wall_seconds = 2.0;
  p.runs_per_second = 2.5;
  EXPECT_NE(emit_progress_line(p).find("2.5 runs/s"), std::string::npos);
}

TEST(Monitor, FinalSnapshotPrintsLatencyPercentilesWhenMeasured) {
  obs::CampaignProgress p;
  p.campaign = "latency";
  p.runs_done = p.runs_total = 4;
  p.wall_seconds = 1.0;
  p.runs_per_second = 4.0;
  EXPECT_EQ(emit_progress_line(p).find("detection latency"), std::string::npos);
  p.detections_with_latency = 3;
  p.latency_p50_us = 10.0;
  p.latency_p95_us = 20.0;
  p.latency_p99_us = 30.0;
  const std::string line = emit_progress_line(p);
  EXPECT_NE(line.find("detection latency p50/p95/p99 10.0/20.0/30.0 us"), std::string::npos)
      << line;
}

// --------------------------------------------------------------------------
// Metric registry
// --------------------------------------------------------------------------

TEST(Metrics, RegistryCountersGaugesHistogramsAndDeterministicSnapshots) {
  obs::MetricRegistry registry;
  obs::Counter& runs = registry.counter("campaign.runs");
  runs.add();
  runs.add(4);
  EXPECT_EQ(registry.counter("campaign.runs").value(), 5u);  // same object
  registry.gauge("campaign.coverage").set(0.75);
  auto& latency = registry.histogram("campaign.latency_us", 0.0, 100.0, 10);
  latency.add(10.0);
  latency.add(90.0);
  EXPECT_EQ(registry.size(), 3u);
  // Re-registration with a different shape is a bug, not a silent re-bin.
  EXPECT_THROW((void)registry.histogram("campaign.latency_us", 0.0, 50.0, 10),
               vps::support::InvariantError);
  // Snapshots are name-ordered: byte-identical regardless of insertion order.
  obs::MetricRegistry reordered;
  reordered.histogram("campaign.latency_us", 0.0, 100.0, 10).add(90.0);
  reordered.histogram("campaign.latency_us", 0.0, 100.0, 10).add(10.0);
  reordered.gauge("campaign.coverage").set(0.75);
  reordered.counter("campaign.runs").add(5);
  EXPECT_EQ(registry.to_jsonl(), reordered.to_jsonl());
  EXPECT_EQ(registry.render(), reordered.render());
  EXPECT_NE(registry.to_jsonl().find("\"metric\":\"campaign.runs\""), std::string::npos);
}

// --------------------------------------------------------------------------
// Provenance tracker
// --------------------------------------------------------------------------

TEST(Provenance, RecordsDagWithFirstContactDedupAndFirstDetection) {
  Kernel kernel;
  obs::ProvenanceTracker tracker(kernel);
  EXPECT_THROW(tracker.begin_fault(0, "bad", "inject"), vps::support::InvariantError);

  kernel.spawn("driver", [](obs::ProvenanceTracker& t) -> Coro {
    t.begin_fault(5, "mem_bit_flip#4", "inject:mem_bit_flip");
    co_await delay(Time::us(2));
    t.touch(5, "mem:ram");
    t.touch(5, "mem:ram");    // same site: first contact only
    t.touch(99, "mem:ram");   // unknown id (stale tag): ignored
    t.touch(5, "bus:bus0", "mem:ram");
    co_await delay(Time::us(3));
    t.detect(5, "hw.ecc:ram", "mem:ram");
    t.detect(5, "e2e:7");     // later detection: ignored
  }(tracker));
  kernel.run();

  ASSERT_EQ(tracker.faults().size(), 1u);
  const obs::FaultProvenance* fp = tracker.find(5);
  ASSERT_NE(fp, nullptr);
  ASSERT_EQ(fp->nodes.size(), 4u);
  EXPECT_EQ(fp->nodes[0].kind, obs::HopKind::kInjection);
  EXPECT_EQ(fp->nodes[1].site, "mem:ram");
  EXPECT_EQ(fp->nodes[2].site, "bus:bus0");
  EXPECT_EQ(fp->nodes[2].parent, 1);
  EXPECT_EQ(fp->nodes[2].depth, 2u);
  EXPECT_EQ(fp->nodes[3].kind, obs::HopKind::kDetection);
  EXPECT_TRUE(fp->detected());
  EXPECT_EQ(fp->containment_site(), "hw.ecc:ram");
  ASSERT_TRUE(fp->detection_latency().has_value());
  EXPECT_EQ(*fp->detection_latency(), Time::us(5));
  EXPECT_EQ(fp->depth(), 2u);
  EXPECT_EQ(fp->breadth(), 4u);
}

TEST(Provenance, AmbientDetectionAbandonAndLatentFaults) {
  Kernel kernel;
  obs::ProvenanceTracker tracker(kernel);
  tracker.begin_fault(1, "a#0", "inject:a");
  tracker.begin_fault(2, "b#1", "inject:b");
  tracker.begin_fault(3, "c#2", "inject:c");
  tracker.detect(2, "wdgm:w:e");
  tracker.abandon(3);  // skipped application: no trace survives
  EXPECT_EQ(tracker.find(3), nullptr);
  // Ambient detection hits every live undetected fault exactly once.
  tracker.detect_all("e2e:9");
  tracker.detect_all("e2e:9");
  ASSERT_NE(tracker.find(1), nullptr);
  EXPECT_EQ(tracker.find(1)->containment_site(), "e2e:9");
  EXPECT_EQ(tracker.find(1)->nodes.size(), 2u);
  EXPECT_EQ(tracker.find(2)->containment_site(), "wdgm:w:e");  // kept the first
  // A never-detected fault is latent: no latency, empty containment.
  tracker.begin_fault(7, "latent#6", "inject:z");
  EXPECT_FALSE(tracker.find(7)->detected());
  EXPECT_FALSE(tracker.find(7)->detection_latency().has_value());
  EXPECT_TRUE(tracker.find(7)->containment_site().empty());
}

TEST(Provenance, EncodeDecodeRoundTripsAndRejectsGarbage) {
  Kernel kernel;
  obs::ProvenanceTracker tracker(kernel);
  kernel.spawn("driver", [](obs::ProvenanceTracker& t) -> Coro {
    t.begin_fault(12, "can_frame_corruption#11", "inject:can_frame_corruption");
    co_await delay(Time::us(7));
    t.touch(12, "can:can0");
    t.touch(12, "mem:ram", "can:can0");
    co_await delay(Time::us(1));
    t.detect(12, "fw.link_check:airbag");
  }(tracker));
  kernel.run();

  const obs::FaultProvenance* fp = tracker.find(12);
  ASSERT_NE(fp, nullptr);
  const std::string text = fp->encode();
  const obs::FaultProvenance back = obs::FaultProvenance::decode(12, text);
  EXPECT_EQ(back.fault_id, fp->fault_id);
  EXPECT_EQ(back.label, fp->label);
  ASSERT_EQ(back.nodes.size(), fp->nodes.size());
  for (std::size_t i = 0; i < fp->nodes.size(); ++i) {
    EXPECT_EQ(back.nodes[i].site, fp->nodes[i].site);
    EXPECT_EQ(back.nodes[i].kind, fp->nodes[i].kind);
    EXPECT_EQ(back.nodes[i].at, fp->nodes[i].at);
    EXPECT_EQ(back.nodes[i].parent, fp->nodes[i].parent);
    EXPECT_EQ(back.nodes[i].depth, fp->nodes[i].depth);
  }
  EXPECT_EQ(back.encode(), text);  // stable re-encode
  EXPECT_THROW((void)obs::FaultProvenance::decode(1, "no-bar-delimiter"),
               vps::support::InvariantError);
  EXPECT_THROW((void)obs::FaultProvenance::decode(1, "label|site,X,5,0"),
               vps::support::InvariantError);
}

TEST(Provenance, ExportsAreByteIdenticalAcrossReruns) {
  const auto build = [] {
    Kernel kernel;
    obs::ProvenanceTracker tracker(kernel);
    kernel.spawn("driver", [](obs::ProvenanceTracker& t) -> Coro {
      t.begin_fault(3, "reg_flip#2", "inject:register_bit_flip");
      co_await delay(Time::ns(500));
      t.touch(3, "cpu:core.r5");
      t.begin_fault(4, "mem_flip#3", "inject:mem_bit_flip");
      co_await delay(Time::ns(500));
      t.detect(4, "hw.ecc:ram");
    }(tracker));
    kernel.run();
    return std::pair<std::string, std::string>(tracker.to_jsonl(), tracker.to_dot());
  };
  const auto [jsonl1, dot1] = build();
  const auto [jsonl2, dot2] = build();
  EXPECT_EQ(jsonl1, jsonl2);
  EXPECT_EQ(dot1, dot2);
  // Schema spot checks.
  EXPECT_NE(jsonl1.find("\"fault\":3"), std::string::npos);
  EXPECT_NE(jsonl1.find("\"detected\":false"), std::string::npos);
  EXPECT_NE(jsonl1.find("\"latency_ps\":"), std::string::npos);
  EXPECT_NE(dot1.find("digraph provenance"), std::string::npos);
  EXPECT_NE(dot1.find("cluster_f1"), std::string::npos);
}

TEST(Provenance, WatchSignalReportsPoisonedCommitsOnly) {
  Kernel kernel;
  Signal<std::uint32_t> sig(kernel, "squib", 0);
  obs::ProvenanceTracker tracker(kernel);
  tracker.watch_signal(sig, "sig:squib");
  tracker.begin_fault(9, "stuck#8", "inject:signal_stuck");
  kernel.spawn("driver", [](Signal<std::uint32_t>& s) -> Coro {
    s.write(1);  // clean commit: no provenance contact
    co_await delay(Time::us(1));
    s.force_poisoned(7, 9);
  }(sig));
  kernel.run();
  const obs::FaultProvenance* fp = tracker.find(9);
  ASSERT_NE(fp, nullptr);
  ASSERT_EQ(fp->nodes.size(), 2u);
  EXPECT_EQ(fp->nodes[1].site, "sig:squib");
  EXPECT_EQ(fp->nodes[1].at, Time::us(1));
}

// --------------------------------------------------------------------------
// Provenance through the CAPS scenario (end-to-end)
// --------------------------------------------------------------------------

TEST(Provenance, CapsScenarioTracesCanCorruptionToFirmwareLinkCheck) {
  vps::apps::CapsScenario scenario(
      vps::apps::CapsConfig{.duration = Time::ms(10), .provenance = true});
  // The golden run applies no fault: provenance must stay empty.
  const fault::Observation golden = scenario.run(nullptr, 42);
  EXPECT_TRUE(golden.provenance.empty());

  // Source-side CAN corruption (post-protection): the wire CRC is clean, so
  // only the firmware's complement/alive check can catch it.
  fault::FaultDescriptor corruption;
  corruption.id = 11;
  corruption.type = fault::FaultType::kCanFrameCorruption;
  corruption.persistence = fault::Persistence::kIntermittent;
  corruption.inject_at = Time::ms(3);
  const fault::Observation traced = scenario.run(&corruption, 42);
  ASSERT_EQ(traced.provenance.size(), 1u);
  const obs::FaultProvenance& fp = traced.provenance[0];
  EXPECT_EQ(fp.fault_id, fault::provenance_token(corruption));
  EXPECT_EQ(fp.label, "can_frame_corruption#11");
  EXPECT_EQ(fp.injected_at(), Time::ms(3));
  ASSERT_TRUE(fp.detected());
  const std::string site(fp.containment_site());
  EXPECT_TRUE(site == "fw.link_check:airbag" || site == "fw.alive_check:airbag") << site;
  // The corrupted frame crossed the CAN bus before the firmware saw it.
  bool touched_can = false;
  for (const auto& n : fp.nodes) touched_can |= n.site == "can:can0";
  EXPECT_TRUE(touched_can);
  // Detection latency is measured in simulated time, after injection.
  ASSERT_TRUE(fp.detection_latency().has_value());
  EXPECT_GT(*fp.detection_latency(), Time::zero());
  EXPECT_LT(*fp.detection_latency(), Time::ms(7));

  // Same fault, same seed: the propagation DAG is reproducible bit-for-bit.
  const fault::Observation again = scenario.run(&corruption, 42);
  ASSERT_EQ(again.provenance.size(), 1u);
  EXPECT_EQ(obs::provenance_to_json(again.provenance[0]), obs::provenance_to_json(fp));
}

}  // namespace
