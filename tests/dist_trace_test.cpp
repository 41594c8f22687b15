// Run-lifecycle tracing (dist/trace + protocol v3): writer/parser round
// trips, the pinned file format, the min-delay clock-offset estimator, chain
// summaries and incomplete-chain detection, the merged timeline and its
// determinism, the optional v3 wire
// fields (absent = zero, v2-shaped payloads still decode), locale-safe
// double formatting, and the headline pin — a traced campaign through the
// server folds bitwise identical to an untraced one and to the solo
// in-process run.

#include <gtest/gtest.h>

#include <cerrno>
#include <clocale>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "vps/apps/caps.hpp"
#include "vps/apps/registry.hpp"
#include "vps/dist/coordinator.hpp"
#include "vps/dist/protocol.hpp"
#include "vps/dist/server.hpp"
#include "vps/dist/trace.hpp"
#include "vps/dist/worker.hpp"
#include "vps/fault/campaign.hpp"
#include "vps/fault/checkpoint.hpp"
#include "vps/fault/codec.hpp"
#include "vps/obs/trace.hpp"

namespace {

using namespace vps;
using vps::dist::DistTrace;
using vps::dist::DistTraceWriter;

constexpr const char* kHost = "127.0.0.1";

// Fresh per-test trace directory under the working dir (ctest runs each
// binary in its own process, so a name keyed on the test is collision-free).
std::string fresh_dir(const std::string& name) {
  const std::string dir = "dist_trace_test_" + name;
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directory(dir);
  return dir;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream(path, std::ios::binary) << text;
}

/// The merged timeline as a ChromeTraceSink writes it to `path`.
std::string merged_chrome(const DistTrace& trace, const std::string& path) {
  obs::ChromeTraceSink sink(path);
  dist::merge_to_chrome(trace, sink);
  EXPECT_TRUE(sink.close());
  return read_file(path);
}

/// Keeps every event the merge records.
struct RecordingSink final : obs::TraceSink {
  void record(const obs::TraceEvent& event) override { events.push_back(event); }
  std::vector<obs::TraceEvent> events;
};

std::size_t count(const std::string& text, const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t at = text.find(needle); at != std::string::npos;
       at = text.find(needle, at + 1)) {
    ++n;
  }
  return n;
}

TEST(SaturatingElapsed, ClampsReversedTimestamps) {
  static_assert(dist::saturating_elapsed_ns(100, 350) == 250);
  static_assert(dist::saturating_elapsed_ns(350, 100) == 0);  // requeue reset begin
  static_assert(dist::saturating_elapsed_ns(7, 7) == 0);
  EXPECT_EQ(dist::saturating_elapsed_ns(0, UINT64_MAX), UINT64_MAX);
}

TEST(DistTraceWriter, NullWhenDisabled) {
  EXPECT_EQ(DistTraceWriter::open("", "server"), nullptr);
}

TEST(DistTraceWriter, NullWhenTheFileCannotBeOpened) {
  EXPECT_EQ(DistTraceWriter::open("dist_trace_test_no_such_dir/sub", "worker"), nullptr);
}

TEST(DistTraceWriter, RoundTripsSpansEventsAndClockrefs) {
  const std::string dir = fresh_dir("roundtrip");
  {
    auto w = DistTraceWriter::open(dir, "server");
    ASSERT_NE(w, nullptr);
    w->span("admission", 0xabcdef, 3, 1000, 250);
    w->span("stream", 0xabcdef, 3, 2000, 0);
    w->event("requeue", 0xabcdef, 3, 1500, {{"pid", 42}, {"requeues", 1}});
    w->clockref("worker", 42, 0, 5000, 4000);
  }
  const std::vector<std::string> files = dist::list_trace_files(dir);
  ASSERT_EQ(files.size(), 1u);
  const DistTrace trace = dist::load_dist_trace(files);
  ASSERT_EQ(trace.sources.size(), 1u);
  const dist::DistTraceSource& src = trace.sources[0];
  EXPECT_EQ(src.tier, "server");
  EXPECT_EQ(src.pid, static_cast<std::uint64_t>(::getpid()));
  ASSERT_EQ(src.events.size(), 3u);
  EXPECT_TRUE(src.events[0].is_span);
  EXPECT_EQ(src.events[0].name, "admission");
  EXPECT_EQ(src.events[0].tok, 0xabcdefu);
  EXPECT_EQ(src.events[0].run, 3u);
  EXPECT_EQ(src.events[0].ts_ns, 1000u);
  EXPECT_EQ(src.events[0].dur_ns, 250u);
  EXPECT_TRUE(src.events[1].is_span);
  EXPECT_EQ(src.events[1].dur_ns, 0u);
  EXPECT_FALSE(src.events[2].is_span);
  EXPECT_EQ(src.events[2].name, "requeue");
  ASSERT_EQ(src.events[2].extra.size(), 2u);
  EXPECT_EQ(src.events[2].extra[0].first, "pid");
  EXPECT_EQ(src.events[2].extra[0].second, 42u);
  ASSERT_EQ(src.clockrefs.size(), 1u);
  EXPECT_EQ(src.clockrefs[0].peer_tier, "worker");
  EXPECT_EQ(src.clockrefs[0].peer_pid, 42u);
  EXPECT_EQ(src.clockrefs[0].local_ns, 5000u);
  EXPECT_EQ(src.clockrefs[0].remote_ns, 4000u);
}

TEST(DistTraceWriter, SkipsTornTrailingLine) {
  const std::string dir = fresh_dir("torn");
  std::string path;
  {
    auto w = DistTraceWriter::open(dir, "worker");
    ASSERT_NE(w, nullptr);
    w->span("replay", 9, 0, 100, 50);
    path = w->path();
  }
  // Simulate a SIGKILL mid-write: a torn, unterminated JSON fragment.
  std::FILE* f = std::fopen(path.c_str(), "ab");
  ASSERT_NE(f, nullptr);
  std::fputs("{\"kind\":\"span\",\"phase\":\"rep", f);
  std::fclose(f);
  const DistTrace trace = dist::load_dist_trace({path});
  ASSERT_EQ(trace.sources.size(), 1u);
  EXPECT_EQ(trace.sources[0].events.size(), 1u);  // torn line skipped, not fatal
}

TEST(ClockAlignment, OffsetIsMinOverSamples) {
  const std::string dir = fresh_dir("offset");
  const std::uint64_t self = static_cast<std::uint64_t>(::getpid());
  {
    auto server = DistTraceWriter::open(dir, "server");
    auto worker = DistTraceWriter::open(dir, "worker");
    ASSERT_NE(server, nullptr);
    ASSERT_NE(worker, nullptr);
    worker->span("replay", 1, 0, 10'000, 100);
    // Two samples about this worker pid: offsets 600 and 650 — the smaller
    // one saw less network delay, so it is the tighter (correct) estimate.
    server->clockref("worker", self, 0, 1'000, 400);
    server->clockref("worker", self, 0, 2'000, 1'350);
  }
  const DistTrace trace = dist::load_dist_trace(dist::list_trace_files(dir));
  ASSERT_EQ(trace.sources.size(), 2u);
  const auto& srv = trace.sources[0];  // sorted by tier: server < worker
  const auto& wrk = trace.sources[1];
  ASSERT_EQ(srv.tier, "server");
  ASSERT_EQ(wrk.tier, "worker");
  EXPECT_TRUE(srv.aligned);
  EXPECT_EQ(srv.offset_ns, 0);  // the server is the reference clock
  EXPECT_TRUE(wrk.aligned);
  EXPECT_EQ(wrk.offset_ns, 600);
}

TEST(ClockAlignment, SourceWithoutSamplesStaysUnaligned) {
  const std::string dir = fresh_dir("unaligned");
  {
    auto server = DistTraceWriter::open(dir, "server");
    auto client = DistTraceWriter::open(dir, "client", 0x77);
    ASSERT_NE(server, nullptr);
    ASSERT_NE(client, nullptr);
    client->span("submit", 0x77, 0, 5'000, 0);
    server->span("admission", 0x77, 0, 6'000, 10);
  }
  const DistTrace trace = dist::load_dist_trace(dist::list_trace_files(dir));
  ASSERT_EQ(trace.sources.size(), 2u);
  EXPECT_FALSE(trace.sources[0].aligned);  // client: no clockref about it
  EXPECT_EQ(trace.sources[0].offset_ns, 0);
  EXPECT_TRUE(trace.sources[1].aligned);  // server: reference
}

TEST(Chains, SummaryAndIncompleteDetection) {
  const std::string dir = fresh_dir("chains");
  {
    auto w = DistTraceWriter::open(dir, "server");
    ASSERT_NE(w, nullptr);
    // Run 0: all six hops. Run 1: replay and fold lost.
    for (const char* phase : dist::kChainPhases) w->span(phase, 5, 0, 100, 0);
    w->span("submit", 5, 1, 200, 0);
    w->span("admission", 5, 1, 210, 5);
    w->span("dispatch", 5, 1, 220, 5);
    w->span("stream", 5, 1, 230, 0);
    // Events never count as chain hops.
    w->event("requeue", 5, 1, 240);
  }
  const DistTrace trace = dist::load_dist_trace(dist::list_trace_files(dir));
  const std::string summary = dist::chains_summary(trace);
  EXPECT_NE(summary.find("run=0"), std::string::npos);
  EXPECT_NE(summary.find("complete=yes"), std::string::npos);
  EXPECT_NE(summary.find("complete=no"), std::string::npos);
  const std::vector<std::string> missing = dist::incomplete_chains(trace);
  ASSERT_EQ(missing.size(), 1u);
  EXPECT_NE(missing[0].find("run=1"), std::string::npos);
  EXPECT_NE(missing[0].find("replay"), std::string::npos);
  EXPECT_NE(missing[0].find("fold"), std::string::npos);
  EXPECT_EQ(missing[0].find("submit"), std::string::npos);
}

TEST(Chains, MergeIsDeterministic) {
  const std::string dir = fresh_dir("merge");
  {
    auto server = DistTraceWriter::open(dir, "server");
    auto worker = DistTraceWriter::open(dir, "worker");
    ASSERT_NE(server, nullptr);
    ASSERT_NE(worker, nullptr);
    server->clockref("worker", static_cast<std::uint64_t>(::getpid()), 0, 1'000, 900);
    server->span("admission", 1, 0, 1'000, 100);
    worker->span("replay", 1, 0, 1'050, 40);
    server->event("chaos", 0, 0, 1'200, {{"frames_dropped", 2}});
  }
  const std::vector<std::string> files = dist::list_trace_files(dir);
  const std::string a = merged_chrome(dist::load_dist_trace(files), dir + "/a.json");
  const std::string b = merged_chrome(dist::load_dist_trace(files), dir + "/b.json");
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);
  EXPECT_NE(a.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(a.find("admission"), std::string::npos);
  EXPECT_NE(a.find("replay"), std::string::npos);
}

// --- the file format: today's lines, byte for byte -------------------------

// A job token that needs all 64 bits (no double holds it exactly).
constexpr std::uint64_t kWideTok = 0xfedcba9876543210;

TEST(DistTraceFormat, WriterEmitsTheFormatByteForByte) {
  const std::string dir = fresh_dir("format_write");
  const std::string pid = std::to_string(::getpid());
  std::string server_path;
  std::string client_path;
  {
    auto server = DistTraceWriter::open(dir, "server");
    auto client = DistTraceWriter::open(dir, "client", kWideTok);
    ASSERT_NE(server, nullptr);
    ASSERT_NE(client, nullptr);
    server->span("admission", kWideTok, 3, 1000, 250);
    server->event("requeue", kWideTok, 3, 1500, {{"job", 1}, {"requeues", 2}, {"pid", 200}});
    server->event("chaos", 0, 0, 1600);
    server->clockref("worker", 200, 0, 5000, 4400);
    server->clockref("client", 0, kWideTok, 6000, 5000);
    client->span("submit", kWideTok, 3, 100, 0);
    server_path = server->path();
    client_path = client->path();
  }
  EXPECT_EQ(server_path, dir + "/trace.server." + pid + ".jsonl");
  EXPECT_EQ(client_path, dir + "/trace.client." + pid + ".18364758544493064720.jsonl");
  EXPECT_EQ(read_file(server_path),
            R"({"kind":"trace_meta","tier":"server","pid":)" + pid + "}\n" +
                R"({"kind":"span","phase":"admission","tok":18364758544493064720,"run":3,"ts_ns":1000,"dur_ns":250})"
                "\n"
                R"({"kind":"event","name":"requeue","tok":18364758544493064720,"run":3,"ts_ns":1500,"job":1,"requeues":2,"pid":200})"
                "\n"
                R"({"kind":"event","name":"chaos","tok":0,"run":0,"ts_ns":1600})"
                "\n"
                R"({"kind":"clockref","peer_tier":"worker","peer_pid":200,"local_ns":5000,"remote_ns":4400})"
                "\n"
                R"({"kind":"clockref","peer_tier":"client","peer_tok":18364758544493064720,"local_ns":6000,"remote_ns":5000})"
                "\n");
  EXPECT_EQ(read_file(client_path),
            R"({"kind":"trace_meta","tier":"client","pid":)" + pid +
                R"(,"tok":18364758544493064720})"
                "\n"
                R"({"kind":"span","phase":"submit","tok":18364758544493064720,"run":3,"ts_ns":100,"dur_ns":0})"
                "\n");
}

/// Four sources in today's format, written as literal lines: a server
/// (meta without tok) with clockrefs about a worker (by pid) and a client
/// (by tok), that worker, that client (meta with tok), and a second client
/// no clockref mentions.
std::string write_literal_trace(const std::string& name) {
  const std::string dir = fresh_dir(name);
  write_file(dir + "/trace.server.100.jsonl",
             R"({"kind":"trace_meta","tier":"server","pid":100})"
             "\n"
             R"({"kind":"span","phase":"admission","tok":18364758544493064720,"run":3,"ts_ns":1000,"dur_ns":250})"
             "\n"
             R"({"kind":"span","phase":"stream","tok":18364758544493064720,"run":3,"ts_ns":2000,"dur_ns":0})"
             "\n"
             R"({"kind":"event","name":"requeue","tok":18364758544493064720,"run":3,"ts_ns":1500,"job":1,"requeues":2,"pid":200})"
             "\n"
             R"({"kind":"clockref","peer_tier":"worker","peer_pid":200,"local_ns":5000,"remote_ns":4400})"
             "\n"
             R"({"kind":"clockref","peer_tier":"client","peer_tok":18364758544493064720,"local_ns":6000,"remote_ns":5000})"
             "\n");
  write_file(dir + "/trace.worker.200.jsonl",
             R"({"kind":"trace_meta","tier":"worker","pid":200})"
             "\n"
             R"({"kind":"span","phase":"replay","tok":18364758544493064720,"run":3,"ts_ns":900,"dur_ns":40})"
             "\n");
  write_file(dir + "/trace.client.300.18364758544493064720.jsonl",
             R"({"kind":"trace_meta","tier":"client","pid":300,"tok":18364758544493064720})"
             "\n"
             R"({"kind":"span","phase":"submit","tok":18364758544493064720,"run":3,"ts_ns":100,"dur_ns":0})"
             "\n");
  write_file(dir + "/trace.client.400.119.jsonl",
             R"({"kind":"trace_meta","tier":"client","pid":400,"tok":119})"
             "\n"
             R"({"kind":"span","phase":"submit","tok":119,"run":0,"ts_ns":50,"dur_ns":0})"
             "\n");
  return dir;
}

TEST(DistTraceFormat, LiteralLinesInTodaysFormatLoad) {
  const DistTrace trace = dist::load_dist_trace(dist::list_trace_files(
      write_literal_trace("format_read")));
  ASSERT_EQ(trace.sources.size(), 4u);
  // Sorted by (tier, pid, tok).
  const dist::DistTraceSource& client = trace.sources[0];
  const dist::DistTraceSource& lone = trace.sources[1];
  const dist::DistTraceSource& server = trace.sources[2];
  const dist::DistTraceSource& worker = trace.sources[3];

  EXPECT_EQ(server.tier, "server");
  EXPECT_EQ(server.pid, 100u);
  EXPECT_EQ(server.tok, 0u);  // trace_meta without tok
  ASSERT_EQ(server.events.size(), 3u);
  EXPECT_TRUE(server.events[0].is_span);
  EXPECT_EQ(server.events[0].name, "admission");
  EXPECT_EQ(server.events[0].tok, kWideTok);
  EXPECT_EQ(server.events[0].run, 3u);
  EXPECT_EQ(server.events[0].ts_ns, 1000u);
  EXPECT_EQ(server.events[0].dur_ns, 250u);
  EXPECT_FALSE(server.events[2].is_span);
  EXPECT_EQ(server.events[2].name, "requeue");
  EXPECT_EQ(server.events[2].ts_ns, 1500u);
  const std::vector<std::pair<std::string, std::uint64_t>> extra = {
      {"job", 1}, {"requeues", 2}, {"pid", 200}};
  EXPECT_EQ(server.events[2].extra, extra);
  ASSERT_EQ(server.clockrefs.size(), 2u);
  EXPECT_EQ(server.clockrefs[0].peer_tier, "worker");
  EXPECT_EQ(server.clockrefs[0].peer_pid, 200u);
  EXPECT_EQ(server.clockrefs[0].peer_tok, 0u);  // clockref without peer_tok
  EXPECT_EQ(server.clockrefs[0].local_ns, 5000u);
  EXPECT_EQ(server.clockrefs[0].remote_ns, 4400u);
  EXPECT_EQ(server.clockrefs[1].peer_tier, "client");
  EXPECT_EQ(server.clockrefs[1].peer_pid, 0u);  // clockref without peer_pid
  EXPECT_EQ(server.clockrefs[1].peer_tok, kWideTok);

  EXPECT_EQ(client.tier, "client");
  EXPECT_EQ(client.pid, 300u);
  EXPECT_EQ(client.tok, kWideTok);  // trace_meta with tok
  EXPECT_EQ(lone.pid, 400u);
  EXPECT_EQ(lone.tok, 119u);
  EXPECT_EQ(worker.tier, "worker");
  ASSERT_EQ(worker.events.size(), 1u);
  EXPECT_EQ(worker.events[0].dur_ns, 40u);

  // Old traces still align: the worker by pid, the client by token.
  EXPECT_TRUE(server.aligned);
  EXPECT_TRUE(worker.aligned);
  EXPECT_EQ(worker.offset_ns, 600);
  EXPECT_TRUE(client.aligned);
  EXPECT_EQ(client.offset_ns, 1000);
  EXPECT_FALSE(lone.aligned);
}

TEST(MergedTimeline, EventsAreAlignedRebasedAndSorted) {
  const DistTrace trace = dist::load_dist_trace(dist::list_trace_files(
      write_literal_trace("timeline_events")));
  RecordingSink sink;
  dist::merge_to_chrome(trace, sink);
  ASSERT_EQ(sink.events.size(), 6u);
  const std::vector<obs::TraceEvent>& e = sink.events;
  // Aligned: lone submit 50 (epoch), admission 1000, client submit 100+1000,
  // worker replay 900+600, requeue 1500, stream 2000. Rebased by 50; the
  // tie at 1450 breaks on the name.
  const char* const names[] = {"submit", "admission", "submit", "replay", "requeue", "stream"};
  const std::uint64_t at_ns[] = {0, 950, 1050, 1450, 1450, 1950};
  for (std::size_t i = 0; i < e.size(); ++i) {
    EXPECT_EQ(e[i].name, names[i]) << i;
    EXPECT_EQ(e[i].ts, sim::Time::ns(at_ns[i])) << i;
    EXPECT_STREQ(e[i].category, "dist") << i;
  }
  EXPECT_EQ(e[0].track, "client 400 tok=0000000000000077 (unaligned)");
  EXPECT_EQ(e[1].track, "server 100");
  EXPECT_EQ(e[2].track, "client 300 tok=fedcba9876543210");
  EXPECT_EQ(e[3].track, "worker 200");

  // Spans with a duration are complete events; zero-duration spans and
  // events are instants.
  EXPECT_EQ(e[1].kind, obs::EventKind::kComplete);
  EXPECT_EQ(e[1].dur, sim::Time::ns(250));
  EXPECT_EQ(e[3].kind, obs::EventKind::kComplete);
  EXPECT_EQ(e[3].dur, sim::Time::ns(40));
  for (const std::size_t i : {0u, 2u, 4u, 5u}) EXPECT_EQ(e[i].kind, obs::EventKind::kInstant) << i;

  // Args: tok as 16 hex digits, run, then the extras.
  ASSERT_EQ(e[0].args.size(), 2u);
  EXPECT_EQ(e[0].args[0].key, "tok");
  EXPECT_EQ(e[0].args[0].text, "0000000000000077");
  EXPECT_EQ(e[0].args[1].key, "run");
  EXPECT_EQ(e[0].args[1].num, 0.0);
  ASSERT_EQ(e[4].args.size(), 5u);
  EXPECT_EQ(e[4].args[0].text, "fedcba9876543210");
  EXPECT_EQ(e[4].args[1].num, 3.0);
  EXPECT_EQ(e[4].args[2].key, "job");
  EXPECT_EQ(e[4].args[3].key, "requeues");
  EXPECT_EQ(e[4].args[3].num, 2.0);
  EXPECT_EQ(e[4].args[4].key, "pid");
  EXPECT_EQ(e[4].args[4].num, 200.0);
}

TEST(MergedTimeline, OneLanePerSourceInOneProcess) {
  const std::string dir = write_literal_trace("timeline_lanes");
  const std::string json =
      merged_chrome(dist::load_dist_trace(dist::list_trace_files(dir)), dir + "/merged.json");
  EXPECT_EQ(count(json, R"("name":"thread_name")"), 4u);
  for (const char* lane : {"client 400 tok=0000000000000077 (unaligned)", "server 100",
                           "client 300 tok=fedcba9876543210", "worker 200"}) {
    EXPECT_EQ(count(json, std::string(R"("args":{"name":")") + lane + "\"}"), 1u) << lane;
  }
  EXPECT_EQ(count(json, R"("pid":1,)"), 4u + 6u);  // every lane and event in one process
  EXPECT_EQ(count(json, R"("ph":"X")"), 2u);
  EXPECT_EQ(count(json, R"("ph":"i")"), 4u);
  EXPECT_NE(json.find(R"("tok":"fedcba9876543210")"), std::string::npos);
}

TEST(ProtocolV3, OptionalFieldsRoundTripAndDefaultToZero) {
  // ASSIGN: ts_ns rides along when set, is absent from the bytes when not.
  dist::AssignMsg assign;
  assign.job = 4;
  assign.run = 9;
  assign.ts_ns = 123'456'789;
  const dist::AssignMsg assign2 = dist::decode_assign(dist::encode_assign(assign));
  EXPECT_EQ(assign2.ts_ns, 123'456'789u);
  assign.ts_ns = 0;
  const std::string v2_shaped = dist::encode_assign(assign);
  EXPECT_EQ(v2_shaped.find("ts_ns"), std::string::npos);
  EXPECT_EQ(dist::decode_assign(v2_shaped).ts_ns, 0u);

  // RESULT: replay_ns from the worker, queue_ns spliced by the server.
  dist::ResultMsg result;
  result.job = 4;
  result.run = 9;
  result.replay_ns = 5'000;
  result.queue_ns = 7'000;
  const dist::ResultMsg result2 = dist::decode_result(dist::encode_result(result));
  EXPECT_EQ(result2.replay_ns, 5'000u);
  EXPECT_EQ(result2.queue_ns, 7'000u);
  result.replay_ns = 0;
  result.queue_ns = 0;
  const std::string result_v2 = dist::encode_result(result);
  EXPECT_EQ(result_v2.find("replay_ns"), std::string::npos);
  EXPECT_EQ(result_v2.find("queue_ns"), std::string::npos);
  EXPECT_EQ(dist::decode_result(result_v2).replay_ns, 0u);

  // REGISTER and SUBMIT: the handshake clock samples.
  dist::RegisterMsg reg;
  reg.pid = 11;
  reg.ts_ns = 42;
  EXPECT_EQ(dist::decode_register(dist::encode_register(reg)).ts_ns, 42u);
  reg.ts_ns = 0;
  EXPECT_EQ(dist::encode_register(reg).find("ts_ns"), std::string::npos);

  dist::SubmitMsg submit;
  submit.tenant = "t";
  submit.scenario_spec = "caps";
  submit.scenario = "caps";
  submit.ts_ns = 99;
  EXPECT_EQ(dist::decode_submit(dist::encode_submit(submit)).ts_ns, 99u);

  // SETUP: the correlation token echo.
  dist::SetupMsg setup;
  setup.scenario_spec = "caps";
  setup.job_token = 0xdeadbeefcafe;
  EXPECT_EQ(dist::decode_setup(dist::encode_setup(setup)).job_token, 0xdeadbeefcafeu);
  setup.job_token = 0;
  EXPECT_EQ(dist::encode_setup(setup).find("job_token"), std::string::npos);
}

TEST(LocaleSafety, DoublesSpellTheRadixDot) {
  // The "C"-locale invariants hold everywhere; the comma-locale half below
  // additionally needs a localized libc and skips where none is installed.
  EXPECT_NE(obs::format_double(0.25, 6).find('.'), std::string::npos);
  {
    std::string line = "{\"kind\":\"t\"";
    fault::codec::append_double(line, "x", 0.1);
    line += "}";
    EXPECT_EQ(fault::codec::LineParser(line).hexdouble("x"), 0.1);
  }

  const char* saved = std::setlocale(LC_NUMERIC, nullptr);
  const std::string restore = saved != nullptr ? saved : "C";
  const char* comma = nullptr;
  for (const char* cand : {"de_DE.UTF-8", "de_DE", "fr_FR.UTF-8", "fr_FR"}) {
    if (std::setlocale(LC_NUMERIC, cand) != nullptr &&
        std::strcmp(std::localeconv()->decimal_point, ".") != 0) {
      comma = cand;
      break;
    }
  }
  if (comma == nullptr) {
    std::setlocale(LC_NUMERIC, restore.c_str());
    GTEST_SKIP() << "no comma-decimal locale installed";
  }

  // Scrape/JSONL formatting must not leak the locale's comma.
  const std::string text = obs::format_double(3.141592653589793, 6);
  EXPECT_NE(text.find('.'), std::string::npos) << text;
  EXPECT_EQ(text.find(','), std::string::npos) << text;

  // Hexfloat doubles written under "C" must read back bitwise under a comma
  // locale and vice versa (append_double normalizes, hexdouble localizes).
  for (const double value : {0.1, 1.5, -2.75e-3, 3.141592653589793}) {
    std::string line = "{\"kind\":\"t\"";
    fault::codec::append_double(line, "x", value);
    line += "}";
    EXPECT_NE(line.find('.'), std::string::npos) << line;
    EXPECT_EQ(line.find(','), std::string::npos) << line;
    const double back = fault::codec::LineParser(line).hexdouble("x");
    std::uint64_t want = 0;
    std::uint64_t got = 0;
    std::memcpy(&want, &value, sizeof want);
    std::memcpy(&got, &back, sizeof got);
    EXPECT_EQ(got, want) << line;
  }
  std::setlocale(LC_NUMERIC, restore.c_str());
}

// --- the bitwise pin: tracing is pure observation ---------------------------

pid_t fork_pool_worker(std::uint16_t port, const std::string& trace_dir) {
  const pid_t pid = ::fork();
  if (pid != 0) return pid;
  for (int fd = 3; fd < 1024; ++fd) ::close(fd);
  dist::PoolConfig pc;
  pc.host = kHost;
  pc.port = port;
  pc.backoff_initial_ms = 20;
  pc.backoff_max_ms = 150;
  pc.max_reconnects = 40;
  pc.idle_timeout_ms = 2000;
  pc.trace_dir = trace_dir;
  const int code = dist::serve_pool(pc, [](const dist::SetupMsg& setup) {
    return vps::apps::make_scenario(setup.scenario_spec);
  });
  ::_exit(code);
}

void reap(pid_t pid) {
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
}

std::string folded_jsonl(const std::string& scenario, const fault::CampaignConfig& cfg,
                         const fault::Observation& golden, const fault::CampaignResult& result) {
  fault::CampaignCheckpoint cp;
  cp.driver = "parallel_campaign";
  cp.scenario = scenario;
  cp.config = cfg;
  cp.golden = golden;
  cp.records = result.records;
  return to_jsonl(cp);
}

TEST(TracedService, FoldBitwiseIdenticalTracedOrNot) {
  const std::string dir = fresh_dir("e2e");
  fault::CampaignConfig cfg;
  cfg.runs = 24;
  cfg.seed = 7;
  cfg.batch_size = 8;
  const fault::ScenarioFactory factory = [] {
    return std::make_unique<apps::CapsScenario>(apps::CapsConfig{.crash = true});
  };
  const fault::CampaignResult solo = fault::ParallelCampaign(factory, cfg).run();

  // Untraced server + pool on one port, traced on another. Workers are
  // forked before either serve thread starts (fork + threads don't mix).
  dist::ServerConfig plain_sc;
  dist::ServerConfig traced_sc;
  traced_sc.trace_dir = dir;
  dist::CampaignServer plain_server(plain_sc);
  dist::CampaignServer traced_server(traced_sc);
  std::vector<pid_t> pool;
  for (int i = 0; i < 2; ++i) pool.push_back(fork_pool_worker(plain_server.port(), ""));
  for (int i = 0; i < 2; ++i) pool.push_back(fork_pool_worker(traced_server.port(), dir));
  plain_server.start();
  traced_server.start();

  const std::string scenario = factory()->name();
  fault::Observation dist_golden;  // identical across tenants (same factory)
  const auto run_tenant = [&](std::uint16_t port, const char* tenant,
                              const std::string& trace_dir) {
    dist::DistConfig dc;
    dc.campaign = cfg;
    dc.server_host = kHost;
    dc.server_port = port;
    dc.tenant = tenant;
    dc.scenario_spec = "caps:crash";
    dc.trace_dir = trace_dir;
    dist::DistCampaign campaign(factory, dc);
    const fault::CampaignResult result = campaign.run();
    dist_golden = campaign.golden();
    return folded_jsonl(scenario, cfg, campaign.golden(), result);
  };
  const std::string untraced = run_tenant(plain_server.port(), "plain", "");
  const std::string traced = run_tenant(traced_server.port(), "traced", dir);

  plain_server.stop();
  traced_server.stop();
  for (pid_t pid : pool) reap(pid);

  const std::string golden = folded_jsonl(scenario, cfg, dist_golden, solo);
  EXPECT_EQ(untraced, traced);  // tracing moved no bit
  EXPECT_EQ(traced, golden);    // and the service matches the solo fold

  // Every tier left a file, every run a complete six-hop chain.
  const std::vector<std::string> files = dist::list_trace_files(dir);
  bool has_server = false;
  bool has_worker = false;
  bool has_client = false;
  for (const std::string& f : files) {
    has_server |= f.find("trace.server.") != std::string::npos;
    has_worker |= f.find("trace.worker.") != std::string::npos;
    has_client |= f.find("trace.client.") != std::string::npos;
  }
  EXPECT_TRUE(has_server);
  EXPECT_TRUE(has_worker);
  EXPECT_TRUE(has_client);
  const DistTrace trace = dist::load_dist_trace(files);
  const std::vector<std::string> missing = dist::incomplete_chains(trace);
  EXPECT_TRUE(missing.empty());
  for (const std::string& line : missing) ADD_FAILURE() << "incomplete chain: " << line;
  // And the merged timeline is well-formed + deterministic.
  const std::string merged = merged_chrome(trace, dir + "/a.json");
  EXPECT_EQ(merged, merged_chrome(dist::load_dist_trace(files), dir + "/b.json"));
  EXPECT_NE(merged.find("\"traceEvents\""), std::string::npos);
}

}  // namespace
