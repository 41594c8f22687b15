// Fault-tolerant campaign execution: kernel watchdog budgets terminating
// livelocked models as kTimeout, crash-isolated replays quarantining
// throwing scenarios as kSimCrash, checkpoint/resume producing results
// byte-identical to an uninterrupted campaign for both drivers, and the
// incremental CheckpointWriter whose every save equals to_jsonl() of the
// same record prefix.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "campaign_compare.hpp"
#include "checkpoint_saves.hpp"
#include "vps/apps/caps.hpp"
#include "vps/dist/protocol.hpp"
#include "vps/fault/campaign.hpp"
#include "vps/fault/checkpoint.hpp"
#include "vps/fault/codec.hpp"
#include "vps/obs/provenance.hpp"
#include "vps/sim/kernel.hpp"
#include "vps/support/crc.hpp"
#include "vps/support/ensure.hpp"

namespace {

using namespace vps::fault;
using vps::apps::CapsConfig;
using vps::apps::CapsScenario;
using vps::sim::Coro;
using vps::sim::Event;
using vps::sim::Kernel;
using vps::sim::RunBudget;
using vps::sim::RunStatus;
using vps::sim::StopReason;
using vps::sim::Time;
using vps::support::InvariantError;
using vps_test::expect_identical;
namespace codec = vps::fault::codec;

// --------------------------------------------------------------------------
// Livelocked model -> kTimeout (tentpole part 1, end to end)
// --------------------------------------------------------------------------

/// A tiny VP whose model livelocks under every injected fault: the fault
/// starts a delta-notification storm at inject_at, so without a watchdog
/// budget the replay would hang the campaign worker forever. The scenario's
/// detection logic never fires, making every timeout undetected-dangerous.
class LivelockScenario final : public Scenario {
 public:
  [[nodiscard]] std::string name() const override { return "livelock_probe"; }
  [[nodiscard]] Time duration() const override { return Time::us(100); }
  [[nodiscard]] std::vector<FaultType> fault_types() const override {
    return {FaultType::kSignalStuck};
  }
  [[nodiscard]] Observation run(const FaultDescriptor* fault, std::uint64_t) override {
    Kernel kernel;
    Event storm(kernel, "storm");
    std::uint64_t ticks = 0;
    kernel.spawn("workload", [](Kernel& k, std::uint64_t& ticks) -> Coro {
      while (k.now() < Time::us(100)) {
        co_await vps::sim::delay(Time::us(1));
        ++ticks;
      }
    }(kernel, ticks));
    if (fault != nullptr) {
      kernel.method("stuck_feedback", [&storm] { storm.notify(); }, {&storm},
                    /*initialize=*/false);
      kernel.spawn("fault", [](Event& storm, Time at) -> Coro {
        co_await vps::sim::delay(at);
        storm.notify();
      }(storm, fault->inject_at));
    }
    const RunStatus status =
        kernel.run(Time::us(100), RunBudget{.max_deltas_without_advance = 1000});
    Observation obs;
    obs.completed = !status.budget_exhausted();
    vps::support::Crc32 sig;
    sig.update_u64(ticks);
    obs.output_signature = sig.value();
    return obs;
  }
};

TEST(Resilience, LivelockedModelClassifiesAsTimeoutAndDragsDcDown) {
  LivelockScenario scenario;
  CampaignConfig cfg;
  cfg.runs = 12;
  cfg.seed = 3;
  cfg.location_buckets = 4;
  const auto result = Campaign(scenario, cfg).run();
  // Every fault livelocks the model; the budget terminated every replay.
  EXPECT_EQ(result.count(Outcome::kTimeout), 12u);
  EXPECT_EQ(result.runs_executed, 12u);
  // Undetected hangs are dangerous: DC must collapse to 0, not report 1.
  EXPECT_DOUBLE_EQ(result.diagnostic_coverage(), 0.0);
  const auto spots = result.weak_spots();
  ASSERT_EQ(spots.size(), 1u);
  EXPECT_DOUBLE_EQ(spots[0].danger_rate(), 1.0);
}

TEST(Resilience, LivelockTerminatesWithinBudgetNotWallClock) {
  // Direct check that the run returns (rather than relying on a test
  // timeout): a single livelocked replay stops after ~1000 deltas.
  LivelockScenario scenario;
  FaultDescriptor fault;
  fault.id = 1;
  fault.type = FaultType::kSignalStuck;
  fault.inject_at = Time::us(50);
  const Observation golden = scenario.run(nullptr, 1);
  ASSERT_TRUE(golden.completed);
  const Observation faulty = scenario.run(&fault, 1);
  EXPECT_FALSE(faulty.completed);
  EXPECT_EQ(classify(golden, faulty), Outcome::kTimeout);
}

// --------------------------------------------------------------------------
// Throwing scenario -> kSimCrash (tentpole part 2, sequential driver)
// --------------------------------------------------------------------------

/// Throws on descriptors whose id is divisible by `crash_every`; runs the
/// wrapped airbag scenario otherwise.
class CrashyCaps final : public Scenario {
 public:
  explicit CrashyCaps(std::uint64_t crash_every)
      : inner_(CapsConfig{.duration = Time::ms(10)}), crash_every_(crash_every) {}
  [[nodiscard]] std::string name() const override { return inner_.name(); }
  [[nodiscard]] Time duration() const override { return inner_.duration(); }
  [[nodiscard]] std::vector<FaultType> fault_types() const override {
    return inner_.fault_types();
  }
  [[nodiscard]] Observation run(const FaultDescriptor* fault, std::uint64_t seed) override {
    if (fault != nullptr && fault->id % crash_every_ == 0) {
      throw std::runtime_error("model crash @" + std::to_string(fault->id));
    }
    return inner_.run(fault, seed);
  }

 private:
  CapsScenario inner_;
  std::uint64_t crash_every_;
};

TEST(Resilience, ThrowingScenarioIsQuarantinedAndCampaignContinues) {
  CrashyCaps scenario(4);
  CampaignConfig cfg;
  cfg.runs = 16;
  cfg.seed = 8;
  cfg.location_buckets = 8;
  cfg.crash_retries = 2;
  const auto result = Campaign(scenario, cfg).run();
  EXPECT_EQ(result.runs_executed, 16u);  // the crashes did not end the campaign
  EXPECT_EQ(result.count(Outcome::kSimCrash), 4u);
  ASSERT_EQ(result.quarantine.size(), 4u);
  for (const auto& q : result.quarantine) {
    EXPECT_EQ(q.fault.id % 4, 0u);
    EXPECT_NE(q.what.find("model crash"), std::string::npos);
    EXPECT_EQ(q.attempts, 3u);  // 1 + crash_retries
  }
  // Crashes are infrastructure failures: excluded from DC entirely. A
  // result whose only "bad" outcomes are crashes keeps the DC of the rest.
  CampaignResult only_crashes;
  only_crashes.outcome_counts[static_cast<std::size_t>(Outcome::kSimCrash)] = 5;
  only_crashes.runs_executed = 5;
  EXPECT_DOUBLE_EQ(only_crashes.diagnostic_coverage(), 1.0);
}

TEST(Resilience, ReplayIsolatedRetriesThenCapturesDiagnostics) {
  CrashyCaps scenario(1);  // every descriptor crashes
  FaultDescriptor fault;
  fault.id = 7;
  Observation golden;
  golden.completed = true;
  const ReplayResult r = replay_isolated(scenario, fault, 1, golden, 2);
  EXPECT_EQ(r.outcome, Outcome::kSimCrash);
  EXPECT_EQ(r.attempts, 3u);
  EXPECT_NE(r.crash_what.find("model crash @7"), std::string::npos);
}

// --------------------------------------------------------------------------
// Checkpoint serialization (tentpole part 3)
// --------------------------------------------------------------------------

CampaignCheckpoint sample_checkpoint() {
  CampaignCheckpoint cp;
  cp.driver = "parallel_campaign";
  cp.scenario = "airbag \"caps\"\nv2";  // exercises JSON string escaping
  cp.config.runs = 40;
  cp.config.seed = 0xDEADBEEF;
  cp.config.strategy = Strategy::kGuided;
  cp.config.location_buckets = 8;
  cp.config.time_windows = 4;
  cp.config.stop_after_hazards = 3;
  cp.config.batch_size = 7;
  cp.config.crash_retries = 2;
  cp.golden.output_signature = 0x12345678;
  cp.golden.completed = true;
  cp.golden.detected = 2;
  RunRecord r1;
  r1.fault.id = 1;
  r1.fault.type = FaultType::kSensorOffset;
  r1.fault.persistence = Persistence::kTransient;
  r1.fault.inject_at = Time::us(13);
  r1.fault.duration = Time::ns(700);
  r1.fault.location = "sensor/radar[0]";
  r1.fault.address = 0xFFFF0001;
  r1.fault.bit = -1;
  r1.fault.magnitude = 0.1;  // not exactly representable: hexfloat must hold it
  r1.outcome = Outcome::kSilentDataCorruption;
  RunRecord r2;
  r2.fault.id = 2;
  r2.fault.type = FaultType::kTaskKill;
  r2.fault.persistence = Persistence::kPermanent;
  r2.fault.location = "os/task \\ \"control\"";
  r2.fault.magnitude = -1.0 / 3.0;
  r2.outcome = Outcome::kSimCrash;
  r2.crash_what = "std::bad_alloc\tduring replay";
  cp.records = {r1, r2};
  return cp;
}

TEST(Checkpoint, JsonlRoundTripIsExact) {
  const CampaignCheckpoint cp = sample_checkpoint();
  const std::string text = to_jsonl(cp);
  const CampaignCheckpoint back = checkpoint_from_jsonl(text);
  EXPECT_EQ(back.driver, cp.driver);
  EXPECT_EQ(back.scenario, cp.scenario);
  EXPECT_EQ(back.config.runs, cp.config.runs);
  EXPECT_EQ(back.config.seed, cp.config.seed);
  EXPECT_EQ(back.config.strategy, cp.config.strategy);
  EXPECT_EQ(back.config.location_buckets, cp.config.location_buckets);
  EXPECT_EQ(back.config.time_windows, cp.config.time_windows);
  EXPECT_EQ(back.config.stop_after_hazards, cp.config.stop_after_hazards);
  EXPECT_EQ(back.config.batch_size, cp.config.batch_size);
  EXPECT_EQ(back.config.crash_retries, cp.config.crash_retries);
  EXPECT_EQ(back.golden.output_signature, cp.golden.output_signature);
  EXPECT_EQ(back.golden.completed, cp.golden.completed);
  EXPECT_EQ(back.golden.detected, cp.golden.detected);
  ASSERT_EQ(back.records.size(), cp.records.size());
  for (std::size_t i = 0; i < cp.records.size(); ++i) {
    const auto& a = cp.records[i];
    const auto& b = back.records[i];
    EXPECT_EQ(b.fault.id, a.fault.id);
    EXPECT_EQ(b.fault.type, a.fault.type);
    EXPECT_EQ(b.fault.persistence, a.fault.persistence);
    EXPECT_EQ(b.fault.inject_at, a.fault.inject_at);
    EXPECT_EQ(b.fault.duration, a.fault.duration);
    EXPECT_EQ(b.fault.location, a.fault.location);
    EXPECT_EQ(b.fault.address, a.fault.address);
    EXPECT_EQ(b.fault.bit, a.fault.bit);
    EXPECT_EQ(b.fault.magnitude, a.fault.magnitude);  // bitwise via hexfloat
    EXPECT_EQ(b.outcome, a.outcome);
    EXPECT_EQ(b.crash_what, a.crash_what);
  }
  EXPECT_EQ(back.next_run(), 2u);
  // Serialization is deterministic (resume must be able to re-save the same
  // bytes when nothing changed).
  EXPECT_EQ(to_jsonl(back), text);
}

TEST(Checkpoint, RejectsTruncationVersionSkewAndGarbage) {
  const std::string text = to_jsonl(sample_checkpoint());
  // Truncation: losing the end line (or part of it) must be detected.
  const std::size_t last_line = text.rfind("\n{");
  ASSERT_NE(last_line, std::string::npos);
  EXPECT_THROW((void)checkpoint_from_jsonl(text.substr(0, last_line + 1)), InvariantError);
  EXPECT_THROW((void)checkpoint_from_jsonl(text.substr(0, text.size() - 4)), InvariantError);
  // Version skew (a future version must be rejected, not half-parsed).
  std::string skewed = text;
  const std::string vkey = "\"version\":" + std::to_string(CampaignCheckpoint::kVersion);
  const std::size_t v = skewed.find(vkey);
  ASSERT_NE(v, std::string::npos);
  skewed.replace(v, vkey.size(), "\"version\":99");
  EXPECT_THROW((void)checkpoint_from_jsonl(skewed), InvariantError);
  // Arbitrary garbage.
  EXPECT_THROW((void)checkpoint_from_jsonl("not a checkpoint"), InvariantError);
  EXPECT_THROW((void)checkpoint_from_jsonl(""), InvariantError);
}

TEST(Checkpoint, SaveLoadRoundTripsThroughDisk) {
  const std::string path = vps_test::temp_path("vps_checkpoint_roundtrip.jsonl");
  const CampaignCheckpoint cp = sample_checkpoint();
  save_checkpoint(cp, path);
  const CampaignCheckpoint back = load_checkpoint(path);
  EXPECT_EQ(to_jsonl(back), to_jsonl(cp));
  std::remove(path.c_str());
  EXPECT_THROW((void)load_checkpoint(path), InvariantError);
}

// --------------------------------------------------------------------------
// Per-line CRC integrity (checkpoint v3)
// --------------------------------------------------------------------------

TEST(Checkpoint, EveryV3LineCarriesAVerifiableCrc) {
  const std::string text = to_jsonl(sample_checkpoint());
  std::size_t pos = 0;
  int lines = 0;
  while (pos < text.size()) {
    const std::size_t nl = text.find('\n', pos);
    std::string line = text.substr(pos, nl - pos);
    pos = nl + 1;
    if (line.empty()) continue;
    ++lines;
    EXPECT_NE(line.find("\"crc\":\""), std::string::npos) << line;
    EXPECT_TRUE(codec::check_crc(line)) << line;
    // Any single-character change inside the object body must break it.
    std::string tampered = line;
    tampered[10] = tampered[10] == 'x' ? 'y' : 'x';
    std::string error;
    EXPECT_FALSE(codec::check_crc(tampered, &error));
    EXPECT_FALSE(error.empty());
  }
  EXPECT_EQ(lines, 6);  // header, config, golden, 2 records, end
}

TEST(Checkpoint, CorruptRecordLineIsReportedAndFileTruncatedToLastGoodRecord) {
  const std::string path = vps_test::temp_path("vps_checkpoint_crc_recovery.jsonl");
  save_checkpoint(sample_checkpoint(), path);

  // Flip one byte inside the SECOND record line on disk.
  std::string text;
  {
    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    text = ss.str();
  }
  std::size_t rec = text.find("\"kind\":\"record\"");
  ASSERT_NE(rec, std::string::npos);
  rec = text.find("\"kind\":\"record\"", rec + 1);
  ASSERT_NE(rec, std::string::npos);
  text[rec + 20] ^= 0x01;
  {
    std::ofstream out(path, std::ios::trunc);
    out << text;
  }

  // The strict entry point treats the bad line as fatal...
  EXPECT_THROW((void)checkpoint_from_jsonl(text), InvariantError);

  // ...while load_checkpoint recovers: the good prefix survives, the report
  // says what was dropped, and the file is rewritten clean.
  CheckpointRecovery recovery;
  const CampaignCheckpoint back = load_checkpoint(path, &recovery);
  EXPECT_EQ(back.records.size(), 1u);
  EXPECT_EQ(back.records[0].fault.id, 1u);
  EXPECT_EQ(recovery.dropped_records, 1u);
  EXPECT_TRUE(recovery.file_rewritten);
  EXPECT_FALSE(recovery.first_error.empty());

  CheckpointRecovery second;
  const CampaignCheckpoint clean = load_checkpoint(path, &second);
  EXPECT_EQ(clean.records.size(), 1u);
  EXPECT_EQ(second.dropped_records, 0u);
  EXPECT_FALSE(second.file_rewritten);
  std::remove(path.c_str());
}

TEST(Checkpoint, HeaderCorruptionIsNeverRecoverable) {
  std::string text = to_jsonl(sample_checkpoint());
  text[2] ^= 0x01;  // inside the header line
  CheckpointRecovery recovery;
  EXPECT_THROW((void)checkpoint_from_jsonl(text, &recovery), InvariantError);
}

TEST(Checkpoint, V2FilesWithoutCrcFieldsStillLoad) {
  const CampaignCheckpoint cp = sample_checkpoint();
  std::string text = to_jsonl(cp);
  // Regress the file to v2: strip every per-line CRC trailer and lower the
  // header version.
  for (std::size_t p; (p = text.find(",\"crc\":\"")) != std::string::npos;) {
    text.erase(p, 17);  // ,"crc":"xxxxxxxx"
  }
  const std::string v3 = "\"version\":" + std::to_string(CampaignCheckpoint::kVersion);
  const std::size_t v = text.find(v3);
  ASSERT_NE(v, std::string::npos);
  text.replace(v, v3.size(), "\"version\":2");

  const CampaignCheckpoint back = checkpoint_from_jsonl(text);
  EXPECT_EQ(back.records.size(), cp.records.size());
  EXPECT_EQ(back.driver, cp.driver);
  EXPECT_EQ(back.records[1].crash_what, cp.records[1].crash_what);
  EXPECT_EQ(back.records[1].fault.magnitude, cp.records[1].fault.magnitude);
}

// --------------------------------------------------------------------------
// LineParser: every malformed shape throws, quoting the offending line
// --------------------------------------------------------------------------

/// Parses `line` and expects an InvariantError whose text names `problem`
/// and quotes the whole line.
void expect_line_rejected(const std::string& line, const std::string& problem) {
  try {
    const codec::LineParser parser(line);
    ADD_FAILURE() << "accepted: " << line;
  } catch (const InvariantError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(problem), std::string::npos) << what;
    EXPECT_NE(what.find(line), std::string::npos) << what;
  }
}

TEST(CodecLineParser, LineWithoutBracesIsMalformed) {
  expect_line_rejected(R"(["kind":"header"])", "codec: malformed line: ");
}

TEST(CodecLineParser, KeyWithoutColonIsRejected) {
  expect_line_rejected(R"({"kind"})", "codec: expected ':' in ");
}

TEST(CodecLineParser, KeyWithoutOpeningQuoteIsRejected) {
  expect_line_rejected(R"({kind:"header"})", "codec: expected '\"' in ");
}

TEST(CodecLineParser, EscapeAtTheEndOfTheLineIsRejected) {
  // A line must end in '}', so a backslash is never its last byte and the
  // dangling-escape check stays a backstop: the closest input, a backslash
  // right before the brace, escapes the brace and is rejected as such.
  expect_line_rejected(R"({"kind":"x\})", "codec: unknown escape in ");
}

TEST(CodecLineParser, ShortUnicodeEscapeIsRejected) {
  expect_line_rejected(R"({"kind":"\u12})", "codec: bad \\u escape in ");
}

TEST(CodecLineParser, UnknownEscapeIsRejected) {
  expect_line_rejected(R"({"kind":"\q","run":1})", "codec: unknown escape in ");
}

TEST(CodecLineParser, UnterminatedStringIsRejected) {
  expect_line_rejected(R"({"kind":"header})", "codec: unterminated string in ");
}

TEST(CodecLineParser, EveryAsciiByteAndUtf8RoundTripThroughJsonEscape) {
  std::string text;
  for (int c = 0x00; c <= 0x7F; ++c) text += static_cast<char>(c);
  text += "\xE2\x82\xAC";  // U+20AC, a multi-byte sequence json_escape keeps raw
  std::string line = R"({"kind":"t")";
  codec::append_str(line, "text", text);
  line += "}";
  EXPECT_EQ(codec::LineParser(line).str("text"), text);
}

TEST(CodecLineParser, BackspaceAndFormFeedSurviveACheckpointAndAResultFrame) {
  CampaignCheckpoint cp = sample_checkpoint();
  cp.records[1].crash_what = "boom\fpage\bstate";
  const std::string path = vps_test::temp_path("vps_checkpoint_bf_escapes.jsonl");
  save_checkpoint(cp, path);
  CheckpointRecovery recovery;
  const CampaignCheckpoint back = load_checkpoint(path, &recovery);
  std::remove(path.c_str());
  EXPECT_EQ(recovery.dropped_records, 0u) << recovery.first_error;
  ASSERT_EQ(back.records.size(), cp.records.size());
  EXPECT_EQ(back.records[1].crash_what, cp.records[1].crash_what);

  vps::dist::ResultMsg result;
  result.job = 1;
  result.run = 2;
  result.replay.outcome = Outcome::kSimCrash;
  result.replay.crash_what = "bad\bstate\fpage";
  EXPECT_EQ(vps::dist::decode_result(vps::dist::encode_result(result)).replay.crash_what,
            result.replay.crash_what);
}

// --------------------------------------------------------------------------
// CheckpointWriter: incremental saves, byte-identical to to_jsonl
// --------------------------------------------------------------------------

/// sample_checkpoint()'s two records (escapes, crash_what) grown to `n`:
/// magnitudes that only hexfloat holds exactly, crash diagnostics on every
/// third run, and a provenance DAG on every fourth.
std::vector<RunRecord> writer_records(std::size_t n) {
  std::vector<RunRecord> records = sample_checkpoint().records;
  for (std::size_t i = records.size(); i < n; ++i) {
    RunRecord r;
    r.fault.id = i + 1;
    r.fault.type = FaultType::kSensorOffset;
    r.fault.inject_at = Time::us(i);
    r.fault.location = "sensor/bucket" + std::to_string(i % 8);
    r.fault.magnitude = 1.0 / static_cast<double>(i + 3);
    r.outcome = Outcome::kNoEffect;
    if (i % 3 == 0) {
      r.outcome = Outcome::kSimCrash;
      r.crash_what = "model crash @" + std::to_string(i);
    }
    if (i % 4 == 0) {
      vps::obs::FaultProvenance fp;
      fp.fault_id = i + 1;
      fp.label = "sensor_offset#" + std::to_string(i);
      fp.nodes.push_back(vps::obs::ProvenanceNode{"inject:sensor_offset",
                                                  vps::obs::HopKind::kInjection, Time::us(i), -1, 0});
      r.provenance.push_back(fp);
    }
    records.push_back(r);
  }
  return records;
}

TEST(CheckpointWriter, EverySaveEqualsToJsonlOfTheSamePrefix) {
  const std::string path = vps_test::temp_path("vps_writer_prefix.jsonl");
  CampaignCheckpoint head = sample_checkpoint();
  const std::vector<RunRecord> all = writer_records(12);
  CheckpointWriter writer(path, head.driver, head.scenario, head.config, head.golden);
  // Uneven growth, including an empty prefix and an unchanged one.
  for (const std::size_t n : {0, 1, 1, 4, 5, 9, 12}) {
    SCOPED_TRACE(std::to_string(n) + " records");
    head.records.assign(all.begin(), all.begin() + static_cast<std::ptrdiff_t>(n));
    writer.save(head.records);
    EXPECT_EQ(vps_test::read_file(path), to_jsonl(head));
    EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  }
  std::remove(path.c_str());
}

TEST(CheckpointWriter, RecordsAreEncodedOnceOnTheirFirstSave) {
  const std::string path = vps_test::temp_path("vps_writer_once.jsonl");
  CampaignCheckpoint head = sample_checkpoint();
  const std::vector<RunRecord> original = writer_records(6);
  std::vector<RunRecord> records(original.begin(), original.begin() + 4);
  CheckpointWriter writer(path, head.driver, head.scenario, head.config, head.golden);
  writer.save(records);

  // Edit already-saved records in place, then grow the prefix: the later
  // files keep the lines as first saved.
  records[0].outcome = Outcome::kHazard;
  records[1].crash_what = "rewritten";
  records[3].fault.magnitude = 42.0;
  records.push_back(original[4]);
  writer.save(records);
  records.push_back(original[5]);
  writer.save(records);

  head.records = original;
  EXPECT_EQ(vps_test::read_file(path), to_jsonl(head));
  head.records = records;
  EXPECT_NE(vps_test::read_file(path), to_jsonl(head));
  std::remove(path.c_str());
}

TEST(CheckpointWriter, ShrinkingPrefixIsRejected) {
  const std::string path = vps_test::temp_path("vps_writer_shrink.jsonl");
  const CampaignCheckpoint head = sample_checkpoint();
  std::vector<RunRecord> records = writer_records(5);
  CheckpointWriter writer(path, head.driver, head.scenario, head.config, head.golden);
  writer.save(records);
  const std::string saved = vps_test::read_file(path);

  records.pop_back();
  EXPECT_THROW(writer.save(records), InvariantError);
  EXPECT_EQ(vps_test::read_file(path), saved) << "a rejected save must not touch the file";
  std::remove(path.c_str());
}

TEST(Checkpoint, FailedSaveLeavesThePreviousFileAndNoTempFile) {
  // The target is an existing non-empty directory: the temp file gets
  // written, then renaming it over the directory fails.
  const std::string dir = vps_test::temp_path("vps_checkpoint_target_dir");
  std::filesystem::remove_all(dir);
  std::filesystem::create_directory(dir);
  std::ofstream(dir + "/previous") << "keep me";

  const CampaignCheckpoint cp = sample_checkpoint();
  try {
    save_checkpoint(cp, dir);
    ADD_FAILURE() << "saving over a directory must throw";
  } catch (const InvariantError& e) {
    EXPECT_NE(std::string(e.what()).find("rename"), std::string::npos) << e.what();
  }
  CheckpointWriter writer(dir, cp.driver, cp.scenario, cp.config, cp.golden);
  EXPECT_THROW(writer.save(cp.records), InvariantError);

  EXPECT_TRUE(std::filesystem::is_directory(dir));
  EXPECT_EQ(vps_test::read_file(dir + "/previous"), "keep me");
  EXPECT_FALSE(std::filesystem::exists(dir + ".tmp")) << "a failed save must not leave its temp file";
  std::filesystem::remove_all(dir);
}

// --------------------------------------------------------------------------
// Resume == uninterrupted (both drivers)
// --------------------------------------------------------------------------

TEST(Resilience, SequentialResumeMatchesUninterruptedRun) {
  const std::string path = vps_test::temp_path("vps_resume_seq.jsonl");
  for (const auto strategy : {Strategy::kMonteCarlo, Strategy::kGuided}) {
    SCOPED_TRACE(to_string(strategy));
    CampaignConfig cfg;
    cfg.runs = 30;
    cfg.seed = 21;
    cfg.strategy = strategy;
    cfg.location_buckets = 8;
    cfg.checkpoint_path = path;

    CapsScenario uninterrupted_scenario(CapsConfig{.duration = Time::ms(10)});
    const auto uninterrupted = Campaign(uninterrupted_scenario, cfg).run();

    for (const std::size_t cut : {std::size_t{5}, std::size_t{13}, std::size_t{29}}) {
      SCOPED_TRACE("cut=" + std::to_string(cut));
      cfg.preempt_after = cut;
      CapsScenario first_half(CapsConfig{.duration = Time::ms(10)});
      const auto partial = Campaign(first_half, cfg).run();
      EXPECT_TRUE(partial.interrupted);
      EXPECT_EQ(partial.runs_executed, cut);

      const CampaignCheckpoint cp = load_checkpoint(path);
      EXPECT_EQ(cp.next_run(), cut);
      CampaignConfig resume_cfg = cfg;
      resume_cfg.preempt_after = 0;
      CapsScenario second_half(CapsConfig{.duration = Time::ms(10)});
      const auto resumed = Campaign(second_half, resume_cfg).resume(cp);
      expect_identical(resumed, uninterrupted);
    }
  }
  std::remove(path.c_str());
}

TEST(Resilience, SequentialResumeWithCrashesRebuildsQuarantine) {
  const std::string path = vps_test::temp_path("vps_resume_crash.jsonl");
  CampaignConfig cfg;
  cfg.runs = 20;
  cfg.seed = 5;
  cfg.location_buckets = 8;
  cfg.checkpoint_path = path;
  CrashyCaps full(3);
  const auto uninterrupted = Campaign(full, cfg).run();
  ASSERT_GT(uninterrupted.quarantine.size(), 0u);

  cfg.preempt_after = 11;  // past at least one crashing run
  CrashyCaps half(3);
  const auto partial = Campaign(half, cfg).run();
  ASSERT_TRUE(partial.interrupted);
  const CampaignCheckpoint cp = load_checkpoint(path);
  CampaignConfig resume_cfg = cfg;
  resume_cfg.preempt_after = 0;
  CrashyCaps rest(3);
  const auto resumed = Campaign(rest, resume_cfg).resume(cp);
  expect_identical(resumed, uninterrupted);
  std::remove(path.c_str());
}

TEST(Resilience, ParallelResumeMatchesUninterruptedRunForAnyWorkerCount) {
  const std::string path = vps_test::temp_path("vps_resume_par.jsonl");
  CampaignConfig cfg;
  cfg.runs = 24;
  cfg.seed = 42;
  cfg.strategy = Strategy::kGuided;
  cfg.location_buckets = 8;
  cfg.batch_size = 8;
  cfg.checkpoint_path = path;
  const auto factory = [] {
    return std::make_unique<CapsScenario>(CapsConfig{.duration = Time::ms(10)});
  };

  cfg.workers = 4;
  const auto uninterrupted = ParallelCampaign(factory, cfg).run();

  cfg.preempt_after = 8;  // preempts at the first batch barrier
  const auto partial = ParallelCampaign(factory, cfg).run();
  EXPECT_TRUE(partial.interrupted);
  EXPECT_EQ(partial.runs_executed, 8u);

  const CampaignCheckpoint cp = load_checkpoint(path);
  EXPECT_EQ(cp.driver, "parallel_campaign");
  EXPECT_EQ(cp.next_run(), 8u);
  CampaignConfig resume_cfg = cfg;
  resume_cfg.preempt_after = 0;
  for (const std::size_t workers : {std::size_t{1}, std::size_t{4}, std::size_t{8}}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    resume_cfg.workers = workers;
    const auto resumed = ParallelCampaign(factory, resume_cfg).resume(cp);
    expect_identical(resumed, uninterrupted);
  }
  std::remove(path.c_str());
}

TEST(Resilience, SequentialCampaignFoldsAndResumesAsAParallelOneAtBatchSizeOne) {
  const std::string path = vps_test::temp_path("vps_resume_seq_on_par.jsonl");
  CampaignConfig cfg;
  cfg.runs = 24;
  cfg.seed = 42;
  cfg.strategy = Strategy::kGuided;
  cfg.location_buckets = 8;
  const auto factory = [] {
    return std::make_unique<CapsScenario>(CapsConfig{.duration = Time::ms(10)});
  };
  CampaignConfig parallel = cfg;
  parallel.batch_size = 1;
  parallel.workers = 4;
  const auto reference = ParallelCampaign(factory, parallel).run();

  // Campaign's batch_size 0 means 1: learning follows every run.
  CapsScenario scenario(CapsConfig{.duration = Time::ms(10)});
  expect_identical(Campaign(scenario, cfg).run(), reference);

  CampaignConfig cut = cfg;
  cut.preempt_after = 10;
  cut.checkpoint_path = path;
  CapsScenario half(CapsConfig{.duration = Time::ms(10)});
  ASSERT_TRUE(Campaign(half, cut).run().interrupted);
  const CampaignCheckpoint cp = load_checkpoint(path);
  EXPECT_EQ(cp.config.batch_size, 1u);
  EXPECT_EQ(cp.next_run(), 10u);
  expect_identical(ParallelCampaign(factory, parallel).resume(cp), reference);

  CampaignConfig default_batch = parallel;
  default_batch.batch_size = 0;  // 32
  EXPECT_THROW((void)ParallelCampaign(factory, default_batch).resume(cp), InvariantError);
  std::remove(path.c_str());
}

TEST(Resilience, PeriodicCheckpointsAreWrittenDuringTheRun) {
  const std::string path = vps_test::temp_path("vps_periodic_cp.jsonl");
  CampaignConfig cfg;
  cfg.runs = 10;
  cfg.seed = 9;
  cfg.location_buckets = 4;
  cfg.checkpoint_every = 4;
  cfg.checkpoint_path = path;
  CapsScenario scenario(CapsConfig{.duration = Time::ms(10)});
  const auto result = Campaign(scenario, cfg).run();
  EXPECT_FALSE(result.interrupted);
  EXPECT_EQ(result.runs_executed, 10u);
  // The last periodic checkpoint (at run 8) is on disk and resumable.
  const CampaignCheckpoint cp = load_checkpoint(path);
  EXPECT_EQ(cp.next_run(), 8u);
  CapsScenario rest(CapsConfig{.duration = Time::ms(10)});
  const auto resumed = Campaign(rest, cfg).resume(cp);
  expect_identical(resumed, result);
  std::remove(path.c_str());
}

TEST(Resilience, SequentialSavesEqualToJsonlOfTheSamePrefix) {
  const std::string path = vps_test::temp_path("vps_seq_saves.jsonl");
  std::remove(path.c_str());
  CampaignConfig cfg;
  cfg.runs = 20;
  cfg.seed = 5;
  cfg.location_buckets = 8;
  cfg.crash_retries = 1;
  cfg.checkpoint_every = 3;
  cfg.preempt_after = 10;  // the cut is off the save cadence
  cfg.checkpoint_path = path;
  CrashyCaps scenario(3);
  Campaign campaign(scenario, cfg);
  vps_test::CheckpointSaveRecorder recorder(path);
  campaign.set_monitor(&recorder);
  const CampaignResult partial = campaign.run();
  recorder.finish();
  ASSERT_TRUE(partial.interrupted);
  ASSERT_EQ(partial.runs_executed, 10u);
  ASSERT_EQ(partial.quarantine.size(), 3u);  // crash_what records are among the saved ones

  CampaignCheckpoint head;
  head.driver = "parallel_campaign";
  head.scenario = scenario.name();
  head.config = cfg;
  head.config.batch_size = 1;  // Campaign records its batch_size 0 as 1
  head.golden = campaign.golden();
  vps_test::expect_saves_are_prefixes(recorder.saves(), head, partial.records, {3, 6, 9, 10});
  std::remove(path.c_str());
}

TEST(Resilience, ResumeRejectsMismatchedConfigScenarioOrDriver) {
  const std::string path = vps_test::temp_path("vps_resume_reject.jsonl");
  CampaignConfig cfg;
  cfg.runs = 8;
  cfg.seed = 2;
  cfg.location_buckets = 4;
  cfg.preempt_after = 4;
  cfg.checkpoint_path = path;
  CapsScenario scenario(CapsConfig{.duration = Time::ms(10)});
  (void)Campaign(scenario, cfg).run();
  const CampaignCheckpoint cp = load_checkpoint(path);

  CampaignConfig other = cfg;
  other.seed = 3;
  CapsScenario s2(CapsConfig{.duration = Time::ms(10)});
  EXPECT_THROW((void)Campaign(s2, other).resume(cp), InvariantError);

  // Wrong batch size: the sequential checkpoint records batch_size 1, the
  // parallel campaign's 0 means 32.
  CampaignConfig par = cfg;
  par.preempt_after = 0;
  ParallelCampaign parallel(
      [] { return std::make_unique<CapsScenario>(CapsConfig{.duration = Time::ms(10)}); }, par);
  EXPECT_THROW((void)parallel.resume(cp), InvariantError);

  // Wrong scenario.
  LivelockScenario foreign;
  CampaignConfig lcfg = cfg;
  lcfg.preempt_after = 0;
  EXPECT_THROW((void)Campaign(foreign, lcfg).resume(cp), InvariantError);
  std::remove(path.c_str());
}

}  // namespace
