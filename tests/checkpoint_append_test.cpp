// The checkpoint writer's in-place saves and their crash contract. A later
// save writes its new record lines and a fresh end line over the old end
// line; every file a kill during that write can leave must load, under
// recovery, to a prefix no shorter than the previous save's and no longer
// than the interrupted save's, and resume to the uncut campaign's fold on
// both driver kinds. Also: the whole-file fallback when the file is no
// longer the writer's, the save counters the drivers publish, and a read
// error or a retired driver tag that must never be salvaged.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <sys/stat.h>

#include "campaign_compare.hpp"
#include "checkpoint_saves.hpp"
#include "vps/apps/caps.hpp"
#include "vps/fault/campaign.hpp"
#include "vps/fault/checkpoint.hpp"
#include "vps/obs/metrics.hpp"
#include "vps/support/ensure.hpp"

namespace {

using namespace vps::fault;
using vps::apps::CapsConfig;
using vps::apps::CapsScenario;
using vps::sim::Time;
using vps::support::InvariantError;
using vps_test::read_file;
using vps_test::record_line;

/// Size of the last line of a checkpoint file: its end line.
std::size_t end_line_size(const std::string& file) {
  return file.size() - (file.rfind('\n', file.size() - 2) + 1);
}

std::uint64_t inode_of(const std::string& path) {
  struct stat st {};
  EXPECT_EQ(::stat(path.c_str(), &st), 0) << path;
  return static_cast<std::uint64_t>(st.st_ino);
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
}

/// `head` carrying the first `n` of `records`.
CampaignCheckpoint prefix(CampaignCheckpoint head, const std::vector<RunRecord>& records,
                          std::size_t n) {
  head.records.assign(records.begin(), records.begin() + static_cast<std::ptrdiff_t>(n));
  return head;
}

CheckpointWriter writer_for(const std::string& path, const CampaignCheckpoint& head) {
  return CheckpointWriter(path, head.driver, head.scenario, head.config, head.golden);
}

/// Records with escapes, hexfloat-only magnitudes and crash diagnostics.
std::vector<RunRecord> synthetic_records(std::size_t n) {
  std::vector<RunRecord> records(n);
  for (std::size_t i = 0; i < n; ++i) {
    RunRecord& r = records[i];
    r.fault.id = i + 1;
    r.fault.type = FaultType::kSensorOffset;
    r.fault.inject_at = Time::us(i);
    r.fault.location = "sensor/\"bucket\"" + std::to_string(i % 8);
    r.fault.magnitude = 1.0 / static_cast<double>(i + 3);
    r.outcome = i % 3 == 0 ? Outcome::kSimCrash : Outcome::kNoEffect;
    if (i % 3 == 0) r.crash_what = "model crash\n@" + std::to_string(i);
  }
  return records;
}

CampaignCheckpoint synthetic_head() {
  CampaignCheckpoint head;
  head.driver = "parallel_campaign";
  head.scenario = "synthetic";
  head.config.runs = 64;
  head.golden.completed = true;
  return head;
}

/// One later save of a real writer: the file the first save left and the
/// file the later one left.
struct LaterSave {
  std::size_t from = 0;  ///< records in the previous save
  std::size_t to = 0;    ///< records in the later save
  std::string before;
  std::string after;
};

LaterSave later_save(const std::string& path, const CampaignCheckpoint& head,
                     const std::vector<RunRecord>& records, std::size_t from, std::size_t to) {
  std::remove(path.c_str());
  CheckpointWriter writer = writer_for(path, head);
  LaterSave save{from, to, "", ""};
  writer.save(prefix(head, records, from).records);
  save.before = read_file(path);
  const std::uint64_t inode = inode_of(path);
  writer.save(prefix(head, records, to).records);
  save.after = read_file(path);
  EXPECT_EQ(save.after, to_jsonl(prefix(head, records, to)));
  EXPECT_EQ(inode_of(path), inode) << "the later save must write in place";
  EXPECT_EQ(writer.bytes_written(), save.after.size() + end_line_size(save.before));
  return save;
}

/// Builds every file a kill during `save` can leave — the previous file up
/// to its end line, the first k bytes the save writes there, then whatever
/// of the old end line those have not covered yet — and loads each one
/// under recovery. Returns one loaded checkpoint per distinct record count.
std::map<std::size_t, CampaignCheckpoint> load_every_torn_file(
    const std::string& path, const LaterSave& save, const std::vector<RunRecord>& records) {
  std::map<std::size_t, CampaignCheckpoint> loaded;
  const std::size_t offset = save.before.size() - end_line_size(save.before);
  EXPECT_EQ(save.after.compare(0, offset, save.before, 0, offset), 0)
      << "a later save must keep every byte before the old end line";
  const std::string fresh = save.after.substr(offset);
  for (std::size_t k = 0; k <= fresh.size(); ++k) {
    SCOPED_TRACE("kill after " + std::to_string(k) + " of " + std::to_string(fresh.size()) +
                 " bytes");
    std::string file = save.before.substr(0, offset) + fresh.substr(0, k);
    if (offset + k < save.before.size()) file += save.before.substr(offset + k);
    write_file(path, file);

    CheckpointRecovery recovery;
    const CampaignCheckpoint cp = load_checkpoint(path, &recovery);
    const std::size_t n = cp.records.size();
    EXPECT_GE(n, save.from);
    EXPECT_LE(n, save.to);
    for (std::size_t i = 0; i < n && i < records.size(); ++i) {
      EXPECT_EQ(record_line(cp.records[i], i), record_line(records[i], i)) << "record " << i;
    }
    if (recovery.file_rewritten) {
      EXPECT_EQ(read_file(path), to_jsonl(cp));
    }

    CheckpointRecovery again;
    (void)load_checkpoint(path, &again);
    EXPECT_TRUE(again.first_error.empty()) << again.first_error;
    EXPECT_EQ(again.dropped_records, 0u);
    EXPECT_FALSE(again.file_rewritten);
    EXPECT_NO_THROW((void)checkpoint_from_jsonl(read_file(path)));
    loaded.emplace(n, cp);
  }
  return loaded;
}

std::unique_ptr<Scenario> caps_scenario() {
  return std::make_unique<CapsScenario>(CapsConfig{.duration = Time::ms(10)});
}

/// Hands `use` a fresh CAPS campaign of either driver: the sequential
/// Campaign or a ParallelCampaign.
template <typename Use>
auto with_campaign(bool sequential, const CampaignConfig& cfg, Use&& use) {
  if (!sequential) {
    ParallelCampaign campaign(caps_scenario, cfg);
    return use(campaign);
  }
  CapsScenario scenario(CapsConfig{.duration = Time::ms(10)});
  Campaign campaign(scenario, cfg);
  return use(campaign);
}

TEST(CheckpointCrashContract, EveryTornLaterSaveResumesToTheUncutFoldOnEitherDriver) {
  struct Case {
    const char* name;
    bool sequential;
    CampaignConfig cfg;
    std::size_t recorded_batch;  ///< the batch_size the driver's checkpoint records
  };
  // Coverage-driven generation draws from the holes as of the last
  // barrier, so a resume that folded at another cadence would draw other
  // descriptors.
  CampaignConfig parallel;
  parallel.runs = 16;
  parallel.seed = 42;
  parallel.strategy = Strategy::kCoverageDriven;
  parallel.location_buckets = 8;
  parallel.batch_size = 4;
  parallel.workers = 2;
  // Guided weights learn after every run: Campaign's batch_size 0 means 1.
  CampaignConfig sequential;
  sequential.runs = 12;
  sequential.seed = 21;
  sequential.strategy = Strategy::kGuided;
  sequential.location_buckets = 8;
  for (const Case& c :
       {Case{"parallel", false, parallel, 4}, Case{"sequential", true, sequential, 1}}) {
    SCOPED_TRACE(c.name);
    const std::string path =
        vps_test::temp_path(std::string("vps_append_torn_") + c.name + ".jsonl");
    CampaignCheckpoint head;
    const CampaignResult uncut =
        with_campaign(c.sequential, c.cfg, [&head](BatchedCampaign& campaign) {
          CampaignResult result = campaign.run();
          head.golden = campaign.golden();
          return result;
        });
    ASSERT_EQ(uncut.records.size(), c.cfg.runs);

    head.driver = "parallel_campaign";
    head.scenario = caps_scenario()->name();
    head.config = c.cfg;
    head.config.batch_size = c.recorded_batch;
    const LaterSave save = later_save(path, head, uncut.records, 4, 8);
    const auto loaded = load_every_torn_file(path, save, uncut.records);
    EXPECT_EQ(loaded.size(), save.to - save.from + 1) << "every count in between is reachable";

    for (const auto& [n, cp] : loaded) {
      SCOPED_TRACE("resumed from " + std::to_string(n) + " records");
      const CampaignResult resumed = with_campaign(
          c.sequential, c.cfg, [&cp](BatchedCampaign& rest) { return rest.resume(cp); });
      vps_test::expect_identical(resumed, uncut);
    }
    std::remove(path.c_str());
  }
}

TEST(CheckpointCrashContract, AMissingEndLineIsRecoverableAndTheStrictParserStillThrows) {
  const CampaignCheckpoint cp = prefix(synthetic_head(), synthetic_records(4), 4);
  const std::string text = to_jsonl(cp);
  const std::string no_end = text.substr(0, text.size() - end_line_size(text));
  EXPECT_THROW((void)checkpoint_from_jsonl(no_end), InvariantError);

  CheckpointRecovery recovery;
  const CampaignCheckpoint back = checkpoint_from_jsonl(no_end, &recovery);
  EXPECT_EQ(to_jsonl(back), text) << "every CRC-valid record line is kept";
  EXPECT_EQ(recovery.dropped_records, 0u);
  EXPECT_NE(recovery.first_error.find("missing end line"), std::string::npos)
      << recovery.first_error;

  // A torn last record is dropped, the lines before it kept.
  CheckpointRecovery torn;
  const CampaignCheckpoint shorter =
      checkpoint_from_jsonl(no_end.substr(0, no_end.size() - 7), &torn);
  EXPECT_EQ(to_jsonl(shorter), to_jsonl(prefix(synthetic_head(), cp.records, 3)));
  EXPECT_EQ(torn.dropped_records, 1u);
  EXPECT_FALSE(torn.first_error.empty());
}

TEST(CheckpointWriter, LaterSavesWriteInPlaceAndCountTheirBytes) {
  const std::string path = vps_test::temp_path("vps_append_bytes.jsonl");
  std::remove(path.c_str());
  const CampaignCheckpoint head = synthetic_head();
  const std::vector<RunRecord> records = synthetic_records(12);
  CheckpointWriter writer = writer_for(path, head);
  EXPECT_EQ(writer.bytes_written(), 0u);
  EXPECT_EQ(writer.saves(), 0u);

  // Uneven growth, an unchanged prefix and a record count gaining a digit.
  std::uint64_t earlier_end_lines = 0;
  std::uint64_t inode = 0;
  const std::vector<std::size_t> sizes = {0, 1, 1, 4, 9, 12};
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    SCOPED_TRACE(std::to_string(sizes[i]) + " records");
    const std::string expected = to_jsonl(prefix(head, records, sizes[i]));
    writer.save(prefix(head, records, sizes[i]).records);
    const std::string file = read_file(path);
    EXPECT_EQ(file, expected);
    EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
    if (i == 0) inode = inode_of(path);
    EXPECT_EQ(inode_of(path), inode) << "only the first save renames";
    EXPECT_EQ(writer.bytes_written(), file.size() + earlier_end_lines);
    EXPECT_EQ(writer.saves(), i + 1);
    earlier_end_lines += end_line_size(file);
  }
  std::remove(path.c_str());
}

TEST(CheckpointWriter, ARemovedFileIsRewrittenWhole) {
  const std::string path = vps_test::temp_path("vps_append_removed.jsonl");
  std::remove(path.c_str());
  const CampaignCheckpoint head = synthetic_head();
  const std::vector<RunRecord> records = synthetic_records(12);
  CheckpointWriter writer = writer_for(path, head);
  writer.save(prefix(head, records, 4).records);
  std::remove(path.c_str());

  const std::uint64_t before = writer.bytes_written();
  writer.save(prefix(head, records, 8).records);
  const std::string whole = read_file(path);
  EXPECT_EQ(whole, to_jsonl(prefix(head, records, 8)));
  EXPECT_EQ(writer.bytes_written() - before, whole.size()) << "the save wrote the whole file";

  // The rewritten file is the writer's again: the next save appends.
  const std::uint64_t inode = inode_of(path);
  writer.save(prefix(head, records, 12).records);
  EXPECT_EQ(read_file(path), to_jsonl(prefix(head, records, 12)));
  EXPECT_EQ(inode_of(path), inode);
  std::remove(path.c_str());
}

TEST(CheckpointWriter, AFileReplacedOrResizedIsRewrittenWhole) {
  const std::string path = vps_test::temp_path("vps_append_replaced.jsonl");
  const CampaignCheckpoint head = synthetic_head();
  const std::vector<RunRecord> records = synthetic_records(16);
  enum class Edit { kSalvagedShorter, kSameBytesNewInode, kTruncatedInPlace };
  for (const Edit edit : {Edit::kSalvagedShorter, Edit::kSameBytesNewInode,
                          Edit::kTruncatedInPlace}) {
    SCOPED_TRACE("edit " + std::to_string(static_cast<int>(edit)));
    std::remove(path.c_str());
    CheckpointWriter writer = writer_for(path, head);
    writer.save(prefix(head, records, 4).records);
    writer.save(prefix(head, records, 8).records);
    const std::string saved = read_file(path);
    switch (edit) {
      case Edit::kSalvagedShorter: {
        // A torn tail that load_checkpoint salvages: it renames a shorter
        // copy over the file.
        write_file(path, saved.substr(0, saved.size() - end_line_size(saved) - 9));
        CheckpointRecovery recovery;
        EXPECT_EQ(load_checkpoint(path, &recovery).records.size(), 7u);
        EXPECT_TRUE(recovery.file_rewritten);
        break;
      }
      case Edit::kSameBytesNewInode:
        save_checkpoint(prefix(head, records, 8), path);
        EXPECT_EQ(read_file(path), saved);
        break;
      case Edit::kTruncatedInPlace:
        std::filesystem::resize_file(path, saved.size() - 3);
        break;
    }
    const std::uint64_t before = writer.bytes_written();
    writer.save(prefix(head, records, 12).records);
    const std::string whole = read_file(path);
    EXPECT_EQ(whole, to_jsonl(prefix(head, records, 12)));
    EXPECT_EQ(writer.bytes_written() - before, whole.size()) << "the save wrote the whole file";
    EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  }
  std::remove(path.c_str());
}

TEST(CheckpointMetrics, DriversPublishWhatTheirSavesWrote) {
  const std::string path = vps_test::temp_path("vps_append_metrics.jsonl");
  CampaignConfig cfg;
  cfg.runs = 12;
  cfg.seed = 7;
  cfg.location_buckets = 8;
  cfg.batch_size = 4;
  cfg.checkpoint_every = 4;
  cfg.checkpoint_path = path;

  // Both drivers save at runs 4, 8 and 12: the final file plus the end
  // lines the two later saves wrote over.
  for (const bool sequential : {true, false}) {
    SCOPED_TRACE(sequential ? "sequential" : "parallel");
    std::remove(path.c_str());
    vps::obs::MetricRegistry registry;
    CampaignCheckpoint head;
    const CampaignResult result =
        with_campaign(sequential, cfg, [&registry, &head](BatchedCampaign& campaign) {
          campaign.set_metrics(&registry);
          CampaignResult r = campaign.run();
          head.golden = campaign.golden();
          return r;
        });
    head.driver = "parallel_campaign";
    head.scenario = caps_scenario()->name();
    head.config = cfg;
    const std::string final_file = read_file(path);
    EXPECT_EQ(final_file, to_jsonl(prefix(head, result.records, 12)));
    const std::uint64_t earlier = end_line_size(to_jsonl(prefix(head, result.records, 4))) +
                                  end_line_size(to_jsonl(prefix(head, result.records, 8)));
    EXPECT_EQ(registry.counter("campaign.checkpoint_bytes").value(), final_file.size() + earlier);
    EXPECT_EQ(registry.counter("campaign.checkpoint_saves").value(), 3u);
  }
  std::remove(path.c_str());
}

TEST(LoadCheckpoint, AReadErrorThrowsANamedReadErrorAndIsNeverSalvaged) {
  // fopen() succeeds on a directory; fread() then fails with EISDIR.
  const std::string dir = vps_test::temp_path("vps_append_read_error");
  std::filesystem::remove_all(dir);
  std::filesystem::create_directory(dir);
  for (const bool with_recovery : {false, true}) {
    CheckpointRecovery recovery;
    try {
      (void)load_checkpoint(dir, with_recovery ? &recovery : nullptr);
      ADD_FAILURE() << "loading a directory must throw";
    } catch (const InvariantError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("load_checkpoint: cannot read " + dir), std::string::npos) << what;
    }
    EXPECT_FALSE(recovery.file_rewritten);
  }
  EXPECT_TRUE(std::filesystem::is_directory(dir));
  EXPECT_FALSE(std::filesystem::exists(dir + ".tmp"));
  std::filesystem::remove_all(dir);
}

TEST(LoadCheckpoint, ARetiredDriverTagFailsByNameAndTheFileIsLeftAlone) {
  // A checkpoint of the sequential driver from before it joined the engine,
  // whole and with a torn tail: recovery must not touch either.
  const std::string path = vps_test::temp_path("vps_append_retired_tag.jsonl");
  CampaignCheckpoint old = prefix(synthetic_head(), synthetic_records(4), 4);
  old.driver = "campaign";
  const std::string whole = to_jsonl(old);
  for (const std::string& bytes : {whole, whole.substr(0, whole.size() - 5)}) {
    write_file(path, bytes);
    CheckpointRecovery recovery;
    try {
      (void)load_checkpoint(path, &recovery);
      ADD_FAILURE() << "a 'campaign' checkpoint must not load";
    } catch (const InvariantError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("'campaign'"), std::string::npos) << what;
    }
    EXPECT_FALSE(recovery.file_rewritten);
    EXPECT_EQ(read_file(path), bytes) << "the file must stay as it was";
  }
  std::remove(path.c_str());
}

}  // namespace
