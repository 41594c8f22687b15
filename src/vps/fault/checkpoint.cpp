#include "vps/fault/checkpoint.hpp"

#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>

#include "vps/fault/codec.hpp"
#include "vps/support/ensure.hpp"
#include "vps/support/file.hpp"

namespace vps::fault {

using support::ensure;

namespace {

constexpr const char* kSchemaName = "vps-campaign-checkpoint";

/// Splits `text` into its next line starting at `pos` (advancing `pos` past
/// the newline); returns false when exhausted.
bool next_line(const std::string& text, std::size_t& pos, std::string& line) {
  if (pos >= text.size()) return false;
  std::size_t nl = text.find('\n', pos);
  if (nl == std::string::npos) nl = text.size();
  line = text.substr(pos, nl - pos);
  pos = nl + 1;
  return true;
}

// --- the line encoder: the one serializer behind to_jsonl() and
// CheckpointWriter, so both produce the same bytes by construction ----------

/// Appends `object` (a complete "{...}" line) with its CRC trailer and a
/// newline.
void append_line(std::string& out, const std::string& object) {
  out += codec::with_crc(object);
  out += '\n';
}

/// Header, config and golden lines.
std::string head_lines(const std::string& driver, const std::string& scenario,
                       const CampaignConfig& config, const Observation& golden) {
  std::string out;
  std::string header = "{\"schema\":\"";
  header += kSchemaName;
  header += "\",\"version\":" + std::to_string(CampaignCheckpoint::kVersion);
  codec::append_str(header, "driver", driver);
  codec::append_str(header, "scenario", scenario);
  header += '}';
  append_line(out, header);

  // The determinism-relevant config fields plus crash handling; workers and
  // checkpoint cadence are resume-time choices and deliberately absent.
  std::string cfg = "{\"kind\":\"config\"";
  codec::append_config(cfg, config);
  cfg += '}';
  append_line(out, cfg);

  std::string gold = "{\"kind\":\"golden\"";
  codec::append_observation(gold, golden);
  gold += '}';
  append_line(out, gold);
  return out;
}

/// One completed run's line.
void append_record_line(std::string& out, const RunRecord& record, std::size_t run_index) {
  std::string rec = "{\"kind\":\"record\"";
  codec::append_record(rec, record, run_index);
  rec += '}';
  append_line(out, rec);
}

/// The truncation guard: the number of record lines before it.
std::string end_line(std::size_t records) {
  std::string out;
  append_line(out, "{\"kind\":\"end\",\"records\":" + std::to_string(records) + "}");
  return out;
}

}  // namespace

std::string to_jsonl(const CampaignCheckpoint& checkpoint) {
  std::string out =
      head_lines(checkpoint.driver, checkpoint.scenario, checkpoint.config, checkpoint.golden);
  for (std::size_t i = 0; i < checkpoint.records.size(); ++i) {
    append_record_line(out, checkpoint.records[i], i);
  }
  out += end_line(checkpoint.records.size());
  return out;
}

CheckpointWriter::CheckpointWriter(std::string path, const std::string& driver,
                                   const std::string& scenario, const CampaignConfig& config,
                                   const Observation& golden)
    : path_(std::move(path)), lines_(head_lines(driver, scenario, config, golden)) {
  ensure(!path_.empty(), "save_checkpoint: empty path");
}

void CheckpointWriter::save(const std::vector<RunRecord>& records) {
  ensure(records.size() >= records_,
         "CheckpointWriter: record prefix shrank from " + std::to_string(records_) + " to " +
             std::to_string(records.size()) + " (records are append-only)");
  for (; records_ < records.size(); ++records_) {
    append_record_line(lines_, records[records_], records_);
  }
  std::string error;
  const bool written = support::write_file_atomic(path_, {lines_, end_line(records_)}, &error);
  ensure(written, "save_checkpoint: " + error);
}

CampaignCheckpoint checkpoint_from_jsonl(const std::string& text, CheckpointRecovery* recovery) {
  CampaignCheckpoint cp;
  std::size_t pos = 0;
  std::size_t line_no = 0;
  bool saw_end = false;
  bool corrupted = false;
  std::string line;
  while (!corrupted && next_line(text, pos, line)) {
    if (line.empty()) continue;
    ensure(!saw_end, "checkpoint: content after end line");

    // Integrity first: a line failing its CRC (or failing to parse at all)
    // inside the record region is recoverable — drop it and the tail. The
    // header/config/golden lines are not: without them there is nothing to
    // resume, so corruption there always throws.
    std::string crc_error;
    const bool record_region = recovery != nullptr && line_no >= 3;
    if (!codec::check_crc(line, &crc_error)) {
      ensure(record_region, "checkpoint: " + crc_error);
      if (recovery->first_error.empty()) recovery->first_error = crc_error;
      corrupted = true;
      break;
    }
    try {
      const codec::LineParser p(line);
      if (line_no == 0) {
        ensure(p.str("schema") == kSchemaName, "checkpoint: not a campaign checkpoint");
        ensure(p.u64("version") >= 1 && p.u64("version") <= CampaignCheckpoint::kVersion,
               "checkpoint: unsupported version " + std::to_string(p.u64("version")) +
                   " (expected 1.." + std::to_string(CampaignCheckpoint::kVersion) + ")");
        cp.driver = p.str("driver");
        cp.scenario = p.str("scenario");
        ++line_no;
        continue;
      }
      const std::string& kind = p.str("kind");
      if (kind == "config") {
        cp.config = codec::config_from(p);
      } else if (kind == "golden") {
        cp.golden = codec::observation_from(p);
      } else if (kind == "record") {
        ensure(p.u64("run") == cp.records.size(), "checkpoint: record out of order");
        cp.records.push_back(codec::record_from(p));
      } else if (kind == "end") {
        ensure(p.u64("records") == cp.records.size(),
               "checkpoint: end line count mismatch (truncated file?)");
        saw_end = true;
      } else {
        ensure(false, "checkpoint: unknown line kind '" + kind + "'");
      }
    } catch (const support::InvariantError& e) {
      if (!record_region) throw;
      if (recovery->first_error.empty()) recovery->first_error = e.what();
      corrupted = true;
      break;
    }
    ++line_no;
  }
  ensure(line_no >= 3, "checkpoint: missing header/config/golden lines");
  if (corrupted) {
    // Count what the corruption cost: the bad line plus every further line
    // that is not a readable end line. A surviving end line gives the exact
    // intended record count.
    std::size_t dropped = 1;
    while (next_line(text, pos, line)) {
      if (line.empty()) continue;
      if (codec::check_crc(line)) {
        try {
          const codec::LineParser p(line);
          if (p.has("kind") && p.str("kind") == "end") {
            const std::uint64_t intended = p.u64("records");
            if (intended >= cp.records.size()) dropped = intended - cp.records.size();
            break;
          }
        } catch (const support::InvariantError&) {
          // fall through: count it as a lost record line
        }
      }
      ++dropped;
    }
    recovery->dropped_records = dropped;
  } else {
    ensure(saw_end, "checkpoint: missing end line (truncated file?)");
  }
  ensure(cp.driver == "campaign" || cp.driver == "parallel_campaign",
         "checkpoint: unknown driver '" + cp.driver + "'");
  return cp;
}

void save_checkpoint(const CampaignCheckpoint& checkpoint, const std::string& path) {
  CheckpointWriter(path, checkpoint.driver, checkpoint.scenario, checkpoint.config,
                   checkpoint.golden)
      .save(checkpoint.records);
}

CampaignCheckpoint load_checkpoint(const std::string& path, CheckpointRecovery* recovery) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ensure(f != nullptr, "load_checkpoint: cannot open " + path);
  std::string text;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) text.append(buf, n);
  std::fclose(f);

  CheckpointRecovery local;
  CampaignCheckpoint cp = checkpoint_from_jsonl(text, &local);
  if (local.dropped_records > 0) {
    // Salvage once, then make the file clean: rewrite the good prefix (with
    // a matching end line) so the next load does not re-run the recovery.
    save_checkpoint(cp, path);
    local.file_rewritten = true;
    std::fprintf(stderr,
                 "load_checkpoint: %s: dropped %zu corrupt record(s) (%s); "
                 "file truncated to last good record (%zu kept)\n",
                 path.c_str(), local.dropped_records, local.first_error.c_str(),
                 cp.records.size());
  }
  if (recovery != nullptr) *recovery = local;
  return cp;
}

}  // namespace vps::fault
