#include "vps/fault/checkpoint.hpp"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

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

/// Closes the descriptor it holds when it goes out of scope.
struct FileDescriptor {
  int fd = -1;
  explicit FileDescriptor(int descriptor) : fd(descriptor) {}
  FileDescriptor(const FileDescriptor&) = delete;
  FileDescriptor& operator=(const FileDescriptor&) = delete;
  ~FileDescriptor() {
    if (fd >= 0) ::close(fd);
  }
};

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
    : path_(std::move(path)), head_(head_lines(driver, scenario, config, golden)) {
  ensure(!path_.empty(), "save_checkpoint: empty path");
}

void CheckpointWriter::save(const std::vector<RunRecord>& records) {
  ensure(records.size() >= records_,
         "CheckpointWriter: record prefix shrank from " + std::to_string(records_) + " to " +
             std::to_string(records.size()) + " (records are append-only)");
  if (!save_in_place(records)) save_whole(records);
  records_ = records.size();
  ++saves_;
}

bool CheckpointWriter::save_in_place(const std::vector<RunRecord>& records) {
  if (!left_) return false;
  std::string bytes;
  for (std::size_t i = records_; i < records.size(); ++i) {
    append_record_line(bytes, records[i], i);
  }
  const std::size_t record_bytes = bytes.size();
  bytes += end_line(records.size());

  const FileDescriptor file{::open(path_.c_str(), O_WRONLY | O_CLOEXEC)};
  struct stat st {};
  if (file.fd < 0 || ::fstat(file.fd, &st) != 0 ||
      static_cast<std::uint64_t>(st.st_dev) != left_->device ||
      static_cast<std::uint64_t>(st.st_ino) != left_->inode ||
      static_cast<std::uint64_t>(st.st_size) != left_->size) {
    return false;
  }
  // From the first byte written on, the file is one this writer does not
  // know until the write completes: a failed save leaves the next one to
  // rewrite the whole file.
  const std::uint64_t at = left_->end_offset;
  left_.reset();
  for (std::size_t done = 0; done < bytes.size();) {
    const ::ssize_t n = ::pwrite(file.fd, bytes.data() + done, bytes.size() - done,
                                 static_cast<::off_t>(at + done));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      support::fail("save_checkpoint: short write to " + path_ + ": " +
                    (n < 0 ? std::strerror(errno) : "no progress"));
    }
    done += static_cast<std::size_t>(n);
  }
  left_ = FileLeft{static_cast<std::uint64_t>(st.st_dev), static_cast<std::uint64_t>(st.st_ino),
                   at + bytes.size(), at + record_bytes};
  bytes_written_ += bytes.size();
  return true;
}

void CheckpointWriter::save_whole(const std::vector<RunRecord>& records) {
  std::string body;
  for (std::size_t i = 0; i < records.size(); ++i) append_record_line(body, records[i], i);
  const std::string end = end_line(records.size());
  left_.reset();
  std::string error;
  const bool written = support::write_file_atomic(path_, {head_, body, end}, &error);
  ensure(written, "save_checkpoint: " + error);
  const std::uint64_t size = head_.size() + body.size() + end.size();
  bytes_written_ += size;
  struct stat st {};
  if (::stat(path_.c_str(), &st) == 0 && static_cast<std::uint64_t>(st.st_size) == size) {
    left_ = FileLeft{static_cast<std::uint64_t>(st.st_dev), static_cast<std::uint64_t>(st.st_ino),
                     size, size - end.size()};
  }
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
        ensure(cp.driver == CampaignCheckpoint::kDriver,
               "checkpoint: unknown driver '" + cp.driver + "' (expected '" +
                   CampaignCheckpoint::kDriver + "')");
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
  } else if (!saw_end) {
    // A save cut short before its end line: every record line read so far
    // passed its CRC, so keep them all.
    constexpr const char* kMissingEnd = "checkpoint: missing end line (truncated file?)";
    ensure(recovery != nullptr, kMissingEnd);
    if (recovery->first_error.empty()) recovery->first_error = kMissingEnd;
  }
  return cp;
}

void save_checkpoint(const CampaignCheckpoint& checkpoint, const std::string& path) {
  CheckpointWriter(path, checkpoint.driver, checkpoint.scenario, checkpoint.config,
                   checkpoint.golden)
      .save(checkpoint.records);
}

CampaignCheckpoint load_checkpoint(const std::string& path, CheckpointRecovery* recovery) {
  // A short read throws: salvaging it as a torn file would truncate a good
  // checkpoint on disk.
  const std::optional<std::string> text = support::read_file(path, "load_checkpoint");
  ensure(text.has_value(), "load_checkpoint: cannot open " + path + ": no such file");

  CheckpointRecovery local;
  CampaignCheckpoint cp = checkpoint_from_jsonl(*text, &local);
  if (!local.first_error.empty()) {
    // Salvage once, then make the file clean: rewrite the recovered prefix
    // (with a matching end line) so the next load does not re-run recovery.
    save_checkpoint(cp, path);
    local.file_rewritten = true;
    std::fprintf(stderr,
                 "load_checkpoint: %s: dropped %zu corrupt record line(s) (%s); "
                 "file rewritten with the %zu good record(s)\n",
                 path.c_str(), local.dropped_records, local.first_error.c_str(),
                 cp.records.size());
  }
  if (recovery != nullptr) *recovery = local;
  return cp;
}

}  // namespace vps::fault
