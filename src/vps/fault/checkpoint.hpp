#pragma once

/// Campaign checkpoint/resume — the persistence substrate for preemptible,
/// shardable campaign workers (paper Sec. 3.4 calls for "very large"
/// error-effect campaigns; long campaigns must survive preemption without
/// losing determinism).
///
/// A checkpoint is deliberately minimal: driver + scenario identity, the
/// campaign config, the golden observation, and the ordered prefix of run
/// records. Everything else the engine holds — guided weights, fault-space
/// coverage, the closure curve, outcome counts — is
/// reconstructed on resume by replaying generate()/learn() over the
/// recorded prefix, which is exact because both are deterministic. The
/// regenerated descriptors are compared against the stored ones as an
/// integrity check, so a checkpoint from a different config, scenario or
/// code version fails loudly instead of silently diverging.
///
/// On-disk format: JSONL (one flat JSON object per line) with a versioned
/// header line and a trailing end line that guards against truncation.
/// Doubles are serialized as C99 hexfloat strings so the round trip is
/// bitwise exact. Since v3 every line also carries a CRC-32 trailer
/// (fault::codec::with_crc), so a flipped bit anywhere in a record is
/// detected instead of silently mis-parsed. A CheckpointWriter writes its
/// first file whole (temp file + rename) and every later save in place,
/// over the old end line; a kill during such a save leaves a torn tail,
/// which load_checkpoint() recovers from by keeping the CRC-valid record
/// lines before it (see CheckpointWriter for the exact guarantee).

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "vps/fault/campaign.hpp"

namespace vps::fault {

struct CampaignCheckpoint {
  /// Bump when the line schema changes; load accepts 1..kVersion (older
  /// checkpoints simply lack the newer optional fields).
  /// v1: header/config/golden/records.
  /// v2: records optionally carry per-fault provenance DAGs ("provN").
  /// v3: every line ends with a CRC-32 trailer ("crc"); v1/v2 files without
  ///     trailers still load, they just cannot detect in-line corruption.
  static constexpr std::uint32_t kVersion = 3;

  /// The one driver tag: every driver folds through one engine, so their
  /// checkpoints are interchangeable. The name predates that engine and is
  /// kept so older checkpoints of ParallelCampaign and DistCampaign load;
  /// "campaign", the old sequential driver's tag, no longer does.
  static constexpr const char* kDriver = "parallel_campaign";
  std::string driver;  ///< kDriver; parsing rejects anything else
  std::string scenario;  ///< Scenario::name() of the interrupted campaign
  CampaignConfig config;
  Observation golden;
  /// Completed runs 0..N-1 in run-index order.
  std::vector<RunRecord> records;

  /// The run index the resumed campaign continues from.
  [[nodiscard]] std::size_t next_run() const noexcept { return records.size(); }
};

/// What load_checkpoint() did about detected corruption or truncation.
/// dropped_records > 0 means the checkpoint came back shorter than written:
/// the first corrupt line and everything after it were discarded (resume
/// re-executes those runs — slower, never wrong). A file that merely lacks
/// its end line (a save cut short by a kill) drops nothing: first_error
/// says so and every CRC-valid record line is kept. Recovery changed the
/// checkpoint exactly when first_error is non-empty.
struct CheckpointRecovery {
  std::size_t dropped_records = 0;
  bool file_rewritten = false;  ///< on-disk file rewritten to the recovered prefix
  std::string first_error;      ///< the first corrupt line's error, or the missing end line
};

/// Serializes to the JSONL schema described above (always writes kVersion,
/// i.e. with per-line CRC trailers).
[[nodiscard]] std::string to_jsonl(const CampaignCheckpoint& checkpoint);

/// Parses a checkpoint; ensure()-fails on schema/version mismatch, malformed
/// lines, a failed line CRC, or a missing/inconsistent end line (truncated
/// file). With `recovery` non-null, damage confined to the record region is
/// downgraded and reported in `recovery`: a corrupt or torn line is dropped
/// with everything after it, a missing end line is accepted, and the
/// CRC-valid record lines before either are returned in order. Corruption
/// in the header/config/golden lines still throws — there is nothing to
/// resume without them.
[[nodiscard]] CampaignCheckpoint checkpoint_from_jsonl(const std::string& text,
                                                       CheckpointRecovery* recovery = nullptr);

/// Atomic save: writes `path` + ".tmp" then renames over `path`, so a kill
/// mid-write leaves either the previous checkpoint or a complete new one.
/// A failed save throws and leaves the previous file and no temp file.
void save_checkpoint(const CampaignCheckpoint& checkpoint, const std::string& path);

/// Incremental checkpointing of one campaign execution — what every driver
/// saves through at its barriers. The header, config and golden lines are
/// encoded once, at construction, and each record line once, by the save
/// that first includes it. After every completed save the file is
/// byte-identical to to_jsonl() of the same prefix.
///
/// The first save writes the whole file atomically (as save_checkpoint). A
/// later save writes only the new record lines and a fresh end line, in
/// place, starting at the byte offset of the old end line; so a barrier
/// costs the new records, not the prefix. It does so only while `path` is
/// still the file this writer left (same device, inode and size). When the
/// file was removed or replaced — a load_checkpoint() salvage renames a
/// shorter copy over it — the save takes the first-save path and rewrites
/// the whole file from `records`.
///
/// Crash contract. A kill during a later save can leave the previous
/// save's bytes up to its end line, then a prefix of the new bytes, then
/// possibly the tail of the old end line: in general a file without a valid
/// end line.
/// The bytes before the old end line are never written again, so
/// load_checkpoint() returns a prefix at least as long as the previous
/// completed save's and no longer than the interrupted save's, and rewrites
/// the file clean. A failed save throws; the file then loads the same way,
/// to at least the previous save's prefix, and the writer's next save
/// rewrites the whole file. A kill during a first save leaves the previous
/// file or the complete new one.
///
/// Records are append-only: save() ensure()-fails when the prefix shrinks,
/// and a saved record is read again only when the file has to be rewritten
/// whole. A writer belongs to one run()/resume() call.
class CheckpointWriter {
 public:
  CheckpointWriter(std::string path, const std::string& driver, const std::string& scenario,
                   const CampaignConfig& config, const Observation& golden);

  /// Leaves the checkpoint of `records` (runs 0..records.size()-1) at
  /// `path`. Throws support::InvariantError when the prefix is shorter than
  /// the last save's or the file cannot be written.
  void save(const std::vector<RunRecord>& records);

  /// Bytes written to disk by this writer's completed saves: whole files
  /// plus, per in-place save, its record lines and end line.
  [[nodiscard]] std::uint64_t bytes_written() const noexcept { return bytes_written_; }
  /// Completed saves.
  [[nodiscard]] std::uint64_t saves() const noexcept { return saves_; }

 private:
  /// Writes the new records and end line over the old end line; false,
  /// having written nothing, when `path` is not the file the last save left.
  bool save_in_place(const std::vector<RunRecord>& records);
  void save_whole(const std::vector<RunRecord>& records);

  /// The file the last completed save left at `path`.
  struct FileLeft {
    std::uint64_t device = 0;
    std::uint64_t inode = 0;
    std::uint64_t size = 0;
    std::uint64_t end_offset = 0;  ///< where its end line starts
  };

  std::string path_;
  std::string head_;         ///< header, config and golden lines
  std::size_t records_ = 0;  ///< record lines in the file the last save left
  std::optional<FileLeft> left_;
  std::uint64_t bytes_written_ = 0;
  std::uint64_t saves_ = 0;
};

/// Loads with recovery (checkpoint_from_jsonl with a `recovery`): whenever
/// recovery changed anything — a corrupt or torn record line, or a missing
/// end line — it is reported (stderr + `recovery` when given) and the file
/// is rewritten to the recovered prefix, so the next load is clean instead
/// of repeating the salvage. Header/config/golden corruption still throws,
/// and so does a failed read: a short read never reaches the parser.
[[nodiscard]] CampaignCheckpoint load_checkpoint(const std::string& path,
                                                 CheckpointRecovery* recovery = nullptr);

}  // namespace vps::fault
