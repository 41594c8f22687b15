#pragma once

/// Campaign checkpoint/resume — the persistence substrate for preemptible,
/// shardable campaign workers (paper Sec. 3.4 calls for "very large"
/// error-effect campaigns; long campaigns must survive preemption without
/// losing determinism).
///
/// A checkpoint is deliberately minimal: driver + scenario identity, the
/// campaign config, the golden observation, and the ordered prefix of run
/// records. Everything else a driver holds — guided weights, fault-space
/// coverage, the closure curve, outcome counts, RNG position — is
/// reconstructed on resume by replaying generate()/learn() over the
/// recorded prefix, which is exact because both are deterministic. The
/// regenerated descriptors are compared against the stored ones as an
/// integrity check, so a checkpoint from a different config, scenario or
/// code version fails loudly instead of silently diverging.
///
/// On-disk format: JSONL (one flat JSON object per line) with a versioned
/// header line and a trailing end line that guards against truncation
/// (e.g. SIGKILL mid-write; every save additionally writes to a temp file
/// and renames). Doubles are serialized as C99 hexfloat strings so the
/// round trip is bitwise exact. Since v3 every line also carries a CRC-32
/// trailer (fault::codec::with_crc), so a flipped bit anywhere in a record
/// is detected instead of silently mis-parsed; load_checkpoint() recovers
/// from record corruption by truncating to the last good record.

#include <cstdint>
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

  /// "campaign" (the sequential Campaign) or "parallel_campaign" (both
  /// batched drivers, ParallelCampaign and DistCampaign, write this tag).
  std::string driver;
  std::string scenario;  ///< Scenario::name() of the interrupted campaign
  CampaignConfig config;
  Observation golden;
  /// Completed runs 0..N-1 in run-index order.
  std::vector<RunRecord> records;

  /// The run index the resumed campaign continues from.
  [[nodiscard]] std::size_t next_run() const noexcept { return records.size(); }
};

/// What load_checkpoint() did about detected corruption. dropped_records >
/// 0 means the checkpoint came back shorter than written: the first corrupt
/// record and everything after it were discarded (resume re-executes those
/// runs — slower, never wrong).
struct CheckpointRecovery {
  std::size_t dropped_records = 0;
  bool file_rewritten = false;  ///< on-disk file truncated to the good prefix
  std::string first_error;      ///< what the first corrupt line failed with
};

/// Serializes to the JSONL schema described above (always writes kVersion,
/// i.e. with per-line CRC trailers).
[[nodiscard]] std::string to_jsonl(const CampaignCheckpoint& checkpoint);

/// Parses a checkpoint; ensure()-fails on schema/version mismatch, malformed
/// lines, a failed line CRC, or a missing/inconsistent end line (truncated
/// file). With `recovery` non-null, corruption confined to the record
/// region is downgraded: the corrupt record and all later ones are dropped
/// (reported in `recovery`) and the good prefix is returned; corruption in
/// the header/config/golden lines still throws — there is nothing to resume
/// without them.
[[nodiscard]] CampaignCheckpoint checkpoint_from_jsonl(const std::string& text,
                                                       CheckpointRecovery* recovery = nullptr);

/// Atomic save: writes `path` + ".tmp" then renames over `path`, so a kill
/// mid-write leaves either the previous checkpoint or a complete new one.
/// A failed save throws and leaves the previous file and no temp file.
void save_checkpoint(const CampaignCheckpoint& checkpoint, const std::string& path);

/// Incremental checkpointing of one campaign execution — what every driver
/// saves through at its barriers. The header, config and golden lines are
/// encoded once, at construction, and each record line once, by the first
/// save that includes it. A save writes the cached lines plus a fresh end
/// line atomically (as save_checkpoint), so it costs the encoding of the
/// new records plus one sequential file write, not a re-encoding of the
/// whole prefix. Every file it writes is byte-identical to to_jsonl() of
/// the same prefix.
///
/// Records are append-only: a saved record is never read again, so editing
/// it has no effect on later files, and save() ensure()-fails when the
/// prefix shrinks. A writer belongs to one run()/resume() call, so a later
/// resume never sees a stale cache.
class CheckpointWriter {
 public:
  CheckpointWriter(std::string path, const std::string& driver, const std::string& scenario,
                   const CampaignConfig& config, const Observation& golden);

  /// Replaces the file at `path` with the checkpoint of `records` (runs
  /// 0..records.size()-1). Throws support::InvariantError when the prefix
  /// is shorter than the last save's or the file cannot be written.
  void save(const std::vector<RunRecord>& records);

 private:
  std::string path_;
  std::string lines_;        ///< header, config, golden and every saved record line
  std::size_t records_ = 0;  ///< record lines in lines_
};

/// Loads with record-corruption recovery: a corrupt record line is reported
/// (stderr + `recovery` when given) and the file is rewritten truncated to
/// the last good record, so the next load is clean instead of repeating the
/// salvage. Header/config/golden corruption still throws.
[[nodiscard]] CampaignCheckpoint load_checkpoint(const std::string& path,
                                                 CheckpointRecovery* recovery = nullptr);

}  // namespace vps::fault
