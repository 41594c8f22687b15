#pragma once

/// Shared flat-JSON line codec for campaign records — the single
/// implementation behind both persistence surfaces: the on-disk checkpoint
/// JSONL (fault/checkpoint.cpp) and the distributed-campaign wire protocol
/// (vps/dist/protocol.cpp). The service's run-lifecycle trace files
/// (vps/dist/trace.cpp) are written and read with it too. Serializing a FaultDescriptor, Observation or
/// RunRecord through either surface produces the same field spellings and
/// the same bitwise-exact value encodings (hexfloat doubles, picosecond
/// times), so a record can round-trip disk → wire → disk without drift.
///
/// Integrity: every line can carry a trailing CRC-32 field ("crc", IEEE
/// 802.3 over the line text without the field). with_crc() appends it,
/// check_crc() verifies it; lines without the field (checkpoint v2 and
/// older) verify trivially so old files keep loading.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "vps/fault/campaign.hpp"

namespace vps::fault::codec {

// --- writing ---------------------------------------------------------------

void append_str(std::string& line, const char* key, const std::string& value);
void append_u64(std::string& line, const char* key, std::uint64_t value);
void append_i64(std::string& line, const char* key, std::int64_t value);
/// Doubles go through hexfloat (as a JSON string — a bare hexfloat is not
/// valid JSON) so the value round-trips bitwise; %.17g can lose the exact
/// bit pattern under some libc printf/scanf pairings, hexfloat cannot.
void append_double(std::string& line, const char* key, double value);

// --- flat-JSON line parsing ------------------------------------------------

/// Minimal parser for the flat objects this module writes: string values
/// (with the obs::json_escape escapes) and plain integer/number tokens. Not
/// a general JSON parser and not meant to be one. Throws
/// support::InvariantError on malformed input.
class LineParser {
 public:
  explicit LineParser(const std::string& line);

  [[nodiscard]] bool has(const char* key) const;
  [[nodiscard]] const std::string& str(const char* key) const;
  [[nodiscard]] std::uint64_t u64(const char* key) const;
  [[nodiscard]] std::int64_t i64(const char* key) const;
  /// Hexfloat-encoded double (stored as a string field).
  [[nodiscard]] double hexdouble(const char* key) const;
  /// Every numeric field as (key, token text), in line order.
  [[nodiscard]] const std::vector<std::pair<std::string, std::string>>& numbers() const noexcept {
    return numbers_;
  }

 private:
  [[nodiscard]] const std::string& number(const char* key) const;
  std::string parse_string(std::size_t& pos);

  const std::string& line_;
  std::vector<std::pair<std::string, std::string>> strings_;
  std::vector<std::pair<std::string, std::string>> numbers_;
};

// --- enum round trips (names are the to_string spellings) ------------------

[[nodiscard]] Strategy parse_strategy(const std::string& name);
[[nodiscard]] FaultType parse_fault_type(const std::string& name);
[[nodiscard]] Persistence parse_persistence(const std::string& name);
[[nodiscard]] Outcome parse_outcome(const std::string& name);

// --- aggregate field groups ------------------------------------------------
// Appenders write ",key:value" sequences into an open JSON object; the
// caller owns the braces and any discriminator ("kind") field. The *_from
// readers are their exact inverses.

/// The determinism-relevant CampaignConfig fields plus crash handling
/// (workers and checkpoint cadence are execution-time choices, not state).
void append_config(std::string& line, const CampaignConfig& config);
[[nodiscard]] CampaignConfig config_from(const LineParser& p);

void append_observation(std::string& line, const Observation& observation);
[[nodiscard]] Observation observation_from(const LineParser& p);

/// Descriptor fields (id/type/persistence/times/location/address/bit/
/// magnitude) under the historical checkpoint spellings.
void append_fault(std::string& line, const FaultDescriptor& fault);
[[nodiscard]] FaultDescriptor fault_from(const LineParser& p);

/// Replay verdict fields: outcome, attempts, optional crash_what and the
/// provenance DAGs ("prov0", "prov1", ...).
void append_replay(std::string& line, Outcome outcome, std::uint32_t attempts,
                   const std::string& crash_what,
                   const std::vector<obs::FaultProvenance>& provenance);
struct ReplayFields {
  Outcome outcome = Outcome::kNoEffect;
  std::uint32_t attempts = 1;
  std::string crash_what;
  std::vector<obs::FaultProvenance> provenance;
};
[[nodiscard]] ReplayFields replay_from(const LineParser& p);

/// One checkpoint record line body: run index + outcome + fault +
/// crash_what/provenance — the v2 on-disk field order, byte-for-byte.
void append_record(std::string& line, const RunRecord& record, std::size_t run_index);
[[nodiscard]] RunRecord record_from(const LineParser& p);

// --- per-line CRC-32 trailers ----------------------------------------------

/// `line` must be a complete object "{...}" (no trailing newline). Returns
/// the line with ,"crc":"xxxxxxxx" (8 lowercase hex digits of the CRC-32 of
/// the original text) spliced in before the closing brace.
[[nodiscard]] std::string with_crc(const std::string& line);

/// Verifies a line that may carry a CRC trailer. A line without one passes
/// (pre-v3 data). Returns false on mismatch and describes it in `error`.
[[nodiscard]] bool check_crc(const std::string& line, std::string* error = nullptr);

}  // namespace vps::fault::codec
