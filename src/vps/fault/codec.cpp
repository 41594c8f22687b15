#include "vps/fault/codec.hpp"

#include <clocale>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "vps/obs/trace.hpp"
#include "vps/support/crc.hpp"
#include "vps/support/ensure.hpp"

namespace vps::fault::codec {

using support::ensure;

// --- writing ---------------------------------------------------------------

void append_str(std::string& line, const char* key, const std::string& value) {
  line += ",\"";
  line += key;
  line += "\":\"";
  line += obs::json_escape(value);
  line += '"';
}

void append_u64(std::string& line, const char* key, std::uint64_t value) {
  line += ",\"";
  line += key;
  line += "\":";
  line += std::to_string(value);
}

void append_i64(std::string& line, const char* key, std::int64_t value) {
  line += ",\"";
  line += key;
  line += "\":";
  line += std::to_string(value);
}

namespace {

/// The active locale's LC_NUMERIC radix character, or "." in the C locale.
/// %a and strtod both honour it, so hexfloats written under a comma locale
/// would read "0x1,8p+3" — not portable across processes with different
/// locales. Writers normalize to '.', readers localize back before strtod.
const char* locale_decimal_point() {
  const struct lconv* lc = std::localeconv();
  return lc != nullptr && lc->decimal_point != nullptr && *lc->decimal_point != '\0'
             ? lc->decimal_point
             : ".";
}

}  // namespace

void append_double(std::string& line, const char* key, double value) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%a", value);
  line += ",\"";
  line += key;
  line += "\":\"";
  const char* dp = locale_decimal_point();
  if (std::strcmp(dp, ".") != 0) {
    std::string fixed(buf);
    const std::size_t at = fixed.find(dp);
    if (at != std::string::npos) fixed.replace(at, std::strlen(dp), ".");
    line += fixed;
  } else {
    line += buf;
  }
  line += '"';
}

// --- flat-JSON line parsing ------------------------------------------------

LineParser::LineParser(const std::string& line) : line_(line) {
  if (line_.empty() || line_.front() != '{' || line_.back() != '}') [[unlikely]] {
    support::fail("codec: malformed line: " + line_);
  }
  std::size_t pos = 1;
  while (pos < line_.size() - 1) {
    const std::string key = parse_string(pos);
    if (pos >= line_.size() || line_[pos] != ':') [[unlikely]] {
      support::fail("codec: expected ':' in " + line_);
    }
    ++pos;
    if (line_[pos] == '"') {
      strings_.emplace_back(key, parse_string(pos));
    } else {
      std::size_t end = pos;
      while (end < line_.size() && line_[end] != ',' && line_[end] != '}') ++end;
      numbers_.emplace_back(key, line_.substr(pos, end - pos));
      pos = end;
    }
    if (pos < line_.size() && line_[pos] == ',') ++pos;
  }
}

bool LineParser::has(const char* key) const {
  for (const auto& [k, v] : strings_) {
    if (k == key) return true;
  }
  for (const auto& [k, v] : numbers_) {
    if (k == key) return true;
  }
  return false;
}

const std::string& LineParser::str(const char* key) const {
  for (const auto& [k, v] : strings_) {
    if (k == key) return v;
  }
  throw support::InvariantError("codec: missing string field '" + std::string(key) + "' in " +
                                line_);
}

std::uint64_t LineParser::u64(const char* key) const {
  return std::strtoull(number(key).c_str(), nullptr, 10);
}

std::int64_t LineParser::i64(const char* key) const {
  return std::strtoll(number(key).c_str(), nullptr, 10);
}

double LineParser::hexdouble(const char* key) const {
  // Stored text always spells the radix '.' (append_double normalizes); the
  // strtod of a comma locale would stop parsing there, so localize first.
  const std::string& stored = str(key);
  const char* dp = locale_decimal_point();
  if (std::strcmp(dp, ".") != 0) {
    std::string localized = stored;
    const std::size_t at = localized.find('.');
    if (at != std::string::npos) localized.replace(at, 1, dp);
    return std::strtod(localized.c_str(), nullptr);
  }
  return std::strtod(stored.c_str(), nullptr);
}

const std::string& LineParser::number(const char* key) const {
  for (const auto& [k, v] : numbers_) {
    if (k == key) return v;
  }
  throw support::InvariantError("codec: missing numeric field '" + std::string(key) + "' in " +
                                line_);
}

std::string LineParser::parse_string(std::size_t& pos) {
  if (pos >= line_.size() || line_[pos] != '"') [[unlikely]] {
    support::fail("codec: expected '\"' in " + line_);
  }
  ++pos;
  std::string out;
  while (pos < line_.size() && line_[pos] != '"') {
    char c = line_[pos];
    if (c == '\\') {
      if (pos + 1 >= line_.size()) [[unlikely]] support::fail("codec: dangling escape in " + line_);
      const char e = line_[pos + 1];
      pos += 2;
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos + 4 > line_.size()) [[unlikely]] {
            support::fail("codec: bad \\u escape in " + line_);
          }
          out += static_cast<char>(std::strtoul(line_.substr(pos, 4).c_str(), nullptr, 16));
          pos += 4;
          break;
        }
        default: support::fail("codec: unknown escape in " + line_);
      }
    } else {
      out += c;
      ++pos;
    }
  }
  if (pos >= line_.size()) [[unlikely]] support::fail("codec: unterminated string in " + line_);
  ++pos;  // closing quote
  return out;
}

// --- enum round trips ------------------------------------------------------

Strategy parse_strategy(const std::string& name) {
  for (int i = 0; i < 4; ++i) {
    const auto s = static_cast<Strategy>(i);
    if (name == to_string(s)) return s;
  }
  throw support::InvariantError("codec: unknown strategy '" + name + "'");
}

FaultType parse_fault_type(const std::string& name) {
  for (std::size_t i = 0; i < kFaultTypeCount; ++i) {
    const auto t = static_cast<FaultType>(i);
    if (name == to_string(t)) return t;
  }
  throw support::InvariantError("codec: unknown fault type '" + name + "'");
}

Persistence parse_persistence(const std::string& name) {
  for (int i = 0; i < 3; ++i) {
    const auto p = static_cast<Persistence>(i);
    if (name == to_string(p)) return p;
  }
  throw support::InvariantError("codec: unknown persistence '" + name + "'");
}

Outcome parse_outcome(const std::string& name) {
  for (std::size_t i = 0; i < kOutcomeCount; ++i) {
    const auto o = static_cast<Outcome>(i);
    if (name == to_string(o)) return o;
  }
  throw support::InvariantError("codec: unknown outcome '" + name + "'");
}

// --- aggregate field groups ------------------------------------------------

void append_config(std::string& line, const CampaignConfig& c) {
  append_u64(line, "runs", c.runs);
  append_u64(line, "seed", c.seed);
  append_str(line, "strategy", to_string(c.strategy));
  append_u64(line, "location_buckets", c.location_buckets);
  append_u64(line, "time_windows", c.time_windows);
  append_u64(line, "stop_after_hazards", c.stop_after_hazards);
  append_u64(line, "batch_size", c.batch_size);
  append_u64(line, "crash_retries", c.crash_retries);
}

CampaignConfig config_from(const LineParser& p) {
  CampaignConfig c;
  c.runs = p.u64("runs");
  c.seed = p.u64("seed");
  c.strategy = parse_strategy(p.str("strategy"));
  c.location_buckets = p.u64("location_buckets");
  c.time_windows = p.u64("time_windows");
  c.stop_after_hazards = p.u64("stop_after_hazards");
  c.batch_size = p.u64("batch_size");
  c.crash_retries = p.u64("crash_retries");
  return c;
}

void append_observation(std::string& line, const Observation& g) {
  append_u64(line, "signature", g.output_signature);
  append_u64(line, "completed", g.completed ? 1 : 0);
  append_u64(line, "hazard", g.hazard ? 1 : 0);
  append_u64(line, "detected", g.detected);
  append_u64(line, "corrected", g.corrected);
  append_u64(line, "resets", g.resets);
  append_u64(line, "deadline_misses", g.deadline_misses);
}

Observation observation_from(const LineParser& p) {
  Observation g;
  g.output_signature = static_cast<std::uint32_t>(p.u64("signature"));
  g.completed = p.u64("completed") != 0;
  g.hazard = p.u64("hazard") != 0;
  g.detected = p.u64("detected");
  g.corrected = p.u64("corrected");
  g.resets = p.u64("resets");
  g.deadline_misses = p.u64("deadline_misses");
  return g;
}

void append_fault(std::string& line, const FaultDescriptor& f) {
  append_u64(line, "id", f.id);
  append_str(line, "type", to_string(f.type));
  append_str(line, "persistence", to_string(f.persistence));
  append_u64(line, "inject_at_ps", f.inject_at.picoseconds());
  append_u64(line, "duration_ps", f.duration.picoseconds());
  append_str(line, "location", f.location);
  append_u64(line, "address", f.address);
  append_i64(line, "bit", f.bit);
  append_double(line, "magnitude", f.magnitude);
}

FaultDescriptor fault_from(const LineParser& p) {
  FaultDescriptor f;
  f.id = p.u64("id");
  f.type = parse_fault_type(p.str("type"));
  f.persistence = parse_persistence(p.str("persistence"));
  f.inject_at = sim::Time::ps(p.u64("inject_at_ps"));
  f.duration = sim::Time::ps(p.u64("duration_ps"));
  f.location = p.str("location");
  f.address = p.u64("address");
  f.bit = static_cast<int>(p.i64("bit"));
  f.magnitude = p.hexdouble("magnitude");
  return f;
}

namespace {

void append_provenance(std::string& line, const std::vector<obs::FaultProvenance>& provenance) {
  for (std::size_t k = 0; k < provenance.size(); ++k) {
    const obs::FaultProvenance& fp = provenance[k];
    append_str(line, ("prov" + std::to_string(k)).c_str(),
               std::to_string(fp.fault_id) + ":" + fp.encode());
  }
}

std::vector<obs::FaultProvenance> provenance_from(const LineParser& p) {
  std::vector<obs::FaultProvenance> out;
  for (std::size_t k = 0; p.has(("prov" + std::to_string(k)).c_str()); ++k) {
    const std::string& text = p.str(("prov" + std::to_string(k)).c_str());
    const std::size_t colon = text.find(':');
    ensure(colon != std::string::npos && colon > 0, "codec: bad provenance field");
    const std::uint64_t fault_id = std::strtoull(text.substr(0, colon).c_str(), nullptr, 10);
    out.push_back(obs::FaultProvenance::decode(fault_id, text.substr(colon + 1)));
  }
  return out;
}

}  // namespace

void append_replay(std::string& line, Outcome outcome, std::uint32_t attempts,
                   const std::string& crash_what,
                   const std::vector<obs::FaultProvenance>& provenance) {
  append_str(line, "outcome", to_string(outcome));
  append_u64(line, "attempts", attempts);
  if (!crash_what.empty()) append_str(line, "crash_what", crash_what);
  append_provenance(line, provenance);
}

ReplayFields replay_from(const LineParser& p) {
  ReplayFields r;
  r.outcome = parse_outcome(p.str("outcome"));
  r.attempts = static_cast<std::uint32_t>(p.u64("attempts"));
  if (p.has("crash_what")) r.crash_what = p.str("crash_what");
  r.provenance = provenance_from(p);
  return r;
}

void append_record(std::string& line, const RunRecord& r, std::size_t run_index) {
  append_u64(line, "run", run_index);
  append_str(line, "outcome", to_string(r.outcome));
  append_fault(line, r.fault);
  if (!r.crash_what.empty()) append_str(line, "crash_what", r.crash_what);
  append_provenance(line, r.provenance);
}

RunRecord record_from(const LineParser& p) {
  RunRecord r;
  r.outcome = parse_outcome(p.str("outcome"));
  r.fault = fault_from(p);
  if (p.has("crash_what")) r.crash_what = p.str("crash_what");
  r.provenance = provenance_from(p);
  return r;
}

// --- per-line CRC-32 trailers ----------------------------------------------

namespace {
constexpr const char* kCrcKey = ",\"crc\":\"";
constexpr std::size_t kCrcKeyLen = 8;    // strlen(kCrcKey)
constexpr std::size_t kCrcHexLen = 8;    // 8 lowercase hex digits
// kCrcKey + hex digits + closing "\"}" = the fixed-size trailer.
constexpr std::size_t kTrailerLen = kCrcKeyLen + kCrcHexLen + 2;
}  // namespace

std::string with_crc(const std::string& line) {
  ensure(!line.empty() && line.back() == '}', "codec: with_crc needs a complete object line");
  const std::uint32_t crc = support::crc32_ieee(
      {reinterpret_cast<const std::uint8_t*>(line.data()), line.size()});
  char hex[kCrcHexLen + 1];
  std::snprintf(hex, sizeof hex, "%08x", crc);
  std::string out = line.substr(0, line.size() - 1);
  out += kCrcKey;
  out += hex;
  out += "\"}";
  return out;
}

bool check_crc(const std::string& line, std::string* error) {
  if (line.size() < kTrailerLen || line.compare(line.size() - 2, 2, "\"}") != 0 ||
      line.compare(line.size() - kTrailerLen, kCrcKeyLen, kCrcKey) != 0) {
    return true;  // no CRC trailer: pre-v3 line, nothing to verify
  }
  const std::string hex = line.substr(line.size() - kCrcHexLen - 2, kCrcHexLen);
  char* end = nullptr;
  const std::uint32_t stored = static_cast<std::uint32_t>(std::strtoul(hex.c_str(), &end, 16));
  if (end == nullptr || *end != '\0') {
    if (error != nullptr) *error = "codec: malformed crc field in " + line;
    return false;
  }
  // Reconstruct the exact bytes the writer hashed: the line with the
  // trailer removed and the closing brace restored.
  std::string original = line.substr(0, line.size() - kTrailerLen);
  original += '}';
  const std::uint32_t actual = support::crc32_ieee(
      {reinterpret_cast<const std::uint8_t*>(original.data()), original.size()});
  if (actual != stored) {
    if (error != nullptr) {
      char buf[96];
      std::snprintf(buf, sizeof buf, "codec: line crc mismatch (stored %08x, computed %08x)",
                    stored, actual);
      *error = buf;
    }
    return false;
  }
  return true;
}

}  // namespace vps::fault::codec
