#include "vps/obs/trace.hpp"

#include <clocale>
#include <cstdio>
#include <cstring>

#include "vps/support/ensure.hpp"

namespace vps::obs {

using support::ensure;

const char* to_string(EventKind kind) noexcept {
  switch (kind) {
    case EventKind::kComplete: return "complete";
    case EventKind::kInstant: return "instant";
    case EventKind::kCounter: return "counter";
  }
  return "?";
}

namespace {

/// Length of the valid UTF-8 sequence starting at text[i], or 0 if the
/// bytes there are not well-formed UTF-8 (truncated sequence, bad
/// continuation byte, overlong encoding, surrogate range, > U+10FFFF).
std::size_t utf8_sequence_length(const std::string& text, std::size_t i) {
  const auto b0 = static_cast<unsigned char>(text[i]);
  if (b0 < 0x80) return 1;
  std::size_t len = 0;
  std::uint32_t min_cp = 0;
  std::uint32_t cp = 0;
  if ((b0 & 0xE0) == 0xC0) {
    len = 2, min_cp = 0x80, cp = b0 & 0x1Fu;
  } else if ((b0 & 0xF0) == 0xE0) {
    len = 3, min_cp = 0x800, cp = b0 & 0x0Fu;
  } else if ((b0 & 0xF8) == 0xF0) {
    len = 4, min_cp = 0x10000, cp = b0 & 0x07u;
  } else {
    return 0;  // lone continuation byte or 0xF8..0xFF
  }
  if (i + len > text.size()) return 0;
  for (std::size_t k = 1; k < len; ++k) {
    const auto b = static_cast<unsigned char>(text[i + k]);
    if ((b & 0xC0) != 0x80) return 0;
    cp = (cp << 6) | (b & 0x3Fu);
  }
  if (cp < min_cp) return 0;                     // overlong encoding
  if (cp >= 0xD800 && cp <= 0xDFFF) return 0;    // UTF-16 surrogate
  if (cp > 0x10FFFF) return 0;                   // beyond Unicode
  return len;
}

}  // namespace

std::string json_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (std::size_t i = 0; i < text.size();) {
    const char c = text[i];
    const auto uc = static_cast<unsigned char>(c);
    switch (c) {
      case '"': out += "\\\""; ++i; continue;
      case '\\': out += "\\\\"; ++i; continue;
      case '\b': out += "\\b"; ++i; continue;
      case '\f': out += "\\f"; ++i; continue;
      case '\n': out += "\\n"; ++i; continue;
      case '\r': out += "\\r"; ++i; continue;
      case '\t': out += "\\t"; ++i; continue;
      default: break;
    }
    if (uc < 0x20) {
      // All remaining C0 controls: Chrome's trace viewer rejects raw bytes
      // like \x1f, so every one of 0x00..0x1F must leave as \u00XX.
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(uc));
      out += buf;
      ++i;
      continue;
    }
    if (uc < 0x80) {
      out += c;
      ++i;
      continue;
    }
    // Non-ASCII: pass well-formed UTF-8 sequences through untouched and
    // replace each invalid byte with the (escaped) replacement character,
    // so the output is always valid UTF-8 JSON regardless of the input.
    if (const std::size_t len = utf8_sequence_length(text, i); len != 0) {
      out.append(text, i, len);
      i += len;
    } else {
      out += "\\ufffd";
      ++i;
    }
  }
  return out;
}

std::string format_double(double value, int significant_digits) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*g", significant_digits, value);
  // Undo whatever radix character LC_NUMERIC injected. The locale's decimal
  // point can be multi-byte (e.g. U+066B is three UTF-8 bytes), so splice by
  // substring, not by character.
  const struct lconv* lc = std::localeconv();
  const char* dp = lc != nullptr ? lc->decimal_point : ".";
  if (dp != nullptr && std::strcmp(dp, ".") != 0 && *dp != '\0') {
    std::string out(buf);
    const std::size_t at = out.find(dp);
    if (at != std::string::npos) out.replace(at, std::strlen(dp), ".");
    return out;
  }
  return buf;
}

namespace {

/// Shortest round-trippable formatting for numeric args; integral values
/// print without a decimal point so golden files stay stable and readable.
std::string format_number(double value) {
  char buf[48];
  if (value == static_cast<double>(static_cast<long long>(value)) && value > -1e15 &&
      value < 1e15) {
    std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(value));
    return buf;
  }
  return format_double(value);
}

std::string format_args(const std::vector<TraceArg>& args) {
  std::string out = "{";
  bool first = true;
  for (const TraceArg& arg : args) {
    if (!first) out += ',';
    first = false;
    out += '"' + json_escape(arg.key) + "\":";
    if (arg.numeric) {
      out += format_number(arg.num);
    } else {
      out += '"' + json_escape(arg.text) + '"';
    }
  }
  out += '}';
  return out;
}

/// Picoseconds as fractional microseconds (Chrome trace `ts` unit).
std::string format_us(sim::Time t) {
  char buf[48];
  const std::uint64_t ps = t.picoseconds();
  std::snprintf(buf, sizeof buf, "%llu.%06llu", static_cast<unsigned long long>(ps / 1000000ULL),
                static_cast<unsigned long long>(ps % 1000000ULL));
  return buf;
}

}  // namespace

// ---------------------------------------------------------------------------
// JsonlSink
// ---------------------------------------------------------------------------

JsonlSink::JsonlSink(const std::string& path) : out_(path) {
  ensure(out_.is_open(), "JsonlSink: cannot open " + path);
}

JsonlSink::~JsonlSink() { out_.flush(); }

void JsonlSink::record(const TraceEvent& event) {
  std::string line = "{\"kind\":\"";
  line += to_string(event.kind);
  line += "\",\"ts_ps\":" + std::to_string(event.ts.picoseconds());
  if (event.kind == EventKind::kComplete) {
    line += ",\"dur_ps\":" + std::to_string(event.dur.picoseconds());
  }
  line += ",\"cat\":\"" + json_escape(event.category) + "\"";
  line += ",\"name\":\"" + json_escape(event.name) + "\"";
  if (!event.track.empty()) line += ",\"track\":\"" + json_escape(event.track) + "\"";
  if (!event.args.empty()) line += ",\"args\":" + format_args(event.args);
  line += "}\n";
  out_ << line;
  ++lines_;
}

void JsonlSink::flush() { out_.flush(); }

// ---------------------------------------------------------------------------
// ChromeTraceSink
// ---------------------------------------------------------------------------

ChromeTraceSink::ChromeTraceSink(const std::string& path) : out_(path) {
  ensure(out_.is_open(), "ChromeTraceSink: cannot open " + path);
  out_ << R"({"displayTimeUnit":"ns","traceEvents":[)";
}

ChromeTraceSink::~ChromeTraceSink() { close(); }

void ChromeTraceSink::emit(const std::string& json) {
  if (!first_) out_ << ",";
  first_ = false;
  out_ << "\n" << json;
}

int ChromeTraceSink::tid_for(const std::string& track) {
  for (std::size_t i = 0; i < tracks_.size(); ++i) {
    if (tracks_[i] == track) return static_cast<int>(i) + 1;
  }
  tracks_.push_back(track);
  const int tid = static_cast<int>(tracks_.size());
  emit("{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":" + std::to_string(tid) +
       ",\"args\":{\"name\":\"" + json_escape(track) + "\"}}");
  return tid;
}

void ChromeTraceSink::record(const TraceEvent& event) {
  if (!open_) return;
  const std::string& track = event.track.empty() ? std::string(event.category) : event.track;
  const int tid = tid_for(track);
  std::string json = "{\"name\":\"" + json_escape(event.name) + "\",\"cat\":\"" +
                     json_escape(event.category) + "\",\"pid\":1,\"tid\":" + std::to_string(tid) +
                     ",\"ts\":" + format_us(event.ts);
  switch (event.kind) {
    case EventKind::kComplete:
      json += ",\"ph\":\"X\",\"dur\":" + format_us(event.dur);
      break;
    case EventKind::kInstant:
      json += ",\"ph\":\"i\",\"s\":\"t\"";
      break;
    case EventKind::kCounter:
      json += ",\"ph\":\"C\"";
      break;
  }
  if (!event.args.empty()) json += ",\"args\":" + format_args(event.args);
  json += "}";
  emit(json);
  ++events_;
}

void ChromeTraceSink::flush() { out_.flush(); }

bool ChromeTraceSink::close() {
  if (open_) {
    open_ = false;
    out_ << "\n]}\n";
    out_.flush();
  }
  return !out_.fail();
}

}  // namespace vps::obs
