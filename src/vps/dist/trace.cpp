#include "vps/dist/trace.hpp"

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>

#include "vps/fault/codec.hpp"
#include "vps/obs/trace.hpp"
#include "vps/support/ensure.hpp"

namespace vps::dist {

namespace codec = fault::codec;
using support::ensure;

std::uint64_t dist_now_ns() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

// ---------------------------------------------------------------------------
// DistTraceWriter
// ---------------------------------------------------------------------------

std::unique_ptr<DistTraceWriter> DistTraceWriter::open(const std::string& dir,
                                                       const std::string& tier,
                                                       std::uint64_t tok) {
  if (dir.empty()) return nullptr;
  const std::uint64_t pid = static_cast<std::uint64_t>(::getpid());
  std::string path = dir + "/trace." + tier + "." + std::to_string(pid);
  if (tok != 0) path += "." + std::to_string(tok);
  path += ".jsonl";
  std::FILE* out = std::fopen(path.c_str(), "wb");
  if (out == nullptr) {
    std::fprintf(stderr, "vps %s[%" PRIu64 "]: tracing disabled: cannot open %s: %s\n",
                 tier.c_str(), pid, path.c_str(), std::strerror(errno));
    return nullptr;
  }
  auto writer = std::unique_ptr<DistTraceWriter>(new DistTraceWriter(out, std::move(path)));
  std::string meta = "{\"kind\":\"trace_meta\"";
  codec::append_str(meta, "tier", tier);
  codec::append_u64(meta, "pid", pid);
  if (tok != 0) codec::append_u64(meta, "tok", tok);
  writer->write_line(meta);
  return writer;
}

DistTraceWriter::DistTraceWriter(std::FILE* out, std::string path)
    : out_(out), path_(std::move(path)) {}

DistTraceWriter::~DistTraceWriter() { std::fclose(out_); }

void DistTraceWriter::write_line(std::string& line) {
  line += "}\n";
  const std::lock_guard<std::mutex> lock(mu_);
  std::fwrite(line.data(), 1, line.size(), out_);
  // Flush per line: forked workers _exit() (or are chaos-killed) without
  // unwinding stdio, and a trace that loses its tail under chaos is useless.
  std::fflush(out_);
}

void DistTraceWriter::span(const char* phase, std::uint64_t tok, std::uint64_t run,
                           std::uint64_t ts_ns, std::uint64_t dur_ns) {
  std::string line = "{\"kind\":\"span\"";
  codec::append_str(line, "phase", phase);
  codec::append_u64(line, "tok", tok);
  codec::append_u64(line, "run", run);
  codec::append_u64(line, "ts_ns", ts_ns);
  codec::append_u64(line, "dur_ns", dur_ns);
  write_line(line);
}

void DistTraceWriter::event(const char* name, std::uint64_t tok, std::uint64_t run,
                            std::uint64_t ts_ns,
                            const std::vector<std::pair<std::string, std::uint64_t>>& extra) {
  std::string line = "{\"kind\":\"event\"";
  codec::append_str(line, "name", name);
  codec::append_u64(line, "tok", tok);
  codec::append_u64(line, "run", run);
  codec::append_u64(line, "ts_ns", ts_ns);
  for (const auto& [key, value] : extra) codec::append_u64(line, key.c_str(), value);
  write_line(line);
}

void DistTraceWriter::clockref(const char* peer_tier, std::uint64_t peer_pid,
                               std::uint64_t peer_tok, std::uint64_t local_ns,
                               std::uint64_t remote_ns) {
  std::string line = "{\"kind\":\"clockref\"";
  codec::append_str(line, "peer_tier", peer_tier);
  if (peer_pid != 0) codec::append_u64(line, "peer_pid", peer_pid);
  if (peer_tok != 0) codec::append_u64(line, "peer_tok", peer_tok);
  codec::append_u64(line, "local_ns", local_ns);
  codec::append_u64(line, "remote_ns", remote_ns);
  write_line(line);
}

// ---------------------------------------------------------------------------
// Parsing (merge side)
// ---------------------------------------------------------------------------

namespace {

/// Decodes one parsed line into `source`. Throws support::InvariantError
/// (via the parser) when a required field is missing.
void decode_line(const codec::LineParser& p, DistTraceSource& source) {
  const std::string& kind = p.str("kind");
  if (kind == "trace_meta") {
    source.tier = p.str("tier");
    source.pid = p.u64("pid");
    source.tok = p.has("tok") ? p.u64("tok") : 0;
  } else if (kind == "span" || kind == "event") {
    DistTraceEvent e;
    e.is_span = kind == "span";
    e.name = p.str(e.is_span ? "phase" : "name");
    e.tok = p.u64("tok");
    e.run = p.u64("run");
    e.ts_ns = p.u64("ts_ns");
    if (e.is_span) {
      e.dur_ns = p.u64("dur_ns");
    } else {
      for (const auto& [key, text] : p.numbers()) {
        if (key != "tok" && key != "run" && key != "ts_ns") {
          e.extra.emplace_back(key, p.u64(key.c_str()));
        }
      }
    }
    source.events.push_back(std::move(e));
  } else if (kind == "clockref") {
    ClockSample s;
    s.peer_tier = p.str("peer_tier");
    s.peer_pid = p.has("peer_pid") ? p.u64("peer_pid") : 0;
    s.peer_tok = p.has("peer_tok") ? p.u64("peer_tok") : 0;
    s.local_ns = p.u64("local_ns");
    s.remote_ns = p.u64("remote_ns");
    source.clockrefs.push_back(std::move(s));
  }
}

void parse_source_file(const std::string& path, DistTraceSource& source) {
  std::ifstream in(path, std::ios::binary);
  ensure(in.good(), "dist_trace: cannot open " + path);
  std::string line;
  while (std::getline(in, line)) {
    try {
      decode_line(codec::LineParser(line), source);
    } catch (const support::InvariantError&) {
      // A line the codec rejects, e.g. the torn tail of a killed process.
    }
  }
}

}  // namespace

std::vector<std::string> list_trace_files(const std::string& dir) {
  std::vector<std::string> paths;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    if (name.rfind("trace.", 0) == 0 && name.size() > 6 &&
        name.compare(name.size() - 6, 6, ".jsonl") == 0) {
      paths.push_back(entry.path().string());
    }
  }
  std::sort(paths.begin(), paths.end());
  return paths;
}

DistTrace load_dist_trace(const std::vector<std::string>& paths) {
  DistTrace trace;
  for (const std::string& path : paths) {
    DistTraceSource source;
    source.path = path;
    parse_source_file(path, source);
    trace.sources.push_back(std::move(source));
  }
  std::sort(trace.sources.begin(), trace.sources.end(),
            [](const DistTraceSource& a, const DistTraceSource& b) {
              return std::tie(a.tier, a.pid, a.tok) < std::tie(b.tier, b.pid, b.tok);
            });

  // The first server source is the reference clock; its clockrefs align
  // everyone else. min(local − remote) = true offset + smallest observed
  // one-way delay, so the estimate only improves with samples.
  const DistTraceSource* reference = nullptr;
  for (const DistTraceSource& s : trace.sources) {
    if (s.tier == "server") {
      reference = &s;
      break;
    }
  }
  for (DistTraceSource& s : trace.sources) {
    if (reference == nullptr) break;
    if (&s == reference) {
      s.offset_ns = 0;
      s.aligned = true;
      continue;
    }
    bool have = false;
    std::int64_t best = 0;
    for (const ClockSample& sample : reference->clockrefs) {
      const bool matches = sample.peer_tier == s.tier &&
                           ((sample.peer_pid != 0 && sample.peer_pid == s.pid) ||
                            (sample.peer_tok != 0 && sample.peer_tok == s.tok));
      if (!matches) continue;
      const std::int64_t candidate =
          static_cast<std::int64_t>(sample.local_ns) - static_cast<std::int64_t>(sample.remote_ns);
      if (!have || candidate < best) best = candidate;
      have = true;
    }
    if (have) {
      s.offset_ns = best;
      s.aligned = true;
    }
  }
  return trace;
}

// ---------------------------------------------------------------------------
// Rendering
// ---------------------------------------------------------------------------

namespace {

std::string tok_hex(std::uint64_t tok) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, tok);
  return buf;
}

std::uint64_t align_ts(const DistTraceSource& s, std::uint64_t ts_ns) {
  const std::int64_t shifted = static_cast<std::int64_t>(ts_ns) + s.offset_ns;
  return shifted > 0 ? static_cast<std::uint64_t>(shifted) : 0;
}

/// One event placed on the reference clock.
struct PlacedEvent {
  std::uint64_t ts_ns = 0;  ///< aligned, then rebased
  const DistTraceSource* source = nullptr;
  const DistTraceEvent* event = nullptr;
};

}  // namespace

void merge_to_chrome(const DistTrace& trace, obs::TraceSink& sink) {
  std::vector<PlacedEvent> placed;
  std::uint64_t epoch = UINT64_MAX;
  for (const DistTraceSource& s : trace.sources) {
    for (const DistTraceEvent& e : s.events) {
      const std::uint64_t at = align_ts(s, e.ts_ns);
      epoch = std::min(epoch, at);
      placed.push_back({at, &s, &e});
    }
  }
  // Rebase to the earliest aligned timestamp so the timeline starts near 0
  // instead of at hours-of-uptime offsets.
  for (PlacedEvent& p : placed) p.ts_ns -= epoch;

  // (timestamp, correlation id, ...) sort: concurrent spans from different
  // processes land in one stable order, so equal inputs render equal bytes.
  std::sort(placed.begin(), placed.end(), [](const PlacedEvent& a, const PlacedEvent& b) {
    return std::tie(a.ts_ns, a.event->tok, a.event->run, a.event->name, a.source->tier,
                    a.source->pid) < std::tie(b.ts_ns, b.event->tok, b.event->run,
                                              b.event->name, b.source->tier, b.source->pid);
  });

  for (const PlacedEvent& p : placed) {
    const DistTraceSource& s = *p.source;
    const DistTraceEvent& e = *p.event;
    obs::TraceEvent out;
    const bool span = e.is_span && e.dur_ns > 0;
    out.kind = span ? obs::EventKind::kComplete : obs::EventKind::kInstant;
    out.ts = sim::Time::ns(p.ts_ns);
    if (span) out.dur = sim::Time::ns(e.dur_ns);
    out.category = "dist";
    out.name = e.name;
    out.track = s.tier + " " + std::to_string(s.pid);
    if (s.tok != 0) out.track += " tok=" + tok_hex(s.tok);
    if (!s.aligned) out.track += " (unaligned)";
    out.args.push_back(obs::TraceArg::str("tok", tok_hex(e.tok)));
    out.args.push_back(obs::TraceArg::number("run", static_cast<double>(e.run)));
    for (const auto& [key, value] : e.extra) {
      out.args.push_back(obs::TraceArg::number(key, static_cast<double>(value)));
    }
    sink.record(out);
  }
}

namespace {

/// Phase-presence bitset per (tok, run), chain spans only.
std::map<std::pair<std::uint64_t, std::uint64_t>, std::set<std::size_t>> collect_chains(
    const DistTrace& trace) {
  std::map<std::pair<std::uint64_t, std::uint64_t>, std::set<std::size_t>> chains;
  for (const DistTraceSource& s : trace.sources) {
    for (const DistTraceEvent& e : s.events) {
      if (!e.is_span || e.tok == 0) continue;
      for (std::size_t i = 0; i < 6; ++i) {
        if (e.name == kChainPhases[i]) {
          chains[{e.tok, e.run}].insert(i);
          break;
        }
      }
    }
  }
  return chains;
}

}  // namespace

std::string chains_summary(const DistTrace& trace) {
  std::string out;
  for (const auto& [key, phases] : collect_chains(trace)) {
    out += "tok=" + tok_hex(key.first) + " run=" + std::to_string(key.second) + " phases=";
    bool first = true;
    for (std::size_t i = 0; i < 6; ++i) {
      if (phases.count(i) == 0) continue;
      if (!first) out += ",";
      first = false;
      out += kChainPhases[i];
    }
    out += phases.size() == 6 ? " complete=yes" : " complete=no";
    out += "\n";
  }
  return out;
}

std::vector<std::string> incomplete_chains(const DistTrace& trace) {
  std::vector<std::string> out;
  for (const auto& [key, phases] : collect_chains(trace)) {
    if (phases.size() == 6) continue;
    std::string line =
        "tok=" + tok_hex(key.first) + " run=" + std::to_string(key.second) + " missing=";
    bool first = true;
    for (std::size_t i = 0; i < 6; ++i) {
      if (phases.count(i) != 0) continue;
      if (!first) line += ",";
      first = false;
      line += kChainPhases[i];
    }
    out.push_back(std::move(line));
  }
  return out;
}

}  // namespace vps::dist
