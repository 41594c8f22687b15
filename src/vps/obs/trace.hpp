#pragma once

/// Structured tracing core of the observability layer (paper Sec. 3.3: the
/// VP advantage is "easy tracking of error propagation" — which needs more
/// than a VCD writer once errors cross layer boundaries). TraceEvent is the
/// shared vocabulary for kernel activity, TLM transactions, bus frames,
/// fault injections and campaign counters; sinks serialize it to
/// line-delimited JSON (JSONL, one object per line for log pipelines) or to
/// the Chrome trace-event format that chrome://tracing and Perfetto load.
///
/// Every timestamp derives from simulated time only — never the host clock —
/// so trace files are byte-identical across hosts and reruns and can be
/// golden-tested. Host time is the campaign service's business: its
/// run-lifecycle trace (dist/trace.hpp) records it per process and renders
/// its merged timeline through ChromeTraceSink.

#include <cstdint>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "vps/sim/time.hpp"

namespace vps::obs {

/// One named argument attached to a trace event (string or number).
struct TraceArg {
  std::string key;
  std::string text;  ///< payload when numeric == false
  double num = 0.0;  ///< payload when numeric == true
  bool numeric = false;

  [[nodiscard]] static TraceArg str(std::string key, std::string value) {
    return TraceArg{std::move(key), std::move(value), 0.0, false};
  }
  [[nodiscard]] static TraceArg number(std::string key, double value) {
    return TraceArg{std::move(key), {}, value, true};
  }
};

enum class EventKind : std::uint8_t {
  kComplete,  ///< span: begin timestamp + duration (both simulated time)
  kInstant,   ///< point occurrence
  kCounter,   ///< sampled numeric series; args carry the values
};

[[nodiscard]] const char* to_string(EventKind kind) noexcept;

struct TraceEvent {
  EventKind kind = EventKind::kInstant;
  sim::Time ts;               ///< simulated begin time
  sim::Time dur;              ///< kComplete only
  const char* category = "";  ///< static layer tag: "kernel", "tlm", "can", "fault", "campaign"
  std::string name;
  std::string track;  ///< visual lane (Perfetto thread); empty = category lane
  std::vector<TraceArg> args;
};

/// Receives every recorded event; implementations serialize or aggregate.
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void record(const TraceEvent& event) = 0;
  virtual void flush() {}
};

/// Line-delimited JSON: one self-contained object per event, e.g.
///   {"kind":"complete","ts_ps":12000,"dur_ps":250,"cat":"tlm",
///    "name":"write@0x40","track":"bus0","args":{"response":"OK"}}
/// "dur_ps" appears on complete events, "track"/"args" when non-empty.
class JsonlSink final : public TraceSink {
 public:
  explicit JsonlSink(const std::string& path);
  ~JsonlSink() override;
  JsonlSink(const JsonlSink&) = delete;
  JsonlSink& operator=(const JsonlSink&) = delete;

  void record(const TraceEvent& event) override;
  void flush() override;

  [[nodiscard]] std::uint64_t lines_written() const noexcept { return lines_; }

 private:
  std::ofstream out_;
  std::uint64_t lines_ = 0;
};

/// Chrome trace-event format (one JSON object holding a traceEvents array),
/// loadable in chrome://tracing and Perfetto. Timestamps are microseconds; picoseconds
/// map to fractional microseconds (printed with six decimals) so nothing is
/// rounded away. Tracks become threads of one synthetic process, named via
/// "thread_name" metadata events emitted on first use.
class ChromeTraceSink final : public TraceSink {
 public:
  explicit ChromeTraceSink(const std::string& path);
  ~ChromeTraceSink() override;  // finalizes the JSON document
  ChromeTraceSink(const ChromeTraceSink&) = delete;
  ChromeTraceSink& operator=(const ChromeTraceSink&) = delete;

  void record(const TraceEvent& event) override;
  void flush() override;
  /// Writes the closing brackets; further records are ignored. Idempotent.
  /// Returns false when any write to the file failed (e.g. a full disk).
  bool close();

  [[nodiscard]] std::uint64_t events_written() const noexcept { return events_; }

 private:
  [[nodiscard]] int tid_for(const std::string& track);
  void emit(const std::string& json);

  std::ofstream out_;
  std::vector<std::string> tracks_;  // index + 1 == tid
  std::uint64_t events_ = 0;
  bool open_ = true;
  bool first_ = true;
};

/// Fan-out hub the instrumented layers write to. Models hold a `Tracer*`
/// that is null while tracing is off, so the disabled fast path costs one
/// pointer test; with a tracer but no sinks only a counter is bumped.
class Tracer {
 public:
  void add_sink(TraceSink& sink) { sinks_.push_back(&sink); }
  [[nodiscard]] bool has_sinks() const noexcept { return !sinks_.empty(); }
  [[nodiscard]] std::uint64_t events() const noexcept { return events_; }

  void record(const TraceEvent& event) {
    ++events_;
    for (TraceSink* sink : sinks_) sink->record(event);
  }

  void complete(const char* category, std::string name, sim::Time begin, sim::Time dur,
                std::string track = {}, std::vector<TraceArg> args = {}) {
    record({EventKind::kComplete, begin, dur, category, std::move(name), std::move(track),
            std::move(args)});
  }
  void instant(const char* category, std::string name, sim::Time ts, std::string track = {},
               std::vector<TraceArg> args = {}) {
    record({EventKind::kInstant, ts, sim::Time::zero(), category, std::move(name),
            std::move(track), std::move(args)});
  }
  void counter(const char* category, std::string name, sim::Time ts,
               std::vector<TraceArg> values) {
    record({EventKind::kCounter, ts, sim::Time::zero(), category, std::move(name), {},
            std::move(values)});
  }

  void flush() {
    for (TraceSink* sink : sinks_) sink->flush();
  }

 private:
  std::vector<TraceSink*> sinks_;
  std::uint64_t events_ = 0;
};

/// JSON string escaping shared by the sinks (exposed for the schema tests).
[[nodiscard]] std::string json_escape(const std::string& text);

/// Locale-safe double formatting for every obs text sink (metrics scrape,
/// trace JSONL, /jobs status render). snprintf's %g honours LC_NUMERIC, so a
/// process running under e.g. de_DE prints "0,5" — which is not JSON and
/// breaks golden diffs. This wrapper formats with `significant_digits` of
/// precision (17 round-trips a double exactly) and rewrites whatever radix
/// character the active locale produced back to '.'.
[[nodiscard]] std::string format_double(double value, int significant_digits = 17);

}  // namespace vps::obs
