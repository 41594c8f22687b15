#pragma once

/// Cross-process run-lifecycle tracing for the distributed campaign service
/// (client → server → worker and back). Where obs/trace.hpp records *simulated*
/// time inside one kernel, this layer records *host* time across three
/// processes, so a slow or healed run can be diagnosed without attaching a
/// debugger to each tier: every run is correlated by (job token, run index)
/// and leaves a span at each hop —
///
///   submit     client    instant: the run's ASSIGN left for the server
///   admission  server    span: ASSIGN arrival → fair-share dispatch (queue wait)
///   dispatch   server    span: dispatch → RESULT arrival (worker round trip)
///   replay     worker    span: the replay itself
///   stream     server    instant: RESULT_STREAM relayed to the client
///   fold       client    instant: the verdict folded at a batch barrier
///
/// plus annotated events (reconnect, requeue, chaos perturbations, job
/// recovery) for the healing detours. Each tier writes its own file —
/// processes never share a descriptor — and `tools/vps-tracecat` merges them
/// into one Chrome-trace/Perfetto timeline.
///
/// File format. One flat object per line, written and read with the
/// campaign line codec (fault/codec.hpp) that also carries frames,
/// checkpoints and the server state dir: `trace_meta` (tier, pid, tok),
/// `span`, `event` (extra numeric fields after ts_ns) and `clockref`. Values
/// are exact 64-bit integers: job tokens use all 64 bits and timestamps are
/// raw CLOCK_MONOTONIC nanoseconds, neither of which fits obs::JsonlSink's
/// double-valued args or its picosecond clock. The merged timeline, whose
/// timestamps are rebased to the earliest event, is recorded as
/// obs::TraceEvents instead.
///
/// Clock alignment. All timestamps are CLOCK_MONOTONIC nanoseconds
/// (std::chrono::steady_clock), which never steps backwards but has a
/// per-host epoch. The v3 handshake fields carry the sender's clock on
/// REGISTER/SUBMIT/ASSIGN; the server records each (local arrival, remote
/// send) pair as a `clockref` line. The merger estimates a peer's offset as
///   offset = min over samples of (server_arrival_ns − peer_send_ns)
/// which equals the true clock offset plus the *smallest observed* one-way
/// network delay — so the estimate errs high by at most that delay, and every
/// extra sample can only tighten it. On a single host steady_clock shares one
/// epoch and the bound collapses to microseconds.
///
/// Zero cost when disabled. A tier holds a `DistTraceWriter*` that is null
/// unless a trace directory was configured; every emission site is one
/// pointer test. The v3 wire fields are encoded only when nonzero, so an
/// untraced fleet sends v2-shaped bytes.
///
/// Determinism contract: nothing here feeds verdict folding. Trace
/// timestamps ride beside results, never inside them, so arming tracing
/// cannot move a bit of campaign output (pinned by dist_trace_test).

#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace vps::obs {
class TraceSink;
}  // namespace vps::obs

namespace vps::dist {

/// The six hops of a complete run lifecycle, in journey order. A finished
/// run that is missing any of them in the merged trace lost instrumentation
/// somewhere — `incomplete_chains` reports exactly that.
inline constexpr const char* kChainPhases[6] = {"submit",  "admission", "dispatch",
                                               "replay",  "stream",    "fold"};

/// CLOCK_MONOTONIC now, in nanoseconds since the (per-host) epoch.
[[nodiscard]] std::uint64_t dist_now_ns();

/// end − begin, clamped to 0 when a reconnect or requeue reset the begin
/// timestamp after `end` was sampled. Timing fields are unsigned on the wire;
/// a wrapped difference would read as a ~584-year span.
[[nodiscard]] constexpr std::uint64_t saturating_elapsed_ns(std::uint64_t begin,
                                                            std::uint64_t end) noexcept {
  return end > begin ? end - begin : 0;
}

/// Append-only trace writer for one tier of one process. Lines are
/// flushed as written: workers are forked, chaos-killed and _exit() without
/// unwinding, so anything buffered would be lost exactly when it matters.
/// Thread-safe (the server emits from its supervision loop while draining).
class DistTraceWriter {
 public:
  /// Opens `dir/trace.<tier>.<pid>.jsonl` (clients append `.<tok>` before the
  /// extension — two tenant threads share one pid) and writes a trace_meta
  /// header line. Returns null when `dir` is empty: the writer pointer itself
  /// is the enabled/disabled switch. Also returns null, after reporting
  /// "tracing disabled" with the tier on stderr, when the file cannot be
  /// opened: a trace is never worth failing the campaign for.
  [[nodiscard]] static std::unique_ptr<DistTraceWriter> open(const std::string& dir,
                                                             const std::string& tier,
                                                             std::uint64_t tok = 0);
  ~DistTraceWriter();
  DistTraceWriter(const DistTraceWriter&) = delete;
  DistTraceWriter& operator=(const DistTraceWriter&) = delete;

  /// One lifecycle hop. Zero-duration spans render as instants in the merged
  /// timeline (submit/stream/fold are points, not intervals).
  void span(const char* phase, std::uint64_t tok, std::uint64_t run, std::uint64_t ts_ns,
            std::uint64_t dur_ns);

  /// One annotated occurrence (reconnect, requeue, chaos_drop, recover, ...).
  /// `extra` carries event-specific numeric detail; tok/run may be 0 when the
  /// event is not tied to one run.
  void event(const char* name, std::uint64_t tok, std::uint64_t run, std::uint64_t ts_ns,
             const std::vector<std::pair<std::string, std::uint64_t>>& extra = {});

  /// One clock-offset sample about a peer: `local_ns` is this process's clock
  /// at receipt, `remote_ns` the peer's clock at send (from a v3 ts_ns
  /// field). Peers are identified by pid (workers) or token (clients).
  void clockref(const char* peer_tier, std::uint64_t peer_pid, std::uint64_t peer_tok,
                std::uint64_t local_ns, std::uint64_t remote_ns);

  [[nodiscard]] const std::string& path() const noexcept { return path_; }

 private:
  DistTraceWriter(std::FILE* out, std::string path);
  /// Closes the object in `line` and writes it with its newline.
  void write_line(std::string& line);

  std::FILE* out_;
  std::string path_;
  std::mutex mu_;
};

// --- merge side (vps-tracecat) ---------------------------------------------

/// One span or event parsed back from a tier's trace file.
struct DistTraceEvent {
  bool is_span = false;
  std::string name;  ///< phase for spans, event name otherwise
  std::uint64_t tok = 0;
  std::uint64_t run = 0;
  std::uint64_t ts_ns = 0;   ///< emitter's local steady clock
  std::uint64_t dur_ns = 0;  ///< spans only
  std::vector<std::pair<std::string, std::uint64_t>> extra;  ///< events only
};

/// One clockref line: a (local arrival, remote send) pair about a peer.
struct ClockSample {
  std::string peer_tier;
  std::uint64_t peer_pid = 0;
  std::uint64_t peer_tok = 0;
  std::uint64_t local_ns = 0;
  std::uint64_t remote_ns = 0;
};

/// One per-process trace file, parsed and (after load) clock-aligned.
struct DistTraceSource {
  std::string tier;  ///< "client", "server" or "worker"
  std::uint64_t pid = 0;
  std::uint64_t tok = 0;  ///< client sources only (from the filename meta)
  std::string path;
  /// Added to this source's local timestamps to map them onto the reference
  /// (server) clock. 0 for the server itself and for unaligned sources.
  std::int64_t offset_ns = 0;
  bool aligned = false;  ///< a clockref sample anchored this source
  std::vector<DistTraceEvent> events;
  std::vector<ClockSample> clockrefs;  ///< samples this source took about peers
};

struct DistTrace {
  std::vector<DistTraceSource> sources;  ///< sorted by (tier, pid, tok)
};

/// All `trace.*.jsonl` files directly inside `dir`, sorted by name.
[[nodiscard]] std::vector<std::string> list_trace_files(const std::string& dir);

/// Parses the given trace files and computes per-source clock offsets from
/// the server's clockref samples (min-delay estimator, see file header).
/// Lines the codec rejects — a torn tail from a process killed mid-write —
/// are skipped, not fatal. The first server source (in sorted order) is the reference clock.
[[nodiscard]] DistTrace load_dist_trace(const std::vector<std::string>& paths);

/// Records the aligned trace into `sink` as one timeline (an
/// obs::ChromeTraceSink makes it Perfetto-loadable), rebased to the earliest
/// event. Each source is a lane named "<tier> <pid>[ tok=<hex16>]", with
/// " (unaligned)" appended when no clockref anchored it; spans with a
/// duration become kComplete events, everything else kInstant, all in
/// category "dist" with args tok (16 hex digits), run and the event extras.
/// Events are recorded in (aligned timestamp, tok, run, name, tier, pid)
/// order, so equal inputs produce byte-identical output.
void merge_to_chrome(const DistTrace& trace, obs::TraceSink& sink);

/// Per-run chain summary: one line per (tok, run) seen in any chain-phase
/// span, sorted by (tok, run), listing the phases present in journey order
/// and whether the chain is complete. This is the golden-diffable view: it
/// depends only on which hops ran, never on when.
[[nodiscard]] std::string chains_summary(const DistTrace& trace);

/// The (tok, run) chains missing at least one of kChainPhases, as
/// "tok=<hex16> run=<n> missing=<phase,...>" lines (empty = all complete).
[[nodiscard]] std::vector<std::string> incomplete_chains(const DistTrace& trace);

}  // namespace vps::dist
