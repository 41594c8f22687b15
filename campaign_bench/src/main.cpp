// Campaign benchmark: runs the Fig. 3 error-effect loop end to end on one
// workload (twin x campaign driver), checks the fold bitwise against the
// in-process 1-thread reference, and prints every metric by name with its
// unit. The last stdout line is one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// --trace 0 reports the end-to-end metrics of an untraced run; --trace 1
// reports the per-layer metrics of a traced run (plus an untraced twin run
// for the tracing overhead) and writes a Chrome trace. See README.md.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <map>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include <sys/resource.h>
#include <unistd.h>

#include "analysis.hpp"
#include "args.hpp"
#include "probe.hpp"
#include "vps/apps/registry.hpp"
#include "vps/fault/checkpoint.hpp"
#include "vps/fault/codec.hpp"
#include "vps/obs/trace.hpp"
#include "workloads.hpp"

#ifndef CAMPAIGN_BENCH_BUILD_TYPE
#define CAMPAIGN_BENCH_BUILD_TYPE "unknown"
#endif
#ifndef CAMPAIGN_BENCH_COMPILER
#define CAMPAIGN_BENCH_COMPILER "unknown"
#endif

using namespace campaign_bench;
namespace dist = vps::dist;
namespace fault = vps::fault;
namespace obs = vps::obs;

namespace {

/// setup_s is sampled on the measured campaign and on this many one-batch
/// executions before it and as many after it ...
constexpr std::size_t kSetupSamplesEachSide = 12;
/// ... and reported as the median of the minima of this many strided groups
/// of those samples (each group spans both sides of the campaign).
constexpr std::size_t kSetupGroups = 8;
/// Barrier prefixes at which the traced run times fault::save_checkpoint.
constexpr std::size_t kCheckpointProbes = 24;

std::string num(double v) { return obs::format_double(v, 17); }

double ms(double ns) { return ns / 1e6; }

/// An ordered name -> (value, unit) list, printed as the result's metrics.
struct Metrics {
  std::vector<std::pair<std::string, std::pair<double, std::string>>> items;
  std::vector<std::string> non_finite;  ///< names whose value was NaN or infinite (printed as 0)
  void add(const std::string& name, double value, const std::string& unit) {
    if (!std::isfinite(value)) {
      non_finite.push_back(name);
      value = 0;
    }
    items.push_back({name, {value, unit}});
  }
  [[nodiscard]] std::string json() const {
    std::string out = "{";
    for (const auto& [name, vu] : items) {
      if (out.size() > 1) out += ", ";
      out += "\"" + name + "\": {\"value\": " + num(vu.first) + ", \"unit\": \"" + vu.second +
             "\"}";
    }
    return out + "}";
  }
};

/// Free-form facts (JSON fragments) for the info line and the result file.
struct Info {
  std::vector<std::pair<std::string, std::string>> items;
  void str(const std::string& k, const std::string& v) {
    items.push_back({k, "\"" + obs::json_escape(v) + "\""});
  }
  void number(const std::string& k, double v) { items.push_back({k, num(v)}); }
  void raw(const std::string& k, const std::string& json) { items.push_back({k, json}); }
  [[nodiscard]] std::string json() const {
    std::string out = "{";
    for (const auto& [k, v] : items) {
      if (out.size() > 1) out += ", ";
      out += "\"" + k + "\": " + v;
    }
    return out + "}";
  }
};

std::vector<double> durations_ms(const std::vector<ReplaySample>& samples) {
  std::vector<double> out;
  for (const ReplaySample& s : samples) {
    if (s.run != kGoldenRun) out.push_back(ms(static_cast<double>(s.end_ns - s.start_ns)));
  }
  return out;
}

std::vector<double> barrier_intervals_ms(const std::vector<std::int64_t>& barriers) {
  std::vector<double> out;
  for (std::size_t k = 1; k < barriers.size(); ++k) {
    out.push_back(ms(static_cast<double>(barriers[k] - barriers[k - 1])));
  }
  return out;
}

double mean(const std::vector<double>& v) {
  return v.empty() ? 0.0 : std::accumulate(v.begin(), v.end(), 0.0) / static_cast<double>(v.size());
}

double runs_per_second(const Execution& ex) {
  const double s = static_cast<double>(ex.end_ns - ex.first_replay_ns()) / 1e9;
  return s > 0 ? static_cast<double>(ex.result.runs_executed) / s : 0.0;
}

double rss_mb(int who) {
  rusage ru{};
  ::getrusage(who, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

/// Host time of the checkpoint codec on this fold's records, by calling
/// fault::codec::append_record / record_from from outside.
struct CodecTiming {
  double encode_us = 0;
  double decode_us = 0;
  double bytes = 0;
  bool round_trip = true;
  std::int64_t begin_ns = 0, encode_end_ns = 0, decode_end_ns = 0;
};

CodecTiming time_codec(const fault::CampaignResult& result) {
  CodecTiming t;
  const std::size_t n = result.records.size();
  if (n == 0) return t;
  std::vector<std::string> lines(n);
  t.begin_ns = now_ns();
  for (std::size_t i = 0; i < n; ++i) lines[i] = record_line(result.records[i], i);
  t.encode_end_ns = now_ns();
  std::vector<fault::RunRecord> decoded(n);
  for (std::size_t i = 0; i < n; ++i) {
    const fault::codec::LineParser parser(lines[i]);
    decoded[i] = fault::codec::record_from(parser);
  }
  t.decode_end_ns = now_ns();
  std::size_t bytes = 0;
  for (std::size_t i = 0; i < n; ++i) {
    bytes += lines[i].size();
    t.round_trip = t.round_trip && record_line(decoded[i], i) == lines[i];
  }
  const double dn = static_cast<double>(n);
  t.encode_us = static_cast<double>(t.encode_end_ns - t.begin_ns) / 1e3 / dn;
  t.decode_us = static_cast<double>(t.decode_end_ns - t.encode_end_ns) / 1e3 / dn;
  t.bytes = static_cast<double>(bytes) / dn;
  return t;
}

/// fault::save_checkpoint timed by the bench on this fold's barrier
/// prefixes (evenly spaced, so the mean stands for every barrier's save).
struct SaveTiming {
  std::int64_t start_ns = 0, end_ns = 0;
  std::size_t records = 0;
};

std::vector<SaveTiming> time_checkpoints(const Execution& ex, const fault::CampaignConfig& config,
                                         const std::string& work_dir) {
  std::vector<SaveTiming> out;
  const std::size_t batches = (ex.result.records.size() + kBatchSize - 1) / kBatchSize;
  const std::size_t probes = std::min(kCheckpointProbes, batches);
  const std::string path = work_dir + "/probe_checkpoint.jsonl";
  for (std::size_t j = 1; j <= probes; ++j) {
    const std::size_t records =
        std::min(ex.result.records.size(), (batches * j / probes) * kBatchSize);
    fault::CampaignCheckpoint cp;
    cp.driver = "parallel_campaign";
    cp.scenario = ex.scenario_name;
    cp.config = config;
    cp.golden = ex.golden;
    cp.records.assign(ex.result.records.begin(),
                      ex.result.records.begin() + static_cast<std::ptrdiff_t>(records));
    SaveTiming t;
    t.records = records;
    t.start_ns = now_ns();
    fault::save_checkpoint(cp, path);
    t.end_ns = now_ns();
    out.push_back(t);
  }
  std::filesystem::remove(path);
  return out;
}

/// Bench-side spans of the traced run, held in memory and written once.
class SpanLog {
 public:
  explicit SpanLog(std::int64_t t0_ns) : t0_ns_(t0_ns) {}
  void span(const char* category, std::string name, std::string track, std::int64_t start_ns,
            std::int64_t end_ns, std::vector<obs::TraceArg> args = {}) {
    // Host nanoseconds since workload start, carried as picoseconds.
    const auto at = [this](std::int64_t ns) {
      return vps::sim::Time::ns(static_cast<std::uint64_t>(std::max<std::int64_t>(0, ns - t0_ns_)));
    };
    const vps::sim::Time begin = at(start_ns);
    const vps::sim::Time end = at(std::max(start_ns, end_ns));
    events_.push_back({obs::EventKind::kComplete, begin,
                       vps::sim::Time::ps(end.picoseconds() - begin.picoseconds()), category,
                       std::move(name), std::move(track), std::move(args)});
  }
  void write(const std::string& path) const {
    obs::ChromeTraceSink sink(path);
    for (const obs::TraceEvent& e : events_) sink.record(e);
    sink.close();
  }
  [[nodiscard]] std::size_t size() const noexcept { return events_.size(); }

 private:
  std::int64_t t0_ns_;
  std::vector<obs::TraceEvent> events_;
};

std::string hex32(std::uint32_t v) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "%08x", v);
  return buf;
}

/// What one invocation measures: the workload, its campaign and where its
/// temporary files go.
struct Plan {
  const Args& args;
  const Workload& workload;
  std::size_t runs;
  std::size_t batches;
  fault::CampaignConfig config;
  std::string work_dir;
};

/// Prints "BUG:" lines and remembers that the result is not correct.
struct Verdict {
  bool correct = true;
  std::uint64_t failed = 0;  ///< crashed, quarantined and fold-mismatched runs
  void bug(const std::string& what) {
    std::printf("BUG: %s\n", what.c_str());
    correct = false;
  }
};

/// Checks the run and barrier counts of `ex`. Its failed runs are counted
/// only for the execution whose runs are the ones reported as attempted (a
/// traced twin that crashed differently fails the fold comparison instead).
void check_execution(const Plan& plan, const Execution& ex, bool count_failed, Verdict& verdict) {
  const std::string& name = plan.workload.name;
  if (ex.result.runs_executed != plan.runs || ex.result.records.size() != plan.runs) {
    verdict.bug(name + " executed " + std::to_string(ex.result.runs_executed) + " of " +
                std::to_string(plan.runs) + " runs");
  }
  if (ex.barriers_ns.size() != plan.batches) {
    verdict.bug(name + " reported " + std::to_string(ex.barriers_ns.size()) +
                " barriers, expected " + std::to_string(plan.batches));
  }
  if (count_failed) verdict.failed += failed_runs(ex.result);
}

double setup_seconds(const Execution& ex) {
  return static_cast<double>(ex.first_replay_ns() - ex.t0_ns) / 1e9;
}

/// Appends the set-up time of `count` executions of the measured campaign,
/// each preempted at its first barrier: same size and config, so set-up work
/// that grows with the campaign shows here too.
void sample_setup(const Plan& plan, Probe& probe, std::size_t count, std::vector<double>& out) {
  fault::CampaignConfig config = plan.config;
  config.preempt_after = 1;
  for (std::size_t i = 0; i < count; ++i) {
    out.push_back(setup_seconds(execute(plan.workload, config, probe, plan.work_dir)));
  }
}

/// Prints a note when fewer than ten of `n` samples lie beyond the reported
/// per-mille percentile `per_mille` of `what`.
void note_tail(const char* what, std::size_t n, unsigned per_mille) {
  if (!percentile_supported(n, per_mille)) {
    std::printf("note: %s p%g rests on %zu samples, fewer than ten beyond it\n", what,
                per_mille / 10.0, n);
  }
}

/// setup_s (see kSetupGroups), runs_per_s, batch_ms_p50/p90 and
/// peak_rss_mb of the untraced campaign.
void end_to_end(const Execution& plain, const std::vector<double>& setup_s, double peak_rss,
                Metrics& metrics, Info& info) {
  const std::vector<double> intervals = barrier_intervals_ms(plain.barriers_ns);
  note_tail("batch_ms", intervals.size(), 900);  metrics.add("setup_s", median_of_strided_minima(setup_s, kSetupGroups), "s");
  metrics.add("runs_per_s", runs_per_second(plain), "1/s");
  metrics.add("batch_ms_p50", percentile(intervals, 0.5), "ms");
  metrics.add("batch_ms_p90", percentile(intervals, 0.9), "ms");
  metrics.add("peak_rss_mb", peak_rss, "MB");
  std::string all;
  for (const double v : setup_s) all += (all.empty() ? "" : ", ") + num(v);
  info.raw("setup_s_samples", "[" + all + "]");
  info.raw("samples", "{\"setup_s\": " + std::to_string(setup_s.size()) +
                          ", \"batch_ms\": " + std::to_string(intervals.size()) + "}");
}

/// The traced campaign's spans: setup, golden, every replay, every barrier
/// interval, and the codec and checkpoint timing calls. Kept in memory until
/// now and written once; replay spans carry their run index.
void write_trace(const Plan& plan, const Execution& ex, const std::vector<BatchSpan>& spans,
                 const CodecTiming& codec, const std::vector<SaveTiming>& saves, Info& info) {
  SpanLog log(ex.t0_ns);
  log.span("bench", "setup", "driver", ex.t0_ns, ex.first_replay_ns());
  for (const ReplaySample& s : ex.samples) {
    if (s.run == kGoldenRun) {
      log.span("apps", "golden", "driver", s.start_ns, s.end_ns);
      continue;
    }
    log.span("apps", "replay", "worker " + std::to_string(s.pid) + "." + std::to_string(s.tid),
             s.start_ns, s.end_ns,
             {obs::TraceArg::number("run", static_cast<double>(s.run)),
              obs::TraceArg::number("cold", s.cold ? 1 : 0)});
  }
  for (const BatchSpan& b : spans) {
    log.span("fault", "batch", "driver", b.open_ns, b.barrier_ns,
             {obs::TraceArg::number("batch", static_cast<double>(b.batch)),
              obs::TraceArg::number("first_run", static_cast<double>(b.batch * kBatchSize))});
  }
  if (!ex.barriers_ns.empty()) {
    log.span("bench", "after_last_barrier", "driver", ex.barriers_ns.back(), ex.end_ns);
  }
  log.span("codec", "append_record", "bench", codec.begin_ns, codec.encode_end_ns);
  log.span("codec", "record_from", "bench", codec.encode_end_ns, codec.decode_end_ns);
  for (const SaveTiming& t : saves) {
    log.span("fault", "save_checkpoint", "bench", t.start_ns, t.end_ns,
             {obs::TraceArg::number("records", static_cast<double>(t.records))});
  }
  // One file per workload: the latest traced run (its seed is in the info).
  const std::string dir = plan.args.out_dir + "/traces";
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/" + plan.workload.name + ".trace.json";
  log.write(path);
  info.str("trace_file", path);
  info.number("trace_spans", static_cast<double>(log.size()));
}

/// The per-layer metrics of the traced campaign `ex`; `plain` is its
/// untraced twin, for the tracing overhead.
void per_layer(const Plan& plan, const Execution& plain, const Execution& ex,
               const CodecTiming& codec, const Verdict& verdict, Metrics& metrics, Info& info) {
  const Workload& w = plan.workload;
  const double runs = static_cast<double>(plan.runs);
  const std::vector<double> replay_ms = durations_ms(ex.samples);
  // Remote replays: those timed inside worker processes (none in-process).
  std::vector<ReplaySample> remote;
  for (const ReplaySample& s : ex.samples) {
    if (s.pid != static_cast<std::uint32_t>(::getpid())) remote.push_back(s);
  }
  const std::vector<double> remote_replay_ms = durations_ms(remote);
  double golden_ms = 0;
  std::size_t cold = 0;
  double busy_ns = 0;
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::int64_t> first_start;  // per worker
  for (const ReplaySample& s : ex.samples) {
    if (s.run == kGoldenRun) {
      golden_ms = ms(static_cast<double>(s.end_ns - s.start_ns));
      continue;
    }
    cold += s.cold ? 1 : 0;
    busy_ns += static_cast<double>(s.end_ns - s.start_ns);
    auto [it, inserted] = first_start.try_emplace({s.pid, s.tid}, s.start_ns);
    if (!inserted) it->second = std::min(it->second, s.start_ns);
  }
  std::int64_t first_replay_max = 0;
  for (const auto& [worker, start] : first_start) {
    first_replay_max = std::max(first_replay_max, start - ex.t0_ns);
  }

  const std::vector<BatchSpan> spans = batch_spans(ex.barriers_ns, ex.samples, kBatchSize);
  const WallSplit split = split_wall(ex.t0_ns, ex.end_ns, spans, w.workers);
  std::vector<double> coord_ms, idle_ms;
  for (const BatchSpan& b : spans) {
    if (b.batch == 0) continue;  // batch 0's generate and dispatch are set-up
    coord_ms.push_back(ms(b.coord_ns()));
    idle_ms.push_back(ms(b.idle_ns(w.workers)));
  }
  // Queue wait: how long after its batch's first replay started a run
  // waited for a free worker (dispatch included).
  std::vector<std::int64_t> batch_first_start(ex.barriers_ns.size(), 0);
  for (const BatchSpan& b : spans) batch_first_start[b.batch] = b.first_start_ns;
  std::vector<double> queue_wait_ms;
  for (const ReplaySample& s : ex.samples) {
    if (s.run == kGoldenRun || s.run / kBatchSize >= batch_first_start.size()) continue;
    queue_wait_ms.push_back(ms(static_cast<double>(s.start_ns - batch_first_start[s.run / kBatchSize])));
  }
  const std::vector<SaveTiming> saves = time_checkpoints(ex, plan.config, plan.work_dir);
  std::vector<double> save_ms;
  for (const SaveTiming& t : saves) save_ms.push_back(ms(static_cast<double>(t.end_ns - t.start_ns)));

  // Assumes the apps' current epoch layout: kReplayEpochs = 8 golden epochs
  // at duration * k / 8 (caps.cpp, acc.cpp, bms.cpp), so an injection after
  // duration / 8 can fork from a snapshot instead of replaying in full. This
  // share must be revised when the epoch placement changes.
  const double duration_s = vps::apps::make_scenario(w.scenario)->duration().to_seconds();
  std::size_t eligible = 0;
  for (const fault::RunRecord& r : ex.result.records) {
    eligible += r.fault.inject_at.to_seconds() > duration_s / 8.0 ? 1 : 0;
  }
  const double steady_ns = static_cast<double>(ex.end_ns - ex.first_replay_ns());
  double checkpoint_bytes = 0;
  for (const std::uint64_t b : ex.checkpoint_bytes) checkpoint_bytes += static_cast<double>(b);
  const dist::FleetStats& fleet = ex.fleet;

  note_tail("apps.replay_ms", replay_ms.size(), 990);
  note_tail("dist.queue_wait_ms", queue_wait_ms.size(), 950);
  metrics.add("apps.replay_ms_p50", percentile(replay_ms, 0.5), "ms");
  metrics.add("apps.replay_ms_p99", percentile(replay_ms, 0.99), "ms");
  metrics.add("apps.replays", static_cast<double>(replay_ms.size()), "count");
  metrics.add("apps.golden_ms", golden_ms, "ms");
  metrics.add("apps.cold_replays", static_cast<double>(cold), "count");
  metrics.add("apps.fork_eligible_share", static_cast<double>(eligible) / runs, "ratio");
  metrics.add("apps.no_effect_share", ex.result.fraction(fault::Outcome::kNoEffect), "ratio");
  metrics.add("fault.pool_busy_frac", busy_ns / (static_cast<double>(w.workers) * steady_ns),
              "ratio");
  metrics.add("fault.coord_ms_per_batch", mean(coord_ms), "ms");
  metrics.add("fault.barrier_idle_ms_per_batch", mean(idle_ms), "ms");
  metrics.add("fault.checkpoint_bytes_total", checkpoint_bytes, "bytes");
  metrics.add("fault.checkpoint_save_ms", mean(save_ms), "ms");
  metrics.add("codec.encode_us_per_record", codec.encode_us, "us");
  metrics.add("codec.decode_us_per_record", codec.decode_us, "us");
  metrics.add("codec.bytes_per_record", codec.bytes, "bytes");
  metrics.add("dist.wire_bytes_per_run",
              static_cast<double>(fleet.bytes_sent + fleet.bytes_received) / runs, "bytes");
  metrics.add("dist.frames_per_run",
              static_cast<double>(fleet.frames_sent + fleet.frames_received) / runs, "count");
  metrics.add("dist.queue_wait_ms_p50", percentile(queue_wait_ms, 0.5), "ms");
  metrics.add("dist.queue_wait_ms_p95", percentile(queue_wait_ms, 0.95), "ms");
  metrics.add("dist.remote_replay_ms_p50", percentile(remote_replay_ms, 0.5), "ms");
  metrics.add("dist.first_replay_ms_max", ms(static_cast<double>(first_replay_max)), "ms");
  metrics.add("dist.requeued_runs", static_cast<double>(fleet.requeued_runs), "count");
  metrics.add("dist.worker_deaths", static_cast<double>(fleet.worker_deaths), "count");
  metrics.add("dist.reconnects", static_cast<double>(fleet.reconnects), "count");
  metrics.add("obs.trace_overhead_frac", runs_per_second(plain) / runs_per_second(ex) - 1.0,
              "ratio");
  metrics.add("obs.unattributed_ms", ms(split.unattributed_ns()), "ms");
  metrics.add("obs.unattributed_frac", split.unattributed_ns() / split.wall_ns, "ratio");
  metrics.add("worker_peak_rss_mb", rss_mb(RUSAGE_CHILDREN), "MB");
  metrics.add("failed_run_frac", static_cast<double>(verdict.failed) / runs, "ratio");

  std::printf("wall split of the traced campaign (%.1f ms):\n", ms(split.wall_ns));
  const auto row = [&split](const char* name, double ns) {
    std::printf("  %-36s %10.2f ms  %5.1f %%\n", name, ms(ns), 100.0 * ns / split.wall_ns);
  };
  row("setup (golden, twins, workers)", split.setup_ns);
  row("  of which golden run", golden_ms * 1e6);
  row("apps replay (mean worker busy)", split.replay_ns);
  row("fault barrier idle (stragglers)", split.idle_ns);
  row("fault coordination", split.coord_ns);
  if (w.checkpoint) {
    row("  of which checkpoint saves (est.)", mean(save_ms) * 1e6 * static_cast<double>(plan.batches));
  }
  row("unattributed", split.unattributed_ns());
  if (split.unattributed_ns() > 0.03 * split.wall_ns) {
    std::printf("note: layer self-times cover only %.1f %% of the wall time\n",
                100.0 * split.attributed_ns() / split.wall_ns);
  }
  info.raw("wall_split_ms",
           "{\"wall\": " + num(ms(split.wall_ns)) + ", \"setup\": " + num(ms(split.setup_ns)) +
               ", \"replay\": " + num(ms(split.replay_ns)) + ", \"idle\": " +
               num(ms(split.idle_ns)) + ", \"coord\": " + num(ms(split.coord_ns)) +
               ", \"unattributed\": " + num(ms(split.unattributed_ns())) + "}");
  info.raw("samples", "{\"replays\": " + std::to_string(replay_ms.size()) +
                          ", \"remote_replays\": " + std::to_string(remote_replay_ms.size()) +
                          ", \"batches\": " + std::to_string(spans.size()) +
                          ", \"coord_batches\": " + std::to_string(coord_ms.size()) +
                          ", \"queue_wait\": " + std::to_string(queue_wait_ms.size()) +
                          ", \"checkpoint_saves\": " + std::to_string(save_ms.size()) + "}");
  const obs::CampaignProgress& p = ex.final_progress;
  if (p.remote_runs != 0) {
    // The driver's own split comes from 10 ms histogram bins, too coarse for
    // sub-ms runs: reported beside the bench's exact samples, not as a metric.
    info.raw("campaign_progress_split",
             "{\"remote_runs\": " + std::to_string(p.remote_runs) + ", \"queue_wait_p50_ms\": " +
                 num(p.queue_wait_p50_ms) + ", \"queue_wait_p95_ms\": " +
                 num(p.queue_wait_p95_ms) + ", \"replay_p50_ms\": " + num(p.replay_p50_ms) +
                 ", \"replay_p95_ms\": " + num(p.replay_p95_ms) + "}");
  }
  write_trace(plan, ex, spans, codec, saves, info);
}

int run(const Args& args) {
  const Workload& w = *find_workload(args.workload);
  const std::size_t batches =
      args.runs != 0 ? (args.runs + kBatchSize - 1) / kBatchSize
                     : std::max(kMinBatches,
                                static_cast<std::size_t>(args.seconds * w.batches_per_second));
  const std::size_t runs = args.runs != 0 ? args.runs : batches * kBatchSize;
  const Plan plan{args, w, runs, batches, campaign_config(args.seed, runs),
                  args.out_dir + "/work/" + w.name + "." + std::to_string(::getpid())};
  std::printf("== campaign_bench %s: %s on %s, %zu workers, seed %llu, %zu runs (%zu batches) ==\n",
              w.name.c_str(), w.scenario.c_str(), executor_name(w.executor), w.workers,
              static_cast<unsigned long long>(args.seed), runs, batches);

  // The measured campaign; a traced run adds a traced twin of it, an
  // untraced one set-up samples on both sides of it (host speed drifts over
  // seconds, so they should not all fall in one stretch).
  Probe light(plan.work_dir + "/probe", /*full=*/false);
  std::vector<double> setup_s;
  if (!args.trace) sample_setup(plan, light, kSetupSamplesEachSide, setup_s);
  const Execution plain = execute(w, plan.config, light, plan.work_dir);
  const double peak_rss = rss_mb(RUSAGE_SELF);
  if (!args.trace) {
    setup_s.push_back(setup_seconds(plain));
    sample_setup(plan, light, kSetupSamplesEachSide, setup_s);
  }
  Execution traced;
  if (args.trace) {
    Probe full(plan.work_dir + "/probe", /*full=*/true);
    traced = execute(w, plan.config, full, plan.work_dir);
  }
  const Execution& ex = args.trace ? traced : plain;

  // Correctness: run count, crashes, and the fold against the reference.
  Verdict verdict;
  check_execution(plan, plain, /*count_failed=*/true, verdict);
  if (args.trace) check_execution(plan, traced, /*count_failed=*/false, verdict);
  const FoldCheck check = check_prefix(plain.result, reference_fold(w, args.seed, w.reference_batches));
  const std::uint32_t digest = fold_digest(plain.result, runs);
  std::printf("fold digest %s over %zu runs; reference prefix %zu runs: %s vs %s -> %s\n",
              hex32(digest).c_str(), runs, check.compared, hex32(check.digest).c_str(),
              hex32(check.reference_digest).c_str(), check.ok() ? "identical: yes" : "MISMATCH");
  if (!check.ok()) {
    verdict.bug(w.name + " fold diverges from the in-process 1-thread reference at run " +
                std::to_string(check.first_mismatch) + " (" + std::to_string(check.mismatched) +
                " runs differ)");
    verdict.failed += std::max<std::size_t>(1, check.mismatched);
  }
  if (args.trace && fold_digest(traced.result, runs) != digest) {
    verdict.bug(w.name + " traced fold differs from the untraced fold");
    verdict.failed += 1;
  }
  const CodecTiming codec = time_codec(ex.result);
  if (!codec.round_trip) verdict.bug("checkpoint codec does not round-trip this fold's records");

  Info info;
  info.str("workload", w.name);
  info.str("scenario", w.scenario);
  info.str("executor", executor_name(w.executor));
  info.number("workers", static_cast<double>(w.workers));
  info.number("seed", static_cast<double>(args.seed));
  info.number("runs", static_cast<double>(runs));
  info.number("batches", static_cast<double>(batches));
  info.number("batch_size", static_cast<double>(kBatchSize));
  info.number("seconds", args.seconds);
  info.number("trace", args.trace ? 1 : 0);
  info.number("nproc", std::thread::hardware_concurrency());
  info.str("build_type", CAMPAIGN_BENCH_BUILD_TYPE);
  info.str("compiler", CAMPAIGN_BENCH_COMPILER);
  info.str("rev", args.rev);
  info.str("fold_digest", hex32(digest));
  info.str("reference_digest", hex32(check.reference_digest));
  info.number("reference_runs", static_cast<double>(check.compared));

  Metrics metrics;
  if (args.trace) {
    per_layer(plan, plain, traced, codec, verdict, metrics, info);
  } else {
    end_to_end(plain, setup_s, peak_rss, metrics, info);
  }
  for (const std::string& name : metrics.non_finite) verdict.bug(name + " is not a finite number");
  std::filesystem::remove_all(plan.work_dir);

  std::printf("metrics:\n");
  for (const auto& [name, vu] : metrics.items) {
    std::printf("  %-34s %16.6f %s\n", name.c_str(), vu.first, vu.second.c_str());
  }
  const std::string result = "{\"correct\": " + std::string(verdict.correct ? "true" : "false") +
                             ", \"attempted\": " + std::to_string(runs) +
                             ", \"failed\": " + std::to_string(verdict.failed) +
                             ", \"metrics\": " + metrics.json() + "}";
  const std::string results_dir = args.out_dir + "/results";
  std::filesystem::create_directories(results_dir);
  const std::string result_path = results_dir + "/" + w.name + ".seed" +
                                  std::to_string(args.seed) + (args.trace ? ".trace" : "") +
                                  ".json";
  if (std::FILE* f = std::fopen(result_path.c_str(), "w")) {
    std::fprintf(f, "{\"info\": %s, \"result\": %s}\n", info.json().c_str(), result.c_str());
    std::fclose(f);
  }
  std::printf("{\"info\": %s}\n", info.json().c_str());
  std::printf("%s\n", result.c_str());
  return verdict.correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> names = workload_names();
  const ParsedArgs parsed = parse_args(std::vector<std::string>(argv + 1, argv + argc), names);
  if (!parsed.args) {
    std::fprintf(stderr, "campaign_bench: %s\n%s\n", parsed.error.c_str(), usage(names).c_str());
    return 2;
  }
  try {
    return run(*parsed.args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "campaign_bench: error: %s\n", e.what());
    return 1;
  }
}
