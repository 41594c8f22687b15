#include "vps/fault/campaign.hpp"

#include <algorithm>
#include <cstdio>
#include <exception>
#include <optional>
#include <utility>

#include "vps/support/ensure.hpp"
#include "vps/support/table.hpp"

namespace vps::fault {

using support::ensure;

const char* to_string(Strategy s) noexcept {
  switch (s) {
    case Strategy::kMonteCarlo: return "monte_carlo";
    case Strategy::kGuided: return "guided";
    case Strategy::kCoverageDriven: return "coverage_driven";
    case Strategy::kExhaustiveGrid: return "exhaustive_grid";
  }
  return "?";
}

std::optional<sim::Time> RunRecord::detection_latency() const noexcept {
  for (const auto& fp : provenance) {
    if (const auto latency = fp.detection_latency()) return latency;
  }
  return std::nullopt;
}

double CampaignResult::diagnostic_coverage() const noexcept {
  const double detected = static_cast<double>(count(Outcome::kDetectedCorrected) +
                                              count(Outcome::kDetectedUncorrected));
  // A hang is a dangerous, undetected outcome — the same way weak_spots()
  // counts it. Without it here a campaign full of timeouts reported DC = 1.
  // kSimCrash stays out of both sums: the replay never produced a system
  // verdict, so it can neither raise nor dilute the FMEDA metric.
  const double dangerous = detected + static_cast<double>(count(Outcome::kSilentDataCorruption) +
                                                          count(Outcome::kHazard) +
                                                          count(Outcome::kTimeout));
  return dangerous == 0.0 ? 1.0 : detected / dangerous;
}

std::string CampaignResult::render() const {
  support::Table t({"outcome", "count", "fraction"});
  for (std::size_t i = 0; i < kOutcomeCount; ++i) {
    char frac[32];
    std::snprintf(frac, sizeof frac, "%.3f", fraction(static_cast<Outcome>(i)));
    t.add_row({to_string(static_cast<Outcome>(i)), std::to_string(outcome_counts[i]), frac});
  }
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "runs=%zu  coverage=%.1f%%  DC=%.3f  first_hazard_at=%zu\n"
                "P(hazard) = %.3g  [%.3g, %.3g] (Wilson 95%%)\n",
                runs_executed, 100.0 * final_coverage, diagnostic_coverage(),
                faults_to_first_hazard, hazard_probability.estimate, hazard_probability.lo,
                hazard_probability.hi);
  return t.render() + buf;
}

void CampaignResult::merge(const CampaignResult& shard) {
  if (faults_to_first_hazard == 0 && shard.faults_to_first_hazard != 0) {
    faults_to_first_hazard = runs_executed + shard.faults_to_first_hazard;
  }
  for (std::size_t i = 0; i < kOutcomeCount; ++i) outcome_counts[i] += shard.outcome_counts[i];
  records.insert(records.end(), shard.records.begin(), shard.records.end());
  coverage_curve.insert(coverage_curve.end(), shard.coverage_curve.begin(),
                        shard.coverage_curve.end());
  quarantine.insert(quarantine.end(), shard.quarantine.begin(), shard.quarantine.end());
  runs_executed += shard.runs_executed;
  interrupted = interrupted || shard.interrupted;
  if (coverage != nullptr && shard.coverage != nullptr) {
    // Exact aggregate coverage: fold the shards' hit counts. Copy-on-write —
    // the published shard pointers may be shared with other results.
    auto merged = std::make_shared<coverage::FaultSpaceCoverage>(*coverage);
    merged->merge(*shard.coverage);
    final_coverage = merged->coverage();
    coverage = std::move(merged);
  } else {
    // A side lost its shard (hand-built result): max is the best available
    // lower bound on true aggregate coverage.
    final_coverage = std::max(final_coverage, shard.final_coverage);
    if (coverage == nullptr) coverage = shard.coverage;
  }
  hazard_probability = support::wilson_interval(count(Outcome::kHazard), runs_executed);
}

std::vector<CampaignResult::WeakSpot> CampaignResult::weak_spots() const {
  std::vector<WeakSpot> spots;
  const auto find = [&spots](FaultType t) -> WeakSpot& {
    for (auto& s : spots) {
      if (s.type == t) return s;
    }
    spots.push_back(WeakSpot{t, 0, 0});
    return spots.back();
  };
  for (const auto& rec : records) {
    WeakSpot& s = find(rec.fault.type);
    ++s.injected;
    s.dangerous += rec.outcome == Outcome::kHazard ||
                   rec.outcome == Outcome::kSilentDataCorruption ||
                   rec.outcome == Outcome::kTimeout;
  }
  std::sort(spots.begin(), spots.end(), [](const WeakSpot& a, const WeakSpot& b) {
    return a.danger_rate() > b.danger_rate();
  });
  return spots;
}

std::string CampaignResult::render_weak_spots() const {
  support::Table t({"fault population", "injected", "dangerous", "danger rate"});
  for (const auto& s : weak_spots()) {
    char rate[32];
    std::snprintf(rate, sizeof rate, "%.3f", s.danger_rate());
    t.add_row({to_string(s.type), std::to_string(s.injected), std::to_string(s.dangerous), rate});
  }
  std::string out = t.render();
  if (!quarantine.empty()) out += render_quarantine();
  return out;
}

std::string CampaignResult::render_quarantine() const {
  std::string out =
      "quarantine (" + std::to_string(quarantine.size()) + " crashing descriptors)\n";
  support::Table t({"fault id", "type", "attempts", "error"});
  for (const auto& q : quarantine) {
    t.add_row({std::to_string(q.fault.id), to_string(q.fault.type), std::to_string(q.attempts),
               q.what});
  }
  return out + t.render();
}

std::vector<CampaignResult::LatencyStats> CampaignResult::detection_latency_stats(
    double lo_us, double hi_us, std::size_t bins) const {
  std::vector<LatencyStats> stats;
  const auto find = [&stats, lo_us, hi_us, bins](FaultType t) -> LatencyStats& {
    for (auto& s : stats) {
      if (s.type == t) return s;
    }
    stats.emplace_back(t, lo_us, hi_us, bins);
    return stats.back();
  };
  for (const auto& rec : records) {
    if (rec.provenance.empty()) continue;  // untraced run: no latency verdict
    LatencyStats& s = find(rec.fault.type);
    ++s.traced;
    if (const auto latency = rec.detection_latency()) {
      ++s.detected;
      s.latency_us.add(latency->to_seconds() * 1e6);
    }
  }
  // Enum order, so the table layout is independent of record order (and
  // therefore identical across shard merge orders and worker counts).
  std::sort(stats.begin(), stats.end(), [](const LatencyStats& a, const LatencyStats& b) {
    return static_cast<int>(a.type) < static_cast<int>(b.type);
  });
  return stats;
}

std::string CampaignResult::render_latency(double lo_us, double hi_us, std::size_t bins) const {
  const auto stats = detection_latency_stats(lo_us, hi_us, bins);
  if (stats.empty()) return "detection latency: no provenance-traced runs\n";
  support::Table t({"fault population", "traced", "detected", "p50 [us]", "p95 [us]", "p99 [us]"});
  for (const auto& s : stats) {
    if (s.detected == 0) {
      t.add_row({to_string(s.type), std::to_string(s.traced), "0", "-", "-", "-"});
      continue;
    }
    char p50[32], p95[32], p99[32];
    std::snprintf(p50, sizeof p50, "%.1f", s.latency_us.percentile(0.50));
    std::snprintf(p95, sizeof p95, "%.1f", s.latency_us.percentile(0.95));
    std::snprintf(p99, sizeof p99, "%.1f", s.latency_us.percentile(0.99));
    t.add_row({to_string(s.type), std::to_string(s.traced), std::to_string(s.detected), p50, p95,
               p99});
  }
  return t.render();
}

std::string CampaignResult::provenance_jsonl() const {
  std::string out;
  for (const auto& rec : records) {
    for (const auto& fp : rec.provenance) {
      out += obs::provenance_to_json(fp);
      out += '\n';
    }
  }
  return out;
}

std::string CampaignResult::provenance_dot() const {
  std::string out = "digraph provenance {\n  rankdir=LR;\n  node [shape=box, fontsize=10];\n";
  std::size_t index = 0;
  for (const auto& rec : records) {
    for (const auto& fp : rec.provenance) obs::provenance_to_dot(fp, index++, out);
  }
  out += "}\n";
  return out;
}

void CampaignResult::publish_metrics(obs::MetricRegistry& registry, const std::string& prefix,
                                     double lo_us, double hi_us, std::size_t bins) const {
  registry.counter(prefix + ".runs").add(runs_executed);
  registry.counter(prefix + ".quarantined").add(quarantine.size());
  for (std::size_t i = 0; i < kOutcomeCount; ++i) {
    registry.counter(prefix + ".outcome." + to_string(static_cast<Outcome>(i)))
        .add(outcome_counts[i]);
  }
  registry.gauge(prefix + ".coverage").set(final_coverage);
  registry.gauge(prefix + ".diagnostic_coverage").set(diagnostic_coverage());
  registry.gauge(prefix + ".hazard_probability").set(hazard_probability.estimate);
  auto& hist = registry.histogram(prefix + ".detection_latency_us", lo_us, hi_us, bins);
  for (const auto& rec : records) {
    if (const auto latency = rec.detection_latency()) hist.add(latency->to_seconds() * 1e6);
  }
}

ReplayResult replay_isolated(Scenario& scenario, const FaultDescriptor& fault, std::uint64_t seed,
                             const Observation& golden, std::size_t crash_retries) {
  ReplayResult result;
  for (std::size_t attempt = 0; attempt <= crash_retries; ++attempt) {
    result.attempts = static_cast<std::uint32_t>(attempt + 1);
    try {
      Observation obs = scenario.run(&fault, seed);
      result.outcome = classify(golden, obs);
      result.crash_what.clear();
      result.provenance = std::move(obs.provenance);
      return result;
    } catch (const std::exception& e) {
      result.crash_what = e.what();
    } catch (...) {
      result.crash_what = "unknown exception";
    }
  }
  result.outcome = Outcome::kSimCrash;
  return result;
}

CampaignState::CampaignState(std::vector<FaultType> types, sim::Time duration,
                             const CampaignConfig& config)
    : config_(config),
      duration_(duration),
      types_(std::move(types)),
      coverage_(std::max<std::size_t>(1, types_.size()), config.location_buckets,
                config.time_windows) {
  ensure(!types_.empty(), "Campaign: scenario offers no fault types");
  ensure(config_.runs > 0, "Campaign: zero runs");
  weights_.assign(types_.size() * config_.location_buckets, 1.0);
}

std::uint64_t CampaignState::address_for_bucket(std::size_t bucket, support::Xorshift& rng) {
  return bucket + config_.location_buckets * rng.uniform_u64(0, 1 << 20);
}

FaultDescriptor CampaignState::generate(std::size_t run_index) {
  support::Xorshift rng = support::Xorshift(config_.seed).fork(run_index);
  std::size_t type_idx = 0;
  std::size_t bucket = 0;

  switch (config_.strategy) {
    case Strategy::kMonteCarlo: {
      type_idx = rng.index(types_.size());
      bucket = rng.index(config_.location_buckets);
      break;
    }
    case Strategy::kGuided: {
      const std::size_t cell = rng.weighted(weights_);
      type_idx = cell / config_.location_buckets;
      bucket = cell % config_.location_buckets;
      break;
    }
    case Strategy::kCoverageDriven: {
      const auto holes = coverage_.class_location_holes();
      if (!holes.empty()) {
        const auto& hole = holes[rng.index(holes.size())];
        type_idx = std::min(hole.first, types_.size() - 1);
        bucket = hole.second;
      } else {
        // Space covered: continue with guided weights (closure reached).
        const std::size_t cell = rng.weighted(weights_);
        type_idx = cell / config_.location_buckets;
        bucket = cell % config_.location_buckets;
      }
      break;
    }
    case Strategy::kExhaustiveGrid: {
      const std::size_t cells = types_.size() * config_.location_buckets;
      const std::size_t cell = run_index % cells;
      type_idx = cell / config_.location_buckets;
      bucket = cell % config_.location_buckets;
      break;
    }
  }

  FaultDescriptor fault;
  fault.id = next_fault_id_++;
  fault.type = types_[type_idx];
  fault.address = address_for_bucket(bucket, rng);
  fault.bit = static_cast<int>(rng.index(39));
  fault.location = std::string(to_string(fault.type)) + "/bucket" + std::to_string(bucket);

  // Injection time: uniform window (grid strategy walks the windows).
  const double window_count = static_cast<double>(config_.time_windows);
  double tf;
  if (config_.strategy == Strategy::kExhaustiveGrid) {
    const std::size_t cells = types_.size() * config_.location_buckets;
    const std::size_t window = (run_index / cells) % config_.time_windows;
    tf = (static_cast<double>(window) + rng.uniform()) / window_count;
  } else {
    tf = rng.uniform();
  }
  fault.inject_at = sim::Time::from_seconds(duration_.to_seconds() * tf);

  // Type-specific parameters.
  switch (fault.type) {
    case FaultType::kSensorOffset:
      fault.magnitude = rng.uniform(-2.0, 2.0);
      break;
    case FaultType::kSensorStuck:
      fault.magnitude = rng.uniform(0.0, 5.0);
      fault.persistence = Persistence::kPermanent;
      break;
    case FaultType::kExecutionSlowdown:
      fault.magnitude = rng.uniform(1.5, 4.0);
      fault.persistence = Persistence::kIntermittent;
      fault.duration = sim::Time::from_seconds(duration_.to_seconds() * 0.2);
      break;
    case FaultType::kTaskKill:
      fault.persistence = rng.chance(0.5) ? Persistence::kPermanent : Persistence::kIntermittent;
      fault.duration = sim::Time::from_seconds(duration_.to_seconds() * 0.3);
      break;
    case FaultType::kCanFrameCorruption:
      // Half wire upsets (CRC-detectable transients), half buffer/gateway
      // corruption that only end-to-end protection can catch.
      fault.persistence = rng.chance(0.5) ? Persistence::kTransient : Persistence::kIntermittent;
      fault.magnitude = rng.uniform(0.2, 1.0);
      fault.duration = sim::Time::from_seconds(duration_.to_seconds() * 0.2);
      break;
    case FaultType::kSignalStuck:
      fault.magnitude = rng.chance(0.5) ? 1.0 : -1.0;
      fault.persistence = Persistence::kIntermittent;
      fault.duration = sim::Time::from_seconds(duration_.to_seconds() * 0.25);
      break;
    default:
      break;
  }
  return fault;
}

bool CampaignState::learn(const FaultDescriptor& fault, Outcome outcome) {
  // A crashed replay never produced a system verdict: it must influence
  // neither the guided weights nor fault-space coverage (coverage measures
  // verdicts obtained, and a crash-heavy campaign must not look "covered").
  if (outcome == Outcome::kSimCrash) return false;
  // Guided strategy: boost cells that produced dangerous outcomes. A type
  // outside the campaign's fault space has no cell — skip the sample
  // instead of corrupting cell 0's weight and coverage.
  std::size_t type_idx = types_.size();
  for (std::size_t i = 0; i < types_.size(); ++i) {
    if (types_[i] == fault.type) type_idx = i;
  }
  if (type_idx == types_.size()) return false;
  const std::size_t bucket = fault.address % config_.location_buckets;
  double& w = weights_[cell_index(type_idx, bucket)];
  switch (outcome) {
    case Outcome::kHazard:
    case Outcome::kSilentDataCorruption:
      w = std::min(w * 2.0, 64.0);
      break;
    case Outcome::kDetectedUncorrected:
    case Outcome::kTimeout:
      w = std::min(w * 1.3, 64.0);
      break;
    case Outcome::kNoEffect:
      w = std::max(w * 0.9, 1.0 / 64.0);
      break;
    case Outcome::kDetectedCorrected:
    case Outcome::kSimCrash:  // unreachable (filtered above); keeps -Wswitch exhaustive
      break;
  }
  const double tf = duration_ == sim::Time::zero()
                        ? 0.0
                        : fault.inject_at.to_seconds() / duration_.to_seconds();
  coverage_.sample(type_idx, bucket, tf);
  return true;
}

}  // namespace vps::fault
